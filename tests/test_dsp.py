import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gripsense import dsp


def tone(freq=440.0, sr=16000, seconds=1.0, amp=0.5):
    t = np.arange(round(sr * seconds)) / sr
    return amp * np.sin(2.0 * np.pi * freq * t)


def make_segment(samples, sr=16000):
    return dsp.AudioSegment(np.asarray(samples, dtype=float), "t", 0.0,
                            sample_rate=sr)


class TestCropAndSegment:
    @pytest.mark.parametrize("seconds,hop,expect", [
        (3.0, 1.0, 3),
        (3.5, 1.0, 3),
        (3.0, 0.5, 5),
        (1.0, 1.0, 1),
    ])
    def test_segment_counts(self, seconds, hop, expect):
        w = dsp.Waveform(tone(seconds=seconds), 16000)
        segs = dsp.segment(w, hop, "trial")
        assert len(segs) == expect
        assert [s.offset_s for s in segs] == [k * hop for k in range(expect)]

    @settings(max_examples=60)
    @given(seconds=st.floats(1.0, 6.0), hop=st.floats(0.1, 2.0))
    def test_segment_count_law(self, seconds, hop):
        sr = 16000
        w = dsp.Waveform(np.zeros(round(sr * seconds)), sr)
        segs = dsp.segment(w, hop)
        n = len(w.samples)
        # every emitted window fits; the next one would not
        for k, s in enumerate(segs):
            assert round(k * hop * sr) + sr <= n
            assert len(s.samples) == sr
        assert round(len(segs) * hop * sr) + sr > n

    def test_segment_rejects_short_waveform(self):
        with pytest.raises(ValueError):
            dsp.segment(dsp.Waveform(np.zeros(15999), 16000), 1.0)


class TestAugmentations:
    def test_pitch_shift_zero_is_identity(self):
        seg = make_segment(tone())
        out = dsp.pitch_shift(seg, 0.0)
        assert np.max(np.abs(out.samples - seg.samples)) < 1e-9

    def test_pitch_shift_octave_doubles_frequency(self):
        seg = make_segment(tone(440.0))
        out = dsp.pitch_shift(seg, 12.0)
        assert len(out.samples) == len(seg.samples)
        assert abs(oracles.dominant_bin_hz(out.samples, 16000) - 880.0) < 16000 / 8192

    @pytest.mark.parametrize("semitones", [-2.0, -1.0, 0.5, 2.0])
    def test_pitch_shift_frequency_mapping(self, semitones):
        seg = make_segment(tone(500.0))
        out = dsp.pitch_shift(seg, semitones)
        want = 500.0 * 2.0 ** (semitones / 12.0)
        got = oracles.dominant_bin_hz(out.samples, 16000)
        assert abs(got - want) <= 16000 / len(out.samples)

    def test_pitch_shift_up_round_trips(self):
        # up-shift compresses and wraps, so shifting back restores the
        # tone; down-shifts truncate content and are not invertible
        seg = make_segment(tone(500.0))
        for st_ in (0.5, 1.0, 2.0):
            back = dsp.pitch_shift(dsp.pitch_shift(seg, st_), -st_)
            a, b = seg.samples, back.samples
            corr = float(np.dot(a, b) / np.sqrt(np.dot(a, a) * np.dot(b, b)))
            assert corr > 0.99, f"{st_}: corr {corr:.3f}"

    def test_pitch_shift_range_guard(self):
        with pytest.raises(ValueError):
            dsp.pitch_shift(make_segment(tone()), 12.5)

    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0, 40.0])
    def test_add_noise_hits_requested_snr(self, snr_db):
        seg = make_segment(tone())
        noisy = dsp.add_noise(seg, snr_db, seed=5)
        noise = noisy.samples - seg.samples
        got = 10.0 * np.log10(np.mean(seg.samples ** 2) / np.mean(noise ** 2))
        assert abs(got - snr_db) < 0.5

    def test_add_noise_high_snr_is_gentle(self):
        seg = make_segment(tone())
        noisy = dsp.add_noise(seg, 60.0, seed=5)
        assert float(np.max(np.abs(noisy.samples - seg.samples))) < 1e-2

    def test_add_noise_deterministic_per_seed(self):
        seg = make_segment(tone())
        a = dsp.add_noise(seg, 20.0, seed=9)
        b = dsp.add_noise(seg, 20.0, seed=9)
        c = dsp.add_noise(seg, 20.0, seed=10)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_add_noise_rejects_silence(self):
        with pytest.raises(ValueError):
            dsp.add_noise(make_segment(np.zeros(16000)), 20.0, seed=0)


class TestMfcc:
    def test_frame_count_contract(self):
        m = dsp.mfcc(make_segment(tone()))
        assert m.shape == (98, 13)

    def test_silence_is_flat(self):
        m = dsp.mfcc(make_segment(np.zeros(16000)))
        # every frame of digital silence produces the identical coefficient row
        assert np.ptp(m, axis=0).max() == 0.0

    def test_gain_shifts_only_the_first_coefficient(self):
        # broadband input keeps every mel band far above the log floor, so
        # a global gain adds a constant to each log energy and the DCT maps
        # that constant onto coefficient 0 alone
        noise = 0.5 * np.random.default_rng(3).standard_normal(16000)
        a = dsp.mfcc(make_segment(noise))
        b = dsp.mfcc(make_segment(0.25 * noise))
        assert np.max(np.abs(a[:, 1:] - b[:, 1:])) < 1e-6
        assert np.min(a[:, 0] - b[:, 0]) > 0.1

    def test_dct_rows_orthonormal(self):
        d = dsp.dct_matrix(40, 40)
        assert np.allclose(d @ d.T, np.eye(40), atol=1e-12)

    def test_filterbank_covers_band_without_gaps(self):
        bank = dsp.mel_filterbank(16000)
        bin_hz = np.arange(257) * 16000 / 512
        inside = (bin_hz > 100.0) & (bin_hz < 7000.0)
        assert (bank.sum(axis=0)[inside] > 0).all()

    def test_filterbank_and_dct_are_shared_read_only(self):
        bank = dsp.mel_filterbank(16000)
        assert dsp.mel_filterbank(16000) is bank
        assert np.array_equal(dsp._DCT, dsp.dct_matrix(dsp.N_COEFFS, dsp.N_MELS))
        for arr in (bank, dsp._DCT, dsp._WINDOW[None]):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

    def test_mel_scale_round_trip(self):
        f = np.linspace(20.0, 7600.0, 50)
        assert np.allclose(dsp.mel_to_hz(dsp.hz_to_mel(f)), f)

    def test_nyquist_guard(self):
        seg = make_segment(tone(sr=8000), sr=8000)
        with pytest.raises(ValueError):
            dsp.mfcc(seg)


class TestWavIO:
    def test_round_trip_is_bit_exact_on_pcm_grid(self, tmp_path):
        samples = np.round(tone() * 32767.0) / 32767.0
        path = tmp_path / "t.wav"
        dsp.write_wav(path, samples, 16000)
        back = dsp.read_wav(path)
        assert back.sample_rate == 16000
        assert np.array_equal(back.samples, samples)

    def test_read_rejects_stereo(self, tmp_path):
        import wave

        path = tmp_path / "s.wav"
        with wave.open(str(path), "wb") as f:
            f.setnchannels(2)
            f.setsampwidth(2)
            f.setframerate(16000)
            f.writeframes(b"\x00\x00" * 32)
        with pytest.raises(ValueError):
            dsp.read_wav(path)
