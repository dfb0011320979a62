import wave
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gripsense import dsp
from gripsense.simulation import SAMPLE_RATE


def tone(freq=440.0, sr=16000, seconds=1.0, amp=0.5):
    t = np.arange(round(sr * seconds)) / sr
    return amp * np.sin(2.0 * np.pi * freq * t)


class TestCropAndSegment:
    # hop is the expected start of segment k + 1 after segment k, in s
    @pytest.mark.parametrize("seconds,hop,expect", [
        (3.0, 1.0, 3),
        (3.5, 1.0, 3),
        (1.0, 1.0, 1),
    ])
    def test_segment_counts(self, seconds, hop, expect):
        x = tone(seconds=seconds)
        segs = dsp.segment(x)
        assert segs.shape == (expect, SAMPLE_RATE)
        for k, seg in enumerate(segs):
            start = round(k * hop * SAMPLE_RATE)
            assert np.array_equal(seg, x[start:start + SAMPLE_RATE])

    @settings(max_examples=60)
    @given(n=st.integers(16000, 96000))
    def test_segment_count_law(self, n):
        segs = dsp.segment(np.arange(n, dtype=float))
        # back-to-back one-second windows from sample 0; every emitted
        # window fits, the next one would not
        assert segs.shape[1] == dsp.SEGMENT_SAMPLES == SAMPLE_RATE
        assert np.array_equal(segs.reshape(-1), np.arange(segs.size))
        assert segs.size <= n < segs.size + SAMPLE_RATE

    def test_segment_rejects_short_waveform(self):
        with pytest.raises(ValueError):
            dsp.segment(np.zeros(15999))


class TestAugmentations:
    def test_pitch_shift_zero_is_identity(self):
        seg = tone()
        out = dsp.pitch_shift(seg, 0.0)
        assert np.max(np.abs(out - seg)) < 1e-9

    def test_pitch_shift_octave_doubles_frequency(self):
        seg = tone(440.0)
        out = dsp.pitch_shift(seg, 12.0)
        assert len(out) == len(seg)
        assert abs(oracles.dominant_bin_hz(out, 16000) - 880.0) < 16000 / 8192

    @pytest.mark.parametrize("semitones", [-2.0, -1.0, 0.5, 2.0])
    def test_pitch_shift_frequency_mapping(self, semitones):
        seg = tone(500.0)
        out = dsp.pitch_shift(seg, semitones)
        want = 500.0 * 2.0 ** (semitones / 12.0)
        got = oracles.dominant_bin_hz(out, 16000)
        assert abs(got - want) <= 16000 / len(out)

    def test_pitch_shift_up_round_trips(self):
        # up-shift compresses and wraps, so shifting back restores the
        # tone; down-shifts truncate content and are not invertible
        a = tone(500.0)
        for st_ in (0.5, 1.0, 2.0):
            b = dsp.pitch_shift(dsp.pitch_shift(a, st_), -st_)
            corr = float(np.dot(a, b) / np.sqrt(np.dot(a, a) * np.dot(b, b)))
            assert corr > 0.99, f"{st_}: corr {corr:.3f}"

    def test_pitch_shift_range_guard(self):
        with pytest.raises(ValueError):
            dsp.pitch_shift(tone(), 12.5)

    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0, 40.0])
    def test_add_noise_hits_requested_snr(self, snr_db):
        seg = tone()
        noise = dsp.add_noise(seg, snr_db, seed=5) - seg
        got = 10.0 * np.log10(np.mean(seg ** 2) / np.mean(noise ** 2))
        assert abs(got - snr_db) < 0.5

    def test_add_noise_high_snr_is_gentle(self):
        seg = tone()
        noisy = dsp.add_noise(seg, 60.0, seed=5)
        assert float(np.max(np.abs(noisy - seg))) < 1e-2

    def test_add_noise_deterministic_per_seed(self):
        seg = tone()
        a = dsp.add_noise(seg, 20.0, seed=9)
        b = dsp.add_noise(seg, 20.0, seed=9)
        c = dsp.add_noise(seg, 20.0, seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_add_noise_rejects_silence(self):
        with pytest.raises(ValueError):
            dsp.add_noise(np.zeros(16000), 20.0, seed=0)


class TestMfcc:
    def test_frame_count_contract(self):
        m = dsp.mfcc(tone())
        assert m.shape == (98, 13)

    @pytest.mark.parametrize("n", [400, 401, 559, 560, 16000])
    def test_windowed_frames_equal_index_gather(self, n):
        # the strided framing reads the same samples as gathering each
        # frame's indices, one frame every HOP samples
        x = np.random.default_rng(n).standard_normal(n)
        n_frames = 1 + (n - dsp.FRAME_LEN) // dsp.HOP
        idx = np.arange(dsp.FRAME_LEN)[None, :] \
            + dsp.HOP * np.arange(n_frames)[:, None]
        frames = dsp.windowed_frames(x)
        assert frames.shape == (n_frames, dsp.FRAME_LEN)
        assert np.array_equal(frames, x[idx] * dsp._WINDOW)

    def test_silence_is_flat(self):
        m = dsp.mfcc(np.zeros(16000))
        # every frame of digital silence produces the identical coefficient row
        assert np.ptp(m, axis=0).max() == 0.0

    def test_gain_shifts_only_the_first_coefficient(self):
        # broadband input keeps every mel band far above the log floor, so
        # a global gain adds a constant to each log energy and the DCT maps
        # that constant onto coefficient 0 alone
        noise = 0.5 * np.random.default_rng(3).standard_normal(16000)
        a = dsp.mfcc(noise)
        b = dsp.mfcc(0.25 * noise)
        assert np.max(np.abs(a[:, 1:] - b[:, 1:])) < 1e-6
        assert np.min(a[:, 0] - b[:, 0]) > 0.1

    def test_dct_rows_orthonormal(self):
        d = dsp.dct_matrix(40, 40)
        assert np.allclose(d @ d.T, np.eye(40), atol=1e-12)

    def test_filterbank_covers_band_without_gaps(self):
        bin_hz = np.arange(257) * 16000 / 512
        inside = (bin_hz > 100.0) & (bin_hz < 7000.0)
        assert (dsp._MEL_BANK.sum(axis=0)[inside] > 0).all()

    def test_filterbank_and_dct_are_shared_read_only(self):
        assert dsp._MEL_BANK.shape == (dsp.N_MELS, dsp.N_FFT // 2 + 1)
        assert np.array_equal(dsp._DCT, dsp.dct_matrix(dsp.N_COEFFS, dsp.N_MELS))
        for arr in (dsp._MEL_BANK, dsp._DCT, dsp._WINDOW[None]):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

    def test_mel_scale_round_trip(self):
        f = np.linspace(20.0, 7600.0, 50)
        assert np.allclose(dsp.mel_to_hz(dsp.hz_to_mel(f)), f)

    def test_nyquist_guard(self):
        # the recipe's band ends below the Nyquist rate of the rig's one
        # sample rate, so no filter reaches past the last FFT bin
        assert dsp.FMAX < SAMPLE_RATE / 2
        bin_hz = np.arange(dsp.N_FFT // 2 + 1) * SAMPLE_RATE / dsp.N_FFT
        assert not dsp._MEL_BANK[:, bin_hz > dsp.FMAX].any()
        assert dsp._MEL_BANK[-1].any()

    def test_rejects_a_segment_that_is_not_1d_or_too_short(self):
        for bad in (np.zeros(dsp.FRAME_LEN - 1), np.zeros((2, 16000))):
            with pytest.raises(ValueError, match="1-D segment"):
                dsp.mfcc(bad)


class TestWavIO:
    def test_round_trip_is_bit_exact_on_pcm_grid(self, tmp_path):
        samples = np.round(tone() * 32767.0) / 32767.0
        path = tmp_path / "t.wav"
        dsp.write_wav(path, samples)
        with wave.open(str(path), "rb") as f:
            assert f.getframerate() == SAMPLE_RATE
        assert np.array_equal(dsp.read_wav(path, path.read_bytes()), samples)

    @staticmethod
    def write_raw(path, channels=1, width=2, rate=16000):
        with wave.open(str(path), "wb") as f:
            f.setnchannels(channels)
            f.setsampwidth(width)
            f.setframerate(rate)
            f.writeframes(b"\x00\x00" * 32)

    def test_read_rejects_stereo(self, tmp_path):
        path = tmp_path / "s.wav"
        self.write_raw(path, channels=2)
        with pytest.raises(ValueError, match="s.wav has 2 channel"):
            dsp.read_wav(path, path.read_bytes())
        self.write_raw(path, width=1)
        with pytest.raises(ValueError, match="s.wav has 1 channel.* 8-bit"):
            dsp.read_wav(path, path.read_bytes())

    def test_read_rejects_another_sample_rate(self, tmp_path):
        path = tmp_path / "r.wav"
        self.write_raw(path, rate=22050)
        with pytest.raises(ValueError, match="r.wav has sample rate 22050 Hz"):
            dsp.read_wav(path, path.read_bytes())

    @pytest.mark.parametrize("n", [0, 1, 80, 16000])
    def test_header_is_the_wave_modules(self, tmp_path, n):
        path = tmp_path / "h.wav"
        with wave.open(str(path), "wb") as f:
            f.setnchannels(1)
            f.setsampwidth(2)
            f.setframerate(SAMPLE_RATE)
            f.writeframes(b"\x01\x00" * n)
        raw = path.read_bytes()
        assert raw == dsp.wav_header(n) + b"\x01\x00" * n

    def test_write_returns_the_files_crc32(self, tmp_path):
        path = tmp_path / "t.wav"
        assert dsp.write_wav(path, tone()) == zlib.crc32(path.read_bytes())

    def test_read_rejects_another_layout(self, tmp_path):
        # the wave module reads both files, but write_wav writes neither
        path = tmp_path / "x.wav"
        samples = np.round(tone() * 32767.0) / 32767.0
        dsp.write_wav(path, samples)
        raw = path.read_bytes()
        with pytest.raises(ValueError, match="x.wav holds 16000 samples in 32046 bytes"):
            dsp.read_wav(path, raw + b"\x00\x00")
        with pytest.raises(EOFError, match="x.wav ends inside its 16000 samples"):
            dsp.read_wav(path, raw[:-2])
