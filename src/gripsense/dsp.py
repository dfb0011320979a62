"""Audio preprocessing: 1-second segmentation, augmentation, MFCCs.

The MFCC chain is the standard speech recipe: periodic Hann window,
magnitude-squared spectrum, HTK-mel triangular filterbank, log with an
additive floor, orthonormal DCT-II keeping the first N_COEFFS terms.
"""

from __future__ import annotations

import functools
import wave
from dataclasses import dataclass

import numpy as np

SEGMENT_S = 1.0  # clip length for classification

# The MFCC recipe.
FRAME_LEN = 400      # 25 ms @ 16 kHz
HOP = 160            # 10 ms
N_FFT = 512
N_MELS = 40
N_COEFFS = 13
FMIN = 20.0          # Hz
FMAX = 7600.0        # Hz
LOG_FLOOR = 1e-10


@dataclass(frozen=True)
class Waveform:
    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains non-finite samples")

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class AudioSegment:
    """Exactly one second of audio cut from a trial recording."""

    samples: np.ndarray
    source_trial: str
    offset_s: float
    sample_rate: int = 16000

    def __post_init__(self):
        want = round(self.sample_rate * SEGMENT_S)
        if len(self.samples) != want:
            raise ValueError(f"segment must hold {want} samples, got {len(self.samples)}")


def segment(w: Waveform, hop_s: float, source_trial: str = "") -> list[AudioSegment]:
    """Cut 1-second clips at offsets 0, hop_s, 2*hop_s, ...; partial tail dropped."""
    if hop_s <= 0:
        raise ValueError(f"hop_s must be positive, got {hop_s}")
    seg_len = round(SEGMENT_S * w.sample_rate)
    if len(w.samples) < seg_len:
        raise ValueError("waveform shorter than one segment")
    out = []
    k = 0
    while True:
        start = round(k * hop_s * w.sample_rate)
        if start + seg_len > len(w.samples):
            break
        out.append(AudioSegment(w.samples[start:start + seg_len].copy(),
                                source_trial, k * hop_s, w.sample_rate))
        k += 1
    return out


def pitch_shift(seg: AudioSegment, semitones: float) -> AudioSegment:
    """Shift pitch by resampling; length is restored by looping the resampled
    signal (wrap-around padding), which keeps the content periodic instead of
    appending silence."""
    if abs(semitones) > 12:
        raise ValueError(f"|semitones| must be <= 12, got {semitones}")
    n = len(seg.samples)
    rate = 2.0 ** (semitones / 12.0)
    pos = (np.arange(n) * rate) % n
    lo = np.floor(pos).astype(np.int64)
    frac = pos - lo
    hi = (lo + 1) % n
    out = (1.0 - frac) * seg.samples[lo] + frac * seg.samples[hi]
    return AudioSegment(out, seg.source_trial, seg.offset_s, seg.sample_rate)


def add_noise(seg: AudioSegment, snr_db: float, seed: int) -> AudioSegment:
    """Add seeded white Gaussian noise scaled to hit the requested SNR."""
    power = float(np.mean(seg.samples ** 2))
    if power <= 0.0:
        raise ValueError("zero-energy segment: SNR undefined")
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(len(seg.samples))
    w_power = float(np.mean(w ** 2))
    target = power / (10.0 ** (snr_db / 10.0))
    noise = w * np.sqrt(target / w_power)
    return AudioSegment(seg.samples + noise, seg.source_trial, seg.offset_s,
                        seg.sample_rate)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=float) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=float) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=16)
def mel_filterbank(sample_rate: int) -> np.ndarray:
    """Triangular filters on the HTK mel scale, (N_MELS, N_FFT//2 + 1).

    Cached per sample rate; the shared array is read-only."""
    mel_pts = np.linspace(hz_to_mel(FMIN), hz_to_mel(FMAX), N_MELS + 2)
    hz_pts = mel_to_hz(mel_pts)
    bin_hz = np.arange(N_FFT // 2 + 1) * sample_rate / N_FFT
    bank = np.zeros((N_MELS, len(bin_hz)))
    for m in range(N_MELS):
        left, center, right = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        up = (bin_hz - left) / (center - left)
        down = (right - bin_hz) / (right - center)
        bank[m] = np.maximum(0.0, np.minimum(up, down))
    bank.flags.writeable = False
    return bank


def dct_matrix(n_coeffs: int, n_mels: int) -> np.ndarray:
    """Orthonormal DCT-II rows, (n_coeffs, n_mels)."""
    m = np.arange(n_mels)
    k = np.arange(n_coeffs)[:, None]
    d = np.cos(np.pi * k * (2 * m + 1) / (2 * n_mels)) * np.sqrt(2.0 / n_mels)
    d[0] /= np.sqrt(2.0)
    return d


# periodic Hann window and DCT rows of the recipe, shared by every mfcc call
_WINDOW = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(FRAME_LEN) / FRAME_LEN)
_DCT = dct_matrix(N_COEFFS, N_MELS)
_WINDOW.flags.writeable = _DCT.flags.writeable = False


def frame_count(n_samples: int) -> int:
    return 1 + (n_samples - FRAME_LEN) // HOP


def mfcc(seg: AudioSegment) -> np.ndarray:
    """(n_frames, N_COEFFS) MFCC matrix of one segment."""
    x = np.asarray(seg.samples, dtype=float)
    if len(x) < FRAME_LEN:
        raise ValueError("segment shorter than one analysis frame")
    if FMAX > seg.sample_rate / 2:
        raise ValueError("fmax exceeds Nyquist")
    n_frames = frame_count(len(x))
    idx = np.arange(FRAME_LEN)[None, :] + HOP * np.arange(n_frames)[:, None]
    frames = x[idx] * _WINDOW
    spectrum = np.abs(np.fft.rfft(frames, N_FFT, axis=1)) ** 2
    bank = mel_filterbank(seg.sample_rate)
    logmel = np.log(spectrum @ bank.T + LOG_FLOOR)
    coeffs = logmel @ _DCT.T
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("MFCC matrix contains non-finite values")
    return coeffs


def write_wav(path, samples: np.ndarray, sample_rate: int) -> None:
    """Write mono PCM 16-bit little-endian WAV."""
    pcm = np.round(np.clip(samples, -1.0, 1.0) * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(sample_rate)
        f.writeframes(pcm.tobytes())


def read_wav(path) -> Waveform:
    with wave.open(str(path), "rb") as f:
        if f.getnchannels() != 1 or f.getsampwidth() != 2:
            raise ValueError("expected mono 16-bit PCM WAV")
        sr = f.getframerate()
        raw = f.readframes(f.getnframes())
    pcm = np.frombuffer(raw, dtype="<i2")
    return Waveform(pcm.astype(float) / 32767.0, sr)
