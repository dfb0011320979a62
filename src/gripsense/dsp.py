"""Audio preprocessing: 1-second segmentation, augmentation, MFCCs.

Audio is a plain 1-D array of samples at the rig's one rate,
simulation.SAMPLE_RATE; a segment is one second of it. The MFCC chain is
the standard speech recipe: periodic Hann window, magnitude-squared
spectrum, HTK-mel triangular filterbank, log with an additive floor,
orthonormal DCT-II keeping the first N_COEFFS terms.
"""

from __future__ import annotations

import wave

import numpy as np

from .simulation import SAMPLE_RATE

SEGMENT_S = 1.0  # clip length for classification; clips do not overlap
SEGMENT_SAMPLES = round(SEGMENT_S * SAMPLE_RATE)

# The MFCC recipe.
FRAME_LEN = 400      # 25 ms @ 16 kHz
HOP = 160            # 10 ms
N_FFT = 512
N_MELS = 40
N_COEFFS = 13
FMIN = 20.0          # Hz
FMAX = 7600.0        # Hz, below SAMPLE_RATE / 2
LOG_FLOOR = 1e-10


def segment(samples: np.ndarray) -> np.ndarray:
    """The whole one-second clips of a 1-D recording, as the rows of a
    (n, SEGMENT_SAMPLES) view; a partial tail is dropped."""
    n = len(samples) // SEGMENT_SAMPLES
    if n == 0:
        raise ValueError(f"recording of {len(samples)} samples is shorter "
                         f"than one {SEGMENT_SAMPLES}-sample segment")
    return samples[:n * SEGMENT_SAMPLES].reshape(n, SEGMENT_SAMPLES)


def pitch_shift(samples: np.ndarray, semitones: float) -> np.ndarray:
    """Shift pitch by resampling; length is restored by looping the resampled
    signal (wrap-around padding), which keeps the content periodic instead of
    appending silence."""
    if abs(semitones) > 12:
        raise ValueError(f"|semitones| must be <= 12, got {semitones}")
    n = len(samples)
    rate = 2.0 ** (semitones / 12.0)
    pos = (np.arange(n) * rate) % n
    lo = np.floor(pos).astype(np.int64)
    frac = pos - lo
    hi = (lo + 1) % n
    return (1.0 - frac) * samples[lo] + frac * samples[hi]


def add_noise(samples: np.ndarray, snr_db: float, seed: int) -> np.ndarray:
    """Add seeded white Gaussian noise scaled to hit the requested SNR."""
    power = float(np.mean(samples ** 2))
    if power <= 0.0:
        raise ValueError("zero-energy segment: SNR undefined")
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(len(samples))
    w_power = float(np.mean(w ** 2))
    target = power / (10.0 ** (snr_db / 10.0))
    return samples + w * np.sqrt(target / w_power)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=float) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=float) / 2595.0) - 1.0)


def _mel_filterbank() -> np.ndarray:
    """Triangular filters on the HTK mel scale over the FFT bins at
    SAMPLE_RATE, (N_MELS, N_FFT//2 + 1); built once as _MEL_BANK."""
    mel_pts = np.linspace(hz_to_mel(FMIN), hz_to_mel(FMAX), N_MELS + 2)
    hz_pts = mel_to_hz(mel_pts)
    bin_hz = np.arange(N_FFT // 2 + 1) * SAMPLE_RATE / N_FFT
    bank = np.zeros((N_MELS, len(bin_hz)))
    for m in range(N_MELS):
        left, center, right = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        up = (bin_hz - left) / (center - left)
        down = (right - bin_hz) / (right - center)
        bank[m] = np.maximum(0.0, np.minimum(up, down))
    return bank


def dct_matrix(n_coeffs: int, n_mels: int) -> np.ndarray:
    """Orthonormal DCT-II rows, (n_coeffs, n_mels)."""
    m = np.arange(n_mels)
    k = np.arange(n_coeffs)[:, None]
    d = np.cos(np.pi * k * (2 * m + 1) / (2 * n_mels)) * np.sqrt(2.0 / n_mels)
    d[0] /= np.sqrt(2.0)
    return d


# periodic Hann window, mel filters and DCT rows of the recipe, shared by
# every mfcc call
_WINDOW = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(FRAME_LEN) / FRAME_LEN)
_MEL_BANK = _mel_filterbank()
_DCT = dct_matrix(N_COEFFS, N_MELS)
_WINDOW.flags.writeable = _MEL_BANK.flags.writeable = _DCT.flags.writeable = False


def frame_count(n_samples: int) -> int:
    return 1 + (n_samples - FRAME_LEN) // HOP


def mfcc(samples: np.ndarray) -> np.ndarray:
    """(n_frames, N_COEFFS) MFCC matrix of a 1-D segment at SAMPLE_RATE."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or len(x) < FRAME_LEN:
        raise ValueError(f"expected a 1-D segment of at least {FRAME_LEN} "
                         f"samples, got shape {x.shape}")
    n_frames = frame_count(len(x))
    idx = np.arange(FRAME_LEN)[None, :] + HOP * np.arange(n_frames)[:, None]
    frames = x[idx] * _WINDOW
    spectrum = np.abs(np.fft.rfft(frames, N_FFT, axis=1)) ** 2
    logmel = np.log(spectrum @ _MEL_BANK.T + LOG_FLOOR)
    coeffs = logmel @ _DCT.T
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("MFCC matrix contains non-finite values")
    return coeffs


def write_wav(path, samples: np.ndarray) -> None:
    """Write mono PCM 16-bit little-endian WAV at SAMPLE_RATE."""
    pcm = np.round(np.clip(samples, -1.0, 1.0) * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(SAMPLE_RATE)
        f.writeframes(pcm.tobytes())


def read_wav(path) -> np.ndarray:
    """Samples of a mono PCM16 WAV recorded at SAMPLE_RATE, in [-1, 1]."""
    with wave.open(str(path), "rb") as f:
        channels, width = f.getnchannels(), f.getsampwidth()
        if (channels, width) != (1, 2):
            raise ValueError(f"{path} has {channels} channel(s) of "
                             f"{8 * width}-bit samples; expected mono 16-bit PCM")
        rate = f.getframerate()
        if rate != SAMPLE_RATE:
            raise ValueError(f"{path} has sample rate {rate} Hz; the rig "
                             f"records at {SAMPLE_RATE} Hz")
        raw = f.readframes(f.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(float) / 32767.0


def AudioSegment(samples, *_) -> np.ndarray:
    """`samples` as a float array: a segment is its 1-D samples.

    The former segment class's name stays for perfbench's span test, which
    builds its clip as AudioSegment(samples, trial, offset); the trial and
    offset are ignored."""
    return np.asarray(samples, dtype=float)
