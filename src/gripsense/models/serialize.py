"""Versioned flat binary model files.

Layout: magic ``GSM2`` | uint32 LE descriptor length | JSON descriptor
(utf-8) | uint64 LE parameter count | float32 LE parameter block |
uint32 LE CRC32 of everything preceding it.

The architecture is the model class's, so a file holds what training
fits and nothing else. The descriptor has exactly the keys `kind`,
`input_mean` and `input_std`, and a predictor's adds `motion`,
`material`, `force_mean` and `force_std`. A ``GSM1`` file held a
predictor's gates apart in a block of the same length: it is refused.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np

from .classifier import MaterialClassifier
from .predictor import SlipPredictor

MAGIC = b"GSM2"

# kind -> (model class, descriptor fields beyond the kind and the input
# statistics)
_KINDS = {
    "classifier": (MaterialClassifier, ()),
    "predictor": (SlipPredictor,
                  ("motion", "material", "force_mean", "force_std")),
}


class ModelFormatError(ValueError):
    """Bad magic, version, truncation, or descriptor."""


class ModelChecksumError(ValueError):
    """Stored CRC32 does not match the file contents."""


def _pack(descriptor: dict, params: np.ndarray) -> bytes:
    desc = json.dumps(descriptor, sort_keys=True).encode("utf-8")
    block = np.asarray(params, dtype="<f4").tobytes()
    body = MAGIC + struct.pack("<I", len(desc)) + desc \
        + struct.pack("<Q", len(params)) + block
    return body + struct.pack("<I", zlib.crc32(body))


def _unpack(blob: bytes, path) -> tuple[dict, np.ndarray]:
    if len(blob) < len(MAGIC) + 4 + 8 + 4:
        raise ModelFormatError(f"{path}: file too short for a model")
    if blob[:len(MAGIC)] != MAGIC:
        raise ModelFormatError(f"{path}: bad magic {blob[:len(MAGIC)]!r}")
    body, (crc,) = blob[:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) != crc:
        raise ModelChecksumError(f"{path}: model file CRC32 mismatch")
    pos = len(MAGIC)
    (desc_len,) = struct.unpack_from("<I", body, pos)
    pos += 4
    if pos + desc_len + 8 > len(body):
        raise ModelFormatError(f"{path}: truncated descriptor")
    try:
        descriptor = json.loads(body[pos:pos + desc_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ModelFormatError(f"{path}: bad descriptor: {e}") from e
    if not isinstance(descriptor, dict):
        raise ModelFormatError(f"{path}: descriptor is not a JSON object")
    pos += desc_len
    (count,) = struct.unpack_from("<Q", body, pos)
    pos += 8
    block = body[pos:pos + 4 * count]
    if len(block) != 4 * count:
        raise ModelFormatError(f"{path}: truncated parameter block")
    params = np.frombuffer(block, dtype="<f4").astype(float)
    return descriptor, params


def save_model(path, model) -> None:
    """Write a classifier or predictor as one `.gsm` file."""
    kind = next(k for k, (cls, _) in _KINDS.items() if isinstance(model, cls))
    descriptor = {"kind": kind, "input_mean": model.input_mean.tolist(),
                  "input_std": model.input_std.tolist()}
    for name in _KINDS[kind][1]:
        descriptor[name] = getattr(model, name)
    with open(path, "wb") as f:
        f.write(_pack(descriptor, model.theta))


def load_model(path, kind: str):
    """Read a `.gsm` file that must hold a model of `kind`; every error
    names the file."""
    model_cls, extras = _KINDS[kind]
    with open(path, "rb") as f:
        descriptor, params = _unpack(f.read(), path)
    if descriptor.get("kind") != kind:
        raise ModelFormatError(f"{path}: expected a {kind}, "
                               f"got {descriptor.get('kind')!r}")
    keys = {"kind", "input_mean", "input_std", *extras}
    stray = sorted(set(descriptor) - keys)
    if stray:
        raise ModelFormatError(f"{path}: {kind} descriptor has unknown "
                               f"keys {stray}")
    missing = sorted(keys - set(descriptor))
    if missing:
        raise ModelFormatError(f"{path}: descriptor lacks {missing}")
    if not np.all(np.isfinite(params)):
        raise ModelFormatError(f"{path}: {kind} parameters are not all finite")
    try:
        model = model_cls(theta=params)
        for name in ("input_mean", "input_std"):
            stats = np.asarray(descriptor[name], dtype=float)
            if stats.shape != getattr(model, name).shape:
                raise ValueError(f"{name} has shape {stats.shape}, expected "
                                 f"{getattr(model, name).shape}")
            setattr(model, name, stats)
        for name in extras:
            setattr(model, name, descriptor[name])
        # a model divides by each std, which training floors at
        # optim.STD_FLOOR
        for name in ("input_mean", "input_std", "force_mean", "force_std"):
            if hasattr(model, name):
                stats = np.asarray(getattr(model, name), dtype=float)
                if not np.all(np.isfinite(stats)):
                    raise ValueError(f"{name} is not all finite")
                if name.endswith("_std") and not np.all(stats > 0):
                    raise ValueError(f"{name} is not all positive")
    except (TypeError, ValueError) as e:
        raise ModelFormatError(f"{path}: bad {kind} descriptor: {e}") from e
    return model
