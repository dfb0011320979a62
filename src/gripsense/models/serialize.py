"""Versioned flat binary model files.

Layout: magic ``GSM1`` | uint32 LE descriptor length | JSON descriptor
(utf-8) | uint64 LE parameter count | float32 LE parameter block |
uint32 LE CRC32 of everything preceding it.
"""

from __future__ import annotations

import dataclasses
import json
import struct
import zlib

import numpy as np

from .classifier import ClassifierConfig, MaterialClassifier
from .predictor import PredictorConfig, SlipPredictor

MAGIC = b"GSM1"

# kind -> (model class, config class, descriptor fields beyond the config
# and the input statistics)
_KINDS = {
    "classifier": (MaterialClassifier, ClassifierConfig, ()),
    "predictor": (SlipPredictor, PredictorConfig,
                  ("scope", "motion", "material", "force_mean", "force_std")),
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
    kind = next(k for k, (cls, _, _) in _KINDS.items() if isinstance(model, cls))
    descriptor = {"kind": kind, "config": dataclasses.asdict(model.cfg),
                  "input_mean": model.input_mean.tolist(),
                  "input_std": model.input_std.tolist()}
    for name in _KINDS[kind][2]:
        descriptor[name] = getattr(model, name)
    with open(path, "wb") as f:
        f.write(_pack(descriptor, model.theta))


def load_model(path, kind: str):
    """Read a `.gsm` file that must hold a model of `kind`; every error
    names the file."""
    model_cls, cfg_cls, extras = _KINDS[kind]
    with open(path, "rb") as f:
        descriptor, params = _unpack(f.read(), path)
    if descriptor.get("kind") != kind:
        raise ModelFormatError(f"{path}: expected a {kind}, "
                               f"got {descriptor.get('kind')!r}")
    config = descriptor.get("config")
    want = {f.name for f in dataclasses.fields(cfg_cls)}
    if not isinstance(config, dict) or set(config) != want:
        got = sorted(config) if isinstance(config, dict) else config
        raise ModelFormatError(f"{path}: {kind} config must have the keys "
                               f"{sorted(want)}, got {got}")
    missing = sorted({"input_mean", "input_std", *extras} - set(descriptor))
    if missing:
        raise ModelFormatError(f"{path}: descriptor lacks {missing}")
    if not np.all(np.isfinite(params)):
        raise ModelFormatError(f"{path}: {kind} parameters are not all finite")
    try:
        cfg = cfg_cls(**{k: tuple(v) if isinstance(v, list) else v
                         for k, v in config.items()})
        model = model_cls(cfg, theta=params)
        for name in ("input_mean", "input_std"):
            stats = np.asarray(descriptor[name], dtype=float)
            if stats.shape != getattr(model, name).shape:
                raise ValueError(f"{name} has shape {stats.shape}, expected "
                                 f"{getattr(model, name).shape}")
            setattr(model, name, stats)
        for name in extras:
            setattr(model, name, descriptor[name])
        if kind == "predictor" and model.scope != (
                "material" if model.material else "default"):
            raise ValueError(f"scope {model.scope!r} does not fit material "
                             f"{model.material!r}")
        # a model divides by each std, which training floors at 1e-6
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
