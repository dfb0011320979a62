"""Dataset generation, on-disk trial format, splits, and training-set builders.

Collection protocol: for every (motion, material) cell, run trials at a
fixed 0.4 Nm grip with per-trial seeds derived by hashing (base_seed,
material, motion, index). generate_dataset shares the trials between the
calling process and children it forks (`workers.map_in_workers`); each
trial is a pure function of those four values, so the bytes equal a
serial run's. Each trial directory holds:

  meta.json    format version, ids, motion parameters, seed, the rig's
               clock (sample_rate 16000, dt 0.005), step count
  audio.wav    PCM 16-bit mono 16 kHz
  <name>.npy   one little-endian NumPy array per STORED_ARRAYS entry, step
               axis first: the tactile grid and the joint angles and
               torques as integer counts of the grid the simulator renders
               them on, the slip and drop flags as bool

The top-level manifest.json records per-file CRC32 checksums and the
train/val/test split. A TrialRecord holds only these streams; its step
times, peak force and peak cell are its own functions of the tactile
grid. write_trial stores only values that decode back to the same bits,
so re-reading a trial reproduces it bit for bit. Each file kind has one
header, which write_trial writes and the readers match byte for byte; a
file they refuse is parsed only to name what it holds. Older versions are
regenerated, not read: a dataset is a pure function of (seed, trials).
The readers refuse a trial on another clock than the simulator's (a
meta.json sample_rate or dt, or a WAV rate, that differs), since its
features would not match the controller's.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import math
import os
import shutil
import wave
import zlib
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
from numpy.lib import format as npy_format

from . import dsp
from .materials import MATERIAL_CLASSES, material_table
from .models.predictor import HORIZON, WINDOW
from .motion import SIM_DT, MotionProfile, rotation_profile, shaking_profile
from .simulation import (CHUNK, JOINT_ANGLE_MAX, JOINT_QUANTUM, SAMPLE_RATE,
                         TACTILE_QUANTUM, TRIAL_ARRAYS, TrialRecord, run_trial)
from .tactile import features_from_arrays
from .workers import map_in_workers

FORMAT_VERSION = 3
MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class StoredArray:
    """How a trial file holds one TrialRecord array: as the array itself in
    `dtype`, or, with a `quantum`, as integer counts of it in `dtype`. A
    count decodes to count * quantum, clamped at `stop` where the field has
    one; the stop itself, which is off the grid, is stored as the first
    count past it."""
    name: str
    dtype: np.dtype
    quantum: float | None = None
    stop: float | None = None


# How a trial stores each simulation.TRIAL_ARRAYS field, on the grid the
# simulator renders it on.
STORED_ARRAYS = (
    StoredArray("tactile", np.dtype("<u2"), TACTILE_QUANTUM),
    StoredArray("joint_angles", np.dtype("<i4"), JOINT_QUANTUM, JOINT_ANGLE_MAX),
    StoredArray("joint_torques", np.dtype("<i4"), JOINT_QUANTUM),
    StoredArray("true_slip", np.dtype(bool)),
    StoredArray("dropped", np.dtype(bool)),
)
TRIAL_FILES = ("meta.json", "audio.wav") + tuple(
    f"{a.name}.npy" for a in STORED_ARRAYS)
# shape after the step axis of each TrialRecord array
_TRAILING = {name: shape for name, shape, _ in TRIAL_ARRAYS}
REGENERATE_HINT = "regenerate the dataset with `gripsense generate`"
# meta.json keys the readers use, besides format_version
META_KEYS = ("trial_id", "material", "motion", "seed", "sample_rate", "dt",
             "n_steps")
# manifest.json keys the readers use, besides format_version and splits
MANIFEST_KEYS = ("base_seed", "trials_per_cell", "materials", "motions", "trials")

COLLECTION_TORQUE = 0.4  # Nm, fixed grip during data collection
MOTIONS = ("shaking", "rotation")
SPLIT_FRACTIONS = (0.6, 0.2, 0.2)  # train, val, test share of each cell

# Trial motion parameter distributions (jittered per trial).
SHAKE_COUNT = 5
SHAKE_FREQ_HZ = 2.0
SHAKE_PEAK_RANGE = (16.0, 21.0)   # m/s^2
ROTATION_RANGE_RAD = (0.6, 0.8)
ROTATION_FREQ_HZ = 1.7
ROTATION_DURATION_S = 3.0


class DatasetError(Exception):
    pass


class ChecksumError(DatasetError):
    pass


class VersionError(DatasetError):
    pass


class TruncationError(DatasetError):
    pass


@dataclass(frozen=True)
class TrialEntry:
    trial_id: str
    material: str
    motion: dict
    seed: int
    path: str                 # relative to the dataset root
    checksums: dict[str, int]


@dataclass(frozen=True)
class DatasetManifest:
    format_version: int
    base_seed: int
    trials_per_cell: int
    materials: tuple[str, ...]
    motions: tuple[str, ...]
    trials: tuple[TrialEntry, ...]
    splits: dict[str, list[str]] | None = None

    def split_entries(self, split: str) -> list[TrialEntry]:
        if not self.splits:
            raise DatasetError("manifest has no split assignment")
        wanted = set(self.splits[split])
        return [e for e in self.trials if e.trial_id in wanted]


def derive_seed(*parts) -> int:
    """Deterministic 63-bit seed from SHA-256 of the "|"-joined parts."""
    digest = hashlib.sha256("|".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "little") & (2 ** 63 - 1)


def sample_trial_profile(kind: str, rng: np.random.Generator) -> MotionProfile:
    """Draw one trial's motion parameters from the protocol distribution."""
    if kind == "shaking":
        peak = float(rng.uniform(*SHAKE_PEAK_RANGE))
        return shaking_profile(SHAKE_COUNT, peak, SHAKE_FREQ_HZ)
    if kind == "rotation":
        rng_rad = float(rng.uniform(*ROTATION_RANGE_RAD))
        return rotation_profile(rng_rad, ROTATION_FREQ_HZ, ROTATION_DURATION_S)
    raise ValueError(f"unknown motion kind {kind!r}")


@functools.cache
def _npy_header(shape: tuple[int, ...], dtype: np.dtype) -> bytes:
    """The .npy header np.save writes for a C-order array of `shape` and
    `dtype`: format 1.0, padded so that the data starts 64-byte aligned."""
    fp = io.BytesIO()
    npy_format.write_array_header_1_0(
        fp, {"descr": npy_format.dtype_to_descr(dtype), "fortran_order": False,
             "shape": shape})
    return fp.getvalue()


def _paths(trial_dir, names) -> dict[str, str]:
    """The path of each of a trial's files `names`, joined once."""
    return {name: os.path.join(trial_dir, name) for name in names}


def _write(path: str, *parts) -> int:
    """Write the byte buffers `parts` one after another as the file at
    `path`; returns its CRC32, taken from the buffers as they are written."""
    crc = 0
    with open(path, "wb") as f:
        for part in parts:
            f.write(part)
            crc = zlib.crc32(part, crc)
    return crc


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether `a` and `b` have one dtype and shape and the same bytes;
    unlike np.array_equal, this tells 0.0 from -0.0."""
    bits = np.dtype(f"u{a.dtype.itemsize}")
    return ((a.dtype, a.shape) == (b.dtype, b.shape)
            and np.array_equal(a.view(bits), b.view(bits)))


def _decode(stored: StoredArray, counts: np.ndarray, out=None) -> np.ndarray:
    """The TrialRecord array of a stored one: the float64 values of
    integer `counts`, into `out` if given, or the array as stored."""
    if stored.quantum is None:
        return counts
    values = np.multiply(counts, stored.quantum, out=out)
    if stored.stop is not None:
        np.minimum(values, stored.stop, out=values)
    return values


def _encode(record: TrialRecord, stored: StoredArray) -> np.ndarray:
    """The array write_trial stores for `stored`'s field of `record`.

    A quantized field is stored as its counts only if they decode back to
    the same bits, sign of zero included; a value whose count `stored.dtype`
    cannot hold, or that lies off the grid, raises DatasetError naming the
    trial and the field. One float64 buffer serves the counts and their
    check."""
    values = getattr(record, stored.name)
    if stored.quantum is None:
        return np.ascontiguousarray(values, dtype=stored.dtype)
    values = np.asarray(values, dtype=np.float64)
    scaled = values / stored.quantum
    np.rint(scaled, out=scaled)
    if stored.stop is not None:
        scaled[values == stored.stop] = math.floor(stored.stop / stored.quantum) + 1
    where = f"trial {record.trial_id!r}: {stored.name}"
    lo, hi = np.iinfo(stored.dtype).min, np.iinfo(stored.dtype).max
    if not (lo <= scaled.min(initial=lo) and scaled.max(initial=hi) <= hi):
        raise DatasetError(f"{where} has a value that {stored.dtype} counts of "
                           f"{stored.quantum} cannot hold")
    counts = scaled.astype(stored.dtype)
    if not _same_bits(_decode(stored, counts, out=scaled), values):
        raise DatasetError(f"{where} has a value that is not a count of "
                           f"{stored.quantum}" + ("" if stored.stop is None else
                                                  f" or the stop {stored.stop}"))
    return counts


def write_trial(record: TrialRecord, trial_dir) -> dict[str, int]:
    """Write the trial files; returns per-file CRC32 checksums.

    Each array file is the .npy header of its shape and dtype, then the
    array's own bytes: the file np.save writes. The tactile grid and the
    joint streams are written as counts of their quanta (see _encode). A
    record that would not read back bit for bit raises DatasetError naming
    the trial and the field, before any file is written. The checksums are
    taken from the bytes as they are written; no file is read back."""
    arrays = {stored.name: _encode(record, stored) for stored in STORED_ARRAYS}
    trial_dir = Path(trial_dir)
    trial_dir.mkdir(parents=True, exist_ok=True)
    paths = _paths(trial_dir, TRIAL_FILES)
    meta = {
        "format_version": FORMAT_VERSION,
        "trial_id": record.trial_id,
        "material": record.material,
        "motion": record.motion,
        "seed": record.seed,
        "sample_rate": SAMPLE_RATE,
        "dt": SIM_DT,
        "n_steps": record.n_steps,
    }
    checksums = {
        "meta.json": _write(paths["meta.json"], (json.dumps(
            meta, sort_keys=True, indent=1) + "\n").encode()),
        "audio.wav": dsp.write_wav(paths["audio.wav"], record.audio),
    }
    for name, arr in arrays.items():
        checksums[f"{name}.npy"] = _write(paths[f"{name}.npy"],
                                          _npy_header(arr.shape, arr.dtype), arr)
    return checksums


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except FileNotFoundError:
        raise TruncationError(f"missing file {path}") from None


def _checked_files(paths: dict[str, str],
                   checksums: dict[str, int] | None) -> dict[str, bytes]:
    """The bytes of every file in `paths` that has a checksum, each read once
    and all checked before any is parsed, so a checksum error wins over a
    parse error."""
    files = {}
    for name, expected in (checksums or {}).items():
        if name not in paths:
            continue
        files[name] = _read_bytes(paths[name])
        actual = zlib.crc32(files[name])
        if actual != expected:
            raise ChecksumError(f"checksum mismatch for {paths[name]}: "
                                f"expected {expected}, got {actual}")
    return files


def _take(files: dict[str, bytes], paths: dict[str, str], name: str) -> bytes:
    """The bytes of file `name`: its checked copy, released, or else read now."""
    return files.pop(name) if name in files else _read_bytes(paths[name])


def _parse_json(path, raw, kind: str, keys: tuple[str, ...]) -> dict:
    """The JSON object in `raw`, the bytes of `path`: a `kind` document of
    this FORMAT_VERSION holding every one of `keys`."""
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as e:
        raise TruncationError(f"{path} is not complete JSON") from e
    if not isinstance(doc, dict):
        raise TruncationError(f"{path} does not hold a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise VersionError(f"{kind} format version {version!r} in {path}; "
                           f"this reader handles version {FORMAT_VERSION}: "
                           f"{REGENERATE_HINT}")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise TruncationError(f"{path} lacks {', '.join(missing)}")
    return doc


def _parse_meta(meta_path: str, raw: bytes) -> dict:
    meta = _parse_json(meta_path, raw, "trial", META_KEYS)
    for key, rig in (("sample_rate", SAMPLE_RATE), ("dt", SIM_DT)):
        if meta[key] != rig:
            raise DatasetError(f"{meta_path} has {key} {meta[key]!r}; the "
                               f"simulator's is {rig!r}: {REGENERATE_HINT}")
    if not (type(meta["n_steps"]) is int and meta["n_steps"] >= 0):
        raise DatasetError(f"{meta_path} has n_steps {meta['n_steps']!r}; "
                           "expected a count of steps")
    return meta


def _parse_audio(paths: dict[str, str], files: dict[str, bytes]):
    meta = _parse_meta(paths["meta.json"], _take(files, paths, "meta.json"))
    wav_path = paths["audio.wav"]
    try:
        samples = dsp.read_wav(wav_path, _take(files, paths, "audio.wav"))
    except (wave.Error, EOFError) as e:
        raise TruncationError(f"{wav_path} is not a complete WAV file") from e
    if len(samples) != meta["n_steps"] * CHUNK:
        raise TruncationError(f"audio length {len(samples)} does not match "
                              f"{meta['n_steps']} steps in "
                              f"{os.path.dirname(wav_path)}")
    return meta, samples


def read_trial_audio(trial_dir, checksums: dict[str, int] | None = None):
    """Light path for audio-only consumers: (meta, 1-D samples)."""
    paths = _paths(trial_dir, ("meta.json", "audio.wav"))
    return _parse_audio(paths, _checked_files(paths, checksums))


def _parse_array(path: str, raw: bytes, shape: tuple[int, ...],
                 dtype: np.dtype) -> np.ndarray:
    """The array of `shape` and `dtype` in the .npy bytes `raw`, as a
    read-only view of them, so a trial's data is held once. The bytes must
    be what write_trial writes: that array's header, then its data. Other
    bytes are refused, and only then does numpy's reader parse them, to
    name what they hold."""
    header = _npy_header(shape, dtype)
    count = math.prod(shape)
    if len(raw) == len(header) + count * dtype.itemsize and raw.startswith(header):
        return np.frombuffer(raw, dtype, count, len(header)).reshape(shape)
    fp = io.BytesIO(raw)
    try:
        version = npy_format.read_magic(fp)
        fp.seek(0)
        arr = npy_format.read_array(fp, allow_pickle=False)
    except ValueError as e:
        # bytes without the .npy magic (a pickle or an .npz archive, say),
        # a header that does not parse, or fewer data bytes than it declares
        raise TruncationError(f"{path} is not a complete .npy file") from e
    if (arr.shape, arr.dtype) != (shape, dtype):
        what = f"holds {arr.dtype} {arr.shape}, expected {dtype} {shape}"
    elif version != (1, 0):
        what = f"has a .npy {version[0]}.{version[1]} header; write_trial writes 1.0"
    elif not arr.flags.c_contiguous:
        what = "holds a Fortran-order array; write_trial writes C order"
    elif fp.tell() < len(raw):
        what = f"has {len(raw) - fp.tell()} bytes after its array"
    else:
        what = (f"has a .npy header other than the one write_trial writes "
                f"for {dtype} {shape}")
    raise TruncationError(f"{path} {what}")


def read_trial(trial_dir, checksums: dict[str, int] | None = None) -> TrialRecord:
    """Rebuild a TrialRecord; optional checksums are verified per file.

    Each file is read once. A file is accepted only as write_trial writes
    it for meta.json's n_steps: each .npy file exactly its header and then
    its data, audio.wav exactly as dsp.write_wav lays it out. Anything else
    is refused with an error that names the file and what it holds. The
    counts decode to the floats the simulator rendered, so the record is
    the one written, bit for bit. Every stored array but the audio is
    read-only."""
    paths = _paths(trial_dir, TRIAL_FILES)
    files = _checked_files(paths, checksums)
    meta, audio = _parse_audio(paths, files)
    arrays = {}
    for stored in STORED_ARRAYS:
        file = f"{stored.name}.npy"
        arrays[stored.name] = _decode(stored, _parse_array(
            paths[file], _take(files, paths, file),
            (meta["n_steps"],) + _TRAILING[stored.name], stored.dtype))
        arrays[stored.name].flags.writeable = False
    return TrialRecord(
        trial_id=meta["trial_id"],
        material=meta["material"],
        motion=meta["motion"],
        seed=meta["seed"],
        audio=audio,
        **arrays,
    )


def _manifest_to_json(m: DatasetManifest) -> str:
    return json.dumps(asdict(m), sort_keys=True, indent=1) + "\n"


def save_manifest(m: DatasetManifest, dataset_dir) -> None:
    (Path(dataset_dir) / MANIFEST_NAME).write_text(_manifest_to_json(m))


def _check_manifest(path: Path, m: DatasetManifest) -> None:
    """Refuse materials, motions, trial entries and splits the readers
    cannot use, naming the manifest at `path` and the field, trial or
    split."""
    for name, values, known in (("materials", m.materials, MATERIAL_CLASSES),
                                ("motions", m.motions, MOTIONS)):
        unknown = [v for v in values if v not in known]
        if unknown:
            raise DatasetError(f"{path} has {name} {unknown!r}; expected each "
                               f"to be one of {known}")
    ids = set()
    for e in m.trials:
        for name, ok, expected in (
                ("trial_id", isinstance(e.trial_id, str) and e.trial_id not in ids,
                 "a string no other trial has"),
                ("material", e.material in m.materials, f"one of {m.materials}"),
                ("motion", isinstance(e.motion, dict)
                 and e.motion.get("kind") in MOTIONS,
                 f"an object whose kind is one of {MOTIONS}"),
                ("path", isinstance(e.path, str) and not Path(e.path).is_absolute()
                 and ".." not in Path(e.path).parts,
                 "a relative path inside the dataset"),
                ("checksums", isinstance(e.checksums, dict)
                 and e.checksums.keys() == set(TRIAL_FILES)
                 and all(type(v) is int for v in e.checksums.values()),
                 f"an integer for each of {TRIAL_FILES} and nothing else")):
            if not ok:
                raise DatasetError(f"{path}: trial {e.trial_id!r} has {name} "
                                   f"{getattr(e, name)!r}; expected {expected}")
        ids.add(e.trial_id)
    if m.splits is None:
        return
    if not (isinstance(m.splits, dict) and {"train", "val", "test"} <= m.splits.keys()):
        raise DatasetError(f"{path} has splits without train, val and test")
    split_of = {}
    for split, members in m.splits.items():
        if not isinstance(members, list):
            raise DatasetError(f"{path}: split {split!r} is not a list of trial ids")
        for tid in members:
            if not (isinstance(tid, str) and tid in ids):
                raise DatasetError(f"{path}: split {split!r} lists {tid!r}, "
                                   "which no trial has")
            if tid in split_of:
                raise DatasetError(f"{path}: split {split!r} lists {tid!r}, "
                                   f"which split {split_of[tid]!r} lists too")
            split_of[tid] = split


def load_manifest(dataset_dir) -> DatasetManifest:
    path = Path(dataset_dir) / MANIFEST_NAME
    if not path.exists():
        raise DatasetError(f"no {MANIFEST_NAME} in {dataset_dir}")
    doc = _parse_json(path, path.read_bytes(), "manifest", MANIFEST_KEYS)
    try:
        trials = tuple(TrialEntry(t["trial_id"], t["material"], t["motion"],
                                  t["seed"], t["path"], t["checksums"])
                       for t in doc["trials"])
        manifest = DatasetManifest(doc["format_version"], doc["base_seed"],
                                   doc["trials_per_cell"], tuple(doc["materials"]),
                                   tuple(doc["motions"]), trials, doc.get("splits"))
    except (KeyError, TypeError) as e:
        raise DatasetError(f"{path} has a malformed field: {e!r}") from e
    _check_manifest(path, manifest)
    return manifest


def _render_trial(out_dir: Path, base_seed: int, trial: tuple[str, str, int]
                  ) -> TrialEntry:
    """Render and write the protocol's trial (motion kind, material, index)
    under out_dir; a pure function of its arguments, which generate_dataset
    maps over its processes."""
    motion_kind, material, index = trial
    profile_rng = np.random.default_rng(
        derive_seed(base_seed, material, motion_kind, index, "profile"))
    profile = sample_trial_profile(motion_kind, profile_rng)
    sim_seed = derive_seed(base_seed, material, motion_kind, index, "sim")
    trial_id = f"{motion_kind}-{material}-{index:03d}"
    record = run_trial(material_table()[material], profile, COLLECTION_TORQUE,
                       sim_seed, trial_id=trial_id)
    rel = f"trials/{trial_id}"
    checksums = write_trial(record, out_dir / rel)
    return TrialEntry(trial_id, material, record.motion, sim_seed, rel, checksums)


def generate_dataset(out_dir, trials_per_cell: int, base_seed: int,
                     overwrite: bool) -> DatasetManifest:
    """Run the full collection protocol and write it under out_dir. The
    manifest holds the split `build_splits` makes with base_seed, or none
    when the cells are too small to stratify.

    The trials render in this process and in children it forks, one
    process per CPU (`workers.map_in_workers`). Each trial is a pure
    function of its seed and cell, so the files and the manifest are the
    bytes a serial run writes. A trial's error is raised here with its type
    and message, the trials not yet started are cancelled and no manifest
    is written; no child outlives the call."""
    if trials_per_cell < 1:
        raise ValueError(f"trials_per_cell must be at least 1, got {trials_per_cell}")
    out_dir = Path(out_dir)
    if out_dir.exists() and any(out_dir.iterdir()):
        if not overwrite:
            raise DatasetError(f"{out_dir} exists and is not empty; "
                               "pass overwrite to replace it")
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    trials = [(motion_kind, material, index) for motion_kind in MOTIONS
              for material in MATERIAL_CLASSES for index in range(trials_per_cell)]
    entries = tuple(map_in_workers(
        functools.partial(_render_trial, out_dir, base_seed), trials))
    manifest = DatasetManifest(FORMAT_VERSION, base_seed, trials_per_cell,
                               MATERIAL_CLASSES, MOTIONS, entries)
    try:
        manifest = build_splits(manifest, seed=base_seed)
    except DatasetError:
        pass  # saved without splits; `split_entries` refuses to read them
    save_manifest(manifest, out_dir)
    return manifest


def build_splits(manifest: DatasetManifest, seed: int) -> DatasetManifest:
    """Stratified per-(motion, material) trial split at SPLIT_FRACTIONS;
    deterministic."""
    rng = np.random.default_rng(seed)
    splits: dict[str, list[str]] = {"train": [], "val": [], "test": []}
    cells: dict[tuple[str, str], list[str]] = {}
    for e in manifest.trials:
        cells.setdefault((e.motion["kind"], e.material), []).append(e.trial_id)
    for key in sorted(cells):
        ids = sorted(cells[key])
        n = len(ids)
        n_train = round(SPLIT_FRACTIONS[0] * n)
        n_val = round(SPLIT_FRACTIONS[1] * n)
        n_test = n - n_train - n_val
        if min(n_train, n_val, n_test) < 1:
            raise DatasetError(f"cell {key} with {n} trials is too small to "
                               f"stratify at {SPLIT_FRACTIONS}")
        order = rng.permutation(n)
        shuffled = [ids[i] for i in order]
        splits["train"] += shuffled[:n_train]
        splits["val"] += shuffled[n_train:n_train + n_val]
        splits["test"] += shuffled[n_train + n_val:]
    return replace(manifest, splits=splits)


# --- training-set builders -------------------------------------------------

AUGMENT_SEMITONES = (1.0, -1.0, 2.0, -2.0)
AUGMENT_SNR_DB = 20.0


def classifier_segments(dataset_dir, manifest: DatasetManifest, split: str,
                        augment: bool = False):
    """MFCC training items for one split: (list of (frames, label),
    entries), where entries holds the TrialEntry each item was cut from.

    With augment=True each original segment also contributes four variants
    (pitch shift by +-1 and +-2 semitones, each with 20 dB SNR noise).
    """
    dataset_dir = Path(dataset_dir)
    items, entries = [], []
    for e in manifest.split_entries(split):
        _, samples = read_trial_audio(dataset_dir / e.path, e.checksums)
        for k, seg in enumerate(dsp.segment(samples)):
            variants = [seg]
            if augment:
                for st in AUGMENT_SEMITONES:
                    shifted = dsp.pitch_shift(seg, st)
                    variants.append(dsp.add_noise(
                        shifted, AUGMENT_SNR_DB,
                        derive_seed(e.trial_id, k * dsp.SEGMENT_S, st, "augment")))
            for v in variants:
                items.append((dsp.mfcc(v), e.material))
                entries.append(e)
    return items, entries


def load_trial_features(dataset_dir, entry: TrialEntry):
    """Per-trial haptic features and targets:
    (features (T, 38), slip (T,), force (T,), cell (T, 2))."""
    rec = read_trial(Path(dataset_dir) / entry.path, entry.checksums)
    feats = features_from_arrays(rec.tactile, rec.joint_angles)
    return feats, rec.true_slip, rec.true_max_force, rec.true_cell


STRIDE = 5  # steps between the ends of a trial's consecutive predictor windows


def predictor_windows(dataset_dir, manifest: DatasetManifest, split: str,
                      motion: str, material: str | None = None):
    """Windowed features + matched future targets for one split and motion.

    Returns (X (N, WINDOW, 38), slip (N,), force (N,), cell (N, 2)).
    A trial of T steps gives the windows ending at WINDOW - 1, then every
    STRIDE steps while the target step, HORIZON later, is below T. Each
    trial is read from disk by every call.
    """
    dataset_dir = Path(dataset_dir)
    xs, slips, forces, cells = [], [], [], []
    for e in manifest.split_entries(split):
        if e.motion["kind"] != motion:
            continue
        if material is not None and e.material != material:
            continue
        feats, slip, force, cell = load_trial_features(dataset_dir, e)
        T = len(feats)
        for te in range(WINDOW - 1, T - HORIZON, STRIDE):
            xs.append(feats[te - WINDOW + 1:te + 1])
            slips.append(slip[te + HORIZON])
            forces.append(force[te + HORIZON])
            cells.append(cell[te + HORIZON])
    if not xs:
        raise DatasetError(f"no {motion!r} windows in split {split!r}"
                           + (f" for material {material!r}" if material else ""))
    return (np.stack(xs), np.asarray(slips, dtype=bool), np.asarray(forces),
            np.asarray(cells, dtype=np.int64))
