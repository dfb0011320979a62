"""Dataset generation, on-disk trial format, splits, and training-set builders.

Collection protocol: for every (motion, material) cell, run trials at a
fixed 0.4 Nm grip with per-trial seeds derived by hashing (base_seed,
material, motion, index). Each trial directory holds:

  meta.json    format version, ids, motion parameters, seed, the rig's
               clock (sample_rate 16000, dt 0.005), step count
  audio.wav    PCM 16-bit mono 16 kHz
  <name>.npy   one little-endian NumPy array per simulation.TRIAL_ARRAYS
               field (t, tactile, joints, truth), step axis first

The top-level manifest.json records per-file CRC32 checksums and the
train/val/test split. The .npy files hold raw array bytes, so re-reading
a trial reproduces it bit for bit. Older versions are regenerated, not
read: a dataset is a pure function of (seed, trials). The readers refuse
a trial on another clock than the simulator's (a meta.json sample_rate or
dt, or a WAV rate, that differs), since its features would not match the
controller's.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import wave
import zipfile
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import dsp
from .materials import MATERIAL_CLASSES, material_table
from .motion import SIM_DT, MotionProfile, rotation_profile, shaking_profile
from .simulation import CHUNK, SAMPLE_RATE, TRIAL_ARRAYS, TrialRecord, run_trial
from .tactile import features_from_arrays

FORMAT_VERSION = 2
MANIFEST_NAME = "manifest.json"
TRIAL_FILES = ("meta.json", "audio.wav") + tuple(
    f"{name}.npy" for name, _, _ in TRIAL_ARRAYS)
REGENERATE_HINT = "regenerate the dataset with `gripsense generate`"
# meta.json keys the readers use, besides format_version
META_KEYS = ("trial_id", "material", "motion", "seed", "sample_rate", "dt",
             "n_steps")

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

    def entry(self, trial_id: str) -> TrialEntry:
        for e in self.trials:
            if e.trial_id == trial_id:
                return e
        raise KeyError(trial_id)

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


def _crc(path: Path) -> int:
    return zlib.crc32(path.read_bytes())


def write_trial(record: TrialRecord, trial_dir) -> dict[str, int]:
    """Write the trial files; returns per-file CRC32 checksums."""
    trial_dir = Path(trial_dir)
    trial_dir.mkdir(parents=True, exist_ok=True)
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
    (trial_dir / "meta.json").write_text(
        json.dumps(meta, sort_keys=True, indent=1) + "\n")
    dsp.write_wav(trial_dir / "audio.wav", record.audio)
    for name, _, dtype in TRIAL_ARRAYS:
        np.save(trial_dir / f"{name}.npy",
                np.ascontiguousarray(getattr(record, name), dtype=dtype))
    return {name: _crc(trial_dir / name) for name in TRIAL_FILES}


def _verify(trial_dir: Path, checksums: dict[str, int] | None) -> None:
    if not checksums:
        return
    for name, expected in checksums.items():
        path = trial_dir / name
        if not path.exists():
            raise TruncationError(f"missing file {path}")
        actual = _crc(path)
        if actual != expected:
            raise ChecksumError(f"checksum mismatch for {path}: "
                                f"expected {expected}, got {actual}")


def read_trial_meta(trial_dir) -> dict:
    trial_dir = Path(trial_dir)
    meta_path = trial_dir / "meta.json"
    try:
        meta = json.loads(meta_path.read_text())
    except FileNotFoundError:
        raise TruncationError(f"missing file {meta_path}") from None
    except json.JSONDecodeError as e:
        raise TruncationError(f"{meta_path} is not complete JSON") from e
    if not isinstance(meta, dict):
        raise TruncationError(f"{meta_path} does not hold a JSON object")
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise VersionError(f"trial format version {version!r} in {meta_path}; "
                           f"this reader handles version {FORMAT_VERSION}: "
                           f"{REGENERATE_HINT}")
    missing = [k for k in META_KEYS if k not in meta]
    if missing:
        raise TruncationError(f"{meta_path} lacks {', '.join(missing)}")
    for key, rig in (("sample_rate", SAMPLE_RATE), ("dt", SIM_DT)):
        if meta[key] != rig:
            raise DatasetError(f"{meta_path} has {key} {meta[key]!r}; the "
                               f"simulator's is {rig!r}: {REGENERATE_HINT}")
    return meta


def read_trial_audio(trial_dir, checksums: dict[str, int] | None = None):
    """Light path for audio-only consumers: (meta, 1-D samples)."""
    trial_dir = Path(trial_dir)
    if checksums:
        _verify(trial_dir, {k: v for k, v in checksums.items()
                            if k in ("meta.json", "audio.wav")})
    meta = read_trial_meta(trial_dir)
    wav_path = trial_dir / "audio.wav"
    try:
        samples = dsp.read_wav(wav_path)
    except FileNotFoundError:
        raise TruncationError(f"missing file {wav_path}") from None
    except (wave.Error, EOFError) as e:
        raise TruncationError(f"{wav_path} is not a complete WAV file") from e
    if len(samples) != meta["n_steps"] * CHUNK:
        raise TruncationError(f"audio length {len(samples)} does not match "
                              f"{meta['n_steps']} steps in {trial_dir}")
    return meta, samples


def _read_array(path: Path, shape: tuple[int, ...],
                dtype: np.dtype) -> np.ndarray:
    try:
        arr = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise TruncationError(f"missing file {path}") from None
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as e:
        # np.load reads a file without the .npy magic as a pickle (refused)
        # or, after a zip magic, as an .npz archive
        raise TruncationError(f"{path} is not a complete .npy file") from e
    if not isinstance(arr, np.ndarray):  # a zip archive loads as NpzFile
        arr.close()
        raise TruncationError(f"{path} is not a complete .npy file")
    if (arr.shape, arr.dtype) != (shape, dtype):
        raise TruncationError(f"{path} holds {arr.dtype} {arr.shape}, "
                              f"expected {dtype} {shape}")
    return arr


def read_trial(trial_dir, checksums: dict[str, int] | None = None) -> TrialRecord:
    """Rebuild a TrialRecord; optional checksums are verified per file."""
    trial_dir = Path(trial_dir)
    _verify(trial_dir, checksums)
    meta, audio = read_trial_audio(trial_dir)
    arrays = {name: _read_array(trial_dir / f"{name}.npy",
                                (meta["n_steps"],) + trailing, dtype)
              for name, trailing, dtype in TRIAL_ARRAYS}
    return TrialRecord(
        trial_id=meta["trial_id"],
        material=meta["material"],
        motion=meta["motion"],
        seed=meta["seed"],
        audio=audio,
        **arrays,
    )


def _manifest_to_json(m: DatasetManifest) -> str:
    doc = {
        "format_version": m.format_version,
        "base_seed": m.base_seed,
        "trials_per_cell": m.trials_per_cell,
        "materials": list(m.materials),
        "motions": list(m.motions),
        "trials": [{
            "trial_id": e.trial_id, "material": e.material, "motion": e.motion,
            "seed": e.seed, "path": e.path, "checksums": e.checksums,
        } for e in m.trials],
        "splits": m.splits,
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def save_manifest(m: DatasetManifest, dataset_dir) -> None:
    (Path(dataset_dir) / MANIFEST_NAME).write_text(_manifest_to_json(m))


def load_manifest(dataset_dir) -> DatasetManifest:
    path = Path(dataset_dir) / MANIFEST_NAME
    if not path.exists():
        raise DatasetError(f"no {MANIFEST_NAME} in {dataset_dir}")
    doc = json.loads(path.read_text())
    if doc.get("format_version") != FORMAT_VERSION:
        raise VersionError(f"manifest format version {doc.get('format_version')!r} "
                           f"in {path}; this reader handles version "
                           f"{FORMAT_VERSION}: {REGENERATE_HINT}")
    trials = tuple(TrialEntry(t["trial_id"], t["material"], t["motion"],
                              t["seed"], t["path"], t["checksums"])
                   for t in doc["trials"])
    return DatasetManifest(doc["format_version"], doc["base_seed"],
                           doc["trials_per_cell"], tuple(doc["materials"]),
                           tuple(doc["motions"]), trials, doc.get("splits"))


def generate_dataset(out_dir, trials_per_cell: int = 30, base_seed: int = 0,
                     overwrite: bool = False) -> DatasetManifest:
    """Run the full collection protocol and write it under out_dir."""
    out_dir = Path(out_dir)
    if out_dir.exists() and any(out_dir.iterdir()):
        if not overwrite:
            raise DatasetError(f"{out_dir} exists and is not empty; "
                               "pass overwrite to replace it")
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    table = material_table()
    entries = []
    for motion_kind in MOTIONS:
        for material in MATERIAL_CLASSES:
            for index in range(trials_per_cell):
                profile_rng = np.random.default_rng(
                    derive_seed(base_seed, material, motion_kind, index, "profile"))
                profile = sample_trial_profile(motion_kind, profile_rng)
                sim_seed = derive_seed(base_seed, material, motion_kind, index, "sim")
                trial_id = f"{motion_kind}-{material}-{index:03d}"
                record = run_trial(table[material], profile, COLLECTION_TORQUE,
                                   sim_seed, trial_id=trial_id)
                rel = f"trials/{trial_id}"
                checksums = write_trial(record, out_dir / rel)
                entries.append(TrialEntry(trial_id, material, record.motion,
                                          sim_seed, rel, checksums))
    manifest = DatasetManifest(FORMAT_VERSION, base_seed, trials_per_cell,
                               MATERIAL_CLASSES, MOTIONS, tuple(entries))
    save_manifest(manifest, out_dir)
    return manifest


def build_splits(manifest: DatasetManifest, seed: int = 0) -> DatasetManifest:
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


def _augment_seed(trial_id: str, offset_s: float, semitones: float) -> int:
    return zlib.crc32(f"{trial_id}|{offset_s}|{semitones}".encode()) & 0x7FFFFFFF


def classifier_segments(dataset_dir, manifest: DatasetManifest, split: str,
                        augment: bool = False):
    """MFCC training items for one split: (list of (frames, label), sources).

    With augment=True each original segment also contributes four variants
    (pitch shift by +-1 and +-2 semitones, each with 20 dB SNR noise).
    """
    dataset_dir = Path(dataset_dir)
    items, sources = [], []
    for e in manifest.split_entries(split):
        _, samples = read_trial_audio(dataset_dir / e.path, e.checksums)
        for k, seg in enumerate(dsp.segment(samples)):
            variants = [seg]
            if augment:
                for st in AUGMENT_SEMITONES:
                    shifted = dsp.pitch_shift(seg, st)
                    variants.append(dsp.add_noise(
                        shifted, AUGMENT_SNR_DB,
                        _augment_seed(e.trial_id, k * dsp.SEGMENT_S, st)))
            for v in variants:
                items.append((dsp.mfcc(v), e.material))
                sources.append(e.trial_id)
    return items, sources


def load_trial_features(dataset_dir, entry: TrialEntry):
    """Per-trial haptic features and targets:
    (features (T, 38), slip (T,), force (T,), cell (T, 2))."""
    rec = read_trial(Path(dataset_dir) / entry.path, entry.checksums)
    feats = features_from_arrays(rec.tactile, rec.joint_angles)
    return feats, rec.true_slip, rec.true_max_force, rec.true_cell


def predictor_windows(dataset_dir, manifest: DatasetManifest, split: str,
                      motion: str, material: str | None = None,
                      window: int = 20, horizon: int = 10, stride: int = 5,
                      cache: dict | None = None):
    """Windowed features + matched future targets for one split and motion.

    Returns (X (N, window, 38), slip (N,), force (N,), cell (N, 2), sources).
    cache maps trial_id -> load_trial_features output to avoid re-reading.
    """
    dataset_dir = Path(dataset_dir)
    xs, slips, forces, cells, sources = [], [], [], [], []
    for e in manifest.split_entries(split):
        if e.motion["kind"] != motion:
            continue
        if material is not None and e.material != material:
            continue
        if cache is not None and e.trial_id in cache:
            feats, slip, force, cell = cache[e.trial_id]
        else:
            feats, slip, force, cell = load_trial_features(dataset_dir, e)
            if cache is not None:
                cache[e.trial_id] = (feats, slip, force, cell)
        T = len(feats)
        for te in range(window - 1, T - horizon, stride):
            xs.append(feats[te - window + 1:te + 1])
            slips.append(slip[te + horizon])
            forces.append(force[te + horizon])
            cells.append(cell[te + horizon])
            sources.append(e.trial_id)
    if not xs:
        raise DatasetError(f"no {motion!r} windows in split {split!r}"
                           + (f" for material {material!r}" if material else ""))
    return (np.stack(xs), np.asarray(slips, dtype=bool), np.asarray(forces),
            np.asarray(cells, dtype=np.int64), sources)
