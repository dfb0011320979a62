import hashlib
import io
import json
import re
import sys
import wave
import zlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gripsense import dataset as ds
from gripsense import simulation
from gripsense.materials import material_table
from gripsense.simulation import run_trial
from conftest import assert_no_child_process
from oracles import records_equal


def small_record(trial_id="t0", seed=3, torque=ds.COLLECTION_TORQUE):
    table = material_table()
    rng = np.random.default_rng(ds.derive_seed(1, "rice", "shaking", 0, "profile"))
    profile = ds.sample_trial_profile("shaking", rng)
    return run_trial(table["rice"], profile, torque, seed, trial_id=trial_id)


# every array a TrialRecord gives, stored or derived, in the pin's order
RECORD_FIELDS = ("audio", "t", "tactile", "joint_angles", "joint_torques",
                 "true_slip", "true_max_force", "true_cell", "dropped")


def decoded_digest(dataset_dir, manifest) -> str:
    """SHA-256 over every array of every trial as read_trial rebuilds it:
    the trial id, field, dtype and shape, then the array's bytes."""
    h = hashlib.sha256()
    for e in sorted(manifest.trials, key=lambda e: e.trial_id):
        rec = ds.read_trial(dataset_dir / e.path, e.checksums)
        for name in RECORD_FIELDS:
            a = getattr(rec, name)
            h.update(f"{e.trial_id}/{name}:{a.dtype.str}{a.shape}\n".encode())
            h.update(a.tobytes())
    return h.hexdigest()


def manifest_text(**fields) -> str:
    """A well-formed manifest.json with no trials, `fields` replaced."""
    doc = {"format_version": ds.FORMAT_VERSION, "base_seed": 0,
           "trials_per_cell": 0, "materials": [], "motions": [], "trials": [],
           "splits": None}
    return json.dumps({**doc, **fields})


TRIAL_T0 = {"trial_id": "t0", "material": "rice", "motion": {"kind": "shaking"},
            "seed": 0, "path": "trials/t0",
            "checksums": dict.fromkeys(ds.TRIAL_FILES, 0)}


def t0_manifest_text(trial=None, trials=None, **splits) -> str:
    """A well-formed manifest.json holding trial t0 in the train split, with
    `trial`'s fields replaced in t0, or `trials` instead, and `splits`
    replaced."""
    return manifest_text(materials=["rice"],
                         trials=trials or [{**TRIAL_T0, **(trial or {})}],
                         splits={"train": ["t0"], "val": [], "test": [], **splits})


_opened: list | None = None  # paths of `open` audit events, while counting
_hooked = False


def _audit(event, args):
    if event == "open" and _opened is not None and isinstance(args[0], str):
        _opened.append(Path(args[0]))


@contextmanager
def counting_opens():
    """Counter of the file names opened inside the block, by directory and
    name. An audit hook stays for the life of the process, so the one hook
    is installed once and records only inside such a block."""
    global _opened, _hooked
    if not _hooked:
        sys.addaudithook(_audit)
        _hooked = True
    counts, _opened = Counter(), []
    try:
        yield counts
    finally:
        counts.update((p.parent, p.name) for p in _opened)
        _opened = None


class TestSeeds:
    def test_collection_torque(self):
        assert ds.COLLECTION_TORQUE == 0.4

    def test_trial_seed_deterministic_and_distinct(self):
        base = ds.derive_seed(0, "rice", "shaking", 3, "sim")
        assert base == ds.derive_seed(0, "rice", "shaking", 3, "sim")
        variants = {
            ds.derive_seed(0, "rice", "shaking", 3, "profile"),
            ds.derive_seed(0, "rice", "shaking", 4, "sim"),
            ds.derive_seed(0, "rice", "rotation", 3, "sim"),
            ds.derive_seed(0, "cereal", "shaking", 3, "sim"),
            ds.derive_seed(1, "rice", "shaking", 3, "sim"),
        }
        assert base not in variants and len(variants) == 5
        assert 0 <= base < 2 ** 63

    def test_derive_seed_golden_values(self):
        # dataset trials (base seed, material, motion, index, role) and CLI
        # runs (seed, index, role) share one helper; every dataset and
        # episode log depends on these exact values
        assert ds.derive_seed(0, "rice", "shaking", 3, "sim") == 2157814976418103034
        assert ds.derive_seed(600, "rice", "shaking", 0, "profile") == 3766211538050574204
        assert ds.derive_seed(900, "cereal", "rotation", 7, "sim") == 457862045690394074
        assert ds.derive_seed(0, 0, "profile") == 5778757196499093921
        assert ds.derive_seed(0, 0, "sim") == 9080402003235549689
        assert ds.derive_seed(5, 1, "active") == 5269055654237776163

    def test_profile_distribution_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = ds.sample_trial_profile("shaking", rng)
            assert ds.SHAKE_PEAK_RANGE[0] <= p.amplitude <= ds.SHAKE_PEAK_RANGE[1]
            r = ds.sample_trial_profile("rotation", rng)
            assert ds.ROTATION_RANGE_RAD[0] <= r.amplitude <= ds.ROTATION_RANGE_RAD[1]
        with pytest.raises(ValueError):
            ds.sample_trial_profile("poking", rng)


class TestTrialStorage:
    def test_round_trip_is_exact(self, tmp_path):
        rec = small_record()
        checksums = ds.write_trial(rec, tmp_path / "t0")
        assert set(checksums) == {"meta.json", "audio.wav", "tactile.npy",
                                  "joint_angles.npy", "joint_torques.npy",
                                  "true_slip.npy", "dropped.npy"}
        assert set(checksums) == set(ds.TRIAL_FILES)
        assert {p.name for p in (tmp_path / "t0").iterdir()} == set(checksums)
        back = ds.read_trial(tmp_path / "t0", checksums)
        assert records_equal(back, rec)
        for name in RECORD_FIELDS:
            assert getattr(back, name).dtype == getattr(rec, name).dtype, name
        for stored in ds.STORED_ARRAYS:
            # the .npy arrays are read-only views of the bytes read
            assert not getattr(back, stored.name).flags.writeable, stored.name
        assert back.audio.flags.writeable

    def test_every_trial_array_is_stored(self):
        assert [stored.name for stored in ds.STORED_ARRAYS] == \
            [name for name, _, _ in simulation.TRIAL_ARRAYS]

    def test_records_equal_tells_the_sign_of_zero(self):
        # a round trip that lost the sign of a zero would pass np.array_equal
        rec = small_record(torque=0.0)
        tactile = rec.tactile.copy()
        zero = np.unravel_index(np.flatnonzero(tactile == 0.0)[0], tactile.shape)
        tactile[zero] = -0.0
        flipped = replace(rec, tactile=tactile)
        assert np.array_equal(flipped.tactile, rec.tactile)
        assert records_equal(rec, replace(rec, tactile=rec.tactile.copy()))
        assert not records_equal(rec, flipped)

    def test_write_is_byte_deterministic(self, tmp_path):
        rec = small_record()
        a = ds.write_trial(rec, tmp_path / "a")
        b = ds.write_trial(rec, tmp_path / "b")
        assert a == b
        for name in ds.TRIAL_FILES:
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name

    def test_files_are_what_np_save_and_wave_write(self, tmp_path):
        rec = small_record()
        checksums = ds.write_trial(rec, tmp_path / "t0")
        # the grid and joint streams as rounded counts of their quanta, the
        # flags as they are
        angles = np.round(rec.joint_angles / simulation.JOINT_QUANTUM).astype("<i4")
        angles[rec.joint_angles == simulation.JOINT_ANGLE_MAX] = 1_600_001
        stored = {
            "tactile": np.round(rec.tactile / simulation.TACTILE_QUANTUM).astype("<u2"),
            "joint_angles": angles,
            "joint_torques": np.round(
                rec.joint_torques / simulation.JOINT_QUANTUM).astype("<i4"),
            "true_slip": rec.true_slip,
            "dropped": rec.dropped,
        }
        assert [f"{name}.npy" for name in stored] == list(ds.TRIAL_FILES[2:])
        for name, arr in stored.items():
            saved = io.BytesIO()
            np.save(saved, arr)
            raw = (tmp_path / "t0" / f"{name}.npy").read_bytes()
            assert raw == saved.getvalue(), name
        frames = np.round(rec.audio * simulation.PCM16_FULL_SCALE).astype("<i2")
        wav = io.BytesIO()
        with wave.open(wav, "wb") as f:
            f.setnchannels(1)
            f.setsampwidth(2)
            f.setframerate(simulation.SAMPLE_RATE)
            f.writeframes(frames.tobytes())
        assert (tmp_path / "t0" / "audio.wav").read_bytes() == wav.getvalue()
        # the checksums taken while writing are those of the files written
        assert checksums == {name: zlib.crc32((tmp_path / "t0" / name).read_bytes())
                             for name in ds.TRIAL_FILES}

    def test_arrays_not_laid_out_as_written_are_refused(self, tmp_path):
        # each file holds the trial's own array, in a layout np.load reads
        # but write_trial does not write
        rec = small_record()
        ds.write_trial(rec, tmp_path / "t0")
        path = tmp_path / "t0" / "joint_angles.npy"
        counts = np.load(path)
        np.save(path, np.asfortranarray(counts))
        assert np.array_equal(np.load(path), counts)
        with pytest.raises(ds.TruncationError,
                           match="joint_angles.npy holds a Fortran-order array"):
            ds.read_trial(tmp_path / "t0")

        ds.write_trial(rec, tmp_path / "t1")
        path = tmp_path / "t1" / "tactile.npy"
        counts = np.load(path)
        with open(path, "wb") as f:
            np.lib.format.write_array(f, counts, version=(2, 0))
        assert np.array_equal(np.load(path), counts)
        with pytest.raises(ds.TruncationError,
                           match="tactile.npy has a .npy 2.0 header"):
            ds.read_trial(tmp_path / "t1")

        ds.write_trial(rec, tmp_path / "t2")
        path = tmp_path / "t2" / "true_slip.npy"
        raw = path.read_bytes()
        path.write_bytes(raw + bytes(8))
        with pytest.raises(ds.TruncationError,
                           match="true_slip.npy has 8 bytes after"):
            ds.read_trial(tmp_path / "t2")
        # the same dictionary, written without its trailing comma
        path.write_bytes(raw.replace(b", }", b"}  ", 1))
        assert np.array_equal(np.load(path), rec.true_slip)
        with pytest.raises(ds.TruncationError,
                           match="true_slip.npy has a .npy header other than"):
            ds.read_trial(tmp_path / "t2")

    def test_wav_with_an_extra_chunk_is_refused(self, tmp_path):
        rec = small_record()
        ds.write_trial(rec, tmp_path / "t0")
        path = tmp_path / "t0" / "audio.wav"
        raw = path.read_bytes()
        # a LIST chunk between the fmt and data chunks, which the wave
        # module skips
        chunk = b"LIST" + (4).to_bytes(4, "little") + b"INFO"
        riff_size = int.from_bytes(raw[4:8], "little") + len(chunk)
        path.write_bytes(raw[:4] + riff_size.to_bytes(4, "little") + raw[8:36]
                         + chunk + raw[36:])
        with wave.open(str(path), "rb") as f:
            frames = f.readframes(f.getnframes())
        assert np.array_equal(np.frombuffer(frames, "<i2") / 32767.0, rec.audio)
        for read in (ds.read_trial, ds.read_trial_audio):
            with pytest.raises(ValueError, match=f"audio.wav holds {len(rec.audio)} "
                                                 f"samples in {len(raw) + 12} bytes"):
                read(tmp_path / "t0")

    @pytest.mark.parametrize("n_steps", [500.0, "500", -1, None])
    def test_n_steps_that_is_not_a_count_is_refused(self, tmp_path, n_steps):
        ds.write_trial(small_record(), tmp_path / "t0")
        self.rewrite_meta(tmp_path / "t0", n_steps=n_steps)
        for read in (ds.read_trial, ds.read_trial_audio):
            with pytest.raises(ds.DatasetError,
                               match=f"meta.json has n_steps {re.escape(repr(n_steps))}"):
                read(tmp_path / "t0")

    def test_checksum_error_names_file(self, tmp_path):
        rec = small_record()
        checksums = ds.write_trial(rec, tmp_path / "t0")
        path = tmp_path / "t0" / "tactile.npy"
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ds.ChecksumError, match="tactile.npy"):
            ds.read_trial(tmp_path / "t0", checksums)

    def test_joint_stop_round_trips(self, tmp_path):
        # a grip this weak drops the container, and the slip drags joints
        # onto the stop, which lies off the joint grid
        rec = small_record(torque=0.05)
        assert rec.dropped[-1]
        stop = rec.joint_angles == simulation.JOINT_ANGLE_MAX
        assert stop.any()
        # the count nearest the stop decodes below it
        assert 1_600_000 * simulation.JOINT_QUANTUM < simulation.JOINT_ANGLE_MAX
        checksums = ds.write_trial(rec, tmp_path / "t0")
        assert np.array_equal(np.load(tmp_path / "t0" / "joint_angles.npy")[stop],
                              np.full(stop.sum(), 1_600_001))
        assert records_equal(ds.read_trial(tmp_path / "t0", checksums), rec)

    @pytest.mark.parametrize("name, value, what", [
        pytest.param("tactile", 0.20005, "is not a count of 0.0001", id="tactile-off-grid"),
        pytest.param("tactile", -0.0, "is not a count of 0.0001", id="tactile-minus-zero"),
        pytest.param("tactile", 6.5536, "uint16 counts of 0.0001 cannot hold",
                     id="tactile-over"),
        pytest.param("tactile", -0.0001, "uint16 counts of 0.0001 cannot hold",
                     id="tactile-negative"),
        pytest.param("tactile", np.nan, "uint16 counts of 0.0001 cannot hold",
                     id="tactile-nan"),
        pytest.param("joint_angles", 0.5000005, "is not a count of 1e-06 or the stop 1.6",
                     id="angle-off-grid"),
        pytest.param("joint_angles", 1.6000001, "is not a count of 1e-06 or the stop 1.6",
                     id="angle-past-stop"),
        pytest.param("joint_torques", 2148.0, "int32 counts of 1e-06 cannot hold",
                     id="torque-over"),
        pytest.param("joint_torques", -0.0, "is not a count of 1e-06",
                     id="torque-minus-zero"),
    ])
    def test_write_refuses_what_it_cannot_store_exactly(self, tmp_path, name,
                                                        value, what):
        rec = small_record()
        arr = getattr(rec, name).copy()
        arr[7, 2] = value
        with pytest.raises(ds.DatasetError,
                           match=f"trial 't0': {name} has a value that "
                                 f"{re.escape(what)}"):
            ds.write_trial(replace(rec, **{name: arr}), tmp_path / "t0")
        assert not (tmp_path / "t0").exists()

    def test_version_error(self, tmp_path):
        rec = small_record()
        ds.write_trial(rec, tmp_path / "t0")
        meta_path = tmp_path / "t0" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ds.VersionError, match="99"):
            ds.read_trial(tmp_path / "t0")

    def test_v1_trial_is_refused_with_regenerate_hint(self, tmp_path):
        rec = small_record()
        ds.write_trial(rec, tmp_path / "t0")
        meta_path = tmp_path / "t0" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 1
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ds.VersionError,
                           match="version 1 .*gripsense generate"):
            ds.read_trial(tmp_path / "t0")

    def test_v2_trial_is_refused(self, tmp_path):
        # version 2 stored every array, derived ones included, as float64
        ds.write_trial(small_record(), tmp_path / "t0")
        self.rewrite_meta(tmp_path / "t0", format_version=2)
        for read in (ds.read_trial, ds.read_trial_audio):
            with pytest.raises(ds.VersionError,
                               match="version 2 .*handles version 3"):
                read(tmp_path / "t0")

    def test_truncation_errors(self, tmp_path):
        rec = small_record()
        ds.write_trial(rec, tmp_path / "t0")
        path = tmp_path / "t0" / "joint_torques.npy"
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ds.TruncationError, match="joint_torques.npy"):
            ds.read_trial(tmp_path / "t0")

        ds.write_trial(rec, tmp_path / "t1")
        (tmp_path / "t1" / "tactile.npy").unlink()
        with pytest.raises(ds.TruncationError, match="tactile.npy"):
            ds.read_trial(tmp_path / "t1")

        ds.write_trial(rec, tmp_path / "t2")
        path = tmp_path / "t2" / "dropped.npy"
        # an intact magic string with an unparseable header dictionary
        raw = path.read_bytes().replace(b"'descr'", b"'dexcr'", 1)
        path.write_bytes(raw)
        with pytest.raises(ds.TruncationError, match="dropped.npy"):
            ds.read_trial(tmp_path / "t2")

        ds.write_trial(rec, tmp_path / "t3")
        meta = tmp_path / "t3" / "meta.json"
        meta.write_text(meta.read_text()[:40])
        with pytest.raises(ds.TruncationError, match="meta.json"):
            ds.read_trial(tmp_path / "t3")

        # valid JSON that is not an object, or an object without a key the
        # readers use
        meta.write_text("[1, 2]")
        with pytest.raises(ds.TruncationError, match="meta.json"):
            ds.read_trial(tmp_path / "t3")
        full = json.loads((tmp_path / "t0" / "meta.json").read_text())
        for key in ds.META_KEYS:
            meta.write_text(json.dumps({k: v for k, v in full.items() if k != key}))
            with pytest.raises(ds.TruncationError, match=f"meta.json lacks {key}"):
                ds.read_trial(tmp_path / "t3")

    def test_garbage_bytes_rejected(self, tmp_path):
        rec = small_record()
        ds.write_trial(rec, tmp_path / "t0")
        path = tmp_path / "t0" / "joint_angles.npy"
        for junk in (b"", b"not an array at all\n" * 10,
                     b"PK\x03\x04" + bytes(60)):
            path.write_bytes(junk)
            with pytest.raises(ds.TruncationError, match="joint_angles.npy"):
                ds.read_trial(tmp_path / "t0")

    def test_wrong_row_count_rejected(self, tmp_path):
        rec = small_record()
        ds.write_trial(rec, tmp_path / "t0")
        np.save(tmp_path / "t0" / "dropped.npy", rec.dropped[:-1])
        with pytest.raises(ds.TruncationError, match="dropped.npy"):
            ds.read_trial(tmp_path / "t0")

    def test_wrong_dtype_rejected(self, tmp_path):
        rec = small_record()
        ds.write_trial(rec, tmp_path / "t0")
        np.save(tmp_path / "t0" / "tactile.npy", rec.tactile.astype(np.float32))
        with pytest.raises(ds.TruncationError, match="tactile.npy.*float32"):
            ds.read_trial(tmp_path / "t0")

    def test_audio_only_reader(self, tmp_path):
        rec = small_record()
        checksums = ds.write_trial(rec, tmp_path / "t0")
        meta, samples = ds.read_trial_audio(tmp_path / "t0", checksums)
        assert meta["trial_id"] == "t0"
        assert np.array_equal(samples, rec.audio)

    def test_checksummed_read_opens_each_file_once(self, tmp_path):
        trial_dir = tmp_path / "t0"
        checksums = ds.write_trial(small_record(), trial_dir)
        for read, names in ((ds.read_trial, ds.TRIAL_FILES),
                            (ds.read_trial_audio, ("meta.json", "audio.wav"))):
            with counting_opens() as opens:
                read(trial_dir, checksums)
            assert {name: n for (folder, name), n in opens.items()
                    if folder == trial_dir} == dict.fromkeys(names, 1)

    def test_missing_audio_names_file(self, tmp_path):
        ds.write_trial(small_record(), tmp_path / "t0")
        (tmp_path / "t0" / "audio.wav").unlink()
        for read in (ds.read_trial, ds.read_trial_audio):
            with pytest.raises(ds.TruncationError, match="missing file .*audio.wav"):
                read(tmp_path / "t0")

    def test_corrupt_audio_names_file(self, tmp_path):
        ds.write_trial(small_record(), tmp_path / "t0")
        path = tmp_path / "t0" / "audio.wav"
        for junk in (b"", b"not a wave file at all\n" * 10,
                     path.read_bytes()[:20]):
            path.write_bytes(junk)
            for read in (ds.read_trial, ds.read_trial_audio):
                with pytest.raises(ds.TruncationError,
                                   match="audio.wav is not a complete WAV"):
                    read(tmp_path / "t0")

    def rewrite_meta(self, trial_dir, **changes):
        path = trial_dir / "meta.json"
        meta = json.loads(path.read_text())
        meta.update(changes)
        path.write_text(json.dumps(meta))

    def test_foreign_sample_rate_is_refused(self, tmp_path):
        # 8 kHz at a 10 ms step still gives the 80-sample chunks on disk,
        # so only the check on the clock can tell
        ds.write_trial(small_record(), tmp_path / "t0")
        self.rewrite_meta(tmp_path / "t0", sample_rate=8000, dt=0.01)
        for read in (ds.read_trial, ds.read_trial_audio):
            with pytest.raises(ds.DatasetError,
                               match="meta.json has sample_rate 8000"):
                read(tmp_path / "t0")

    def test_foreign_dt_is_refused(self, tmp_path):
        ds.write_trial(small_record(), tmp_path / "t0")
        self.rewrite_meta(tmp_path / "t0", dt=0.01)
        for read in (ds.read_trial, ds.read_trial_audio):
            with pytest.raises(ds.DatasetError, match="meta.json has dt 0.01"):
                read(tmp_path / "t0")

    def test_foreign_wav_rate_is_refused(self, tmp_path):
        ds.write_trial(small_record(), tmp_path / "t0")
        path = tmp_path / "t0" / "audio.wav"
        with wave.open(str(path), "rb") as f:
            frames = f.readframes(f.getnframes())
        with wave.open(str(path), "wb") as f:
            f.setnchannels(1)
            f.setsampwidth(2)
            f.setframerate(22050)
            f.writeframes(frames)
        for read in (ds.read_trial, ds.read_trial_audio):
            with pytest.raises(ValueError,
                               match="audio.wav has sample rate 22050 Hz"):
                read(tmp_path / "t0")


@pytest.fixture(scope="module")
def seed0_trials(tmp_path_factory):
    """The seed-0 dataset at one trial per cell: (directory, manifest)."""
    out = tmp_path_factory.mktemp("seed0") / "d"
    return out, ds.generate_dataset(out, trials_per_cell=1, base_seed=0)


class TestManifestAndSplits:
    def test_manifest_round_trip(self, dataset_dir, manifest):
        assert manifest.format_version == ds.FORMAT_VERSION == 3
        assert len(manifest.trials) == 300
        e = {e.trial_id: e for e in manifest.trials}["shaking-rice-000"]
        assert e.material == "rice"

    def test_manifest_version_guard(self, tmp_path):
        doc = {"format_version": 1}
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(ds.VersionError, match="gripsense generate"):
            ds.load_manifest(tmp_path)
        with pytest.raises(ds.DatasetError):
            ds.load_manifest(tmp_path / "missing")

    @pytest.mark.parametrize("text, named", [
        pytest.param("", None, id="empty"),
        pytest.param("[1, 2]", None, id="list"),
        pytest.param(json.dumps({"format_version": ds.FORMAT_VERSION}), None,
                     id="version-only"),
        pytest.param(manifest_text(splits={"train": [], "val": []}), None,
                     id="splits-without-test"),
        pytest.param(manifest_text(splits=[[], [], []]), None, id="splits-list"),
        pytest.param(manifest_text(trials=[{"trial_id": "t"}]), None,
                     id="trial-without-fields"),
        pytest.param(manifest_text(materials=5), None, id="materials-number"),
        pytest.param(manifest_text(materials=["rice", "gravel"]),
                     "materials ['gravel']", id="materials-unknown"),
        pytest.param(manifest_text(motions=["shaking", "stirring"]),
                     "motions ['stirring']", id="motions-unknown"),
        pytest.param(t0_manifest_text(test=["nope"]), "split 'test'",
                     id="unknown-id-in-split"),
        pytest.param(t0_manifest_text(test=["t0"]), "split 'test'",
                     id="id-in-two-splits"),
        pytest.param(t0_manifest_text(test="t0"), "split 'test'",
                     id="split-string"),
        pytest.param(t0_manifest_text({"trial_id": 5}), "trial 5",
                     id="trial-id-number"),
        pytest.param(t0_manifest_text(trials=[TRIAL_T0, TRIAL_T0]), "trial 't0'",
                     id="trial-id-twice"),
        pytest.param(t0_manifest_text({"material": "sand"}), "trial 't0'",
                     id="material-unknown"),
        pytest.param(t0_manifest_text({"motion": "shaking"}), "trial 't0'",
                     id="motion-string"),
        pytest.param(t0_manifest_text({"motion": {"kind": "spinning"}}),
                     "trial 't0'", id="motion-kind-unknown"),
        pytest.param(t0_manifest_text({"path": 5}), "trial 't0'",
                     id="path-number"),
        pytest.param(t0_manifest_text({"path": "/trials/t0"}), "trial 't0'",
                     id="path-absolute"),
        pytest.param(t0_manifest_text({"path": "trials/../../t0"}), "trial 't0'",
                     id="path-outside"),
        pytest.param(t0_manifest_text({"checksums": {}}), "trial 't0'",
                     id="checksums-empty"),
        pytest.param(t0_manifest_text({"checksums": [1, 2]}), "trial 't0'",
                     id="checksums-list"),
        pytest.param(t0_manifest_text(
            {"checksums": dict.fromkeys(ds.TRIAL_FILES, "0")}), "trial 't0'",
            id="checksums-strings"),
    ])
    def test_malformed_manifest_names_file(self, tmp_path, text, named):
        path = tmp_path / "manifest.json"
        path.write_text(manifest_text())
        assert ds.load_manifest(tmp_path).trials == ()
        path.write_text(t0_manifest_text())
        assert ds.load_manifest(tmp_path).splits["train"] == ["t0"]
        path.write_text(text)
        with pytest.raises(ds.DatasetError, match=re.escape(str(path))) as err:
            ds.load_manifest(tmp_path)
        assert named is None or named in str(err.value)

    def test_split_sizes_and_partition(self, manifest):
        splits = manifest.splits
        assert len(splits["train"]) == 180
        assert len(splits["val"]) == 60
        assert len(splits["test"]) == 60
        cells = {}
        by_id = {e.trial_id: e for e in manifest.trials}
        for split in ("train", "val", "test"):
            for tid in splits[split]:
                e = by_id[tid]
                key = (e.motion["kind"], e.material, split)
                cells[key] = cells.get(key, 0) + 1
        for (kind, material, split), n in cells.items():
            assert n == {"train": 18, "val": 6, "test": 6}[split]

    def test_split_is_seed_deterministic(self, manifest):
        a = ds.build_splits(manifest, seed=5).splits
        b = ds.build_splits(manifest, seed=5).splits
        c = ds.build_splits(manifest, seed=6).splits
        assert a == b
        assert a != c

    def test_tiny_dataset_generates_but_cannot_stratify(self, seed0_trials):
        _, tiny = seed0_trials
        assert len(tiny.trials) == 10
        assert tiny.splits is None
        with pytest.raises(ds.DatasetError):
            ds.build_splits(tiny)

    def test_simulator_bytes_are_pinned(self, seed0_trials):
        # SHA-256 over the sorted per-file CRC32s of the seed-0 dataset at
        # one trial per cell: any change to the stored bytes shows here
        _, manifest = seed0_trials
        lines = sorted(f"{e.trial_id}/{name}:{crc}" for e in manifest.trials
                       for name, crc in e.checksums.items())
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == ("37a27b6d635631e88cf4fae7aa429d53"
                          "acf92926f43ea6adbc6b629f044917fa")

    def test_decoded_records_are_pinned(self, seed0_trials):
        # the same dataset as read_trial rebuilds it, so a change to the
        # file pin above that keeps this one changed the storage and not
        # the records
        assert decoded_digest(*seed0_trials) == (
            "5f86b57f29280af7fdad2a9fbf788944"
            "a11532626e6c5c05b7e688aad38fb659")

    def test_refuses_nonempty_dir(self, tmp_path):
        (tmp_path / "full").mkdir()
        (tmp_path / "full" / "junk.txt").write_text("x")
        with pytest.raises(ds.DatasetError):
            ds.generate_dataset(tmp_path / "full", trials_per_cell=1)
        ds.generate_dataset(tmp_path / "full", trials_per_cell=1,
                            overwrite=True)
        assert_no_child_process()

    @pytest.mark.parametrize("trials", [0, -1])
    def test_refuses_fewer_than_one_trial_per_cell(self, tmp_path, trials):
        (tmp_path / "d").mkdir()
        (tmp_path / "d" / "keep.txt").write_text("x")
        with pytest.raises(ValueError, match=f"trials_per_cell must be at "
                           f"least 1, got {trials}"):
            ds.generate_dataset(tmp_path / "d", trials, overwrite=True)
        assert [p.name for p in (tmp_path / "d").iterdir()] == ["keep.txt"]

    def test_failing_trial_stops_generation(self, tmp_path, monkeypatch):
        # the workers are forked, so they run the patched write_trial; the
        # first trial fails, and the trials not yet started never run
        write_trial = ds.write_trial

        def failing(record, trial_dir):
            if record.trial_id == "shaking-rice-000":
                raise ds.DatasetError(f"trial {record.trial_id!r}: forced")
            return write_trial(record, trial_dir)

        monkeypatch.setattr(ds, "write_trial", failing)
        out = tmp_path / "d"
        with pytest.raises(ds.DatasetError,
                           match="^trial 'shaking-rice-000': forced$"):
            ds.generate_dataset(out, trials_per_cell=10)
        assert_no_child_process()
        assert not (out / ds.MANIFEST_NAME).exists()
        assert len(list(out.glob("trials/*"))) < 50


class TestFeatureExtraction:
    def test_classifier_segments_match_trials(self, dataset_dir, manifest):
        items, entries = ds.classifier_segments(dataset_dir, manifest, "val")
        assert len(items) == len(entries)
        by_trial = {e.trial_id: e for e in manifest.trials}
        for (frames, label), e in zip(items, entries):
            assert frames.shape[1] == 13
            assert by_trial[e.trial_id] == e
            assert label == by_trial[e.trial_id].material

    def test_no_source_leaks_across_splits(self, dataset_dir, manifest):
        _, train_src = ds.classifier_segments(dataset_dir, manifest, "train")
        _, test_src = ds.classifier_segments(dataset_dir, manifest, "test")
        assert not ({e.trial_id for e in train_src}
                    & {e.trial_id for e in test_src})

    def test_augmentation_multiplies_by_five(self, dataset_dir, manifest):
        plain, _ = ds.classifier_segments(dataset_dir, manifest, "val")
        aug, aug_src = ds.classifier_segments(dataset_dir, manifest, "val",
                                              augment=True)
        assert len(aug) == 5 * len(plain)
        assert len({e.trial_id for e in aug_src}) == len(
            {e.trial_id for e in manifest.split_entries("val")})

    def test_augmented_variants_are_deterministic(self, dataset_dir, manifest):
        a, _ = ds.classifier_segments(dataset_dir, manifest, "val",
                                      augment=True)
        b, _ = ds.classifier_segments(dataset_dir, manifest, "val",
                                      augment=True)
        assert all(np.array_equal(x[0], y[0]) for x, y in zip(a, b))

    def test_predictor_window_counts_follow_the_law(self, dataset_dir,
                                                    manifest):
        window, horizon = ds.WINDOW, ds.HORIZON
        X, slip, force, cell, sources = ds.predictor_windows(
            dataset_dir, manifest, "val", "rotation")
        entries = [e for e in manifest.split_entries("val")
                   if e.motion["kind"] == "rotation"]
        total = 0
        for e in entries:
            T = len(ds.load_trial_features(dataset_dir, e)[0])
            total += len(range(window - 1, T - horizon, ds.STRIDE))
        assert len(X) == total
        assert X.shape[1:] == (window, 38)
        assert set(sources) == {e.trial_id for e in entries}

    def test_zero_horizon_degenerates_to_filtering(self, dataset_dir,
                                                   manifest, monkeypatch):
        e = next(x for x in manifest.split_entries("val")
                 if x.motion["kind"] == "shaking")
        feats, slip, force, cell = ds.load_trial_features(dataset_dir, e)
        one = ds.DatasetManifest(manifest.format_version, manifest.base_seed,
                                 manifest.trials_per_cell, manifest.materials,
                                 manifest.motions, (e,),
                                 {"train": [], "val": [e.trial_id],
                                  "test": []})
        # the windowing arithmetic at another window and horizon
        monkeypatch.setattr(ds, "WINDOW", 8)
        monkeypatch.setattr(ds, "HORIZON", 0)
        X, s, f, c, _ = ds.predictor_windows(dataset_dir, one, "val", "shaking")
        assert X.shape[1] == 8
        # with no lookahead, target i is the ground truth at the window end
        ends = np.arange(7, len(feats), ds.STRIDE)
        assert np.array_equal(s, slip[ends])
        assert np.array_equal(f, force[ends])
        assert np.array_equal(c, cell[ends])

    def test_empty_filter_raises(self, dataset_dir, manifest):
        with pytest.raises(ds.DatasetError):
            ds.predictor_windows(dataset_dir, manifest, "val", "stirring")
