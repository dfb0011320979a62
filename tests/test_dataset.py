import hashlib
import json
import wave

import numpy as np
import pytest

from gripsense import dataset as ds
from gripsense.materials import material_table
from gripsense.simulation import run_trial
from oracles import records_equal


def small_record(trial_id="t0", seed=3):
    table = material_table()
    rng = np.random.default_rng(ds.derive_seed(1, "rice", "shaking", 0, "profile"))
    profile = ds.sample_trial_profile("shaking", rng)
    return run_trial(table["rice"], profile, ds.COLLECTION_TORQUE, seed,
                     trial_id=trial_id)


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
        assert set(checksums) == {"meta.json", "audio.wav", "t.npy",
                                  "tactile.npy", "joint_angles.npy",
                                  "joint_torques.npy", "true_slip.npy",
                                  "true_max_force.npy", "true_cell.npy",
                                  "dropped.npy"}
        assert set(checksums) == set(ds.TRIAL_FILES)
        back = ds.read_trial(tmp_path / "t0", checksums)
        assert records_equal(back, rec)
        for name in ("audio", "t", "tactile", "joint_angles", "joint_torques",
                     "true_slip", "true_max_force", "true_cell", "dropped"):
            assert getattr(back, name).dtype == getattr(rec, name).dtype, name

    def test_write_is_byte_deterministic(self, tmp_path):
        rec = small_record()
        a = ds.write_trial(rec, tmp_path / "a")
        b = ds.write_trial(rec, tmp_path / "b")
        assert a == b
        for name in ds.TRIAL_FILES:
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name

    def test_checksum_error_names_file(self, tmp_path):
        rec = small_record()
        checksums = ds.write_trial(rec, tmp_path / "t0")
        path = tmp_path / "t0" / "tactile.npy"
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ds.ChecksumError, match="tactile.npy"):
            ds.read_trial(tmp_path / "t0", checksums)

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

    def test_truncation_errors(self, tmp_path):
        rec = small_record()
        ds.write_trial(rec, tmp_path / "t0")
        path = tmp_path / "t0" / "true_max_force.npy"
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ds.TruncationError, match="true_max_force.npy"):
            ds.read_trial(tmp_path / "t0")

        ds.write_trial(rec, tmp_path / "t1")
        (tmp_path / "t1" / "tactile.npy").unlink()
        with pytest.raises(ds.TruncationError, match="tactile.npy"):
            ds.read_trial(tmp_path / "t1")

        ds.write_trial(rec, tmp_path / "t2")
        path = tmp_path / "t2" / "t.npy"
        # an intact magic string with an unparseable header dictionary
        raw = path.read_bytes().replace(b"'descr'", b"'dexcr'", 1)
        path.write_bytes(raw)
        with pytest.raises(ds.TruncationError, match="t.npy"):
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
        np.save(tmp_path / "t0" / "true_cell.npy", rec.true_cell[:-1])
        with pytest.raises(ds.TruncationError, match="true_cell.npy"):
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


class TestManifestAndSplits:
    def test_manifest_round_trip(self, dataset_dir, manifest):
        assert manifest.format_version == ds.FORMAT_VERSION == 2
        assert len(manifest.trials) == 300
        e = manifest.entry("shaking-rice-000")
        assert e.material == "rice"
        with pytest.raises(KeyError):
            manifest.entry("nope")

    def test_manifest_version_guard(self, tmp_path):
        doc = {"format_version": 1}
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(ds.VersionError, match="gripsense generate"):
            ds.load_manifest(tmp_path)
        with pytest.raises(ds.DatasetError):
            ds.load_manifest(tmp_path / "missing")

    def test_split_sizes_and_partition(self, manifest):
        splits = manifest.splits
        assert len(splits["train"]) == 180
        assert len(splits["val"]) == 60
        assert len(splits["test"]) == 60
        cells = {}
        for split in ("train", "val", "test"):
            for tid in splits[split]:
                e = manifest.entry(tid)
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

    def test_tiny_dataset_generates_but_cannot_stratify(self, tmp_path):
        tiny = ds.generate_dataset(tmp_path / "tiny", trials_per_cell=1,
                                   base_seed=0)
        assert len(tiny.trials) == 10
        with pytest.raises(ds.DatasetError):
            ds.build_splits(tiny)

    def test_simulator_bytes_are_pinned(self, tmp_path):
        # SHA-256 over the sorted per-file CRC32s of the seed-0 dataset at
        # one trial per cell: any change to the simulated bytes shows here
        manifest = ds.generate_dataset(tmp_path / "d", trials_per_cell=1,
                                       base_seed=0)
        lines = sorted(f"{e.trial_id}/{name}:{crc}" for e in manifest.trials
                       for name, crc in e.checksums.items())
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == ("b8143112382174d067cf96bace9b60d6"
                          "c7aa211b82565e5165ef3a9e97d0b9eb")

    def test_refuses_nonempty_dir(self, tmp_path):
        (tmp_path / "full").mkdir()
        (tmp_path / "full" / "junk.txt").write_text("x")
        with pytest.raises(ds.DatasetError):
            ds.generate_dataset(tmp_path / "full", trials_per_cell=1)
        ds.generate_dataset(tmp_path / "full", trials_per_cell=1,
                            overwrite=True)


class TestFeatureExtraction:
    def test_classifier_segments_match_trials(self, dataset_dir, manifest):
        items, sources = ds.classifier_segments(dataset_dir, manifest, "val")
        assert len(items) == len(sources)
        by_trial = {e.trial_id: e.material for e in manifest.trials}
        for (frames, label), src in zip(items, sources):
            assert frames.shape[1] == 13
            assert label == by_trial[src]

    def test_no_source_leaks_across_splits(self, dataset_dir, manifest):
        _, train_src = ds.classifier_segments(dataset_dir, manifest, "train")
        _, test_src = ds.classifier_segments(dataset_dir, manifest, "test")
        assert not set(train_src) & set(test_src)

    def test_augmentation_multiplies_by_five(self, dataset_dir, manifest):
        plain, _ = ds.classifier_segments(dataset_dir, manifest, "val")
        aug, aug_src = ds.classifier_segments(dataset_dir, manifest, "val",
                                              augment=True)
        assert len(aug) == 5 * len(plain)
        assert len(set(aug_src)) == len(
            {e.trial_id for e in manifest.split_entries("val")})

    def test_augmented_variants_are_deterministic(self, dataset_dir, manifest):
        a, _ = ds.classifier_segments(dataset_dir, manifest, "val",
                                      augment=True)
        b, _ = ds.classifier_segments(dataset_dir, manifest, "val",
                                      augment=True)
        assert all(np.array_equal(x[0], y[0]) for x, y in zip(a, b))

    def test_predictor_window_counts_follow_the_law(self, dataset_dir,
                                                    manifest, window_cache):
        window, horizon, stride = 20, 10, 5
        X, slip, force, cell, sources = ds.predictor_windows(
            dataset_dir, manifest, "val", "rotation", window=window,
            horizon=horizon, stride=stride, cache=window_cache)
        entries = [e for e in manifest.split_entries("val")
                   if e.motion["kind"] == "rotation"]
        total = 0
        for e in entries:
            T = len(window_cache[e.trial_id][0])
            total += len(range(window - 1, T - horizon, stride))
        assert len(X) == total
        assert X.shape[1:] == (window, 38)
        assert set(sources) == {e.trial_id for e in entries}

    def test_zero_horizon_degenerates_to_filtering(self, dataset_dir,
                                                   manifest):
        e = next(x for x in manifest.split_entries("val")
                 if x.motion["kind"] == "shaking")
        feats, slip, force, cell = ds.load_trial_features(dataset_dir, e)
        one = ds.DatasetManifest(manifest.format_version, manifest.base_seed,
                                 manifest.trials_per_cell, manifest.materials,
                                 manifest.motions, (e,),
                                 {"train": [], "val": [e.trial_id],
                                  "test": []})
        X, s, f, c, _ = ds.predictor_windows(dataset_dir, one, "val",
                                             "shaking", window=8, horizon=0,
                                             stride=1)
        # with no lookahead, target i is the ground truth at the window end
        ends = np.arange(7, len(feats))
        assert np.array_equal(s, slip[ends])
        assert np.array_equal(f, force[ends])
        assert np.array_equal(c, cell[ends])

    def test_empty_filter_raises(self, dataset_dir, manifest):
        with pytest.raises(ds.DatasetError):
            ds.predictor_windows(dataset_dir, manifest, "val", "stirring")
