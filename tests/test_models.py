import hashlib
import json
import os
import re
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import oracles
from gripsense import dataset as ds
from gripsense import dsp
from gripsense.materials import MATERIAL_CLASSES, material_table
from gripsense.models import metrics as mx
from gripsense.models.classifier import (
    MaterialClassifier,
    classify,
    train_classifier,
)
from gripsense import tactile
from gripsense.models.optim import fit_standardizer, sgd_epochs
from gripsense.models.predictor import (
    MATERIAL_EPOCHS,
    WINDOW,
    FeatureWindow,
    SlipPredictor,
    predict,
    predict_batch,
    train_predictor,
)
from gripsense.models import serialize
from gripsense.models.registry import ModelRegistry, select_model
from gripsense.models.serialize import (
    ModelChecksumError,
    ModelFormatError,
    load_model,
    save_model,
)
from gripsense.motion import shaking_profile
from gripsense.simulation import run_trial


class SmallPredictor(SlipPredictor):
    """A predictor cut down to keep the tests that need no trained one
    cheap; its code is the full model's."""
    input_dim, hidden, window = 8, 4, 6


def toy_items(per_class=4, seed=0):
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal((98, 13)) + 3.0 * i, MATERIAL_CLASSES[i])
            for i in range(5) for _ in range(per_class)]


class TestClassifier:
    def test_probabilities_normalized(self):
        model = MaterialClassifier()
        x = np.random.default_rng(1).standard_normal((7, 98, 13))
        probs, _ = model.forward(x)
        assert np.all(probs >= 0)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-6

    def test_logit_shift_invariance(self):
        model = MaterialClassifier()
        x = np.random.default_rng(2).standard_normal((3, 98, 13))
        before, _ = model.forward(x)
        # a constant added to every output bias shifts all logits equally
        model.layout.views(model.theta)["b3"][...] += 17.0
        after, _ = model.forward(x)
        assert np.max(np.abs(after - before)) <= 1e-9

    def test_classify_is_pure(self, classifier):
        m = np.random.default_rng(3).standard_normal((98, 13))
        assert np.array_equal(classify(classifier, m), classify(classifier, m))

    def test_classify_shape_guard(self, classifier):
        with pytest.raises(ValueError):
            classify(classifier, np.zeros((98, 12)))

    def test_silence_classifies_as_empty(self, classifier):
        table = material_table()
        index = dict(zip(MATERIAL_CLASSES, range(5)))
        hits = 0
        for seed in range(5000, 5020):
            rec = run_trial(table["empty"], shaking_profile(3, 18.0, 2.0),
                            0.4, seed)
            probs = classify(classifier, dsp.mfcc(dsp.segment(rec.audio)[0]))
            hits += int(np.argmax(probs) == index["empty"])
        assert hits == 20

    def test_training_deterministic(self):
        items = toy_items()
        a, _ = train_classifier(items, items[:5], epochs=3, seed=11)
        b, _ = train_classifier(items, items[:5], epochs=3, seed=11)
        assert np.array_equal(a.theta, b.theta)

    def test_training_reduces_loss(self):
        items = toy_items()
        x = np.stack([m for m, _ in items])
        y = np.asarray([MATERIAL_CLASSES.index(lab) for _, lab in items])
        trained, _ = train_classifier(items, items[:5], epochs=5, seed=4)
        init = MaterialClassifier(seed=4)
        init.input_mean = trained.input_mean.copy()
        init.input_std = trained.input_std.copy()
        assert trained.loss_and_grad(x, y)[0] < init.loss_and_grad(x, y)[0]

    def test_missing_class_rejected(self):
        items = [(m, lab) for m, lab in toy_items() if lab != "gummies"]
        with pytest.raises(ValueError, match="gummies"):
            train_classifier(items, items[:5], epochs=1, seed=0)

    def test_non_finite_loss_aborts_with_diagnostic(self):
        items = toy_items()
        poisoned = items[0][0].copy()
        poisoned[0, 0] = np.nan
        items[0] = (poisoned, items[0][1])
        with np.errstate(invalid="ignore"):
            with pytest.raises(RuntimeError, match="non-finite loss"):
                train_classifier(items, items[:5], epochs=1, seed=0)

    def test_forward_shape_guard(self):
        with pytest.raises(ValueError):
            MaterialClassifier().forward(np.zeros((2, 98)))


def test_sgd_epochs_yield_the_mean_minibatch_loss():
    class BatchSize:
        # loss = the minibatch's size, gradient zero
        theta = np.zeros(3)

        def loss_and_grad(self, x):
            return float(len(x)), np.zeros(3)
    # 10 rows in minibatches of 4, 4 and 2
    curve = list(sgd_epochs(BatchSize(), (np.arange(10.0),), epochs=2,
                            lr=0.1, batch=4, seed=0))
    assert curve == [(0, 10 / 3), (1, 10 / 3)]


def fresh_window(model, frames):
    """A new FeatureWindow of `model`, handed `frames` from frame 0 in one
    call."""
    fw = FeatureWindow(model)
    fw.extend(frames, 0)
    return fw


class TestPredictor:
    def small_windows(self, n=60, seed=5):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, WINDOW, tactile.FEATURE_DIM))
        return (X, rng.integers(0, 2, n).astype(float),
                rng.standard_normal(n), rng.uniform(0, 15, (n, 2)))

    def test_outputs_in_range(self):
        model = SmallPredictor()
        X = np.random.default_rng(6).standard_normal((30, 6, 8)) * 10.0
        probs, force, cells = predict_batch(model, X)
        assert np.all((probs >= 0) & (probs <= 1))
        assert np.all((cells >= 0) & (cells <= 15))
        assert np.all(np.isfinite(force))
        p = predict(fresh_window(model, X[0]), model.window)
        assert 0.0 <= p.slip_prob <= 1.0

    def test_training_deterministic(self):
        X, ys, yf, yc = self.small_windows()
        a, _ = train_predictor(X, ys, yf, yc, epochs=3, seed=9)
        b, _ = train_predictor(X, ys, yf, yc, epochs=3, seed=9)
        assert np.array_equal(a.theta, b.theta)

    def test_trained_outputs_are_pinned(self):
        # SHA-256 of predict_batch's outputs after two epochs of three
        # minibatches, the last one short: pins training's arithmetic,
        # whatever order theta stores the weights in
        X, ys, yf, yc = self.small_windows(n=150)
        model, _ = train_predictor(X, ys, yf, yc, epochs=2, seed=4)
        digest = hashlib.sha256()
        for out in predict_batch(model, X):
            digest.update(np.ascontiguousarray(out, dtype="<f8").tobytes())
        assert digest.hexdigest() == ("0372d1029c86ab6ba101b3a975120ad9"
                                      "ac09db78475376a9f8750f5b40f083f5")

    def test_training_reduces_loss(self):
        X, ys, yf, yc = self.small_windows()
        trained, _ = train_predictor(X, ys, yf, yc, epochs=6, seed=2)
        init = SlipPredictor(seed=2)
        for attr in ("input_mean", "input_std"):
            setattr(init, attr, getattr(trained, attr).copy())
        init.force_mean, init.force_std = trained.force_mean, trained.force_std
        assert trained.loss_and_grad(X, ys, yf, yc)[0] < \
            init.loss_and_grad(X, ys, yf, yc)[0]

    def test_input_validation(self):
        X, ys, yf, yc = self.small_windows()
        with pytest.raises(ValueError):
            train_predictor(X[:0], ys[:0], yf[:0], yc[:0], epochs=1, seed=0)

    def test_config_and_scope_come_from_the_inputs(self):
        # the architecture is the class's; the seed, the motion and the
        # material come from the call, and naming a material makes a
        # material model
        X, ys, yf, yc = self.small_windows()
        model, curve = train_predictor(X, ys, yf, yc, epochs=0, seed=3,
                                       motion="rotation", material="cereal")
        assert curve == []
        assert np.array_equal(model.theta, SlipPredictor(seed=3).theta)
        assert (model.scope, model.motion, model.material) == \
            ("material", "rotation", "cereal")
        model, _ = train_predictor(X, ys, yf, yc, epochs=1, seed=3,
                                   motion="rotation")
        assert (model.scope, model.material) == ("default", None)
        with pytest.raises(ValueError, match=r"expected \(B, 20, 38\) window"):
            train_predictor(X[:, 1:], ys, yf, yc, epochs=1, seed=3)

    def test_non_finite_targets_abort(self):
        X, ys, yf, yc = self.small_windows()
        yf[3] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(RuntimeError, match="non-finite loss"):
                train_predictor(X, ys, yf, yc, epochs=1, seed=0)

    def test_slip_free_training_keeps_base_rate_low(
            self, dataset_dir, manifest, cereal_rotation_model):
        _, slip_train, _, _ = ds.predictor_windows(
            dataset_dir, manifest, "train", "rotation", material="cereal")
        assert slip_train.sum() == 0, "training windows are not slip-free"
        X, slip, _, _ = ds.predictor_windows(
            dataset_dir, manifest, "test", "rotation", material="cereal")
        assert slip.sum() == 0
        probs, _, _ = predict_batch(cereal_rotation_model, X)
        assert float(probs.mean()) < 0.2

    def test_material_model_beats_default_on_own_holdout(
            self, dataset_dir, manifest, default_rotation,
            cereal_rotation_model):
        Xtr, str_, ftr, ctr = ds.predictor_windows(
            dataset_dir, manifest, "train", "rotation", material="cereal")
        Xte, _, fte, _ = ds.predictor_windows(
            dataset_dir, manifest, "test", "rotation", material="cereal")
        maes = []
        for seed in range(5):
            if seed == 0:  # the seed the fixture trained with
                model = cereal_rotation_model
            else:
                model, _ = train_predictor(
                    Xtr, str_, ftr, ctr, epochs=MATERIAL_EPOCHS, seed=seed,
                    motion="rotation", material="cereal")
            _, fhat, _ = predict_batch(model, Xte)
            maes.append(mx.mae(fhat, fte))
        _, fhat_default, _ = predict_batch(default_rotation, Xte)
        default_mae = mx.mae(fhat_default, fte)
        median = float(np.median(maes))
        effect = (default_mae - median) / default_mae
        assert median < default_mae, \
            f"median {median:.5f} vs default {default_mae:.5f}"
        assert effect > 0.2, f"effect size {effect:.2f} too small to matter"


def recorded_stream(seed=31):
    """Haptic features of a fixed-torque rice shaking trial, (n, 38)."""
    rec = run_trial(material_table()["rice"], shaking_profile(3, 18.0, 2.0),
                    0.4, seed)
    return tactile.features_from_arrays(rec.tactile, rec.joint_angles)


def stream_model(feats, seed):
    model = SlipPredictor(seed=seed)
    fit_standardizer(model, feats)
    model.force_mean, model.force_std = 0.3, 0.1
    return model


def window_predictions(model, feats, sizes):
    """{n: (slip_prob, force)} for every frame n a window of `model` can
    predict, handing it `feats` in blocks of `sizes` and predicting after
    each block."""
    fw, out, i = FeatureWindow(model), {}, 0
    for k in sizes:
        if i == len(feats):
            break
        k = min(int(k), len(feats) - i)
        fw.extend(feats[i:i + k], i)
        for n in range(max(i + 1, model.window), i + k + 1):
            p = predict(fw, n)
            out[n] = (p.slip_prob, p.force_value)
        i += k
    return out


def thread_digests():
    """SHA-256 digests, space-separated: of the recorded stream's window
    predictions handed in single frames, in blocks of 37 and to
    `predict_batch`, then of the theta of a small `train_predictor` run."""
    feats = recorded_stream()
    model = stream_model(feats, seed=4)
    values = []
    for k in (1, 37):
        out = window_predictions(model, feats, [k] * len(feats))
        values.append([out[n] for n in sorted(out)])
    X = np.lib.stride_tricks.sliding_window_view(feats, model.window, axis=0)
    values.append(np.column_stack(predict_batch(model, X.transpose(0, 2, 1))[:2]))
    trained, _ = train_predictor(*TestPredictor().small_windows(n=150),
                                 epochs=2, seed=4)
    values.append(trained.theta)
    return " ".join(hashlib.sha256(np.asarray(v, dtype="<f8").tobytes()).hexdigest()
                    for v in values)


class TestFeatureWindow:
    def test_stream_equals_replay_and_batch(self):
        feats = recorded_stream()
        model = stream_model(feats, seed=4)
        W = model.window
        fw = FeatureWindow(model)
        streamed, replayed = [], []
        for i in range(len(feats)):
            fw.extend(feats[i:i + 1], i)
            if i + 1 < W:
                with pytest.raises(ValueError, match=f"{i + 1} of {W} frames"):
                    predict(fw, i + 1)
            else:
                streamed.append(predict(fw, i + 1))
                replayed.append(predict(fresh_window(model, feats[i + 1 - W:i + 1]), W))
        assert len(streamed) == len(feats) - W + 1
        assert streamed == replayed  # bit for bit, cell included
        X = np.lib.stride_tricks.sliding_window_view(feats, W, axis=0)
        X = X.transpose(0, 2, 1)
        probs, force, cells = predict_batch(model, X)
        assert [p.slip_prob for p in streamed] == probs.tolist()
        assert [p.force_value for p in streamed] == force.tolist()
        # a window's row has the same bits in a batch of any size
        for B in (1, 2, 7):
            out = predict_batch(model, X[5:5 + B])
            for whole, part in zip((probs, force, cells), out):
                assert np.array_equal(part, whole[5:5 + B]), B

    def test_any_split_gives_the_bits_of_single_frames(self):
        # blocks of any size, and a block dropped in part and handed again,
        # give every prediction the bits of one frame per block
        feats = recorded_stream()
        model = stream_model(feats, seed=4)
        W, n = model.window, len(feats)
        single = window_predictions(model, feats, [1] * n)
        for k in (2, W - 1, W, W + 1, 2 * W + 3, n):
            assert window_predictions(model, feats, [k] * n) == single, k
        sizes = np.random.default_rng(7).integers(1, 3 * W, n)
        assert window_predictions(model, feats, sizes) == single
        # a rewind into the last block: its frames from 2W + 5 on are junk
        # until handed again
        fw = FeatureWindow(model)
        fw.extend(feats[:W + 3], 0)
        block = feats[W + 3:3 * W].copy()
        block[W + 2:] += 1.0
        fw.extend(block, W + 3)
        junk = predict(fw, 3 * W)
        fw.extend(feats[2 * W + 5:4 * W], 2 * W + 5)
        assert predict(fw, 3 * W) != junk
        for m in range(W + 4, 4 * W + 1):
            p = predict(fw, m)
            assert (p.slip_prob, p.force_value) == single[m], m

    def test_predictions_keep_their_bits_across_blas_threads(self):
        # the digests of one stream's predictions, split two ways and in a
        # batch, and of a trained theta, at one and two BLAS threads
        code = ("import sys; sys.path[:0] = sys.argv[1:]; import test_models as t; "
                "print(t.thread_digests())")
        tests = Path(__file__).resolve().parent
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            out = subprocess.run(
                [sys.executable, "-c", code, str(tests), str(tests.parent / "src")],
                env=env, capture_output=True, text=True, check=True)
            digests.append(out.stdout.split())
        assert len(digests[0]) == 4 and digests[0] == digests[1], digests
        assert len(set(digests[0][:3])) == 1, digests

    def test_model_switch_replays_the_window(self):
        # a switch, as the controller makes it: the new model's window is
        # handed the W newest frames, then streams on
        feats = recorded_stream()
        a, b = stream_model(feats, seed=4), stream_model(feats, seed=5)
        W = a.window
        fw = fresh_window(a, feats[:W + 2])
        before = predict(fw, W + 2)
        fw = FeatureWindow(b)
        fw.extend(feats[2:W + 2], 2)
        assert predict(fw, W + 2) != before
        for i in range(W + 2, W + 6):
            fw.extend(feats[i:i + 1], i)
            assert predict(fw, i + 1) == predict(
                fresh_window(b, feats[i + 1 - W:i + 1]), W)

    def test_bad_frames_and_windows_rejected(self):
        fw = FeatureWindow(SmallPredictor())
        for shape in ((1, 7), (1, 9), (8,), (0, 8), ()):
            with pytest.raises(ValueError, match="feature frame"):
                fw.extend(np.zeros(shape), 0)
        fw.extend(np.zeros((5, 8)), 0)
        with pytest.raises(ValueError, match="5 of 6 frames"):
            predict(fw, 5)
        with pytest.raises(ValueError, match="do not follow"):
            fw.extend(np.zeros((1, 8)), 6)
        fw.extend(np.zeros((1, 8)), 5)
        predict(fw, 6)
        with pytest.raises(ValueError, match="no prediction for frame 7"):
            predict(fw, 7)

    def test_batch_outputs_are_pinned(self):
        # SHA-256 of predict_batch's outputs at B = 1, 8 and 64, as
        # `_prepared` and `_gru_cell` compute them
        model = SlipPredictor(seed=3)
        model.force_mean, model.force_std = 0.3, 0.1
        X = np.random.default_rng(11).standard_normal((64, 20, 38)) * 2.0
        digest = hashlib.sha256()
        for b in (1, 8, 64):
            for out in predict_batch(model, X[:b]):
                digest.update(np.ascontiguousarray(out, dtype="<f8").tobytes())
        assert digest.hexdigest() == ("419f262a87b8a491cc0828768bb0a228"
                                      "da8d04cd63c9ebb22e8c33033f098d0b")


class TestRegistry:
    def build(self):
        reg = ModelRegistry()
        default = SmallPredictor(motion="shaking")
        rice = SmallPredictor(motion="shaking", material="rice")
        reg.register_default("shaking", default)
        reg.register_material("shaking", "rice", rice)
        return reg, default, rice

    def test_selection_rules(self):
        reg, default, rice = self.build()
        assert select_model(reg, "shaking") is default
        assert select_model(reg, "shaking", "rice") is rice
        assert select_model(reg, "shaking", "cereal") is default
        assert reg.fallback_events == [("shaking", "cereal")]

    def test_unknown_motion(self):
        reg, _, _ = self.build()
        with pytest.raises(KeyError):
            select_model(reg, "rotation")

    def test_material_requires_default_first(self):
        reg = ModelRegistry()
        model = SmallPredictor()
        with pytest.raises(ValueError):
            reg.register_material("rotation", "rice", model)


class TestSerialization:
    def test_classifier_round_trip(self, tmp_path):
        model = MaterialClassifier(seed=5)
        model.input_mean = np.random.default_rng(0).standard_normal(13)
        model.input_std = np.abs(np.random.default_rng(1).standard_normal(13)) + 0.1
        path = tmp_path / "clf.gsm"
        save_model(path, model)
        back = load_model(path, "classifier")
        for name in ("input_mean", "input_std"):
            assert np.array_equal(getattr(back, name), getattr(model, name))
        # parameters travel as float32; the stored values round-trip exactly
        assert np.array_equal(back.theta,
                              model.theta.astype("<f4").astype(float))
        save_model(tmp_path / "clf2.gsm", back)
        assert (tmp_path / "clf2.gsm").read_bytes() == path.read_bytes()
        x = np.random.default_rng(2).standard_normal((2, 98, 13))
        assert np.allclose(back.forward(x)[0], model.forward(x)[0], atol=1e-4)

    def test_predictor_round_trip(self, tmp_path):
        model = SlipPredictor(seed=2, motion="rotation", material="gummies")
        model.force_mean, model.force_std = 0.4, 0.2
        path = tmp_path / "pred.gsm"
        save_model(path, model)
        back = load_model(path, "predictor")
        assert (back.scope, back.motion, back.material) == \
            ("material", "rotation", "gummies")
        assert np.array_equal(back.theta, model.theta.astype("<f4").astype(float))
        assert (back.force_mean, back.force_std) == (0.4, 0.2)
        save_model(tmp_path / "pred2.gsm", back)
        assert (tmp_path / "pred2.gsm").read_bytes() == path.read_bytes()

    def test_file_bytes_are_pinned(self, tmp_path):
        # the whole file, hashed: a CRC32 of it is constant, since the
        # file ends with the CRC32 of everything before it. Magic GSM2;
        # the predictor's block holds its GRU weights stacked z, r, n
        clf = MaterialClassifier(seed=5)
        pred = SlipPredictor(seed=2, motion="rotation", material="gummies")
        pred.force_mean, pred.force_std = 0.4, 0.2
        golden = [
            (clf, 9695, "aae98c6f2d43f9623c262e907d3f1b0d"
                        "33964872c1bd3edbd01296e4bf998460"),
            (pred, 28326, "aa4610029b9f4825a63c5b2c88c1e0ee"
                          "f1a853a3906f417eca50b06bcdc6ed4a"),
        ]
        for model, size, digest in golden:
            path = tmp_path / "m.gsm"
            save_model(path, model)
            raw = path.read_bytes()
            assert (len(raw), hashlib.sha256(raw).hexdigest()) == (size, digest)

    @pytest.mark.parametrize("kind", ["classifier", "predictor"])
    def test_gsm1_file_is_refused(self, tmp_path, kind):
        # GSM1 stored a predictor's gates apart in a block of the same
        # length, so such a file would otherwise load scrambled
        model = {"classifier": MaterialClassifier,
                 "predictor": SlipPredictor}[kind]()
        save_model(tmp_path / "new.gsm", model)
        body = b"GSM1" + (tmp_path / "new.gsm").read_bytes()[4:-4]
        path = tmp_path / "old.gsm"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(ModelFormatError,
                           match=re.escape("old.gsm: bad magic b'GSM1'")):
            load_model(path, kind)

    def test_corruption_detected(self, tmp_path):
        model = MaterialClassifier(seed=1)
        path = tmp_path / "m.gsm"
        save_model(path, model)
        raw = bytearray(path.read_bytes())

        bad = tmp_path / "bad.gsm"
        bad.write_bytes(b"XXXX" + raw[4:])
        with pytest.raises(ModelFormatError):
            load_model(bad, "classifier")

        flipped = bytearray(raw)
        mid = len(flipped) // 2
        flipped[mid] ^= 0xFF
        bad.write_bytes(bytes(flipped))
        with pytest.raises(ModelChecksumError, match="bad.gsm"):
            load_model(bad, "classifier")

        bad.write_bytes(bytes(raw[:10]))
        with pytest.raises(ModelFormatError):
            load_model(bad, "classifier")

        # a valid descriptor and checksum, but no parameter count after it
        (desc_len,) = struct.unpack_from("<I", raw, 4)
        body = bytes(raw[:8 + desc_len])
        bad.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(ModelFormatError, match="bad.gsm"):
            load_model(bad, "classifier")

    def test_kind_mismatch_rejected(self, tmp_path):
        model = MaterialClassifier(seed=1)
        path = tmp_path / "clf.gsm"
        save_model(path, model)
        with pytest.raises(ModelFormatError, match="clf.gsm"):
            load_model(path, "predictor")

    @pytest.mark.parametrize("edit", ["drop_key", "add_key", "short_stats"])
    def test_bad_descriptor_names_the_file(self, tmp_path, edit):
        descriptor = {"kind": "classifier",
                      "input_mean": [0.0] * 13, "input_std": [1.0] * 13}
        if edit == "drop_key":
            del descriptor["input_std"]
        elif edit == "add_key":
            descriptor["dropout"] = 0.5
        else:
            descriptor["input_mean"] = [0.0]
        path = tmp_path / "odd.gsm"
        path.write_bytes(serialize._pack(descriptor,
                                         MaterialClassifier().theta))
        with pytest.raises(ModelFormatError, match="odd.gsm"):
            load_model(path, "classifier")


    @pytest.mark.parametrize("field, value", [
        ("parameters", np.nan), ("input_mean", np.inf),
        ("input_std", np.nan), ("input_std", 0.0), ("input_std", -1.0),
        ("force_mean", np.nan), ("force_std", 0.0), ("force_std", np.inf),
    ])
    def test_non_finite_or_zero_statistics_name_the_file(self, tmp_path,
                                                          field, value):
        model = SlipPredictor(seed=2)
        model.force_mean, model.force_std = 0.4, 0.2
        if field == "parameters":
            model.theta[5] = value
        elif field.startswith("input_"):
            getattr(model, field)[3] = value
        else:
            setattr(model, field, value)
        path = tmp_path / "odd.gsm"
        save_model(path, model)
        with pytest.raises(ModelFormatError, match=f"odd.gsm: .*{field}"):
            load_model(path, "predictor")

    @pytest.mark.parametrize("kind, stray", [
        ("classifier", ["config"]), ("predictor", ["config", "scope"])],
        ids=["classifier", "predictor"])
    def test_file_with_a_stored_config_is_refused(self, tmp_path, kind, stray):
        # the descriptor an earlier format wrote: the architecture as a
        # config, and a predictor's scope beside its material
        model = {"classifier": MaterialClassifier,
                 "predictor": SlipPredictor}[kind]()
        save_model(tmp_path / "new.gsm", model)
        raw = (tmp_path / "new.gsm").read_bytes()
        (desc_len,) = struct.unpack_from("<I", raw, 4)
        descriptor = json.loads(raw[8:8 + desc_len])
        if kind == "classifier":
            descriptor["config"] = {"n_coeffs": 13, "channels": [16, 32],
                                    "kernel": 3, "seed": 0,
                                    "classes": list(MATERIAL_CLASSES)}
        else:
            descriptor["config"] = {"input_dim": 38, "hidden": 32,
                                    "window": 20, "horizon": 10, "seed": 0}
            descriptor["scope"] = "default"
        path = tmp_path / "old.gsm"
        path.write_bytes(serialize._pack(descriptor, model.theta))
        with pytest.raises(ModelFormatError,
                           match=re.escape(f"old.gsm: {kind} descriptor has "
                                           f"unknown keys {stray}")):
            load_model(path, kind)


class TestMetrics:
    def test_auc_known_values(self):
        assert mx.auc(np.array([0.9, 0.8, 0.2, 0.1]),
                      np.array([True, True, False, False])) == 1.0
        assert mx.auc(np.array([0.5, 0.5, 0.5, 0.5]),
                      np.array([True, False, True, False])) == 0.5

    def test_auc_matches_pair_count_oracle(self):
        rng = np.random.default_rng(7)
        scores = rng.random(60)
        labels = rng.random(60) < 0.4
        got = mx.auc(scores, labels)
        want = oracles.pair_count_auc(list(scores), list(labels))
        assert got == pytest.approx(want, abs=1e-12)

    def test_auc_rejects_single_class(self):
        with pytest.raises(ValueError):
            mx.auc(np.array([0.1, 0.9]), np.array([True, True]))

    def test_confusion_rows_sum_to_support(self):
        truth = np.array([0, 0, 1, 2, 2, 2])
        pred = np.array([0, 1, 1, 2, 0, 2])
        cm = mx.confusion_matrix(pred, truth, 3)
        assert cm.sum() == len(truth)
        for c in range(3):
            assert cm[c].sum() == np.sum(truth == c)

    def test_precision_recall_on_diagonal(self):
        cm = np.diag([3, 4, 5])
        prec, rec = mx.precision_recall(cm)
        assert np.array_equal(prec, np.ones(3))
        assert np.array_equal(rec, np.ones(3))

    def test_mean_cell_distance(self):
        pred = np.array([[0.0, 0.0], [3.0, 4.0]])
        true = np.array([[0.0, 0.0], [0.0, 0.0]])
        assert mx.mean_cell_distance(pred, true) == 2.5
