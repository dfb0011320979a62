import hashlib
import struct
import zlib

import numpy as np
import pytest

import oracles
from gripsense import dataset as ds
from gripsense import dsp
from gripsense.materials import MATERIAL_CLASSES, material_table
from gripsense.models import metrics as mx
from gripsense.models.classifier import (
    ClassifierConfig,
    MaterialClassifier,
    classify,
    train_classifier,
)
from gripsense import tactile
from gripsense.models.optim import TrainConfig, fit_standardizer
from gripsense.models.predictor import (
    FeatureWindow,
    PredictorConfig,
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
        index = dict(zip(classifier.cfg.classes, range(5)))
        hits = 0
        for seed in range(5000, 5020):
            rec = run_trial(table["empty"], shaking_profile(3, 18.0, 2.0),
                            0.4, seed)
            probs = classify(classifier, dsp.mfcc(dsp.segment(rec.audio)[0]))
            hits += int(np.argmax(probs) == index["empty"])
        assert hits == 20

    def test_training_deterministic(self):
        items = toy_items()
        cfg = TrainConfig(epochs=3, lr=0.01, seed=11)
        a, _ = train_classifier(items, items[:5], cfg)
        b, _ = train_classifier(items, items[:5], cfg)
        assert np.array_equal(a.theta, b.theta)

    def test_training_reduces_loss(self):
        items = toy_items()
        x = np.stack([m for m, _ in items])
        y = np.asarray([MATERIAL_CLASSES.index(lab) for _, lab in items])
        trained, _ = train_classifier(items, items[:5],
                                      TrainConfig(epochs=5, lr=0.01, seed=4))
        init = MaterialClassifier(ClassifierConfig(seed=4))
        init.input_mean = trained.input_mean.copy()
        init.input_std = trained.input_std.copy()
        assert trained.loss_and_grad(x, y)[0] < init.loss_and_grad(x, y)[0]

    def test_missing_class_rejected(self):
        items = [(m, lab) for m, lab in toy_items() if lab != "gummies"]
        with pytest.raises(ValueError, match="gummies"):
            train_classifier(items, items[:5],
                             TrainConfig(epochs=1, lr=0.01))

    def test_non_finite_loss_aborts_with_diagnostic(self):
        items = toy_items()
        poisoned = items[0][0].copy()
        poisoned[0, 0] = np.nan
        items[0] = (poisoned, items[0][1])
        with np.errstate(invalid="ignore"):
            with pytest.raises(RuntimeError, match="non-finite loss"):
                train_classifier(items, items[:5],
                                 TrainConfig(epochs=1, lr=0.01))

    def test_forward_shape_guard(self):
        with pytest.raises(ValueError):
            MaterialClassifier().forward(np.zeros((2, 98)))


def fresh_window(frames):
    """A new FeatureWindow holding `frames` (W, input_dim), oldest first."""
    fw = FeatureWindow(*frames.shape)
    for frame in frames:
        fw.push(frame)
    return fw


class TestPredictor:
    def small_windows(self, n=60, seed=5):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 6, 8))
        return (X, rng.integers(0, 2, n).astype(float),
                rng.standard_normal(n), rng.uniform(0, 15, (n, 2)))

    def test_outputs_in_range(self):
        model = SlipPredictor(PredictorConfig(input_dim=8, hidden=4, window=6,
                                              horizon=2, seed=0))
        X = np.random.default_rng(6).standard_normal((30, 6, 8)) * 10.0
        probs, force, cells = predict_batch(model, X)
        assert np.all((probs >= 0) & (probs <= 1))
        assert np.all((cells >= 0) & (cells <= 15))
        assert np.all(np.isfinite(force))
        p = predict(model, fresh_window(X[0]))
        assert 0.0 <= p.slip_prob <= 1.0

    def test_training_deterministic(self):
        X, ys, yf, yc = self.small_windows()
        cfg = TrainConfig(epochs=3, lr=0.05, seed=9)
        a = train_predictor(X, ys, yf, yc, cfg)
        b = train_predictor(X, ys, yf, yc, cfg)
        assert np.array_equal(a.theta, b.theta)

    def test_training_reduces_loss(self):
        X, ys, yf, yc = self.small_windows()
        trained = train_predictor(
            X, ys, yf, yc, cfg=TrainConfig(epochs=6, lr=0.05, seed=2))
        init = SlipPredictor(PredictorConfig(input_dim=8, hidden=32, window=6,
                                             seed=2))
        for attr in ("input_mean", "input_std"):
            setattr(init, attr, getattr(trained, attr).copy())
        init.force_mean, init.force_std = trained.force_mean, trained.force_std
        assert trained.loss_and_grad(X, ys, yf, yc)[0] < \
            init.loss_and_grad(X, ys, yf, yc)[0]

    def test_input_validation(self):
        X, ys, yf, yc = self.small_windows()
        cfg = TrainConfig(epochs=8, lr=0.05)
        with pytest.raises(ValueError):
            train_predictor(X[:0], ys[:0], yf[:0], yc[:0], cfg)
        with pytest.raises(ValueError):
            train_predictor(X, ys, yf, yc, cfg, scope="material")
        with pytest.raises(ValueError):
            train_predictor(X, ys, yf, yc, cfg, scope="global")

    def test_non_finite_targets_abort(self):
        X, ys, yf, yc = self.small_windows()
        yf[3] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(RuntimeError, match="non-finite loss"):
                train_predictor(X, ys, yf, yc,
                                cfg=TrainConfig(epochs=1, lr=0.05))

    def test_slip_free_training_keeps_base_rate_low(
            self, dataset_dir, manifest, window_cache, cereal_rotation_model):
        _, slip_train, _, _, _ = ds.predictor_windows(
            dataset_dir, manifest, "train", "rotation", material="cereal",
            cache=window_cache)
        assert slip_train.sum() == 0, "training windows are not slip-free"
        X, slip, _, _, _ = ds.predictor_windows(
            dataset_dir, manifest, "test", "rotation", material="cereal",
            cache=window_cache)
        assert slip.sum() == 0
        probs, _, _ = predict_batch(cereal_rotation_model, X)
        assert float(probs.mean()) < 0.2

    def test_material_model_beats_default_on_own_holdout(
            self, dataset_dir, manifest, window_cache, default_rotation,
            cereal_rotation_model):
        Xtr, str_, ftr, ctr, _ = ds.predictor_windows(
            dataset_dir, manifest, "train", "rotation", material="cereal",
            cache=window_cache)
        Xte, _, fte, _, _ = ds.predictor_windows(
            dataset_dir, manifest, "test", "rotation", material="cereal",
            cache=window_cache)
        maes = []
        for seed in range(5):
            if seed == cereal_rotation_model.cfg.seed:
                model = cereal_rotation_model
            else:
                model = train_predictor(
                    Xtr, str_, ftr, ctr, scope="material", motion="rotation",
                    material="cereal",
                    cfg=TrainConfig(epochs=24, lr=0.05, seed=seed))
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
    model = SlipPredictor(PredictorConfig(seed=seed))
    fit_standardizer(model, feats)
    model.force_mean, model.force_std = 0.3, 0.1
    return model


class TestFeatureWindow:
    def test_stream_equals_replay_and_batch(self):
        feats = recorded_stream()
        model = stream_model(feats, seed=4)
        W = model.cfg.window
        fw = FeatureWindow(W, model.cfg.input_dim)
        streamed, replayed = [], []
        for i, frame in enumerate(feats):
            fw.push(frame)
            assert fw.full == (i + 1 >= W)
            assert np.array_equal(fw.frames, feats[max(0, i + 1 - W):i + 1])
            if fw.full:
                streamed.append(predict(model, fw))
                replayed.append(predict(model, fresh_window(feats[i + 1 - W:i + 1])))
        assert len(streamed) == len(feats) - W + 1
        assert streamed == replayed  # bit for bit, cell included
        X = np.lib.stride_tricks.sliding_window_view(feats, W, axis=0)
        probs, force, _ = predict_batch(model, X.transpose(0, 2, 1))
        assert np.allclose([p.slip_prob for p in streamed], probs,
                           rtol=0, atol=1e-12)
        assert np.allclose([p.force_value for p in streamed], force,
                           rtol=0, atol=1e-12)

    def test_model_switch_replays_the_window(self):
        feats = recorded_stream()
        a, b = stream_model(feats, seed=4), stream_model(feats, seed=5)
        W = a.cfg.window
        fw = FeatureWindow(W, a.cfg.input_dim)
        for frame in feats[:W]:
            fw.push(frame)
        predict(a, fw)
        fw.push(feats[W])
        predict(a, fw)
        for i, model in ((W + 1, b), (W + 2, b), (W + 3, a)):
            fw.push(feats[i])
            got = predict(model, fw)
            assert got == predict(model, fresh_window(feats[i + 1 - W:i + 1]))
            # a read by the other model and back replays the window twice
            assert got != predict(b if model is a else a, fw)
            assert predict(model, fw) == got

    def test_bad_frames_and_windows_rejected(self):
        model = SlipPredictor(PredictorConfig(input_dim=8, hidden=4, window=6))
        fw = FeatureWindow(6, 8)
        for shape in ((7,), (9,), (1, 8), ()):
            with pytest.raises(ValueError, match="feature frame"):
                fw.push(np.zeros(shape))
        for _ in range(5):
            fw.push(np.zeros(8))
        with pytest.raises(ValueError, match="5 of 6 frames"):
            predict(model, fw)
        fw.push(np.zeros(8))
        other = SlipPredictor(PredictorConfig(input_dim=8, hidden=4, window=5))
        with pytest.raises(ValueError, match="window 5"):
            predict(other, fw)
        predict(model, fw)

    def test_batch_outputs_are_pinned(self):
        # SHA-256 of predict_batch's outputs at B = 1, 8 and 64, as the
        # unstacked per-gate GRU computed them
        model = SlipPredictor(PredictorConfig(seed=3))
        model.force_mean, model.force_std = 0.3, 0.1
        X = np.random.default_rng(11).standard_normal((64, 20, 38)) * 2.0
        digest = hashlib.sha256()
        for b in (1, 8, 64):
            for out in predict_batch(model, X[:b]):
                digest.update(np.ascontiguousarray(out, dtype="<f8").tobytes())
        assert digest.hexdigest() == ("512096925cffa8ad7c6b0f62eaa70b3b"
                                      "dc3dd79138f305054759d92774abe2a9")


class TestRegistry:
    def build(self):
        reg = ModelRegistry()
        default = SlipPredictor(PredictorConfig(input_dim=4, hidden=3,
                                                window=3), motion="shaking")
        rice = SlipPredictor(PredictorConfig(input_dim=4, hidden=3, window=3),
                             scope="material", motion="shaking",
                             material="rice")
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
        model = SlipPredictor(PredictorConfig(input_dim=4, hidden=3, window=3))
        with pytest.raises(ValueError):
            reg.register_material("rotation", "rice", model)


class TestSerialization:
    def test_classifier_round_trip(self, tmp_path):
        model = MaterialClassifier(ClassifierConfig(seed=5))
        model.input_mean = np.random.default_rng(0).standard_normal(13)
        model.input_std = np.abs(np.random.default_rng(1).standard_normal(13)) + 0.1
        path = tmp_path / "clf.gsm"
        save_model(path, model)
        back = load_model(path, "classifier")
        assert back.cfg == model.cfg
        # parameters travel as float32; the stored values round-trip exactly
        assert np.array_equal(back.theta,
                              model.theta.astype("<f4").astype(float))
        save_model(tmp_path / "clf2.gsm", back)
        assert (tmp_path / "clf2.gsm").read_bytes() == path.read_bytes()
        x = np.random.default_rng(2).standard_normal((2, 98, 13))
        assert np.allclose(back.forward(x)[0], model.forward(x)[0], atol=1e-4)

    def test_predictor_round_trip(self, tmp_path):
        model = SlipPredictor(PredictorConfig(input_dim=8, hidden=4, window=6,
                                              horizon=3, seed=2),
                              scope="material", motion="rotation",
                              material="gummies")
        model.force_mean, model.force_std = 0.4, 0.2
        path = tmp_path / "pred.gsm"
        save_model(path, model)
        back = load_model(path, "predictor")
        assert (back.scope, back.motion, back.material) == \
            ("material", "rotation", "gummies")
        assert back.cfg == model.cfg
        assert (back.force_mean, back.force_std) == (0.4, 0.2)
        save_model(tmp_path / "pred2.gsm", back)
        assert (tmp_path / "pred2.gsm").read_bytes() == path.read_bytes()

    def test_file_bytes_are_pinned(self, tmp_path):
        # the whole file, hashed: a CRC32 of it is constant, since the
        # file ends with the CRC32 of everything before it
        clf = MaterialClassifier(ClassifierConfig(seed=5))
        pred = SlipPredictor(PredictorConfig(seed=2), scope="material",
                             motion="rotation", material="gummies")
        pred.force_mean, pred.force_std = 0.4, 0.2
        golden = [
            (clf, 9832, "21f6913289551672ee3ded4bb70d4f05"
                        "21d5f0971ef9fa128c0871439d690df1"),
            (pred, 28430, "311c5f9799efb56338e10d3e023195dc"
                          "79e7f9057cbe5cf3cc5b428c849c3238"),
        ]
        for model, size, digest in golden:
            path = tmp_path / "m.gsm"
            save_model(path, model)
            raw = path.read_bytes()
            assert (len(raw), hashlib.sha256(raw).hexdigest()) == (size, digest)

    def test_corruption_detected(self, tmp_path):
        model = MaterialClassifier(ClassifierConfig(seed=1))
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
        model = MaterialClassifier(ClassifierConfig(seed=1))
        path = tmp_path / "clf.gsm"
        save_model(path, model)
        with pytest.raises(ModelFormatError, match="clf.gsm"):
            load_model(path, "predictor")

    @pytest.mark.parametrize("edit", ["drop_key", "add_key", "short_stats"])
    def test_bad_descriptor_names_the_file(self, tmp_path, edit):
        descriptor = {"kind": "classifier",
                      "config": {"n_coeffs": 13, "channels": [16, 32],
                                 "kernel": 3, "classes": list(MATERIAL_CLASSES),
                                 "seed": 0},
                      "input_mean": [0.0] * 13, "input_std": [1.0] * 13}
        if edit == "drop_key":
            del descriptor["config"]["kernel"]
        elif edit == "add_key":
            descriptor["config"]["dropout"] = 0.5
        else:
            descriptor["input_mean"] = [0.0]
        path = tmp_path / "odd.gsm"
        path.write_bytes(serialize._pack(descriptor,
                                         MaterialClassifier().theta))
        with pytest.raises(ModelFormatError, match="odd.gsm"):
            load_model(path, "classifier")


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
