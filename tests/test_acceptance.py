"""Acceptance gate: nine end-to-end criteria over the full pipeline.

Each test prints one [PASS]/[FAIL] line through the terminal summary
(see conftest hook); thresholds and tolerances are stated inline.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gripsense import dataset as ds
from gripsense import dsp, inference, tactile
from gripsense.controller import run_baseline_episode, run_reactive_loop
from gripsense.materials import MATERIAL_CLASSES, material_table
from gripsense.models.classifier import ClassifierConfig, MaterialClassifier, classify, train_classifier
from gripsense.models.optim import TrainConfig
from gripsense.models.predictor import (FeatureWindow, PredictorConfig, SlipPredictor, predict,
                                       predict_batch)
from gripsense.models.registry import select_model
from gripsense.models import metrics as mx
from gripsense.simulation import SAMPLE_RATE

RESULTS = []
ATTEMPTED = set()
EXPECTED_CRITERIA = 9


@pytest.fixture(autouse=True)
def _track_attempt(request):
    name = request.node.name
    if name.startswith("test_criterion_"):
        ATTEMPTED.add(int(name.split("_")[2]))
    yield


def record(number: int, detail: str) -> None:
    RESULTS.append((number, detail))


def switches(log) -> int:
    return sum(1 for a, b in zip(log.active_material, log.active_material[1:])
               if a != b)


def test_criterion_1_mfcc_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        samples = rng.uniform(-1.0, 1.0, 16000)
        ours = dsp.mfcc(samples)
        ref = oracles.naive_mfcc(samples, SAMPLE_RATE)
        worst = max(worst, float(np.max(np.abs(ours - ref))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6, f"max abs error {worst:.2e} exceeds 1e-6"
    assert elapsed < 30.0, f"oracle comparison took {elapsed:.1f}s (budget 30s)"
    record(1, f"MFCC matches naive-DFT oracle, max abs err {worst:.2e} "
              f"on 100 signals in {elapsed:.1f}s")


def test_criterion_2_dataset_protocol(dataset_dir, manifest, tmp_path):
    cells = {}
    for e in manifest.trials:
        cells.setdefault((e.motion["kind"], e.material), []).append(e.trial_id)
    assert len(manifest.trials) == 300
    assert len(cells) == 10
    assert all(len(ids) == 30 for ids in cells.values())

    t0 = time.perf_counter()
    again = ds.generate_dataset(tmp_path / "regen", trials_per_cell=30,
                                base_seed=0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"regeneration took {elapsed:.0f}s (budget 600s)"
    first = {e.trial_id: e.checksums for e in manifest.trials}
    second = {e.trial_id: e.checksums for e in again.trials}
    assert first == second, "regeneration with the same base seed diverged"
    record(2, f"300 trials in 10 cells of 30; regeneration checksum-identical "
              f"in {elapsed:.0f}s")


def test_criterion_3_material_classification(dataset_dir, manifest):
    train_aug, _ = ds.classifier_segments(dataset_dir, manifest, "train",
                                          augment=True)
    val_items, _ = ds.classifier_segments(dataset_dir, manifest, "val")
    t0 = time.perf_counter()
    model, _ = train_classifier(train_aug, val_items,
                                TrainConfig(epochs=30, lr=0.01, seed=0))
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"training took {elapsed:.0f}s (budget 600s)"

    train_plain, _ = ds.classifier_segments(dataset_dir, manifest, "train")
    test_items, _ = ds.classifier_segments(dataset_dir, manifest, "test")
    index = {c: i for i, c in enumerate(model.cfg.classes)}
    hits = sum(int(np.argmax(classify(model, frames)) == index[label])
               for frames, label in test_items)
    accuracy = hits / len(test_items)
    oracle = oracles.nearest_centroid_accuracy(train_plain, test_items,
                                               model.cfg.classes)
    assert oracle >= 0.80, f"centroid oracle only reached {oracle:.3f}"
    assert accuracy >= 0.90, f"held-out accuracy {accuracy:.3f} below 0.90"
    assert accuracy >= oracle, (f"classifier {accuracy:.3f} below the "
                                f"nearest-centroid oracle {oracle:.3f}")
    record(3, f"held-out accuracy {accuracy:.3f} >= 0.90 and >= centroid "
              f"oracle {oracle:.3f}; trained in {elapsed:.0f}s")


def test_criterion_4_slip_prediction(dataset_dir, manifest, default_shaking,
                                     window_cache):
    X, slip, force, _, _ = ds.predictor_windows(
        dataset_dir, manifest, "test", "shaking", cache=window_cache)
    probs, force_hat, _ = predict_batch(default_shaking, X)
    auc_impl = mx.auc(probs, slip)
    auc_ref = oracles.pair_count_auc(list(probs), list(slip.astype(bool)))
    assert abs(auc_impl - auc_ref) < 1e-9
    err = mx.mae(force_hat, force)
    bound = 0.25 * float(force.std())
    assert auc_impl >= 0.90, f"AUC {auc_impl:.3f} below 0.90"
    assert err < bound, f"force MAE {err:.4f} not below {bound:.4f}"
    record(4, f"slip AUC {auc_impl:.3f} (pair-count oracle agrees); force "
              f"MAE {err:.4f} < 25% of holdout std {bound:.4f}")


def test_criterion_5_gradient_checks():
    worst = {}

    clf = MaterialClassifier(ClassifierConfig(n_coeffs=5, channels=(3, 4),
                                              seed=1))
    rng = np.random.default_rng(2)
    Xc = rng.standard_normal((4, 12, 5))
    yc = rng.integers(0, len(MATERIAL_CLASSES), 4)
    _, analytic = clf.loss_and_grad(Xc, yc)
    fd = oracles.central_difference_gradient(
        lambda: clf.loss_and_grad(Xc, yc)[0], clf.theta)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
    worst["classifier"] = float(np.max(np.abs(analytic - fd) / denom))

    pred = SlipPredictor(PredictorConfig(input_dim=6, hidden=4, window=5,
                                         horizon=2, seed=3))
    Xp = rng.standard_normal((4, 5, 6))
    ys = rng.integers(0, 2, 4).astype(float)
    yf = rng.standard_normal(4)
    ycell = rng.uniform(0, 1, (4, 2))
    _, analytic = pred.loss_and_grad(Xp, ys, yf, ycell)
    fd = oracles.central_difference_gradient(
        lambda: pred.loss_and_grad(Xp, ys, yf, ycell)[0], pred.theta)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
    worst["predictor"] = float(np.max(np.abs(analytic - fd) / denom))

    assert worst["classifier"] <= 1e-4, worst
    assert worst["predictor"] <= 1e-4, worst
    record(5, f"analytic vs central-difference gradients: classifier "
              f"{worst['classifier']:.1e}, predictor {worst['predictor']:.1e} "
              f"(tolerance 1e-4)")


def test_criterion_6_controller_safety_and_effort(classifier, registry):
    table = material_table()
    reactive_means = []
    reactive_drops = baseline_drops = 0
    for s in range(100):
        prof_rng = np.random.default_rng(ds.derive_seed(600, "rice", "shaking",
                                                        s, "profile"))
        profile = ds.sample_trial_profile("shaking", prof_rng)
        sim_seed = ds.derive_seed(600, "rice", "shaking", s, "sim")

        probe = run_baseline_episode(table["rice"], profile, 0.4, sim_seed)
        assert probe.record.true_slip.any(), f"seed {s}: motion does not induce slip"

        log = run_reactive_loop(table["rice"], profile, classifier, registry,
                                seed=sim_seed)
        baseline = run_baseline_episode(table["rice"], profile, 1.0, sim_seed)
        assert not log.dropped_any, f"seed {s}: reactive policy dropped"
        assert (log.torque_cmd >= 0.4 - 1e-12).all()
        assert (log.torque_cmd <= 1.0 + 1e-12).all()
        assert switches(log) <= 1
        reactive_means.append(log.mean_torque)
        reactive_drops += int(log.dropped_any)
        baseline_drops += int(baseline.dropped_any)
    mean_torque = float(np.mean(reactive_means))
    assert reactive_drops == baseline_drops == 0
    assert mean_torque < 1.0, "reactive effort not below the 1.0 Nm baseline"
    record(6, f"100 slip-inducing episodes: 0 drops, torque within "
              f"[0.4, 1.0], mean {mean_torque:.3f} < 1.0 baseline")


def test_criterion_7_model_switching(classifier, registry):
    table = material_table()
    horizon = select_model(registry, "rotation", "cereal").cfg.horizon
    default_model = select_model(registry, "rotation")
    W = default_model.cfg.window
    material_maes, default_maes = [], []
    commits = 0
    for s in range(20):
        prof_rng = np.random.default_rng(ds.derive_seed(900, "cereal",
                                                        "rotation", s, "profile"))
        profile = ds.sample_trial_profile("rotation", prof_rng)
        sim_seed = ds.derive_seed(900, "cereal", "rotation", s, "sim")
        log = run_reactive_loop(table["cereal"], profile, classifier, registry,
                                seed=sim_seed)
        assert switches(log) <= 1, f"seed {s}: switch is not latching"
        if log.active_material[-1] != "cereal":
            continue
        commits += 1
        rec = log.record
        n = rec.n_steps
        specific = log.pred_force[:n - horizon]
        truth = rec.true_max_force[horizon:]
        post = np.array([a == "cereal" for a in log.active_material[:n - horizon]])
        valid = post & np.isfinite(specific)
        assert valid.sum() > 0
        # the default model on the same windows: step i's window holds the
        # features of the observations before it
        feats = tactile.features_from_arrays(rec.tactile, rec.joint_angles)
        window = FeatureWindow(W, feats.shape[1])
        default, pushed = [], 0
        for i in np.flatnonzero(valid):
            while pushed < i:
                window.push(feats[pushed])
                pushed += 1
            default.append(predict(default_model, window).force_value)
        default = np.array(default)
        material_maes.append(float(np.abs(specific[valid] - truth[valid]).mean()))
        default_maes.append(float(np.abs(default - truth[valid]).mean()))
    assert commits >= 10, f"only {commits}/20 episodes committed correctly"
    med_material = float(np.median(material_maes))
    med_default = float(np.median(default_maes))
    assert med_material <= med_default, (
        f"material model MAE {med_material:.5f} exceeds default "
        f"{med_default:.5f} on post-switch steps")
    record(7, f"post-switch force MAE {med_material:.5f} <= default "
              f"{med_default:.5f} (median over {commits} committing episodes); "
              f"switch latching on all logs")


def test_criterion_8_active_inference(classifier, likelihoods):
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(200):
        p = inference.Posterior(rng.dirichlet(np.ones(5)))
        C = rng.uniform(0.01, 1.0, (5, 5))
        C /= C.sum(axis=1, keepdims=True)
        L = inference.MotionLikelihoodModel({"probe": C})
        ours = inference.expected_information_gain(p, "probe", L)
        ref = oracles.eig_enumeration(p.probs, C)
        worst = max(worst, abs(ours - ref))
    assert worst <= 1e-12, f"EIG deviates from enumeration by {worst:.2e}"

    table = material_table()
    eig_counts, random_counts = [], []
    for s in range(50):
        a = inference.run_active_loop(table["rice"], classifier, likelihoods,
                                      0.95, 12, seed=3000 + s, selector="eig")
        b = inference.run_active_loop(table["rice"], classifier, likelihoods,
                                      0.95, 12, seed=3000 + s,
                                      selector="random")
        eig_counts.append(a.segments_used)
        random_counts.append(b.segments_used)
    med_eig = float(np.median(eig_counts))
    med_random = float(np.median(random_counts))
    assert med_eig <= med_random, (
        f"EIG median {med_eig} segments vs random {med_random}")
    record(8, f"EIG matches enumeration within {worst:.1e}; median "
              f"segments-to-0.95 confidence {med_eig} (EIG) <= "
              f"{med_random} (random) over 50 matched seeds")


def test_criterion_9_invariant_suites(manifest):
    cases = {"posterior": 0, "tactile": 0, "slip": 0, "splits": 0}

    def one_frame(grid):
        return tactile.features_from_arrays(grid[None], np.zeros((1, 16)))[0]

    def nonzero_stats(grid):
        return tuple(one_frame(grid)[0:2])

    def center_of_mass(grid):
        return tuple(one_frame(grid)[2:4])

    @settings(max_examples=120)
    @given(weights=st.lists(st.floats(1e-3, 1e3), min_size=5, max_size=5),
           rows=st.lists(st.floats(1e-3, 1.0), min_size=25, max_size=25),
           obs=st.integers(0, 4))
    def posterior_suite(weights, rows, obs):
        cases["posterior"] += 1
        prior = np.asarray(weights) / np.sum(weights)
        C = np.asarray(rows).reshape(5, 5)
        C /= C.sum(axis=1, keepdims=True)
        L = inference.MotionLikelihoodModel({"m": C})
        post = inference.update_posterior(inference.Posterior(prior), "m",
                                          obs, L)
        assert np.all(post.probs >= 0.0)
        assert abs(float(post.probs.sum()) - 1.0) <= 1e-9

    # cells are exactly zero or in the physical pressure range: a subnormal
    # cell times gain < 1 underflows to 0.0 and flips the nonzero set
    cell = st.one_of(st.just(0.0), st.floats(1e-6, 50.0))

    @settings(max_examples=120)
    @given(values=st.lists(cell, min_size=256, max_size=256),
           gain=st.floats(0.01, 100.0),
           perm_seed=st.integers(0, 2 ** 31 - 1))
    def tactile_suite(values, gain, perm_seed):
        cases["tactile"] += 1
        grid = np.asarray(values).reshape(16, 16)
        mean_nz, max_nz = nonzero_stats(grid)
        com = center_of_mass(grid)
        s_mean, s_max = nonzero_stats(grid * gain)
        s_com = center_of_mass(grid * gain)
        assert abs(s_mean - mean_nz * gain) <= 1e-9 * max(1.0, mean_nz * gain)
        assert abs(s_max - max_nz * gain) <= 1e-9 * max(1.0, max_nz * gain)
        assert abs(s_com[0] - com[0]) <= 1e-9
        assert abs(s_com[1] - com[1]) <= 1e-9
        # permuting the zero cells among themselves changes nothing
        flat = grid.ravel().copy()
        zeros = np.flatnonzero(flat == 0.0)
        perm = np.random.default_rng(perm_seed).permutation(len(zeros))
        flat[zeros] = flat[zeros[perm]]
        shuffled = flat.reshape(16, 16)
        assert nonzero_stats(shuffled) == (mean_nz, max_nz)
        assert center_of_mass(shuffled) == com

    @settings(max_examples=120)
    @given(seed=st.integers(0, 2 ** 31 - 1),
           lo=st.floats(1e-4, 0.05), hi=st.floats(1e-4, 0.05),
           horizon=st.integers(1, 8))
    def slip_suite(seed, lo, hi, horizon):
        cases["slip"] += 1
        t_lo, t_hi = min(lo, hi), max(lo, hi)
        rng = np.random.default_rng(seed)
        history = np.cumsum(rng.normal(0.0, 0.01, (30, 4)), axis=0)
        loose = tactile.label_slip(history, t_lo, horizon)
        strict = tactile.label_slip(history, t_hi, horizon)
        assert np.all(loose[strict]), "higher threshold must label a subset"
        ref = oracles.loop_label_slip(history, t_lo, horizon)
        assert np.array_equal(loose, ref)

    @settings(max_examples=120)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def split_suite(seed):
        cases["splits"] += 1
        split = ds.build_splits(manifest, seed=seed).splits
        train = set(split["train"])
        val = set(split["val"])
        test = set(split["test"])
        assert not (train & val) and not (train & test) and not (val & test)
        assert train | val | test == {e.trial_id for e in manifest.trials}

    posterior_suite()
    tactile_suite()
    slip_suite()
    split_suite()
    assert all(n >= 100 for n in cases.values()), cases
    record(9, "property suites (posterior normalization, tactile "
              "scaling/permutation, slip-label monotonicity, split leakage) "
              f"each ran >= 100 cases: {cases}")
