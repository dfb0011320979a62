import logging

import numpy as np
import pytest

import oracles
from gripsense import inference
from gripsense.materials import material_table
from gripsense.models.classifier import classify

TABLE = material_table()


def stochastic(rows):
    C = np.asarray(rows, dtype=float)
    return C / C.sum(axis=1, keepdims=True)


def model(C, motion="shaking"):
    return inference.MotionLikelihoodModel({motion: np.asarray(C, dtype=float)})


UNIFORM_C = np.full((5, 5), 0.2)
SHARP_C = stochastic(np.eye(5) * 0.8 + 0.05)


class TestPosterior:
    def test_validation(self):
        with pytest.raises(ValueError):
            inference.Posterior(np.array([0.5, 0.6, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            inference.Posterior(np.array([0.5, 0.6, -0.1, 0.0, 0.0]))

    def test_uninformative_likelihood_keeps_prior(self):
        p = inference.uniform_posterior()
        q = inference.update_posterior(p, "shaking", 2, model(UNIFORM_C))
        assert np.max(np.abs(q.probs - p.probs)) <= 1e-12

    def test_certainty_is_absorbing(self):
        p = inference.Posterior(np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
        q = inference.update_posterior(p, "shaking", 3, model(SHARP_C))
        assert np.array_equal(q.probs, p.probs)

    def test_hand_bayes_example(self):
        C = stochastic([
            [0.9, 0.025, 0.025, 0.025, 0.025],
            [0.1, 0.225, 0.225, 0.225, 0.225],
            [0.2, 0.2, 0.2, 0.2, 0.2],
            [0.2, 0.2, 0.2, 0.2, 0.2],
            [0.2, 0.2, 0.2, 0.2, 0.2],
        ])
        p = inference.Posterior(np.array([0.5, 0.5, 0.0, 0.0, 0.0]))
        q = inference.update_posterior(p, "shaking", 0, model(C))
        assert np.allclose(q.probs, [0.9, 0.1, 0.0, 0.0, 0.0], atol=1e-12)

    def test_degenerate_update_keeps_prior_and_logs(self, caplog):
        C = stochastic([
            [0.0, 0.25, 0.25, 0.25, 0.25],
            [0.2, 0.2, 0.2, 0.2, 0.2],
            [0.2, 0.2, 0.2, 0.2, 0.2],
            [0.2, 0.2, 0.2, 0.2, 0.2],
            [0.2, 0.2, 0.2, 0.2, 0.2],
        ])
        p = inference.Posterior(np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
        with caplog.at_level(logging.WARNING, logger="gripsense.inference"):
            q = inference.update_posterior(p, "shaking", 0, model(C))
        assert q is p
        assert any("degenerate" in r.message for r in caplog.records)

    def test_invalid_class_index(self):
        with pytest.raises(ValueError):
            inference.update_posterior(inference.uniform_posterior(),
                                       "shaking", 7, model(UNIFORM_C))

    def test_updates_commute(self):
        rng = np.random.default_rng(4)
        L = inference.MotionLikelihoodModel({
            "shaking": stochastic(rng.uniform(0.01, 1.0, (5, 5))),
            "rotation": stochastic(rng.uniform(0.01, 1.0, (5, 5))),
        })
        p = inference.Posterior(rng.dirichlet(np.ones(5)))
        ab = inference.update_posterior(
            inference.update_posterior(p, "shaking", 1, L), "rotation", 3, L)
        ba = inference.update_posterior(
            inference.update_posterior(p, "rotation", 3, L), "shaking", 1, L)
        assert np.max(np.abs(ab.probs - ba.probs)) <= 1e-12

    def test_column_rescaling_cancels_in_normalizer(self):
        rng = np.random.default_rng(5)
        C = stochastic(rng.uniform(0.01, 1.0, (5, 5)))
        p = inference.Posterior(rng.dirichlet(np.ones(5)))
        got = inference.update_posterior(p, "shaking", 2, model(C))
        for scale in (1e-6, 0.5, 3.0, 1e6):
            manual = p.probs * (scale * C[:, 2])
            manual /= manual.sum()
            assert np.max(np.abs(manual - got.probs)) <= 1e-12
            assert int(np.argmax(manual)) == int(np.argmax(got.probs))


class TestEntropyAndEig:
    def test_entropy_known_values(self):
        assert inference.entropy_bits(np.full(5, 0.2)) == pytest.approx(
            np.log2(5), abs=1e-12)
        assert inference.entropy_bits(np.array([1.0, 0, 0, 0, 0])) == 0.0

    def test_entropy_matches_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            p = rng.dirichlet(np.ones(5))
            assert inference.entropy_bits(p) == pytest.approx(
                oracles.entropy_bits_direct(p), abs=1e-12)

    def test_eig_identity_is_full_entropy(self):
        p = inference.uniform_posterior()
        got = inference.expected_information_gain(p, "shaking", model(np.eye(5)))
        assert got == pytest.approx(np.log2(5), abs=1e-12)

    def test_eig_zero_for_identical_rows(self):
        p = inference.uniform_posterior()
        got = inference.expected_information_gain(p, "shaking",
                                                  model(UNIFORM_C))
        assert abs(got) <= 1e-12

    def test_eig_matches_enumeration(self):
        p = inference.uniform_posterior()
        got = inference.expected_information_gain(p, "shaking", model(SHARP_C))
        want = oracles.eig_enumeration(p.probs, SHARP_C)
        assert abs(got - want) <= 1e-12

    def test_eig_never_negative(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = inference.Posterior(rng.dirichlet(np.ones(5)))
            C = stochastic(rng.uniform(0.0, 1.0, (5, 5)) + 1e-9)
            got = inference.expected_information_gain(p, "m", model(C, "m"))
            assert got >= -1e-12


class TestSelectMotion:
    def test_single_motion(self):
        p = inference.uniform_posterior()
        L = inference.MotionLikelihoodModel({"rotation": SHARP_C})
        assert inference.select_motion(p, ["rotation"], L) == "rotation"

    def test_informative_motion_dominates(self):
        p = inference.uniform_posterior()
        L = inference.MotionLikelihoodModel({"shaking": UNIFORM_C,
                                             "rotation": np.eye(5)})
        assert inference.select_motion(p, ["shaking", "rotation"], L) == \
            "rotation"

    def test_tie_breaks_to_shaking(self):
        p = inference.uniform_posterior()
        L = inference.MotionLikelihoodModel({"shaking": SHARP_C,
                                             "rotation": SHARP_C.copy()})
        for order in (["shaking", "rotation"], ["rotation", "shaking"]):
            assert inference.select_motion(p, order, L) == "shaking"

    def test_empty_motion_set(self):
        with pytest.raises(ValueError):
            inference.select_motion(inference.uniform_posterior(), [],
                                    inference.MotionLikelihoodModel({}))


class TestEstimateConfusions:
    def test_laplace_smoothed_counts(self):
        L = inference.estimate_confusions([("shaking", 0, 0), ("shaking", 0, 1)])
        row = L.confusions["shaking"][0]
        assert np.allclose(row, [2 / 7, 2 / 7, 1 / 7, 1 / 7, 1 / 7])
        # unseen true classes smooth to uniform, so no outcome locks out
        assert np.allclose(L.confusions["shaking"][3], 0.2)

    def test_rows_stochastic(self):
        rng = np.random.default_rng(8)
        obs = [("rotation", int(rng.integers(5)), int(rng.integers(5)))
               for _ in range(100)]
        L = inference.estimate_confusions(obs)
        assert np.allclose(L.confusions["rotation"].sum(axis=1), 1.0)

    def test_from_segments_matches_per_item_classify(self, clf_bundle,
                                                      manifest):
        model, _, val_items, val_sources = clf_bundle
        motions = [manifest.entry(s).motion["kind"] for s in val_sources]
        index = {c: i for i, c in enumerate(model.cfg.classes)}
        obs = [(motion, index[label], int(np.argmax(classify(model, frames))))
               for (frames, label), motion in zip(val_items, motions)]
        want = inference.estimate_confusions(obs)
        got = inference.confusions_from_segments(model, val_items, motions)
        assert got.confusions.keys() == want.confusions.keys()
        for motion, C in want.confusions.items():
            assert np.array_equal(got.confusions[motion], C)


class TestActiveLoop:
    def test_low_target_stops_after_one_segment(self, classifier, likelihoods):
        log = inference.run_active_loop(TABLE["rice"], classifier, likelihoods,
                                        0.21, 10, seed=40)
        assert log.segments_used == 1
        assert log.reached_confidence

    def test_budget_exhaustion(self, classifier, likelihoods):
        log = inference.run_active_loop(TABLE["gummies"], classifier,
                                        likelihoods, 0.999999999, 2, seed=41)
        assert log.segments_used == 2
        assert not log.reached_confidence

    def test_deterministic_per_seed(self, classifier, likelihoods):
        a = inference.run_active_loop(TABLE["vitamins"], classifier,
                                      likelihoods, 0.95, 8, seed=42)
        b = inference.run_active_loop(TABLE["vitamins"], classifier,
                                      likelihoods, 0.95, 8, seed=42)
        assert a.motions == b.motions
        assert a.predicted == b.predicted
        assert a.segments_used == b.segments_used
        assert all(np.array_equal(x, y)
                   for x, y in zip(a.posteriors, b.posteriors))

    def test_trajectory_normalized(self, classifier, likelihoods):
        log = inference.run_active_loop(TABLE["cereal"], classifier,
                                        likelihoods, 0.95, 8, seed=43)
        for probs in log.posteriors:
            assert abs(float(probs.sum()) - 1.0) <= 1e-9
            assert np.all(probs >= 0)

    def test_validation(self, classifier, likelihoods):
        with pytest.raises(ValueError):
            inference.run_active_loop(TABLE["rice"], classifier, likelihoods,
                                      0.1, 5, seed=0)
        with pytest.raises(ValueError):
            inference.run_active_loop(TABLE["rice"], classifier, likelihoods,
                                      0.95, 5, seed=0, selector="greedy")

    def test_csv_layout(self, tmp_path, classifier, likelihoods):
        log = inference.run_active_loop(TABLE["rice"], classifier, likelihoods,
                                        0.95, 6, seed=44)
        path = tmp_path / "active.csv"
        inference.write_active_csv(log, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("segment,motion,predicted,p_rice,p_cereal,"
                            "p_gummies,p_vitamins,p_empty,entropy")
        assert len(lines) == 1 + log.segments_used
        last = lines[-1].split(",")
        assert np.allclose([float(v) for v in last[3:8]], log.posteriors[-1])
        assert float(last[8]) == log.entropies[-1]
