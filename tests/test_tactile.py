import numpy as np
import pytest

import oracles
from gripsense import tactile
from gripsense.materials import material_table
from gripsense.motion import SIM_DT, shaking_profile
from gripsense.simulation import run_trial


def grid_with(values: dict[tuple[int, int], float]) -> np.ndarray:
    g = np.zeros((16, 16))
    for (r, c), v in values.items():
        g[r, c] = v
    return g


def frame_features(grid: np.ndarray) -> np.ndarray:
    """Feature row of a one-frame call; columns 0-1 are the non-zero stats,
    2-3 the center of mass."""
    return tactile.features_from_arrays(grid[None], np.zeros((1, 16)))[0]


class TestGridStats:
    def test_nonzero_stats_examples(self):
        g = grid_with({(0, 0): 2.0, (3, 7): 4.0})
        assert tuple(frame_features(g)[:2]) == (3.0, 4.0)
        assert tuple(frame_features(np.zeros((16, 16)))[:2]) == (0.0, 0.0)
        assert tuple(frame_features(np.full((16, 16), 5.0))[:2]) == (5.0, 5.0)

    def test_nonzero_stats_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = rng.uniform(0, 3, (16, 16)) * (rng.random((16, 16)) < 0.3)
            want = oracles.loop_nonzero_stats(g)
            got = tuple(frame_features(g)[:2])
            assert got == pytest.approx(want, rel=1e-12)

    def test_center_of_mass_examples(self):
        assert tuple(frame_features(grid_with({(5, 5): 1.0}))[2:4]) == (5.0, 5.0)
        g = grid_with({(2, 4): 1.0, (6, 4): 1.0})
        assert tuple(frame_features(g)[2:4]) == (4.0, 4.0)
        assert tuple(frame_features(np.zeros((16, 16)))[2:4]) == tactile.GRID_CENTER

    def test_center_of_mass_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            g = rng.uniform(0, 3, (16, 16))
            want = oracles.loop_center_of_mass(g)
            got = tuple(frame_features(g)[2:4])
            assert got == pytest.approx(want, abs=1e-12)

    def test_com_gradient(self):
        grids = np.stack([grid_with({(1, 2): 1.0}), grid_with({(2, 0): 1.0})])
        feats = tactile.features_from_arrays(grids, np.zeros((2, 16)))
        # one row down and two columns left in one SIM_DT step
        assert tuple(feats[1, 4:6]) == (1.0 / SIM_DT, -2.0 / SIM_DT)


class TestSlipLabels:
    def test_examples(self):
        hist = np.zeros((10, 4))
        hist[6:, 2] = 0.05
        labels = tactile.label_slip(hist, 0.02, 5)
        assert not labels[:6].any()
        # steps 6..9 see a 0.05 rad move of joint 2 within the lookback
        assert labels[6:].all()

    def test_lookback_start_is_never_labeled(self):
        hist = np.cumsum(np.full((12, 3), 0.5), axis=0)
        labels = tactile.label_slip(hist, 0.01, 4)
        assert not labels[:4].any()
        assert labels[4:].all()

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        hist = np.cumsum(rng.normal(0, 0.01, (40, 16)), axis=0)
        got = tactile.label_slip(hist, 0.015, 5)
        assert np.array_equal(got, oracles.loop_label_slip(hist, 0.015, 5))

    def test_one_dimensional_history(self):
        hist = np.concatenate([np.zeros(6), np.full(6, 0.1)])
        labels = tactile.label_slip(hist, 0.05, 3)
        assert labels[6]

    def test_validation(self):
        with pytest.raises(ValueError):
            tactile.label_slip(np.zeros((10, 2)), 0.02, 0)
        with pytest.raises(ValueError):
            tactile.label_slip(np.zeros((4, 2)), 0.02, 5)

    def test_calibrated_threshold_recovers_sim_slip(self):
        table = material_table()
        hists, truths = [], []
        for seed in range(4):
            rec = run_trial(table["rice"], shaking_profile(3, 19.0, 2.0),
                            0.4, seed)
            hists.append(rec.joint_angles)
            truths.append(rec.true_slip)
        thr = oracles.calibrate_slip_threshold(hists, truths,
                                               tactile.SLIP_HORIZON_STEPS)
        preds = np.concatenate([tactile.label_slip(h, thr) for h in hists])
        truth = np.concatenate(truths)
        tp = np.sum(preds & truth)
        f1 = 2 * tp / max(2 * tp + np.sum(preds ^ truth), 1)
        assert f1 > 0.8


class TestFeatures:
    def make_frames(self, n=8, seed=0):
        """(grids (n, 16, 16), joint angles (n, 16)) of a random stream."""
        rng = np.random.default_rng(seed)
        grids = rng.uniform(0, 2, (n, 16, 16)) * (rng.random((n, 16, 16)) < 0.4)
        return grids, rng.uniform(0, 1.5, (n, 16))

    def test_feature_vector_layout(self):
        grids, angles = self.make_frames(3)
        arr = tactile.features_from_arrays(grids, angles)[1]
        assert arr.shape == (tactile.FEATURE_DIM,)
        assert tuple(arr[:2]) == pytest.approx(
            oracles.loop_nonzero_stats(grids[1]), rel=1e-12)
        assert tuple(arr[2:4]) == pytest.approx(
            oracles.loop_center_of_mass(grids[1]), abs=1e-12)
        assert np.array_equal(arr[6:22], angles[1])
        assert np.allclose(arr[22:], (angles[1] - angles[0]) / SIM_DT)

    def test_first_frame_gradients_are_zero(self):
        grids, angles = self.make_frames(2)
        first = tactile.features_from_arrays(grids, angles)[0]
        assert not first[4:6].any()
        assert not first[22:].any()

    @pytest.mark.parametrize("blocks", [
        [1] * 40,
        # the trial loop's render schedule, ending in a partial block
        [1, 2, 4, 8, 16, 32, 64, 100, 100, 37],
    ], ids=["frame_at_a_time", "render_blocks"])
    def test_window_matrix_equals_stacked_vectors(self, blocks):
        # rows built a block at a time, each block's call also holding the
        # frame before it, as the controller does, are bit-identical to the
        # rows of one call over the whole stream
        grids, angles = self.make_frames(sum(blocks), seed=5)
        full = tactile.features_from_arrays(grids, angles)
        parts, start = [], 0
        for k in blocks:
            lo = max(start - 1, 0)
            parts.append(tactile.features_from_arrays(
                grids[lo:start + k], angles[lo:start + k])[start - lo:])
            start += k
        assert np.array_equal(np.concatenate(parts), full)

    def test_vectorized_path_matches_object_path(self):
        grids, angles = self.make_frames(12, seed=7)
        fast = tactile.features_from_arrays(grids, angles)
        slow = oracles.loop_features(grids, angles, SIM_DT)
        assert np.allclose(fast, slow, atol=1e-12)

    @pytest.mark.parametrize("grid_shape,angle_shape", [
        ((3, 256), (3, 16)),
        ((3, 16, 16), (2, 16)),
        ((3, 16, 16), (3, 15)),
        ((3, 16, 16), (3,)),
    ])
    def test_shape_validation_names_both_shapes(self, grid_shape, angle_shape):
        with pytest.raises(ValueError) as err:
            tactile.features_from_arrays(np.ones(grid_shape), np.zeros(angle_shape))
        assert str(grid_shape) in str(err.value)
        assert str(angle_shape) in str(err.value)
