"""Haptic features from tactile grids and joint streams, plus slip labeling.

The per-frame feature vector concatenates non-zero pressure statistics,
the pressure center of mass and its rate of change, and the joint angles
with their finite-difference velocities: 2 + 2 + 2 + 16 + 16 = 38 values.
"""

from __future__ import annotations

import numpy as np

from .motion import SIM_DT
from .simulation import GRID_COLS, GRID_ROWS, N_JOINTS

# the center of mass reported for an empty grid
GRID_CENTER = ((GRID_ROWS - 1) / 2.0, (GRID_COLS - 1) / 2.0)

# Slip labeling defaults: max joint excursion over a 25 ms lookback.
SLIP_THRESHOLD_RAD = 0.02
SLIP_HORIZON_STEPS = 5

FEATURE_DIM = 38


def label_slip(joint_history: np.ndarray, threshold: float = SLIP_THRESHOLD_RAD,
               horizon: int = SLIP_HORIZON_STEPS) -> np.ndarray:
    """Slip at step t iff any joint moved more than threshold since t - horizon.

    Steps with no full lookback (t < horizon) are labeled False.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    hist = np.asarray(joint_history, dtype=float)
    if hist.ndim == 1:
        hist = hist[:, None]
    if len(hist) <= horizon:
        raise ValueError("joint history shorter than the lookback horizon")
    out = np.zeros(len(hist), dtype=bool)
    diffs = np.abs(hist[horizon:] - hist[:-horizon]).max(axis=1)
    out[horizon:] = diffs > threshold
    return out


def features_from_arrays(grids: np.ndarray, joint_angles: np.ndarray) -> np.ndarray:
    """Per-frame haptic features of a frame stream: grids (T, rows, cols)
    and joint_angles (T, 16) give (T, 38).

    The one definition of the feature, used for training and for control.
    Row t depends only on frames t - 1 and t (gradients are zero on the
    first frame), and it is bit-identical however many frames the call
    holds: every reduction runs within a frame, never across frames.
    Frames are SIM_DT apart.
    """
    grids = np.asarray(grids)
    joint_angles = np.asarray(joint_angles)
    T = len(grids)
    if grids.ndim != 3 or joint_angles.shape != (T, N_JOINTS):
        raise ValueError(f"expected grids (T, rows, cols) and joint_angles "
                         f"(T, {N_JOINTS}) with the same T, got grids "
                         f"{grids.shape} and joint_angles {joint_angles.shape}")
    rows, cols = grids.shape[1], grids.shape[2]
    out = np.empty((T, FEATURE_DIM))
    flat = grids.reshape(T, rows * cols)
    mask = flat > 0
    sums = np.where(mask, flat, 0.0).sum(axis=1)
    # an empty frame sums to +0.0, so its mean is 0.0 without a where
    np.divide(sums, np.maximum(np.count_nonzero(mask, axis=1), 1), out=out[:, 0])
    np.maximum(flat.max(axis=1), 0.0, out=out[:, 1])

    total = flat.sum(axis=1)
    safe = np.maximum(total, 1e-300)
    # elementwise products and row sums: a matrix product here would round
    # differently depending on T
    row_moment = (grids.sum(axis=2) * np.arange(rows)).sum(axis=1)
    col_moment = (grids.sum(axis=1) * np.arange(cols)).sum(axis=1)
    com = out[:, 2:4]
    com[:, 0] = np.where(total > 0, row_moment / safe, GRID_CENTER[0])
    com[:, 1] = np.where(total > 0, col_moment / safe, GRID_CENTER[1])
    out[:, 6:6 + N_JOINTS] = joint_angles
    # rates of change: frame t minus frame t - 1 over SIM_DT, zero on frame 0
    out[:1, 4:6] = 0.0
    out[:1, 6 + N_JOINTS:] = 0.0
    np.divide(com[1:] - com[:-1], SIM_DT, out=out[1:, 4:6])
    np.divide(joint_angles[1:] - joint_angles[:-1], SIM_DT,
              out=out[1:, 6 + N_JOINTS:])
    return out
