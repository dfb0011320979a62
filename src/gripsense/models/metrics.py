"""Evaluation metrics for the classifier and the slip/force predictor."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Metrics:
    """A predictor's test figures; auc is None when the windows hold one
    slip class."""
    auc: float | None
    force_mae: float
    cell_distance: float  # mean Euclidean, grid cells


def accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    return float(np.mean(np.asarray(pred) == np.asarray(truth)))


def confusion_matrix(pred: np.ndarray, truth: np.ndarray, n_classes: int) -> np.ndarray:
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (np.asarray(truth), np.asarray(pred)), 1)
    return cm


def precision_recall(cm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    tp = np.diag(cm).astype(float)
    col = cm.sum(axis=0).astype(float)
    row = cm.sum(axis=1).astype(float)
    precision = np.divide(tp, col, out=np.zeros_like(tp), where=col > 0)
    recall = np.divide(tp, row, out=np.zeros_like(tp), where=row > 0)
    return precision, recall


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve via the rank statistic (ties get mid-ranks)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both positive and negative examples")
    # tied scores share the mean of the 1-based ranks they span
    _, inverse, counts = np.unique(scores, return_inverse=True,
                                   return_counts=True)
    ends = np.cumsum(counts)  # the rank of each run of ties' last score
    ranks = (0.5 * (2 * ends - counts + 1))[inverse]
    rank_sum = float(ranks[labels].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def mae(pred: np.ndarray, truth: np.ndarray) -> float:
    return float(np.mean(np.abs(np.asarray(pred) - np.asarray(truth))))


def mean_cell_distance(pred_cells: np.ndarray, true_cells: np.ndarray) -> float:
    d = np.asarray(pred_cells, dtype=float) - np.asarray(true_cells, dtype=float)
    return float(np.mean(np.sqrt((d ** 2).sum(axis=1))))
