"""Bayesian material identification and information-driven motion selection.

The audio classifier's argmax outputs, summarized per motion by a held-out
confusion matrix, serve as the observation model. A posterior over the
material classes is updated per segment, and the next exploratory motion
is the one with the highest expected information gain.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field

import numpy as np

from . import dsp
from .dataset import COLLECTION_TORQUE, MOTIONS, sample_trial_profile
from .materials import MATERIAL_CLASSES, MaterialParams
from .models.classifier import MaterialClassifier, classify
from .models.metrics import confusion_matrix
from .simulation import run_trial

log = logging.getLogger(__name__)

DEGENERACY_EPS = 1e-12


@dataclass(frozen=True)
class Posterior:
    probs: np.ndarray  # length-5, ordered as MATERIAL_CLASSES

    def __post_init__(self):
        p = self.probs
        if np.any(p < 0) or abs(float(p.sum()) - 1.0) > 1e-9:
            raise ValueError("posterior must be non-negative and sum to 1")


def uniform_posterior() -> Posterior:
    n = len(MATERIAL_CLASSES)
    return Posterior(np.full(n, 1.0 / n))


@dataclass(frozen=True)
class MotionLikelihoodModel:
    """Per-motion row-stochastic confusion matrices C[true][predicted]."""

    confusions: dict[str, np.ndarray]

    def __post_init__(self):
        for motion, C in self.confusions.items():
            if np.any(C < 0) or np.any(np.abs(C.sum(axis=1) - 1.0) > 1e-9):
                raise ValueError(f"confusion matrix for {motion!r} is not "
                                 "row-stochastic")


def estimate_confusions(observations: list[tuple[str, int, int]]) -> MotionLikelihoodModel:
    """Laplace-smoothed confusion matrices over MATERIAL_CLASSES from
    (motion, true, predicted) index triples collected on held-out segments."""
    pairs: dict[str, list[tuple[int, int]]] = {}
    for motion, true_idx, pred_idx in observations:
        pairs.setdefault(motion, []).append((true_idx, pred_idx))
    confusions = {}
    for motion, motion_pairs in pairs.items():
        truth, pred = zip(*motion_pairs)
        c = confusion_matrix(pred, truth, len(MATERIAL_CLASSES)) + 1.0
        confusions[motion] = c / c.sum(axis=1, keepdims=True)
    return MotionLikelihoodModel(confusions)


def confusions_from_segments(model: MaterialClassifier, items,
                             motions) -> MotionLikelihoodModel:
    """Confusion matrices from labeled held-out MFCC segments.

    items are (frames, label) pairs and motions the motion kind each was
    recorded under; the predicted class is the argmax of one batched
    classifier forward pass over all items.
    """
    index = {c: i for i, c in enumerate(model.cfg.classes)}
    probs, _ = model.forward(np.stack([frames for frames, _ in items]))
    obs = [(motion, index[label], int(pred)) for (_, label), motion, pred
           in zip(items, motions, probs.argmax(axis=1))]
    return estimate_confusions(obs)


def entropy_bits(probs: np.ndarray) -> float:
    p = np.asarray(probs, dtype=float)
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def update_posterior(p: Posterior, motion: str, predicted_class: int,
                     L: MotionLikelihoodModel) -> Posterior:
    """Bayes step through the motion's confusion column; a numerically
    degenerate update (normalizer below 1e-12) leaves the posterior as is."""
    C = L.confusions[motion]
    if not 0 <= predicted_class < C.shape[1]:
        raise ValueError(f"predicted class index {predicted_class} out of range")
    unnorm = p.probs * C[:, predicted_class]
    z = float(unnorm.sum())
    if z < DEGENERACY_EPS:
        log.warning("degenerate posterior update (normalizer %.3e); keeping prior", z)
        return p
    return Posterior(unnorm / z)


def expected_information_gain(p: Posterior, motion: str,
                              L: MotionLikelihoodModel) -> float:
    """Mutual information (bits) between material and the motion's predicted
    class: sum_i sum_o p_i C[i,o] log2(C[i,o] / P(o))."""
    C = L.confusions[motion]
    probs = p.probs
    p_obs = probs @ C
    total = 0.0
    for i in range(C.shape[0]):
        if probs[i] <= 0:
            continue
        for o in range(C.shape[1]):
            if C[i, o] <= 0 or p_obs[o] <= 0:
                continue
            total += probs[i] * C[i, o] * np.log2(C[i, o] / p_obs[o])
    return float(total)


def _motion_order(m: str) -> tuple:
    """Sort key: dataset.MOTIONS order first, unknown motions after by name."""
    return (MOTIONS.index(m) if m in MOTIONS else len(MOTIONS), m)


def select_motion(p: Posterior, motions: list[str],
                  L: MotionLikelihoodModel) -> str:
    """Highest-EIG motion; exact ties fall back to the canonical order."""
    if not motions:
        raise ValueError("no motions to select from")
    best, best_eig = None, -np.inf
    for m in sorted(motions, key=_motion_order):
        eig = expected_information_gain(p, m, L)
        if eig > best_eig:
            best, best_eig = m, eig
    return best


@dataclass
class ActiveLog:
    true_material: str
    selector: str
    seed: int
    confidence_target: float
    motions: list[str] = field(default_factory=list)
    predicted: list[str] = field(default_factory=list)
    posteriors: list[np.ndarray] = field(default_factory=list)
    entropies: list[float] = field(default_factory=list)
    segments_used: int = 0
    reached_confidence: bool = False


def run_active_loop(material: MaterialParams, classifier: MaterialClassifier,
                    L: MotionLikelihoodModel, confidence_target: float,
                    max_segments: int, seed: int, selector: str = "eig") -> ActiveLog:
    """Explore with motions until the posterior commits or the budget runs out.

    selector "eig" picks motions by expected information gain; "random"
    draws uniformly (the acceptance baseline).
    """
    if not 0.2 < confidence_target < 1.0:
        raise ValueError("confidence_target must lie in (0.2, 1)")
    if selector not in ("eig", "random"):
        raise ValueError(f"unknown selector {selector!r}")
    motions = sorted(L.confusions, key=_motion_order)
    rng = np.random.default_rng(seed)
    p = uniform_posterior()
    out = ActiveLog(material.name, selector, seed, confidence_target)
    while out.segments_used < max_segments and \
            float(p.probs.max()) < confidence_target:
        if selector == "eig":
            motion_kind = select_motion(p, motions, L)
        else:
            motion_kind = motions[int(rng.integers(len(motions)))]
        profile = sample_trial_profile(motion_kind, rng)
        trial_seed = int(rng.integers(2 ** 31))
        record = run_trial(material, profile, COLLECTION_TORQUE, trial_seed)
        for seg in dsp.segment(record.audio):
            if out.segments_used >= max_segments or \
                    float(p.probs.max()) >= confidence_target:
                break
            probs = classify(classifier, dsp.mfcc(seg))
            pred_idx = int(np.argmax(probs))
            p = update_posterior(p, motion_kind, pred_idx, L)
            out.segments_used += 1
            out.motions.append(motion_kind)
            out.predicted.append(classifier.cfg.classes[pred_idx])
            out.posteriors.append(p.probs.copy())
            out.entropies.append(entropy_bits(p.probs))
    out.reached_confidence = float(p.probs.max()) >= confidence_target
    return out


def write_active_csv(log_: ActiveLog, path) -> None:
    header = ["segment", "motion", "predicted"] \
        + [f"p_{c}" for c in MATERIAL_CLASSES] + ["entropy"]
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for i in range(log_.segments_used):
            w.writerow([i + 1, log_.motions[i], log_.predicted[i]]
                       + [repr(float(v)) for v in log_.posteriors[i]]
                       + [repr(float(log_.entropies[i]))])
