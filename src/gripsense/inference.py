"""Bayesian material identification and information-driven motion selection.

The audio classifier's argmax outputs, summarized per motion by a held-out
confusion matrix, serve as the observation model. `train` scores the
validation split once (`models.classifier.classify_items`) and
`estimate_confusions` counts those predictions per motion. A posterior
over the material classes is updated per segment, and the next
exploratory motion is the one with the highest expected information gain.
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
from .simulation import AUDIO_AND_FLAGS, CHUNK, trial_blocks

log = logging.getLogger(__name__)

DEGENERACY_EPS = 1e-12
CONFUSION_PSEUDO_COUNT = 1.0  # added to each cell of a confusion count
# how run_active_loop may pick its motions
SELECTORS = ("eig", "random")
# the open interval a confidence target lies in: the uniform prior already
# meets 1 / 5, and smoothed confusions never give a posterior of 1
CONFIDENCE_BOUNDS = (1.0 / len(MATERIAL_CLASSES), 1.0)
# simulator steps that render one classifier segment
SEGMENT_STEPS = dsp.SEGMENT_SAMPLES // CHUNK


@dataclass(frozen=True)
class Posterior:
    probs: np.ndarray  # length-5, ordered as MATERIAL_CLASSES

    def __post_init__(self):
        p = self.probs
        if not (np.all(p >= 0) and abs(float(p.sum()) - 1.0) <= 1e-9):
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
            if not (np.all(C >= 0) and np.all(np.abs(C.sum(axis=1) - 1.0) <= 1e-9)):
                raise ValueError(f"confusion matrix for {motion!r} is not "
                                 "row-stochastic")


def estimate_confusions(pred, truth, motions) -> MotionLikelihoodModel:
    """Laplace-smoothed confusion matrices over MATERIAL_CLASSES, one per
    motion, from the predicted and true class indices of held-out segments
    and the motion each was recorded under."""
    pred, truth, kinds = np.asarray(pred), np.asarray(truth), np.asarray(motions)
    confusions = {}
    for motion in dict.fromkeys(motions):
        mine = kinds == motion
        c = confusion_matrix(pred[mine], truth[mine], len(MATERIAL_CLASSES)) \
            + CONFUSION_PSEUDO_COUNT
        confusions[motion] = c / c.sum(axis=1, keepdims=True)
    return MotionLikelihoodModel(confusions)


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
    p_obs = np.broadcast_to(p.probs @ C, C.shape)
    joint = p.probs[:, None] * C
    nz = joint > 0  # p_obs > 0 wherever the joint is
    return float((joint[nz] * np.log2(C[nz] / p_obs[nz])).sum())


def _in_motion_order(motions) -> list[str]:
    """`motions` sorted in dataset.MOTIONS order; any other name is refused."""
    unknown = sorted(set(motions) - set(MOTIONS))
    if unknown:
        raise ValueError(f"unknown motion(s) {unknown}: the rig performs "
                         f"only {list(MOTIONS)}")
    return sorted(motions, key=MOTIONS.index)


def select_motion(p: Posterior, motions: list[str],
                  L: MotionLikelihoodModel) -> str:
    """Highest-EIG motion; exact ties fall back to dataset.MOTIONS order."""
    if not motions:
        raise ValueError("no motions to select from")
    best, best_eig = None, -np.inf
    for m in _in_motion_order(motions):
        eig = expected_information_gain(p, m, L)
        if eig > best_eig:
            best, best_eig = m, eig
    return best


@dataclass
class ActiveLog:
    motions: list[str] = field(default_factory=list)
    predicted: list[str] = field(default_factory=list)
    posteriors: list[np.ndarray] = field(default_factory=list)
    reached_confidence: bool = False

    @property
    def segments_used(self) -> int:
        return len(self.motions)

    @property
    def entropies(self) -> list[float]:
        return [entropy_bits(p) for p in self.posteriors]


def _trial_segments(material: MaterialParams, profile, seed: int):
    """The whole one-second segments of a collection trial, in order, as
    views of its audio. Its blocks are pulled from `trial_blocks` only as
    far as the segment asked for, so a trial abandoned after s segments
    renders s * SEGMENT_STEPS steps; of each step it renders the audio
    and the flags, not the tactile grid or joint streams."""
    blocks = trial_blocks(material, profile, COLLECTION_TORQUE, seed,
                          streams=AUDIO_AND_FLAGS)
    rendered = 0
    for end in range(SEGMENT_STEPS, profile.n_steps + 1, SEGMENT_STEPS):
        while rendered < end:
            rows = next(blocks)
            rendered = len(rows["audio"])
        yield rows["audio"][end - SEGMENT_STEPS:end].reshape(-1)


def run_active_loop(material: MaterialParams, classifier: MaterialClassifier,
                    L: MotionLikelihoodModel, confidence_target: float,
                    max_segments: int, seed: int, selector: str = "eig") -> ActiveLog:
    """Explore with motions until the posterior commits or the budget runs out.

    selector "eig" picks motions by expected information gain; "random"
    draws uniformly (the acceptance baseline). Each motion runs as a
    fixed-grip collection trial whose whole seconds are classified in
    order. The trial is rendered one segment at a time and the stop is
    checked before each: rendering ends where the loop ends, and the
    segments used are those of the whole trial, since a trial's first
    seconds do not depend on how far it runs.
    """
    low, high = CONFIDENCE_BOUNDS
    if not low < confidence_target < high:
        raise ValueError(f"confidence_target must lie in ({low:g}, {high:g})")
    if selector not in SELECTORS:
        raise ValueError(f"unknown selector {selector!r}")
    motions = _in_motion_order(L.confusions)
    rng = np.random.default_rng(seed)
    p = uniform_posterior()
    out = ActiveLog()
    segments = iter(())
    while out.segments_used < max_segments and \
            float(p.probs.max()) < confidence_target:
        seg = next(segments, None)
        if seg is None:
            # this motion's trial is used up: pick the next motion
            if selector == "eig":
                motion_kind = select_motion(p, motions, L)
            else:
                motion_kind = motions[int(rng.integers(len(motions)))]
            profile = sample_trial_profile(motion_kind, rng)
            trial_seed = int(rng.integers(2 ** 31))
            segments = _trial_segments(material, profile, trial_seed)
            continue
        probs = classify(classifier, dsp.mfcc(seg))
        pred_idx = int(np.argmax(probs))
        p = update_posterior(p, motion_kind, pred_idx, L)
        out.motions.append(motion_kind)
        out.predicted.append(MATERIAL_CLASSES[pred_idx])
        out.posteriors.append(p.probs.copy())
    out.reached_confidence = float(p.probs.max()) >= confidence_target
    return out


def write_active_csv(log_: ActiveLog, path) -> None:
    header = ["segment", "motion", "predicted"] \
        + [f"p_{c}" for c in MATERIAL_CLASSES] + ["entropy"]
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for i, (motion, predicted, probs, entropy) in enumerate(
                zip(log_.motions, log_.predicted, log_.posteriors,
                    log_.entropies)):
            w.writerow([i + 1, motion, predicted]
                       + [repr(float(v)) for v in probs] + [repr(entropy)])
