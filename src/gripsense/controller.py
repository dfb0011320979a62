"""Reactive grip control.

A fixed-rate loop holds a container at a base grip torque, raises the
torque while the predictor expects slip, relaxes it back after a stable
stretch, stiffens when a large contact force is predicted, and, once the
audio classifier commits to a material, latches the material-specific
predictor for the rest of the episode.

An episode is one simulator trial (`simulation.run_trial`) driven by the
policy; its `EpisodeLog` keeps that `TrialRecord` and adds the
controller's per-step command, predictions and active model.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import dsp, tactile
from .materials import MaterialParams
from .models.classifier import MaterialClassifier, classify
from .models.predictor import FeatureWindow, Prediction, predict
from .models.registry import ModelRegistry, select_model
from .motion import SIM_DT, MotionProfile
from .simulation import TrialRecord, quantize_pcm16, run_trial

ONLINE_HOP_S = 0.25  # classifier cadence during an episode


@dataclass(frozen=True)
class ControllerConfig:
    base_torque: float = 0.4           # Nm
    max_torque: float = 1.0            # Nm
    slip_threshold_prob: float = 0.5
    torque_step_up: float = 0.1        # Nm per decision
    relax_step: float = 0.02           # Nm per decision
    stable_steps_before_relax: int = 20
    force_stiffen_threshold: float = 0.30  # N, predicted max cell force
    classifier_commit_confidence: float = 0.8

    def __post_init__(self):
        if not self.base_torque < self.max_torque:
            raise ValueError("base_torque must be below max_torque")
        if self.stable_steps_before_relax <= 0:
            raise ValueError("stable window must be positive")


CONFIG = ControllerConfig()  # the settings the reactive policy runs with


@dataclass
class GripState:
    applied_torque: float
    stiffness_scale: float = 1.0
    active_material: str | None = None
    consecutive_stable: int = 0
    event_log: list[tuple[float, str]] = field(default_factory=list)


def grip_update(state: GripState, pred: Prediction, t: float,
                cfg: ControllerConfig = CONFIG) -> None:
    """One reactive decision from a prediction, taken at time t: updates
    state's command and logs its events at t."""
    torque = state.applied_torque
    if pred.slip_prob > cfg.slip_threshold_prob:
        new = min(torque + cfg.torque_step_up, cfg.max_torque)
        if new != torque:
            state.event_log.append((t, "torque_up"))
        torque = new
        state.consecutive_stable = 0
    else:
        state.consecutive_stable += 1
        if state.consecutive_stable > cfg.stable_steps_before_relax \
                and torque > cfg.base_torque:
            torque = max(torque - cfg.relax_step, cfg.base_torque)
            state.event_log.append((t, "relax"))
    stiffness = 2.0 if pred.force_value > cfg.force_stiffen_threshold else 1.0
    if stiffness != state.stiffness_scale:
        state.event_log.append(
            (t, "stiffen_on" if stiffness > 1.0 else "stiffen_off"))
    state.applied_torque = torque
    state.stiffness_scale = stiffness


@dataclass
class EpisodeLog:
    """One episode: the simulator record it ran on plus, per step, what the
    controller commanded and predicted before that step."""

    record: TrialRecord
    torque_cmd: np.ndarray
    stiffness: np.ndarray
    slip_prob: np.ndarray       # nan before the first full feature window
    pred_force: np.ndarray      # nan before the first full feature window
    active_material: list[str]  # "default" until the classifier commits
    switch_time_s: float | None = None
    events: list[tuple[float, str]] = field(default_factory=list)

    @property
    def mean_torque(self) -> float:
        return float(np.mean(self.torque_cmd))

    @property
    def dropped_any(self) -> bool:
        return bool(self.record.dropped.any())


class _ReactivePolicy:
    """Stateful per-step policy fed to the simulator trial loop.

    Reads the trial's history (the newest feature frame, the last second of
    audio at classifier hops, on the PCM16 grid), predicts, updates the
    grip, records step i's command and prediction at index i, and emits the
    command.
    """

    def __init__(self, classifier: MaterialClassifier, registry: ModelRegistry,
                 motion_kind: str, n_steps: int):
        self.classifier = classifier
        self.registry = registry
        self.motion_kind = motion_kind
        self.cfg = CONFIG  # read once, so every decision of the episode shares it
        self.state = GripState(applied_torque=self.cfg.base_torque)
        self.model = select_model(registry, motion_kind)
        self.hop_steps = round(ONLINE_HOP_S / SIM_DT)
        self.window = FeatureWindow(self.model.cfg.window,
                                    self.model.cfg.input_dim)
        self.torque_cmd = np.empty(n_steps)
        self.stiffness = np.empty(n_steps)
        self.slip_prob = np.full(n_steps, np.nan)
        self.pred_force = np.full(n_steps, np.nan)
        self.active_material = ["default"] * n_steps
        self.switch_time_s: float | None = None

    def _maybe_classify(self, i: int, audio: np.ndarray) -> None:
        if self.state.active_material is not None:
            return
        if i % self.hop_steps != 0 or audio.size < dsp.SEGMENT_SAMPLES:
            return
        t = i * SIM_DT
        # the PCM16 grid of the trial record, which training reads back
        second = quantize_pcm16(audio.reshape(-1)[-dsp.SEGMENT_SAMPLES:])
        probs = classify(self.classifier, dsp.mfcc(second))
        best = int(np.argmax(probs))
        if probs[best] >= self.cfg.classifier_commit_confidence:
            name = self.classifier.cfg.classes[best]
            self.state.active_material = name
            self.model = select_model(self.registry, self.motion_kind, name)
            self.state.event_log.append((t, f"switch:{name}"))
            self.switch_time_s = t

    def __call__(self, history):
        i = len(history["t"])
        if i:
            self.window.push(tactile.features_from_arrays(
                history["tactile"][-2:], history["joint_angles"][-2:])[-1])
            self._maybe_classify(i, history["audio"])
            if self.window.full:
                pred = predict(self.model, self.window)
                grip_update(self.state, pred, i * SIM_DT, self.cfg)
                self.slip_prob[i] = pred.slip_prob
                self.pred_force[i] = pred.force_value
        self.active_material[i] = self.state.active_material or "default"
        self.torque_cmd[i] = self.state.applied_torque
        self.stiffness[i] = self.state.stiffness_scale
        return self.state.applied_torque, self.state.stiffness_scale


def run_reactive_loop(material: MaterialParams, motion: MotionProfile,
                      classifier: MaterialClassifier, registry: ModelRegistry,
                      seed: int) -> EpisodeLog:
    """Closed-loop episode; deterministic for a given seed."""
    policy = _ReactivePolicy(classifier, registry, motion.kind, motion.n_steps)
    record = run_trial(material, motion, policy, seed, trial_id=f"episode-{seed}")
    return EpisodeLog(record, policy.torque_cmd, policy.stiffness,
                      policy.slip_prob, policy.pred_force,
                      policy.active_material, policy.switch_time_s,
                      policy.state.event_log)


def run_baseline_episode(material: MaterialParams, motion: MotionProfile,
                         torque: float, seed: int) -> EpisodeLog:
    """Constant-torque episode in the same log format (no predictions)."""
    record = run_trial(material, motion, torque, seed, trial_id=f"baseline-{seed}")
    n = record.n_steps
    return EpisodeLog(record, np.full(n, float(torque)), np.ones(n),
                      np.full(n, np.nan), np.full(n, np.nan), ["default"] * n)


EPISODE_COLUMNS = ("t", "torque_cmd", "stiffness", "slip_prob", "pred_force",
                   "true_slip", "true_max_force", "active_material", "dropped")


def write_episode_csv(log: EpisodeLog, path) -> None:
    rec = log.record
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(EPISODE_COLUMNS)
        for i in range(rec.n_steps):
            w.writerow([
                repr(float(rec.t[i])), repr(float(log.torque_cmd[i])),
                repr(float(log.stiffness[i])), repr(float(log.slip_prob[i])),
                repr(float(log.pred_force[i])), int(rec.true_slip[i]),
                repr(float(rec.true_max_force[i])), log.active_material[i],
                int(rec.dropped[i]),
            ])
