"""Reactive grip control.

A fixed-rate loop holds a container at a base grip torque, raises the
torque while the predictor expects slip, relaxes it back after a stable
stretch, stiffens when a large contact force is predicted, and, once the
audio classifier commits to a material, latches the material-specific
predictor for the rest of the episode.
"""

from __future__ import annotations

import csv
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import dsp, tactile
from .materials import MaterialParams
from .models.classifier import MaterialClassifier, classify
from .models.predictor import Prediction, predict
from .models.registry import ModelRegistry, select_model
from .motion import SIM_DT, MotionProfile, rotation_profile, shaking_profile
from .simulation import DEFAULT_PARAMS, SimParams, run_trial

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


@dataclass
class GripState:
    applied_torque: float
    stiffness_scale: float = 1.0
    active_material: str | None = None
    consecutive_stable: int = 0
    event_log: list[tuple[float, str]] = field(default_factory=list)
    step_index: int = 0


@dataclass(frozen=True)
class GripCommand:
    torque: float
    stiffness_scale: float


def grip_update(state: GripState, pred: Prediction,
                cfg: ControllerConfig = ControllerConfig()) -> tuple[GripState, GripCommand]:
    """One reactive decision from a prediction; mutates and returns state."""
    t = state.step_index * SIM_DT
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
    state.step_index += 1
    return state, GripCommand(torque, stiffness)


@dataclass
class EpisodeLog:
    material: str
    motion: dict
    seed: int
    t: np.ndarray
    torque_cmd: np.ndarray
    stiffness: np.ndarray
    slip_prob: np.ndarray       # nan before the first full feature window
    pred_force: np.ndarray      # nan before the first full feature window
    true_slip: np.ndarray
    true_max_force: np.ndarray
    active_material: list[str]  # "default" until the classifier commits
    dropped: np.ndarray
    switch_time_s: float | None = None
    events: list[tuple[float, str]] = field(default_factory=list)
    # In-memory only (not part of the CSV contract): what the default
    # predictor would have said on the same windows, when requested.
    pred_force_default: np.ndarray | None = None

    @property
    def mean_torque(self) -> float:
        return float(np.mean(self.torque_cmd))

    @property
    def dropped_any(self) -> bool:
        return bool(self.dropped.any())


class _ReactivePolicy:
    """Stateful per-step policy fed to the simulator trial loop.

    Ingests the previous observation (features, audio, classifier hops,
    prediction, grip update) and emits the next torque/stiffness command.
    """

    def __init__(self, classifier: MaterialClassifier, registry: ModelRegistry,
                 motion_kind: str, cfg: ControllerConfig, sample_rate: int,
                 compare_default: bool = False):
        self.classifier = classifier
        self.registry = registry
        self.motion_kind = motion_kind
        self.cfg = cfg
        self.sample_rate = sample_rate
        self.compare_default = compare_default
        self.state = GripState(applied_torque=cfg.base_torque)
        self.model = select_model(registry, motion_kind)
        self.default_model = self.model
        self.hop_steps = round(ONLINE_HOP_S / SIM_DT)
        self.seg_samples = round(dsp.SEGMENT_S * sample_rate)
        # newest audio chunks, trimmed to the fewest that hold seg_samples
        self.chunks: deque[np.ndarray] = deque()
        self.n_samples = 0
        self.window: list[np.ndarray] = []
        self.prev_grid = None
        self.prev_angles = None
        self.step_count = 0
        self.slip_prob: list[float] = []
        self.pred_force: list[float] = []
        self.pred_force_default: list[float] = []
        self.active: list[str] = []
        self.torques: list[float] = []
        self.stiffnesses: list[float] = []
        self.switch_time_s: float | None = None

    def _ingest(self, obs) -> None:
        self.chunks.append(obs.audio_chunk)
        self.n_samples += len(obs.audio_chunk)
        while self.n_samples - len(self.chunks[0]) >= self.seg_samples:
            self.n_samples -= len(self.chunks.popleft())
        if self.prev_grid is None:
            grids, angles = obs.tactile_grid[None], obs.joint_angles[None]
        else:
            grids = np.array([self.prev_grid, obs.tactile_grid])
            angles = np.array([self.prev_angles, obs.joint_angles])
        self.window.append(tactile.features_from_arrays(grids, angles, SIM_DT)[-1])
        self.prev_grid, self.prev_angles = obs.tactile_grid, obs.joint_angles
        while len(self.window) > self.model.cfg.window:
            self.window.pop(0)

    def _maybe_classify(self, t: float) -> None:
        if self.state.active_material is not None:
            return
        if self.step_count % self.hop_steps != 0 or self.n_samples < self.seg_samples:
            return
        audio = np.concatenate(self.chunks)[-self.seg_samples:]
        seg = dsp.AudioSegment(audio, "online", t - dsp.SEGMENT_S,
                               sample_rate=self.sample_rate)
        probs = classify(self.classifier, dsp.mfcc(seg))
        best = int(np.argmax(probs))
        if probs[best] >= self.cfg.classifier_commit_confidence:
            name = self.classifier.cfg.classes[best]
            self.state.active_material = name
            self.model = select_model(self.registry, self.motion_kind, name)
            self.state.event_log.append((t, f"switch:{name}"))
            self.switch_time_s = t

    def __call__(self, t: float, prev_obs):
        if prev_obs is not None:
            self.step_count += 1
            self._ingest(prev_obs)
            self._maybe_classify(self.step_count * SIM_DT)
            if len(self.window) == self.model.cfg.window:
                mat = np.stack(self.window)
                pred = predict(self.model, mat)
                grip_update(self.state, pred, self.cfg)
                self.slip_prob.append(pred.slip_prob)
                self.pred_force.append(pred.force_value)
                if not self.compare_default:
                    self.pred_force_default.append(float("nan"))
                elif self.model is self.default_model:
                    self.pred_force_default.append(pred.force_value)
                else:
                    self.pred_force_default.append(
                        predict(self.default_model, mat).force_value)
            else:
                self.state.step_index += 1
                self.slip_prob.append(float("nan"))
                self.pred_force.append(float("nan"))
                self.pred_force_default.append(float("nan"))
        else:
            self.slip_prob.append(float("nan"))
            self.pred_force.append(float("nan"))
            self.pred_force_default.append(float("nan"))
        self.active.append(self.state.active_material or "default")
        self.torques.append(self.state.applied_torque)
        self.stiffnesses.append(self.state.stiffness_scale)
        return self.state.applied_torque, self.state.stiffness_scale


def run_reactive_loop(material: MaterialParams, motion: MotionProfile,
                      classifier: MaterialClassifier, registry: ModelRegistry,
                      cfg: ControllerConfig, seed: int,
                      params: SimParams = DEFAULT_PARAMS,
                      compare_default: bool = False) -> EpisodeLog:
    """Closed-loop episode; deterministic for a given seed."""
    policy = _ReactivePolicy(classifier, registry, motion.kind, cfg,
                             params.sample_rate, compare_default)
    record = run_trial(material, motion, policy, seed,
                       trial_id=f"episode-{seed}", params=params)
    n = record.n_steps
    return EpisodeLog(
        material=material.name,
        motion=record.motion,
        seed=seed,
        t=record.t,
        torque_cmd=np.asarray(policy.torques[:n]),
        stiffness=np.asarray(policy.stiffnesses[:n]),
        slip_prob=np.asarray(policy.slip_prob[:n]),
        pred_force=np.asarray(policy.pred_force[:n]),
        true_slip=record.true_slip,
        true_max_force=record.true_max_force,
        active_material=policy.active[:n],
        dropped=record.dropped,
        switch_time_s=policy.switch_time_s,
        events=list(policy.state.event_log),
        pred_force_default=(np.asarray(policy.pred_force_default[:n])
                            if compare_default else None),
    )


def run_baseline_episode(material: MaterialParams, motion: MotionProfile,
                         torque: float, seed: int,
                         params: SimParams = DEFAULT_PARAMS) -> EpisodeLog:
    """Constant-torque episode in the same log format (no predictions)."""
    record = run_trial(material, motion, torque, seed,
                       trial_id=f"baseline-{seed}", params=params)
    n = record.n_steps
    nan = np.full(n, float("nan"))
    return EpisodeLog(
        material=material.name, motion=record.motion, seed=seed, t=record.t,
        torque_cmd=np.full(n, float(torque)), stiffness=np.ones(n),
        slip_prob=nan, pred_force=nan.copy(), true_slip=record.true_slip,
        true_max_force=record.true_max_force, active_material=["default"] * n,
        dropped=record.dropped,
    )


EPISODE_COLUMNS = ("t", "torque_cmd", "stiffness", "slip_prob", "pred_force",
                   "true_slip", "true_max_force", "active_material", "dropped")


def write_episode_csv(log: EpisodeLog, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(EPISODE_COLUMNS)
        for i in range(len(log.t)):
            w.writerow([
                repr(float(log.t[i])), repr(float(log.torque_cmd[i])),
                repr(float(log.stiffness[i])), repr(float(log.slip_prob[i])),
                repr(float(log.pred_force[i])), int(log.true_slip[i]),
                repr(float(log.true_max_force[i])), log.active_material[i],
                int(log.dropped[i]),
            ])


def read_episode_csv(path) -> EpisodeLog:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or tuple(rows[0]) != EPISODE_COLUMNS:
        raise ValueError(f"unexpected episode CSV header in {path}")
    cols = list(zip(*rows[1:])) if len(rows) > 1 else [[] for _ in EPISODE_COLUMNS]
    return EpisodeLog(
        material="", motion={}, seed=-1,
        t=np.array([float(v) for v in cols[0]]),
        torque_cmd=np.array([float(v) for v in cols[1]]),
        stiffness=np.array([float(v) for v in cols[2]]),
        slip_prob=np.array([float(v) for v in cols[3]]),
        pred_force=np.array([float(v) for v in cols[4]]),
        true_slip=np.array([int(v) for v in cols[5]], dtype=bool),
        true_max_force=np.array([float(v) for v in cols[6]]),
        active_material=list(cols[7]),
        dropped=np.array([int(v) for v in cols[8]], dtype=bool),
    )
