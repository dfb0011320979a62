"""Deterministic desk-scale simulator of a hand gripping a granular container.

One simulator step advances a 1-DoF Coulomb slip model and emits a
synchronized observation: a 16x16 tactile pressure grid, 16 joint angles
and torques, an 80-sample audio chunk, and ground-truth slip/force labels.

Physics, in brief:
  * The grip torque maps linearly to a normal force, N = 25 * torque (N/Nm),
    optionally scaled by a commanded stiffness factor.
  * Holding the container requires a tangential force m * |a + g|; the
    grip can supply mu * N. Any deficit produces slip at a velocity of
    slip_rate * deficit / m, so the free-fall time to the 5 cm drop
    threshold is drop_threshold / (slip_rate * g) for every material.
  * Particle impacts arrive as a Poisson stream with rate proportional to
    particle count and |acceleration|; each impact is a decaying sinusoid
    at the material's spectral centroid (plus a rebound echo scaled by
    restitution) on top of a small noise floor.
  * The tactile grid is the normal force spread over a fixed contact
    pattern plus the tangential load rendered as a Gaussian blob whose
    center sags opposite the current acceleration. Both patterns are
    normalized over the grid, so the grid sum equals N + load exactly.

Everything is driven by one seeded generator per trial; identical inputs
and seed reproduce trials bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .materials import MaterialParams
from .motion import MotionProfile, SIM_DT

SAMPLE_RATE = 16000
GRID_ROWS = 16
GRID_COLS = 16
N_JOINTS = 16

# Allegro-like pose vectors: 4 fingers x 4 joints, index runs proximal to
# distal within each finger.
REST_POSE = np.tile([0.08, 0.55, 0.65, 0.80], 4)
CLOSE_DIR = np.tile([0.20, 1.00, 0.80, 0.50], 4)   # joints that tighten with grip torque
SLIP_DIR = np.tile([0.10, 0.50, 0.80, 1.00], 4)    # joints dragged open by container slip
TORQUE_DIST = np.tile([0.10, 0.40, 0.30, 0.20], 4)


@dataclass(frozen=True)
class SimParams:
    sample_rate: int = SAMPLE_RATE
    gravity: float = 9.81
    friction_mu: float = 0.6
    torque_to_normal: float = 25.0    # N per Nm of grip torque
    slip_rate: float = 0.02           # s; slip velocity = slip_rate * deficit / mass
    drop_threshold: float = 0.05      # m of accumulated slip ends the grasp
    noise_floor: float = 1e-4         # microphone noise sigma
    impact_rate_coeff: float = 0.01   # events per particle per (m/s^2) per s
    impact_amp_coeff: float = 0.006   # burst amplitude per (m/s^2)
    echo_delay_decays: float = 2.0    # rebound delay, in units of the decay constant
    burst_decays: float = 5.0         # synthesized burst length per envelope, in decay units
    slosh_tau: float = 0.05           # s, contents-offset smoothing time constant
    accel_norm: float = 20.0          # m/s^2 that saturates the blob shift
    load_shift_cells: float = 3.0     # max blob row offset from grid center
    base_sigma: float = 4.0           # cells, grip contact pattern width
    load_sigma: float = 2.0           # cells, inertial load blob width
    grip_closing_gain: float = 0.15   # rad per Nm
    joint_slip_gain: float = 25.0     # rad per m of slip
    joint_noise: float = 5e-4         # rad, per-step encoder jitter
    joint_angle_max: float = 1.6      # rad, mechanical stop
    tactile_quantum: float = 1e-4     # N, recorded pressure resolution
    joint_quantum: float = 1e-6       # rad / Nm, recorded joint resolution


DEFAULT_PARAMS = SimParams()


@functools.lru_cache(maxsize=16)
def _base_pattern(base_sigma: float) -> np.ndarray:
    """Normalized grip contact pattern; cached per width and read-only."""
    r = np.arange(GRID_ROWS) - (GRID_ROWS - 1) / 2.0
    c = np.arange(GRID_COLS) - (GRID_COLS - 1) / 2.0
    w = np.exp(-0.5 * (r[:, None] / base_sigma) ** 2
               - 0.5 * (c[None, :] / base_sigma) ** 2)
    w = w / w.sum()
    w.flags.writeable = False
    return w


def _load_pattern(center_row: float, params: SimParams) -> np.ndarray:
    r = np.arange(GRID_ROWS) - center_row
    c = np.arange(GRID_COLS) - (GRID_COLS - 1) / 2.0
    w = np.exp(-0.5 * (r[:, None] / params.load_sigma) ** 2
               - 0.5 * (c[None, :] / params.load_sigma) ** 2)
    return w / w.sum()


@dataclass
class SimState:
    """Mutable per-trial state; owned by exactly one trial loop."""

    contents_offset: float          # smoothed load direction in [-1, 1]
    grip_normal_force: float        # N, from the last commanded torque
    slip_displacement: float        # m, monotone within a trial
    dropped: bool
    rng: np.random.Generator
    audio_tail: np.ndarray          # synthesized audio not yet emitted
    t: float = 0.0


@dataclass(frozen=True)
class SimObservation:
    t: float
    tactile_grid: np.ndarray      # (16, 16) N per cell, >= 0
    joint_angles: np.ndarray      # (16,) rad
    joint_torques: np.ndarray     # (16,) Nm
    audio_chunk: np.ndarray       # (round(dt * sample_rate),) in [-1, 1]
    true_slip: bool
    true_max_force: float
    true_max_force_cell: tuple[int, int]


def initial_state(seed: int, material: MaterialParams,
                  params: SimParams = DEFAULT_PARAMS) -> SimState:
    burst_len = math.ceil((params.burst_decays + params.echo_delay_decays)
                          * material.impact_decay_s * params.sample_rate)
    chunk = round(SIM_DT * params.sample_rate)
    return SimState(
        contents_offset=0.0,
        grip_normal_force=0.0,
        slip_displacement=0.0,
        dropped=False,
        rng=np.random.default_rng(seed),
        audio_tail=np.zeros(chunk + burst_len),
    )


def _synth_impacts(state: SimState, material: MaterialParams, accel: float,
                   chunk: int, dt: float, params: SimParams) -> None:
    """Add this step's Poisson impact bursts into the pending audio tail."""
    lam = params.impact_rate_coeff * material.particle_count * abs(accel) * dt
    if lam <= 0.0:
        return
    n_events = state.rng.poisson(lam)
    if n_events == 0:
        return
    sr = params.sample_rate
    tau = material.impact_decay_s
    n_env = math.ceil(params.burst_decays * tau * sr)
    d_idx = math.ceil(params.echo_delay_decays * tau * sr)
    n_burst = n_env + d_idx
    tt = np.arange(n_burst) / sr
    for _ in range(n_events):
        onset = int(state.rng.integers(0, chunk))
        freq = material.impact_centroid_hz + state.rng.uniform(
            -0.5 * material.impact_bandwidth_hz, 0.5 * material.impact_bandwidth_hz)
        phase = state.rng.uniform(0.0, 2.0 * np.pi)
        env = np.exp(-tt / tau)
        env[d_idx:] += material.restitution * np.exp(-(tt[d_idx:] - tt[d_idx]) / tau)
        amp = params.impact_amp_coeff * abs(accel)
        burst = amp * env * np.sin(2.0 * np.pi * freq * tt + phase)
        state.audio_tail[onset:onset + n_burst] += burst


def step(state: SimState, material: MaterialParams, motion_accel: float,
         grip_torque: float, dt: float, stiffness_scale: float = 1.0,
         params: SimParams = DEFAULT_PARAMS) -> tuple[SimState, SimObservation]:
    """Advance the simulation by dt and return the updated state + observation."""
    if not (np.isfinite(motion_accel) and np.isfinite(grip_torque)
            and np.isfinite(dt) and np.isfinite(stiffness_scale)):
        raise ValueError("non-finite simulator input")
    if not 0.0 < dt <= 0.02:
        raise ValueError(f"dt must be in (0, 0.02], got {dt}")
    if not 0.0 <= grip_torque <= 1.0:
        raise ValueError(f"grip_torque must be in [0, 1] Nm, got {grip_torque}")
    if stiffness_scale <= 0.0:
        raise ValueError(f"stiffness_scale must be positive, got {stiffness_scale}")

    g = params.gravity
    mass = material.total_mass
    normal = params.torque_to_normal * grip_torque * stiffness_scale
    state.grip_normal_force = normal

    # Coulomb slip: deficit between required tangential force and friction.
    required = mass * abs(motion_accel + g)
    available = params.friction_mu * normal
    slipping = (required > available) and not state.dropped
    if slipping:
        state.slip_displacement += params.slip_rate * ((required - available) / mass) * dt
        if state.slip_displacement >= params.drop_threshold:
            state.dropped = True

    # Contents settle opposite the net specific force with a short lag.
    target = float(np.clip((motion_accel + g) / params.accel_norm, -1.0, 1.0))
    state.contents_offset += (target - state.contents_offset) * dt / params.slosh_tau

    # Tactile rendering. Both patterns are grid-normalized, so the grid sum
    # is exactly normal + load before quantization.
    load = 0.0 if state.dropped else required
    grid = normal * _base_pattern(params.base_sigma)
    if load > 0.0:
        center = (GRID_ROWS - 1) / 2.0 + params.load_shift_cells * state.contents_offset
        grid = grid + load * _load_pattern(center, params)
    q = params.tactile_quantum
    grid = np.round(grid / q) * q
    np.maximum(grid, 0.0, out=grid)
    flat_idx = int(np.argmax(grid))
    cell = (flat_idx // GRID_COLS, flat_idx % GRID_COLS)
    max_force = float(grid[cell])

    # Audio: emit the pending tail for this step plus fresh impacts + noise.
    chunk = round(dt * params.sample_rate)
    noise = state.rng.normal(0.0, params.noise_floor, chunk)
    if not state.dropped:
        _synth_impacts(state, material, motion_accel, chunk, dt, params)
    audio = np.clip(state.audio_tail[:chunk] + noise, -1.0, 1.0)
    state.audio_tail[:-chunk] = state.audio_tail[chunk:]
    state.audio_tail[-chunk:] = 0.0

    # Joint streams: grasp closing plus slip drag, with encoder jitter.
    jq = params.joint_quantum
    angles = (REST_POSE
              + params.grip_closing_gain * grip_torque * CLOSE_DIR
              + params.joint_slip_gain * state.slip_displacement * SLIP_DIR
              + state.rng.normal(0.0, params.joint_noise, N_JOINTS))
    angles = np.clip(np.round(angles / jq) * jq, 0.0, params.joint_angle_max)
    torques = grip_torque * stiffness_scale * TORQUE_DIST + 0.005 * load * SLIP_DIR
    torques = np.round(torques / jq) * jq

    state.t += dt

    obs = SimObservation(
        t=state.t,
        tactile_grid=grid,
        joint_angles=angles,
        joint_torques=torques,
        audio_chunk=audio,
        true_slip=bool(slipping),
        true_max_force=max_force,
        true_max_force_cell=cell,
    )
    return state, obs


# The per-step arrays of a TrialRecord: (field, shape after the step axis,
# dtype). Trial storage keeps one .npy file per entry.
TRIAL_ARRAYS = (
    ("t", (), np.dtype("<f8")),
    ("tactile", (GRID_ROWS, GRID_COLS), np.dtype("<f8")),
    ("joint_angles", (N_JOINTS,), np.dtype("<f8")),
    ("joint_torques", (N_JOINTS,), np.dtype("<f8")),
    ("true_slip", (), np.dtype(bool)),
    ("true_max_force", (), np.dtype("<f8")),
    ("true_cell", (2,), np.dtype("<i8")),
    ("dropped", (), np.dtype(bool)),
)


@dataclass
class TrialRecord:
    """One manipulation trial: synchronized streams plus ground truth.

    Audio samples are quantized to the 16-bit PCM grid so that the WAV
    round trip through dataset storage is bit-exact.
    """

    trial_id: str
    material: str
    motion: dict
    seed: int
    sample_rate: int
    dt: float
    audio: np.ndarray          # (n_steps * chunk,) float64 on the PCM16 grid
    t: np.ndarray              # (n_steps,)
    tactile: np.ndarray        # (n_steps, 16, 16)
    joint_angles: np.ndarray   # (n_steps, 16)
    joint_torques: np.ndarray  # (n_steps, 16)
    true_slip: np.ndarray      # (n_steps,) bool
    true_max_force: np.ndarray  # (n_steps,)
    true_cell: np.ndarray      # (n_steps, 2) int
    dropped: np.ndarray        # (n_steps,) bool

    @property
    def n_steps(self) -> int:
        return len(self.t)

    def equals(self, other: "TrialRecord") -> bool:
        if (self.trial_id, self.material, self.seed, self.sample_rate, self.dt) != \
           (other.trial_id, other.material, other.seed, other.sample_rate, other.dt):
            return False
        if self.motion != other.motion:
            return False
        arrays = ("audio",) + tuple(name for name, _, _ in TRIAL_ARRAYS)
        return all(np.array_equal(getattr(self, a), getattr(other, a)) for a in arrays)


def quantize_pcm16(samples: np.ndarray) -> np.ndarray:
    """Snap samples onto the 16-bit PCM grid used by trial storage."""
    ints = np.round(np.clip(samples, -1.0, 1.0) * 32767.0)
    return ints / 32767.0


def run_trial(material: MaterialParams, motion: MotionProfile, grip_policy,
              seed: int, trial_id: str | None = None,
              params: SimParams = DEFAULT_PARAMS) -> TrialRecord:
    """Run one full trial and collect the synchronized record.

    grip_policy is either a fixed torque (float) or a callable
    ``policy(prev_obs) -> (torque, stiffness_scale)`` invoked before every
    step with the previous step's observation (None on the first step).
    This is the only loop over `step`.
    """
    if motion.n_steps < 1:
        raise ValueError("motion duration must cover at least one step")
    state = initial_state(seed, material, params)
    accels = motion.accelerations()
    n = motion.n_steps
    chunk = round(SIM_DT * params.sample_rate)

    audio = np.empty(n * chunk)
    t = np.empty(n)
    tactile = np.empty((n, GRID_ROWS, GRID_COLS))
    angles = np.empty((n, N_JOINTS))
    torques = np.empty((n, N_JOINTS))
    slip = np.empty(n, dtype=bool)
    max_force = np.empty(n)
    cells = np.empty((n, 2), dtype=np.int64)
    dropped = np.empty(n, dtype=bool)

    prev_obs = None
    for i in range(n):
        if callable(grip_policy):
            torque, stiffness = grip_policy(prev_obs)
        else:
            torque, stiffness = float(grip_policy), 1.0
        state, obs = step(state, material, float(accels[i]), torque, SIM_DT,
                          stiffness_scale=stiffness, params=params)
        audio[i * chunk:(i + 1) * chunk] = obs.audio_chunk
        t[i] = obs.t
        tactile[i] = obs.tactile_grid
        angles[i] = obs.joint_angles
        torques[i] = obs.joint_torques
        slip[i] = obs.true_slip
        max_force[i] = obs.true_max_force
        cells[i] = obs.true_max_force_cell
        dropped[i] = state.dropped
        prev_obs = obs

    meta = {
        "kind": motion.kind,
        "duration": motion.duration,
        "amplitude": motion.amplitude,
        "frequency": motion.frequency,
        "shake_count": motion.shake_count,
    }
    return TrialRecord(
        trial_id=trial_id or f"trial-{seed}",
        material=material.name,
        motion=meta,
        seed=seed,
        sample_rate=params.sample_rate,
        dt=SIM_DT,
        audio=quantize_pcm16(audio),
        t=t,
        tactile=tactile,
        joint_angles=angles,
        joint_torques=torques,
        true_slip=slip,
        true_max_force=max_force,
        true_cell=cells,
        dropped=dropped,
    )
