"""Deterministic desk-scale simulator of a hand gripping a granular container.

One simulator step of SIM_DT (5 ms) advances a 1-DoF Coulomb slip model
and writes one synchronized row of the trial record: a 16x16 tactile
pressure grid, 16 joint angles and torques, a CHUNK of 80 audio samples at
SAMPLE_RATE (16 kHz), and ground-truth slip/force labels. The rig has this
one clock; trial storage refuses data recorded on another.
`step` advances a block of k >= 1 such steps under one grip command: the
scalar physics and every random draw run step by step, and the block's
grids, joint streams and audio are then rendered as arrays with a leading
step axis. A block gives the same bits as k single steps.

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
from dataclasses import dataclass, replace

import numpy as np

from .materials import MaterialParams
from .motion import MotionProfile, SIM_DT

SAMPLE_RATE = 16000  # Hz, the microphone's rate
CHUNK = round(SIM_DT * SAMPLE_RATE)  # audio samples per simulator step
GRID_ROWS = 16
GRID_COLS = 16
N_JOINTS = 16

# Allegro-like pose vectors: 4 fingers x 4 joints, index runs proximal to
# distal within each finger.
REST_POSE = np.tile([0.08, 0.55, 0.65, 0.80], 4)
CLOSE_DIR = np.tile([0.20, 1.00, 0.80, 0.50], 4)   # joints that tighten with grip torque
SLIP_DIR = np.tile([0.10, 0.50, 0.80, 1.00], 4)    # joints dragged open by container slip
TORQUE_DIST = np.tile([0.10, 0.40, 0.30, 0.20], 4)

# The stiffest grip the hand can be commanded to; the reactive controller
# commands 1.0 or 2.0.
MAX_STIFFNESS_SCALE = 2.0

# Steps per `step` call when a trial runs at a fixed grip: bounds the
# render temporaries (a (100, 16, 16) float64 block is 200 kB).
RENDER_BLOCK = 100
# Impact bursts synthesized per array operation (16 x 1680 samples at most).
BURST_GROUP = 16

# The rig's physics: one hand, one container, one microphone.
GRAVITY = 9.81                # m/s^2
FRICTION_MU = 0.6
TORQUE_TO_NORMAL = 25.0       # N per Nm of grip torque
SLIP_RATE = 0.02              # s; slip velocity = slip_rate * deficit / mass
DROP_THRESHOLD = 0.05         # m of accumulated slip ends the grasp
NOISE_FLOOR = 1e-4            # microphone noise sigma
IMPACT_RATE_COEFF = 0.01      # events per particle per (m/s^2) per s
IMPACT_AMP_COEFF = 0.006      # burst amplitude per (m/s^2)
ECHO_DELAY_DECAYS = 2.0       # rebound delay, in units of the decay constant
BURST_DECAYS = 5.0            # synthesized burst length per envelope, in decay units
SLOSH_TAU = 0.05              # s, contents-offset smoothing time constant
ACCEL_NORM = 20.0             # m/s^2 that saturates the blob shift
LOAD_SHIFT_CELLS = 3.0        # max blob row offset from grid center
BASE_SIGMA = 4.0              # cells, grip contact pattern width
LOAD_SIGMA = 2.0              # cells, inertial load blob width
GRIP_CLOSING_GAIN = 0.15      # rad per Nm
JOINT_SLIP_GAIN = 25.0        # rad per m of slip
JOINT_NOISE = 5e-4            # rad, per-step encoder jitter
JOINT_ANGLE_MAX = 1.6         # rad, mechanical stop
TACTILE_QUANTUM = 1e-4        # N, recorded pressure resolution
JOINT_QUANTUM = 1e-6          # rad / Nm, recorded joint resolution


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _contact_pattern() -> np.ndarray:
    """Normalized grip contact pattern, built once as _BASE_PATTERN."""
    r = np.arange(GRID_ROWS) - (GRID_ROWS - 1) / 2.0
    c = np.arange(GRID_COLS) - (GRID_COLS - 1) / 2.0
    w = np.exp(-0.5 * (r[:, None] / BASE_SIGMA) ** 2
               - 0.5 * (c[None, :] / BASE_SIGMA) ** 2)
    return _read_only(w / w.sum())


_BASE_PATTERN = _contact_pattern()
_GRID_ROW_INDEX = _read_only(np.arange(GRID_ROWS))
# column part of the load blob's exponent
_LOAD_COL_TERM = _read_only(
    0.5 * ((np.arange(GRID_COLS) - (GRID_COLS - 1) / 2.0) / LOAD_SIGMA) ** 2)


def _load_patterns(center_rows: np.ndarray) -> np.ndarray:
    """(k, 16, 16) load blobs, one per center row, each normalized to sum 1."""
    r = _GRID_ROW_INDEX - center_rows[:, None]
    r /= LOAD_SIGMA
    w = (-0.5 * r ** 2)[:, :, None] - _LOAD_COL_TERM
    np.exp(w, out=w)
    # each blob's 256 cells sum in one contiguous pairwise reduction, as
    # the sum of a single (16, 16) blob does
    w /= np.add.reduce(w.reshape(len(center_rows), -1), axis=1)[:, None, None]
    return w


@functools.lru_cache(maxsize=16)
def _burst_envelope(material: MaterialParams):
    """Sample times and decay envelope (impact plus rebound echo) of one
    impact burst; cached per material and read-only."""
    tau = material.impact_decay_s
    n_env = math.ceil(BURST_DECAYS * tau * SAMPLE_RATE)
    d_idx = math.ceil(ECHO_DELAY_DECAYS * tau * SAMPLE_RATE)
    tt = np.arange(n_env + d_idx) / SAMPLE_RATE
    env = np.exp(-tt / tau)
    env[d_idx:] += material.restitution * np.exp(-(tt[d_idx:] - tt[d_idx]) / tau)
    return _read_only(tt), _read_only(env)


@dataclass
class SimState:
    """Mutable per-trial state; owned by exactly one trial loop."""

    contents_offset: float          # smoothed load direction in [-1, 1]
    slip_displacement: float        # m, monotone within a trial
    dropped: bool
    rng: np.random.Generator
    audio_tail: np.ndarray          # synthesized audio past the last emitted sample
    t: float = 0.0


def initial_state(seed: int, material: MaterialParams) -> SimState:
    tt, _ = _burst_envelope(material)
    return SimState(
        contents_offset=0.0,
        slip_displacement=0.0,
        dropped=False,
        rng=np.random.default_rng(seed),
        audio_tail=np.zeros(len(tt)),
    )


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


def step_arrays(k: int) -> dict[str, np.ndarray]:
    """Empty arrays for k steps: every TRIAL_ARRAYS field plus "audio",
    shaped (k, CHUNK)."""
    arrays = {name: np.empty((k,) + shape, dtype) for name, shape, dtype in TRIAL_ARRAYS}
    arrays["audio"] = np.empty((k, CHUNK))
    return arrays


def _add_bursts(buf: np.ndarray, events: list, material: MaterialParams) -> None:
    """Add impact bursts (start sample, freq, phase, amp) into buf in event
    order, so every sample sums its bursts in the order they were drawn."""
    tt, env = _burst_envelope(material)
    n_burst = len(tt)
    for g in range(0, len(events), BURST_GROUP):
        start, freq, phase, amp = zip(*events[g:g + BURST_GROUP])
        bursts = 2.0 * np.pi * np.array(freq)[:, None] * tt
        bursts += np.array(phase)[:, None]
        np.sin(bursts, out=bursts)
        bursts *= np.array(amp)[:, None] * env
        for s, burst in zip(start, bursts):
            buf[s:s + n_burst] += burst


def step(state: SimState, material: MaterialParams, motion_accel, grip_torque: float,
         stiffness_scale: float = 1.0,
         out: dict[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """Advance `state` in place by k steps of SIM_DT under one grip command.

    motion_accel is one acceleration (k = 1) or a 1-D sequence of k, one per
    step. The k steps are written into `out`, arrays shaped as by
    `step_arrays(k)`, or into new ones, which are returned. Audio rows are
    not yet quantized.
    """
    accels = np.asarray(motion_accel, dtype=float)
    if accels.ndim > 1 or accels.size == 0:
        raise ValueError("motion_accel must be one value or a 1-D block of steps")
    accels = accels.reshape(-1).tolist()
    if not all(map(math.isfinite, accels)):
        bad = next(j for j, a in enumerate(accels) if not math.isfinite(a))
        raise ValueError(f"non-finite motion_accel at step {bad} of the block")
    if not (math.isfinite(grip_torque) and math.isfinite(stiffness_scale)):
        raise ValueError("non-finite simulator input")
    if not 0.0 <= grip_torque <= 1.0:
        raise ValueError(f"grip_torque must be in [0, 1] Nm, got {grip_torque}")
    if not 0.0 < stiffness_scale <= MAX_STIFFNESS_SCALE:
        raise ValueError(f"stiffness_scale must be in (0, {MAX_STIFFNESS_SCALE}], "
                         f"got {stiffness_scale}")

    k = len(accels)
    dt, chunk = SIM_DT, CHUNK
    if out is None:
        out = step_arrays(k)
    audio = out["audio"]
    angles = out["joint_angles"]

    g = GRAVITY
    mass = material.total_mass
    normal = TORQUE_TO_NORMAL * grip_torque * stiffness_scale
    available = FRICTION_MU * normal
    rng = state.rng
    rate = IMPACT_RATE_COEFF * material.particle_count
    half_band = 0.5 * material.impact_bandwidth_hz

    # Scalar physics on Python floats and every random draw, step by step in
    # the order audio noise, Poisson count, per-event draws, joint noise.
    # The render inputs of each step are stored as it goes.
    t_out, slip_out, drop_out = out["t"], out["true_slip"], out["dropped"]
    loads, centers, load_torques, drags = np.empty((4, k))
    events = []  # (start sample in the block, freq, phase, amp)
    disp, dropped, offset, t = (state.slip_displacement, state.dropped,
                                state.contents_offset, state.t)
    normal_draw = rng.normal
    for j, a in enumerate(accels):
        # Coulomb slip: deficit between required tangential force and friction.
        required = mass * abs(a + g)
        slipping = required > available and not dropped
        if slipping:
            disp += SLIP_RATE * ((required - available) / mass) * dt
            if disp >= DROP_THRESHOLD:
                dropped = True
        # Contents settle opposite the net specific force with a short lag.
        target = min(max((a + g) / ACCEL_NORM, -1.0), 1.0)
        offset += (target - offset) * dt / SLOSH_TAU
        t += dt
        load = 0.0 if dropped else required
        t_out[j], slip_out[j], drop_out[j] = t, slipping, dropped
        loads[j] = load
        centers[j] = (GRID_ROWS - 1) / 2.0 + LOAD_SHIFT_CELLS * offset
        load_torques[j] = 0.005 * load
        drags[j] = JOINT_SLIP_GAIN * disp

        audio[j] = normal_draw(0.0, NOISE_FLOOR, chunk)
        lam = rate * abs(a) * dt
        if not dropped and lam > 0.0:
            amp = IMPACT_AMP_COEFF * abs(a)
            for _ in range(rng.poisson(lam)):
                onset = int(rng.integers(0, chunk))
                freq = material.impact_centroid_hz + rng.uniform(-half_band, half_band)
                phase = rng.uniform(0.0, 2.0 * np.pi)
                events.append((j * chunk + onset, freq, phase, amp))
        angles[j] = normal_draw(0.0, JOINT_NOISE, N_JOINTS)
    state.slip_displacement, state.dropped, state.contents_offset, state.t = \
        disp, dropped, offset, t

    # Tactile rendering. Both patterns are grid-normalized, so the grid sum
    # is exactly normal + load before quantization.
    grid = out["tactile"]
    np.multiply(normal, _BASE_PATTERN, out=grid)
    blobs = _load_patterns(centers)
    blobs *= loads[:, None, None]
    grid += blobs
    q = TACTILE_QUANTUM
    grid /= q
    np.rint(grid, out=grid)
    grid *= q
    np.maximum(grid, 0.0, out=grid)
    flat = grid.reshape(k, GRID_ROWS * GRID_COLS)
    np.maximum.reduce(flat, axis=1, out=out["true_max_force"])
    cells = out["true_cell"]
    np.divmod(flat.argmax(axis=1), GRID_COLS, out=(cells[:, 0], cells[:, 1]))

    # Audio: pending tail plus this block's impacts, then noise, then clip.
    n_tail = len(state.audio_tail)
    buf = np.zeros(k * chunk + n_tail)
    buf[:n_tail] = state.audio_tail
    if events:
        _add_bursts(buf, events, material)
    audio += buf[:k * chunk].reshape(k, chunk)
    np.maximum(audio, -1.0, out=audio)
    np.minimum(audio, 1.0, out=audio)
    state.audio_tail = buf[k * chunk:]

    # Joint streams: grasp closing plus slip drag, with encoder jitter.
    jq = JOINT_QUANTUM
    pose = REST_POSE + GRIP_CLOSING_GAIN * grip_torque * CLOSE_DIR
    angles += pose + drags[:, None] * SLIP_DIR
    angles /= jq
    np.rint(angles, out=angles)
    angles *= jq
    np.maximum(0.0, angles, out=angles)  # this order keeps np.clip's sign of zero
    np.minimum(angles, JOINT_ANGLE_MAX, out=angles)
    torques = out["joint_torques"]
    np.multiply(load_torques[:, None], SLIP_DIR, out=torques)
    torques += grip_torque * stiffness_scale * TORQUE_DIST
    torques /= jq
    np.rint(torques, out=torques)
    torques *= jq
    return out


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
    audio: np.ndarray          # (n_steps * CHUNK,) float64 on the PCM16 grid
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

    # every record is on the rig's one clock; these read-only views of it
    # serve readers of a record such as perfbench's shape check
    @property
    def sample_rate(self) -> int:
        return SAMPLE_RATE

    @property
    def dt(self) -> float:
        return SIM_DT


def quantize_pcm16(samples: np.ndarray) -> np.ndarray:
    """Snap samples onto the 16-bit PCM grid used by trial storage."""
    ints = np.round(np.clip(samples, -1.0, 1.0) * 32767.0)
    return ints / 32767.0


def run_trial(material: MaterialParams, motion: MotionProfile, grip_policy,
              seed: int, trial_id: str | None = None) -> TrialRecord:
    """Run one full trial and collect the synchronized record.

    grip_policy is either a fixed torque (float) or a callable
    ``policy(history) -> (torque, stiffness_scale)`` invoked once before
    every step, in order. Before step i, `history` maps every TRIAL_ARRAYS
    field and "audio" (shape (i, CHUNK), not yet quantized) to its first i
    rows: views of the arrays the trial is filling, which the policy must
    not write. A fixed torque reads nothing before the trial ends, so its
    steps go to `step` in blocks of RENDER_BLOCK. A policy's steps are
    rendered ahead: a block of k steps runs under the current command, then
    the policy decides steps i + 1 ... i + k - 1 on the rows that stand.
    Where its command changes, the state is restored and only the steps
    before the change are rendered again, into the same bytes, since a
    block gives the bits of its single steps. k is 1 after a change and
    doubles, up to RENDER_BLOCK, after each block whose command held.
    Either way `step` writes straight into the record's arrays. This is
    the only loop over `step`.
    """
    if motion.n_steps < 1:
        raise ValueError("motion duration must cover at least one step")
    state = initial_state(seed, material)
    accels = motion.accelerations().tolist()
    n = motion.n_steps
    arrays = step_arrays(n)

    def render(state, i, k, torque, stiffness):
        rows = {name: a[i:i + k] for name, a in arrays.items()}
        step(state, material, accels[i:i + k], torque,
             stiffness_scale=stiffness, out=rows)

    def decide(i):
        torque, stiffness = grip_policy({name: a[:i] for name, a in arrays.items()})
        return torque, stiffness

    if not callable(grip_policy):
        for i in range(0, n, RENDER_BLOCK):
            render(state, i, RENDER_BLOCK, float(grip_policy), 1.0)
    else:
        i, k, command = 0, 1, decide(0)
        while i < n:
            k = min(k, n - i)
            if k > 1:
                saved, rng_state = replace(state), state.rng.bit_generator.state
            render(state, i, k, *command)
            for j in range(1, k + 1):
                new = decide(i + j) if i + j < n else command
                if new != command:
                    break
            if j < k:
                # step i + j runs under another command: rewind to the
                # block's start and keep its first j steps
                state = saved
                state.rng.bit_generator.state = rng_state
                render(state, i, j, *command)
            i += j
            k = min(2 * k, RENDER_BLOCK) if new == command else 1
            command = new

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
        audio=quantize_pcm16(arrays.pop("audio").reshape(-1)),
        **arrays,
    )
