"""Deterministic desk-scale simulator of a hand gripping a granular container.

One simulator step of SIM_DT (5 ms) advances a 1-DoF Coulomb slip model
and writes one synchronized row of the trial record: a 16x16 tactile
pressure grid, 16 joint angles and torques, a CHUNK of 80 audio samples at
SAMPLE_RATE (16 kHz), and the ground-truth slip and drop flags. The rig
has this one clock; trial storage refuses data recorded on another. A
TrialRecord derives the rest from these rows: the step times, and the
peak force and its cell, the labels the predictor learns.
`step` advances a block of k >= 1 such steps under one grip command: the
scalar physics runs step by step, and the block's audio, grids and joint
streams are then rendered as arrays with a leading step axis. The audio
and the flags are always rendered; the grids and joint streams only for
a caller that reads them (the active loop classifies the audio alone).
Each kind of random draw has its own generator: the Gaussian noise of
audio and joints (standard normals, one call per block, drawn whole
whether or not the joint streams are rendered), the Poisson impact
counts (one draw per step that can have impacts) and each impact's
onset, frequency and phase (one call per block). One call on a stream
gives the values and the generator state of the single calls it stands
for, so a block gives the same bits as its k single steps.

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
    restitution) on top of a small noise floor. The sinusoid's phase is
    reduced in float64 and its sine taken on float32, which is some 30
    times cheaper; this moves a rare summed sample by one PCM16 step
    from a float64 sine, and no other stream (see `_add_bursts`).
  * The tactile grid is the normal force spread over a fixed contact
    pattern plus the tangential load rendered as a Gaussian blob whose
    center sags opposite the current acceleration. Both patterns are
    normalized over the grid, so the grid sum equals N + load exactly.

A trial's seed spawns its three generators; identical inputs and seed
reproduce trials bit for bit.
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

# The strongest grip the hand can be commanded to: torque in Nm, and the
# stiffness scale, which the reactive controller sets to 1.0 or this.
MAX_GRIP_TORQUE = 1.0
MAX_STIFFNESS_SCALE = 2.0

# The most steps one `step` call of a trial renders: bounds the render
# temporaries (a (100, 16, 16) float64 block is 200 kB).
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
PCM16_FULL_SCALE = 32767.0    # recorded audio: 16-bit PCM steps per unit amplitude


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
# the sigma of each column of a step's noise row: CHUNK audio samples, then
# N_JOINTS joint angles
_NOISE_SIGMAS = _read_only(
    np.repeat([[NOISE_FLOOR, JOINT_NOISE]], [CHUNK, N_JOINTS], axis=1))
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
    # one generator per kind of draw: Gaussian noise, impact counts, and
    # each impact's onset, frequency and phase
    rngs: tuple[np.random.Generator, np.random.Generator, np.random.Generator]
    audio_tail: np.ndarray          # synthesized audio past the last emitted sample


def initial_state(seed: int, material: MaterialParams) -> SimState:
    tt, _ = _burst_envelope(material)
    return SimState(
        contents_offset=0.0,
        slip_displacement=0.0,
        dropped=False,
        rngs=tuple(map(np.random.default_rng, np.random.SeedSequence(seed).spawn(3))),
        audio_tail=np.zeros(len(tt)),
    )


# The per-step arrays `step` writes, besides the audio: (field, shape
# after the step axis, dtype). Trial storage (dataset.STORED_ARRAYS) keeps
# the grid and joint streams as integer counts of TACTILE_QUANTUM and
# JOINT_QUANTUM and the flags as they are.
TRIAL_ARRAYS = (
    ("tactile", (GRID_ROWS, GRID_COLS), np.dtype("<f8")),
    ("joint_angles", (N_JOINTS,), np.dtype("<f8")),
    ("joint_torques", (N_JOINTS,), np.dtype("<f8")),
    ("true_slip", (), np.dtype(bool)),
    ("dropped", (), np.dtype(bool)),
)


# The streams `step` renders whatever else it is asked for: the audio tail
# and the flags come out of the physics loop, which runs in full either way.
AUDIO_AND_FLAGS = ("audio", "true_slip", "dropped")


def step_arrays(k: int) -> dict[str, np.ndarray]:
    """Empty arrays for k steps: every TRIAL_ARRAYS field plus "audio",
    shaped (k, CHUNK)."""
    arrays = {name: np.empty((k,) + shape, dtype) for name, shape, dtype in TRIAL_ARRAYS}
    arrays["audio"] = np.empty((k, CHUNK))
    return arrays


def _add_bursts(buf: np.ndarray, starts: np.ndarray, freqs: np.ndarray,
                phases: np.ndarray, amps: np.ndarray, material: MaterialParams) -> None:
    """Add one impact burst per event (start sample, freq, phase in
    radians, amp) into buf in event order, so every sample sums its bursts
    in the order they were drawn.

    A burst is amp * env * sin(2 pi freq t + phase). Its phase is reduced
    to [0, 1) cycles in float64, and only the sine of the angle in
    [0, 2 pi) runs on float32, some 30 times cheaper than on float64. The
    angle's float32 rounding (at most 2^-22 rad) and the sine's own move a
    burst by at most about 3e-7 of its amplitude, against a PCM16 step of
    3e-5: a rare summed sample that lies that close to a rounding boundary
    lands one PCM16 step away from where the float64 sine puts it."""
    tt, env = _burst_envelope(material)
    n_burst = len(tt)
    for g in range(0, len(starts), BURST_GROUP):
        group = slice(g, g + BURST_GROUP)
        cycles = freqs[group, None] * tt
        cycles += phases[group, None] / (2.0 * np.pi)
        cycles -= np.floor(cycles)
        cycles *= 2.0 * np.pi
        sines = cycles.astype(np.float32)
        np.sin(sines, out=sines)
        # float32 to float64 is exact, so this is the float64 product
        bursts = np.multiply(sines, amps[group, None] * env, out=cycles)
        for s, burst in zip(starts[group].tolist(), bursts):
            buf[s:s + n_burst] += burst


def step(state: SimState, material: MaterialParams, motion_accel, grip_torque: float,
         stiffness_scale: float = 1.0,
         out: dict[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """Advance `state` in place by k steps of SIM_DT under one grip command.

    motion_accel is one acceleration (k = 1) or a 1-D sequence of k, one per
    step. The k steps are written into `out`, arrays shaped as by
    `step_arrays(k)`, or into new ones, which are returned. `out` holds
    every AUDIO_AND_FLAGS stream; the tactile grid and each joint stream
    are rendered only where `out` holds them, and the generators draw the
    same either way. Every stream is rendered at its recorded resolution,
    audio on the 16-bit PCM grid.
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
    if not 0.0 <= grip_torque <= MAX_GRIP_TORQUE:
        raise ValueError(f"grip_torque must be in [0, {MAX_GRIP_TORQUE}] Nm, "
                         f"got {grip_torque}")
    if not 0.0 < stiffness_scale <= MAX_STIFFNESS_SCALE:
        raise ValueError(f"stiffness_scale must be in (0, {MAX_STIFFNESS_SCALE}], "
                         f"got {stiffness_scale}")

    k = len(accels)
    dt, chunk = SIM_DT, CHUNK
    if out is None:
        out = step_arrays(k)
    audio = out["audio"]

    g = GRAVITY
    mass = material.total_mass
    normal = TORQUE_TO_NORMAL * grip_torque * stiffness_scale
    available = FRICTION_MU * normal
    noise_rng, count_rng, impact_rng = state.rngs
    rate = IMPACT_RATE_COEFF * material.particle_count

    # Scalar physics on Python floats, step by step; the render inputs of
    # each step are stored as it goes, and so is its Poisson impact count,
    # drawn only where impacts can happen (no draw at rate 0 or once
    # dropped). The other draws are one call each for the whole block.
    slip_out, drop_out = out["true_slip"], out["dropped"]
    loads, centers, load_torques, drags = np.empty((4, k))
    counts = [0] * k  # impacts per step
    disp, dropped, offset = (state.slip_displacement, state.dropped,
                             state.contents_offset)
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
        load = 0.0 if dropped else required
        slip_out[j], drop_out[j] = slipping, dropped
        loads[j] = load
        centers[j] = (GRID_ROWS - 1) / 2.0 + LOAD_SHIFT_CELLS * offset
        load_torques[j] = 0.005 * load
        drags[j] = JOINT_SLIP_GAIN * disp

        lam = rate * abs(a) * dt
        if not dropped and lam > 0.0:
            counts[j] = count_rng.poisson(lam)
    state.slip_displacement, state.dropped, state.contents_offset = \
        disp, dropped, offset
    # row j: step j's audio then joint noise
    noise = noise_rng.standard_normal((k, chunk + N_JOINTS))
    noise *= _NOISE_SIGMAS

    # Tactile rendering. Both patterns are grid-normalized, so the grid sum
    # is exactly normal + load before quantization.
    grid = out.get("tactile")
    if grid is not None:
        np.multiply(normal, _BASE_PATTERN, out=grid)
        blobs = _load_patterns(centers)
        blobs *= loads[:, None, None]
        grid += blobs
        q = TACTILE_QUANTUM
        grid /= q
        np.rint(grid, out=grid)
        grid *= q
        np.maximum(grid, 0.0, out=grid)

    # Audio: pending tail plus this block's impacts, then noise, then clip
    # onto the PCM16 grid that trial storage writes.
    n_tail = len(state.audio_tail)
    buf = np.zeros(k * chunk + n_tail)
    buf[:n_tail] = state.audio_tail
    n_impacts = sum(counts)
    if n_impacts:
        # each impact's step, then its onset in the step, frequency in the
        # material's band, and phase
        at = np.repeat(np.arange(k), counts)
        u = impact_rng.random((n_impacts, 3))
        starts = at * chunk + (u[:, 0] * chunk).astype(np.intp)
        freqs = (material.impact_centroid_hz
                 + material.impact_bandwidth_hz * (u[:, 1] - 0.5))
        amps = IMPACT_AMP_COEFF * np.abs(np.asarray(accels)[at])
        _add_bursts(buf, starts, freqs, 2.0 * np.pi * u[:, 2], amps, material)
    np.add(noise[:, :chunk], buf[:k * chunk].reshape(k, chunk), out=audio)
    np.maximum(audio, -1.0, out=audio)
    np.minimum(audio, 1.0, out=audio)
    audio *= PCM16_FULL_SCALE
    np.rint(audio, out=audio)
    # rint gives -0.0 in (-0.5, 0), which PCM16 stores as 0: adding 0.0
    # makes it +0.0, the bits the WAV round trip gives back
    audio += 0.0
    audio /= PCM16_FULL_SCALE
    state.audio_tail = buf[k * chunk:]

    # Joint streams: grasp closing plus slip drag, with encoder jitter.
    jq = JOINT_QUANTUM
    angles = out.get("joint_angles")
    if angles is not None:
        pose = REST_POSE + GRIP_CLOSING_GAIN * grip_torque * CLOSE_DIR
        np.add(noise[:, chunk:], pose + drags[:, None] * SLIP_DIR, out=angles)
        angles /= jq
        np.rint(angles, out=angles)
        angles *= jq
        np.maximum(0.0, angles, out=angles)  # this order keeps np.clip's sign of zero
        np.minimum(angles, JOINT_ANGLE_MAX, out=angles)
    torques = out.get("joint_torques")
    if torques is not None:
        np.multiply(load_torques[:, None], SLIP_DIR, out=torques)
        torques += grip_torque * stiffness_scale * TORQUE_DIST
        torques /= jq
        np.rint(torques, out=torques)
        torques *= jq
    return out


@dataclass
class TrialRecord:
    """One manipulation trial: the streams the rig records, step axis first.

    Audio samples are quantized to the 16-bit PCM grid so that the WAV
    round trip through dataset storage is bit-exact. The step times and
    the ground-truth peak force and its cell are functions of the tactile
    grid, computed on each access.
    """

    trial_id: str
    material: str
    motion: dict
    seed: int
    audio: np.ndarray          # (n_steps * CHUNK,) float64 on the PCM16 grid
    tactile: np.ndarray        # (n_steps, 16, 16)
    joint_angles: np.ndarray   # (n_steps, 16)
    joint_torques: np.ndarray  # (n_steps, 16)
    true_slip: np.ndarray      # (n_steps,) bool
    dropped: np.ndarray        # (n_steps,) bool

    @property
    def n_steps(self) -> int:
        return len(self.tactile)

    @property
    def t(self) -> np.ndarray:
        """(n_steps,) time at the end of each step: a running sum of SIM_DT."""
        return np.cumsum(np.full(self.n_steps, SIM_DT))

    @property
    def true_max_force(self) -> np.ndarray:
        """(n_steps,) the largest cell of each tactile grid, in N."""
        return self.tactile.reshape(self.n_steps, GRID_ROWS * GRID_COLS).max(axis=1)

    @property
    def true_cell(self) -> np.ndarray:
        """(n_steps, 2) int64 (row, col) of each grid's first largest cell."""
        flat = self.tactile.reshape(self.n_steps, GRID_ROWS * GRID_COLS).argmax(axis=1)
        return np.stack(np.divmod(flat, GRID_COLS), axis=1)

    # every record is on the rig's one clock; these read-only views of it
    # serve readers of a record such as perfbench's shape check
    @property
    def sample_rate(self) -> int:
        return SAMPLE_RATE

    @property
    def dt(self) -> float:
        return SIM_DT


def trial_blocks(material: MaterialParams, motion: MotionProfile, grip_policy,
                 seed: int, streams=None):
    """Render one trial, yielding the rows kept so far after each block.

    `streams` names the streams rendered: every AUDIO_AND_FLAGS stream and
    any of "tactile", "joint_angles" and "joint_torques"; by default every
    stream. `history` and the yielded rows hold these streams alone.

    grip_policy is a fixed torque (float), the command (torque, 1.0) at
    every step, or a callable ``policy(history) -> (torque,
    stiffness_scale)`` invoked once before every step, in order. Before
    step i, `history` maps each stream rendered ("audio" shaped (i, CHUNK))
    to its first i rows: views of the arrays the trial is filling, which
    neither the policy nor the caller of a yield may write. The step index
    i is len(history["audio"]); what a TrialRecord derives from the grid
    (step times, peak force and cell) is not in `history`.
    A block of k steps is rendered ahead under the current command, then
    the policy decides steps i + 1 ... i + k - 1 on the rows that stand.
    Where its command changes, the state is restored and only the steps
    before the change are rendered again, into the same bytes, since a
    block gives the bits of its single steps. k is 1 after a change and
    doubles, up to RENDER_BLOCK, after each block whose command held; a
    fixed torque starts at RENDER_BLOCK and never replays, so its blocks
    save no state to restore.
    A policy may also have a method ``perceive(history, start)``. It is
    then passed each block once, after the block is rendered and before
    any decision over it: `history` holds the first i + k rows, and rows
    start = i onwards are new. Rows past a change of command stay in
    these views until the next block overwrites them, so the decision of
    step j may use only what was perceived of the rows before j. A replay
    is not passed again: it rewrites the rows it keeps with the same
    bytes.
    A block is rendered only when it is pulled, and each generator draws
    in step order, so a trial's first rows do not depend on how far it is
    pulled. `step` writes straight into the trial's arrays, and this is
    the only loop over it.
    """
    n = motion.n_steps
    if n < 1:
        raise ValueError("motion duration must cover at least one step")
    state = initial_state(seed, material)
    accels = motion.accelerations().tolist()
    arrays = step_arrays(n)
    if streams is not None:
        if not set(AUDIO_AND_FLAGS) <= set(streams) <= set(arrays):
            raise ValueError(f"streams must hold {list(AUDIO_AND_FLAGS)} and "
                             f"only names of {sorted(arrays)}, got {list(streams)}")
        arrays = {name: arrays[name] for name in streams}

    def rows(i):
        return {name: a[:i] for name, a in arrays.items()}

    def render(state, i, k, torque, stiffness):
        step(state, material, accels[i:i + k], torque, stiffness_scale=stiffness,
             out={name: a[i:i + k] for name, a in arrays.items()})

    replays = callable(grip_policy)
    if replays:
        def decide(i):
            torque, stiffness = grip_policy(rows(i))
            return torque, stiffness
        k = 1
    else:
        fixed = (float(grip_policy), 1.0)

        def decide(i):
            return fixed
        k = RENDER_BLOCK
    perceive = getattr(grip_policy, "perceive", None)
    i, command = 0, decide(0)
    while i < n:
        k = min(k, n - i)
        if k > 1 and replays:
            saved = replace(state)
            rng_states = [rng.bit_generator.state for rng in state.rngs]
        render(state, i, k, *command)
        if perceive is not None:
            perceive(rows(i + k), i)
        for j in range(1, k + 1):
            new = decide(i + j) if i + j < n else command
            if new != command:
                break
        if j < k:
            # step i + j runs under another command: rewind to the
            # block's start and keep its first j steps
            state = saved
            for rng, rng_state in zip(state.rngs, rng_states):
                rng.bit_generator.state = rng_state
            render(state, i, j, *command)
        i += j
        k = min(2 * k, RENDER_BLOCK) if new == command else 1
        command = new
        yield rows(i)


def run_trial(material: MaterialParams, motion: MotionProfile, grip_policy,
              seed: int, trial_id: str | None = None) -> TrialRecord:
    """Run one full trial and collect the synchronized record: the last
    rows of `trial_blocks(material, motion, grip_policy, seed)`."""
    for arrays in trial_blocks(material, motion, grip_policy, seed):
        pass  # the last yield holds the whole trial
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
        audio=arrays.pop("audio").reshape(-1),
        **arrays,
    )
