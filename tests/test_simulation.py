import hashlib

import numpy as np
import pytest

from gripsense import dataset as ds
from gripsense.materials import material_table
from gripsense.motion import SIM_DT, LEVER_ARM_M, MotionProfile, rotation_profile, shaking_profile
from gripsense import simulation
from gripsense.simulation import (
    BURST_DECAYS,
    BURST_GROUP,
    DROP_THRESHOLD,
    ECHO_DELAY_DECAYS,
    FRICTION_MU,
    GRAVITY,
    IMPACT_AMP_COEFF,
    MAX_GRIP_TORQUE,
    MAX_STIFFNESS_SCALE,
    PCM16_FULL_SCALE,
    RENDER_BLOCK,
    SAMPLE_RATE,
    SLIP_RATE,
    TORQUE_TO_NORMAL,
    TRIAL_ARRAYS,
    _BASE_PATTERN,
    _add_bursts,
    initial_state,
    run_trial,
    step,
    step_arrays,
)
from oracles import impact_burst, on_pcm16_grid, records_equal, single_step_trial

TABLE = material_table()
# the materials whose particles sound
IMPACT_MATERIALS = sorted(name for name, m in TABLE.items() if m.particle_count)


def fixed_shake(peak=18.0, count=3):
    return shaking_profile(count, peak, 2.0)


def rng_states(state):
    """The bit-generator states of a SimState's three generators."""
    return [rng.bit_generator.state for rng in state.rngs]


class TestMotionProfiles:
    def test_shaking_velocity_cancels(self):
        p = fixed_shake()
        assert abs(float(p.samples.sum())) < 1e-9
        assert float(np.max(np.abs(p.samples))) == pytest.approx(18.0)
        assert p.n_steps == len(p.samples) - 1

    def test_rotation_acceleration_formula(self):
        p = rotation_profile(0.8, 1.5, 2.0)
        omega = 2.0 * np.pi * 1.5
        want = -LEVER_ARM_M * omega**2 * p.samples[:-1]
        assert np.allclose(p.accelerations(), want)

    @pytest.mark.parametrize("builder,args", [
        (shaking_profile, (0, 10.0, 2.0)),
        (shaking_profile, (3, -1.0, 2.0)),
        (shaking_profile, (3, 10.0, 0.0)),
        (rotation_profile, (0.0, 1.0, 2.0)),
        (rotation_profile, (0.5, 1.0, -1.0)),
    ])
    def test_profile_validation(self, builder, args):
        with pytest.raises(ValueError):
            builder(*args)


class TestStep:
    def test_slip_boundary(self):
        # at torque 0.4 the grip supplies mu * 25 * 0.4 = 6 N of friction
        m = TABLE["rice"]
        available = FRICTION_MU * TORQUE_TO_NORMAL * 0.4
        a_star = available / m.total_mass - GRAVITY
        for factor, expect in ((0.95, False), (1.05, True)):
            out = step(initial_state(7, m), m, a_star * factor, 0.4)
            assert bool(out["true_slip"][-1]) is expect

    def test_stiffness_scales_normal_force(self):
        m = TABLE["rice"]
        soft = step(initial_state(7, m), m, 0.0, 0.4,
                    stiffness_scale=1.0)["tactile"][-1]
        stiff = step(initial_state(7, m), m, 0.0, 0.4,
                     stiffness_scale=2.0)["tactile"][-1]
        assert stiff.sum() > 1.9 * soft.sum() * 0.5
        # same torque, doubled stiffness: grid carries twice the normal force
        ratio = (stiff.sum() - m.total_mass * 9.81) / \
                (soft.sum() - m.total_mass * 9.81)
        assert ratio == pytest.approx(2.0, rel=0.01)

    def test_grid_sum_equals_normal_plus_load(self):
        m = TABLE["gummies"]
        state = initial_state(3, m)
        for accel in (0.0, 8.0, -12.0):
            out = step(state, m, accel, 0.7)
            normal = TORQUE_TO_NORMAL * 0.7
            load = m.total_mass * abs(accel + GRAVITY)
            total = float(out["tactile"][-1].sum())
            assert total == pytest.approx(normal + load, rel=0.01)

    def test_full_grip_holds_static_load(self):
        m = TABLE["rice"]
        state = initial_state(11, m)
        for _ in range(100):
            out = step(state, m, 0.0, 1.0)
            assert not out["true_slip"][-1]
        assert state.slip_displacement == 0.0

    @pytest.mark.parametrize("kwargs", [
        dict(motion_accel=np.nan),
        dict(grip_torque=-0.1),
        dict(grip_torque=1.2),
        dict(grip_torque=np.nan),
        dict(motion_accel=[[0.0, 1.0]]),
        dict(stiffness_scale=np.inf),
        dict(stiffness_scale=-0.5),
        dict(stiffness_scale=MAX_STIFFNESS_SCALE * 1.25),
        dict(motion_accel=[0.0, 4.0, np.inf, 1.0]),
    ])
    def test_input_validation(self, kwargs):
        m = TABLE["rice"]
        args = dict(motion_accel=0.0, grip_torque=0.5, stiffness_scale=1.0)
        args.update(kwargs)
        with pytest.raises(ValueError):
            step(initial_state(0, m), m, **args)

    def test_non_finite_block_step_is_named_and_state_untouched(self):
        m = TABLE["rice"]
        state = initial_state(0, m)
        before = rng_states(state)
        with pytest.raises(ValueError, match="step 3 of the block"):
            step(state, m, [0.0, 1.0, 2.0, np.nan, 0.0], 0.5)
        assert (state.slip_displacement, state.contents_offset) == (0.0, 0.0)
        assert len(before) == 3 and rng_states(state) == before

    def test_block_step_ends_with_the_last_single_step(self):
        m = TABLE["cereal"]
        accels = [0.0, 15.0, -12.0, 30.0]
        state = initial_state(6, m)
        for a in accels:
            single = step(state, m, a, 0.4, stiffness_scale=2.0)
        block_state = initial_state(6, m)
        block = step(block_state, m, accels, 0.4, stiffness_scale=2.0)
        assert len(block["tactile"]) == len(accels) and len(single["tactile"]) == 1
        for name in ("tactile", "joint_angles", "joint_torques", "audio"):
            assert np.array_equal(block[name][-1], single[name][-1])
        last = ("true_slip", "dropped")
        assert [block[name][-1].tolist() for name in last] == \
            [single[name][-1].tolist() for name in last]
        assert (block_state.slip_displacement, block_state.contents_offset) == \
            (state.slip_displacement, state.contents_offset)
        assert np.array_equal(block_state.audio_tail, state.audio_tail)

    def test_audio_rows_sit_on_pcm16_grid(self):
        # loud enough to clip: the grid includes full scale
        m = TABLE["rice"]
        accels = [0.0, 40.0, -60.0, 80.0, 25.0]
        state = initial_state(4, m)
        singles = [step(state, m, a, 0.2)["audio"] for a in accels]
        block = step(initial_state(4, m), m, accels, 0.2)["audio"]
        assert np.array_equal(np.concatenate(singles), block)
        assert on_pcm16_grid(block) and block.any()

    @pytest.mark.parametrize("name", sorted(TABLE))
    @pytest.mark.parametrize("k", [1, 2, 7, 100])
    @pytest.mark.parametrize("torque,stiffness", [
        (0.0, 1.0), (0.4, 1.0), (1.0, 1.0), (0.4, 2.0)])
    def test_blocks_match_one_draw_per_call(self, name, k, torque, stiffness):
        # 150 steps of shaking with steps 40-59 at rest, in blocks of k, each
        # against k single steps: at torque 0.0 the container drops
        # mid-trial, and some blocks hold zeros or are all zeros
        m = TABLE[name]
        accels = fixed_shake(peak=25.0).accelerations()[:150].tolist()
        accels[40:60] = [0.0] * 20
        state, single = initial_state(5, m), initial_state(5, m)
        for i in range(0, len(accels), k):
            block = accels[i:i + k]
            got = step(state, m, block, torque, stiffness_scale=stiffness)
            steps = [step(single, m, a, torque, stiffness_scale=stiffness)
                     for a in block]
            for field in got:
                want = np.concatenate([out[field] for out in steps])
                assert got[field].dtype == want.dtype
                assert got[field].tobytes() == want.tobytes(), (field, i)
            assert state.audio_tail.tobytes() == single.audio_tail.tobytes()
            assert (state.slip_displacement, state.contents_offset,
                    state.dropped) == (single.slip_displacement,
                                       single.contents_offset, single.dropped)
            assert rng_states(state) == rng_states(single)
        assert state.dropped is (torque == 0.0)

    @pytest.mark.parametrize("name", sorted(TABLE))
    def test_audio_and_flags_block_draws_as_a_full_block(self, name):
        # a block whose `out` holds only the audio and the flags gives the
        # full block's audio and flags and leaves the state and all three
        # generators where the full block does, so the next block is the same
        m = TABLE[name]
        accels = fixed_shake(peak=25.0).accelerations()[:200]
        full, lean = initial_state(5, m), initial_state(5, m)
        want = step(full, m, accels[:100], 0.4)
        out = {field: a for field, a in step_arrays(100).items()
               if field in ("audio", "true_slip", "dropped")}
        got = step(lean, m, accels[:100], 0.4, out=out)
        assert got is out and set(got) == {"audio", "true_slip", "dropped"}
        for field in got:
            assert got[field].tobytes() == want[field].tobytes(), field
        assert lean.audio_tail.tobytes() == full.audio_tail.tobytes()
        assert (lean.slip_displacement, lean.contents_offset, lean.dropped) == \
            (full.slip_displacement, full.contents_offset, full.dropped)
        assert rng_states(lean) == rng_states(full)
        after_full = step(full, m, accels[100:], 0.4)
        after_lean = step(lean, m, accels[100:], 0.4)
        for field in after_full:
            assert after_lean[field].tobytes() == after_full[field].tobytes(), field

    def test_contact_pattern_is_shared_read_only(self):
        pattern = _BASE_PATTERN
        assert pattern.sum() == pytest.approx(1.0)
        with pytest.raises(ValueError):
            pattern[0, 0] = 1.0


class TestTrials:
    def test_same_seed_reproduces_bit_for_bit(self):
        p = fixed_shake()
        a = run_trial(TABLE["rice"], p, 0.4, 42, trial_id="x")
        b = run_trial(TABLE["rice"], p, 0.4, 42, trial_id="x")
        assert records_equal(a, b)

    def test_different_seed_changes_audio_only_streams(self):
        p = fixed_shake()
        a = run_trial(TABLE["rice"], p, 0.4, 1, trial_id="x")
        b = run_trial(TABLE["rice"], p, 0.4, 2, trial_id="x")
        assert not np.array_equal(a.audio, b.audio)
        # physics is seed-independent: slip labels and forces match
        assert np.array_equal(a.true_slip, b.true_slip)
        assert np.array_equal(a.true_max_force, b.true_max_force)

    def test_noise_does_not_depend_on_impacts(self):
        # at the strongest grip nothing slips, so a trial's joint angles are
        # its pose plus its noise stream: the same for every material,
        # whatever impacts each one draws
        rng = np.random.default_rng(ds.derive_seed(0, "rice", "shaking", 0, "profile"))
        motion = ds.sample_trial_profile("shaking", rng)
        records = [run_trial(TABLE[name], motion, MAX_GRIP_TORQUE, 7)
                   for name in sorted(TABLE)]
        assert len(records) == 5
        assert not any(rec.true_slip.any() for rec in records)
        assert len({rec.audio.tobytes() for rec in records}) == 5
        assert len({rec.joint_angles.tobytes() for rec in records}) == 1

    def test_slip_flags_match_coulomb_model(self):
        p = fixed_shake(peak=20.0)
        rec = run_trial(TABLE["rice"], p, 0.4, 5)
        accels = p.accelerations()
        m = TABLE["rice"].total_mass
        required = m * np.abs(accels + GRAVITY)
        available = (FRICTION_MU
                     * TORQUE_TO_NORMAL * 0.4)
        was_dropped = np.concatenate([[False], rec.dropped[:-1]])
        want = (required > available) & ~was_dropped
        assert np.array_equal(rec.true_slip, want)
        assert rec.true_slip.any()

    def test_dropped_is_absorbing_and_silences_load(self):
        p = fixed_shake(peak=60.0, count=6)
        rec = run_trial(TABLE["rice"], p, 0.0, 9)
        assert rec.dropped.any()
        first = int(np.argmax(rec.dropped))
        assert rec.dropped[first:].all()
        assert not rec.true_slip[first + 1:].any()
        # after the drop the grid carries no load at zero torque
        assert rec.tactile[first + 1:].sum() == 0.0

    def test_zero_grip_fall_time(self):
        # slip velocity at zero grip is slip_rate * g, so the drop lands at
        # drop_threshold / (slip_rate * g) = 0.2548 s for every material
        expect = DROP_THRESHOLD / (SLIP_RATE
                                                  * GRAVITY)
        p = MotionProfile("shaking", 0.5, np.zeros(101), 1.0, 2.0, 1)
        for name in ("rice", "empty"):
            rec = run_trial(TABLE[name], p, 0.0, 3)
            t_drop = float(rec.t[np.argmax(rec.dropped)])
            assert abs(t_drop - expect) <= SIM_DT

    def test_gentle_shake_holds_at_collection_torque(self):
        gentle = shaking_profile(3, 10.0, 2.0)
        rec = run_trial(TABLE["rice"], gentle, 0.4, 21)
        assert not rec.true_slip.any()
        assert not rec.dropped.any()

    def test_empty_container_records_noise_only(self):
        p = fixed_shake()
        rec = run_trial(TABLE["empty"], p, 0.4, 13)
        assert float(np.max(np.abs(rec.audio))) < 1e-3

    def test_audio_energy_ranks_by_particle_count(self):
        # motions energetic enough that even the 30-particle class fires a
        # steady impact stream; torque 0.9 keeps every material slip-free
        order = ("rice", "cereal", "vitamins", "gummies", "empty")
        for motion in (shaking_profile(6, 30.0, 2.0),
                       rotation_profile(1.2, 2.5, 2.0)):
            for seed in range(20):
                energies = [float(np.sum(run_trial(TABLE[n], motion, 0.9,
                                                   seed).audio ** 2))
                            for n in order]
                assert energies == sorted(energies, reverse=True), \
                    f"seed {seed} on {motion.kind}"

    def test_policy_tuple_controls_stiffness(self):
        p = fixed_shake(peak=5.0, count=2)

        def policy(history):
            return (0.4, 2.0)

        rec = run_trial(TABLE["rice"], p, policy, 4)
        base = run_trial(TABLE["rice"], p, 0.4, 4)
        assert rec.tactile.sum() > base.tactile.sum()

    def test_audio_sits_on_pcm16_grid(self):
        rec = run_trial(TABLE["cereal"], fixed_shake(), 0.4, 8)
        assert on_pcm16_grid(rec.audio)

    @pytest.mark.parametrize("name", sorted(TABLE))
    @pytest.mark.parametrize("motion", [fixed_shake(),
                                        rotation_profile(0.7, 1.7, 3.0)])
    def test_fixed_torque_blocks_equal_single_steps(self, name, motion):
        # a fixed torque renders in blocks of RENDER_BLOCK steps, the oracle
        # one step per decision: both give the same record, dtypes included
        assert motion.n_steps > RENDER_BLOCK
        for seed in (0, 1):
            blocks = run_trial(TABLE[name], motion, 0.4, seed)
            steps = single_step_trial(TABLE[name], motion,
                                      lambda history: (0.4, 1.0), seed)
            assert records_equal(blocks, steps)

    def test_dropping_trial_blocks_equal_single_steps(self):
        # 247 steps: two full render blocks and a partial one
        motion = rotation_profile(1.2, 2.5, 1.235)
        assert motion.n_steps % RENDER_BLOCK != 0
        blocks = run_trial(TABLE["rice"], motion, 0.0, 17)
        steps = single_step_trial(TABLE["rice"], motion,
                                  lambda history: (0.0, 1.0), 17)
        assert blocks.dropped.any() and not blocks.dropped[0]
        assert records_equal(blocks, steps)

    def test_fixed_grip_blocks_render_lazily_and_keep_the_prefix(self, monkeypatch):
        # 506 steps: five full render blocks and a partial one
        motion = rotation_profile(0.7, 1.7, 2.53)
        assert motion.n_steps % RENDER_BLOCK != 0
        rec = run_trial(TABLE["gummies"], motion, 0.4, 21)
        calls = spy_step_calls(monkeypatch)
        blocks = simulation.trial_blocks(TABLE["gummies"], motion, 0.4, 21)
        assert calls == []
        for b in range(1, 3):
            rows = next(blocks)
            # a block is rendered only when it is pulled
            end = b * RENDER_BLOCK
            assert calls == [(i, RENDER_BLOCK) for i in range(0, end, RENDER_BLOCK)]
            assert set(rows) == set(step_arrays(0))
            for name, _, _ in TRIAL_ARRAYS:
                assert rows[name].dtype == getattr(rec, name).dtype
                assert np.array_equal(rows[name], getattr(rec, name)[:end])
            assert np.array_equal(rows["audio"].reshape(-1),
                                  rec.audio[:end * simulation.CHUNK])
        *_, last = blocks
        # a constant command starts at full blocks and never replays
        assert calls == list(zip(range(0, motion.n_steps, RENDER_BLOCK),
                                 [RENDER_BLOCK] * 5 + [6]))
        assert all(len(a) == motion.n_steps for a in last.values())
        assert np.array_equal(last["audio"].reshape(-1), rec.audio)

    @pytest.mark.parametrize("streams", [
        ("audio", "true_slip"),
        ("audio", "true_slip", "dropped", "tactle"),
    ])
    def test_streams_are_checked(self, streams):
        blocks = simulation.trial_blocks(TABLE["rice"], fixed_shake(), 0.4, 1,
                                         streams=streams)
        with pytest.raises(ValueError, match="streams must hold"):
            next(blocks)

    def test_audio_and_flags_trial_keeps_the_record_bytes(self):
        # 506 steps of a dropping trial at a fixed grip, rows asked for
        # without the grid and joint streams
        motion = rotation_profile(1.2, 2.5, 2.53)
        rec = run_trial(TABLE["rice"], motion, 0.0, 17)
        *_, rows = simulation.trial_blocks(TABLE["rice"], motion, 0.0, 17,
                                           streams=simulation.AUDIO_AND_FLAGS)
        assert set(rows) == {"audio", "true_slip", "dropped"}
        assert rec.dropped.any()
        assert rows["audio"].reshape(-1).tobytes() == rec.audio.tobytes()
        assert rows["true_slip"].tobytes() == rec.true_slip.tobytes()
        assert rows["dropped"].tobytes() == rec.dropped.tobytes()

    def test_policy_sees_the_rows_written_so_far(self):
        motion = rotation_profile(0.9, 2.0, 0.8)
        chunk = round(SIM_DT * SAMPLE_RATE)
        newest = []

        def policy(history):
            i = len(newest)
            assert set(history) == set(step_arrays(0))
            assert all(len(a) == i for a in history.values())
            newest.append({name: a[-1].copy() for name, a in history.items()}
                          if i else None)
            return (0.3, 1.0)

        rec = run_trial(TABLE["cereal"], motion, policy, 12)
        assert len(newest) == rec.n_steps == motion.n_steps
        for i, rows in enumerate(newest[1:]):
            for name, _, _ in TRIAL_ARRAYS:
                assert np.array_equal(rows[name], getattr(rec, name)[i]), name
            assert np.array_equal(rows["audio"],
                                  rec.audio[i * chunk:(i + 1) * chunk])


def first_step(out) -> int:
    """The step index of the first row of `out`, the views of a trial's
    arrays that the trial loop passes `step`: the byte offset of its one-byte
    flag row into the whole flag array."""
    flags = out["dropped"]
    return flags.ctypes.data - flags.base.ctypes.data


def spy_step_calls(monkeypatch):
    """Record (first step index, block length) of every `simulation.step`
    call; the trial loop looks `step` up at each call."""
    calls = []
    original = simulation.step

    def spy(state, material, motion_accel, *args, **kwargs):
        calls.append((first_step(kwargs["out"]), np.size(motion_accel)))
        return original(state, material, motion_accel, *args, **kwargs)

    monkeypatch.setattr(simulation, "step", spy)
    return calls


def scripted_policy(changes):
    """A policy whose command at step i is changes[i], else the last one."""
    decided = []

    def policy(history):
        i = len(history["tactile"])
        assert i == len(decided), "one call per step, in order"
        decided.append(changes.get(i, decided[-1] if decided else None))
        return decided[-1]

    return policy


class TestRenderAhead:
    """A policy-driven trial renders ahead in blocks and replays from the
    block's start where the command changes; the record must equal the
    one-step-per-decision oracle's bit for bit."""

    def test_constant_policy(self, monkeypatch):
        motion = shaking_profile(5, 18.0, 2.0)
        assert motion.n_steps == 500
        calls = spy_step_calls(monkeypatch)
        rec = run_trial(TABLE["cereal"], motion, lambda history: (0.4, 1.0), 3)
        # blocks of 1, 2, 4, ..., 64, then 100, 100, 100 and the last 73
        assert [k for _, k in calls] == [1, 2, 4, 8, 16, 32, 64, 100, 100, 100, 73]
        monkeypatch.undo()
        assert records_equal(rec, single_step_trial(
            TABLE["cereal"], motion, lambda history: (0.4, 1.0), 3))

    def test_policy_blocks_render_only_what_is_pulled(self, monkeypatch):
        motion = shaking_profile(5, 18.0, 2.0)

        def policy(history):
            return (0.4, 1.0)

        rec = run_trial(TABLE["cereal"], motion, policy, 3)
        calls = spy_step_calls(monkeypatch)
        blocks = simulation.trial_blocks(TABLE["cereal"], motion, policy, 3)
        assert calls == []
        for want in ([(0, 1)], [(0, 1), (1, 2)]):
            rows = next(blocks)
            assert calls == want
            end = sum(k for _, k in calls)
            assert all(len(a) == end for a in rows.values())
            assert np.array_equal(rows["tactile"], rec.tactile[:end])
            assert np.array_equal(rows["audio"].reshape(-1),
                                  rec.audio[:end * simulation.CHUNK])

    def test_scripted_changes(self, monkeypatch):
        motion = rotation_profile(0.9, 2.0, 1.5)
        n = motion.n_steps
        # changes at steps 1, 2 and 3; at 66, where a block opens after the
        # block 34..65 held; at 100, inside the block 97..128, whose steps
        # 97..99 are rendered again; and at the last step, inside the final
        # block 227..299
        changes = {0: (0.4, 1.0), 1: (0.5, 1.0), 2: (0.5, 2.0), 3: (0.6, 1.0),
                   66: (0.3, 2.0), 100: (0.45, 1.0), n - 1: (0.7, 1.0)}
        calls = spy_step_calls(monkeypatch)
        rec = run_trial(TABLE["rice"], motion, scripted_policy(changes), 5)
        assert calls[:4] == [(0, 1), (1, 1), (2, 1), (3, 1)]
        assert (34, 32) in calls and (66, 1) in calls
        assert [c for c in calls if c[0] in (97, 100)] == [(97, 32), (97, 3), (100, 1)]
        assert calls[-3:] == [(227, 73), (227, 72), (n - 1, 1)]
        monkeypatch.undo()
        assert records_equal(rec, single_step_trial(
            TABLE["rice"], motion, scripted_policy(changes), 5))

    def test_perceive_gets_each_rendered_block_once(self, monkeypatch):
        # the scripted changes of test_scripted_changes; a replay rewrites
        # rows already perceived, so it is not passed again
        motion = rotation_profile(0.9, 2.0, 1.5)
        changes = {0: (0.4, 1.0), 1: (0.5, 1.0), 66: (0.3, 2.0),
                   100: (0.45, 1.0), motion.n_steps - 1: (0.7, 1.0)}
        policy = scripted_policy(changes)
        decided, perceived, rows = [], [], {}

        def perceive(history, start):
            stop = len(history["tactile"])
            assert len(decided) == start + 1  # before deciding over it
            perceived.append((start, stop - start))
            for i in range(start, stop):
                rows[i] = history["tactile"][i].copy()

        def decide(history):
            i = len(history["tactile"])
            # the row before the step has been perceived, as it now stands
            assert i == 0 or np.array_equal(rows[i - 1], history["tactile"][-1])
            decided.append(i)
            return policy(history)

        decide.perceive = perceive
        calls = spy_step_calls(monkeypatch)
        rec = run_trial(TABLE["rice"], motion, decide, 5)
        replays = [c for prev, c in zip(calls, calls[1:]) if prev[0] == c[0]]
        assert replays and perceived == [c for c in calls if c not in replays]
        assert np.array_equal(np.stack([rows[i] for i in range(rec.n_steps)]),
                              rec.tactile)

    def test_replayed_rows_sit_on_pcm16_grid(self, monkeypatch):
        # every block `step` renders is on the grid, replays included, and
        # its rows that the trial keeps are the record's bytes
        motion = rotation_profile(0.9, 2.0, 1.5)
        changes = {0: (0.4, 1.0), 66: (0.3, 2.0), 100: (0.45, 1.0)}
        rendered = []
        original = simulation.step

        def spy(state, *args, **kwargs):
            start = first_step(kwargs["out"])
            out = original(state, *args, **kwargs)
            rendered.append((start, out["audio"].copy()))
            return out

        monkeypatch.setattr(simulation, "step", spy)
        rec = run_trial(TABLE["rice"], motion, scripted_policy(changes), 5)
        audio = rec.audio.reshape(-1, simulation.CHUNK)
        kept = dict(rendered)  # the last block rendered from each start
        assert len(kept) < len(rendered)  # some blocks were replayed
        for start, rows in rendered:
            assert on_pcm16_grid(rows)
            n = len(kept[start])
            assert np.array_equal(rows[:n], audio[start:start + n])

    def test_policy_changing_every_step(self, monkeypatch):
        motion = shaking_profile(5, 18.0, 2.0)
        n = motion.n_steps

        def alternating(history):
            return (0.4 if len(history["tactile"]) % 2 else 0.6, 1.0)

        calls = spy_step_calls(monkeypatch)
        rec = run_trial(TABLE["gummies"], motion, alternating, 8)
        assert calls == [(i, 1) for i in range(n)]
        monkeypatch.undo()
        assert records_equal(rec, single_step_trial(TABLE["gummies"], motion,
                                                    alternating, 8))

    def test_policy_reading_history(self):
        motion = shaking_profile(4, 25.0, 2.0)

        def make_policy(seen, commands):
            def policy(history):
                i = len(history["tactile"])
                if i:
                    seen.append(history["tactile"][-1].copy())
                slipped = i and history["true_slip"][-10:].any()
                stiff = i and history["tactile"][-1].max() > 0.3
                commands.append((0.6 if slipped else 0.25, 2.0 if stiff else 1.0))
                return commands[-1]
            return policy

        seen, commands = [], []
        rec = run_trial(TABLE["rice"], motion, make_policy(seen, commands), 21)
        want = single_step_trial(TABLE["rice"], motion, make_policy([], []), 21)
        assert records_equal(rec, want)
        assert len(set(commands)) >= 3
        assert np.array_equal(np.array(seen), rec.tactile[:-1])

    def test_dropping_trial_with_changes(self):
        motion = rotation_profile(1.2, 2.5, 1.235)

        def policy(history):
            return (0.1 * ((len(history["tactile"]) // 37) % 2), 1.0)

        rec = run_trial(TABLE["vitamins"], motion, policy, 17)
        assert rec.dropped.any() and not rec.dropped[0]
        assert records_equal(rec, single_step_trial(TABLE["vitamins"], motion,
                                                    policy, 17))


class TestBursts:
    @pytest.mark.parametrize("name", IMPACT_MATERIALS)
    def test_bursts_follow_the_float64_formula(self, name):
        # The sine runs on float32 over an angle in [0, 2 pi): the angle
        # rounds by at most half a float32 ulp there (2^-22 rad), and the
        # float32 sine errs by at most 4 ulps of a value below 1 (2^-22);
        # each burst is therefore within 2^-21 times its amplitude times
        # its envelope (at most 1 + restitution) of the float64 formula.
        mat = TABLE[name]
        rng = np.random.default_rng(sorted(TABLE).index(name))
        n_events = 3 * BURST_GROUP + 5  # three full groups and a partial one
        starts = np.sort(rng.integers(0, 4000, n_events))
        freqs = mat.impact_centroid_hz + mat.impact_bandwidth_hz * (
            rng.random(n_events) - 0.5)
        phases = 2.0 * np.pi * rng.random(n_events)
        amps = IMPACT_AMP_COEFF * rng.uniform(0.0, 21.0, n_events)
        ref, cover = np.zeros((2, 6000))
        for s, f, ph, amp in zip(starts, freqs, phases, amps):
            burst = impact_burst(f, ph, amp, mat.impact_decay_s, mat.restitution,
                                 SAMPLE_RATE, BURST_DECAYS, ECHO_DELAY_DECAYS)
            ref[s:s + len(burst)] += burst
            cover[s:s + len(burst)] += amp * (1.0 + mat.restitution)
        buf = np.zeros_like(ref)
        _add_bursts(buf, starts, freqs, phases, amps, mat)
        assert np.all(np.abs(buf - ref) <= 2.0 ** -21 * cover)
        # on the PCM16 grid trial storage writes, no sample moves by more
        # than one step
        steps = [np.rint(np.clip(x, -1.0, 1.0) * PCM16_FULL_SCALE)
                 for x in (buf, ref)]
        assert np.max(np.abs(steps[0])) > 1000
        assert np.max(np.abs(steps[0] - steps[1])) <= 1

    # each impact material's grip torque for a shaking trial that drops,
    # and the SHA-256 of that trial's tactile, joint, slip and drop bytes,
    # taken while the burst sine still ran on float64: the sine may move
    # the audio alone
    DROPPING = {
        "cereal": (0.1, "f91f93aff7ef65aba3d63f573612f958"
                        "3448fe1b25d07dccb27e45564fc199d1"),
        "gummies": (0.15, "488b355b8b511267531e0d65935b2b28"
                          "3e9137df34636f5b25fecde407f8c504"),
        "rice": (0.15, "bedad8c960dbbeaa8faa2bd70fa62968"
                       "841cd9eb6215831fd9c983c62e884b23"),
        "vitamins": (0.15, "95645e56175fe4a020464349ac72ef70"
                           "1d576fccf16ba25aa52c0dc9154e57b6"),
    }

    @pytest.mark.parametrize("name", IMPACT_MATERIALS)
    def test_dropping_trial_keeps_its_haptic_bytes(self, name):
        torque, digest = self.DROPPING[name]
        rec = run_trial(TABLE[name], shaking_profile(5, 18.5, 2.0), torque, 15)
        assert rec.dropped[-1] and not rec.dropped[0]
        h = hashlib.sha256()
        for field, _, _ in TRIAL_ARRAYS:
            h.update(getattr(rec, field).tobytes())
        assert h.hexdigest() == digest
