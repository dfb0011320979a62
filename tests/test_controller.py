import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gripsense import controller, dsp, tactile
from gripsense import dataset as ds
from gripsense.controller import (
    EPISODE_COLUMNS,
    ControllerConfig,
    GripState,
    grip_update,
    run_baseline_episode,
    run_reactive_loop,
    write_episode_csv,
)
from gripsense.materials import material_table
from gripsense.models.predictor import FeatureWindow, Prediction, predict
from gripsense.motion import SIM_DT, shaking_profile
from gripsense.simulation import SAMPLE_RATE

TABLE = material_table()


def pred(slip=0.0, force=0.1):
    return Prediction(slip_prob=slip, force_value=force)


class TestGripUpdate:
    def test_slip_raises_torque_one_step(self):
        state = GripState(applied_torque=0.4)
        grip_update(state, pred(slip=0.9), 0.5)
        assert state.applied_torque == pytest.approx(0.5)
        assert state.event_log == [(0.5, "torque_up")]

    def test_torque_saturates_at_max(self):
        state = GripState(applied_torque=1.0)
        grip_update(state, pred(slip=0.9), 0.0)
        assert state.applied_torque == 1.0
        assert not state.event_log  # clamped step is not an event

    def test_relax_decays_to_base_and_stops(self):
        cfg = ControllerConfig()
        state = GripState(applied_torque=0.8)
        torques = []
        for i in range(100):
            grip_update(state, pred(slip=0.0), i * SIM_DT, cfg)
            torques.append(state.applied_torque)
        # flat while the stable counter fills, then a 0.02/step ramp down
        assert torques[:cfg.stable_steps_before_relax] == [0.8] * 20
        assert torques[-1] == pytest.approx(cfg.base_torque)
        assert min(torques) >= cfg.base_torque
        diffs = np.diff(torques)
        assert (diffs <= 1e-12).all()

    def test_stiffen_events_toggle(self):
        state = GripState(applied_torque=0.4)
        grip_update(state, pred(force=0.5), 0.0)
        assert state.stiffness_scale == 2.0
        grip_update(state, pred(force=0.1), SIM_DT)
        assert state.stiffness_scale == 1.0
        kinds = [e for _, e in state.event_log]
        assert kinds == ["stiffen_on", "stiffen_off"]

    @settings(max_examples=60)
    @given(p_low=st.floats(0.0, 1.0), p_high=st.floats(0.0, 1.0),
           torque=st.floats(0.4, 1.0))
    def test_response_monotone_in_slip_probability(self, p_low, p_high,
                                                   torque):
        lo, hi = sorted((p_low, p_high))
        state_lo = GripState(applied_torque=torque)
        state_hi = GripState(applied_torque=torque)
        grip_update(state_lo, pred(slip=lo), 0.0)
        grip_update(state_hi, pred(slip=hi), 0.0)
        assert state_lo.applied_torque <= state_hi.applied_torque + 1e-12

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ControllerConfig(base_torque=1.0, max_torque=0.8)
        with pytest.raises(ValueError):
            ControllerConfig(stable_steps_before_relax=0)


class TestEpisodes:
    def test_empty_container_holds_base_torque(self, classifier, registry):
        log = run_reactive_loop(TABLE["empty"], shaking_profile(4, 16.0, 2.0),
                                classifier, registry, seed=777)
        assert not log.dropped_any
        assert np.all(log.torque_cmd == 0.4)
        assert np.all(log.stiffness == 1.0)

    def test_default_model_before_first_segment(self, classifier, registry):
        log = run_reactive_loop(TABLE["rice"], shaking_profile(6, 18.0, 2.0),
                                classifier, registry, seed=778)
        before = log.record.t < 1.0
        assert all(a == "default" for a, b in zip(log.active_material, before)
                   if b)

    def test_commit_switches_and_latches(self, classifier, registry):
        prof_rng = np.random.default_rng(ds.derive_seed(900, "cereal",
                                                        "rotation", 0, "profile"))
        profile = ds.sample_trial_profile("rotation", prof_rng)
        sim_seed = ds.derive_seed(900, "cereal", "rotation", 0, "sim")
        log = run_reactive_loop(TABLE["cereal"], profile, classifier, registry,
                                seed=sim_seed)
        assert log.active_material[-1] == "cereal"
        assert log.switch_time_s is not None
        assert any(kind == "switch:cereal" for _, kind in log.events)
        flips = sum(1 for a, b in zip(log.active_material,
                                      log.active_material[1:]) if a != b)
        assert flips == 1
        # the default model, replayed on the recorded streams, gives the
        # logged predictions before the switch and not after it
        default = registry.default_models["rotation"]
        W = default.cfg.window
        feats = tactile.features_from_arrays(log.record.tactile,
                                             log.record.joint_angles)
        replayed = np.full(len(log.pred_force), np.nan)
        window = FeatureWindow(W, feats.shape[1])
        for i, frame in enumerate(feats[:-1]):
            window.push(frame)  # step i + 1's window: feats[i + 1 - W:i + 1]
            if window.full:
                replayed[i + 1] = predict(default, window).force_value
        pre = np.array([a == "default" for a in log.active_material])
        assert np.isfinite(log.pred_force[pre]).any()
        assert np.array_equal(replayed[pre], log.pred_force[pre], equal_nan=True)
        post = ~pre & np.isfinite(log.pred_force)
        assert post.any()
        assert not np.array_equal(replayed[post], log.pred_force[post])

    def test_same_seed_reproduces_log(self, classifier, registry):
        profile = shaking_profile(5, 19.0, 2.0)
        a = run_reactive_loop(TABLE["gummies"], profile, classifier, registry,
                              seed=52)
        b = run_reactive_loop(TABLE["gummies"], profile, classifier, registry,
                              seed=52)
        assert np.array_equal(a.torque_cmd, b.torque_cmd)
        assert np.array_equal(a.slip_prob, b.slip_prob, equal_nan=True)
        assert np.array_equal(a.pred_force, b.pred_force, equal_nan=True)
        assert a.active_material == b.active_material
        assert a.events == b.events

    def test_baseline_episode_is_constant_torque(self):
        log = run_baseline_episode(TABLE["rice"], shaking_profile(3, 18.0, 2.0),
                                   0.7, seed=5)
        assert np.all(log.torque_cmd == 0.7)
        assert np.all(np.isnan(log.slip_prob))
        assert all(a == "default" for a in log.active_material)

    def test_torque_up_events_stamp_the_raised_step(self, classifier, registry):
        # the event of a raise is logged at the time of the first step that
        # runs with the raised torque
        log = run_reactive_loop(TABLE["rice"], shaking_profile(6, 18.0, 2.0),
                                classifier, registry, seed=778)
        ups = [t for t, kind in log.events if kind == "torque_up"]
        raised = np.flatnonzero(np.diff(log.torque_cmd) > 0) + 1
        assert ups
        assert ups == [i * SIM_DT for i in raised]

    def test_episode_runs_under_the_config_in_force(self, monkeypatch,
                                                     classifier, registry):
        # the policy reads controller.CONFIG when the episode starts and
        # hands it to every grip_update, thresholds included
        profile = shaking_profile(6, 18.0, 2.0)
        log = run_reactive_loop(TABLE["rice"], profile, classifier, registry,
                                seed=778)
        assert any(kind == "torque_up" for _, kind in log.events)
        monkeypatch.setattr(controller, "CONFIG",
                            ControllerConfig(slip_threshold_prob=1.1))
        log = run_reactive_loop(TABLE["rice"], profile, classifier, registry,
                                seed=778)
        assert not any(kind == "torque_up" for _, kind in log.events)

    def test_prediction_warmup_is_nan(self, classifier, registry):
        log = run_reactive_loop(TABLE["rice"], shaking_profile(4, 18.0, 2.0),
                                classifier, registry, seed=53)
        w = registry.default_models["shaking"].cfg.window
        assert np.isnan(log.slip_prob[:w]).all()
        assert np.isfinite(log.slip_prob[w:]).all()


def spied_cereal_episode(monkeypatch, classifier, registry):
    """A reactive episode that commits to cereal mid-run. Returns copies of
    the newest history rows the policy was given, in order, (rows given so
    far, input) for every predict and mfcc call of the controller, and the
    episode's log."""
    seen, windows, segments = [], [], []
    run_trial, predict, mfcc = controller.run_trial, controller.predict, dsp.mfcc

    def spy_run_trial(material, motion, policy, seed, **kwargs):
        def spy_policy(history):
            if len(history["t"]):
                seen.append({name: a[-1].copy() for name, a in history.items()})
            return policy(history)
        return run_trial(material, motion, spy_policy, seed, **kwargs)

    def spy_predict(model, window):
        windows.append((len(seen), np.array(window.frames)))
        return predict(model, window)

    def spy_mfcc(samples):
        segments.append((len(seen), samples.copy()))
        return mfcc(samples)

    monkeypatch.setattr(controller, "run_trial", spy_run_trial)
    monkeypatch.setattr(controller, "predict", spy_predict)
    monkeypatch.setattr(dsp, "mfcc", spy_mfcc)
    prof_rng = np.random.default_rng(ds.derive_seed(900, "cereal", "rotation",
                                                    0, "profile"))
    profile = ds.sample_trial_profile("rotation", prof_rng)
    log = run_reactive_loop(TABLE["cereal"], profile, classifier, registry,
                            seed=ds.derive_seed(900, "cereal", "rotation", 0, "sim"))
    assert log.switch_time_s is not None
    return seen, windows, segments, log


class TestOnlineInputs:
    def test_online_windows_equal_offline_features(self, monkeypatch,
                                                   classifier, registry):
        seen, windows, _, _ = spied_cereal_episode(monkeypatch, classifier,
                                                   registry)
        offline = tactile.features_from_arrays(
            np.stack([o["tactile"] for o in seen]),
            np.stack([o["joint_angles"] for o in seen]))
        W = registry.default_models["rotation"].cfg.window
        assert len(windows) == len(seen) - W + 1
        for n, window in windows:
            assert np.array_equal(window, offline[n - W:n])

    def test_classifier_audio_is_last_second_of_stream(self, monkeypatch,
                                                       classifier, registry):
        # the classifier hears the trial's own PCM16 audio, as in training
        _, _, segments, log = spied_cereal_episode(monkeypatch, classifier,
                                                   registry)
        seg_samples = round(dsp.SEGMENT_S * SAMPLE_RATE)
        chunk = round(SIM_DT * SAMPLE_RATE)
        assert segments
        for n, samples in segments:
            assert np.array_equal(
                samples, log.record.audio[n * chunk - seg_samples:n * chunk])


class TestEpisodeCsv:
    def test_round_trip(self, tmp_path, classifier, registry):
        log = run_reactive_loop(TABLE["vitamins"], shaking_profile(3, 18.0, 2.0),
                                classifier, registry, seed=54)
        path = tmp_path / "episode.csv"
        write_episode_csv(log, path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert tuple(rows[0]) == EPISODE_COLUMNS
        back = dict(zip(rows[0], zip(*rows[1:])))
        rec = log.record

        def floats(name):
            return np.array([float(v) for v in back[name]])

        def flags(name):
            return np.array([int(v) for v in back[name]], dtype=bool)

        assert np.array_equal(floats("t"), rec.t)
        assert np.array_equal(floats("torque_cmd"), log.torque_cmd)
        assert np.array_equal(floats("stiffness"), log.stiffness)
        assert np.array_equal(floats("slip_prob"), log.slip_prob, equal_nan=True)
        assert np.array_equal(floats("pred_force"), log.pred_force, equal_nan=True)
        assert np.array_equal(flags("true_slip"), rec.true_slip)
        assert np.array_equal(floats("true_max_force"), rec.true_max_force)
        assert list(back["active_material"]) == log.active_material
        assert np.array_equal(flags("dropped"), rec.dropped)
