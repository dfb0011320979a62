"""Per-layer metrics from the spans of traced rounds.

Each metric names the layer module it measures. Timings are per call
(medians, with the tail percentile and sample count in the note); counts
are per round. A timing that no traced round has comes from the traced
set-up: in control, the set-up is where training runs. A layer that
neither exercises reports 0 with n=0.
Which end-to-end metric each one should move, on which workload, is
listed in perfbench/README.md.
"""

from __future__ import annotations

import statistics
from pathlib import Path

from spans import (Span, Tracer, decision_gaps, inside, percentile, self_times,
                   tail_percentile)
from workloads import dir_bytes_per_trial

US, MS = 1e3, 1e6  # ns per unit


def describe(values: list[float]) -> str:
    """median, the highest percentile with >= 10 samples beyond it, n."""
    if not values:
        return "n=0"
    text = f"median {statistics.median(values):.4g}"
    tail = tail_percentile(values)
    if tail is not None:
        text += f", p{tail[0]:g} {tail[1]:.4g}"
    return text + f", n={len(values)}"


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_table(spans: list[Span]) -> list[tuple[str, int, float, float]]:
    """(span name, calls, total ms, self ms) per span name, by self time."""
    selfs = self_times(spans)
    rows: dict[str, list] = {}
    for s in spans:
        row = rows.setdefault(s.name, [0, 0, 0])
        row[0] += 1
        row[1] += s.dur_ns
        row[2] += selfs[s.sid]
    return sorted(((name, n, total / MS, own / MS)
                   for name, (n, total, own) in rows.items()),
                  key=lambda r: -r[3])


def _by_name(spans: list[Span]) -> dict[str, list[Span]]:
    out: dict[str, list[Span]] = {}
    for s in spans:
        out.setdefault(s.name, []).append(s)
    return out


def per_layer_metrics(tracer: Tracer, n_rounds: int, rounds, setup_dataset: Path,
                      overhead_share: float, setup_tracer: Tracer | None = None
                      ) -> dict[str, tuple[float, str, str]]:
    """Every per-layer metric as (value, unit, note). A per-call timing that
    no traced round has comes from the traced set-up, if it has one, and its
    note says so; counts are always per traced round. Trial bytes come from
    the rounds' datasets, else from the set-up dataset, if there is one."""
    spans = tracer.spans
    by_name = _by_name(spans)
    setup = setup_tracer or Tracer()
    setup_by_name = _by_name(setup.spans)

    def origin(name: str):
        """(spans by name, counters, note suffix) that hold calls of name."""
        if name in by_name or name not in setup_by_name:
            return by_name, tracer.counters, ""
        return setup_by_name, setup.counters, " (traced set-up)"

    metrics: dict[str, tuple[float, str, str]] = {}

    def timing(metric: str, name: str, unit: str, scale: float) -> None:
        spans_of, _, where = origin(name)
        values = [s.dur_ns / scale for s in spans_of.get(name, [])]
        metrics[metric] = (_median(values), unit, describe(values) + where)

    def count(metric: str, total: float, unit: str = "count") -> None:
        metrics[metric] = (total / n_rounds, unit,
                           f"{total:g} over {n_rounds} traced round(s)")

    def counter(name: str) -> int:
        return tracer.counters.get(name, 0)

    timing("simulation.step_us", "simulation.step", "us", US)
    count("simulation.step_calls", len(by_name.get("simulation.step", [])))

    timing("dataset.write_trial_ms", "dataset.write_trial", "ms", MS)
    trial_bytes = [r.trial_bytes for r in rounds if r.trial_bytes]
    source = "measured rounds' datasets"
    if not trial_bytes and setup_dataset.is_dir():
        trial_bytes, source = [dir_bytes_per_trial(setup_dataset)], "set-up dataset"
    metrics["dataset.trial_bytes"] = (_median(trial_bytes), "bytes", source)
    timing("dataset.read_trial_ms", "dataset.read_trial", "ms", MS)
    timing("dataset.read_trial_audio_ms", "dataset.read_trial_audio", "ms", MS)
    timing("tactile.features_from_arrays_ms", "tactile.features_from_arrays", "ms", MS)

    timing("dsp.mfcc_us", "dsp.mfcc", "us", US)
    count("dsp.mfcc_calls", len(by_name.get("dsp.mfcc", [])))
    spans_of, _, where = origin("dsp.pitch_shift")
    shifts = spans_of.get("dsp.pitch_shift", [])
    augment_ns = sum(s.dur_ns for s in shifts + spans_of.get("dsp.add_noise", []))
    metrics["dsp.augment_us"] = (augment_ns / US / len(shifts) if shifts else 0.0, "us",
                                 f"pitch_shift + add_noise per variant, "
                                 f"n={len(shifts)}{where}")

    timing("classifier.classify_us", "classifier.classify", "us", US)
    count("classifier.classify_calls", len(by_name.get("classifier.classify", [])))
    timing("classifier.step_ms", "classifier.step", "ms", MS)

    timing("predictor.predict_us", "predictor.predict", "us", US)
    count("predictor.predict_calls", len(by_name.get("predictor.predict", [])))
    spans_of, counters, where = origin("predictor.predict_batch")
    windows = counters.get("predictor.batch_windows", 0)
    batches = spans_of.get("predictor.predict_batch", [])
    metrics["predictor.batch_us_per_window"] = (
        sum(s.dur_ns for s in batches) / US / windows if windows else 0.0, "us",
        f"{windows} windows in {len(batches)} calls{where}")
    timing("predictor.step_ms", "predictor.step", "ms", MS)

    gaps, policy_self = decision_gaps(spans)
    gaps_us = [g / US for g in gaps]
    metrics["controller.decision_us_p50"] = (_median(gaps_us), "us", describe(gaps_us))
    p99_note = describe(gaps_us)
    if gaps_us and (tail_percentile(gaps_us) or (0,))[0] < 99:
        p99_note += " (fewer than 10 samples beyond p99)"
    metrics["controller.decision_us_p99"] = (
        percentile(gaps_us, 99.0) if gaps_us else 0.0, "us", p99_note)
    own_us = [g / US for g in policy_self]
    metrics["controller.policy_self_us"] = (_median(own_us), "us", describe(own_us))
    timing("controller.grip_update_us", "controller.grip_update", "us", US)
    episodes, commits = counter("controller.episodes"), counter("controller.commits")
    episode_of = inside(spans, "controller.episode")
    online = sum(episode_of[s.sid] is not None
                 for s in by_name.get("classifier.classify", []))
    metrics["controller.commit_share"] = (
        commits / episodes if episodes else 0.0, "ratio",
        f"{commits} of {episodes} episodes committed to a material")
    metrics["controller.classify_per_commit"] = (
        online / commits if commits else 0.0, "calls",
        f"{online} online classify calls, {commits} commits")
    count("registry.fallbacks", counter("registry.fallbacks"))

    timing("inference.select_motion_us", "inference.select_motion", "us", US)
    timing("inference.update_posterior_us", "inference.update_posterior", "us", US)
    runs = counter("inference.active_runs")
    metrics["inference.segments_per_run"] = (
        counter("inference.segments") / runs if runs else 0.0, "segments",
        f"{counter('inference.segments')} segments in {runs} runs")

    timing("serialize.load_models_ms", "serialize.load_models", "ms", MS)
    metrics["trace.overhead_share"] = (overhead_share, "ratio",
                                       "median traced / untraced round wall time")
    return metrics
