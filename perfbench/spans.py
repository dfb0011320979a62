"""In-memory span tracing installed from outside the program.

A `Tracer` wraps public functions of the gripsense layers at the module
attributes their callers look up, records one span per call (name,
start/end from `perf_counter_ns`, parent span, operation id) and restores
every wrapped attribute when the traced block ends. Nothing under `src/`
knows about it; with no tracer installed the program runs unwrapped.

The analysis helpers (`self_times`, `tail_percentile`) work on plain span
lists so they can be tested on synthetic spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass

# Beside its median, a timing reports the highest of these percentiles that
# still has at least TAIL_MIN_BEYOND samples above it.
PERCENTILE_LADDER = (90.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: int | None

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns


def _select_model_hook(tracer, args, kwargs, result, before):
    registry = args[0] if args else kwargs["registry"]
    tracer.count("registry.fallbacks", len(registry.fallback_events) - before)


def _select_model_before(args, kwargs):
    registry = args[0] if args else kwargs["registry"]
    return len(registry.fallback_events)


def _predict_batch_hook(tracer, args, kwargs, result, before):
    X = args[1] if len(args) > 1 else kwargs["X"]
    tracer.count("predictor.batch_windows", len(X))


def _episode_hook(tracer, args, kwargs, result, before):
    tracer.count("controller.episodes")
    if result.switch_time_s is not None:
        tracer.count("controller.commits")


def _active_hook(tracer, args, kwargs, result, before):
    tracer.count("inference.active_runs")
    tracer.count("inference.segments", result.segments_used)


# (module, attribute, span name, hooks). The attribute is the name the
# caller looks up: `cli` imports `run_reactive_loop`, `predict_batch` and
# calls its own `load_models`; `controller` and `inference` import
# `classify`, `predict`, `select_model` by name; `dataset` imports
# `features_from_arrays`; everyone reaches dsp through the module.
WRAP_POINTS = (
    ("gripsense.simulation", "step", "simulation.step", None),
    ("gripsense.dataset", "write_trial", "dataset.write_trial", None),
    ("gripsense.dataset", "read_trial", "dataset.read_trial", None),
    ("gripsense.dataset", "read_trial_audio", "dataset.read_trial_audio", None),
    ("gripsense.dataset", "features_from_arrays", "tactile.features_from_arrays", None),
    ("gripsense.dsp", "mfcc", "dsp.mfcc", None),
    ("gripsense.dsp", "pitch_shift", "dsp.pitch_shift", None),
    ("gripsense.dsp", "add_noise", "dsp.add_noise", None),
    ("gripsense.models.classifier", "classify", "classifier.classify", None),
    ("gripsense.controller", "classify", "classifier.classify", None),
    ("gripsense.inference", "classify", "classifier.classify", None),
    ("gripsense.models.classifier", "MaterialClassifier.loss_and_grad",
     "classifier.step", None),
    ("gripsense.controller", "predict", "predictor.predict", None),
    ("gripsense.cli", "predict_batch", "predictor.predict_batch",
     (None, _predict_batch_hook)),
    ("gripsense.models.predictor", "SlipPredictor.loss_and_grad",
     "predictor.step", None),
    ("gripsense.controller", "grip_update", "controller.grip_update", None),
    ("gripsense.controller", "select_model", "registry.select_model",
     (_select_model_before, _select_model_hook)),
    ("gripsense.cli", "load_models", "serialize.load_models", None),
    ("gripsense.cli", "run_reactive_loop", "controller.episode",
     (None, _episode_hook)),
    ("gripsense.inference", "run_active_loop", "inference.active_run",
     (None, _active_hook)),
    ("gripsense.inference", "select_motion", "inference.select_motion", None),
    ("gripsense.inference", "update_posterior", "inference.update_posterior", None),
)


def _resolve(module_name: str, attr: str):
    """(owner object, final attribute name) for 'name' or 'Class.name'."""
    owner = importlib.import_module(module_name)
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last


class Tracer:
    """Span recorder. Spans live in memory until `write` is called."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._open: dict[int, tuple[str, int, int | None, int | None]] = {}
        self._next_sid = 0
        self._next_op = 0
        self._op: int | None = None

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def open(self, name: str) -> int:
        sid = self._next_sid
        self._next_sid += 1
        parent = self._stack[-1] if self._stack else None
        self._open[sid] = (name, time.perf_counter_ns(), parent, self._op)
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        end = time.perf_counter_ns()
        name, start, parent, op = self._open.pop(sid)
        self._stack.pop()
        self.spans.append(Span(sid, name, start, end, parent, op))

    @contextmanager
    def operation(self, name: str):
        """One benchmark operation (trial read, CLI invocation): a root span
        whose id every span opened inside it shares."""
        outer = self._op
        self._op = self._next_op
        self._next_op += 1
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)
            self._op = outer

    def _wrap(self, fn, name: str, hooks):
        before_hook, after_hook = hooks or (None, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = before_hook(args, kwargs) if before_hook else None
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if after_hook:
                after_hook(self, args, kwargs, result, before)
            return result

        return traced

    @contextmanager
    def installed(self, points=WRAP_POINTS):
        """Wrap every point for the duration of the block, then put the
        original objects back."""
        saved = []
        try:
            for module_name, attr, name, hooks in points:
                owner, last = _resolve(module_name, attr)
                original = owner.__dict__[last]
                saved.append((owner, last, original))
                setattr(owner, last, self._wrap(original, name, hooks))
            yield self
        finally:
            for owner, last, original in reversed(saved):
                setattr(owner, last, original)

    def write(self, path) -> None:
        """Spans and counters as one JSON document."""
        doc = {
            "fields": ["sid", "name", "start_ns", "end_ns", "parent", "op"],
            "spans": [[s.sid, s.name, s.start_ns, s.end_ns, s.parent, s.op]
                      for s in self.spans],
            "counters": self.counters,
        }
        with open(path, "w") as f:
            json.dump(doc, f)


def _covered_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of [lo, hi) covered by the union of the intervals."""
    total, cursor = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the part of it covered by child spans."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    return {s.sid: s.dur_ns - _covered_ns(children.get(s.sid, []),
                                          s.start_ns, s.end_ns)
            for s in spans}


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """Samples ranked strictly above the q-th percentile's position."""
    return n - 1 - int((n - 1) * q / 100.0)


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """(q, value) for the highest ladder percentile with at least
    TAIL_MIN_BEYOND samples beyond it; None when not even p90 has that
    many, so only the median can be reported."""
    n = len(values)
    qs = [q for q in PERCENTILE_LADDER if n and samples_beyond(n, q) >= TAIL_MIN_BEYOND]
    if not qs:
        return None
    return qs[-1], percentile(values, qs[-1])


def inside(spans: list[Span], name: str) -> dict[int, int | None]:
    """Span id -> id of its nearest ancestor span called name, or None."""
    by_id = {s.sid: s for s in spans}
    found: dict[int, int | None] = {}

    def lookup(sid: int | None) -> int | None:
        if sid is None:
            return None
        if sid not in found:
            s = by_id[sid]
            found[sid] = sid if s.name == name else lookup(s.parent)
        return found[sid]

    return {s.sid: lookup(s.parent) for s in spans}


def decision_gaps(spans: list[Span]):
    """Per reactive episode, the host time between consecutive
    simulation.step spans, and that gap minus the predict / classify /
    mfcc spans inside it. Returns (gaps_ns, policy_self_ns)."""
    episode_of = inside(spans, "controller.episode")
    steps: dict[int, list[Span]] = {}
    inner: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        ep = episode_of[s.sid]
        if ep is None:
            continue
        if s.name == "simulation.step":
            steps.setdefault(ep, []).append(s)
        elif s.name in ("predictor.predict", "classifier.classify", "dsp.mfcc"):
            inner.setdefault(ep, []).append((s.start_ns, s.end_ns))
    gaps, policy_self = [], []
    for ep, ep_steps in steps.items():
        ep_steps.sort(key=lambda s: s.start_ns)
        for a, b in zip(ep_steps, ep_steps[1:]):
            gap = b.start_ns - a.end_ns
            gaps.append(gap)
            policy_self.append(
                gap - _covered_ns(inner.get(ep, []), a.end_ns, b.start_ns))
    return gaps, policy_self
