"""Span arithmetic, the tail-percentile rule and wrapper restoration."""

import importlib

import pytest

from spans import (PERCENTILE_LADDER, TAIL_MIN_BEYOND, WRAP_POINTS, Span,
                   Tracer, _resolve, decision_gaps, percentile, self_times,
                   tail_percentile)


def span(sid, name, start, end, parent=None):
    return Span(sid, name, start, end, parent, op=0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, "root", 0, 100),
        span(1, "a", 10, 30, 0),
        span(2, "b", 40, 70, 0),
        span(3, "b.inner", 45, 50, 2),
    ]
    assert self_times(spans) == {0: 50, 1: 20, 2: 25, 3: 5}


def test_self_time_counts_overlapping_children_once():
    spans = [span(0, "root", 0, 100), span(1, "a", 10, 30, 0),
             span(2, "b", 20, 40, 0), span(3, "c", 90, 120, 0)]
    # children cover [10, 40) and [90, 100) of the root
    assert self_times(spans)[0] == 100 - 30 - 10


def test_decision_gaps_subtract_model_calls_inside_the_gap():
    spans = [
        span(0, "controller.episode", 0, 1000),
        span(1, "simulation.step", 0, 100, 0),
        span(2, "predictor.predict", 130, 170, 0),
        span(3, "controller.grip_update", 180, 190, 0),
        span(4, "simulation.step", 200, 300, 0),
        span(5, "simulation.step", 310, 400, 0),
        span(6, "simulation.step", 500, 600),  # outside any episode
    ]
    gaps, policy_self = decision_gaps(spans)
    assert sorted(gaps) == [10, 100]
    assert sorted(policy_self) == [10, 60]


@pytest.mark.parametrize("n", [1, 19, 91, 92, 100, 500, 909, 910, 1000, 5000, 100000])
def test_tail_percentile_is_highest_with_ten_samples_beyond(n):
    values = [float(i) for i in range(n)]
    cuts = {q: percentile(values, q) for q in PERCENTILE_LADDER}
    beyond = {q: sum(v > cut for v in values) for q, cut in cuts.items()}
    allowed = [q for q in PERCENTILE_LADDER if beyond[q] >= TAIL_MIN_BEYOND]
    tail = tail_percentile(values)
    if not allowed:
        assert tail is None
    else:
        assert tail == (max(allowed), cuts[max(allowed)])


def test_tail_percentile_examples():
    assert tail_percentile([float(i) for i in range(91)]) is None
    assert tail_percentile([float(i) for i in range(92)])[0] == 90.0
    assert tail_percentile([float(i) for i in range(100)])[0] == 90.0
    assert tail_percentile([float(i) for i in range(1000)])[0] == 99.0
    assert tail_percentile([float(i) for i in range(10000)])[0] == 99.9


def _current(point):
    module_name, attr, _, _ = point
    owner, last = _resolve(module_name, attr)
    return owner.__dict__[last]


def test_wrappers_are_restored_by_identity_even_on_error():
    originals = [_current(p) for p in WRAP_POINTS]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert all(_current(p) is not o for p, o in zip(WRAP_POINTS, originals))
            raise RuntimeError("boom")
    assert all(_current(p) is o for p, o in zip(WRAP_POINTS, originals))


def test_wrapped_call_records_span_and_hook_counters():
    dsp = importlib.import_module("gripsense.dsp")
    import numpy as np
    seg = dsp.AudioSegment(np.zeros(16000), "t", 0.0)
    tracer = Tracer()
    with tracer.installed():
        with tracer.operation("op"):
            dsp.mfcc(seg)
    names = [s.name for s in tracer.spans]
    assert names == ["dsp.mfcc", "op"]
    mfcc, op = tracer.spans
    assert mfcc.parent == op.sid and mfcc.op == op.op == 0
