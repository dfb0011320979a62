"""On a tiny configuration, every workload passes its checks, gives one
digest across rounds, and a traced run reproduces the untraced digests
while restoring every wrapped attribute."""

import pytest

import run
from spans import WRAP_POINTS, _resolve
from workloads import TINY, WORKLOADS, Tally


def _current(point):
    module_name, attr, _, _ = point
    owner, last = _resolve(module_name, attr)
    return owner.__dict__[last]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_matches_untraced_digests(name, tmp_path):
    originals = [_current(p) for p in WRAP_POINTS]
    workload = WORKLOADS[name](seed=3, sizes=TINY)
    tally = Tally()
    metrics, rounds, _, _ = run.run_traced(workload, tmp_path / "work", 0.0, tally,
                                           tmp_path / "spans.json")
    assert tally.errors == []
    assert tally.failed == 0 and tally.attempted > 0
    # untraced rounds first, then traced ones; all give one digest
    assert len(rounds) == 2 * workload.min_rounds
    assert rounds[0].digest and {r.digest for r in rounds} == {rounds[0].digest}
    assert all(_current(p) is o for p, o in zip(WRAP_POINTS, originals))
    assert (tmp_path / "spans.json").stat().st_size > 0
    assert metrics["trace.overhead_share"][0] > 0


def test_untraced_rounds_repeat_their_digest(tmp_path):
    workload = WORKLOADS["collect"](seed=5, sizes=TINY)
    tally = Tally()
    metrics, rounds, _, _ = run.run_untraced(workload, tmp_path, 0.0, tally)
    again = workload.run_round(tmp_path, tally)
    assert tally.failed == 0
    assert rounds[0].digest == again.digest
    assert metrics["stage1_per_s"][0] > 0 and metrics["stage2_per_s"][0] > 0
