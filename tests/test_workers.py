"""The contract of `workers.map_in_workers`: item order, which process
computes what, errors, cancellation, interrupts and reaping. Most tests
pretend to have two CPUs, so that one child is forked on any host."""

import multiprocessing
import os
import pickle
import signal
import time

import pytest

from gripsense import workers

from conftest import assert_no_child_process

FORK = multiprocessing.get_context("fork")


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture
def deadline():
    """Turn a hang into a failure: SIGALRM after 60 s raises in the
    caller (a forked child inherits no alarm)."""
    def expire(signum, frame):
        raise TimeoutError("map_in_workers did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def square_and_pid(i):
    return i * i, os.getpid()


def test_results_in_item_order(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    results = workers.map_in_workers(square_and_pid, range(40))
    assert [value for value, _ in results] == [i * i for i in range(40)]
    assert_no_child_process()


def test_one_cpu_runs_every_item_in_the_caller(monkeypatch):
    def no_fork():
        raise AssertionError("forked with one CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", no_fork)
    results = workers.map_in_workers(square_and_pid, range(5))
    assert results == [(i * i, os.getpid()) for i in range(5)]


def test_empty_items_give_an_empty_list():
    def never(item):
        raise AssertionError("called without items")

    assert workers.map_in_workers(never, []) == []


def test_caller_and_child_share_the_items(two_cpus, deadline):
    # the caller's item waits until a child has taken one, so both compute
    caller, child_started = os.getpid(), FORK.Event()

    def fn(i):
        if os.getpid() == caller:
            assert child_started.wait(30)
        else:
            child_started.set()
        return os.getpid()

    pids = workers.map_in_workers(fn, range(2))
    assert caller in pids and len(set(pids)) == 2
    assert_no_child_process()


@pytest.mark.parametrize("side", ["child", "caller"])
def test_an_error_keeps_type_message_and_traceback(two_cpus, deadline, side):
    caller, child_started = os.getpid(), FORK.Event()

    def fn(i):
        in_caller = os.getpid() == caller
        if in_caller:
            assert child_started.wait(30)
        else:
            child_started.set()
        if in_caller == (side == "caller"):
            raise LookupError(f"{side} failed on {i}")
        return i

    with pytest.raises(LookupError, match=f"^{side} failed on [01]$") as info:
        workers.map_in_workers(fn, range(2))
    cause = info.value.__cause__
    assert isinstance(cause, workers.WorkerTraceback)
    assert "Traceback (most recent call last)" in str(cause)
    assert f"LookupError: {info.value}" in str(cause)
    assert_no_child_process()


def test_lowest_failing_index_wins(two_cpus, deadline):
    # item 1 fails first, but item 0, already started, fails too and wins
    item_1_started = FORK.Event()

    def fn(i):
        if i == 0:
            assert item_1_started.wait(30)
        else:
            item_1_started.set()
        raise ValueError(f"item {i}")

    with pytest.raises(ValueError, match="^item 0$"):
        workers.map_in_workers(fn, range(2))
    assert_no_child_process()


def test_no_item_starts_after_the_first_error(two_cpus, deadline, tmp_path):
    # item 0 fails once item 1 has started; item 1 lasts long enough for
    # the error to cancel items 2-49 before its process takes another
    item_1_started = FORK.Event()

    def fn(i):
        (tmp_path / str(i)).touch()
        if i == 0:
            assert item_1_started.wait(30)
            raise ValueError("item 0")
        if i == 1:
            item_1_started.set()
            time.sleep(0.5)
        return i

    with pytest.raises(ValueError, match="^item 0$"):
        workers.map_in_workers(fn, range(50))
    assert sorted(int(p.name) for p in tmp_path.iterdir()) == [0, 1]
    assert_no_child_process()


def test_unpicklable_result_names_its_item(two_cpus, deadline):
    caller, child_started = os.getpid(), FORK.Event()

    def fn(i):
        if os.getpid() == caller:
            assert child_started.wait(30)
            return i
        child_started.set()
        return lambda: i  # a local function does not pickle

    with pytest.raises(pickle.PicklingError,
                       match="^item [01]: its result cannot be sent"):
        workers.map_in_workers(fn, range(2))
    assert_no_child_process()


def test_interrupt_in_the_caller_reaps_a_blocked_child(two_cpus, deadline):
    # the child's 1 MB result overfills its pipe, which the interrupted
    # caller never reads: closing the pipe has to end the child's write
    caller, child_started = os.getpid(), FORK.Event()

    def fn(i):
        if os.getpid() == caller:
            assert child_started.wait(30)
            time.sleep(0.2)  # the child is now blocked in its write
            raise KeyboardInterrupt
        child_started.set()
        return bytes(1 << 20)

    with pytest.raises(KeyboardInterrupt):
        workers.map_in_workers(fn, range(2))
    assert_no_child_process()
