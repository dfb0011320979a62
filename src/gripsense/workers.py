"""The program's one way to spread work over processes.

`generate` renders its trials here and `active` its runs. Each item is a
pure function of its own arguments, so the results equal a serial loop's.
"""

from __future__ import annotations

import mmap
import os
import pickle
import traceback


class _SharedCounter:
    """An index that this process and the children it forks share: 8
    bytes of anonymous shared memory, read and written only while holding
    the lock, a one-byte token in a pipe that a process holds from its
    read to its write."""

    def __init__(self):
        self._cell = mmap.mmap(-1, 8)  # MAP_SHARED: forked children see it
        self._token_read, self._token_write = os.pipe()
        os.write(self._token_write, b"\0")

    def _swap(self, new) -> int:
        """Replace the value by new(value) under the lock; return the old."""
        os.read(self._token_read, 1)
        try:
            value = int.from_bytes(self._cell[:8], "little")
            self._cell[:8] = new(value).to_bytes(8, "little")
        finally:
            os.write(self._token_write, b"\0")
        return value

    def take(self) -> int:
        """The next index: the value, which is then incremented."""
        return self._swap(lambda value: value + 1)

    def move_to(self, end: int) -> None:
        self._swap(lambda value: end)

    def close(self) -> None:
        self._cell.close()
        os.close(self._token_read)
        os.close(self._token_write)


class WorkerTraceback(Exception):
    """The formatted traceback of a failing item, set as the `__cause__` of
    the error `map_in_workers` raises for it."""

    def __str__(self) -> str:
        return self.args[0]


def map_in_workers(fn, items) -> list:
    """`[fn(item) for item in items]`, computed by this process and by
    children it forks, one process per CPU this process may run on and at
    most one per item; with one CPU or one item nothing is forked. Every
    process takes the next item index from one shared counter, this
    process its first before it forks, so that it computes one at least. The
    children see this process's module state, a test's monkeypatch
    included, since `fn` and the items reach them by fork; only the
    results the children compute are pickled, and one that does not pickle
    is an error of its item.

    The results come back in item order. An error is raised here with its
    type and message (its formatted traceback as `__cause__`); when more
    than one item fails, the lowest index wins. The first error cancels
    the items not yet started. No child outlives the call, whether it
    returns or raises, an interrupt included."""
    items = list(items)
    counter = _SharedCounter()
    pipes = {}  # child pid -> the read end of the pipe it reports through
    try:
        first = counter.take()  # before any child can, however fast it starts
        for _ in range(min(len(os.sched_getaffinity(0)), len(items)) - 1):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                for pipe in pipes.values():  # so that only the caller reads
                    pipe.close()
                os.close(read_end)
                _report(write_end, fn, items, counter)
            os.close(write_end)
            pipes[pid] = open(read_end, "rb")
        results, error = _take(fn, items, counter, first,
                               lambda index, result: result)
        errors = [error]
        for pid, pipe in pipes.items():
            payload = pipe.read()
            if not payload:
                raise ChildProcessError(f"worker {pid} exited before "
                                        "reporting its items")
            pairs, error = pickle.loads(payload)
            results.update((index, pickle.loads(blob)) for index, blob in pairs)
            errors.append(error)
    finally:
        counter.move_to(len(items))
        for pipe in pipes.values():  # a child still writing gets EPIPE
            pipe.close()
        for pid in pipes:
            os.waitpid(pid, 0)
        counter.close()
    errors = [e for e in errors if e is not None]
    if errors:
        _, exc, text = min(errors, key=lambda e: e[0])
        raise exc from WorkerTraceback(text)
    return [results[index] for index in range(len(items))]


def _take(fn, items, counter, index, encode):
    """Compute item `index`, then the items in the order `counter` hands
    them out, until none is left or this process's first error. Returns
    {index: encode(index, result)} and that error as (index, exception,
    formatted traceback), or None; the error moves the counter past the
    last item."""
    results = {}
    while index < len(items):
        try:
            results[index] = encode(index, fn(items[index]))
        except Exception as exc:
            counter.move_to(len(items))
            return results, (index, exc, traceback.format_exc())
        index = counter.take()
    return results, None


def _pickled(index, result) -> bytes:
    try:
        return pickle.dumps(result)
    except Exception as exc:
        raise pickle.PicklingError(f"item {index}: its result cannot be "
                                   f"sent from a worker: {exc}") from exc


def _report(write_end, fn, items, counter):
    """A child's whole life: compute its share, write its pickled
    ([(index, pickled result), ...], error) to `write_end` and leave
    without returning to the caller's stack. A child whose pipe the caller
    has closed exits at its write."""
    code = 1
    try:
        results, error = _take(fn, items, counter, counter.take(), _pickled)
        with open(write_end, "wb") as pipe:
            pipe.write(pickle.dumps((list(results.items()), error)))
        code = 0
    finally:
        os._exit(code)
