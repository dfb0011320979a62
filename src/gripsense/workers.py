"""The program's one pool of worker processes.

`generate` renders its trials here and `active` its runs. Each item is a
pure function of its own arguments, so the results equal a serial loop's.
"""

from __future__ import annotations

import multiprocessing
import os


def map_in_workers(fn, items) -> list:
    """`[fn(item) for item in items]`, computed in a pool of workers
    started by fork, one per CPU this process may run on (at most one per
    item); `items` must not be empty. The workers see the parent's module
    state, a test's monkeypatch included, and `fn` and each item and
    result are pickled.

    The results come back in item order. An item's error is raised here
    with its type and message (the worker's traceback as `__cause__`), and
    the items not yet started are cancelled. No worker outlives the call,
    whether it returns or raises."""
    items = list(items)
    workers = min(len(os.sched_getaffinity(0)), len(items))
    # leaving the block terminates and joins the workers, also on an error
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        return list(pool.imap(fn, items))
