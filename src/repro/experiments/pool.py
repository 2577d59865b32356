"""An in-order map over worker processes for the ``--jobs`` options.

The two ``--jobs`` commands, ``repro fig5`` and ``repro steady-state``,
map their sweep cells (``fig5_cell_job``, ``steady_cell_job``) through
here.  The cells are pure functions of picklable params, and
``Executor.map`` yields results in submission order, so ``--jobs N``
prints the same bytes as the serial run.  A cell that raises fails
the command with the worker's traceback.
"""

from __future__ import annotations

import argparse
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, List, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def ordered_map(fn: Callable[[T], R], items: Iterable[T],
                jobs: int) -> List[R]:
    """``[fn(x) for x in items]``, over ``jobs`` worker processes.

    Runs in this process when ``jobs <= 1``.  Workers are spawned, not
    forked, so ``fn`` and the items must be picklable and ``fn``
    importable by name.
    """
    items = list(items)
    if jobs <= 1 or not items:
        return [fn(item) for item in items]
    context = multiprocessing.get_context("spawn")
    pool = ProcessPoolExecutor(min(jobs, len(items)), mp_context=context)
    try:
        return list(pool.map(fn, items))
    finally:
        # A raising cell fails the call at once: cells not yet started
        # are cancelled, not run.
        pool.shutdown(cancel_futures=True)


def worker_count(text: str) -> int:
    """argparse type of every ``--jobs`` option: an int >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value
