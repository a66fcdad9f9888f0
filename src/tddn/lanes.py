"""The package's one way to use a second core: ``map_chunks``.

It sits below ``layers`` so that a layer's backward, the optimizer and the
inference paths can all share it.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

T = TypeVar("T")


def cpu_lanes() -> int:
    """Threads ``map_chunks`` may use: one per CPU this process may run on, at most 2."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return min(2, cpus)


def map_chunks(fn: Callable[[slice], T], n: int, size: int) -> list[T]:
    """``fn`` of each ``size``-long slice of ``range(n)``, in order.

    With more than one chunk and two usable CPUs, the caller runs the lower
    half of the chunks while one worker thread, started for this call, runs
    the upper half; the worker is joined before the call returns or
    re-raises, so no thread outlives it. The chunks are those of the serial
    path, so ``fn`` sees the same inputs either way; it must not write what
    the other lane's chunks read. Its users keep to that: inference goes
    through ``training.map_windows``, whose ``DegradationNetwork.predict``
    and ``trace`` write nothing; ``Adam.step``'s chunks are disjoint; and
    ``Linear.backward``'s two tasks write different arrays.
    """
    chunks = [slice(start, start + size) for start in range(0, n, size)]
    half = len(chunks) // 2
    if half == 0 or cpu_lanes() < 2:
        return [fn(chunk) for chunk in chunks]
    # leaving the block joins the worker, also when the lower half raises
    with ThreadPoolExecutor(1, thread_name_prefix="tddn-lane") as worker:
        upper = worker.submit(lambda: [fn(chunk) for chunk in chunks[half:]])
        lower = [fn(chunk) for chunk in chunks[:half]]
        return lower + upper.result()
