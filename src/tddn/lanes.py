"""The package's one way to use a second core: ``map_chunks``.

It sits below ``layers`` so that a layer's backward (``layers.split_backward``),
``Adam.step`` and inference (``training.map_windows``) can all share it. Each
calling thread has at most one lane worker, a one-thread
``concurrent.futures.ThreadPoolExecutor`` (thread ``tddn-lane_0``): it starts on
that thread's first call that splits, never at import, and lives as long as
the thread. ``concurrent.futures`` joins the main thread's at interpreter
exit, and a forked child starts a fresh one.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, TypeVar

T = TypeVar("T")

# each calling thread's lane worker, once its first two-lane call started it
_lane = threading.local()


def _forget_worker() -> None:
    # a forked child inherits the forking thread's executor but not its
    # thread, so a call would wait forever on it
    _lane.worker = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


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
    half of the chunks while the calling thread's lane worker runs the upper
    half; the call returns or re-raises only once the worker is done with
    it. A call made on a lane worker uses that thread's own worker, so a
    nested call cannot wait on itself. The chunks are those of the serial
    path, so ``fn`` sees the same inputs either way; it must not write what
    the other lane's chunks read. Its users keep to that: inference goes
    through ``training.map_windows``, whose ``DegradationNetwork.predict``,
    ``trace`` and ``trace_rows`` write nothing; ``Adam.step``'s chunks are
    disjoint; and the two tasks of a split layer backward
    (``layers.split_backward``) write different arrays.
    """
    chunks = [slice(start, start + size) for start in range(0, n, size)]
    half = len(chunks) // 2
    if half == 0 or cpu_lanes() < 2:
        return [fn(chunk) for chunk in chunks]
    worker = getattr(_lane, "worker", None)
    if worker is None:
        worker = _lane.worker = ThreadPoolExecutor(1, thread_name_prefix="tddn-lane")
    upper = worker.submit(lambda: [fn(chunk) for chunk in chunks[half:]])
    try:
        lower = [fn(chunk) for chunk in chunks[:half]]
        return lower + upper.result()
    except BaseException:
        # the worker may still be reading what the caller's error unwinds,
        # also when the caller is interrupted in ``result()``; an error of
        # its own gives way to the caller's
        wait([upper])
        raise
