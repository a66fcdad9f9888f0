"""The package's one way to use a second core: ``map_chunks``.

It sits below ``layers`` so that a layer's backward, the optimizer and the
inference paths can all share it. Its users: ``DegradationNetwork.backward``,
which opens one ``one_worker`` block around its tape walk, so that the splits
of ``Linear``, ``Conv1d`` and ``FeatureAttention`` backward share one worker;
``Adam.step``; and inference, through ``training.map_windows``. A worker is a
one-thread ``concurrent.futures.ThreadPoolExecutor`` whose thread is named
``tddn-lane_0``; it starts on the first call that splits, never at import.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from typing import Callable, Iterator, TypeVar

T = TypeVar("T")

# the open ``one_worker`` block of each thread: ``open``, and its ``worker``
# once a call has started one
_scope = threading.local()


def cpu_lanes() -> int:
    """Threads ``map_chunks`` may use: one per CPU this process may run on, at most 2."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return min(2, cpus)


@contextmanager
def one_worker() -> Iterator[None]:
    """Until the block exits, every two-lane ``map_chunks`` call on this thread uses one worker.

    The worker starts on the first such call, so a block in which nothing
    splits starts no thread, and it is shut down, its thread joined, when the
    block exits, also on an error. Inside an open block of the same thread
    this adds nothing.
    """
    if getattr(_scope, "open", False):
        yield
        return
    _scope.open, _scope.worker = True, None
    try:
        yield
    finally:
        worker, _scope.open, _scope.worker = _scope.worker, False, None
        if worker is not None:
            worker.shutdown()


def map_chunks(fn: Callable[[slice], T], n: int, size: int) -> list[T]:
    """``fn`` of each ``size``-long slice of ``range(n)``, in order.

    With more than one chunk and two usable CPUs, the caller runs the lower
    half of the chunks while one worker thread runs the upper half; the
    call returns or re-raises only once the worker is done with it. The
    worker is that of the ``one_worker`` block open on this thread, or,
    outside any block, one started for this call and shut down before it
    returns, so no thread outlives the block or the call. The chunks are
    those of the serial path, so ``fn`` sees the same inputs either way; it
    must not write what the other lane's chunks read. Its users keep to
    that: inference goes through ``training.map_windows``, whose
    ``DegradationNetwork.predict`` and ``trace`` write nothing;
    ``Adam.step``'s chunks are disjoint; and the two tasks of a split layer
    backward (``layers.split_backward``) write different arrays.
    """
    chunks = [slice(start, start + size) for start in range(0, n, size)]
    half = len(chunks) // 2
    if half == 0 or cpu_lanes() < 2:
        return [fn(chunk) for chunk in chunks]
    with one_worker():
        if _scope.worker is None:
            _scope.worker = ThreadPoolExecutor(1, thread_name_prefix="tddn-lane")
        upper = _scope.worker.submit(lambda: [fn(chunk) for chunk in chunks[half:]])
        try:
            lower = [fn(chunk) for chunk in chunks[:half]]
        except BaseException:
            # the worker may still be reading what the caller's error unwinds;
            # an error of its own gives way to the caller's
            wait([upper])
            raise
        return lower + upper.result()
