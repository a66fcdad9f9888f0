"""The package's one way to use a second core: ``map_chunks``.

It sits below ``layers`` so that a layer's backward, the optimizer and the
inference paths can all share it. Its users: ``DegradationNetwork.backward``,
which opens one ``one_worker`` block around its tape walk, so that the splits
of ``Linear``, ``Conv1d`` and ``FeatureAttention`` backward share one worker;
``Adam.step``; and inference, through ``training.map_windows``.
"""

from __future__ import annotations

import os
import queue
import threading
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


class _Job:
    """``fn()``, run once on a worker; ``result`` waits for it."""

    __slots__ = ("_fn", "_done", "_value", "_error")

    def __init__(self, fn: Callable[[], object]):
        self._fn = fn
        self._error: BaseException | None = None
        # held from here until the worker has run fn
        self._done = threading.Lock()
        self._done.acquire()

    def __call__(self) -> None:
        try:
            self._value = self._fn()
        except BaseException as exc:  # re-raised on the caller's thread by result()
            self._error = exc
        finally:
            self._done.release()

    def wait(self) -> None:
        """Block until the worker has run ``fn``."""
        with self._done:
            pass

    def result(self) -> object:
        """What ``fn`` returned, once it has run; what it raised is raised here."""
        self.wait()
        if self._error is not None:
            raise self._error
        return self._value


class Worker:
    """One ``tddn-lane`` thread that runs the jobs handed to it, in order, until ``join``."""

    def __init__(self) -> None:
        self._jobs: queue.SimpleQueue[_Job | None] = queue.SimpleQueue()
        self._thread = threading.Thread(target=self._serve, name="tddn-lane", daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while (job := self._jobs.get()) is not None:
            job()

    def submit(self, fn: Callable[[], object]) -> _Job:
        job = _Job(fn)
        self._jobs.put(job)
        return job

    def join(self) -> None:
        """Let the thread finish the jobs it was handed, then end it."""
        self._jobs.put(None)
        self._thread.join()


@contextmanager
def one_worker() -> Iterator[None]:
    """Until the block exits, every two-lane ``map_chunks`` call on this thread uses one worker.

    The worker starts on the first such call, so a block in which nothing
    splits starts no thread, and it is joined when the block exits, also on
    an error. Inside an open block of the same thread this adds nothing.
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
            worker.join()


def map_chunks(fn: Callable[[slice], T], n: int, size: int) -> list[T]:
    """``fn`` of each ``size``-long slice of ``range(n)``, in order.

    With more than one chunk and two usable CPUs, the caller runs the lower
    half of the chunks while one worker thread runs the upper half; the
    call returns or re-raises only once the worker is done with it. The
    worker is that of the ``one_worker`` block open on this thread, or,
    outside any block, one started for this call and joined before it
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
            _scope.worker = Worker()
        upper = _scope.worker.submit(lambda: [fn(chunk) for chunk in chunks[half:]])
        try:
            lower = [fn(chunk) for chunk in chunks[:half]]
        except BaseException:
            # the worker may still be reading what the caller's error unwinds;
            # an error of its own gives way to the caller's
            upper.wait()
            raise
        return lower + upper.result()
