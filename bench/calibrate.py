"""Machine-speed probe interleaved with the measured work.

On a shared host the same code runs up to ~40% slower for tens of
seconds at a time, for Python and BLAS alike, so raw wall-clock medians
of identical runs disagree by more than any useful regression bound. A
fixed probe is timed between measured operations, never inside them. It
has one part per resource the package's timings depend on: the
interpreter, cache/memory bandwidth, BLAS arithmetic and fresh memory
(allocation and page faults, which dominate parsing). Each timing is
divided by the local speed factor (the summed median part times near it
over their summed reference times), which turns it into milliseconds at
the reference speed. Raw timings are reported next to the normalized ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

PROBE_EVERY_S = 0.25
# probes within this many seconds of a timing set its speed factor
WINDOW_S = 2.0

# a 16 MB pass is bound by cache and memory bandwidth, not arithmetic
_BUFFER = np.ones(1 << 21)
_A = np.random.default_rng(0).standard_normal((256, 512))
_B = np.random.default_rng(1).standard_normal((512, 256))


def _python() -> None:
    acc = 0
    for i in range(12000):
        acc += i * i % 7


def _memory() -> None:
    np.multiply(_BUFFER, 1.0, out=_BUFFER)


def _blas() -> None:
    _A @ _B


def _alloc() -> None:
    np.ones(1 << 21)


# part -> (work, its time in ms at the reference speed: about its typical
# value on a 2-core Xeon host with one BLAS thread)
PARTS = {
    "python": (_python, 1.0),
    "memory": (_memory, 1.0),
    "blas": (_blas, 1.5),
    "alloc": (_alloc, 2.0),
}


class Speed:
    """Probe timings and the speed factors derived from them."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.ms: dict[str, list[float]] = {name: [] for name in PARTS}
        self._next = 0.0

    def probe(self) -> None:
        started = time.perf_counter()
        for name, (work, _) in PARTS.items():
            t0 = time.perf_counter()
            work()
            self.ms[name].append((time.perf_counter() - t0) * 1e3)
        ended = time.perf_counter()
        self.at.append((started + ended) / 2)
        self._next = ended + PROBE_EVERY_S

    def maybe_probe(self) -> None:
        if time.perf_counter() >= self._next:
            self.probe()

    def factor(self, t0: float, t1: float) -> float:
        """Slowdown against the reference speed around [t0, t1]."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        if lo == hi:
            raise RuntimeError("no speed probe near a timed interval")
        near = sum(statistics.median(ms[lo:hi]) for ms in self.ms.values())
        return near / sum(ref for _, ref in PARTS.values())

    def normalize(self, spans: list[tuple[float, float]]) -> list[float]:
        """Milliseconds at reference speed for (start, end) intervals in seconds."""
        return [(t1 - t0) * 1e3 / self.factor(t0, t1) for t0, t1 in spans]

    def medians(self) -> dict[str, float]:
        return {name: statistics.median(ms) for name, ms in self.ms.items()}
