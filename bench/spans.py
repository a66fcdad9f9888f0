"""In-memory spans recorded around calls into the package.

A span is (name, start_ns, end_ns, parent index). Wrappers are installed
from the benchmark's files only: on instances (layer forward/backward,
``Adam.step``, ``WindowBank.gather``) and on module attributes where the
caller looks them up (for example ``tddn.cli.load_subset``). The
untraced run installs none of them; ``NullTracer`` only forwards calls.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable


class NullTracer:
    """Tracing off: calls pass straight through."""

    enabled = False

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records nested spans; self time is a span minus its children."""

    enabled = True

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def patch(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a traced wrapper for the rest of the run.

        On an instance the wrapper shadows the class's method; on a module
        it replaces the attribute that callers look up at call time.
        """
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def self_ns(self) -> list[int]:
        """Per span: duration minus the time its direct children cover."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[idx] - self.start[idx]
        return own

    def under(self, root_name: str) -> list[bool]:
        """Per span: whether it is, or descends from, a span named ``root_name``."""
        inside: list[bool] = []
        for idx, parent in enumerate(self.parent):
            # parents precede children, so the parent's flag is already known
            inside.append(self.names[idx] == root_name or (parent >= 0 and inside[parent]))
        return inside

    def summary(self, mask: list[bool] | None = None) -> dict[str, dict[str, float]]:
        """Count, total and self nanoseconds per span name."""
        own = self.self_ns()
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"count": 0, "total_ns": 0, "self_ns": 0}
        )
        for idx, name in enumerate(self.names):
            if mask is not None and not mask[idx]:
                continue
            row = out[name]
            row["count"] += 1
            row["total_ns"] += self.end[idx] - self.start[idx]
            row["self_ns"] += own[idx]
        return dict(out)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["name", "start_ns", "end_ns", "parent"],
            "spans": [
                [n, s, e, p]
                for n, s, e, p in zip(self.names, self.start, self.end, self.parent)
            ],
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))
