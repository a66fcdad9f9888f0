"""Helpers for tests of ``tddn.lanes.map_chunks``, the one place that starts threads."""

from __future__ import annotations

import threading


def lane_workers() -> set[threading.Thread]:
    """Live worker threads of ``map_chunks``."""
    return {t for t in threading.enumerate() if t.name.startswith("tddn-lane")}


def lane_jobs(executors: list) -> int:
    """Upper halves handed to the workers whose starts ``executors`` recorded."""
    return sum(worker.jobs for worker in executors)
