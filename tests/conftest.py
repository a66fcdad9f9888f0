from __future__ import annotations

import gc
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).resolve().parent))

# same examples on every run, so the suite's result and time do not vary
settings.register_profile(
    "tddn", derandomize=True, max_examples=100, deadline=None, database=None
)
settings.load_profile("tddn")

from _lanes import lane_workers
from _synth import make_bundle, write_bundle
from tddn import lanes


def find_cmapss_dir() -> Path | None:
    """The official data directory, from $CMAPSS_DATA or ./data."""
    env = os.environ.get("CMAPSS_DATA")
    if env:
        candidate = Path(env)
        if (candidate / "train_FD001.txt").is_file():
            return candidate
    default = Path(__file__).resolve().parents[1] / "data"
    if (default / "train_FD001.txt").is_file():
        return default
    return None


@pytest.fixture(scope="session")
def cmapss_dir() -> Path:
    found = find_cmapss_dir()
    if found is None:
        pytest.skip(
            "official C-MAPSS text files not found; point CMAPSS_DATA at their directory"
        )
    return found


@pytest.fixture(scope="session")
def synth_bundle():
    return make_bundle()


@pytest.fixture(scope="session")
def synth_data_dir(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("synth_cmapss")
    write_bundle(make_bundle(), directory)
    return directory


@pytest.fixture(autouse=True)
def main_lane_worker_per_test():
    """Shut the main thread's lane worker down after each test, and wait for every other.

    ``map_chunks`` keeps one worker per calling thread for the thread's
    life. Dropping the main thread's here makes each test start its own,
    so ``executors`` counts the starts of one test. A worker of a thread the
    test started exits once that thread has ended; one still alive after
    that is an error of the test.
    """
    yield
    worker = getattr(lanes._lane, "worker", None)
    lanes._lane.worker = None
    if worker is not None:
        # without waiting here: a worker stuck in a job fails the join below
        worker.shutdown(wait=False)
    if lane_workers():
        gc.collect()
        for thread in lane_workers():
            thread.join(timeout=10.0)
        assert not lane_workers(), "a lane worker outlived its calling thread"


@pytest.fixture
def executors(monkeypatch) -> list[SimpleNamespace]:
    """One record per lane worker ``tddn.lanes.map_chunks`` starts during the test, in order.

    Each worker is started by its calling thread's first two-lane call and
    then serves that thread's later calls; its record's ``jobs`` counts the
    upper halves it was given. The records hold no reference to a worker,
    so they do not keep one alive.
    """
    started: list[SimpleNamespace] = []

    class Spy(lanes.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs) -> None:
            self.record = SimpleNamespace(jobs=0)
            started.append(self.record)
            super().__init__(*args, **kwargs)

        def submit(self, *args, **kwargs):
            self.record.jobs += 1
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(lanes, "ThreadPoolExecutor", Spy)
    return started
