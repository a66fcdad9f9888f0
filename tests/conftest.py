from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).resolve().parent))

# same examples on every run, so the suite's result and time do not vary
settings.register_profile(
    "tddn", derandomize=True, max_examples=100, deadline=None, database=None
)
settings.load_profile("tddn")

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


@pytest.fixture
def executors(monkeypatch) -> list[int]:
    """One entry per worker thread ``tddn.lanes.map_chunks`` starts during the test."""
    started: list[int] = []

    class Spy(lanes.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs) -> None:
            started.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(lanes, "ThreadPoolExecutor", Spy)
    return started
