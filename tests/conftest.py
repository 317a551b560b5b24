import time
from pathlib import Path

import pytest
from hypothesis import settings

from biasdiv.harness import load_experiment_config, run_experiment

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Property tests draw the same examples on every run, and no timing limit
# can fail them on a slow or busy machine.
settings.register_profile("biasdiv", derandomize=True, deadline=None, database=None)
settings.load_profile("biasdiv")


@pytest.fixture(scope="session")
def iris_run():
    """The bundled iris experiment (10 repeats, seed 6), run once per session."""
    cfg = load_experiment_config(CONFIGS / "iris.json")
    t0 = time.perf_counter()
    report = run_experiment(cfg)
    return report, time.perf_counter() - t0
