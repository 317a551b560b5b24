import time
from pathlib import Path

import pytest

from biasdiv.harness import load_experiment_config, run_experiment

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="session")
def iris_run():
    """The bundled iris experiment (10 repeats, seed 6), run once per session."""
    cfg = load_experiment_config(CONFIGS / "iris.json")
    t0 = time.perf_counter()
    report = run_experiment(cfg)
    return report, time.perf_counter() - t0
