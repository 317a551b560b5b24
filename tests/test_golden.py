"""Golden-output lock: the bundled iris experiment and the CLI at seed 6.

`tests/golden/iris/` holds `report.json`, `runs.csv`, `report.csv` and
`boxplot.svg` as written by `biasdiv experiment --config configs/iris.json`.
`tests/golden/cli_sha256.json` holds, per command line (`probe`, `diversify`,
`diversify --mode synth-only`, `diversify --mode delete-only` and
`baseline`, each with `--config configs/iris.json`), the SHA-256 of every
file it writes and its stdout lines other than `wrote ...`, with the output
directory shown as `<out>`. A refactor must leave all of these unchanged.
A change that alters the bytes on purpose regenerates them and says why in
CHANGES.md. One command, from the repository root, rewrites every golden
file (the four iris report files and `cli_sha256.json`):

    PYTHONPATH=src python tests/test_golden.py

The bytes depend on numpy's matmul and reduction order, so a mismatch names
the numpy build it came from; the golden files match under numpy 2.4.6 with
scipy-openblas 0.3.31.188.0.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from biasdiv.cli import main
from biasdiv.harness import (emit_report, load_experiment_config, numeric_build,
                             run_experiment)

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"
IRIS_CONFIG = REPO / "configs" / "iris.json"
REPORT_FILES = ("report.json", "runs.csv", "report.csv", "boxplot.svg")
CLI_COMMANDS = ("probe", "diversify", "diversify --mode synth-only",
                "diversify --mode delete-only", "baseline")


def numeric_env() -> str:
    """The numpy version, BLAS and SIMD extensions that this run's bytes
    came from."""
    build = numeric_build()
    blas = build.get("blas")
    blas = f"{blas['name']} {blas['version']}" if blas else "unknown"
    simd = build.get("simd_extensions")
    simd = (f"baseline {' '.join(simd['baseline']) or 'none'}, "
            f"found {' '.join(simd['found']) or 'none'}") if simd else "unknown"
    return f"numpy {build['version']}, BLAS {blas}, SIMD {simd}"


def cli_outputs(command: str, out: Path) -> dict:
    """Run one command line on the iris config; digest what it writes."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(command.split() + ["--config", str(IRIS_CONFIG), "--out", str(out)])
    assert code == 0, buf.getvalue()
    stdout = [line.replace(str(out), "<out>") for line in buf.getvalue().splitlines()
              if not line.startswith("wrote ")]
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.iterdir())}
    return {"files": files, "stdout": stdout}


def test_iris_report_matches_golden(iris_run, tmp_path):
    report, _ = iris_run
    emit_report(report, tmp_path)
    for name in REPORT_FILES:
        assert (tmp_path / name).read_bytes() == (GOLDEN / "iris" / name).read_bytes(), \
            f"{name} differs from the golden file under {numeric_env()}"


@pytest.mark.parametrize("command", CLI_COMMANDS)
def test_cli_outputs_match_golden(command, tmp_path):
    golden = json.loads((GOLDEN / "cli_sha256.json").read_text(encoding="utf-8"))
    assert cli_outputs(command, tmp_path / "out") == golden[command], \
        f"'{command}' outputs differ from the golden digests under {numeric_env()}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        emit_report(run_experiment(load_experiment_config(IRIS_CONFIG)), tmp)
        for name in REPORT_FILES:
            (GOLDEN / "iris" / name).write_bytes((Path(tmp) / name).read_bytes())
        digests = {c: cli_outputs(c, Path(tmp) / c.replace(" ", "_"))
                   for c in CLI_COMMANDS}
    with open(GOLDEN / "cli_sha256.json", "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
