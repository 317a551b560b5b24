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
file (the four iris report files, `cli_sha256.json` and
`numeric_build.json`):

    PYTHONPATH=src python tests/test_golden.py

The bytes depend on numpy's matmul and reduction order, so the command also
records `harness.numeric_build()` as `tests/golden/numeric_build.json`, and
a mismatch names both the numpy build it came from and the recorded one.
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


def numeric_env(build=None) -> str:
    """The numpy version, BLAS and SIMD extensions of `build`, by default
    the one this run's bytes came from."""
    build = numeric_build() if build is None else build
    blas = build.get("blas")
    blas = f"{blas['name']} {blas['version']}" if blas else "unknown"
    simd = build.get("simd_extensions")
    simd = (f"baseline {' '.join(simd['baseline']) or 'none'}, "
            f"found {' '.join(simd['found']) or 'none'}") if simd else "unknown"
    return f"numpy {build['version']}, BLAS {blas}, SIMD {simd}"


def build_note() -> str:
    """This run's numpy build beside the one the golden files were recorded
    under, for a mismatch message."""
    path = GOLDEN / "numeric_build.json"
    recorded = (numeric_env(json.loads(path.read_text(encoding="utf-8")))
                if path.exists() else "unknown")
    return f"under {numeric_env()}; the golden files were recorded under {recorded}"


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
            f"{name} differs from the golden file {build_note()}"


@pytest.mark.parametrize("command", CLI_COMMANDS)
def test_cli_outputs_match_golden(command, tmp_path):
    golden = json.loads((GOLDEN / "cli_sha256.json").read_text(encoding="utf-8"))
    assert cli_outputs(command, tmp_path / "out") == golden[command], \
        f"'{command}' outputs differ from the golden digests {build_note()}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        emit_report(run_experiment(load_experiment_config(IRIS_CONFIG)), tmp)
        for name in REPORT_FILES:
            (GOLDEN / "iris" / name).write_bytes((Path(tmp) / name).read_bytes())
        digests = {c: cli_outputs(c, Path(tmp) / c.replace(" ", "_"))
                   for c in CLI_COMMANDS}
    for name, doc in (("cli_sha256.json", digests), ("numeric_build.json", numeric_build())):
        with open(GOLDEN / name, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
