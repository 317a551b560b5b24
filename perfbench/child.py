"""One workload call in a fresh interpreter: set up, run, write the result.

    python3 perfbench/child.py <spec.json>

The spec names the kind ("experiment" or "probe"), the config, seed,
repeat count and workers, the output directory, and whether to trace.
Set-up is `import biasdiv`, config parsing and `load_dataset_pair`; the
call is `run_experiment` plus `emit_report`, or `cli.main(["probe", ...])`.
The result JSON holds the timings and, for a traced call, the per-layer
numbers. Exit code 3 means a wrapped name was missing or never called.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from dataclasses import replace

import spans


def _peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it waited for
    (iris-par's pool workers), in MB; Linux reports KiB."""
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak * 1024 / 1e6


def run(spec: dict) -> dict:
    started = time.perf_counter()
    import biasdiv.cli   # the package, numpy and the console entry point
    harness = sys.modules["biasdiv.harness"]
    recorder = tally = None
    if spec["trace"]:
        recorder, tally = spans.install()

    cfg = harness.load_experiment_config(spec["config"])
    cfg = replace(cfg, seed=spec["seed"], repeats=spec["repeats"], workers=spec["workers"])
    harness.load_dataset_pair(cfg.dataset, biasdiv.derive_seed(cfg.seed, "split"))
    setup_s = time.perf_counter() - started

    result = {}
    called = time.perf_counter()
    if spec["kind"] == "experiment":
        report = harness.run_experiment(cfg)
        harness.emit_report(report, spec["out"])
        result["durations"] = report.durations
        legs = len(report.legs)
    else:
        cli = sys.modules["biasdiv.cli"]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            result["exit"] = cli.main(["probe", "--config", spec["config"],
                                       "--out", spec["out"], "--seed", str(spec["seed"])])
        result["stdout"] = stdout.getvalue()
        legs = 1
    result["run_s"] = time.perf_counter() - called
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = _peak_rss_mb()

    if recorder is not None:
        recorder.write(spec["spans"])
        recorder.check_called(spec["kind"])
        result["layers"] = spans.layer_metrics(recorder, tally, legs)
    return result


def main(argv) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        result = run(spec)
    except spans.TraceError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 3
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
