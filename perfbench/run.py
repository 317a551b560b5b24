"""biasdiv benchmark: four workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload iris-seq --seed 6 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. Each workload call runs in a fresh child interpreter
(`child.py`), one after another, until `--seconds` would be exceeded (at
least three calls). Every call's report files are checked and hashed.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` (legs, where a leg is one approach in one repeat)
and `metrics`: with `--trace 0` the end-to-end metrics, with `--trace 1`
the per-layer metrics of a traced call (see `spans.py`). Lines before it
are labels: the environment and the report digest.

Workloads (all load comes from this one process and its one child at a
time; the only other processes are iris-par's own pool workers):
  iris-seq   configs/iris.json as shipped, 2 repeats, workers=1.
  iris-par   the same with workers=2; its report bytes must equal those of
             a sequential run at the same seed, made first in the same run.
  wide-div   generated 32-feature, 3-class imbalanced set; diversify-heavy.
  probe-cli  `biasdiv probe` on a generated 8-feature set with 450 test rows.
Children run with BLAS and OpenMP pinned to one thread, so iris-par's two
workers do not oversubscribe a two-core machine.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
IRIS_REPEATS = 2           # iris-par needs at least one repeat per worker
MIN_CALLS = 3
DEADLINE_S = 170.0         # a run must exit within 180 s
# (kind, workers) per workload; a traced call always uses workers=1.
WORKLOADS = {"iris-seq": ("experiment", 1), "iris-par": ("experiment", 2),
             "wide-div": ("experiment", 1), "probe-cli": ("probe", 1)}
REPORT_FILES = {"experiment": ("report.json", "runs.csv", "report.csv"),
                "probe": ("probe_report.json", "counterexamples.csv")}
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Call:
    """One child call and what its outputs showed."""

    workers: int
    traced: bool
    setup_s: float = math.nan
    run_s: float = math.nan
    peak_rss_mb: float = math.nan
    legs: int = 0
    failed: int = 0
    flagged: int = 0
    bias_drop: float = 0.0
    digest: str = ""
    sizes: dict = field(default_factory=dict)   # report file -> bytes
    durations: dict | None = None
    layers: dict | None = None
    problems: list = field(default_factory=list)


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root, self.workload = root, workload
        self.kind, self.workers = WORKLOADS[workload]
        self.started = time.monotonic()
        self.work = root / ".perfbench"
        shutil.rmtree(self.work, ignore_errors=True)
        inputs = self.work / "inputs"
        inputs.mkdir(parents=True)
        self.master_seed = seed
        if workload.startswith("iris"):
            self.config, self.repeats = root / "configs" / "iris.json", IRIS_REPEATS
            self.master_seed = feasible_iris_seed(root, seed)
        elif workload == "wide-div":
            self.config, self.repeats = gen.wide_div(seed, inputs), 1
        else:
            self.config, self.repeats = gen.probe_cli(seed, inputs), 1
        with open(self.config, encoding="utf-8") as fh:
            approaches = json.load(fh).get("approaches", ["original"])
        self.expected_legs = self.repeats * len(approaches) if self.kind == "experiment" else 1
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **PINNED_THREADS)
        self.calls: list[Call] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def call(self, workers: int, traced: bool = False) -> Call:
        index = len(self.calls)
        out = self.work / f"call{index}"
        spec = {"kind": self.kind, "config": str(self.config), "seed": self.master_seed,
                "repeats": self.repeats, "workers": workers, "trace": traced,
                "out": str(out), "result": str(self.work / f"result{index}.json"),
                "spans": str(self.work / "trace.jsonl")}
        spec_path = self.work / f"spec{index}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        c = Call(workers, traced)
        self.calls.append(c)

        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, DEADLINE_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)   # the child and its pool workers
            proc.communicate()
            c.problems.append("timed out")
            err = ""
        if proc.returncode == 3 and traced:
            raise BenchError(err.strip())
        if proc.returncode != 0 or not Path(spec["result"]).exists():
            c.problems.append(f"child exited {proc.returncode}: {err.strip()[-2000:]}")
        else:
            result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
            c.setup_s, c.run_s = result["setup_s"], result["run_s"]
            c.peak_rss_mb = result["peak_rss_mb"]
            c.durations, c.layers = result.get("durations"), result.get("layers")
            try:
                self._check(c, out, result)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                c.problems.append(f"unreadable report: {exc!r}")
        c.legs = self.expected_legs
        if c.problems:
            c.failed = c.legs
            for p in c.problems:
                print(f"call {index} failed its check: {p}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        return c

    def _check(self, c: Call, out: Path, result: dict) -> None:
        """The correctness gate on one call's report files."""
        digest = hashlib.sha256()
        for name in REPORT_FILES[self.kind]:
            data = (out / name).read_bytes()
            digest.update(name.encode() + b"\0" + data)
            c.sizes[name] = len(data)
        c.digest = digest.hexdigest()

        if self.kind == "probe":
            if result["exit"] != 0:
                c.problems.append(f"biasdiv probe exited {result['exit']}")
            doc = json.loads((out / "probe_report.json").read_text(encoding="utf-8"))
            with open(out / "counterexamples.csv", newline="", encoding="utf-8") as fh:
                rows = sum(1 for _ in csv.reader(fh)) - 1
            if rows != doc["counterexample_count"]:
                c.problems.append(f"{rows} counterexample rows, report says "
                                  f"{doc['counterexample_count']}")
            scores = [doc["b_r"]]
            c.flagged = int("below the accuracy gate" in result["stdout"])
        else:
            doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
            if len(doc["legs"]) != self.expected_legs:
                c.problems.append(f"{len(doc['legs'])} legs, expected {self.expected_legs}")
            measured = [leg for leg in doc["legs"] if not leg["infeasible"]]
            c.failed = len(doc["legs"]) - len(measured)
            c.flagged = sum(leg["accuracy_flag"] for leg in measured)
            scores = [leg["b_r"] for leg in measured]
            means = doc["aggregates"]
            if means["original"]["mean"] is not None and means["diversified"]["mean"] is not None:
                c.bias_drop = means["original"]["mean"] - means["diversified"]["mean"]
        bad = [s for s in scores if not (isinstance(s, float) and math.isfinite(s) and s >= 0)]
        if bad:
            c.problems.append(f"b_r not finite and >= 0: {bad}")

    def run_until(self, seconds: float, one_round, min_rounds: int) -> None:
        """Repeat `one_round` at least `min_rounds` times, then while the next
        round, estimated from the ones so far, still ends within `seconds`."""
        rounds = []
        while True:
            began = time.monotonic()
            one_round()
            rounds.append(time.monotonic() - began)
            if any("timed out" in p for c in self.calls for p in c.problems):
                return
            if (len(rounds) >= min_rounds
                    and self.elapsed() + statistics.median(rounds) > seconds):
                return


def feasible_iris_seed(root: Path, seed: int) -> int:
    """`seed`, or else the first of seed + k * 1000003 at which iris's ADASYN
    leg is feasible (the stride keeps the master seeds of distinct workload
    seeds distinct).

    configs/iris.json thins one class, chosen by the master seed, before
    resampling. When that class is setosa, no setosa row has a neighbour of
    another class and ADASYN refuses the leg by design, so a third of the
    seeds would run one leg fewer per repeat and time different work.
    """
    sys.path.insert(0, str(root / "src"))
    from biasdiv import InfeasibleError, derive_seed, harness, resample
    cfg = harness.load_experiment_config(root / "configs" / "iris.json")
    for master in itertools.count(seed, 1_000_003):
        cfg = replace(cfg, seed=master)
        train, _ = harness.load_dataset_pair(cfg.dataset, derive_seed(master, "split"))
        try:
            resample(harness.baseline_source(cfg, train), cfg.plans["adasyn"], 0)
        except InfeasibleError:
            continue
        return master


def _median(values) -> float:
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else math.nan


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read without running git (the benchmark reads
    nothing outside its checkout)."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def environment(root: Path) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "child_threads": PINNED_THREADS, "commit": _git_commit(root)}


def end_to_end(bench: Bench, seconds: float) -> dict:
    """Untraced calls at the workload's own workers. The timings and memory
    are medians over those calls; the ratios count legs over every call."""
    if bench.workload == "iris-par":
        # Byte-equality reference: the same experiment run sequentially.
        bench.call(workers=1)
    first = len(bench.calls)
    bench.run_until(seconds, lambda: bench.call(bench.workers), MIN_CALLS)
    timed = bench.calls[first:]
    legs = sum(c.legs for c in bench.calls)
    measured = sum(c.legs - c.failed for c in bench.calls)
    return {
        "setup_s": (_median(c.setup_s for c in timed), "s"),
        "run_s": (_median(c.run_s for c in timed), "s"),
        "peak_rss_mb": (_median(c.peak_rss_mb for c in timed), "MB"),
        "leg_ok_ratio": (measured / legs, "1"),
        "gate_pass_ratio": (1 - sum(c.flagged for c in bench.calls) / measured
                            if measured else 0.0, "1"),
    }


def traced(bench: Bench, seconds: float) -> dict:
    """Plain and traced calls in turn, both at workers=1. Each layer number
    is the median_low over traced calls; trace.overhead_ratio compares the
    two kinds' median run_s. iris-par adds one plain call at workers=2 for
    the pool's busy ratio."""
    def one_round():
        bench.call(workers=1)
        bench.call(workers=1, traced=True)
        if bench.workload == "iris-par" and not any(c.workers == 2 for c in bench.calls):
            bench.call(workers=2)

    bench.run_until(seconds, one_round, 1)
    plain = [c for c in bench.calls if not c.traced and c.workers == 1]
    tr = [c for c in bench.calls if c.traced and c.layers]
    if not tr:
        return {}
    layers = {k: statistics.median_low(c.layers[k] for c in tr) for k in tr[0].layers}
    layers["trace.overhead_ratio"] = _median(c.run_s for c in tr) / _median(c.run_s for c in plain)
    sizes = tr[-1].sizes
    layers["harness.report.bytes"] = sum(sizes.get(n, 0) for n in REPORT_FILES["experiment"])
    layers["cli.counterexamples.bytes"] = sizes.get("counterexamples.csv", 0)
    layers["bias_drop"] = tr[-1].bias_drop
    pool = [c for c in bench.calls if c.workers > 1 and c.durations]
    layers["harness.pool.busy_ratio"] = (
        sum(pool[0].durations["per_repeat_seconds"])
        / (pool[0].workers * pool[0].durations["total_seconds"]) if pool else 0.0)
    return {name: (value, _layer_unit(name)) for name, value in layers.items()}


def _layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from the naming convention in spans.py."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".s", "_s", ".s_p50")):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("_ratio", "_per_leg")) or name == "bias_drop":
        return "1"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=6)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    for needed in ("src/biasdiv/__init__.py", "configs/iris.json"):
        if not (root / needed).is_file():
            print(f"not a biasdiv checkout: {needed} is missing under {root}", file=sys.stderr)
            return 2
    if args.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2

    try:
        bench = Bench(root, args.workload, args.seed)
        env = environment(root)
        (bench.work / "env.json").write_text(json.dumps(env, indent=2) + "\n")
        print("env " + json.dumps(env, sort_keys=True))
        metrics = (traced if args.trace else end_to_end)(bench, args.seconds)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3

    calls = bench.calls
    digests = {c.digest for c in calls if c.digest}
    correct = bool(metrics) and not any(c.problems for c in calls) and len(digests) == 1
    if len(digests) > 1:
        print(f"report bytes differ between calls: {sorted(digests)}", file=sys.stderr)
    print(f"digest {args.workload} seed={args.seed} master_seed={bench.master_seed} "
          f"repeats={bench.repeats} "
          f"sha256={' '.join(sorted(digests)) or 'none'}")
    for traced_, workers in sorted({(c.traced, c.workers) for c in calls}):
        group = [c for c in calls if (c.traced, c.workers) == (traced_, workers)]
        print(f"{'traced' if traced_ else 'plain'} calls at workers={workers}: {len(group)}, "
              f"run_s [{', '.join(f'{c.run_s:.3f}' for c in group)}], "
              f"setup_s [{', '.join(f'{c.setup_s:.3f}' for c in group)}]")
    attempted = sum(c.legs for c in calls)
    failed = sum(c.failed for c in calls)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": None if math.isnan(value) else value,
                                         "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
