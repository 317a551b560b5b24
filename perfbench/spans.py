"""Spans and counters around calls into biasdiv's modules, for the traced run.

The wrappers live here, not in the program: `install` replaces each wrapped
name in the namespace where the program looks it up, via
`sys.modules["biasdiv.<mod>"]` (the package re-exports the function
`diversify`, which shadows the submodule attribute). Spans are kept in
memory and written out once the call has finished.

A wrapped name that is missing, or that never runs on a workload where its
layer runs, is an error: a refactor that moves a call must update this file
rather than let a layer silently read 0.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

RESAMPLER_LAYER = {"rus_equalize": "rus", "rus_fraction": "rus", "ros": "ros",
                   "smote": "smote", "adasyn": "adasyn"}

# Wrapped names each kind of workload must call.
COMMON = ("harness.train", "harness.noise_sweep", "harness.load_csv", "probe.substream")
EXPECTED = {
    "experiment": COMMON + (
        "data.Dataset.take", "harness.run_repeat", "harness.emit_report", "harness.resample",
        "harness.diversify", "diversify.global_extremum", "diversify.tighten_overlaps",
        "diversify.top_k_features", "diversify.final_bounds",
        "diversify.sample_synthetic", "diversify.validate_synthetic",
        "diversify.minimize_redundancy", "diversify.kmeans"),
    "probe": COMMON + ("cli.write_counterexamples_csv", "cli.save_probe_report"),
}


class TraceError(RuntimeError):
    """A wrapped name is missing or was never called."""


def _resolve(path: str):
    """Owner object and attribute for a dotted name under `biasdiv`."""
    module, *chain, attr = path.split(".")
    owner = sys.modules.get(f"biasdiv.{module}")
    if owner is None:
        raise TraceError(f"module biasdiv.{module} is not loaded")
    for part in chain:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceError(f"biasdiv.{module}.{'.'.join(chain)} is missing")
    if not callable(getattr(owner, attr, None)):
        raise TraceError(f"biasdiv.{path} is missing or not callable")
    return owner, attr


class Recorder:
    """Spans (name, parent, start, end) and bare counters for one traced call."""

    def __init__(self):
        self.spans: list[list] = []       # [name, parent index or -1, start, end]
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.called: set[str] = set()     # wrapped paths whose span ran
        self.counted: dict[str, str] = {}  # wrapped path -> counter name

    def span(self, path: str, name, after=None) -> None:
        """Wrap `biasdiv.<path>` in a span. `name` is a string or a function
        of the call's arguments; `after` sees the result."""
        owner, attr = _resolve(path)
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.called.add(path)
            label = name(*args, **kwargs) if callable(name) else name
            index = len(self.spans)
            self.spans.append([label, self._open[-1] if self._open else -1,
                               time.perf_counter(), None])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][3] = time.perf_counter()
            if after is not None:
                after(result)
            return result

        setattr(owner, attr, wrapper)

    def count(self, path: str, name: str) -> None:
        """Wrap `biasdiv.<path>` in a bare counter, for calls too frequent
        to afford a span."""
        owner, attr = _resolve(path)
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        self.counted[path] = name
        setattr(owner, attr, wrapper)

    def check_called(self, kind: str) -> None:
        def ran(path):
            if path in self.counted:
                return self.counts[self.counted[path]] > 0
            return path in self.called

        missing = [p for p in EXPECTED[kind] if not ran(p)]
        if missing:
            raise TraceError("wrapped name(s) never called on a workload where their "
                             f"layer runs: {', '.join('biasdiv.' + p for p in missing)}")

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, start, end in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent,
                                     "start": start, "end": end}) + "\n")

    def durations(self) -> tuple[dict, dict]:
        """Total and self seconds per span name. Child spans are nested,
        sequential calls, so the part of a span they cover is their sum."""
        total, own = defaultdict(float), defaultdict(float)
        covered = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, _, start, end), cov in zip(self.spans, covered):
            total[name] += end - start
            own[name] += end - start - cov
        return total, own

    def samples(self, name: str) -> list[float]:
        return [end - start for n, _, start, end in self.spans if n == name]


class Tally:
    """Counts read off the wrapped calls' results."""

    def __init__(self):
        self.epochs = 0
        self.variants = 0
        self.counterexamples = 0
        self.rows_out = 0
        self.synth_rows = 0
        self.removed_rows = 0
        self.attempts = 0
        self.passed = 0

    def train(self, result):
        self.epochs += len(result[1].losses)

    def probe(self, report):
        self.variants += int(report.variants_per_class.sum())
        self.counterexamples += len(report.counterexamples)

    def resample(self, ds):
        self.rows_out += ds.n

    def diversify(self, dd):
        self.synth_rows += int(dd.chi.sum())
        self.removed_rows += int(dd.removed_per_class.sum())

    def validate(self, report):
        self.attempts += 1
        self.passed += bool(report.passed)


def install() -> tuple[Recorder, Tally]:
    """Wrap every layer boundary."""
    rec, tally = Recorder(), Tally()
    rec.span("harness.train", "mlp.train", tally.train)
    rec.span("harness.noise_sweep", "probe.noise_sweep", tally.probe)
    rec.count("probe.substream", "probe.substream")
    rec.span("harness.resample",
             lambda ds, plan, seed: "baselines." + RESAMPLER_LAYER[plan.method],
             tally.resample)
    rec.span("harness.diversify", "diversify", tally.diversify)
    rec.span("diversify.global_extremum", "diversify.bounds")
    rec.span("diversify.tighten_overlaps", "diversify.bounds")
    rec.span("diversify.top_k_features", "diversify.top_k")
    rec.span("diversify.final_bounds", "diversify.final_bounds")
    rec.span("diversify.sample_synthetic", "diversify.sample")
    rec.span("diversify.validate_synthetic", "diversify.validate", tally.validate)
    rec.span("diversify.minimize_redundancy", "diversify.redundancy")
    rec.span("diversify.kmeans", "numerics.kmeans")
    rec.span("harness.load_csv", "data.load")
    rec.count("data.Dataset.take", "data.take")
    rec.span("harness.run_repeat", "harness.run_repeat")
    rec.span("harness.emit_report", "harness.emit_report")
    rec.span("cli.write_counterexamples_csv", "cli.write_counterexamples")
    rec.span("cli.save_probe_report", "cli.save_probe_report")
    return rec, tally


def layer_metrics(rec: Recorder, tally: Tally, legs: int) -> dict:
    """Per-layer numbers of one traced call; `legs` is the legs it ran."""
    total, own = rec.durations()
    train_calls = len(rec.samples("mlp.train"))
    repeats = rec.samples("harness.run_repeat")
    return {
        "mlp.train.calls": train_calls,
        "mlp.train.s": total["mlp.train"],
        "mlp.train.epochs": tally.epochs,
        "mlp.epoch_us": 1e6 * total["mlp.train"] / tally.epochs if tally.epochs else 0.0,
        "probe.noise_sweep.calls": len(rec.samples("probe.noise_sweep")),
        "probe.noise_sweep.s": total["probe.noise_sweep"],
        "probe.variants": tally.variants,
        "probe.variants_per_s": (tally.variants / total["probe.noise_sweep"]
                                 if total["probe.noise_sweep"] else 0.0),
        "probe.counterexamples": tally.counterexamples,
        "probe.substream.calls": rec.counts["probe.substream"],
        "diversify.calls": len(rec.samples("diversify")),
        "diversify.s": total["diversify"],
        "diversify.self_s": own["diversify"],
        "diversify.bounds.s": total["diversify.bounds"],
        "diversify.top_k.s": total["diversify.top_k"],
        "diversify.final_bounds.s": total["diversify.final_bounds"],
        "diversify.sample.s": total["diversify.sample"],
        "diversify.validate.s": total["diversify.validate"],
        "diversify.validate.attempts": tally.attempts,
        "diversify.validate.pass_ratio": tally.passed / tally.attempts if tally.attempts else 0.0,
        "diversify.redundancy.s": total["diversify.redundancy"],
        "diversify.synth_rows": tally.synth_rows,
        "diversify.removed_rows": tally.removed_rows,
        "numerics.kmeans.calls": len(rec.samples("numerics.kmeans")),
        "numerics.kmeans.s": total["numerics.kmeans"],
        "baselines.rus.s": total["baselines.rus"],
        "baselines.ros.s": total["baselines.ros"],
        "baselines.smote.s": total["baselines.smote"],
        "baselines.adasyn.s": total["baselines.adasyn"],
        "baselines.rows_out": tally.rows_out,
        "data.load.s": total["data.load"],
        "data.take.calls": rec.counts["data.take"],
        "harness.run_repeat.s_p50": statistics.median(repeats) if repeats else 0.0,
        "harness.run_repeat.self_s": own["harness.run_repeat"],
        "harness.train_attempts_per_leg": train_calls / legs if legs else 0.0,
        "harness.emit_report.s": total["harness.emit_report"],
        "cli.write_counterexamples.s": total["cli.write_counterexamples"],
        "cli.save_probe_report.s": total["cli.save_probe_report"],
    }
