"""Experiment orchestration: train, probe, rebalance, retrain, re-probe.

The protocol trains a reference network, measures its robustness-bias
score, produces one candidate training set per approach (noise-guided
diversification plus four classic resamplers), retrains a fresh network
per candidate with a proportionally scaled epoch budget, and re-measures
the score. Every repeat draws all of its randomness from sub-streams
keyed by the repeat index, so repeats can run in parallel without
changing the result and equal master seeds give bit-identical reports.

Repeats run in contiguous chunks, one per worker process, and a chunk runs
stage-major (`run_repeat`): the training sets of the reference and
resampler legs of every repeat in it are prepared, then those legs are
trained and probed, then the same for the diversify legs. Legs of equal
size form a group that trains as one weight stack across repeats, each
net with the bytes it would get alone, and the process that trains a
group probes its nets. Work runs in other processes through one
primitive, `forking.fan_out`: every chunk but the first runs in a forked
helper, and where a CPU is spare, each stage hands part of its
independent items (diversify sets, or groups) to one more. Every item
draws only from its own sub-streams, so the bytes do not depend on which
process computes it.
"""

from __future__ import annotations

import csv
import importlib
import json
import math
import os
import re
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import forking
from .baselines import (ADASYN, ROS, RUS_EQUALIZE, RUS_FRACTION, SMOTE,
                        ResamplePlan, resample)
from .data import (Dataset, DatasetSchema, MinMaxScaler, builtin_dataset_path,
                   load_csv, split_stratified)
from .diversify import (DELETE_ONLY, FULL, SYNTH_ONLY, DiversifyConfig, derive_seed,
                        diversify)
from .errors import (BiasMetricError, ConfigError, DataError, InfeasibleError,
                     NeighborError, ProbeError, TrainingError)
from .mlp import (MlpSpec, TrainSchedule, accuracy, init_mlp, scale_schedule, train,
                  train_stack)
from .numerics import round_half_up, substream
from .probe import GRADIENT_SIGN, RANDOM_SWEEP, NoiseSpec, feature_scales, noise_sweep

APPROACH_ORDER = ("original", "rus", "ros", "smote", "adasyn",
                  "diversified", "synth_only", "delete_only")
BASELINE_APPROACHES = ("rus", "ros", "smote", "adasyn")
ABLATION_APPROACHES = ("original", "synth_only", "delete_only")
# The approaches that diversify, each with the mode it runs. Their legs
# start from their repeat's reference probe; the other legs do not read it.
_DIVERSIFY_MODES = {"diversified": FULL, "synth_only": SYNTH_ONLY,
                    "delete_only": DELETE_ONLY}

ACCURACY_GATE = 0.90


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _default_label(builtin: str | None) -> str:
    return "species" if builtin == "iris" else "label"


@dataclass(frozen=True)
class DatasetConfig:
    """Where the rows come from and how `schema` reads them.

    Exactly one source is set: a bundled dataset name, a single CSV that
    gets a stratified split, or an explicit train/test CSV pair.
    """

    schema: DatasetSchema
    builtin: str | None = None
    csv_path: str | None = None
    train_csv: str | None = None
    test_csv: str | None = None
    train_fraction: float = 0.8
    normalize: bool = False

    def __post_init__(self):
        if sum(s is not None for s in (self.builtin, self.csv_path, self.train_csv)) != 1:
            raise ValueError("needs exactly one of 'builtin', 'csv' or 'train_csv'/'test_csv'")
        if (self.train_csv is None) != (self.test_csv is None):
            raise ValueError("'train_csv' and 'test_csv' must be given together")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig
    hidden: tuple[int, ...]
    schedule: TrainSchedule
    noise: NoiseSpec
    diversify: DiversifyConfig
    plans: dict
    subsample_fraction: float | None = None
    repeats: int = 10
    seed: int = 0
    out_dir: str = "results"
    workers: int = 1
    approaches: tuple[str, ...] = APPROACH_ORDER   # kept in APPROACH_ORDER
    raw: dict | None = None               # parsed JSON, echoed into reports

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(self.hidden))
        if not self.hidden or min(self.hidden) < 1:
            raise ValueError("hidden must be a non-empty list of layer widths >= 1")
        if self.subsample_fraction is not None and not 0.0 < self.subsample_fraction < 1.0:
            raise ValueError("subsample_fraction must be in (0, 1)")
        for key, low in (("repeats", 1), ("seed", 0), ("workers", 1)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}")
        unknown = sorted(set(self.approaches) - set(APPROACH_ORDER))
        if unknown:
            raise ValueError(f"unknown approach(es): {', '.join(unknown)}")
        if "original" not in self.approaches:
            raise ValueError("approaches must include 'original'")
        object.__setattr__(self, "approaches",
                           tuple(a for a in APPROACH_ORDER if a in self.approaches))


# The keys of each config section and the JSON kinds their values may take.
# A kind is a type (float: a finite number), None (null), a tuple of
# alternatives, [k] (a list of k), [k1, k2] (a list of exactly those
# entries) or {str: k} (an object of k). A null value means the default.
_SECTIONS = {
    "config": {"dataset": dict, "network": dict, "schedule": dict, "noise": (None, dict),
               "diversify": dict, "baselines": (None, dict), "repeats": int, "seed": int,
               "out_dir": str, "workers": int, "approaches": (None, [str])},
    "dataset": {"builtin": str, "csv": str, "train_csv": str, "test_csv": str,
                "label_column": (None, str, int), "feature_columns": (None, [(str, int)]),
                "class_names": (None, {str: int}), "train_fraction": float,
                "normalize": bool},
    "network": {"hidden": [int]},
    "schedule": {"phases": [[float, int]]},
    "noise": {"levels": (None, [float]), "samples_per_input": int, "attack": str,
              "per_sample_scale": bool},
    "diversify": {"top_k": int, "removal_fraction": float, "corr_threshold": float,
                  "clusters": int, "synth_base": (None, int), "max_retries": int},
    "baselines": {"subsample_fraction": (None, float), "rus": dict, "smote": dict,
                  "adasyn": dict},
    "baselines.rus": {"method": str, "fraction": float},
    "baselines.smote": {"k_neighbors": int},
    "baselines.adasyn": {"k_neighbors": int, "balance": float},
}

_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string",
               bool: "true or false", dict: "a JSON object", None: "null"}


def _matches(value, kind) -> bool:
    if isinstance(kind, tuple):
        return any(_matches(value, k) for k in kind)
    if isinstance(kind, list):
        if not isinstance(value, list):
            return False
        entries = kind * len(value) if len(kind) == 1 else kind
        return len(value) == len(entries) and all(map(_matches, value, entries))
    if isinstance(kind, dict):
        return isinstance(value, dict) and all(_matches(v, kind[str]) for v in value.values())
    if kind is None:
        return value is None
    if isinstance(value, bool):     # JSON true/false is not a number
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, kind)


def _describe(kind) -> str:
    if isinstance(kind, tuple):
        return " or ".join(map(_describe, kind))
    if isinstance(kind, list):
        if len(kind) == 1:
            return f"a list of entries each {_describe(kind[0])}"
        return f"a [{', '.join(map(_describe, kind))}] list"
    if isinstance(kind, dict):
        return f"a JSON object of values each {_describe(kind[str])}"
    return _KIND_NAMES[kind]


def _section(doc, name: str) -> dict:
    """`doc`, checked against the keys and kinds `_SECTIONS` gives `name`."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be a JSON object")
    kinds = _SECTIONS[name]
    extra = sorted(set(doc) - set(kinds))
    if extra:
        raise ConfigError(f"unknown key(s) in {name}: {', '.join(extra)}")
    for key, value in doc.items():
        if not _matches(value, kinds[key]):
            raise ConfigError(f"{name}.{key} must be {_describe(kinds[key])}")
    return doc


def _build(cls, section: str, *args, **kwargs):
    """`cls(*args, **kwargs)`. The range rules live in `cls`; its ValueError
    becomes a ConfigError that names the config section."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from None


# a `$NAME` or `${NAME}` reference, as `os.path.expandvars` reads them
_ENV_REFERENCE = re.compile(r"\$(?:\{([^}]*)\}|(\w+))", re.ASCII)


def _resolve_path(key: str, raw: str, base_dir) -> str:
    """`raw` with its environment references expanded, relative to
    `base_dir`. A reference to an unset variable is a config error that
    names `key`, not a path that is read literally."""
    for match in _ENV_REFERENCE.finditer(raw):
        name = match[1] if match[1] is not None else match[2]
        if name not in os.environ:
            raise ConfigError(f"dataset.{key}: environment variable {name} is not set "
                              f"(in '{raw}')")
    path = Path(os.path.expandvars(raw))
    if not path.is_absolute():
        path = Path(base_dir) / path
    return str(path)


def _parse_dataset(doc, base_dir) -> DatasetConfig:
    d = dict(_section(doc, "dataset"))
    label = d.pop("label_column", None)
    schema = _build(DatasetSchema, "dataset",
                    _default_label(d.get("builtin")) if label is None else label,
                    d.pop("feature_columns", None), d.pop("class_names", None) or None)
    for key, field in (("csv", "csv_path"), ("train_csv", "train_csv"), ("test_csv", "test_csv")):
        if key in d:
            d[field] = _resolve_path(key, d.pop(key), base_dir)
    return _build(DatasetConfig, "dataset", schema, **d)


_ATTACK_ALIASES = {"random": RANDOM_SWEEP, "gradient": GRADIENT_SIGN}


def _parse_noise(doc) -> NoiseSpec:
    kwargs = {k: v for k, v in _section(doc, "noise").items() if v is not None}
    if "attack" in kwargs:
        kwargs["attack"] = _ATTACK_ALIASES.get(kwargs["attack"], kwargs["attack"])
    return _build(NoiseSpec, "noise", **kwargs)


def _parse_diversify(doc) -> DiversifyConfig:
    d = dict(_section(doc, "diversify"))
    if "top_k" not in d:
        raise ConfigError("diversify.top_k is required")
    return _build(DiversifyConfig, "diversify", **d)


def _parse_plans(d: dict) -> dict:
    """The resampler plans of a checked `baselines` section."""
    rus = _section(d.get("rus", {}), "baselines.rus")
    method = rus.get("method", "equalize")
    if method == "equalize":
        rus_plan = ResamplePlan(RUS_EQUALIZE)
    elif method == "fraction":
        rus_plan = _build(ResamplePlan, "baselines.rus", RUS_FRACTION,
                          fraction=rus.get("fraction", 0.25))
    else:
        raise ConfigError("baselines.rus.method must be 'equalize' or 'fraction'")
    smote, adasyn = (_section(d.get(k, {}), f"baselines.{k}") for k in ("smote", "adasyn"))
    return {"rus": rus_plan, "ros": ResamplePlan(ROS),
            "smote": _build(ResamplePlan, "baselines.smote", SMOTE, **smote),
            "adasyn": _build(ResamplePlan, "baselines.adasyn", ADASYN, **adasyn)}


def parse_experiment_config(doc: dict, base_dir=".") -> ExperimentConfig:
    d = _section(doc, "config")
    for key in ("dataset", "network", "schedule", "diversify"):
        if key not in d:
            raise ConfigError(f"config is missing required section '{key}'")
    baselines = _section(d.get("baselines") or {}, "baselines")
    return _build(
        ExperimentConfig, "config",
        dataset=_parse_dataset(d["dataset"], base_dir),
        hidden=_section(d["network"], "network").get("hidden", ()),
        schedule=_build(TrainSchedule, "schedule",
                        _section(d["schedule"], "schedule").get("phases", ())),
        noise=_parse_noise(d.get("noise") or {}),
        diversify=_parse_diversify(d["diversify"]),
        plans=_parse_plans(baselines),
        subsample_fraction=baselines.get("subsample_fraction"),
        raw=d,
        **{k: d[k] for k in ("repeats", "seed", "out_dir", "workers", "approaches")
           if d.get(k) is not None})


def load_experiment_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    return parse_experiment_config(doc, base_dir=Path(path).resolve().parent)


# ---------------------------------------------------------------------------
# Dataset plumbing
# ---------------------------------------------------------------------------

def _load(path, schema: DatasetSchema) -> Dataset:
    try:
        return load_csv(path, schema)
    except OSError as exc:
        raise DataError(f"cannot read dataset file {path}: {exc}") from None


def label_column_name(dcfg: DatasetConfig) -> str:
    """The label column's name: as configured, else "species" for the bundled
    iris and "label" otherwise. A label given by index has no name, so CSVs
    written from such a dataset use the default."""
    label = dcfg.schema.label_column
    return label if isinstance(label, str) else _default_label(dcfg.builtin)


def load_dataset_pair(dcfg: DatasetConfig, split_seed: int) -> tuple[Dataset, Dataset]:
    """Materialize the train/test pair a config describes.

    Single-source configs are split with a stratified shuffle; explicit
    pairs share one class-index mapping so labels agree across files.
    """
    schema = dcfg.schema
    if dcfg.train_csv is not None:
        train = _load(dcfg.train_csv, schema)
        if schema.class_name_mapping is None:
            schema = replace(schema, class_name_mapping={
                name: i for i, name in enumerate(train.class_names)})
        test = _load(dcfg.test_csv, schema)
    else:
        path = builtin_dataset_path(dcfg.builtin) if dcfg.builtin else dcfg.csv_path
        train, test = split_stratified(_load(path, schema), dcfg.train_fraction, split_seed)

    if dcfg.normalize:
        scaler = MinMaxScaler.fit(train.features)
        train, test = scaler.transform(train), scaler.transform(test)
    return train, test


def load_split(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """The experiment's train/test pair, split under the master seed.

    A `diversify.top_k` above the feature count is a config error, raised
    here, before any leg trains.
    """
    train, test = load_dataset_pair(cfg.dataset, derive_seed(cfg.seed, "split"))
    if cfg.diversify.top_k > train.d:
        raise ConfigError(f"diversify.top_k ({cfg.diversify.top_k}) exceeds the "
                          f"dataset's {train.d} features")
    return train, test


def subsample_imbalanced(ds: Dataset, fraction: float, seed: int) -> Dataset:
    """Keep a random `fraction` of one randomly chosen class's rows.

    The resamplers need an imbalance to correct, so a balanced training
    set is skewed by thinning a single class; the other classes keep
    their full diversity.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    if ds.L < 2:
        raise DataError("subsampling one class needs at least two classes")
    rng = substream(seed, "subsample")
    target = int(rng.integers(ds.L))
    rows = np.flatnonzero(ds.labels == target)
    keep = max(1, round_half_up(fraction * len(rows)))
    kept = rows[np.sort(rng.choice(len(rows), size=keep, replace=False))]
    idx = np.sort(np.concatenate([np.flatnonzero(ds.labels != target), kept]))
    return ds.take(idx)


# ---------------------------------------------------------------------------
# Per-repeat protocol
# ---------------------------------------------------------------------------

@dataclass
class LegResult:
    """One (approach, repeat) measurement."""

    approach: str
    repeat: int
    b_r: float | None
    delta_x_max: float | None
    train_accuracy: float | None
    test_accuracy: float | None
    n_train: int
    accuracy_flag: bool = False
    reseeded: bool = False
    infeasible: bool = False
    note: str = ""


def _train_gated(cfg: ExperimentConfig, group: tuple, fits: dict,
                 schedule: TrainSchedule, gate_ds: Dataset, test_ds: Dataset) -> dict:
    """Train the legs of `group`, (repeat, approach) keys whose fitted sets
    in `fits` have equally many rows, under `schedule`: as one weight stack,
    which gives each net the bytes it would get alone, or by `train` for a
    single leg. Each net starts from its leg's init seed for the attempt;
    training itself draws no random numbers. A leg that fails the accuracy
    gate or diverges is re-seeded exactly once, and the re-seeded legs
    train as the group's second stack.

    The gate judges the net on the original train split, not on whatever
    augmented set it was fitted to: synthetic rows are deliberately noisy
    and need not be memorized, the real data must still be classified.
    Returns (repeat, approach) -> (model, report, gate accuracy, flagged,
    reseeded), or the TrainingError of the last attempt when no attempt
    trained.
    """
    outcomes, fallbacks, pending = {}, {}, list(group)
    for attempt in range(2):
        if not pending:
            break
        nets = [init_mlp(MlpSpec((fits[repeat, approach].d, *cfg.hidden,
                                  fits[repeat, approach].L),
                                 init_seed=derive_seed(cfg.seed, "rep", repeat, approach,
                                                       "init", attempt)))
                for repeat, approach in pending]
        if len(pending) > 1:
            results = train_stack(nets, [fits[key] for key in pending], schedule, test_ds)
        else:
            try:
                results = [train(nets[0], fits[pending[0]], schedule, test_ds=test_ds)]
            except TrainingError as exc:
                results = [exc]
        retry = []
        for key, result in zip(pending, results):
            if isinstance(result, TrainingError):
                outcomes[key] = result
                retry.append(key)
                continue
            model, rep = result
            if gate_ds is fits[key]:
                train_acc = rep.train_accuracy   # train already scored every fitted row
            else:
                train_acc = accuracy(model, gate_ds)
            if train_acc > ACCURACY_GATE and rep.test_accuracy > ACCURACY_GATE:
                outcomes[key] = (model, rep, train_acc, False, attempt > 0)
            else:
                fallbacks[key] = (model, rep, train_acc)
                retry.append(key)
        pending = retry
    for key in pending:
        if key in fallbacks:
            outcomes[key] = (*fallbacks[key], True, True)
    return outcomes


def _infeasible_leg(approach, repeat, note):
    return LegResult(approach=approach, repeat=repeat, b_r=None, delta_x_max=None,
                     train_accuracy=None, test_accuracy=None, n_train=0,
                     infeasible=True, note=note)


# Failures that make one leg infeasible instead of aborting the experiment.
LEG_ERRORS = (InfeasibleError, NeighborError, TrainingError, ProbeError,
              BiasMetricError)


def baseline_source(cfg: ExperimentConfig, train_ds: Dataset) -> Dataset:
    """The sub-dataset the resamplers start from; seeded by the master seed
    alone, so every leg of every repeat starts from the same rows."""
    if cfg.subsample_fraction is None:
        return train_ds
    return subsample_imbalanced(train_ds, cfg.subsample_fraction,
                                derive_seed(cfg.seed, "subsample"))


def resampled_set(cfg: ExperimentConfig, train_ds: Dataset, approach: str,
                  repeat: int = 0) -> Dataset:
    """Training set of a resampler leg: its plan applied to `baseline_source`."""
    return resample(baseline_source(cfg, train_ds), cfg.plans[approach],
                    derive_seed(cfg.seed, "rep", repeat, approach))


def diversified_set(cfg: ExperimentConfig, train_ds: Dataset, reference,
                    approach: str, repeat: int = 0):
    """Training set of a diversify leg, guided by the reference probe, in
    the mode its approach names."""
    return diversify(train_ds, reference, cfg.diversify,
                     derive_seed(cfg.seed, "rep", repeat, approach),
                     mode=_DIVERSIFY_MODES[approach])


def validation_summary(validation) -> str:
    """A diversify leg's note; `biasdiv diversify` prints it too."""
    diff = validation.corr_diff
    return (f"validation corr_diff={format(diff, '.3f') if np.isfinite(diff) else 'inf'}"
            f" attempts_made={validation.attempts_made} best_attempt={validation.best_attempt}"
            f" passed={validation.passed}")


def _leg_set(cfg: ExperimentConfig, train_ds: Dataset, approach: str, repeat: int,
             reference):
    """A leg's training set and its note."""
    if approach in _DIVERSIFY_MODES:
        dd = diversified_set(cfg, train_ds, reference, approach, repeat)
        return dd.dataset, validation_summary(dd.validation)
    if approach == "original":
        return train_ds, ""
    return resampled_set(cfg, train_ds, approach, repeat), ""


def _run_legs(cfg: ExperimentConfig, train_ds: Dataset, test_ds: Dataset,
              legs, references=None) -> list:
    """Some legs, given as (repeat, approach) pairs, in two stages: prepare
    every training set, then train each group of legs through the accuracy
    gate (see `_train_gated`) and probe the nets it trained. A diversify
    leg reads its repeat's reference probe from `references` (repeat ->
    probe).

    Legs with equally many rows share a scaled schedule (the epoch budget,
    rescaled to the set's size, which leaves `original` unchanged) and
    form one group, whatever their repeat. Every leg is probed with its
    repeat's noise sub-stream and with feature scales taken from the
    original training set, so scores differ only through the nets and the
    data they were trained on. The diversify legs' sets and the groups each
    go through `forking.fan_out`, a group costed as the row gradients it
    sums: nets x rows x epochs. Returns, per leg in the given order, (leg,
    probe), the probe kept for `original` legs only, or the error that made
    the leg infeasible (see `_leg_of`). Each net stays in the process that
    trained and probed it.
    """
    def prepare(key):
        repeat, approach = key
        try:
            return _leg_set(cfg, train_ds, approach, repeat, (references or {}).get(repeat))
        except LEG_ERRORS as exc:
            return exc

    # `original`'s set is `train_ds` itself, which the gate tests by
    # identity, and a resampler takes less time than a fork: both stay here
    here = {key: prepare(key) for key in legs if key[1] not in _DIVERSIFY_MODES}
    shared = [key for key in legs if key not in here]
    prepared = {**here, **forking.fan_out(prepare, shared)}
    runs, fits, notes, by_rows = {}, {}, {}, {}
    for key in legs:
        if isinstance(prepared[key], LEG_ERRORS):
            runs[key] = prepared[key]
        else:
            fits[key], notes[key] = prepared[key]
            by_rows.setdefault(fits[key].n, []).append(key)
    schedules = {tuple(group): scale_schedule(cfg.schedule, train_ds.n, n)
                 for n, group in by_rows.items()}
    scales = feature_scales(train_ds.features)

    def probe_leg(key, outcome):
        if isinstance(outcome, TrainingError):
            return outcome
        (repeat, approach), (model, rep, acc, flagged, reseeded) = key, outcome
        try:
            probe = noise_sweep(model, test_ds, cfg.noise,
                                derive_seed(cfg.seed, "rep", repeat, "probe"), scales)
        except LEG_ERRORS as exc:
            return exc
        leg = LegResult(approach=approach, repeat=repeat, b_r=probe.b_r,
                        delta_x_max=probe.delta_x_max, train_accuracy=acc,
                        test_accuracy=rep.test_accuracy, n_train=fits[key].n,
                        accuracy_flag=flagged, reseeded=reseeded, note=notes[key])
        # only a reference probe is read after this round (diversify starts
        # from it); every other leg keeps its b_r and tolerance in its leg
        return leg, probe if approach == "original" else None

    def run_group(group):
        trained = _train_gated(cfg, group, fits, schedules[group], train_ds, test_ds)
        return [probe_leg(key, trained[key]) for key in group]

    costs = [len(group) * fits[group[0]].n * sum(epochs for _, epochs in schedule.phases)
             for group, schedule in schedules.items()]
    for group, results in forking.fan_out(run_group, schedules, costs).items():
        runs.update(zip(group, results))
    return [runs[key] for key in legs]


def _leg_of(run, approach: str, repeat: int) -> LegResult:
    """The leg of one `_run_legs` entry; an error makes it infeasible, with
    the reason as its note."""
    if isinstance(run, LEG_ERRORS):
        return _infeasible_leg(approach, repeat, str(run))
    return run[0]


def reference_probe(cfg: ExperimentConfig, train_ds: Dataset, test_ds: Dataset):
    """Train repeat 0's reference network and probe it: (leg, probe)."""
    run, = _run_legs(cfg, train_ds, test_ds, [(0, "original")])
    if isinstance(run, LEG_ERRORS):
        raise run
    return run


def run_repeat(cfg: ExperimentConfig, train_ds: Dataset, test_ds: Dataset,
               repeats) -> list[LegResult]:
    """Measure every configured approach once in each of `repeats` (a
    chunk of repeat indices), stage-major across the chunk.

    `cfg.approaches` starts with `original` (the config parser requires it
    and keeps `APPROACH_ORDER`), so the first round runs the reference and
    resampler legs of every repeat in the chunk, and the second round the
    diversify legs, each against its own repeat's reference probe. Within a
    round, same-size legs of different repeats train as one stack (see
    `_run_legs`); each leg draws only from sub-streams keyed by its
    repeat, so a repeat's legs are the same bytes in any chunk. A leg whose
    method cannot run (resampler infeasibility, divergence, no correctly
    classified input, or a class with no correct variants) is recorded as
    infeasible with the reason rather than dropped. When a repeat's
    reference leg is infeasible, that repeat's diversify legs, which need
    its probe, are too; its resampler legs do not read it and run as usual.
    Returns the legs repeat by repeat, in approach order within a repeat.
    """
    repeats = list(repeats)
    first = [a for a in cfg.approaches if a not in _DIVERSIFY_MODES]
    rest = [a for a in cfg.approaches if a in _DIVERSIFY_MODES]
    keys = [(r, a) for r in repeats for a in first]
    runs = dict(zip(keys, _run_legs(cfg, train_ds, test_ds, keys)))
    references = {r: runs[r, "original"][1] for r in repeats
                  if not isinstance(runs[r, "original"], LEG_ERRORS)}
    keys = [(r, a) for r in references for a in rest]
    runs.update(zip(keys, _run_legs(cfg, train_ds, test_ds, keys, references)))
    legs = []
    for r in repeats:
        reference = _leg_of(runs[r, "original"], "original", r)
        legs += [_leg_of(runs[r, a], a, r) if (r, a) in runs else
                 _infeasible_leg(a, r, f"reference leg infeasible: {reference.note}")
                 for a in cfg.approaches]
    return legs


def _chunks(repeats: int, workers: int) -> list:
    """`range(repeats)` cut into one contiguous chunk per worker, at most
    `repeats` chunks, their sizes differing by at most one."""
    count = min(workers, repeats)
    bounds = [repeats * i // count for i in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# Aggregation and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ApproachAggregate:
    approach: str
    per_repeat: tuple                 # b_r per repeat, None where infeasible
    mean: float | None
    std: float | None
    min: float | None
    max: float | None
    feasible: int
    flagged: int
    infeasible: int


@dataclass
class ExperimentReport:
    approaches: tuple[str, ...]
    repeats: int
    master_seed: int
    legs: tuple[LegResult, ...]       # repeat-major, approach order within
    aggregates: dict
    canonical_b_r: float | None       # repeat 0's reference score
    config: dict | None
    durations: dict | None = None     # never written into report files


def aggregate_legs(legs, approaches, repeats) -> dict:
    per = {a: [None] * repeats for a in approaches}
    flagged = {a: 0 for a in approaches}
    infeasible = {a: 0 for a in approaches}
    for leg in legs:
        per[leg.approach][leg.repeat] = leg.b_r
        flagged[leg.approach] += leg.accuracy_flag
        infeasible[leg.approach] += leg.infeasible

    out = {}
    for a in approaches:
        values = [v for v in per[a] if v is not None]
        if values:
            mean = float(np.mean(values))
            std = 0.0 if len(values) == 1 else float(np.std(values, ddof=1))
            lo, hi = float(min(values)), float(max(values))
        else:
            mean = std = lo = hi = None
        out[a] = ApproachAggregate(a, tuple(per[a]), mean, std, lo, hi,
                                   len(values), flagged[a], infeasible[a])
    return out


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Every repeat of the experiment, in one contiguous chunk of repeats
    per worker (all of them at `workers=1`) through `run_repeat`, the legs
    joined in repeat order. The first chunk runs here and each other in a
    forked helper (`forking.fan_out`; all here where "fork" is not
    available), with the same bytes. Where the usable CPUs number at least
    twice the chunks, each chunk forks a helper for each stage that splits
    too: its diversify sets, and its groups of legs to train and probe
    (see `_run_legs`). `durations` records the usable CPUs and how many
    helpers each chunk forked."""
    started = time.perf_counter()
    train_ds, test_ds = load_split(cfg)

    def run_chunk(repeats):
        """A chunk's legs, its wall time shared evenly among its repeats,
        and how many helpers it forked."""
        began, forked = time.perf_counter(), forking.forked
        legs = run_repeat(cfg, train_ds, test_ds, repeats)
        return (legs, [(time.perf_counter() - began) / len(repeats)] * len(repeats),
                forking.forked - forked)

    chunks = _chunks(cfg.repeats, cfg.workers)
    outcomes = forking.fan_out(run_chunk, chunks, processes=len(chunks),
                               spare_only=False).values()
    legs = tuple(leg for result, _, _ in outcomes for leg in result)
    aggregates = aggregate_legs(legs, cfg.approaches, cfg.repeats)
    durations = {"total_seconds": time.perf_counter() - started,
                 "per_repeat_seconds": [s for _, seconds, _ in outcomes for s in seconds],
                 "usable_cpus": forking.usable_cpus(),
                 "helpers_per_chunk": [forked for _, _, forked in outcomes]}
    return ExperimentReport(
        approaches=cfg.approaches,
        repeats=cfg.repeats,
        master_seed=cfg.seed,
        legs=legs,
        aggregates=aggregates,
        canonical_b_r=legs[0].b_r if legs else None,
        config=cfg.raw,
        durations=durations,
    )


def report_to_json(report: ExperimentReport) -> dict:
    aggregates = {}
    for a, agg in report.aggregates.items():
        aggregates[a] = {"mean": agg.mean, "std": agg.std, "min": agg.min,
                         "max": agg.max, "feasible": agg.feasible,
                         "flagged": agg.flagged, "infeasible": agg.infeasible,
                         "per_repeat": list(agg.per_repeat)}
    return {"approaches": list(report.approaches),
            "repeats": report.repeats,
            "master_seed": report.master_seed,
            "canonical_original_b_r": report.canonical_b_r,
            "aggregates": aggregates,
            "legs": [asdict(leg) for leg in report.legs],
            "config": report.config}


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


RUNS_COLUMNS = ("repeat", "approach", "b_r", "delta_x_max", "train_accuracy",
                "test_accuracy", "n_train", "accuracy_flag", "reseeded",
                "infeasible", "note")
REPORT_COLUMNS = ("approach", "feasible", "flagged", "infeasible", "mean_b_r",
                  "std_b_r", "min_b_r", "max_b_r", "canonical_b_r")


def write_runs_csv(report: ExperimentReport, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RUNS_COLUMNS)
        for leg in report.legs:
            writer.writerow([_cell(getattr(leg, c)) for c in RUNS_COLUMNS])


def write_report_csv(report: ExperimentReport, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for a in report.approaches:
            agg = report.aggregates[a]
            canonical = report.canonical_b_r if a == "original" else None
            writer.writerow([_cell(v) for v in (
                a, agg.feasible, agg.flagged, agg.infeasible, agg.mean,
                agg.std, agg.min, agg.max, canonical)])


def quartiles(values) -> tuple[float, float, float]:
    """The 25th, 50th and 75th percentiles of `values`, as
    `np.percentile(values, (25, 50, 75))` gives them: numpy's default
    ("linear") rule, repeated on the sorted values, so that the box plot
    does not load numpy's quantile code (and the `numpy.ma` it imports) for
    three numbers. The bits are numpy's, except that a zero quartile
    between a +0.0 and a -0.0 entry may differ from numpy's in sign, which
    follows numpy's partition order; the plot draws both signs alike."""
    v = sorted(float(x) for x in values)
    n = len(v)
    out = []
    for q in (0.25, 0.5, 0.75):
        virtual = n * q + (1 + q * (1 - 1 - 1)) - 1
        # numpy reads an index past the last value as -1, the last value
        below = -1 if virtual >= n - 1 else max(math.floor(virtual), 0)
        above = -1 if below == -1 else below + 1
        t = virtual - below
        a, b = v[below], v[above]
        out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return tuple(out)


def render_boxplot(report: ExperimentReport) -> str:
    """Hand-rolled SVG: one whisker box per approach, fixed order."""
    approaches = report.approaches
    slot, left, top, bottom = 92, 74, 24, 300
    width = left + slot * len(approaches) + 16
    height = 352

    pooled = [v for a in approaches for v in report.aggregates[a].per_repeat
              if v is not None]
    if pooled:
        vmin, vmax = min(pooled), max(pooled)
        pad = 0.05 * (vmax - vmin) if vmax > vmin else 0.5
        vmin, vmax = vmin - pad, vmax + pad
    else:
        vmin, vmax = 0.0, 1.0

    def y(v: float) -> float:
        return bottom - (v - vmin) / (vmax - vmin) * (bottom - top)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<text x="{left}" y="14">robustness bias score per approach '
        f'({report.repeats} repeats)</text>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="#333"/>',
        f'<line x1="{left}" y1="{bottom}" x2="{width - 12}" y2="{bottom}" stroke="#333"/>',
    ]
    for tick in np.linspace(vmin, vmax, 5):
        ty = y(float(tick))
        parts.append(f'<line x1="{left - 4}" y1="{ty:.2f}" x2="{left}" y2="{ty:.2f}" '
                     f'stroke="#333"/>')
        parts.append(f'<text x="{left - 8}" y="{ty + 4:.2f}" text-anchor="end">'
                     f'{tick:.3f}</text>')

    half = 22
    for i, a in enumerate(approaches):
        cx = left + slot * i + slot / 2
        values = [v for v in report.aggregates[a].per_repeat if v is not None]
        parts.append(f'<g id="box-{a}">')
        parts.append(f'<text x="{cx:.2f}" y="{bottom + 18}" text-anchor="middle">'
                     f'{a}</text>')
        if values:
            q1, q2, q3 = quartiles(values)
            lo, hi = min(values), max(values)
            parts.append(f'<line x1="{cx:.2f}" y1="{y(lo):.2f}" x2="{cx:.2f}" '
                         f'y2="{y(hi):.2f}" stroke="#333"/>')
            for cap in (lo, hi):
                parts.append(f'<line x1="{cx - half / 2:.2f}" y1="{y(cap):.2f}" '
                             f'x2="{cx + half / 2:.2f}" y2="{y(cap):.2f}" stroke="#333"/>')
            parts.append(f'<rect x="{cx - half:.2f}" y="{y(q3):.2f}" width="{2 * half}" '
                         f'height="{max(y(q1) - y(q3), 0.5):.2f}" fill="#9db8d2" '
                         f'stroke="#333"/>')
            parts.append(f'<line x1="{cx - half:.2f}" y1="{y(q2):.2f}" '
                         f'x2="{cx + half:.2f}" y2="{y(q2):.2f}" stroke="#8b1a1a" '
                         f'stroke-width="2"/>')
        else:
            parts.append(f'<text x="{cx:.2f}" y="{(top + bottom) / 2:.2f}" '
                         f'text-anchor="middle">infeasible</text>')
        parts.append('</g>')
    parts.append('</svg>')
    return "\n".join(parts) + "\n"


def numeric_build() -> dict:
    """The numpy version, the name and version of the BLAS it was built
    with, and its SIMD extensions, which the report bytes depend on (matmul
    and reduction order, and the loops the training kernel's sums dispatch
    to). What numpy cannot list is left out: the BLAS before numpy 1.26,
    which cannot list its build as a dict."""
    build = {"version": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    else:
        build["blas"] = {"name": blas.get("name"), "version": blas.get("version")}
    simd = _simd_extensions()
    if simd is not None:
        build["simd_extensions"] = simd
    return build


def _simd_extensions() -> dict | None:
    """numpy's SIMD baseline and the dispatched extensions this CPU has,
    as `numpy.show_runtime()` lists them under "simd_extensions"; None
    where numpy does not expose them."""
    for module in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            umath = importlib.import_module(module)
            baseline, dispatch = umath.__cpu_baseline__, umath.__cpu_dispatch__
            features = umath.__cpu_features__
        except (ImportError, AttributeError):
            continue
        return {"baseline": list(baseline),
                "found": [name for name in dispatch if features.get(name)]}
    return None


def emit_report(report: ExperimentReport, out_dir, svg: bool = True) -> dict:
    """Write report.csv, runs.csv, report.json and (optionally) boxplot.svg.

    Timing and the numpy build live in meta.json so the four report files
    depend only on the master seed and config.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"report_csv": out / "report.csv", "runs_csv": out / "runs.csv",
             "report_json": out / "report.json"}
    write_report_csv(report, paths["report_csv"])
    write_runs_csv(report, paths["runs_csv"])
    with open(paths["report_json"], "w", encoding="utf-8") as fh:
        json.dump(report_to_json(report), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")
    if svg:
        paths["boxplot_svg"] = out / "boxplot.svg"
        with open(paths["boxplot_svg"], "w", encoding="utf-8") as fh:
            fh.write(render_boxplot(report))
    with open(out / "meta.json", "w", encoding="utf-8") as fh:
        json.dump({"durations": report.durations, "numpy": numeric_build()}, fh, indent=2)
        fh.write("\n")
    paths["meta_json"] = out / "meta.json"
    return paths
