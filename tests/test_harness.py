import csv
import itertools
import json
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import biasdiv
from biasdiv import forking, harness
from biasdiv.data import make_toy_blobs, save_csv
from biasdiv.diversify import derive_seed
from biasdiv.errors import ConfigError, DataError, InfeasibleError, ProbeError
from biasdiv.harness import (APPROACH_ORDER, BASELINE_APPROACHES, LegResult,
                             aggregate_legs, emit_report, load_dataset_pair,
                             load_experiment_config, parse_experiment_config,
                             reference_probe, render_boxplot, report_to_json,
                             run_experiment, run_repeat, subsample_imbalanced)
from biasdiv.mlp import TrainSchedule


def write_blobs_csv(path, per_class=12, centers=((0.0, 0.0), (4.0, 4.0)),
                    spread=0.8, seed=5):
    ds = make_toy_blobs(per_class, centers, spread, seed)
    save_csv(ds, path)
    return ds


def config_doc(csv_path, **overrides):
    doc = {
        "dataset": {"csv": str(csv_path), "label_column": "label",
                    "train_fraction": 0.75},
        "network": {"hidden": [8]},
        "schedule": {"phases": [[0.5, 60]]},
        "noise": {"levels": [0.02, 0.05, 0.1, 0.2, 0.3], "samples_per_input": 6},
        "diversify": {"top_k": 2, "max_retries": 5},
        "baselines": {"subsample_fraction": 0.5,
                      "smote": {"k_neighbors": 2},
                      "adasyn": {"k_neighbors": 2}},
        "repeats": 1,
        "seed": 7,
    }
    doc.update(overrides)
    return doc


@pytest.fixture(scope="module")
def separated_cfg(tmp_path_factory):
    root = tmp_path_factory.mktemp("separated")
    write_blobs_csv(root / "blobs.csv")
    return parse_experiment_config(config_doc(root / "blobs.csv", repeats=2),
                                   base_dir=root)


@pytest.fixture(scope="module")
def separated_report(separated_cfg):
    return run_experiment(separated_cfg)


@pytest.fixture
def one_cpu(monkeypatch):
    """One usable CPU: no chunk forks a helper, so every leg trains and is
    probed in this process, where a spy on `harness.train_stack` or
    `harness.noise_sweep` sees it."""
    use_cpus(monkeypatch, 1)


def use_cpus(monkeypatch, count):
    monkeypatch.setattr(forking, "usable_cpus", lambda: count)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def test_parse_config_defaults(tmp_path):
    write_blobs_csv(tmp_path / "blobs.csv")
    doc = config_doc(tmp_path / "blobs.csv")
    del doc["noise"], doc["baselines"], doc["repeats"], doc["seed"]
    cfg = parse_experiment_config(doc, base_dir=tmp_path)
    assert cfg.repeats == 10 and cfg.seed == 0 and cfg.workers == 1
    assert cfg.approaches == APPROACH_ORDER
    assert cfg.subsample_fraction is None
    assert cfg.noise.samples_per_input == 20
    assert set(cfg.plans) == {"rus", "ros", "smote", "adasyn"}
    assert cfg.out_dir == "results"


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(banana=1),
    lambda d: d["dataset"].update(banana=1),
    lambda d: d["baselines"].update(banana=1),
    lambda d: d["network"].update(depth=3),
    lambda d: d["schedule"].update(validation_fraction=0.2),
])
def test_parse_config_rejects_unknown_keys(tmp_path, mutate):
    doc = config_doc(tmp_path / "blobs.csv")
    mutate(doc)
    with pytest.raises(ConfigError, match="unknown key"):
        parse_experiment_config(doc, base_dir=tmp_path)


@pytest.mark.parametrize("section", ["dataset", "network", "schedule", "diversify"])
def test_parse_config_requires_sections(tmp_path, section):
    doc = config_doc(tmp_path / "blobs.csv")
    del doc[section]
    with pytest.raises(ConfigError, match=section):
        parse_experiment_config(doc, base_dir=tmp_path)


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.update(repeats="ten"), "repeats"),
    (lambda d: d.update(repeats=0), "repeats"),
    (lambda d: d.update(seed=True), "seed"),
    (lambda d: d.update(workers=0), "workers"),
    (lambda d: d["network"].update(hidden=[]), "hidden"),
    (lambda d: d["schedule"].update(phases=[[0.5]]), "phases"),
    (lambda d: d["dataset"].update(train_fraction=1.0), "train_fraction"),
    (lambda d: d["baselines"].update(subsample_fraction=0.0), "subsample_fraction"),
    (lambda d: d["noise"].update(attack="meteor"), "attack"),
])
def test_parse_config_value_errors(tmp_path, mutate, fragment):
    doc = config_doc(tmp_path / "blobs.csv")
    mutate(doc)
    with pytest.raises(ConfigError, match=fragment):
        parse_experiment_config(doc, base_dir=tmp_path)


def test_parse_config_dataset_source_rules(tmp_path):
    doc = config_doc(tmp_path / "blobs.csv")
    doc["dataset"]["builtin"] = "iris"
    with pytest.raises(ConfigError, match="exactly one"):
        parse_experiment_config(doc, base_dir=tmp_path)
    doc = config_doc(tmp_path / "blobs.csv")
    doc["dataset"] = {"train_csv": "a.csv"}
    with pytest.raises(ConfigError, match="together"):
        parse_experiment_config(doc, base_dir=tmp_path)


def test_parse_config_approaches(tmp_path):
    doc = config_doc(tmp_path / "blobs.csv",
                     approaches=["diversified", "original", "rus"])
    cfg = parse_experiment_config(doc, base_dir=tmp_path)
    assert cfg.approaches == ("original", "rus", "diversified")

    doc = config_doc(tmp_path / "blobs.csv", approaches=["original", "banana"])
    with pytest.raises(ConfigError, match="banana"):
        parse_experiment_config(doc, base_dir=tmp_path)

    doc = config_doc(tmp_path / "blobs.csv", approaches=["rus"])
    with pytest.raises(ConfigError, match="original"):
        parse_experiment_config(doc, base_dir=tmp_path)


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_experiment_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_experiment_config(bad)


def test_relative_paths_resolve_against_config_dir(tmp_path):
    write_blobs_csv(tmp_path / "data.csv")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_doc("data.csv")))
    cfg = load_experiment_config(cfg_path)
    train, test = load_dataset_pair(cfg.dataset, split_seed=3)
    assert train.n + test.n == 24


def test_env_vars_expand_in_dataset_paths(tmp_path, monkeypatch):
    write_blobs_csv(tmp_path / "data.csv")
    monkeypatch.setenv("BLOB_CSV", str(tmp_path / "data.csv"))
    doc = config_doc("${BLOB_CSV}")
    cfg = parse_experiment_config(doc, base_dir=tmp_path)
    assert cfg.dataset.csv_path == str(tmp_path / "data.csv")


# ---------------------------------------------------------------------------
# Dataset plumbing
# ---------------------------------------------------------------------------

def test_load_dataset_pair_splits(tmp_path):
    write_blobs_csv(tmp_path / "blobs.csv")
    cfg = parse_experiment_config(config_doc(tmp_path / "blobs.csv"),
                                  base_dir=tmp_path)
    train, test = load_dataset_pair(cfg.dataset, split_seed=11)
    assert (train.n, test.n) == (18, 6)
    assert train.L == test.L == 2


def test_load_dataset_pair_two_files_share_class_indices(tmp_path):
    ds = make_toy_blobs(6, [(0.0, 0.0), (5.0, 5.0)], 0.5, seed=2)
    save_csv(ds, tmp_path / "train.csv")
    # test file lists class1 rows first, so first-appearance order differs
    reordered = ds.take(np.concatenate([np.arange(6, 12), np.arange(6)]))
    save_csv(reordered, tmp_path / "test.csv")
    doc = config_doc("unused.csv")
    doc["dataset"] = {"train_csv": str(tmp_path / "train.csv"),
                      "test_csv": str(tmp_path / "test.csv")}
    cfg = parse_experiment_config(doc, base_dir=tmp_path)
    train, test = load_dataset_pair(cfg.dataset, split_seed=0)
    assert train.class_names == test.class_names
    idx = test.class_names.index("class1")
    assert test.labels[0] == idx
    assert np.allclose(test.features[test.labels == idx].mean(axis=0), 5.0, atol=0.5)


def test_load_dataset_pair_builtin_iris():
    doc = {"builtin": "iris", "train_fraction": 0.8}
    cfg = parse_experiment_config(
        {"dataset": doc, "network": {"hidden": [4]},
         "schedule": {"phases": [[0.1, 1]]}, "diversify": {"top_k": 1}})
    train, test = load_dataset_pair(cfg.dataset, split_seed=1)
    assert (train.n, test.n) == (120, 30)
    assert train.class_names == ("setosa", "versicolor", "virginica")
    assert np.array_equal(np.bincount(test.labels), [10, 10, 10])


def test_load_dataset_pair_normalize(tmp_path):
    write_blobs_csv(tmp_path / "blobs.csv")
    doc = config_doc(tmp_path / "blobs.csv")
    doc["dataset"]["normalize"] = True
    cfg = parse_experiment_config(doc, base_dir=tmp_path)
    train, test = load_dataset_pair(cfg.dataset, split_seed=11)
    assert np.allclose(train.features.min(axis=0), 0.0)
    assert np.allclose(train.features.max(axis=0), 1.0)
    assert np.isfinite(test.features).all()


def test_load_dataset_pair_missing_file(tmp_path):
    doc = config_doc(tmp_path / "nope.csv")
    cfg = parse_experiment_config(doc, base_dir=tmp_path)
    with pytest.raises(DataError, match="cannot read"):
        load_dataset_pair(cfg.dataset, split_seed=0)


def test_subsample_imbalanced_thins_one_class():
    ds = make_toy_blobs(20, [(0.0, 0.0), (4.0, 4.0)], 0.5, seed=9)
    sub = subsample_imbalanced(ds, 0.5, seed=13)
    assert sub.n == 30
    counts = np.sort(sub.class_counts())
    assert np.array_equal(counts, [10, 20])
    # the subset is drawn from the original rows
    seen = {tuple(row) for row in ds.features}
    assert all(tuple(row) in seen for row in sub.features)
    again = subsample_imbalanced(ds, 0.5, seed=13)
    assert np.array_equal(sub.features, again.features)
    assert np.array_equal(sub.labels, again.labels)


def test_subsample_imbalanced_varies_target_class():
    ds = make_toy_blobs(12, [(0.0, 0.0), (4.0, 4.0), (8.0, 8.0)], 0.5, seed=9)
    thinned = set()
    for seed in range(12):
        counts = subsample_imbalanced(ds, 0.5, seed=seed).class_counts()
        assert np.sort(counts).tolist() == [6, 12, 12]
        thinned.add(int(np.argmin(counts)))
    assert len(thinned) > 1


def test_subsample_imbalanced_single_class_rejected():
    ds = make_toy_blobs(10, [(1.0, 1.0)], 0.3, seed=4)
    with pytest.raises(InfeasibleError, match="two classes"):
        subsample_imbalanced(ds, 0.4, seed=2)


def test_subsample_imbalanced_rejects_bad_fraction():
    ds = make_toy_blobs(4, [(0.0, 0.0), (4.0, 4.0)], 0.5, seed=1)
    with pytest.raises(ValueError):
        subsample_imbalanced(ds, 1.0, seed=0)


# ---------------------------------------------------------------------------
# Repeats and aggregation
# ---------------------------------------------------------------------------

def test_run_repeat_order_and_annotations(separated_cfg):
    from biasdiv.diversify import derive_seed
    train, test = load_dataset_pair(separated_cfg.dataset,
                                    derive_seed(separated_cfg.seed, "split"))
    legs = run_repeat(separated_cfg, train, test, [0])
    assert [leg.approach for leg in legs] == list(separated_cfg.approaches)
    by = {leg.approach: leg for leg in legs}
    assert not by["original"].infeasible
    assert by["original"].b_r is not None and by["original"].b_r >= 0.0
    # far-apart classes leave ADASYN nothing to work with
    assert by["adasyn"].infeasible and "not suited" in by["adasyn"].note
    for approach in ("rus", "ros", "diversified", "synth_only", "delete_only"):
        assert not by[approach].infeasible
        assert by[approach].test_accuracy == 1.0
    assert by["rus"].n_train <= 9 * 2


def test_run_experiment_single_repeat(tmp_path):
    write_blobs_csv(tmp_path / "blobs.csv")
    cfg = parse_experiment_config(config_doc(tmp_path / "blobs.csv"),
                                  base_dir=tmp_path)
    report = run_experiment(cfg)
    assert len(report.legs) == len(cfg.approaches)
    assert report.canonical_b_r == report.legs[0].b_r
    for a in cfg.approaches:
        agg = report.aggregates[a]
        if agg.feasible:
            assert agg.feasible == 1 and agg.std == 0.0
            assert agg.mean == agg.min == agg.max
        else:
            assert agg.mean is None and agg.infeasible == 1


def test_run_experiment_deterministic(separated_cfg, separated_report):
    again = run_experiment(separated_cfg)
    assert report_to_json(again) == report_to_json(separated_report)


def test_parallel_matches_sequential(separated_cfg, separated_report):
    from dataclasses import replace
    parallel = run_experiment(replace(separated_cfg, workers=2))
    assert report_to_json(parallel) == report_to_json(separated_report)


def _report_bytes(report, out):
    paths = emit_report(report, out)
    return {key: paths[key].read_bytes()
            for key in ("report_csv", "runs_csv", "report_json", "boxplot_svg")}


@pytest.mark.usefixtures("one_cpu")
@pytest.mark.parametrize("case", ["default", "gate_fails"])
def test_chunks_write_the_bytes_of_single_repeats(separated_cfg, monkeypatch, tmp_path, case):
    """One chunk of three repeats (workers=1) and chunks [0] and [1, 2]
    (workers=2) write the bytes of three one-repeat `run_repeat` calls."""
    cfg = replace(separated_cfg, repeats=3)
    if case == "gate_fails":   # every leg re-seeds, in a cross-repeat stack
        monkeypatch.setattr(harness, "ACCURACY_GATE", 1.0)
    assert harness._chunks(3, 2) == [range(0, 1), range(1, 3)]
    real_sweep, probed = harness.noise_sweep, []

    def sweep_spy(model, test_ds, noise, seed, scales):   # b_r is 0 here: compare the nets
        probed.append((seed, b"".join(p.tobytes() for p in model.weights + model.biases)))
        return real_sweep(model, test_ds, noise, seed, scales)

    monkeypatch.setattr(harness, "noise_sweep", sweep_spy)
    sequential = run_experiment(cfg)
    chunk_nets = sorted(probed)
    probed.clear()
    train, test = harness.load_split(cfg)
    legs = tuple(leg for r in range(3) for leg in run_repeat(cfg, train, test, [r]))
    assert sorted(probed) == chunk_nets
    parallel = run_experiment(replace(cfg, workers=2))
    single = replace(sequential, legs=legs, canonical_b_r=legs[0].b_r,
                     aggregates=aggregate_legs(legs, cfg.approaches, 3))
    want = _report_bytes(single, tmp_path / "single")
    assert _report_bytes(sequential, tmp_path / "sequential") == want
    assert _report_bytes(parallel, tmp_path / "parallel") == want
    for report in (sequential, parallel):
        assert len(report.durations["per_repeat_seconds"]) == 3
    trained = [leg for leg in legs if not leg.infeasible]
    assert trained and all(leg.reseeded for leg in trained) == (case == "gate_fails")


def test_reference_probe_matches_repeat_zero(separated_cfg, separated_report):
    from biasdiv.diversify import derive_seed
    train, test = load_dataset_pair(separated_cfg.dataset,
                                    derive_seed(separated_cfg.seed, "split"))
    leg, probe = reference_probe(separated_cfg, train, test)
    assert leg == separated_report.legs[0]
    assert probe.b_r == leg.b_r


@pytest.mark.usefixtures("one_cpu")
def test_probe_error_marks_only_its_leg_infeasible(separated_cfg, monkeypatch):
    train, test = harness.load_split(separated_cfg)
    real_sweep = harness.noise_sweep
    rus = {derive_seed(separated_cfg.seed, "rep", 0, "rus", "init", attempt)
           for attempt in (0, 1)}

    def sweep(model, *args):
        if model.spec.init_seed in rus:   # the rus net, first or re-seeded
            raise ProbeError("no correctly classified inputs to probe")
        return real_sweep(model, *args)

    monkeypatch.setattr(harness, "noise_sweep", sweep)
    by = {leg.approach: leg for leg in run_repeat(separated_cfg, train, test, [0])}
    assert by["rus"].infeasible and by["rus"].b_r is None
    assert by["rus"].note == "no correctly classified inputs to probe"
    for approach in ("original", "ros", "diversified", "synth_only", "delete_only"):
        assert not by[approach].infeasible, approach


def test_aggregate_legs_statistics():
    def leg(approach, repeat, b_r, infeasible=False, flag=False):
        return LegResult(approach=approach, repeat=repeat, b_r=b_r,
                         delta_x_max=0.1, train_accuracy=1.0, test_accuracy=1.0,
                         n_train=10, accuracy_flag=flag, infeasible=infeasible)

    legs = [leg("original", 0, 0.2), leg("adasyn", 0, None, infeasible=True),
            leg("original", 1, 0.4), leg("adasyn", 1, 0.5, flag=True),
            leg("original", 2, 0.6), leg("adasyn", 2, None, infeasible=True)]
    aggs = aggregate_legs(legs, ("original", "adasyn"), repeats=3)

    orig = aggs["original"]
    assert orig.per_repeat == (0.2, 0.4, 0.6)
    assert orig.mean == pytest.approx(0.4)
    assert orig.std == pytest.approx(float(np.std([0.2, 0.4, 0.6], ddof=1)))
    assert (orig.min, orig.max) == (0.2, 0.6)
    assert (orig.feasible, orig.flagged, orig.infeasible) == (3, 0, 0)

    ada = aggs["adasyn"]
    assert ada.per_repeat == (None, 0.5, None)
    assert ada.mean == 0.5 and ada.std == 0.0
    assert (ada.feasible, ada.flagged, ada.infeasible) == (1, 1, 2)


def test_accuracy_gate_flags_undertrained_leg(tmp_path):
    write_blobs_csv(tmp_path / "blobs.csv", per_class=16,
                    centers=((0.0, 0.0), (0.7, 0.7)), spread=1.2, seed=3)
    doc = config_doc(tmp_path / "blobs.csv", approaches=["original"])
    doc["schedule"] = {"phases": [[0.001, 1]]}
    doc["noise"] = {"levels": [0.05], "samples_per_input": 2}
    cfg = parse_experiment_config(doc, base_dir=tmp_path)
    report = run_experiment(cfg)
    leg = report.legs[0]
    assert leg.accuracy_flag and leg.reseeded
    assert report.aggregates["original"].flagged == 1


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_emit_report_files_and_recompute(separated_cfg, separated_report, tmp_path):
    paths = emit_report(separated_report, tmp_path / "out")
    for key in ("report_csv", "runs_csv", "report_json", "boxplot_svg", "meta_json"):
        assert paths[key].is_file()

    runs = _read_rows(paths["runs_csv"])
    assert len(runs) == separated_cfg.repeats * len(separated_cfg.approaches)

    by_approach = {}
    for row in runs:
        if row["b_r"] != "":
            by_approach.setdefault(row["approach"], []).append(float(row["b_r"]))
    for row in _read_rows(paths["report_csv"]):
        values = by_approach.get(row["approach"], [])
        if not values:
            assert row["mean_b_r"] == ""
            continue
        assert float(row["mean_b_r"]) == pytest.approx(np.mean(values), abs=1e-9)
        expected_std = 0.0 if len(values) == 1 else float(np.std(values, ddof=1))
        assert float(row["std_b_r"]) == pytest.approx(expected_std, abs=1e-9)
        assert float(row["min_b_r"]) == pytest.approx(min(values), abs=1e-9)
        assert float(row["max_b_r"]) == pytest.approx(max(values), abs=1e-9)

    doc = json.loads(paths["report_json"].read_text())
    assert doc["approaches"] == list(separated_cfg.approaches)
    assert doc["repeats"] == separated_cfg.repeats
    assert "durations" not in doc
    meta = json.loads(paths["meta_json"].read_text())
    assert len(meta["durations"]["per_repeat_seconds"]) == separated_cfg.repeats


def test_meta_records_the_numpy_build(separated_report, tmp_path, monkeypatch):
    """meta.json names the numpy version, its BLAS and its SIMD extensions
    beside the durations; a numpy that cannot list its build as a dict
    (before 1.26) leaves out the BLAS, and one that does not expose its
    SIMD extensions leaves those out. The report files stay as they are."""
    paths = emit_report(separated_report, tmp_path / "out", svg=False)
    meta = json.loads(paths["meta_json"].read_text())
    assert set(meta) == {"durations", "numpy"}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    from numpy._core._multiarray_umath import (__cpu_baseline__, __cpu_dispatch__,
                                               __cpu_features__)
    simd = {"baseline": list(__cpu_baseline__),
            "found": [name for name in __cpu_dispatch__ if __cpu_features__[name]]}
    assert meta["numpy"] == {"version": np.__version__,
                             "blas": {"name": blas["name"], "version": blas["version"]},
                             "simd_extensions": simd}

    def old_show_config():   # numpy 1.24's signature: no `mode`
        print("blas_opt_info: ...")

    monkeypatch.setattr(np, "show_config", old_show_config)
    again = emit_report(separated_report, tmp_path / "old", svg=False)
    assert json.loads(again["meta_json"].read_text())["numpy"] == {
        "version": np.__version__, "simd_extensions": simd}
    for key in ("report_csv", "runs_csv", "report_json"):
        assert again[key].read_bytes() == paths[key].read_bytes()

    for module in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        monkeypatch.setitem(sys.modules, module, None)   # importing it now fails
    bare = emit_report(separated_report, tmp_path / "bare", svg=False)
    assert json.loads(bare["meta_json"].read_text())["numpy"] == {"version": np.__version__}


def test_emit_report_bit_identical_across_runs(separated_cfg, separated_report, tmp_path):
    first = emit_report(separated_report, tmp_path / "a")
    second = emit_report(run_experiment(separated_cfg), tmp_path / "b")
    for key in ("report_csv", "runs_csv", "report_json", "boxplot_svg"):
        assert first[key].read_bytes() == second[key].read_bytes()


def test_emit_report_without_svg(separated_report, tmp_path):
    paths = emit_report(separated_report, tmp_path / "nosvg", svg=False)
    assert "boxplot_svg" not in paths
    assert not (tmp_path / "nosvg" / "boxplot.svg").exists()


def test_boxplot_has_one_group_per_approach(separated_report):
    svg = render_boxplot(separated_report)
    for approach in separated_report.approaches:
        assert f'<g id="box-{approach}">' in svg
    assert svg.count("<g id=") == len(separated_report.approaches)
    assert "infeasible" in svg  # the all-infeasible adasyn column is labelled


RUNS = """
import json, sys
import numpy
before = set(sys.modules)
from dataclasses import replace
from biasdiv.harness import emit_report, parse_experiment_config, run_experiment
cfg = parse_experiment_config(json.loads(sys.argv[1]))
emit_report(run_experiment(cfg), sys.argv[2])
sequential = sorted(set(sys.modules) - before)
emit_report(run_experiment(replace(cfg, workers=2)), sys.argv[3])
print(json.dumps([sequential, sorted(set(sys.modules) - before)]))
"""


def test_runs_load_no_pool_and_no_numpy_ma(tmp_path):
    """A `workers=1` experiment and its report, then a `workers=2` one, in
    one fresh interpreter: neither loads `concurrent.futures` (chunks run
    in forked helpers, not a process pool), and the box plot's quartiles
    do not load `numpy.ma`. The two runs write the same bytes."""
    write_blobs_csv(tmp_path / "blobs.csv")
    doc = config_doc(tmp_path / "blobs.csv", workers=1, repeats=2)
    src = str(Path(biasdiv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", RUNS, json.dumps(doc), str(tmp_path / "one"),
                           str(tmp_path / "two")], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    sequential, both = json.loads(proc.stdout)
    for loaded in (sequential, both):
        assert "concurrent.futures" not in loaded
        assert "numpy.ma" not in loaded
    for name in ("report.json", "runs.csv", "report.csv", "boxplot.svg"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_feasible_adasyn_on_overlapping_blobs(tmp_path):
    write_blobs_csv(tmp_path / "blobs.csv", per_class=16,
                    centers=((0.0, 0.0), (1.6, 1.6)), spread=1.4, seed=21)
    doc = config_doc(tmp_path / "blobs.csv",
                     approaches=["original", "smote", "adasyn"])
    doc["schedule"] = {"phases": [[0.5, 200]]}
    cfg = parse_experiment_config(doc, base_dir=tmp_path)
    report = run_experiment(cfg)
    by = {leg.approach: leg for leg in report.legs}
    assert not by["adasyn"].infeasible
    assert not by["smote"].infeasible
    assert by["adasyn"].n_train >= by["original"].n_train // 2


def test_original_leg_gate_reuses_train_accuracy(separated_cfg, monkeypatch):
    # the original leg fits the whole train split, which `train` already
    # scored; a resampled leg is gated on the train split, not its own rows
    train, test = harness.load_split(separated_cfg)
    real_accuracy, scored = harness.accuracy, []

    def counting_accuracy(model, ds):
        scored.append(ds)
        return real_accuracy(model, ds)

    real_sweep, nets = harness.noise_sweep, []

    def sweep_spy(model, *args):
        nets.append(model)
        return real_sweep(model, *args)

    monkeypatch.setattr(harness, "accuracy", counting_accuracy)
    monkeypatch.setattr(harness, "noise_sweep", sweep_spy)
    (leg, _), = harness._run_legs(separated_cfg, train, test, [(0, "original")])
    assert scored == []
    assert leg.train_accuracy == real_accuracy(nets[-1], train)

    (leg, _), = harness._run_legs(separated_cfg, train, test, [(0, "ros")])
    assert scored == [train]
    assert leg.train_accuracy == real_accuracy(nets[-1], train)


@pytest.mark.usefixtures("one_cpu")
def test_every_leg_trains_the_configured_schedule(tmp_path, monkeypatch):
    """Legs of different sizes (`original` and the subsampled `rus`) each
    take the configured number of full-batch steps: every `train` and
    `train_stack` call gets `cfg.schedule` as it is, and every report has
    one loss per epoch of it."""
    write_blobs_csv(tmp_path / "blobs.csv")
    doc = config_doc(tmp_path / "blobs.csv", approaches=["original", "rus"],
                     schedule={"phases": [[0.5, 30], [0.2, 20]]})
    cfg = parse_experiment_config(doc, base_dir=tmp_path)
    calls = []

    def spy(name):
        real = getattr(harness, name)

        def call(nets, fits, schedule, *args, **kwargs):
            result = real(nets, fits, schedule, *args, **kwargs)
            calls.append((name, schedule, result if name == "train_stack" else [result]))
            return result
        monkeypatch.setattr(harness, name, call)

    spy("train")
    spy("train_stack")
    sizes = set()
    for repeats in (1, 2):   # one net per group goes through `train`, two through a stack
        report = run_experiment(replace(cfg, repeats=repeats))
        sizes |= {leg.n_train for leg in report.legs}
    assert len(sizes) == 2
    assert {name for name, _, _ in calls} == {"train", "train_stack"}
    epochs = sum(epochs for _, epochs in cfg.schedule.phases)
    for _, schedule, results in calls:
        assert schedule == cfg.schedule
        assert all(len(rep.losses) == epochs for _, rep in results)


def single_approach_legs(cfg, train, test, repeat):
    """`run_repeat`'s legs with every approach through the leg path alone, so
    every net trains through `train`."""
    legs, reference = [], None
    for approach in cfg.approaches:
        if approach in ("original", *BASELINE_APPROACHES) or reference is not None:
            run, = harness._run_legs(cfg, train, test, [(repeat, approach)],
                                     {repeat: reference})
            leg = harness._leg_of(run, approach, repeat)
        else:
            leg = harness._infeasible_leg(approach, repeat,
                                          f"reference leg infeasible: {legs[0].note}")
        if approach == "original" and not leg.infeasible:
            reference = run[1]
        legs.append(leg)
    return legs


@pytest.mark.usefixtures("one_cpu")
@pytest.mark.parametrize("case", ["default", "gate_fails", "diverges"])
def test_run_repeat_legs_equal_single_approach_legs(separated_cfg, monkeypatch, case):
    cfg = separated_cfg
    if case == "gate_fails":   # no net scores above 1: every leg re-seeds as a stack
        monkeypatch.setattr(harness, "ACCURACY_GATE", 1.0)
    elif case == "diverges":
        cfg = replace(cfg, schedule=TrainSchedule(((1e9, 50),)))
    train, test = harness.load_split(cfg)
    real_stack, stacks = harness.train_stack, []
    real_sweep, probed = harness.noise_sweep, []   # (init seed, net) per probe

    def stack_spy(mlps, *args, **kwargs):
        stacks.append(len(mlps))
        return real_stack(mlps, *args, **kwargs)

    def sweep_spy(model, *args):   # every leg here scores b_r 0: compare the nets
        probed.append((model.spec.init_seed,
                       b"".join(p.tobytes() for p in model.weights + model.biases)))
        return real_sweep(model, *args)

    monkeypatch.setattr(harness, "train_stack", stack_spy)
    monkeypatch.setattr(harness, "noise_sweep", sweep_spy)
    legs = []
    for repeat in range(2):
        probed.clear()
        legs += run_repeat(cfg, train, test, [repeat])
        stacked, nets = len(stacks), sorted(probed)
        probed.clear()
        assert legs[-len(cfg.approaches):] == single_approach_legs(cfg, train, test, repeat)
        assert len(stacks) == stacked
        assert sorted(probed) == nets
    assert stacks and min(stacks) >= 2
    trained = [leg for leg in legs if not leg.infeasible]
    if case == "gate_fails":
        assert trained and all(leg.accuracy_flag and leg.reseeded for leg in trained)
    if case == "diverges":
        assert trained and any(leg.note.startswith("training diverged at epoch ")
                               for leg in legs)


# ---------------------------------------------------------------------------
# Forked helpers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("costs, share", [
    ([960, 120], [False, True]),             # iris at seed 6: the main stack and rus
    ([221, 185], [False, True]),             # iris's two diversified singletons
    ([225, 120, 990], [True, True, False]),  # wide-div: the oversamplers' stack
    ([1] * 5, [False, True, False, True, False]),           # probes, equal costs
    ([7], [False]),
    ([], []),
])
def test_helper_share_on_the_benchmark_group_costs(costs, share):
    assert forking._helper_share(costs) == share


def _best_largest_bin(costs, processes):
    """The largest bin of the best split of `costs` over `processes` bins,
    by brute force."""
    return min(max(sum(c for c, at in zip(costs, bins) if at == b) for b in range(processes))
               for bins in itertools.product(range(processes), repeat=len(costs)))


def test_helper_share_keeps_the_heaviest_item_and_graham_bound():
    """This process takes the heaviest item, and the larger bin is within
    7/6 of the best two-way split's, against brute force."""
    rng = np.random.default_rng(3)
    for _ in range(300):
        costs = rng.integers(1, 50, size=int(rng.integers(1, 9))).tolist()
        bins = forking._helper_share(costs)
        assert bins[int(np.argmax(costs))] == 0
        larger = max(sum(c for c, at in zip(costs, bins) if at == b) for b in (0, 1))
        assert 6 * larger <= 7 * _best_largest_bin(costs, 2)


def test_helper_share_keeps_graham_bound_over_three_bins():
    """Over three bins, this process takes the heaviest item and the
    largest bin is within Graham's 4/3 - 1/(3k) = 11/9 of the best
    three-way split's, against brute force."""
    rng = np.random.default_rng(4)
    for _ in range(100):
        costs = rng.integers(1, 50, size=int(rng.integers(1, 8))).tolist()
        bins = forking._helper_share(costs, 3)
        assert bins[int(np.argmax(costs))] == 0 and set(bins) <= {0, 1, 2}
        largest = max(sum(c for c, at in zip(costs, bins) if at == b) for b in range(3))
        assert 9 * largest <= 11 * _best_largest_bin(costs, 3)


@pytest.mark.parametrize("costs", [[1, 1, 1], [4, 9, 2], [5, 5, 3, 3], [2, 7]])
def test_helper_share_puts_k_items_one_per_bin(costs):
    """k items into k bins go one per bin, this process's bin 0 taking the
    heaviest; at equal costs, item i goes to bin i (chunk 0 stays here)."""
    bins = forking._helper_share(costs, len(costs))
    assert sorted(bins) == list(range(len(costs)))
    assert bins[int(np.argmax(costs))] == 0
    if len(set(costs)) == 1:
        assert bins == list(range(len(costs)))


@pytest.mark.parametrize("case", ["default", "gate_fails", "diverges"])
def test_helpers_write_the_bytes_of_one_cpu(separated_cfg, monkeypatch, tmp_path, case):
    """Every chunk but the first runs in a forked helper, and a chunk forks
    a helper per stage where the usable CPUs number at least twice the
    chunks: at workers=1 on two CPUs, and in each chunk at workers=2 on
    four. Neither at workers=2 on two CPUs, nor where "fork" is not
    available, where every chunk runs here. The report bytes are the
    one-CPU bytes."""
    cfg = replace(separated_cfg, repeats=3)
    if case == "gate_fails":   # every leg re-seeds, in a cross-repeat stack
        monkeypatch.setattr(harness, "ACCURACY_GATE", 1.0)
    elif case == "diverges":
        cfg = replace(cfg, schedule=TrainSchedule(((1e9, 50),)))
    use_cpus(monkeypatch, 1)
    want = _report_bytes(run_experiment(cfg), tmp_path / "one")
    helpers = {}
    for cpus, workers in ((2, 1), (4, 2), (2, 2)):
        use_cpus(monkeypatch, cpus)
        report = run_experiment(replace(cfg, workers=workers))
        assert _report_bytes(report, tmp_path / f"{cpus}-{workers}") == want, (cpus, workers)
        assert report.durations["usable_cpus"] == cpus
        helpers[cpus, workers] = report.durations["helpers_per_chunk"]
    # one helper each for round 1's groups, round 2's sets and round 2's
    # groups; a group re-seeds and probes in the process that trained it
    assert helpers[2, 1] == [3] and helpers[2, 2] == [0, 0]
    assert min(helpers[4, 2]) > 0
    monkeypatch.setattr(forking, "_fork_context", lambda: None)
    for workers, chunks in ((1, 1), (2, 2)):
        report = run_experiment(replace(cfg, workers=workers))
        assert report.durations["helpers_per_chunk"] == [0] * chunks
        assert _report_bytes(report, tmp_path / f"nofork-{workers}") == want, workers
    assert multiprocessing.active_children() == []
    trained = [leg for leg in report.legs if not leg.infeasible]
    assert trained and all(leg.reseeded for leg in trained) == (case == "gate_fails")
    if case == "diverges":
        assert any(leg.note.startswith("training diverged at epoch ") for leg in report.legs)


def test_iris_chunk_forks_one_helper_per_split_stage(monkeypatch):
    """Iris at two repeats on two CPUs forks three helpers: round 1's
    groups, round 2's diversify sets and round 2's groups, each trained
    and probed in one process."""
    use_cpus(monkeypatch, 2)
    cfg = load_experiment_config(Path(__file__).resolve().parent.parent / "configs" / "iris.json")
    report = run_experiment(replace(cfg, repeats=2, workers=1))
    assert report.durations["helpers_per_chunk"] == [3]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("stage", ["diversify", "probe"])
def test_leg_error_in_the_helper_marks_only_its_leg_infeasible(separated_cfg, monkeypatch,
                                                                stage):
    """A leg error raised in the helper comes back as a value and lands on
    its own leg: the diversify leg `(1, diversified)`, or each leg of repeat
    1 whose probe the helper runs. Every other leg is as on one CPU."""
    train, test = harness.load_split(separated_cfg)
    use_cpus(monkeypatch, 1)
    want = run_repeat(separated_cfg, train, test, [0, 1])
    use_cpus(monkeypatch, 2)
    main, note = os.getpid(), f"{stage} fails in the helper"
    if stage == "diversify":
        real, target = harness.diversify, derive_seed(separated_cfg.seed, "rep", 1, "diversified")

        def failing(train_ds, reference, config, seed, mode):
            if os.getpid() != main and seed == target:
                raise InfeasibleError(note)
            return real(train_ds, reference, config, seed, mode)
    else:
        real, target = harness.noise_sweep, derive_seed(separated_cfg.seed, "rep", 1, "probe")

        def failing(model, test_ds, noise, seed, scales):
            if os.getpid() != main and seed == target:
                raise ProbeError(note)
            return real(model, test_ds, noise, seed, scales)

    monkeypatch.setattr(harness, stage if stage == "diversify" else "noise_sweep", failing)
    legs = run_repeat(separated_cfg, train, test, [0, 1])
    failed = {i for i, leg in enumerate(legs) if leg.note == note}
    assert failed and all(legs[i].repeat == 1 and legs[i].infeasible for i in failed)
    if stage == "diversify":
        assert [(legs[i].repeat, legs[i].approach) for i in failed] == [(1, "diversified")]
    assert ([leg for i, leg in enumerate(legs) if i not in failed]
            == [leg for i, leg in enumerate(want) if i not in failed])
    assert multiprocessing.active_children() == []


def _open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.mark.parametrize("where", ["helper", "here", "helper_exits", "chunk"])
def test_failures_around_a_helper_raise_and_leave_nothing_running(separated_cfg, monkeypatch,
                                                                  where):
    """An exception in a stage's helper, or in the helper that runs the
    second chunk of a workers=2 experiment, is raised in the caller, with
    the helper's traceback as its cause; one in this process while the
    helper runs propagates; a helper that exits without its results raises
    `ChildProcessError`. On every path the helper is joined and both ends
    of its pipe are closed."""
    train, test = harness.load_split(separated_cfg)
    use_cpus(monkeypatch, 2)
    main, real_sweep = os.getpid(), harness.noise_sweep

    def sweep(*args):
        if os.getpid() == main and where == "here":
            raise ValueError("a sweep fails here")
        if os.getpid() != main and where in ("helper", "chunk"):
            raise ValueError("a sweep fails in the helper")
        if os.getpid() != main and where == "helper_exits":
            os._exit(3)
        return real_sweep(*args)

    monkeypatch.setattr(harness, "noise_sweep", sweep)
    fds = _open_fds()
    raised = {"here": (ValueError, "a sweep fails here"),
              "helper": (ValueError, "a sweep fails in the helper"),
              "chunk": (ValueError, "a sweep fails in the helper"),
              "helper_exits": (ChildProcessError,
                               "the helper process for .* exited with code 3")}
    with pytest.raises(raised[where][0], match=raised[where][1]) as info:
        if where == "chunk":
            run_experiment(replace(separated_cfg, workers=2))
        else:
            run_repeat(separated_cfg, train, test, [0, 1])
    if where in ("helper", "chunk"):
        cause = info.value.__cause__
        assert isinstance(cause, forking._HelperTraceback)
        assert ("in the helper process for [range(1, 2)]" if where == "chunk" else
                "in the helper process for [((0, 'rus'), (1, 'rus'))]") in str(cause)
        assert "ValueError: a sweep fails in the helper" in str(cause)
    assert multiprocessing.active_children() == []
    assert _open_fds() == fds
