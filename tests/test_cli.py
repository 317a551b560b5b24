import csv
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import biasdiv
from biasdiv import forking, probe
from biasdiv.cli import main
from biasdiv.data import make_toy_blobs, save_csv
from biasdiv.harness import load_experiment_config

REPO = Path(__file__).resolve().parent.parent


def write_config(tmp_path, **overrides):
    ds = make_toy_blobs(12, [(0.0, 0.0), (4.0, 4.0)], 0.8, seed=5)
    save_csv(ds, tmp_path / "blobs.csv")
    doc = {
        "dataset": {"csv": "blobs.csv", "label_column": "label",
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
        "out_dir": str(tmp_path / "results"),
    }
    doc.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


def count_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["probe", "--config", str(tmp_path / "none.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["experiment", "--config", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, banana=1)
    assert main(["probe", "--config", str(path)]) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("diversify", "corr_threshold", float("nan")),
    ("schedule", "phases", [[float("inf"), 60]]),
])
def test_non_finite_config_number_exits_2_before_any_work(tmp_path, capsys, section,
                                                          key, value):
    path = write_config(tmp_path)
    doc = json.loads(path.read_text())
    doc[section][key] = value
    path.write_text(json.dumps(doc))   # writes the bare NaN / Infinity tokens
    assert main(["experiment", "--config", str(path)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("command", ["experiment", "diversify"])
def test_top_k_above_feature_count_exits_2_before_any_leg_trains(tmp_path, capsys,
                                                                 monkeypatch, command):
    def no_training(*args, **kwargs):
        raise AssertionError("a leg trained")

    monkeypatch.setattr("biasdiv.harness._train_gated", no_training)
    path = write_config(tmp_path, diversify={"top_k": 3})   # the blobs have 2 features
    assert main([command, "--config", str(path)]) == 2
    assert "top_k (3) exceeds the dataset's 2 features" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()



def run_iris_probe_with(tmp_path, dataset_keys):
    doc = json.loads((REPO / "configs" / "iris.json").read_text(encoding="utf-8"))
    doc["dataset"].update(dataset_keys)
    path = tmp_path / "iris.json"
    path.write_text(json.dumps(doc))
    return main(["probe", "--config", str(path), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("mapping", [
    {"setosa": 0, "versicolor": 0, "virginica": 1},   # duplicate index
    {"setosa": 0, "versicolor": 1, "virginica": 3},   # gap
])
def test_bad_class_names_exits_2(tmp_path, capsys, mapping):
    assert run_iris_probe_with(tmp_path, {"class_names": mapping}) == 2
    assert capsys.readouterr().err.startswith("config error: dataset: class indices")
    assert not (tmp_path / "out").exists()


def test_label_among_feature_columns_exits_2(tmp_path, capsys):
    # the bundled iris's label column is "species"
    assert run_iris_probe_with(tmp_path, {"feature_columns": ["species", "sepal_length"]}) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "label_column" in err
    assert not (tmp_path / "out").exists()

def test_missing_dataset_exits_3(tmp_path, capsys):
    path = write_config(tmp_path)
    (tmp_path / "blobs.csv").unlink()
    assert main(["probe", "--config", str(path)]) == 3
    assert "data error" in capsys.readouterr().err


def test_unset_dataset_variable_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BIASDIV_LEUKEMIA_TEST", str(tmp_path / "test.csv"))
    monkeypatch.delenv("BIASDIV_LEUKEMIA_TRAIN", raising=False)
    path = REPO / "configs" / "leukemia.json"
    assert main(["probe", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: dataset.train_csv: environment variable "
        "BIASDIV_LEUKEMIA_TRAIN is not set")
    assert not (tmp_path / "out").exists()


def test_probe_writes_outputs(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "probe_out"
    assert main(["probe", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "probe_report.json").is_file()
    assert (out / "counterexamples.csv").is_file()
    captured = capsys.readouterr().out
    assert "b_r=" in captured and "delta_x_max=" in captured
    doc = json.loads((out / "probe_report.json").read_text())
    assert doc["b_r"] >= 0.0


def test_probe_csv_helper_that_dies_is_an_io_error(tmp_path, capsys, monkeypatch):
    """A counterexample CSV helper that exits without its results makes
    `biasdiv probe` report an i/o error and exit 1, leaving no part file.
    The blobs overlap, so the probe finds counterexamples to split."""
    path = write_config(tmp_path)
    save_csv(make_toy_blobs(12, [(0.0, 0.0), (1.5, 1.5)], 0.8, seed=5), tmp_path / "blobs.csv")
    out = tmp_path / "probe_out"
    writer, parent = probe._write_rows, os.getpid()

    def dying_in_the_helper(fh, cex, start, stop):
        if os.getpid() != parent:
            os._exit(3)
        writer(fh, cex, start, stop)

    monkeypatch.setattr(forking, "usable_cpus", lambda: 2)
    monkeypatch.setattr(probe, "_MIN_BLOCK_VALUES", 1)
    monkeypatch.setattr(probe, "_write_rows", dying_in_the_helper)
    assert main(["probe", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("i/o error: the helper process for ")
    assert not [p.name for p in out.iterdir() if p.suffix == ".part"]
    assert multiprocessing.active_children() == []


def test_probe_prints_delta_x_max_as_reported(tmp_path, capsys):
    # two decimals would print both levels as 0.00; stdout must show the
    # value probe_report.json holds
    doc = json.loads((REPO / "configs" / "iris.json").read_text(encoding="utf-8"))
    doc["noise"]["levels"] = [0.001, 0.003]
    path = tmp_path / "iris.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "probe_out"
    assert main(["probe", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "probe_report.json").read_text())
    assert report["delta_x_max"] == 0.001
    assert " delta_x_max=0.001 " in capsys.readouterr().out


def test_diversify_delete_only_shrinks(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "div_out"
    assert main(["diversify", "--config", str(path), "--out", str(out),
                 "--mode", "delete-only"]) == 0
    # 18 training rows, half of each 9-row class retained
    assert count_rows(out / "diversified.csv") == 10
    assert (out / "diversify_report.json").is_file()
    assert "rows 18 -> 10" in capsys.readouterr().out


def test_failed_iris_validation_reports_every_attempt(tmp_path, capsys):
    # a validation that never passes runs all max_retries attempts and keeps
    # the best one; both counts are reported
    out = tmp_path / "div_out"
    assert main(["diversify", "--config", str(REPO / "configs" / "iris.json"),
                 "--out", str(out)]) == 0
    retries = load_experiment_config(REPO / "configs" / "iris.json").diversify.max_retries
    validation = json.loads((out / "diversify_report.json").read_text())["validation"]
    assert validation["passed"] is False
    assert validation["attempts_made"] == retries
    assert 1 <= validation["best_attempt"] <= retries
    assert (f" attempts_made={retries} best_attempt={validation['best_attempt']} passed=False"
            in capsys.readouterr().out)


def test_baseline_all_methods(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "base_out"
    assert main(["baseline", "--config", str(path), "--out", str(out)]) == 0
    for name in ("rus", "ros", "smote"):
        assert (out / f"{name}.csv").is_file()
    captured = capsys.readouterr().out
    # far-apart blob classes make ADASYN infeasible; noted, not fatal
    assert "adasyn: infeasible" in captured
    assert not (out / "adasyn.csv").exists()


def test_baseline_single_method(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "one_out"
    assert main(["baseline", "--config", str(path), "--out", str(out),
                 "--method", "rus"]) == 0
    assert (out / "rus.csv").is_file()
    assert not (out / "ros.csv").exists()


def test_experiment_with_overrides(tmp_path, capsys):
    path = write_config(tmp_path, repeats=3)
    out = tmp_path / "exp_out"
    assert main(["experiment", "--config", str(path), "--out", str(out),
                 "--repeats", "1", "--no-svg"]) == 0
    assert (out / "report.csv").is_file()
    assert (out / "runs.csv").is_file()
    assert (out / "report.json").is_file()
    assert (out / "meta.json").is_file()
    assert not (out / "boxplot.svg").exists()
    assert count_rows(out / "runs.csv") == 8  # one repeat, eight approaches
    assert "mean=" in capsys.readouterr().out


def test_experiment_out_dir_defaults_to_config(tmp_path):
    path = write_config(tmp_path)
    assert main(["experiment", "--config", str(path)]) == 0
    assert (tmp_path / "results" / "boxplot.svg").is_file()


def test_experiment_has_no_mode_flag(tmp_path, capsys):
    # each diversify variant runs as its own approach (see `ablate`)
    path = write_config(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(["experiment", "--config", str(path), "--mode", "delete-only"])
    assert info.value.code == 2
    assert "unrecognized arguments: --mode" in capsys.readouterr().err


def test_diversify_mode_in_config_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, diversify={"top_k": 2, "mode": "delete-only"})
    assert main(["experiment", "--config", str(path)]) == 2
    assert "unknown key(s) in diversify: mode" in capsys.readouterr().err


def test_single_class_csv_makes_only_the_resamplers_infeasible(tmp_path, capsys):
    save_csv(make_toy_blobs(30, [(0.0, 0.0)], 0.8, seed=5), tmp_path / "one.csv")
    path = write_config(tmp_path, baselines=None,
                        dataset={"csv": "one.csv", "label_column": "label"})
    out = tmp_path / "one_out"
    assert main(["experiment", "--config", str(path), "--out", str(out), "--no-svg"]) == 0
    legs = {leg["approach"]: leg for leg in json.loads((out / "report.json").read_text())["legs"]}
    assert [a for a, leg in legs.items() if leg["infeasible"]] == ["rus", "ros", "smote", "adasyn"]
    assert legs["rus"]["note"] == "equalizing needs at least 2 classes"
    capsys.readouterr()
    assert main(["baseline", "--config", str(path), "--out", str(out)]) == 0
    assert "rus: infeasible (equalizing needs at least 2 classes)" in capsys.readouterr().out
    assert not (out / "rus.csv").exists()


def test_ablate_runs_reduced_approach_set(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "abl_out"
    assert main(["ablate", "--config", str(path), "--out", str(out),
                 "--no-svg"]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["approaches"] == ["original", "synth_only", "delete_only"]


def test_seed_override_changes_report(tmp_path):
    path = write_config(tmp_path)
    out_a, out_b = tmp_path / "seed_a", tmp_path / "seed_b"
    assert main(["experiment", "--config", str(path), "--out", str(out_a),
                 "--no-svg"]) == 0
    assert main(["experiment", "--config", str(path), "--out", str(out_b),
                 "--no-svg", "--seed", "7"]) == 0
    doc_a = json.loads((out_a / "report.json").read_text())
    doc_b = json.loads((out_b / "report.json").read_text())
    assert doc_a["master_seed"] == doc_b["master_seed"] == 7
    assert doc_a["aggregates"] == doc_b["aggregates"]


def test_failed_reference_leg_keeps_the_experiment(tmp_path, capsys):
    # one 1-epoch step leaves the reference net with a class it never gets right
    doc = json.loads((REPO / "configs" / "iris.json").read_text())
    doc.update(repeats=1, out_dir=str(tmp_path / "out"))
    doc["schedule"]["phases"] = [[0.001, 1]]
    path = tmp_path / "iris.json"
    path.write_text(json.dumps(doc))
    assert main(["experiment", "--config", str(path)]) == 0
    for name in ("report.csv", "runs.csv", "report.json", "boxplot.svg", "meta.json"):
        assert (tmp_path / "out" / name).is_file(), name
    legs = json.loads((tmp_path / "out" / "report.json").read_text())["legs"]
    assert [leg["approach"] for leg in legs] == doc["approaches"]
    by = {leg["approach"]: leg for leg in legs}
    reason = by["original"]["note"]
    assert by["original"]["infeasible"] and "no correctly classified variants" in reason
    assert by["diversified"]["infeasible"]
    assert by["diversified"]["note"] == f"reference leg infeasible: {reason}"
    for leg in legs:   # measured, or infeasible with a reason
        assert (leg["b_r"] is not None) != leg["infeasible"]
        assert leg["note"] or not leg["infeasible"]
    assert "infeasible in all 1 repeat(s)" in capsys.readouterr().out


def test_bad_flag_value_exits_2(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["experiment", "--config", str(path), "--repeats", "0"]) == 2
    assert "--repeats" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "proc_out"
    # the child imports the same biasdiv as this process, installed or not
    src = str(Path(biasdiv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "biasdiv.cli", "probe", "--config", str(path),
         "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (out / "probe_report.json").is_file()
