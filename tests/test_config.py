"""The config layer, pinned: what every shipped config and a config that
sets every key parse to, which inputs are config errors, and where `null`
is accepted."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from biasdiv.baselines import ADASYN, ROS, RUS_EQUALIZE, RUS_FRACTION, SMOTE, ResamplePlan
from biasdiv.data import make_toy_blobs, save_csv
from biasdiv.diversify import DiversifyConfig
from biasdiv.errors import ConfigError
from biasdiv.harness import (APPROACH_ORDER, label_column_name, load_dataset_pair,
                             load_experiment_config, parse_experiment_config)
from biasdiv.mlp import TrainSchedule
from biasdiv.probe import BOTH, GRADIENT_SIGN, NoiseSpec

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SHIPPED_PLANS = {"rus": ResamplePlan(RUS_EQUALIZE), "ros": ResamplePlan(ROS),
                 "smote": ResamplePlan(SMOTE, k_neighbors=5),
                 "adasyn": ResamplePlan(ADASYN, k_neighbors=5)}
SHIPPED_APPROACHES = ("original", "rus", "ros", "smote", "adasyn", "diversified")

EVERY_KEY = {
    "dataset": {"train_csv": "train.csv", "test_csv": "${BIASDIV_TEST_DIR}/test.csv",
                "label_column": "y", "feature_columns": ["f1", "f0"],
                "class_names": {"class1": 0, "class0": 1}, "train_fraction": 0.6,
                "normalize": True},
    "network": {"hidden": [7, 5]},
    "schedule": {"phases": [[0.2, 10], [0.05, 20]]},
    "noise": {"levels": [0.1, 0.2], "samples_per_input": 3, "attack": "gradient",
              "per_sample_scale": True},
    "diversify": {"top_k": 1, "removal_fraction": 0.25, "corr_threshold": 10.0,
                  "clusters": 3, "synth_base": 12, "max_retries": 7},
    "baselines": {"subsample_fraction": 0.4,
                  "rus": {"method": "fraction", "fraction": 0.3},
                  "smote": {"k_neighbors": 2},
                  "adasyn": {"k_neighbors": 3, "balance": 0.5}},
    "approaches": ["delete_only", "original", "smote"],
    "repeats": 3,
    "seed": 42,
    "workers": 2,
    "out_dir": "out",
}

MINIMAL = {
    "dataset": {"csv": "rows.csv", "label_column": 2},
    "network": {"hidden": [4]},
    "schedule": {"phases": [[0.1, 5]]},
    "diversify": {"top_k": 1},
}


def pinned(cfg):
    d = cfg.dataset
    return {"hidden": cfg.hidden, "schedule": cfg.schedule, "noise": cfg.noise,
            "diversify": cfg.diversify, "plans": cfg.plans,
            "subsample_fraction": cfg.subsample_fraction, "approaches": cfg.approaches,
            "repeats": cfg.repeats, "seed": cfg.seed, "workers": cfg.workers,
            "out_dir": cfg.out_dir,
            "dataset": {"builtin": d.builtin, "csv_path": d.csv_path,
                        "train_csv": d.train_csv, "test_csv": d.test_csv,
                        "train_fraction": d.train_fraction, "normalize": d.normalize,
                        "label": label_column_name(d)}}


def expected(name, tmp_path):
    if name == "iris":
        return {"hidden": (15, 15),
                "schedule": TrainSchedule(((0.1, 300), (0.05, 900))),
                "noise": NoiseSpec(samples_per_input=20, attack=BOTH),
                "diversify": DiversifyConfig(top_k=2, removal_fraction=0.5,
                                             corr_threshold=25.0, clusters=2),
                "plans": SHIPPED_PLANS, "subsample_fraction": 0.5,
                "approaches": SHIPPED_APPROACHES, "repeats": 10, "seed": 6,
                "workers": 1, "out_dir": "results/iris",
                "dataset": {"builtin": "iris", "csv_path": None, "train_csv": None,
                            "test_csv": None, "train_fraction": 0.8,
                            "normalize": False, "label": "species"}}
    if name == "leukemia":
        return {"hidden": (20,),
                "schedule": TrainSchedule(((0.3, 300), (0.1, 900))),
                "noise": NoiseSpec(samples_per_input=20, attack=BOTH),
                "diversify": DiversifyConfig(top_k=2, removal_fraction=0.5,
                                             corr_threshold=25.0, clusters=2),
                "plans": SHIPPED_PLANS, "subsample_fraction": None,
                "approaches": SHIPPED_APPROACHES, "repeats": 10, "seed": 0,
                "workers": 1, "out_dir": "results/leukemia",
                "dataset": {"builtin": None, "csv_path": None,
                            "train_csv": str(tmp_path / "leukemia_train.csv"),
                            "test_csv": str(tmp_path / "leukemia_test.csv"),
                            "train_fraction": 0.8, "normalize": True,
                            "label": "label"}}
    if name == "every_key":
        return {"hidden": (7, 5),
                "schedule": TrainSchedule(((0.2, 10), (0.05, 20))),
                "noise": NoiseSpec(levels=(0.1, 0.2), samples_per_input=3,
                                   attack=GRADIENT_SIGN, per_sample_scale=True),
                "diversify": DiversifyConfig(top_k=1, removal_fraction=0.25,
                                             corr_threshold=10.0, clusters=3,
                                             synth_base=12, max_retries=7),
                "plans": {"rus": ResamplePlan(RUS_FRACTION, fraction=0.3),
                          "ros": ResamplePlan(ROS),
                          "smote": ResamplePlan(SMOTE, k_neighbors=2),
                          "adasyn": ResamplePlan(ADASYN, k_neighbors=3, balance=0.5)},
                "subsample_fraction": 0.4,
                "approaches": ("original", "smote", "delete_only"),
                "repeats": 3, "seed": 42, "workers": 2, "out_dir": "out",
                "dataset": {"builtin": None, "csv_path": None,
                            "train_csv": str(tmp_path / "train.csv"),
                            "test_csv": str(tmp_path / "data" / "test.csv"),
                            "train_fraction": 0.6, "normalize": True, "label": "y"}}
    # MINIMAL: every default, and a label given by index
    return {"hidden": (4,), "schedule": TrainSchedule(((0.1, 5),)),
            "noise": NoiseSpec(), "diversify": DiversifyConfig(top_k=1),
            "plans": SHIPPED_PLANS, "subsample_fraction": None,
            "approaches": APPROACH_ORDER, "repeats": 10, "seed": 0, "workers": 1,
            "out_dir": "results",
            "dataset": {"builtin": None, "csv_path": str(tmp_path / "rows.csv"),
                        "train_csv": None, "test_csv": None, "train_fraction": 0.8,
                        "normalize": False, "label": "label"}}


def config_path(name, tmp_path, monkeypatch):
    """The config file for case `name`; the dataset files it names need not
    exist (the leukemia CSVs are user-supplied)."""
    monkeypatch.setenv("BIASDIV_LEUKEMIA_TRAIN", str(tmp_path / "leukemia_train.csv"))
    monkeypatch.setenv("BIASDIV_LEUKEMIA_TEST", str(tmp_path / "leukemia_test.csv"))
    monkeypatch.setenv("BIASDIV_TEST_DIR", str(tmp_path / "data"))
    if name in ("iris", "leukemia"):
        return CONFIGS / f"{name}.json"
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(EVERY_KEY if name == "every_key" else MINIMAL))
    return path


def test_every_shipped_config_is_pinned():
    assert sorted(p.stem for p in CONFIGS.glob("*.json")) == ["iris", "leukemia"]


@pytest.mark.parametrize("name", ["iris", "leukemia", "every_key", "minimal"])
def test_config_parses_to_pinned_values(name, tmp_path, monkeypatch):
    cfg = load_experiment_config(config_path(name, tmp_path, monkeypatch))
    assert pinned(cfg) == expected(name, tmp_path)


def test_every_key_config_loads_its_columns_and_class_names(tmp_path, monkeypatch):
    cfg = load_experiment_config(config_path("every_key", tmp_path, monkeypatch))
    ds = make_toy_blobs(6, [(0.0, 0.0), (5.0, 5.0)], 0.5, seed=2)
    (tmp_path / "data").mkdir()
    save_csv(ds, tmp_path / "train.csv", label_column="y")
    save_csv(ds, tmp_path / "data" / "test.csv", label_column="y")
    train, test = load_dataset_pair(cfg.dataset, split_seed=0)
    for part in (train, test):
        assert part.feature_names == ("f1", "f0")
        assert part.class_names == ("class1", "class0")
        assert (part.labels == 1 - ds.labels).all()


# ---------------------------------------------------------------------------
# Bad inputs and null
# ---------------------------------------------------------------------------

def base_doc():
    return {
        "dataset": {"csv": "rows.csv", "label_column": "label", "train_fraction": 0.75},
        "network": {"hidden": [8]},
        "schedule": {"phases": [[0.5, 60]]},
        "noise": {"levels": [0.1, 0.2], "samples_per_input": 6},
        "diversify": {"top_k": 2, "max_retries": 5},
        "baselines": {"subsample_fraction": 0.5,
                      "rus": {"method": "fraction", "fraction": 0.25},
                      "smote": {"k_neighbors": 2},
                      "adasyn": {"k_neighbors": 2, "balance": 1.0}},
        "repeats": 1,
        "seed": 7,
    }


def with_value(path, value):
    """`base_doc()` with the dotted key `path` set to `value`."""
    doc = base_doc()
    *parents, key = path.split(".")
    target = doc
    for part in parents:
        target = target[part]
    target[key] = value
    return doc


def without(path):
    doc = with_value(path, None)
    *parents, key = path.split(".")
    target = doc
    for part in parents:
        target = target[part]
    del target[key]
    return doc


# (dotted key, bad value, fragment the message must contain); the cases of
# tests/test_harness.py::test_parse_config_value_errors are not repeated
BAD_VALUES = [
    ("seed", 1.5, "seed"),
    ("seed", -1, "seed"),
    ("workers", True, "workers"),
    ("out_dir", 3, "out_dir"),
    ("approaches", "original", "approaches"),
    ("approaches", [], "approaches"),
    ("network.hidden", [8, "wide"], "hidden"),
    ("network.hidden", [0], "hidden"),
    ("schedule.phases", [], "phases"),
    ("schedule.phases", [[0.1, 2.5]], "phases"),
    ("schedule.phases", [[0.1, 5, 1]], "phases"),
    ("schedule.phases", [[0.1, 0]], "epochs"),
    ("noise.levels", [], "levels"),
    ("noise.levels", ["x"], "levels"),
    ("noise.levels", [0.5, 0.1], "levels"),
    ("noise.samples_per_input", 0, "samples_per_input"),
    ("noise.per_sample_scale", "yes", "per_sample_scale"),
    ("diversify", {"max_retries": 5}, "top_k"),
    ("diversify.top_k", 0, "top_k"),
    ("diversify.top_k", 1.0, "top_k"),
    ("diversify.clusters", 0, "clusters"),
    ("diversify.synth_base", 0, "synth_base"),
    ("diversify.max_retries", 0, "max_retries"),
    ("diversify.removal_fraction", 1.0, "removal_fraction"),
    ("diversify.corr_threshold", 0, "corr_threshold"),
    ("dataset.csv", 5, "csv"),
    ("dataset.train_fraction", 0, "train_fraction"),
    ("dataset.normalize", "yes", "normalize"),
    ("dataset.label_column", True, "label_column"),
    ("dataset.feature_columns", [], "feature_columns"),
    ("dataset.feature_columns", "f0", "feature_columns"),
    ("dataset.class_names", ["a"], "class_names"),
    ("dataset.class_names", {"a": "zero"}, "class_names"),
    ("baselines.subsample_fraction", 1.0, "subsample_fraction"),
    ("baselines.rus.method", "median", "method"),
    ("baselines.rus.fraction", 1.0, "fraction"),
    ("baselines.smote.k_neighbors", 0, "k_neighbors"),
    ("baselines.adasyn.k_neighbors", 0, "k_neighbors"),
    ("baselines.adasyn.balance", 0, "balance"),
]

# keys where null is a config error, with the fragment the message must contain
NULL_REJECTED = [
    ("dataset", "dataset"),
    ("network", "network"),
    ("schedule", "schedule"),
    ("diversify", "diversify"),
    ("repeats", "repeats"),
    ("seed", "seed"),
    ("workers", "workers"),
    ("out_dir", "out_dir"),
    ("dataset.csv", "csv"),
    ("dataset.train_fraction", "train_fraction"),
    ("dataset.normalize", "normalize"),
    ("network.hidden", "hidden"),
    ("schedule.phases", "phases"),
    ("noise.samples_per_input", "samples_per_input"),
    ("noise.attack", "attack"),
    ("noise.per_sample_scale", "per_sample_scale"),
    ("diversify.top_k", "top_k"),
    ("diversify.removal_fraction", "removal_fraction"),
    ("diversify.corr_threshold", "corr_threshold"),
    ("diversify.clusters", "clusters"),
    ("diversify.max_retries", "max_retries"),
    ("baselines.rus", "rus"),
    ("baselines.smote", "smote"),
    ("baselines.adasyn", "adasyn"),
    ("baselines.rus.method", "method"),
    ("baselines.rus.fraction", "fraction"),
    ("baselines.smote.k_neighbors", "k_neighbors"),
    ("baselines.adasyn.k_neighbors", "k_neighbors"),
    ("baselines.adasyn.balance", "balance"),
]

NULL_ACCEPTED = ["noise", "baselines", "approaches", "dataset.label_column",
                 "dataset.feature_columns", "dataset.class_names", "noise.levels",
                 "diversify.synth_base", "baselines.subsample_fraction"]


@pytest.mark.parametrize("path, value, fragment", BAD_VALUES,
                         ids=[f"{p}={v!r}" for p, v, _ in BAD_VALUES])
def test_bad_value_is_a_config_error_naming_its_key(path, value, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_experiment_config(with_value(path, value))


@pytest.mark.parametrize("path, fragment", NULL_REJECTED, ids=[p for p, _ in NULL_REJECTED])
def test_null_is_a_config_error(path, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_experiment_config(with_value(path, None))


@pytest.mark.parametrize("source, fragment", [
    ({"builtin": None}, "builtin"),
    ({"train_csv": None, "test_csv": "test.csv"}, "train_csv"),
    ({"train_csv": "train.csv", "test_csv": None}, "test_csv"),
])
def test_null_dataset_source_is_a_config_error(source, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_experiment_config(with_value("dataset", source))


@pytest.mark.parametrize("key", ["csv", "train_csv", "test_csv"])
@pytest.mark.parametrize("template", ["${%s}/rows.csv", "data/$%s.csv"])
def test_unset_path_variable_is_a_config_error(key, template, monkeypatch):
    monkeypatch.delenv("BIASDIV_UNSET_DIR", raising=False)
    source = {"csv": "rows.csv"} if key == "csv" else {"train_csv": "train.csv",
                                                        "test_csv": "test.csv"}
    source[key] = template % "BIASDIV_UNSET_DIR"
    with pytest.raises(ConfigError, match=rf"^dataset\.{key}: environment variable "
                                          r"BIASDIV_UNSET_DIR is not set"):
        parse_experiment_config(with_value("dataset", source))


@pytest.mark.parametrize("path", NULL_ACCEPTED)
def test_null_means_the_default(path):
    cfg = parse_experiment_config(with_value(path, None))
    default = parse_experiment_config(without(path))
    assert replace(cfg, raw=None) == replace(default, raw=None)
