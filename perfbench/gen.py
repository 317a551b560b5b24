"""Seeded input generation for the benchmark workloads.

Every generated file is a pure function of the workload seed, so the same
seed writes the same bytes. The program under test only ever reads these
files (or the shipped iris config); it never sees the generator.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

# The shipped configs' settings, shared by both generated configs.
DIVERSIFY = {"top_k": 2, "removal_fraction": 0.5, "corr_threshold": 25.0, "clusters": 2}
NOISE = {"samples_per_input": 20, "attack": "both"}


def _rng(seed: int, workload: str) -> np.random.Generator:
    key = (zlib.crc32(workload.encode()),)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _blobs(rng, counts, means, d):
    """Rows of unit-variance Gaussian noise, shifted by the class mean on the
    informative columns only."""
    rows, labels = [], []
    for c, n in enumerate(counts):
        rows.append(rng.normal(size=(n, d)) + means[c])
        labels += [c] * n
    order = rng.permutation(sum(counts))
    return np.vstack(rows)[order], np.array(labels)[order]


def _write_csv(path: Path, X, y) -> None:
    header = ",".join(f"f{j}" for j in range(X.shape[1])) + ",label\n"
    lines = [",".join(f"{v:.6f}" for v in row) + f",c{label}\n" for row, label in zip(X, y)]
    path.write_text(header + "".join(lines), encoding="utf-8")


def _class_means(rng, n_classes: int, d: int, separation: float):
    """Class c sits `separation` standard deviations out along its own random
    column and at 0 elsewhere. The geometry is the same for every seed, so
    the work a seed causes varies only through sampling noise."""
    means = np.zeros((n_classes, d))
    cols = np.sort(rng.choice(d, size=n_classes, replace=False))
    means[np.arange(n_classes), cols] = separation
    return means


def _pair(rng, root: Path, train_counts, test_counts, d, separation):
    means = _class_means(rng, len(train_counts), d, separation)
    Xtr, ytr = _blobs(rng, train_counts, means, d)
    Xte, yte = _blobs(rng, test_counts, means, d)
    _write_csv(root / "train.csv", Xtr, ytr)
    _write_csv(root / "test.csv", Xte, yte)


def wide_div(seed: int, root: Path) -> Path:
    """Leukemia-shaped but wider: 3 imbalanced classes (110/75/40 train and
    20/15/10 test rows), 32 features of which 3 carry the class signal,
    min-max normalized, one hidden layer of 20 and the leukemia schedule."""
    rng = _rng(seed, "wide-div")
    _pair(rng, root, (110, 75, 40), (20, 15, 10), d=32, separation=4.0)
    doc = {
        "dataset": {"train_csv": "train.csv", "test_csv": "test.csv",
                    "label_column": "label", "normalize": True},
        "network": {"hidden": [20]},
        "schedule": {"phases": [[0.3, 300], [0.1, 900]]},
        "noise": NOISE,
        "diversify": DIVERSIFY,
        "baselines": {"smote": {"k_neighbors": 5}, "adasyn": {"k_neighbors": 5}},
        "approaches": ["original", "rus", "ros", "smote", "adasyn", "diversified"],
        "repeats": 1,
        "seed": seed,
        "workers": 1,
        "out_dir": "results",
    }
    path = root / "config.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def probe_cli(seed: int, root: Path) -> Path:
    """A long test set for `biasdiv probe`: 3 classes, 8 features, 300
    train and 450 test rows."""
    rng = _rng(seed, "probe-cli")
    _pair(rng, root, (100, 100, 100), (150, 150, 150), d=8, separation=3.0)
    doc = {
        "dataset": {"train_csv": "train.csv", "test_csv": "test.csv",
                    "label_column": "label", "normalize": True},
        "network": {"hidden": [15, 15]},
        "schedule": {"phases": [[0.1, 300], [0.05, 900]]},
        "noise": NOISE,
        "diversify": DIVERSIFY,
        "seed": seed,
        "out_dir": "results",
    }
    path = root / "config.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path
