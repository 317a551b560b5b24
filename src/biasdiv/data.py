"""Dataset container, CSV ingestion, stratified splitting and per-class
segmentation.

Datasets are immutable after construction and all operations are pure given
their seed, so they can be shared freely across worker processes.
"""

from __future__ import annotations

import csv
import importlib.resources
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (
    CsvParseError,
    DataError,
    LabelError,
    SchemaError,
    StratificationError,
)
from .numerics import round_half_up, substream


@dataclass(frozen=True, eq=False)
class Dataset:
    """n samples with d real features, integer class labels in [0, L) and a
    per-row mask of the rows a resampler or diversify generated."""

    features: np.ndarray       # (n, d) float
    labels: np.ndarray         # (n,) int
    class_names: tuple[str, ...]
    feature_names: tuple[str, ...]
    synthetic: np.ndarray = None   # (n,) bool, default all False

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        if feats.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        labels = np.asarray(self.labels, dtype=int)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_names", tuple(self.class_names))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        synthetic = (np.zeros(len(labels), dtype=bool) if self.synthetic is None
                     else np.asarray(self.synthetic, dtype=bool))
        object.__setattr__(self, "synthetic", synthetic)

        n, d = feats.shape
        if n == 0:
            raise ValueError("dataset must contain at least one row")
        if labels.shape != (n,) or synthetic.shape != (n,):
            raise ValueError("features, labels and synthetic mask row counts differ")
        if d != len(self.feature_names):
            raise ValueError("feature_names length does not match feature count")
        if not np.isfinite(feats).all():
            raise ValueError("features contain non-finite entries")
        L = len(self.class_names)
        if L == 0:
            raise ValueError("dataset must declare at least one class")
        if labels.min() < 0 or labels.max() >= L:
            raise ValueError(f"labels must lie in [0, {L})")
        present = set(labels.tolist())
        missing = [self.class_names[c] for c in range(L) if c not in present]
        if missing:
            raise ValueError(f"classes never appear in the data: {missing}")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def L(self) -> int:
        return len(self.class_names)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.L)

    def take(self, indices) -> "Dataset":
        """Row subset; raises if any class disappears."""
        idx = np.asarray(indices, dtype=int)
        return Dataset(self.features[idx], self.labels[idx],
                       self.class_names, self.feature_names,
                       self.synthetic[idx])


@dataclass(frozen=True)
class DatasetSchema:
    """Maps CSV columns to features and labels.

    Columns may be header names or 0-based indices; `feature_columns=None`
    means every column but the label. `class_name_mapping` fixes label
    indices; when None, classes are numbered by first appearance.
    """

    label_column: str | int
    feature_columns: list | None = None
    class_name_mapping: dict[str, int] | None = None

    def __post_init__(self):
        if self.feature_columns is not None:
            if not self.feature_columns:
                raise ValueError("feature_columns must be non-empty")
            if self.label_column in self.feature_columns:
                raise ValueError("label_column must not be among feature_columns")
        if self.class_name_mapping is not None:
            idxs = sorted(self.class_name_mapping.values())
            if idxs != list(range(len(idxs))):
                raise ValueError(f"class indices must be 0..L-1 without gaps, got {idxs}")


def _resolve_column(col, header: list[str]) -> int:
    if isinstance(col, int):
        if not 0 <= col < len(header):
            raise SchemaError(f"column index {col} out of range for {len(header)} columns")
        return col
    try:
        return header.index(col)
    except ValueError:
        raise SchemaError(f"column '{col}' not found in header {header}") from None


def load_csv(path, schema: DatasetSchema) -> Dataset:
    """Read a comma-separated, UTF-8, header-first CSV into a Dataset.

    A leading byte-order mark (as Excel's "CSV UTF-8" writes) is skipped,
    so it never becomes part of the first column's name. No row is marked
    synthetic. A header that repeats a column name and an empty label cell
    are errors. Error messages name the offending 1-based data row and
    column so bad cells can be located directly.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        repeated = sorted(name for name, count in Counter(header).items() if count > 1)
        if repeated:
            raise SchemaError(f"{path}: header repeats column name(s) {repeated}")
        label, columns = schema.label_column, schema.feature_columns
        if columns is None:
            columns = [c for c in (header if isinstance(label, str) else range(len(header)))
                       if c != label]
            if not columns:
                raise SchemaError(f"{path}: no feature columns besides the label")
        feat_idx = [_resolve_column(c, header) for c in columns]
        label_idx = _resolve_column(label, header)
        feat_names = tuple(header[i] for i in feat_idx)

        rows, raw_labels = [], []
        for rownum, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise CsvParseError(
                    f"row {rownum}: expected {len(header)} cells, got {len(row)}")
            values = []
            for i in feat_idx:
                cell = row[i]
                try:
                    v = float(cell)
                except ValueError:
                    raise CsvParseError(
                        f"row {rownum}, column '{header[i]}': "
                        f"could not parse '{cell}' as a number") from None
                if not math.isfinite(v):
                    raise CsvParseError(
                        f"row {rownum}, column '{header[i]}': non-finite value '{cell}'")
                values.append(v)
            if not row[label_idx]:
                raise LabelError(f"row {rownum}, column '{header[label_idx]}': empty class label")
            rows.append(values)
            raw_labels.append(row[label_idx])

    if not rows:
        raise DataError(f"{path}: no data rows")

    if schema.class_name_mapping is not None:
        mapping = dict(schema.class_name_mapping)
        for rownum, lab in enumerate(raw_labels, start=1):
            if lab not in mapping:
                raise LabelError(f"row {rownum}: class label '{lab}' not in mapping")
    else:
        mapping = {}
        for lab in raw_labels:
            if lab not in mapping:
                mapping[lab] = len(mapping)

    labels = np.array([mapping[lab] for lab in raw_labels], dtype=int)
    class_names = tuple(name for name, _ in sorted(mapping.items(), key=lambda kv: kv[1]))
    present = set(labels.tolist())
    absent = [name for c, name in enumerate(class_names) if c not in present]
    if absent:
        raise LabelError(f"mapped classes never appear in the file: {absent}")
    return Dataset(np.array(rows), labels, class_names, feat_names)


def save_csv(ds: Dataset, path, label_column: str = "label") -> None:
    """Write features plus a class-name label column; floats keep full
    precision so a reload reproduces the dataset bit for bit."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.feature_names) + [label_column])
        for x, y in zip(ds.features, ds.labels):
            writer.writerow([repr(float(v)) for v in x] + [ds.class_names[y]])


def split_stratified(ds: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Per-class shuffled split; both sides keep every class non-empty."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0,1), got {train_fraction}")
    train_idx, test_idx = [], []
    for c in range(ds.L):
        rows = np.flatnonzero(ds.labels == c)
        if len(rows) < 2:
            raise StratificationError(
                f"class '{ds.class_names[c]}' has {len(rows)} row(s); need >= 2 to split")
        take = min(len(rows) - 1, max(1, round_half_up(train_fraction * len(rows))))
        perm = substream(seed, "split", c).permutation(len(rows))
        train_idx.extend(rows[perm[:take]].tolist())
        test_idx.extend(rows[perm[take:]].tolist())
    return ds.take(np.sort(train_idx)), ds.take(np.sort(test_idx))


def segment_by_class(ds: Dataset) -> tuple[Dataset, ...]:
    """One single-class dataset per class (part c holds the rows of class
    c, all labelled 0), preserving within-class row order."""
    parts = []
    for c in range(ds.L):
        rows = np.flatnonzero(ds.labels == c)
        parts.append(Dataset(ds.features[rows], np.zeros(len(rows), dtype=int),
                             (ds.class_names[c],), ds.feature_names, ds.synthetic[rows]))
    return tuple(parts)


def make_toy_blobs(per_class: int, centers, spread: float, seed: int) -> Dataset:
    """Uniform L-inf boxes around each center; deterministic test fixture."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if centers.size == 0:
        raise ValueError("centers must be non-empty")
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    if spread < 0:
        raise ValueError("spread must be >= 0")
    L, d = centers.shape
    blocks, labels = [], []
    for c in range(L):
        rng = substream(seed, "blobs", c)
        blocks.append(centers[c] + rng.uniform(-spread, spread, size=(per_class, d)))
        labels.extend([c] * per_class)
    return Dataset(
        np.vstack(blocks),
        np.array(labels, dtype=int),
        tuple(f"class{c}" for c in range(L)),
        tuple(f"f{j}" for j in range(d)),
    )


@dataclass(frozen=True)
class MinMaxScaler:
    """Optional per-feature min-max scaling, fit on train and reused on test."""

    mins: np.ndarray
    spans: np.ndarray   # max - min, constant features pinned to span 1

    @classmethod
    def fit(cls, features: np.ndarray) -> "MinMaxScaler":
        feats = np.asarray(features, dtype=float)
        mins = feats.min(axis=0)
        spans = feats.max(axis=0) - mins
        spans = np.where(spans == 0.0, 1.0, spans)
        return cls(mins, spans)

    def transform(self, ds: Dataset) -> Dataset:
        return Dataset((ds.features - self.mins) / self.spans, ds.labels,
                       ds.class_names, ds.feature_names, ds.synthetic)


def builtin_dataset_path(name: str):
    """Path of a CSV bundled with the package (currently just 'iris')."""
    resource = importlib.resources.files("biasdiv.datasets") / f"{name}.csv"
    if not resource.is_file():
        raise DataError(f"no builtin dataset named '{name}'")
    return resource
