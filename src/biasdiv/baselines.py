"""Reference resamplers: random under/over-sampling, SMOTE and ADASYN.

All four are deterministic under their seed and mark generated rows in
`Dataset.synthetic`, as diversify does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import InfeasibleError, NeighborError
from .numerics import pairwise_blocks, round_half_up, substream

RUS_EQUALIZE = "rus_equalize"
RUS_FRACTION = "rus_fraction"
ROS = "ros"
SMOTE = "smote"
ADASYN = "adasyn"

_METHODS = (RUS_EQUALIZE, RUS_FRACTION, ROS, SMOTE, ADASYN)


@dataclass(frozen=True)
class ResamplePlan:
    method: str
    fraction: float | None = None    # RUS_FRACTION only
    k_neighbors: int = 5             # SMOTE/ADASYN
    balance: float = 1.0             # ADASYN target fill ratio

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown resampling method '{self.method}'")
        if self.method == RUS_FRACTION:
            if self.fraction is None or not 0.0 <= self.fraction < 1.0:
                raise ValueError("RUS fraction must be in [0, 1)")
        if self.method in (SMOTE, ADASYN) and self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")
        if self.method == ADASYN and not 0.0 < self.balance <= 1.0:
            raise ValueError("balance must be in (0, 1]")


def _append_synthetic(ds: Dataset, rows_per_class: dict[int, np.ndarray]) -> Dataset:
    blocks = [ds.features]
    labels = [ds.labels]
    synthetic = [ds.synthetic]
    for c in sorted(rows_per_class):
        rows = rows_per_class[c]
        if len(rows) == 0:
            continue
        blocks.append(rows)
        labels.append(np.full(len(rows), c, dtype=int))
        synthetic.append(np.ones(len(rows), dtype=bool))
    return Dataset(np.vstack(blocks), np.concatenate(labels),
                   ds.class_names, ds.feature_names, np.concatenate(synthetic))


def rus(ds: Dataset, plan: ResamplePlan, seed: int) -> Dataset:
    """Random under-sampling, either to the minority count or by fraction."""
    if plan.method not in (RUS_EQUALIZE, RUS_FRACTION):
        raise ValueError(f"rus cannot execute plan '{plan.method}'")
    counts = ds.class_counts()
    if plan.method == RUS_EQUALIZE and ds.L < 2:
        raise InfeasibleError("equalizing needs at least 2 classes")
    keep_idx = []
    for c in range(ds.L):
        rows = np.flatnonzero(ds.labels == c)
        if plan.method == RUS_EQUALIZE:
            target = int(counts.min())
        else:
            # never drop a class entirely, whatever the rounding says
            target = len(rows) - min(len(rows) - 1,
                                     round_half_up(plan.fraction * len(rows)))
        if target >= len(rows):
            keep_idx.extend(rows.tolist())
            continue
        perm = substream(seed, "rus", c).permutation(len(rows))
        keep_idx.extend(rows[perm[:target]].tolist())
    return ds.take(np.sort(keep_idx))


def ros(ds: Dataset, seed: int) -> Dataset:
    """Random over-sampling with replacement up to the majority count.

    Replicas are marked synthetic even though their values duplicate
    original rows.
    """
    if ds.L < 2:
        raise InfeasibleError("over-sampling needs at least 2 classes")
    counts = ds.class_counts()
    majority = int(counts.max())
    extra = {}
    for c in range(ds.L):
        deficit = majority - int(counts[c])
        if deficit == 0:
            continue
        rows = np.flatnonzero(ds.labels == c)
        picks = substream(seed, "ros", c).integers(len(rows), size=deficit)
        extra[c] = ds.features[rows[picks]].copy()
    return _append_synthetic(ds, extra)


def _nearest(queries: np.ndarray, pool: np.ndarray, own: np.ndarray,
             k: int) -> np.ndarray:
    """Indices into `pool` of the k nearest rows to each query, excluding
    the query's own row `own[i]`; distance ties go to the lower pool index.
    The distances are computed a block of query rows at a time."""
    nearest = np.empty((len(queries), k), dtype=np.intp)
    for rows, diff in pairwise_blocks(queries, pool):
        d2 = np.square(diff, out=diff).sum(axis=2)
        d2[np.arange(len(d2)), own[rows]] = np.inf
        nearest[rows] = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return nearest


def _same_class_neighbors(features: np.ndarray, k: int) -> np.ndarray:
    """k nearest neighbour indices per row within one class, self excluded,
    distance ties broken by row index."""
    return _nearest(features, features, np.arange(len(features)), k)


def _interpolate(base: np.ndarray, neighbor: np.ndarray, lam: float) -> np.ndarray:
    return base + lam * (neighbor - base)


def smote(ds: Dataset, k: int = 5, seed: int = 0) -> Dataset:
    """Equalize class counts with interpolated synthetic minority rows, each
    at its own uniform coefficient along the segment to a neighbour."""
    if ds.L < 2:
        raise InfeasibleError("over-sampling needs at least 2 classes")
    counts = ds.class_counts()
    majority = int(counts.max())
    extra = {}
    for c in range(ds.L):
        deficit = majority - int(counts[c])
        if deficit == 0:
            continue
        rows = np.flatnonzero(ds.labels == c)
        if len(rows) <= k:
            raise NeighborError(
                f"class '{ds.class_names[c]}' has {len(rows)} rows but SMOTE "
                f"needs more than k={k}; lower k")
        feats = ds.features[rows]
        nn = _same_class_neighbors(feats, k)
        rng = substream(seed, "smote", c)
        synth = np.empty((deficit, ds.d))
        for s in range(deficit):
            base = int(rng.integers(len(rows)))
            neighbor = int(nn[base, int(rng.integers(k))])
            synth[s] = _interpolate(feats[base], feats[neighbor], float(rng.uniform()))
        extra[c] = synth
    return _append_synthetic(ds, extra)


def adasyn(ds: Dataset, k: int = 5, seed: int = 0, balance: float = 1.0) -> Dataset:
    """Difficulty-weighted SMOTE: minority points surrounded by other
    classes receive proportionally more synthetic neighbours."""
    if ds.L < 2:
        raise InfeasibleError("over-sampling needs at least 2 classes")
    if not 0.0 < balance <= 1.0:
        raise ValueError("balance must be in (0, 1]")
    counts = ds.class_counts()
    majority = int(counts.max())
    extra = {}
    for c in range(ds.L):
        deficit = round_half_up((majority - int(counts[c])) * balance)
        if deficit == 0:
            continue
        rows = np.flatnonzero(ds.labels == c)
        if len(rows) <= k:
            raise NeighborError(
                f"class '{ds.class_names[c]}' has {len(rows)} rows but ADASYN "
                f"needs more than k={k}; lower k")
        feats = ds.features[rows]
        # difficulty: fraction of other-class points among the k nearest
        # neighbours in the full dataset
        order = _nearest(feats, ds.features, rows, k)
        r = (ds.labels[order] != c).mean(axis=1)
        if r.sum() == 0.0:
            raise InfeasibleError(
                f"ADASYN not suited for this dataset: no '{ds.class_names[c]}' "
                "row has other-class neighbours")
        shares = r / r.sum()
        alloc = _largest_remainder(shares * deficit, deficit)
        nn = _same_class_neighbors(feats, k)
        rng = substream(seed, "adasyn", c)
        synth = np.empty((deficit, ds.d))
        pos = 0
        for i, g in enumerate(alloc):
            for _ in range(int(g)):
                neighbor = int(nn[i, int(rng.integers(k))])
                synth[pos] = _interpolate(feats[i], feats[neighbor],
                                          float(rng.uniform()))
                pos += 1
        extra[c] = synth
    return _append_synthetic(ds, extra)


def _largest_remainder(raw: np.ndarray, total: int) -> np.ndarray:
    """Round non-negative quotas to integers that sum exactly to total."""
    base = np.floor(raw).astype(int)
    remainder = total - int(base.sum())
    if remainder > 0:
        fractions = raw - base
        # ties go to the lower index
        order = np.lexsort((np.arange(len(raw)), -fractions))
        base[order[:remainder]] += 1
    return base


def resample(ds: Dataset, plan: ResamplePlan, seed: int) -> Dataset:
    """Dispatch a plan to its resampler."""
    if plan.method in (RUS_EQUALIZE, RUS_FRACTION):
        return rus(ds, plan, seed)
    if plan.method == ROS:
        return ros(ds, seed)
    if plan.method == SMOTE:
        return smote(ds, plan.k_neighbors, seed)
    return adasyn(ds, plan.k_neighbors, seed, plan.balance)
