"""Reference resamplers: random under/over-sampling, SMOTE and ADASYN.

Each runs at its standard setting: RUS keeps the minority count of every
class, and ROS, SMOTE and ADASYN fill every class up to the majority
count. All four are deterministic under their seed and mark generated rows
in `Dataset.synthetic`, as diversify does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import InfeasibleError, NeighborError
from .numerics import pairwise_blocks, substream

RUS_EQUALIZE = "rus_equalize"
ROS = "ros"
SMOTE = "smote"
ADASYN = "adasyn"

_METHODS = (RUS_EQUALIZE, ROS, SMOTE, ADASYN)


@dataclass(frozen=True)
class ResamplePlan:
    method: str
    k_neighbors: int = 5             # SMOTE/ADASYN

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown resampling method '{self.method}'")
        if self.method in (SMOTE, ADASYN) and self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")


def rus(ds: Dataset, seed: int) -> Dataset:
    """Random under-sampling of every class to the minority count."""
    if ds.L < 2:
        raise InfeasibleError("equalizing needs at least 2 classes")
    target = int(ds.class_counts().min())
    keep = []
    for c in range(ds.L):
        rows = np.flatnonzero(ds.labels == c)
        if len(rows) > target:
            rows = rows[substream(seed, "rus", c).permutation(len(rows))[:target]]
        keep.append(rows)
    return ds.take(np.sort(np.concatenate(keep)))


def _oversample(ds: Dataset, name: str, seed: int, new_rows, k: int | None = None) -> Dataset:
    """`ds` with every class filled up to the majority count by rows marked
    synthetic. `new_rows(c, rows, deficit, rng)` builds the `deficit` new
    rows of class `c`, whose rows in `ds` are `rows`, drawing from the
    class's own `substream(seed, name, c)`. Given `k`, a class that needs
    rows but has at most k is a NeighborError."""
    if ds.L < 2:
        raise InfeasibleError("over-sampling needs at least 2 classes")
    counts = ds.class_counts()
    majority = int(counts.max())
    features, labels = [ds.features], [ds.labels]
    for c in range(ds.L):
        deficit = majority - int(counts[c])
        if deficit == 0:
            continue
        rows = np.flatnonzero(ds.labels == c)
        if k is not None and len(rows) <= k:
            raise NeighborError(
                f"class '{ds.class_names[c]}' has {len(rows)} rows but {name.upper()} "
                f"needs more than k={k}; lower k")
        features.append(new_rows(c, rows, deficit, substream(seed, name, c)))
        labels.append(np.full(deficit, c, dtype=int))
    synthetic = np.ones(sum(map(len, labels)), dtype=bool)
    synthetic[:ds.n] = ds.synthetic
    return Dataset(np.vstack(features), np.concatenate(labels),
                   ds.class_names, ds.feature_names, synthetic)


def ros(ds: Dataset, seed: int) -> Dataset:
    """Random over-sampling with replacement up to the majority count.

    Replicas are marked synthetic even though their values duplicate
    original rows.
    """
    def replicas(c, rows, deficit, rng):
        return ds.features[rows[rng.integers(len(rows), size=deficit)]]
    return _oversample(ds, ROS, seed, replicas)


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


def _interpolate(base: np.ndarray, neighbor: np.ndarray, lam: float) -> np.ndarray:
    return base + lam * (neighbor - base)


def smote(ds: Dataset, k: int = 5, seed: int = 0) -> Dataset:
    """Equalize class counts with interpolated synthetic minority rows, each
    at its own uniform coefficient along the segment to a neighbour."""
    def interpolated(c, rows, deficit, rng):
        feats = ds.features[rows]
        nn = _nearest(feats, feats, np.arange(len(rows)), k)
        synth = np.empty((deficit, ds.d))
        for s in range(deficit):
            base = int(rng.integers(len(rows)))
            neighbor = int(nn[base, int(rng.integers(k))])
            synth[s] = _interpolate(feats[base], feats[neighbor], float(rng.uniform()))
        return synth
    return _oversample(ds, SMOTE, seed, interpolated, k)


def adasyn(ds: Dataset, k: int = 5, seed: int = 0) -> Dataset:
    """Difficulty-weighted SMOTE: minority points surrounded by other
    classes receive proportionally more synthetic neighbours."""
    def weighted(c, rows, deficit, rng):
        feats = ds.features[rows]
        # difficulty: fraction of other-class points among the k nearest
        # neighbours in the full dataset
        r = (ds.labels[_nearest(feats, ds.features, rows, k)] != c).mean(axis=1)
        if r.sum() == 0.0:
            raise InfeasibleError(
                f"ADASYN not suited for this dataset: no '{ds.class_names[c]}' "
                "row has other-class neighbours")
        alloc = _largest_remainder(r / r.sum() * deficit, deficit)
        nn = _nearest(feats, feats, np.arange(len(rows)), k)
        synth = np.empty((deficit, ds.d))
        for s, i in enumerate(np.repeat(np.arange(len(rows)), alloc)):
            neighbor = int(nn[i, int(rng.integers(k))])
            synth[s] = _interpolate(feats[i], feats[neighbor], float(rng.uniform()))
        return synth
    return _oversample(ds, ADASYN, seed, weighted, k)


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
    if plan.method == RUS_EQUALIZE:
        return rus(ds, seed)
    if plan.method == ROS:
        return ros(ds, seed)
    if plan.method == SMOTE:
        return smote(ds, plan.k_neighbors, seed)
    return adasyn(ds, plan.k_neighbors, seed)
