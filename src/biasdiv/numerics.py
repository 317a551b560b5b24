"""Deterministic numeric kernels: seeded RNG streams, interval arithmetic,
exact 1-D k-means (per-feature clustering, no seed), seeded Lloyd's K-means
(multi-dimensional rows) and Pearson correlation.

Everything here is a pure function of its inputs and seed, so results are
reproducible across runs and independent of scheduling.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# Seeded RNG streams
# ---------------------------------------------------------------------------

def _label_key(label) -> int:
    if isinstance(label, str):
        return zlib.crc32(label.encode("utf-8"))
    if isinstance(label, (int, np.integer)):
        if label < 0:
            raise ValueError(f"stream labels must be non-negative, got {label}")
        return int(label)
    raise TypeError(f"stream label must be int or str, got {type(label).__name__}")


def substream(seed: int, *labels) -> np.random.Generator:
    """Deterministic RNG sub-stream keyed by (seed, labels).

    The same (seed, labels) always yields the same stream, and streams with
    different labels are statistically independent, so concurrent consumers
    can draw without coordinating.
    """
    key = tuple(_label_key(l) for l in labels)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def round_half_up(x: float) -> int:
    """Round with ties away from zero toward +inf (3.5 -> 4, 2.5 -> 3)."""
    return int(math.floor(x + 0.5))


# ---------------------------------------------------------------------------
# Interval arithmetic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """Closed real interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError(f"interval endpoints must be finite: [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"interval lower bound {self.lo} exceeds upper bound {self.hi}")

    @property
    def length(self) -> float:
        return self.hi - self.lo


def relax_interval(b: Interval, delta: float) -> Interval:
    """Widen an interval by a non-negative noise tolerance to
    [lo - delta, hi + delta], which always contains the input."""
    if delta < 0:
        raise ValueError(f"tolerance must be non-negative, got {delta}")
    return Interval(b.lo - delta, b.hi + delta)


@dataclass(frozen=True)
class IntervalSet:
    """Ordered union of intervals with pairwise disjoint interiors."""

    intervals: tuple[Interval, ...]

    def __post_init__(self):
        ivs = tuple(self.intervals)
        object.__setattr__(self, "intervals", ivs)
        if not ivs:
            raise ValueError("interval set must contain at least one interval")
        for a, b in zip(ivs, ivs[1:]):
            if b.lo < a.hi:
                raise ValueError(f"interval interiors overlap: {a} and {b}")

    @property
    def lo(self) -> float:
        return self.intervals[0].lo

    @property
    def hi(self) -> float:
        return self.intervals[-1].hi

    def intersect(self, window: Interval) -> "IntervalSet | None":
        """Clip to a window; None when nothing remains."""
        pieces = []
        for iv in self.intervals:
            lo, hi = max(iv.lo, window.lo), min(iv.hi, window.hi)
            if lo <= hi:
                pieces.append(Interval(lo, hi))
        return IntervalSet(tuple(pieces)) if pieces else None

    def place(self, pick: np.ndarray, position: np.ndarray) -> np.ndarray:
        """Values drawn uniformly from the set, weighting intervals by
        length, given two equal-length arrays of uniform [0, 1) draws.

        `pick` chooses an interval with probability proportional to its
        length, as `Generator.choice(p=...)` does with the same draws
        (`cdf.searchsorted(pick, side="right")` over the normalized
        cumulative weights); `position` places the value inside it. If every
        interval is a point (total length zero) the points are chosen with
        equal probability instead.
        """
        lengths = np.array([iv.length for iv in self.intervals])
        total = lengths.sum()
        if total > 0:
            weights = lengths / total
        else:
            weights = np.full(len(lengths), 1.0 / len(lengths))
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        picks = cdf.searchsorted(pick, side="right")
        los = np.array([iv.lo for iv in self.intervals])[picks]
        return los + position * lengths[picks]

    def to_json(self) -> list[list[float]]:
        return [[iv.lo, iv.hi] for iv in self.intervals]


# ---------------------------------------------------------------------------
# Exact 1-D k-means
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Kmeans1dResult:
    """Optimal contiguous clusters of every column, in ascending value order.

    Cluster j of column f is `values[bounds[j, f]:bounds[j + 1, f], f]`.
    """

    values: np.ndarray             # (n, d) every column sorted ascending
    bounds: np.ndarray             # (k + 1, d) cluster starts, then n
    centroids: np.ndarray          # (k, d) cluster means
    inertia: np.ndarray            # (d,) within-cluster sum of squares


def kmeans_1d(columns: np.ndarray, clusters: int) -> Kmeans1dResult:
    """Exact k-means of each column of an (n, d) matrix on its own.

    In one dimension an optimal clustering splits the sorted values into
    contiguous ranges, so dynamic programming over the ranges finds the
    minimum within-cluster sum of squares (Wang & Song 2011, Ckmeans.1d.dp,
    The R Journal 3(2)); with two clusters it is one scan over the split
    points. k = min(clusters, n), so a column with fewer rows than
    `clusters` gets one cluster per row.

    Range sums of squares come from prefix sums of the values minus the
    column's median row, which keeps integer data integer. Ties: sums of
    squares within 1e-12 of the column's one-cluster sum of squares count
    as equal, so partitions that are equal in exact arithmetic stay equal
    after rounding; among equal partitions the one whose last cluster
    starts first wins, then the one whose second-to-last cluster starts
    first, and so on (with two clusters, the first split point).
    """
    values = np.sort(np.asarray(columns, dtype=float), axis=0)
    if values.ndim != 2 or len(values) < 1:
        raise ValueError("need a non-empty 2-D column matrix")
    if clusters < 1:
        raise ValueError(f"clusters must be >= 1, got {clusters}")
    n, d = values.shape
    k = min(clusters, n)
    centered = values - values[n // 2]
    s1 = np.zeros((n + 1, d))
    s2 = np.zeros((n + 1, d))
    np.cumsum(centered, axis=0, out=s1[1:])
    np.cumsum(centered * centered, axis=0, out=s2[1:])

    def range_sse(starts, stops):
        """Sum of squares of rows starts..stops-1 of each column; either
        bound may be an index array."""
        t = s1[stops] - s1[starts]
        m = np.subtract(stops, starts)[..., None]
        return np.maximum(s2[stops] - s2[starts] - t * t / m, 0.0)

    def first_min(cand):
        """Row of each column's first candidate tied with its minimum."""
        return np.argmax(cand <= cand.min(axis=0) + tol, axis=0)

    cols = np.arange(d)
    tol = 1e-12 * range_sse(0, n)
    bounds = np.zeros((k + 1, d), dtype=np.intp)
    bounds[k] = n
    # cost[i]: the least sum of squares of the first i rows in j clusters,
    # from j = 1 up; back[j][i]: where the last of those j clusters starts
    cost = np.zeros((n + 1, d))
    cost[1:] = range_sse(0, np.arange(1, n + 1))
    back = {}
    for j in range(2, k):
        nxt = np.full((n + 1, d), np.inf)
        back[j] = np.zeros((n + 1, d), dtype=np.intp)
        for i in range(j, n - (k - j) + 1):
            starts = np.arange(j - 1, i)
            cand = cost[starts] + range_sse(starts, i)
            a = first_min(cand)
            back[j][i] = starts[a]
            nxt[i] = cand[a, cols]
        cost = nxt
    if k > 1:
        starts = np.arange(k - 1, n)
        cand = cost[starts] + range_sse(starts, n)
        a = first_min(cand)
        bounds[k - 1] = starts[a]
        inertia = cand[a, cols]
        for j in range(k - 1, 1, -1):
            bounds[j - 1] = back[j][bounds[j], cols]
    else:
        inertia = cost[n]
    lo, hi = values[bounds[:-1], cols], values[bounds[1:] - 1, cols]
    means = values[n // 2] + (s1[bounds[1:], cols] - s1[bounds[:-1], cols]) / (
        bounds[1:] - bounds[:-1])
    centroids = np.clip(means, lo, hi)   # a constant cluster's mean is exact
    return Kmeans1dResult(values, bounds, centroids, inertia)


# ---------------------------------------------------------------------------
# Pairwise differences in row blocks
# ---------------------------------------------------------------------------

_BLOCK_FLOATS = 1 << 16   # floats in one block's differences: 512 KB of float64


def pairwise_blocks(queries: np.ndarray, pool: np.ndarray):
    """Yield `(rows, diff)` for consecutive slices `rows` of the query rows,
    where `diff` is `queries[rows, None, :] - pool[None, :, :]`.

    Each block has at least one row and, where one row allows it, at most
    `_BLOCK_FLOATS` floats, so a pairwise step run block by block holds one
    block's differences instead of all of them. The blocks share one
    buffer: a block's `diff` is valid until the next block is yielded, and
    the caller may overwrite it. Every value is computed as in one full
    pass, so a caller that reduces within rows gets the same bits whatever
    the block size.
    """
    m, (n, d) = len(queries), pool.shape
    step = max(1, _BLOCK_FLOATS // max(1, n * d))
    buffer = np.empty((min(step, m), n, d))
    for start in range(0, m, step):
        rows = slice(start, min(start + step, m))
        diff = buffer[:rows.stop - start]
        np.subtract(queries[rows, None, :], pool[None, :, :], out=diff)
        yield rows, diff


# ---------------------------------------------------------------------------
# K-means (Lloyd's algorithm)
# ---------------------------------------------------------------------------

@dataclass
class KmeansResult:
    centroids: np.ndarray          # (k, d)
    assignments: np.ndarray        # (n,) cluster index per point
    inertia: float                 # sum of squared distances to assigned centroids


def _sq_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    dists = np.empty((len(points), len(centroids)))
    for rows, diff in pairwise_blocks(points, centroids):
        np.einsum("nkd,nkd->nk", diff, diff, out=dists[rows])
    return dists


def _lloyd_run(points, k, rng, max_iter, tol):
    n = points.shape[0]
    centroids = points[rng.choice(n, size=k, replace=False)].copy()
    dists = _sq_distances(points, centroids)
    for _ in range(max_iter):
        assignments = np.argmin(dists, axis=1)  # ties -> lowest index
        onehot = (assignments[:, None] == np.arange(k)).astype(float)
        counts = np.bincount(assignments, minlength=k)
        filled = counts > 0
        new_centroids = centroids.copy()   # an empty cluster keeps its centroid
        new_centroids[filled] = (onehot.T @ points)[filled] / counts[filled, None]
        # empty-cluster repair: move the centroid onto the point currently
        # farthest from its own centroid, keeping k constant. Once that point
        # lies within `tol` of its centroid, every point does, and moving
        # centroids onto them would only reshuffle ownership, never settle
        # (k above the number of distinct rows)
        dists = _sq_distances(points, new_centroids)
        owner = np.argmin(dists, axis=1)
        best = dists[np.arange(n), owner]
        moved = False
        for c in np.flatnonzero(np.bincount(owner, minlength=k) == 0):
            far = int(np.argmax(best))
            if best[far] <= tol ** 2:
                break
            new_centroids[c] = points[far]
            best[far] = 0.0
            moved = True
        if moved:
            dists = _sq_distances(points, new_centroids)
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if shift < tol:
            break
    # `dists` holds the distances to the final centroids
    assignments = np.argmin(dists, axis=1)
    inertia = float(dists[np.arange(n), assignments].sum())
    return KmeansResult(centroids, assignments, inertia)


def kmeans(points: np.ndarray, k: int, seed: int, max_iter: int = 100,
           tol: float = 1e-9, restarts: int = 10) -> KmeansResult:
    """Seeded Lloyd's K-means, best inertia over `restarts` runs.

    Initialization picks k distinct input rows per restart; distances are
    squared Euclidean; assignment ties go to the lowest cluster index.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if tol < 0:
        raise ValueError("tol must be >= 0")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    best = None
    for r in range(restarts):
        result = _lloyd_run(points, k, substream(seed, r), max_iter, tol)
        if best is None or result.inertia < best.inertia:
            best = result
    return best


# ---------------------------------------------------------------------------
# Pearson correlation
# ---------------------------------------------------------------------------

@dataclass
class CorrMatrix:
    coefficients: np.ndarray       # (d, d) symmetric, entries in [-1, 1]
    zero_variance_flags: np.ndarray  # (d,) bool; flagged rows/cols are 0


def pearson_corr(points: np.ndarray) -> CorrMatrix:
    """Pearson correlation matrix over columns.

    Zero-variance columns are flagged and their coefficients (including the
    diagonal) reported as 0 rather than raising, so correlation comparisons
    never crash on constant features.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 2:
        raise ValueError("need a 2-D matrix with at least 2 rows")
    d = points.shape[1]
    centered = points - points.mean(axis=0)
    stds = np.sqrt((centered ** 2).mean(axis=0))
    flags = stds == 0.0
    coeffs = np.zeros((d, d))
    ok = ~flags
    if ok.any():
        normed = np.zeros_like(centered)
        normed[:, ok] = centered[:, ok] / stds[ok]
        sub = normed[:, ok].T @ normed[:, ok] / points.shape[0]
        block = np.clip(sub, -1.0, 1.0)
        block = (block + block.T) / 2.0
        np.fill_diagonal(block, 1.0)
        coeffs[np.ix_(ok, ok)] = block
    return CorrMatrix(coeffs, flags)
