"""Deterministic numeric kernels: seeded RNG streams, interval arithmetic,
Lloyd's K-means and Pearson correlation.

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

    def contains(self, value: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= value <= self.hi + tol

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


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

    @classmethod
    def single(cls, lo: float, hi: float) -> "IntervalSet":
        return cls((Interval(lo, hi),))

    @property
    def total_length(self) -> float:
        return sum(iv.length for iv in self.intervals)

    @property
    def lo(self) -> float:
        return self.intervals[0].lo

    @property
    def hi(self) -> float:
        return self.intervals[-1].hi

    def contains(self, value: float, tol: float = 0.0) -> bool:
        return any(iv.contains(value, tol) for iv in self.intervals)

    def is_subset_of(self, other: "IntervalSet") -> bool:
        return all(
            any(big.contains_interval(small) for big in other.intervals)
            for small in self.intervals
        )

    def intersect(self, window: Interval) -> "IntervalSet | None":
        """Clip to a window; None when nothing remains."""
        pieces = []
        for iv in self.intervals:
            lo, hi = max(iv.lo, window.lo), min(iv.hi, window.hi)
            if lo <= hi:
                pieces.append(Interval(lo, hi))
        return IntervalSet(tuple(pieces)) if pieces else None

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw uniformly, weighting intervals by length.

        If every interval is a point (total length zero) the points are
        chosen with equal probability instead.
        """
        lengths = np.array([iv.length for iv in self.intervals])
        total = lengths.sum()
        if total > 0:
            weights = lengths / total
        else:
            weights = np.full(len(lengths), 1.0 / len(lengths))
        picks = rng.choice(len(self.intervals), size=count, p=weights)
        u = rng.uniform(0.0, 1.0, size=count)
        los = np.array([iv.lo for iv in self.intervals])[picks]
        spans = lengths[picks]
        return los + u * spans

    def to_json(self) -> list[list[float]]:
        return [[iv.lo, iv.hi] for iv in self.intervals]


def interiors_disjoint(a: IntervalSet, b: IntervalSet) -> bool:
    """True when no open interval of `a` intersects an open interval of `b`."""
    for x in a.intervals:
        for y in b.intervals:
            if max(x.lo, y.lo) < min(x.hi, y.hi):
                return False
    return True


# ---------------------------------------------------------------------------
# K-means (Lloyd's algorithm)
# ---------------------------------------------------------------------------

@dataclass
class KmeansResult:
    centroids: np.ndarray          # (k, d)
    assignments: np.ndarray        # (n,) cluster index per point
    inertia: float                 # sum of squared distances to assigned centroids


def _sq_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _lloyd_run(points, k, rng, max_iter, tol):
    n = points.shape[0]
    centroids = points[rng.choice(n, size=k, replace=False)].copy()
    for _ in range(max_iter):
        dists = _sq_distances(points, centroids)
        assignments = np.argmin(dists, axis=1)  # ties -> lowest index
        new_centroids = centroids.copy()
        for c in range(k):
            members = assignments == c
            if members.any():
                new_centroids[c] = points[members].mean(axis=0)
        # empty-cluster repair: move the centroid onto the point currently
        # farthest from its own centroid, keeping k constant
        dists = _sq_distances(points, new_centroids)
        owner = np.argmin(dists, axis=1)
        best = dists[np.arange(n), owner]
        for c in np.flatnonzero(np.bincount(owner, minlength=k) == 0):
            far = int(np.argmax(best))
            new_centroids[c] = points[far]
            best[far] = 0.0
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if shift < tol:
            break
    dists = _sq_distances(points, centroids)
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
    best = None
    for r in range(max(1, restarts)):
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
