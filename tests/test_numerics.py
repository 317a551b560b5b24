"""Numeric kernel tests: RNG streams, intervals, k-means, correlation."""

import itertools
import sys
import tracemalloc

import numpy as np
import pytest

from biasdiv import numerics
from biasdiv.numerics import (
    Interval,
    IntervalSet,
    _lloyd_run,
    kmeans,
    kmeans_1d,
    pairwise_blocks,
    pearson_corr,
    relax_interval,
    round_half_up,
    substream,
)


# -- RNG streams -------------------------------------------------------------

def test_substream_is_deterministic():
    a = substream(7, "train", 3).uniform(size=5)
    b = substream(7, "train", 3).uniform(size=5)
    assert np.array_equal(a, b)


def test_substream_labels_separate_streams():
    a = substream(7, "train", 0).uniform(size=5)
    b = substream(7, "train", 1).uniform(size=5)
    c = substream(7, "probe", 0).uniform(size=5)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_substream_rejects_bad_labels():
    with pytest.raises(ValueError):
        substream(1, -2)
    with pytest.raises(TypeError):
        substream(1, 1.5)


# -- rounding ----------------------------------------------------------------

@pytest.mark.parametrize("x,expected", [
    (0.0, 0), (0.4, 0), (0.5, 1), (1.5, 2), (2.5, 3),
    (3.49, 3), (-0.5, 0), (-1.5, -1), (10.0, 10),
])
def test_round_half_up(x, expected):
    assert round_half_up(x) == expected


# -- intervals ---------------------------------------------------------------

# Reference helpers: only tests ask these questions of intervals, so they
# live here rather than in `biasdiv.numerics`; other test modules import them.

def single(lo, hi):
    """The interval set made of the one interval [lo, hi]."""
    return IntervalSet((Interval(lo, hi),))


def total_length(s):
    return sum(iv.length for iv in s.intervals)


def contains(s, value, tol=0.0):
    """Whether some interval of the set `s` holds `value`, within `tol`."""
    return any(iv.lo - tol <= value <= iv.hi + tol for iv in s.intervals)


def contains_interval(big, small):
    """Whether the interval `big` holds the whole interval `small`."""
    return big.lo <= small.lo and small.hi <= big.hi


def is_subset_of(small, big):
    """Whether every interval of the set `small` lies inside one interval
    of the set `big`."""
    return all(any(contains_interval(b, s) for b in big.intervals)
               for s in small.intervals)


def interiors_disjoint(a, b):
    """True when no open interval of `a` intersects an open interval of `b`."""
    return all(max(x.lo, y.lo) >= min(x.hi, y.hi)
               for x in a.intervals for y in b.intervals)


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(3.0, 2.0)
    with pytest.raises(ValueError):
        Interval(0.0, float("inf"))
    assert Interval(2.0, 2.0).length == 0.0


def test_relax_interval_frozen_values():
    assert relax_interval(Interval(2.0, 8.0), 1.0) == Interval(1.0, 9.0)
    assert relax_interval(Interval(5.0, 5.0), 2.0) == Interval(3.0, 7.0)
    assert relax_interval(Interval(-1.0, 4.0), 0.0) == Interval(-1.0, 4.0)


def test_relax_interval_contains_input():
    rng = np.random.default_rng(0)
    for _ in range(200):
        lo = rng.uniform(-10, 10)
        hi = lo + rng.uniform(0, 5)
        delta = rng.uniform(0, 3)
        out = relax_interval(Interval(lo, hi), delta)
        assert contains_interval(out, Interval(lo, hi))
        assert out.length == pytest.approx((hi - lo) + 2 * delta)


def test_relax_interval_rejects_negative_delta():
    with pytest.raises(ValueError):
        relax_interval(Interval(0.0, 1.0), -0.1)


def test_interval_set_ordering_enforced():
    with pytest.raises(ValueError):
        IntervalSet((Interval(0.0, 2.0), Interval(1.0, 3.0)))
    # touching endpoints are fine, interiors stay disjoint
    s = IntervalSet((Interval(0.0, 1.0), Interval(1.0, 2.0)))
    assert total_length(s) == pytest.approx(2.0)


def test_interval_set_contains_and_bounds():
    s = IntervalSet((Interval(0.0, 1.0), Interval(4.0, 6.0)))
    assert s.lo == 0.0 and s.hi == 6.0
    assert contains(s, 0.5) and contains(s, 5.0)
    assert not contains(s, 2.0)


def test_interval_set_subset():
    big = IntervalSet((Interval(0.0, 3.0), Interval(5.0, 9.0)))
    small = IntervalSet((Interval(1.0, 2.0), Interval(6.0, 7.0)))
    assert is_subset_of(small, big)
    assert not is_subset_of(big, small)


def test_interval_set_intersect():
    s = IntervalSet((Interval(0.0, 2.0), Interval(4.0, 6.0)))
    clipped = s.intersect(Interval(1.0, 5.0))
    assert clipped.to_json() == [[1.0, 2.0], [4.0, 5.0]]
    assert s.intersect(Interval(7.0, 9.0)) is None


def test_interval_set_sample_respects_support():
    s = IntervalSet((Interval(0.0, 1.0), Interval(4.0, 6.0)))
    draws = s.place(*substream(3, "draw").random((2, 4000)))
    assert all(contains(s, v, tol=1e-12) for v in draws)
    # length weighting: second interval is twice as long
    frac_hi = float(np.mean(draws >= 4.0))
    assert 0.60 < frac_hi < 0.74


def test_interval_set_sample_degenerate_points():
    s = IntervalSet((Interval(1.0, 1.0), Interval(5.0, 5.0)))
    draws = s.place(*substream(3, "deg").random((2, 500)))
    assert set(np.unique(draws)) == {1.0, 5.0}
    frac = float(np.mean(draws == 1.0))
    assert 0.4 < frac < 0.6   # equal weights when total length is zero


def test_interval_set_json_round_trip():
    s = IntervalSet((Interval(0.5, 1.5), Interval(2.0, 2.0)))
    assert s.to_json() == [[0.5, 1.5], [2.0, 2.0]]


def test_interiors_disjoint():
    a = single(0.0, 2.0)
    b = single(2.0, 4.0)
    c = single(1.0, 3.0)
    assert interiors_disjoint(a, b)
    assert not interiors_disjoint(a, c)


# -- k-means -----------------------------------------------------------------

def test_kmeans_frozen_1d_oracle():
    result = kmeans(np.array([0.0, 1.0, 9.0, 10.0]), k=2, seed=0)
    cents = sorted(result.centroids.ravel().tolist())
    assert cents == pytest.approx([0.5, 9.5])
    assert result.inertia == pytest.approx(1.0)


def test_kmeans_empty_cluster_repair_frozen():
    """Seed 7 starts three centroids on the duplicated origin, so clusters go
    empty and are moved onto the farthest points; the run is frozen."""
    pts = np.array([[0.0, 0.0]] * 6 + [[1.0, 0.0], [4.0, 4.0], [5.0, 4.0], [9.0, 1.0]])
    result = kmeans(pts, k=4, seed=7, restarts=1)
    assert result.centroids.tolist() == [[0.0, 0.0], [9.0, 1.0], [1.0, 0.0], [4.5, 4.0]]
    assert result.assignments.tolist() == [0, 0, 0, 0, 0, 0, 2, 3, 3, 1]
    assert result.inertia == 0.5
    # the inertia after each of the first five iterations
    trace = [kmeans(pts, k=4, seed=7, restarts=1, max_iter=i).inertia for i in range(1, 6)]
    assert trace == [2.0, 0.6224489795918366, 0.5, 0.5, 0.5]


@pytest.mark.parametrize("seed", range(6))
def test_kmeans_with_more_clusters_than_distinct_rows_converges(monkeypatch, seed):
    """12 distinct rows, each 5 times, in 30 clusters: 18 clusters stay
    empty, and once every row sits on a centroid the repair stops moving
    them, so a restart converges instead of running all 100 iterations
    (2,010 distance calls over 10 restarts before the repair stopped)."""
    calls = []
    sq_distances = numerics._sq_distances

    def counting(*args):
        calls.append(None)
        return sq_distances(*args)

    monkeypatch.setattr(numerics, "_sq_distances", counting)
    points = np.repeat(substream(49, "duplicates").normal(size=(12, 5)), 5, axis=0)
    result = kmeans(points, 30, seed=seed)
    assert len(calls) <= 40
    assert result.inertia <= 1e-30


def test_kmeans_k_equals_n_is_exact():
    pts = np.array([[0.0, 0.0], [3.0, 1.0], [7.0, 2.0]])
    result = kmeans(pts, k=3, seed=1)
    assert result.inertia == pytest.approx(0.0)
    assert sorted(result.assignments.tolist()) == [0, 1, 2]


def test_kmeans_k1_centroid_is_mean():
    pts = np.array([[1.0, 2.0], [3.0, 6.0], [5.0, 1.0]])
    result = kmeans(pts, k=1, seed=5)
    assert result.centroids[0] == pytest.approx(pts.mean(axis=0))


def test_kmeans_validation():
    pts = np.zeros((4, 2))
    with pytest.raises(ValueError):
        kmeans(pts, k=0, seed=0)
    with pytest.raises(ValueError):
        kmeans(pts, k=5, seed=0)
    for restarts in (0, -3):
        with pytest.raises(ValueError, match="restarts"):
            kmeans(pts, k=2, seed=0, restarts=restarts)


def test_lloyd_update_is_the_member_mean():
    # one iteration from the seeded start: every centroid moves to the mean
    # of the points nearest its starting row
    for trial in range(20):
        rng = substream(37, "update", trial)
        n, d, k = int(rng.integers(5, 40)), int(rng.integers(1, 5)), int(rng.integers(1, 5))
        pts = rng.normal(size=(n, d)) * rng.uniform(0.1, 100.0)
        start = pts[np.random.default_rng(trial).choice(n, size=k, replace=False)]
        owner = np.argmin(((pts[:, None, :] - start[None]) ** 2).sum(axis=2), axis=1)
        result = _lloyd_run(pts, k, np.random.default_rng(trial), 1, 0.0)
        for c in range(k):
            assert np.abs(result.centroids[c] - pts[owner == c].mean(axis=0)).max() \
                <= 1e-12 * max(1.0, np.abs(pts).max())


def test_kmeans_converged_centroids_are_member_means():
    for trial in range(10):
        pts = substream(41, "means", trial).uniform(-5, 5, size=(60, 3))
        result = kmeans(pts, k=6, seed=trial)
        for c in range(6):
            members = pts[result.assignments == c]
            assert np.abs(result.centroids[c] - members.mean(axis=0)).max() <= 1e-12


def test_pairwise_blocks_cover_rows_within_the_cap(monkeypatch):
    monkeypatch.setattr(numerics, "_BLOCK_FLOATS", 100)
    rng = substream(45, "pairwise")
    for m, n, d, step in ((7, 5, 1, 7), (45, 10, 3, 3), (5, 101, 1, 1), (1, 3, 2, 1)):
        queries, pool = rng.normal(size=(m, d)), rng.normal(size=(n, d))
        full = queries[:, None, :] - pool[None, :, :]
        starts = []
        for rows, diff in pairwise_blocks(queries, pool):
            starts.append(rows.start)
            assert rows.stop == min(rows.start + step, m)
            assert np.array_equal(diff, full[rows])
        assert starts == list(range(0, m, step))


@pytest.mark.parametrize("n,k,d,copies", [(240, 120, 4, 1), (77, 40, 71, 1), (12, 10, 5, 5)])
def test_kmeans_bits_do_not_depend_on_the_block_size(monkeypatch, n, k, d, copies):
    # copies > 1: a class of duplicate rows, so many distances tie exactly
    points = np.repeat(substream(43, "blocks", n).normal(size=(n, d)) * 7.3, copies, axis=0)
    results = []
    for cap in (1, sys.maxsize):      # one row per block, then all rows
        monkeypatch.setattr(numerics, "_BLOCK_FLOATS", cap)
        results.append(kmeans(points, k, seed=5))
    one_row, all_rows = results
    assert one_row.centroids.tobytes() == all_rows.centroids.tobytes()
    assert one_row.assignments.tobytes() == all_rows.assignments.tobytes()
    assert one_row.inertia == all_rows.inertia


def test_kmeans_distance_memory_is_bounded():
    # (400, 32) rows against 200 centroids: a full difference array would
    # be 400 * 200 * 32 floats, 20 MB, on every distance call
    points = substream(47, "memory").normal(size=(400, 32))
    tracemalloc.start()
    try:
        kmeans(points, 200, seed=0, restarts=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


def test_kmeans_1d_frozen_cases():
    result = kmeans_1d(np.array([[9.0, 3.0], [0.0, 3.0], [10.0, 3.0], [1.0, 3.0]]), 2)
    assert result.values[:, 0].tolist() == [0.0, 1.0, 9.0, 10.0]
    assert result.bounds.tolist() == [[0, 0], [2, 1], [4, 4]]   # constant: first split
    assert result.centroids.tolist() == [[0.5, 3.0], [9.5, 3.0]]
    assert result.inertia.tolist() == [1.0, 0.0]
    # fewer rows than clusters: one cluster per row
    few = kmeans_1d(np.array([[2.0], [1.0]]), 4)
    assert few.bounds[:, 0].tolist() == [0, 1, 2]
    assert few.inertia.tolist() == [0.0]
    one = kmeans_1d(np.array([[1.0], [2.0], [6.0]]), 1)
    assert one.bounds[:, 0].tolist() == [0, 3]
    assert one.centroids[0, 0] == 3.0 and one.inertia[0] == pytest.approx(14.0)


def test_kmeans_1d_is_optimal_on_floats():
    # on real-valued columns: the brute-force optimum, never above Lloyd
    for trial in range(20):
        rng = substream(43, "float1d", trial)
        col = rng.normal(size=int(rng.integers(2, 30))) * 3.0
        k = int(rng.integers(1, min(4, len(col)) + 1))
        exact = kmeans_1d(col[:, None], k).inertia[0]
        assert exact <= kmeans(col, k, seed=trial).inertia + 1e-9
        assert exact == pytest.approx(_brute_force_inertia_1d(col, k), rel=1e-9, abs=1e-12)


def test_kmeans_1d_validation():
    with pytest.raises(ValueError):
        kmeans_1d(np.empty((0, 2)), 2)
    with pytest.raises(ValueError):
        kmeans_1d(np.zeros(3), 2)
    with pytest.raises(ValueError):
        kmeans_1d(np.zeros((3, 1)), 0)


def _brute_force_inertia_1d(col, k):
    v = np.sort(col)
    return min(sum(((v[a:b] - v[a:b].mean()) ** 2).sum()
                   for a, b in zip((0, *cuts), (*cuts, len(v))))
               for cuts in itertools.combinations(range(1, len(v)), k - 1))


def _brute_force_inertia(points, k):
    n = len(points)
    best = np.inf
    for labels in itertools.product(range(k), repeat=n):
        if len(set(labels)) != k:
            continue
        labels = np.array(labels)
        total = 0.0
        for c in range(k):
            members = points[labels == c]
            total += ((members - members.mean(axis=0)) ** 2).sum()
        best = min(best, total)
    return best


def test_kmeans_matches_brute_force_on_separated_blobs():
    for trial in range(25):
        rng = substream(11, "blobs", trial)
        k = int(rng.integers(1, 4))
        centers = rng.uniform(-20, 20, size=(k, 2)) * 3
        n = int(rng.integers(k, 8))
        pts = np.vstack([
            centers[int(rng.integers(k))] + rng.normal(scale=0.3, size=2)
            for _ in range(n)
        ])
        result = kmeans(pts, k=k, seed=trial)
        assert result.inertia == pytest.approx(_brute_force_inertia(pts, k), abs=1e-7)


def test_kmeans_near_optimal_on_random_fixtures():
    # best-of-10 restarts should hit the brute-force optimum on almost all
    # small random point sets, not just nicely separated ones
    hits = 0
    for trial in range(100):
        rng = substream(31, "rand", trial)
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k, 9))
        pts = rng.uniform(-1, 1, size=(n, 2))
        result = kmeans(pts, k=k, seed=trial)
        if abs(result.inertia - _brute_force_inertia(pts, k)) < 1e-9:
            hits += 1
    assert hits >= 95


def test_kmeans_internal_consistency():
    rng = substream(13, "consistency")
    pts = rng.uniform(-5, 5, size=(40, 3))
    result = kmeans(pts, k=4, seed=2)
    # assignments are nearest centroids
    diff = pts[:, None, :] - result.centroids[None, :, :]
    d2 = (diff ** 2).sum(axis=2)
    assert np.array_equal(result.assignments, np.argmin(d2, axis=1))
    # inertia matches recomputation
    assert result.inertia == pytest.approx(
        d2[np.arange(len(pts)), result.assignments].sum())
    # every cluster is non-empty
    assert set(result.assignments.tolist()) == set(range(4))


def test_kmeans_inertia_trace_non_increasing():
    rng = substream(17, "trace")
    pts = rng.uniform(0, 1, size=(30, 2))
    result = kmeans(pts, k=3, seed=9, restarts=1)
    # the inertia after each iteration, from runs cut after i iterations
    trace = [kmeans(pts, k=3, seed=9, restarts=1, max_iter=i).inertia for i in range(1, 21)]
    assert trace[0] > trace[-1]
    for a, b in zip(trace, trace[1:]):
        assert b <= a + 1e-9
    assert trace[-1] == result.inertia


def test_kmeans_deterministic_per_seed():
    rng = substream(19, "det")
    pts = rng.uniform(0, 1, size=(25, 2))
    r1 = kmeans(pts, k=3, seed=4)
    r2 = kmeans(pts, k=3, seed=4)
    assert np.array_equal(r1.centroids, r2.centroids)
    assert np.array_equal(r1.assignments, r2.assignments)


# -- Pearson correlation -----------------------------------------------------

def test_pearson_frozen_values():
    data = np.array([[1.0, 6.0], [2.0, 4.0], [3.0, 2.0]])
    out = pearson_corr(data)
    assert out.coefficients[0, 1] == pytest.approx(-1.0)
    data = np.array([[1.0, 1.0], [2.0, 0.0], [3.0, 1.0]])
    out = pearson_corr(data)
    assert out.coefficients[0, 1] == pytest.approx(0.0)


def test_pearson_zero_variance_flagged():
    data = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    out = pearson_corr(data)
    assert out.zero_variance_flags.tolist() == [False, True]
    assert out.coefficients[1, 1] == 0.0
    assert out.coefficients[0, 1] == 0.0
    assert out.coefficients[0, 0] == pytest.approx(1.0)


def test_pearson_matches_numpy_and_is_clipped():
    rng = substream(23, "corr")
    data = rng.normal(size=(50, 4))
    out = pearson_corr(data)
    assert out.coefficients == pytest.approx(np.corrcoef(data, rowvar=False), abs=1e-10)
    assert np.all(out.coefficients <= 1.0) and np.all(out.coefficients >= -1.0)
    assert np.array_equal(out.coefficients, out.coefficients.T)


def test_pearson_affine_invariance():
    rng = substream(29, "affine")
    data = rng.normal(size=(40, 3))
    scaled = data * np.array([2.0, 0.5, 7.0]) + np.array([-3.0, 1.0, 100.0])
    a = pearson_corr(data).coefficients
    b = pearson_corr(scaled).coefficients
    assert b == pytest.approx(a, abs=1e-10)


def test_pearson_needs_two_rows():
    with pytest.raises(ValueError):
        pearson_corr(np.array([[1.0, 2.0]]))
