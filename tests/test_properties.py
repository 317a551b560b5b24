"""Property tests: the bias score and overlap tightening under class
relabelling, tightening on integer grids where endpoints coincide, exact
1-D k-means against brute force on integer grids with duplicates, and the
box plot's quartiles against numpy's percentiles."""

import itertools
import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biasdiv.data import Dataset
from biasdiv.diversify import ClassBounds, dominant_clusters, tighten_overlaps
from biasdiv.harness import quartiles
from biasdiv.numerics import Interval, IntervalSet, kmeans_1d
from biasdiv.probe import compute_bias
from test_numerics import is_subset_of, single


@st.composite
def class_counts(draw):
    """Per-class misclassified and correct variant counts, plus a relabelling."""
    L = draw(st.integers(2, 6))
    misclassified = draw(st.lists(st.integers(0, 1000), min_size=L, max_size=L))
    correct = draw(st.lists(st.integers(1, 1000), min_size=L, max_size=L))
    perm = draw(st.permutations(range(L)))
    return np.array(misclassified), np.array(correct), np.array(perm)


@given(class_counts())
def test_compute_bias_is_relabelling_equivariant(counts):
    m, c, perm = counts
    R, mu, b_r = compute_bias(m, c)
    R_p, mu_p, b_r_p = compute_bias(m[perm], c[perm])
    assert np.array_equal(R_p, R[perm])
    assert np.array_equal(mu_p, mu[perm])
    # b_r sums the ratios, so only the summation order differs
    assert b_r_p == pytest.approx(b_r, rel=0, abs=1e-12)


@st.composite
def grid_set(draw, grid):
    """One or two intervals on the integer grid 0..grid; repeated values
    give point intervals and endpoints shared with other sets."""
    k = draw(st.sampled_from((2, 4)))
    v = sorted(draw(st.lists(st.integers(0, grid), min_size=k, max_size=k)))
    return IntervalSet(tuple(Interval(float(v[i]), float(v[i + 1])) for i in range(0, k, 2)))


@st.composite
def grid_bounds(draw, min_classes=2, max_classes=6):
    L = draw(st.integers(min_classes, max_classes))
    d = draw(st.integers(1, 3))
    grid = draw(st.integers(1, 10))
    return ClassBounds(tuple(tuple(draw(grid_set(grid)) for _ in range(d))
                             for _ in range(L)))


@settings(max_examples=200)
@given(grid_bounds())
def test_tighten_never_fails_and_only_shrinks_on_integer_grids(bounds):
    out = tighten_overlaps(bounds)
    for before, after in zip(bounds.per_class, out.per_class):
        for b, a in zip(before, after):
            assert is_subset_of(a, b)


@given(grid_bounds(max_classes=2))
def test_tighten_two_classes_is_swap_equivariant(bounds):
    swapped = tighten_overlaps(ClassBounds(bounds.per_class[::-1]))
    assert tighten_overlaps(bounds).per_class == swapped.per_class[::-1]


def _single(per_class):
    return ClassBounds(tuple((single(lo, hi),) for lo, hi in per_class))


@pytest.mark.xfail(strict=True, reason="pairs are tightened in class-index order, so "
                   "with 3 or more classes the result depends on the labelling")
def test_tighten_three_classes_is_relabelling_equivariant():
    # A=[3,10], B=[5,8], C=[4,9]: in this order B and C both end at [5,8];
    # relabelled as (C, A, B), C ends at [4,5] and [8,9]
    per_class = [(3.0, 10.0), (5.0, 8.0), (4.0, 9.0)]
    perm = [2, 0, 1]
    out = tighten_overlaps(_single(per_class))
    relabelled = tighten_overlaps(_single([per_class[p] for p in perm]))
    assert relabelled.per_class == tuple(out.per_class[p] for p in perm)


def _brute_force_1d(column, clusters):
    """Exact best partition of sorted `column` into min(clusters, n)
    contiguous ranges, as (sum of squares, bounds), in Fractions. Among
    equal sums the one whose last range starts first wins, then the one
    whose second-to-last range starts first, and so on."""
    v = sorted(Fraction(int(x)) for x in column)
    n = len(v)
    best = None
    for cuts in itertools.combinations(range(1, n), min(clusters, n) - 1):
        bounds = (0, *cuts, n)
        sse = Fraction(0)
        for a, b in zip(bounds, bounds[1:]):
            mean = sum(v[a:b]) / (b - a)
            sse += sum((x - mean) ** 2 for x in v[a:b])
        key = (sse, cuts[::-1])
        if best is None or key < best[0]:
            best = (key, bounds)
    return best[0][0], best[1]


@st.composite
def integer_columns(draw):
    """An (n, d) matrix on a small integer grid, so values repeat and
    different partitions often have equal sums of squares."""
    n = draw(st.integers(1, 10))
    d = draw(st.integers(1, 3))
    grid = draw(st.integers(1, 6))
    cells = draw(st.lists(st.integers(-grid, grid), min_size=n * d, max_size=n * d))
    return np.array(cells, dtype=float).reshape(n, d), draw(st.integers(1, 4))


@settings(max_examples=400)
@given(integer_columns())
def test_kmeans_1d_matches_brute_force_on_integer_grids(case):
    columns, clusters = case
    n, d = columns.shape
    result = kmeans_1d(columns, clusters)
    one_class = Dataset(columns, np.zeros(n, dtype=int), ("a",),
                        tuple(f"f{f}" for f in range(d)))
    dominant = dominant_clusters((one_class,), clusters)
    for f in range(d):
        sse, bounds = _brute_force_1d(columns[:, f], clusters)
        assert result.bounds[:, f].tolist() == list(bounds)
        assert result.inertia[f] == pytest.approx(float(sse), rel=1e-12, abs=1e-12)
        # the dominant cluster is the largest; equal sizes -> lowest-valued
        sizes = np.diff(bounds)
        j = int(np.argmax(sizes))
        members = np.sort(columns[:, f])[bounds[j]:bounds[j + 1]]
        assert (dominant.lo[0, f], dominant.hi[0, f]) == (members[0], members[-1])
        assert dominant.radius[0, f] == pytest.approx(
            float(np.abs(members - members.mean()).max()), abs=1e-12)


# ties, signed zeros, negatives, and magnitudes from 1e-5 to 1e5, some
# rounded to two decimals as a report's scores often are
QUARTILE_VALUES = st.lists(st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.25, 1e-5, -1e5]),
    st.floats(-1e5, 1e5),
    st.floats(-1e5, 1e5).map(lambda v: round(v, 2)),
    st.floats(1e-5, 1e-3),
), min_size=1, max_size=24)


@settings(max_examples=1000)
@given(QUARTILE_VALUES)
def test_quartiles_match_numpy_percentile_bit_for_bit(values):
    want = [float(q) for q in np.percentile(values, (25, 50, 75))]
    got = quartiles(values)
    zero_signs = {math.copysign(1.0, v) for v in values if v == 0.0}
    for g, w in zip(got, want):
        if g == w == 0.0 and len(zero_signs) == 2:
            # between +0.0 and -0.0 numpy's sign follows its partition order
            continue
        assert struct.pack("<d", g) == struct.pack("<d", w), (values, got, want)
