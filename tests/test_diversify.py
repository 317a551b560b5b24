"""Diversifier tests: bounds pipeline, synthesis, redundancy, validation."""

import json
import math

import numpy as np
import pytest

from biasdiv.data import Dataset, make_toy_blobs, segment_by_class
from biasdiv.diversify import (
    ClassBounds,
    _corr_diff,
    DiversifyConfig,
    bounds_to_json,
    diversify,
    dominant_clusters,
    final_bounds,
    global_extremum,
    minimize_redundancy,
    sample_synthetic,
    save_diversify_report,
    synth_counts,
    tighten_overlaps,
    top_k_features,
    validate_synthetic,
)
from biasdiv.numerics import Interval, IntervalSet, pearson_corr, substream
from biasdiv.probe import Counterexamples, ProbeReport
from test_numerics import contains, interiors_disjoint, is_subset_of, single


def fake_probe(mu, delta_x_max=0.0):
    mu = np.asarray(mu, dtype=float)
    L = len(mu)
    return ProbeReport(
        delta_x_max=delta_x_max,
        R=mu / 100.0,
        mu=mu,
        b_r=0.0,
        counterexamples=Counterexamples((), (), (), None),   # none, and nothing reads them
        per_level_misclassification={},
        probed_per_class=np.full(L, 10),
        variants_per_class=np.full(L, 100),
    )


def single_interval_bounds(per_class):
    """Build ClassBounds from [[(lo, hi) per feature] per class]."""
    return ClassBounds(tuple(
        tuple(single(lo, hi) for lo, hi in sets)
        for sets in per_class
    ))


# -- global_extremum -----------------------------------------------------------

def test_global_extremum_relaxes_extrema():
    ds = Dataset(np.array([[2.0], [5.0], [8.0]]), np.array([0, 0, 0]),
                 ("a",), ("f0",))
    parts = segment_by_class(ds)
    bounds = global_extremum(parts, 1.0, scales=np.array([1.0]))
    assert bounds.get(0, 0) == single(1.0, 9.0)


def test_global_extremum_zero_delta_exact():
    ds = make_toy_blobs(per_class=10, centers=[[0.0, 5.0], [9.0, -2.0]],
                        spread=1.0, seed=1)
    parts = segment_by_class(ds)
    bounds = global_extremum(parts, 0.0, scales=np.ones(2))
    for c in range(2):
        for f in range(2):
            col = parts[c].features[:, f]
            assert bounds.get(c, f) == single(col.min(), col.max())


def test_global_extremum_single_row_point_interval():
    ds = Dataset(np.array([[3.5, -1.0]]), np.array([0]), ("a",), ("f0", "f1"))
    bounds = global_extremum(segment_by_class(ds), 0.0, scales=np.ones(2))
    assert bounds.get(0, 0) == single(3.5, 3.5)


def test_global_extremum_scales_per_feature():
    ds = Dataset(np.array([[2.0, 2.0], [8.0, 8.0]]), np.array([0, 0]),
                 ("a",), ("f0", "f1"))
    bounds = global_extremum(segment_by_class(ds), 0.1, scales=np.array([10.0, 50.0]))
    assert bounds.get(0, 0) == single(1.0, 9.0)     # delta 1
    assert bounds.get(0, 1) == single(-3.0, 13.0)   # delta 5


def test_global_extremum_monotone_in_delta():
    ds = make_toy_blobs(per_class=6, centers=[[0.0], [4.0], [9.0]], spread=1.0, seed=2)
    parts = segment_by_class(ds)
    small = global_extremum(parts, 0.05, scales=np.array([2.0]))
    large = global_extremum(parts, 0.2, scales=np.array([2.0]))
    for c in range(3):
        assert is_subset_of(small.get(c, 0), large.get(c, 0))


# -- tighten_overlaps ------------------------------------------------------------

def test_tighten_partial_overlap():
    bounds = single_interval_bounds([[(2.0, 8.0)], [(7.0, 10.0)]])
    out = tighten_overlaps(bounds)
    assert out.get(0, 0) == single(2.0, 7.0)
    assert out.get(1, 0) == single(8.0, 10.0)


def test_tighten_complete_overlap_splits_outer():
    bounds = single_interval_bounds([[(0.0, 10.0)], [(4.0, 6.0)]])
    out = tighten_overlaps(bounds)
    assert out.get(0, 0) == IntervalSet((Interval(0.0, 4.0), Interval(6.0, 10.0)))
    assert out.get(1, 0) == single(4.0, 6.0)


def test_tighten_disjoint_unchanged():
    bounds = single_interval_bounds([[(0.0, 2.0)], [(5.0, 9.0)]])
    out = tighten_overlaps(bounds)
    assert out.get(0, 0) == bounds.get(0, 0)
    assert out.get(1, 0) == bounds.get(1, 0)


def test_tighten_mirrored_roles():
    # the lower-starting interval plays the "i" role regardless of class order
    bounds = single_interval_bounds([[(7.0, 10.0)], [(2.0, 8.0)]])
    out = tighten_overlaps(bounds)
    assert out.get(1, 0) == single(2.0, 7.0)
    assert out.get(0, 0) == single(8.0, 10.0)


def test_tighten_shared_endpoints_fire_nothing():
    for a, b in [((2.0, 8.0), (2.0, 10.0)),   # equal lo
                 ((2.0, 8.0), (8.0, 10.0)),   # touching
                 ((2.0, 8.0), (2.0, 8.0)),    # identical
                 ((2.0, 8.0), (3.0, 8.0))]:   # equal hi
        bounds = single_interval_bounds([[a], [b]])
        out = tighten_overlaps(bounds)
        assert out.get(0, 0) == bounds.get(0, 0)
        assert out.get(1, 0) == bounds.get(1, 0)


def test_tighten_soundness_and_disjointness_random():
    # outputs always stay inside inputs; wherever a rule actually fired,
    # the two classes end up with disjoint interiors (pairs left untouched
    # by the strict rules, e.g. shared-endpoint layouts, carry no claim)
    rng = substream(61, "tighten")
    for _ in range(300):
        L = int(rng.integers(2, 5))
        raw = []
        for _ in range(L):
            lo = float(rng.uniform(-10, 10))
            hi = lo + float(rng.uniform(0.01, 8))
            raw.append([(lo, hi)])
        bounds = single_interval_bounds(raw)
        out = tighten_overlaps(bounds)
        for c in range(L):
            assert is_subset_of(out.get(c, 0), bounds.get(c, 0))
        for note in out.notes:
            if note.startswith("tightened classes"):
                pair = note.split("tightened classes ")[1].split(" on ")[0]
                a, b = (int(v) for v in pair.split(","))
                assert interiors_disjoint(out.get(a, 0), out.get(b, 0))


def test_tighten_two_overlapping_classes_end_disjoint():
    rng = substream(62, "pairwise")
    for _ in range(200):
        lo_a = float(rng.uniform(-5, 5))
        hi_a = lo_a + float(rng.uniform(0.05, 6))
        lo_b = float(rng.uniform(-5, 5))
        hi_b = lo_b + float(rng.uniform(0.05, 6))
        bounds = single_interval_bounds([[(lo_a, hi_a)], [(lo_b, hi_b)]])
        out = tighten_overlaps(bounds)
        assert interiors_disjoint(out.get(0, 0), out.get(1, 0))


def test_tighten_three_class_chain():
    bounds = single_interval_bounds([[(0.0, 6.0)], [(4.0, 10.0)], [(5.0, 5.5)]])
    out = tighten_overlaps(bounds)
    for a in range(3):
        assert is_subset_of(out.get(a, 0), bounds.get(a, 0))
        for b in range(a + 1, 3):
            assert interiors_disjoint(out.get(a, 0), out.get(b, 0))


# -- top_k_features ------------------------------------------------------------

def tight_loose_ds():
    rng = substream(67, "tl")
    n = 20
    tight = rng.uniform(-0.05, 0.05, size=n)      # spread ~0.1
    loose = rng.uniform(-5.0, 5.0, size=n)        # spread ~10
    feats = np.column_stack([loose, tight])
    return Dataset(feats, np.array([0, 1] * (n // 2)), ("a", "b"), ("loose", "tight"))


def test_top_k_prefers_tight_feature():
    ds = tight_loose_ds()
    parts = segment_by_class(ds)
    assert top_k_features(dominant_clusters(parts, 2), k=1) == [1]


def test_top_k_constant_feature_wins():
    feats = np.column_stack([
        substream(71, "x").uniform(-3, 3, size=12),
        np.full(12, 4.2),
    ])
    ds = Dataset(feats, np.array([0, 1] * 6), ("a", "b"), ("f0", "f1"))
    parts = segment_by_class(ds)
    assert top_k_features(dominant_clusters(parts, 2), k=1) == [1]


def test_top_k_select_all_and_bounds_check():
    ds = tight_loose_ds()
    parts = segment_by_class(ds)
    assert top_k_features(dominant_clusters(parts, 2), k=2) == [0, 1]
    with pytest.raises(ValueError):
        top_k_features(dominant_clusters(parts, 2), k=3)
    with pytest.raises(ValueError):
        top_k_features(dominant_clusters(parts, 2), k=0)


def test_top_k_deterministic():
    ds = make_toy_blobs(per_class=15, centers=[[0.0, 1.0, 2.0], [5.0, 1.5, -2.0]],
                        spread=1.0, seed=4)
    parts = segment_by_class(ds)
    assert (top_k_features(dominant_clusters(parts, 2), 2)
            == top_k_features(dominant_clusters(parts, 2), 2))


def test_dominant_cluster_is_largest_then_lowest_valued():
    feats = np.array([[0.0, 0.0], [1.0, 0.0], [9.0, 0.0], [10.0, 1.0], [10.5, 1.0]])
    ds = Dataset(feats, np.zeros(5, dtype=int), ("a",), ("f0", "f1"))
    out = dominant_clusters(segment_by_class(ds), 2)
    # f0: {0, 1} and {9, 10, 10.5}; f1: {0, 0, 0} and {1, 1}
    assert out.lo.tolist() == [[9.0, 0.0]] and out.hi.tolist() == [[10.5, 0.0]]
    assert out.radius[0, 1] == 0.0
    assert out.radius[0, 0] == pytest.approx(29.5 / 3 - 9.0)
    tie = Dataset(np.array([[0.0], [1.0], [9.0], [10.0]]), np.zeros(4, dtype=int),
                  ("a",), ("f0",))
    out = dominant_clusters(segment_by_class(tie), 2)
    assert (out.lo[0, 0], out.hi[0, 0]) == (0.0, 1.0)   # equal sizes -> lowest
    # a constant dominant cluster has radius 0, though its prefix-sum mean
    # rounds to 0.09999999999999964
    flat = Dataset(np.array([[0.1]] * 3 + [[7.3]] * 3), np.zeros(6, dtype=int),
                   ("a",), ("f0",))
    out = dominant_clusters(segment_by_class(flat), 2)
    assert (out.lo[0, 0], out.hi[0, 0], out.radius[0, 0]) == (0.1, 0.1, 0.0)


# -- final_bounds ----------------------------------------------------------------

def test_final_bounds_dominant_cluster_window():
    ds = Dataset(np.array([[1.0], [1.1], [1.2], [9.0]]),
                 np.zeros(4, dtype=int), ("a",), ("f0",))
    parts = segment_by_class(ds)
    bounds = global_extremum(parts, 0.0, scales=np.ones(1))
    assert bounds.get(0, 0) == single(1.0, 9.0)
    out = final_bounds(bounds, [0], dominant_clusters(parts, 2))
    assert out.get(0, 0) == single(1.0, 1.2)


def test_final_bounds_untouched_off_top():
    ds = Dataset(np.array([[1.0, 1.0], [1.1, 9.0], [1.2, 1.1], [9.0, 9.1]]),
                 np.zeros(4, dtype=int), ("a",), ("f0", "f1"))
    parts = segment_by_class(ds)
    bounds = global_extremum(parts, 0.0, scales=np.ones(2))
    out = final_bounds(bounds, [0], dominant_clusters(parts, 2))
    assert out.get(0, 1) == bounds.get(0, 1)


def test_final_bounds_single_cluster_keeps_extrema():
    ds = Dataset(np.array([[1.0], [1.5], [2.0]]), np.zeros(3, dtype=int),
                 ("a",), ("f0",))
    parts = segment_by_class(ds)
    bounds = global_extremum(parts, 0.0, scales=np.ones(1))
    out = final_bounds(bounds, [0], dominant_clusters(parts, 1))
    assert out.get(0, 0) == single(1.0, 2.0)


def test_final_bounds_empty_intersection_reverts_with_note():
    ds = Dataset(np.array([[1.0], [1.1], [1.2], [9.0]]),
                 np.zeros(4, dtype=int), ("a",), ("f0",))
    parts = segment_by_class(ds)
    shifted = single_interval_bounds([[(5.0, 6.0)]])   # disjoint from the data
    out = final_bounds(shifted, [0], dominant_clusters(parts, 2))
    assert out.get(0, 0) == shifted.get(0, 0)
    assert any("reverted" in note for note in out.notes)


# -- synth_counts ----------------------------------------------------------------

@pytest.mark.parametrize("mu,base,expected", [
    ((10.0, 5.0), 10, [20, 10]),
    ((5.0, 5.0), 7, [7, 7]),
    ((0.0, 0.0), 5, [0, 0]),
    ((0.0, 5.0), 3, [3, 3]),          # clean class floors at the base count
    ((7.5, 5.0), 2, [3, 2]),          # 2 * 1.5 rounds half up
    ((20.0, 10.0, 5.0), 4, [16, 8, 4]),
])
def test_synth_counts(mu, base, expected):
    assert synth_counts(mu, base).tolist() == expected


def test_synth_counts_validation():
    with pytest.raises(ValueError):
        synth_counts([-1.0, 2.0], 5)
    with pytest.raises(ValueError):
        synth_counts([1.0], 0)


# -- sample_synthetic -------------------------------------------------------------

def test_sample_synthetic_point_intervals():
    sets = [single(2.0, 2.0), single(-1.0, -1.0)]
    rows = sample_synthetic(sets, 5, substream(0, "s"))
    assert np.array_equal(rows, np.tile([2.0, -1.0], (5, 1)))


def test_sample_synthetic_length_weighted_union():
    sets = [IntervalSet((Interval(0.0, 1.0), Interval(9.0, 10.0)))]
    rows = sample_synthetic(sets, 10_000, substream(1, "u"))
    frac_low = float(np.mean(rows[:, 0] <= 1.0))
    assert 0.45 < frac_low < 0.55


def test_sample_synthetic_containment():
    sets = [IntervalSet((Interval(0.0, 1.0), Interval(4.0, 6.0))),
            single(-2.0, -1.0)]
    rows = sample_synthetic(sets, 500, substream(2, "c"))
    assert all(contains(sets[0], v) for v in rows[:, 0])
    assert all(contains(sets[1], v) for v in rows[:, 1])


def per_feature_sample(bounds_i, count, rng):
    """Reference: each feature in turn draws `choice(p=length weights)`
    then `uniform(0, 1)` from the shared stream."""
    out = np.empty((count, len(bounds_i)))
    for f, s in enumerate(bounds_i):
        lengths = np.array([iv.length for iv in s.intervals])
        total = lengths.sum()
        weights = (lengths / total if total > 0
                   else np.full(len(lengths), 1.0 / len(lengths)))
        picks = rng.choice(len(lengths), size=count, p=weights)
        u = rng.uniform(0.0, 1.0, size=count)
        out[:, f] = np.array([iv.lo for iv in s.intervals])[picks] + u * lengths[picks]
    return out


def test_sample_synthetic_is_the_per_feature_draw_bit_for_bit():
    rng = substream(81, "block")
    for trial in range(300):
        sets = []
        for _ in range(int(rng.integers(1, 6))):
            m = int(rng.integers(1, 4))
            edges = np.sort(rng.uniform(-5.0, 5.0, size=2 * m))
            if rng.random() < 0.2:
                edges[1::2] = edges[0::2]          # every interval a point
            elif rng.random() < 0.2:
                edges[1] = edges[0]                # one point among intervals
            sets.append(IntervalSet(tuple(Interval(float(edges[i]), float(edges[i + 1]))
                                          for i in range(0, 2 * m, 2))))
        count = int(rng.integers(0, 50))
        got = sample_synthetic(sets, count, substream(trial, "s"))
        want = per_feature_sample(sets, count, substream(trial, "s"))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous


# -- minimize_redundancy -----------------------------------------------------------

def test_minimize_redundancy_halves_eight_rows():
    rng = substream(73, "m")
    rows = rng.uniform(-5, 5, size=(8, 2))
    kept = minimize_redundancy(rows, 0.5, seed=0)
    assert len(kept) == 4
    assert np.array_equal(kept, np.unique(kept))


def test_minimize_redundancy_zero_fraction_identity():
    rows = substream(74, "m0").uniform(size=(6, 2))
    assert minimize_redundancy(rows, 0.0, seed=0).tolist() == [0, 1, 2, 3, 4, 5]


def test_minimize_redundancy_separated_pairs():
    rows = np.array([[0.0, 0.0], [0.01, 0.0], [10.0, 10.0], [10.01, 10.0]])
    kept = minimize_redundancy(rows, 0.5, seed=1)
    assert len(kept) == 2
    assert {rows[i][0] < 5 for i in kept} == {True, False}


def test_minimize_redundancy_count_law():
    rng = substream(75, "law")
    for _ in range(30):
        m = int(rng.integers(1, 30))
        x = float(rng.uniform(0, 0.95))
        rows = rng.uniform(size=(m, 3))
        kept = minimize_redundancy(rows, x, seed=int(rng.integers(1000)))
        expected = max(1, int(np.floor(m * (1 - x) + 0.5)))
        assert len(kept) == expected
        assert set(kept.tolist()) <= set(range(m))


def test_minimize_redundancy_keeps_each_value_when_too_few_distinct():
    # two distinct values for k = 4 clusters: k-means left clusters empty
    rows = np.array([[0.0, 0.0]] * 6 + [[1.0, 0.0]] * 2)
    for seed in range(5):
        assert minimize_redundancy(rows, 0.5, seed).tolist() == [0, 6]


def test_minimize_redundancy_duplicate_sweep_one_row_per_value():
    rng = substream(76, "dups")
    for _ in range(40):
        values = rng.integers(0, 3, size=(int(rng.integers(1, 6)), 2)).astype(float)
        rows = values[rng.integers(len(values), size=int(rng.integers(2, 16)))]
        x = float(rng.uniform(0, 0.95))
        k = max(1, int(np.floor(len(rows) * (1 - x) + 0.5)))
        _, first = np.unique(rows, axis=0, return_index=True)
        kept = minimize_redundancy(rows, x, seed=int(rng.integers(1000)))
        if k >= len(rows):
            assert kept.tolist() == list(range(len(rows)))
        elif len(first) <= k:
            assert kept.tolist() == sorted(first.tolist())
        else:
            assert len(kept) == k
            assert len(np.unique(rows[kept], axis=0)) == k


# -- validate_synthetic -------------------------------------------------------------

def test_validate_copy_passes():
    rows = substream(77, "v").normal(size=(30, 3))
    report = validate_synthetic(rows.copy(), pearson_corr(rows), t=1.0)
    assert report.passed and report.corr_diff == pytest.approx(0.0)


def test_validate_decorrelated_fails():
    rng = substream(78, "vd")
    x = rng.normal(size=50)
    original = np.column_stack([x, 2 * x])                     # rho = 1
    synth = np.column_stack([rng.normal(size=50), rng.normal(size=50)])
    report = validate_synthetic(synth, pearson_corr(original), t=50.0)
    assert not report.passed
    assert report.corr_diff > 50.0


def test_validate_flagged_columns_excluded():
    rng = substream(79, "vf")
    x = rng.normal(size=40)
    original = np.column_stack([x, x * 0.5, np.full(40, 3.0)])
    synth = np.column_stack([rng.normal(size=40) * 0 + original[:, 0],
                             original[:, 1],
                             rng.normal(size=40)])   # constant column replaced
    report = validate_synthetic(synth, pearson_corr(original), t=5.0)
    # only the (0,1) pair is comparable; it is identical
    assert report.passed and report.corr_diff == pytest.approx(0.0)


def test_validate_too_few_rows_auto_fails():
    original = substream(80, "vr").normal(size=(20, 2))
    report = validate_synthetic(original[:1], pearson_corr(original), t=99.0)
    assert not report.passed
    assert math.isinf(report.corr_diff)
    assert "need >= 2" in report.diagnostic


def double_loop_corr_diff(a, b):
    """Reference: the largest relative coefficient change over the pairs
    p < q that no zero-variance column touches."""
    ca, cb = pearson_corr(a), pearson_corr(b)
    skip = ca.zero_variance_flags | cb.zero_variance_flags
    worst = 0.0
    for p in range(a.shape[1]):
        for q in range(p + 1, a.shape[1]):
            if skip[p] or skip[q]:
                continue
            denom = max(abs(ca.coefficients[p, q]), 0.1)
            worst = max(worst, abs(cb.coefficients[p, q] - ca.coefficients[p, q])
                        / denom * 100.0)
    return worst


def test_corr_diff_equals_the_double_loop():
    rng = substream(83, "corr")
    for trial in range(300):
        d = int(rng.integers(1, 7))
        a = rng.normal(size=(int(rng.integers(2, 30)), d))
        b = rng.normal(size=(int(rng.integers(2, 30)), d))
        for m in (a, b):
            m[:, rng.random(d) < 0.2] = 3.0                 # zero-variance columns
        assert _corr_diff(pearson_corr(a), b) == double_loop_corr_diff(a, b)
    assert _corr_diff(pearson_corr(np.ones((3, 2))), np.ones((3, 2))) == 0.0


# -- diversify pipeline --------------------------------------------------------------

def blobs():
    return make_toy_blobs(per_class=12, centers=[[0.0, 0.0], [8.0, 8.0]],
                          spread=1.0, seed=21)


def test_diversify_delete_only_halves_classes():
    ds = blobs()
    cfg = DiversifyConfig(top_k=1, removal_fraction=0.5)
    out = diversify(ds, fake_probe([10.0, 5.0]), cfg, seed=0, mode="delete_only")
    assert out.dataset.class_counts().tolist() == [6, 6]
    assert not out.dataset.synthetic.any()
    assert out.chi.tolist() == [0, 0]
    assert out.validation.passed


def test_diversify_synth_only_appends_planned_counts():
    ds = blobs()
    cfg = DiversifyConfig(top_k=1, corr_threshold=1e6)
    out = diversify(ds, fake_probe([10.0, 5.0]), cfg, seed=0, mode="synth_only")
    # the least misclassified class gets the minority count, the other twice it
    minority = int(ds.class_counts().min())
    assert out.chi.tolist() == [2 * minority, minority]
    synth_mask = out.dataset.synthetic
    assert synth_mask.sum() == 3 * minority
    counts = np.bincount(out.dataset.labels[synth_mask], minlength=2)
    assert counts.tolist() == [2 * minority, minority]
    # originals all retained in synth_only mode
    assert (~synth_mask).sum() == ds.n


def test_diversify_full_mode_count_law():
    ds = blobs()
    cfg = DiversifyConfig(top_k=1, removal_fraction=0.25, corr_threshold=1e6)
    probe = fake_probe([10.0, 5.0])
    out = diversify(ds, probe, cfg, seed=5)
    chi = out.chi
    minority = int(ds.class_counts().min())
    assert chi.tolist() == [2 * minority, minority]
    for c in range(2):
        combined = 12 + chi[c]
        expected = max(1, int(np.floor(combined * 0.75 + 0.5)))
        assert out.dataset.class_counts()[c] == expected
        assert out.removed_per_class[c] == combined - expected


def test_diversify_synthetics_inside_final_bounds():
    ds = blobs()
    cfg = DiversifyConfig(top_k=2, corr_threshold=1e6)
    out = diversify(ds, fake_probe([20.0, 10.0], delta_x_max=0.05), cfg, seed=9,
                    mode="synth_only")
    synth_mask = out.dataset.synthetic
    for row, label in zip(out.dataset.features[synth_mask],
                          out.dataset.labels[synth_mask]):
        for f, v in enumerate(row):
            assert contains(out.bounds.get(int(label), f), v, tol=1e-12)


def test_diversify_no_misclassification_no_synthesis():
    ds = blobs()
    cfg = DiversifyConfig(top_k=1, corr_threshold=10.0)
    out = diversify(ds, fake_probe([0.0, 0.0]), cfg, seed=0, mode="synth_only")
    assert out.chi.tolist() == [0, 0]
    assert out.dataset.n == ds.n
    assert out.validation.passed
    assert out.validation.attempts_made == out.validation.best_attempt == 0


def test_diversify_deterministic():
    ds = blobs()
    cfg = DiversifyConfig(top_k=1, removal_fraction=0.3, corr_threshold=200.0)
    a = diversify(ds, fake_probe([12.0, 6.0], 0.02), cfg, seed=11)
    b = diversify(ds, fake_probe([12.0, 6.0], 0.02), cfg, seed=11)
    assert np.array_equal(a.dataset.features, b.dataset.features)
    assert np.array_equal(a.dataset.labels, b.dataset.labels)
    assert np.array_equal(a.dataset.synthetic, b.dataset.synthetic)
    assert a.validation.corr_diff == b.validation.corr_diff
    assert a.validation.attempts_made == b.validation.attempts_made
    assert a.validation.best_attempt == b.validation.best_attempt


def test_diversify_retry_exhaustion_reports_best_attempt():
    ds = blobs()
    cfg = DiversifyConfig(top_k=1, corr_threshold=0.001, max_retries=3)
    out = diversify(ds, fake_probe([10.0, 10.0]), cfg, seed=2, mode="synth_only")
    assert not out.validation.passed
    assert out.validation.attempts_made == 3
    assert 1 <= out.validation.best_attempt <= 3
    assert math.isfinite(out.validation.corr_diff)
    assert out.chi.tolist() == [int(ds.class_counts().min())] * 2
    assert out.dataset.synthetic.sum() == out.chi.sum()


def test_diversify_validation_report_is_truthful():
    ds = blobs()
    cfg = DiversifyConfig(top_k=1, corr_threshold=1e6)
    out = diversify(ds, fake_probe([10.0, 5.0]), cfg, seed=3, mode="synth_only")
    synth_mask = out.dataset.synthetic
    recheck = validate_synthetic(out.dataset.features[synth_mask], pearson_corr(ds.features),
                                 cfg.corr_threshold)
    assert recheck.corr_diff == pytest.approx(out.validation.corr_diff)
    assert recheck.passed == out.validation.passed


def test_diversify_top_k_exceeding_features():
    ds = blobs()
    cfg = DiversifyConfig(top_k=5)
    with pytest.raises(ValueError, match="top_k"):
        diversify(ds, fake_probe([1.0, 1.0]), cfg, seed=0)


def test_config_validation():
    with pytest.raises(ValueError):
        DiversifyConfig(top_k=0)
    with pytest.raises(ValueError):
        DiversifyConfig(top_k=1, removal_fraction=1.0)
    with pytest.raises(ValueError):
        DiversifyConfig(top_k=1, corr_threshold=0.0)
    with pytest.raises(ValueError):
        DiversifyConfig(top_k=1, clusters=0)
    with pytest.raises(ValueError, match="unknown mode 'everything'"):
        diversify(blobs(), fake_probe([1.0, 1.0]), DiversifyConfig(top_k=1), seed=0,
                  mode="everything")


def test_diversify_report_serialization(tmp_path):
    ds = blobs()
    cfg = DiversifyConfig(top_k=1, corr_threshold=1e6)
    out = diversify(ds, fake_probe([10.0, 5.0], 0.03), cfg, seed=7)
    path = tmp_path / "report.json"
    save_diversify_report(out, path)
    doc = json.loads(path.read_text())
    assert doc["chi"] == out.chi.tolist()
    assert doc["validation"]["passed"] == out.validation.passed
    assert len(doc["bounds"]["per_class"]) == 2
    round_tripped = doc["bounds"]["per_class"][0][0]
    assert round_tripped == out.bounds.get(0, 0).to_json()


def test_bounds_json_includes_names():
    bounds = single_interval_bounds([[(0.0, 1.0)], [(2.0, 3.0)]])
    doc = bounds_to_json(bounds, class_names=["a", "b"], feature_names=["f0"])
    assert doc["class_names"] == ["a", "b"]
    assert doc["per_class"][1][0] == [[2.0, 3.0]]
