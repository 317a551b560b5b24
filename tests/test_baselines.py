"""Resampler tests: RUS, ROS, SMOTE, ADASYN."""

import sys
import tracemalloc

import numpy as np
import pytest

from biasdiv import numerics
from biasdiv.baselines import (
    ResamplePlan,
    _nearest,
    adasyn,
    resample,
    ros,
    rus,
    smote,
)
from biasdiv.data import Dataset
from biasdiv.errors import InfeasibleError, NeighborError
from biasdiv.numerics import substream


def imbalanced(n0=27, n1=11, c0=(0.0, 0.0), c1=(4.0, 4.0), spread=1.0, seed=0):
    rng = substream(seed, "fixture")
    f0 = np.asarray(c0) + rng.uniform(-spread, spread, size=(n0, 2))
    f1 = np.asarray(c1) + rng.uniform(-spread, spread, size=(n1, 2))
    return Dataset(np.vstack([f0, f1]),
                   np.array([0] * n0 + [1] * n1),
                   ("big", "small"), ("f0", "f1"))


def rows_as_set(features):
    return {tuple(row) for row in features}


# -- plan validation -----------------------------------------------------------

def test_plan_validation():
    with pytest.raises(ValueError):
        ResamplePlan("nonsense")
    with pytest.raises(ValueError):
        ResamplePlan("rus_fraction")            # missing fraction
    with pytest.raises(ValueError):
        ResamplePlan("rus_fraction", fraction=1.0)
    with pytest.raises(ValueError):
        ResamplePlan("smote", k_neighbors=0)
    with pytest.raises(ValueError):
        ResamplePlan("adasyn", balance=0.0)
    ResamplePlan("rus_fraction", fraction=0.25)  # valid


# -- RUS -------------------------------------------------------------------------

def test_rus_equalize_to_minority():
    ds = imbalanced(27, 11)
    out = rus(ds, ResamplePlan("rus_equalize"), seed=1)
    assert out.class_counts().tolist() == [11, 11]
    assert rows_as_set(out.features) <= rows_as_set(ds.features)
    assert not out.synthetic.any()


def test_rus_fraction_quarter():
    ds = imbalanced(40, 40)
    # three equal classes would mirror the flower set; two suffice for counts
    out = rus(ds, ResamplePlan("rus_fraction", fraction=0.25), seed=2)
    assert out.class_counts().tolist() == [30, 30]


def test_rus_fraction_zero_identity():
    ds = imbalanced(10, 6)
    out = rus(ds, ResamplePlan("rus_fraction", fraction=0.0), seed=3)
    assert np.array_equal(out.features, ds.features)
    assert np.array_equal(out.labels, ds.labels)


def test_rus_never_empties_a_class():
    ds = imbalanced(3, 2)
    out = rus(ds, ResamplePlan("rus_fraction", fraction=0.9), seed=4)
    assert out.class_counts().min() >= 1


def test_rus_deterministic():
    ds = imbalanced()
    a = rus(ds, ResamplePlan("rus_equalize"), seed=5)
    b = rus(ds, ResamplePlan("rus_equalize"), seed=5)
    assert np.array_equal(a.features, b.features)


def test_rus_rejects_wrong_plan():
    with pytest.raises(ValueError):
        rus(imbalanced(), ResamplePlan("ros"), seed=0)


# -- ROS -------------------------------------------------------------------------

def test_ros_equalizes_with_flagged_replicas():
    ds = imbalanced(27, 11)
    out = ros(ds, seed=1)
    assert out.class_counts().tolist() == [27, 27]
    synth = out.synthetic
    assert synth.sum() == 16
    assert np.all(out.labels[synth] == 1)
    originals = rows_as_set(ds.features[ds.labels == 1])
    for row in out.features[synth]:
        assert tuple(row) in originals


def test_ros_identity_when_balanced():
    ds = imbalanced(8, 8)
    out = ros(ds, seed=2)
    assert out.n == ds.n
    assert not out.synthetic.any()


def test_ros_deterministic():
    ds = imbalanced()
    assert np.array_equal(ros(ds, seed=7).features, ros(ds, seed=7).features)


# -- SMOTE -----------------------------------------------------------------------

def test_smote_count_arithmetic():
    ds = imbalanced(27, 11)
    out = smote(ds, k=5, seed=1)
    assert out.class_counts().tolist() == [27, 27]
    assert out.synthetic.sum() == 16


def test_smote_minority_too_small():
    ds = imbalanced(10, 4)
    with pytest.raises(NeighborError, match="lower k"):
        smote(ds, k=5, seed=0)


def test_smote_synthetics_on_same_class_segments():
    ds = imbalanced(30, 9, c1=(2.0, -3.0))
    out = smote(ds, k=4, seed=3)
    minority = ds.features[ds.labels == 1]
    synth_rows = out.features[out.synthetic]
    for row in synth_rows:
        # inside the minority bounding box (implied by segment interpolation)
        assert np.all(row >= minority.min(axis=0) - 1e-12)
        assert np.all(row <= minority.max(axis=0) + 1e-12)
        # on a segment between two originals: collinearity in 2-D
        found = False
        for a in range(len(minority)):
            for b in range(len(minority)):
                if a == b:
                    continue
                p, q = minority[a], minority[b]
                seg = q - p
                t_num = row - p
                cross = seg[0] * t_num[1] - seg[1] * t_num[0]
                if abs(cross) < 1e-9:
                    t = (t_num @ seg) / (seg @ seg)
                    if -1e-12 <= t <= 1 + 1e-12:
                        found = True
                        break
            if found:
                break
        assert found


def test_smote_deterministic():
    ds = imbalanced()
    a = smote(ds, k=5, seed=9)
    b = smote(ds, k=5, seed=9)
    assert np.array_equal(a.features, b.features)


# -- ADASYN ----------------------------------------------------------------------

def test_adasyn_separated_classes_infeasible():
    ds = imbalanced(20, 8, c0=(0.0, 0.0), c1=(50.0, 50.0), spread=1.0)
    with pytest.raises(InfeasibleError, match="not suited"):
        adasyn(ds, k=5, seed=0)


def test_adasyn_hard_point_takes_all_synthetics():
    # minority: two easy points far from the majority, one hard point near it
    majority = np.array([[10.0, 10.0], [10.5, 10.0], [10.0, 10.5],
                         [10.5, 10.5], [10.2, 10.2]])
    minority = np.array([[0.0, 0.0], [0.5, 0.0], [8.5, 8.5]])
    ds = Dataset(np.vstack([majority, minority]),
                 np.array([0] * 5 + [1] * 3),
                 ("maj", "min"), ("f0", "f1"))
    out = adasyn(ds, k=2, seed=1)
    assert out.class_counts().tolist() == [5, 5]
    synth = out.features[out.synthetic]
    assert len(synth) == 2
    hard = minority[2]
    # every synthetic interpolates from the hard point toward a same-class
    # neighbour, so it sits on a segment starting at the hard point
    for row in synth:
        t = None
        for nb in (minority[0], minority[1]):
            seg = nb - hard
            cross = seg[0] * (row - hard)[1] - seg[1] * (row - hard)[0]
            if abs(cross) < 1e-9:
                t = ((row - hard) @ seg) / (seg @ seg)
        assert t is not None and -1e-12 <= t <= 1 + 1e-12


def test_adasyn_equalizes_on_overlapping_classes():
    ds = imbalanced(25, 10, c0=(0.0, 0.0), c1=(1.0, 0.5), spread=1.5)
    out = adasyn(ds, k=5, seed=2)
    assert out.class_counts().tolist() == [25, 25]
    # synthetics stay inside the minority bounding box
    minority = ds.features[ds.labels == 1]
    synth = out.features[out.synthetic]
    assert np.all(synth >= minority.min(axis=0) - 1e-12)
    assert np.all(synth <= minority.max(axis=0) + 1e-12)


def test_adasyn_minority_too_small():
    ds = imbalanced(12, 4, c1=(1.0, 1.0))
    with pytest.raises(NeighborError):
        adasyn(ds, k=5, seed=0)


def test_adasyn_deterministic():
    ds = imbalanced(25, 10, c0=(0.0, 0.0), c1=(1.5, 1.0), spread=1.5)
    a = adasyn(ds, k=5, seed=3)
    b = adasyn(ds, k=5, seed=3)
    assert np.array_equal(a.features, b.features)


def test_adasyn_partial_balance():
    ds = imbalanced(25, 10, c0=(0.0, 0.0), c1=(1.0, 0.5), spread=1.5)
    out = adasyn(ds, k=5, seed=4, balance=0.5)
    # half the deficit: 10 + round(15 * 0.5) = 18
    assert out.class_counts().tolist() == [25, 18]


# -- distances in row blocks ----------------------------------------------------

def tied_set():
    """Two overlapping classes whose rows come in exact duplicates, so many
    neighbour distances tie and the index tie-break decides the order."""
    rng = substream(5, "tied")
    f0 = np.repeat(rng.normal(size=(15, 3)), 3, axis=0)
    f1 = np.repeat(rng.normal(0.5, 1.0, size=(6, 3)), 3, axis=0)
    f1[:3] = f0[:3]                       # rows shared across the classes
    return Dataset(np.vstack([f0, f1]), np.array([0] * 45 + [1] * 18),
                   ("big", "small"), ("f0", "f1", "f2"))


def test_neighbours_and_resamplers_do_not_depend_on_the_block_size(monkeypatch):
    ds = tied_set()
    minority = np.flatnonzero(ds.labels == 1)
    outputs = []
    for cap in (1, sys.maxsize):      # one query row per block, then all rows
        monkeypatch.setattr(numerics, "_BLOCK_FLOATS", cap)
        outputs.append((_nearest(ds.features[minority], ds.features, minority, 7),
                        smote(ds, k=5, seed=3).features,
                        adasyn(ds, k=5, seed=3).features))
    for one_row, all_rows in zip(*outputs):
        assert one_row.tobytes() == all_rows.tobytes()
    # each minority row's nearest neighbours start with its exact copies,
    # lowest pool index first
    nn = outputs[0][0]
    for i, row in enumerate(minority):
        copies = [r for r in range(ds.n) if r != row
                  and np.array_equal(ds.features[r], ds.features[row])]
        assert nn[i, :len(copies)].tolist() == copies


def test_neighbour_distance_memory_is_bounded():
    # 1000 rows of 32 features: ADASYN's difficulty search over the full
    # set would build a 200 x 1000 x 32 difference array, 51 MB
    rng = substream(53, "memory")
    ds = Dataset(np.vstack([rng.normal(size=(800, 32)),
                            rng.normal(0.3, 1.0, size=(200, 32))]),
                 np.array([0] * 800 + [1] * 200), ("big", "small"),
                 tuple(f"f{i}" for i in range(32)))
    tracemalloc.start()
    try:
        adasyn(ds, k=5, seed=0)
        smote(ds, k=5, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


# -- dispatcher --------------------------------------------------------------------

def test_resample_dispatch():
    ds = imbalanced(20, 10, c1=(1.0, 1.0), spread=1.5)
    assert resample(ds, ResamplePlan("rus_equalize"), 0).class_counts().tolist() == [10, 10]
    assert resample(ds, ResamplePlan("ros"), 0).class_counts().tolist() == [20, 20]
    assert resample(ds, ResamplePlan("smote"), 0).class_counts().tolist() == [20, 20]
    assert resample(ds, ResamplePlan("adasyn"), 0).class_counts().tolist() == [20, 20]


@pytest.mark.parametrize("method", ["rus_equalize", "ros", "smote", "adasyn"])
def test_single_class_is_infeasible(method):
    # a resampler with no second class to balance against cannot apply at
    # all, which the harness records as an infeasible leg
    ds = Dataset(substream(0, "fixture").uniform(size=(12, 2)), np.zeros(12, dtype=int),
                 ("only",), ("f0", "f1"))
    with pytest.raises(InfeasibleError, match="at least 2 classes"):
        resample(ds, ResamplePlan(method), 0)
