"""End-to-end acceptance checks, one test per shipped guarantee.

The suite pins: the two bundled experiment configs (directional effects of
the resampling baselines versus the diversification pipeline), the > 0.90
accuracy gate on every trained network, the bias-score oracle, the interval
laws behind bound relaxation and overlap tightening, the clustering and
gradient numerics, and dataset-level pipeline laws including bit-identical
report emission.

The leukemia checks run against user-supplied CSVs and are skipped with a
notice when the BIASDIV_LEUKEMIA_TRAIN / BIASDIV_LEUKEMIA_TEST environment
variables are unset.
"""

import itertools
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from biasdiv.baselines import adasyn
from biasdiv.data import Dataset, make_toy_blobs, save_csv
from biasdiv.diversify import (ClassBounds, DiversifyConfig, diversify,
                               minimize_redundancy, tighten_overlaps)
from biasdiv.errors import InfeasibleError
from biasdiv.harness import (ABLATION_APPROACHES, emit_report,
                             load_experiment_config, parse_experiment_config,
                             run_experiment)
from biasdiv.mlp import MlpSpec, init_mlp
from biasdiv.numerics import (Interval, IntervalSet, kmeans, relax_interval,
                              round_half_up, substream)
from biasdiv.probe import Counterexamples, ProbeReport, compute_bias
from test_mlp import cross_entropy_loss, input_gradient
from test_numerics import contains, interiors_disjoint, is_subset_of, single

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"

EXACT_TOL = 1e-12          # bias-score oracle and worked interval cases
GRADIENT_RTOL = 1e-4       # analytic vs central-difference gradients
RUNTIME_BUDGET = 300.0     # seconds per bundled experiment

LEUKEMIA_VARS = ("BIASDIV_LEUKEMIA_TRAIN", "BIASDIV_LEUKEMIA_TEST")
LEUKEMIA_NOTICE = ("leukemia CSVs not configured; set BIASDIV_LEUKEMIA_TRAIN "
                   "and BIASDIV_LEUKEMIA_TEST to run this check")


def _leukemia_available():
    return all(os.environ.get(v) for v in LEUKEMIA_VARS)


_LEUKEMIA_CACHE = {}


def _leukemia_run():
    """Run the bundled leukemia experiment once and reuse the report."""
    if "report" not in _LEUKEMIA_CACHE:
        cfg = load_experiment_config(CONFIGS / "leukemia.json")
        t0 = time.perf_counter()
        _LEUKEMIA_CACHE["report"] = run_experiment(cfg)
        _LEUKEMIA_CACHE["elapsed"] = time.perf_counter() - t0
    return _LEUKEMIA_CACHE["report"], _LEUKEMIA_CACHE["elapsed"]


def _assert_accuracy_gate(report):
    for leg in report.legs:
        if leg.infeasible:
            continue
        key = (leg.approach, leg.repeat)
        assert leg.train_accuracy > 0.90, (key, leg.train_accuracy)
        assert leg.test_accuracy > 0.90, (key, leg.test_accuracy)
        assert not leg.accuracy_flag, key


# 1. leukemia: diversification reduces the measured bias ----------------------

def test_leukemia_diversification_reduces_bias():
    if not _leukemia_available():
        pytest.skip(LEUKEMIA_NOTICE)
    report, elapsed = _leukemia_run()
    agg = report.aggregates
    orig, div = agg["original"].mean, agg["diversified"].mean
    assert orig is not None and div is not None
    assert div < orig, (div, orig)
    assert (orig - div) / orig >= 0.10, (div, orig)
    assert elapsed < RUNTIME_BUDGET


# 2. iris: oversamplers inflate bias, diversification stays close -------------

def test_iris_oversamplers_inflate_bias_diversified_stays_close(iris_run):
    report, elapsed = iris_run
    agg = report.aggregates
    orig = agg["original"].mean
    assert orig is not None
    assert agg["ros"].mean > orig, (agg["ros"].mean, orig)
    assert agg["smote"].mean > orig, (agg["smote"].mean, orig)
    assert abs(agg["diversified"].mean - orig) <= 0.25
    assert elapsed < RUNTIME_BUDGET


# 3. every trained network clears the accuracy gate ----------------------------

def test_trained_networks_clear_accuracy_gate(iris_run):
    report, _ = iris_run
    _assert_accuracy_gate(report)
    if _leukemia_available():
        leukemia_report, _ = _leukemia_run()
        _assert_accuracy_gate(leukemia_report)


# 4. bias-score oracle ---------------------------------------------------------

def test_bias_score_oracle_worked_and_randomized():
    # counts chosen to hit the worked per-class ratios exactly
    _, _, b = compute_bias([2, 2, 2], [10, 10, 10])      # R = (0.2, 0.2, 0.2)
    assert abs(b - 0.0) <= EXACT_TOL
    _, _, b = compute_bias([5, 1], [10, 10])             # R = (0.5, 0.1)
    assert abs(b - 0.4) <= EXACT_TOL
    _, _, b = compute_bias([6, 1, 2], [10, 10, 10])      # R = (0.6, 0.1, 0.2)
    assert abs(b - 0.45) <= EXACT_TOL

    rng = np.random.default_rng(41)
    for _ in range(1000):
        L = int(rng.integers(1, 7))
        m = rng.integers(0, 50, size=L)
        c = rng.integers(1, 50, size=L)
        R, mu, b = compute_bias(m, c)
        ratios = [mi / ci for mi, ci in zip(m.tolist(), c.tolist())]
        if L == 1:
            expected = 0.0
        else:
            expected = max(
                abs(ratios[i] - sum(ratios[j] for j in range(L) if j != i)
                    / (L - 1))
                for i in range(L))
        assert abs(b - expected) <= EXACT_TOL
        for mi, ci, ri, ui in zip(m.tolist(), c.tolist(), R, mu):
            assert abs(ri - mi / ci) <= EXACT_TOL
            assert abs(ui - 100.0 * mi / (mi + ci)) <= EXACT_TOL


# 5. interval laws: relaxation and overlap tightening --------------------------

def _single_bounds(per_class):
    return ClassBounds(tuple(
        tuple(single(lo, hi) for lo, hi in cls)
        for cls in per_class))


def test_interval_relaxation_and_overlap_tightening_laws():
    # worked relaxation case: [2, 8] widened by 1 is exactly [1, 9]
    assert relax_interval(Interval(2.0, 8.0), 1.0) == Interval(1.0, 9.0)

    rng = np.random.default_rng(53)
    for _ in range(10_000):
        lo = float(rng.uniform(-50.0, 50.0))
        hi = lo + float(rng.uniform(0.0, 30.0))
        d1 = float(rng.uniform(0.0, 10.0))
        d2 = d1 + float(rng.uniform(0.0, 10.0))
        r1 = relax_interval(Interval(lo, hi), d1)
        r2 = relax_interval(Interval(lo, hi), d2)
        assert r1.lo <= lo and hi <= r1.hi               # containment
        assert r2.lo <= r1.lo and r1.hi <= r2.hi         # monotone in delta
        assert abs(r1.lo - (lo - d1)) <= EXACT_TOL
        assert abs(r1.hi - (hi + d1)) <= EXACT_TOL

    # worked tightening cases: partial overlap and complete containment
    out = tighten_overlaps(_single_bounds([[(2.0, 8.0)], [(7.0, 10.0)]]))
    assert out.get(0, 0) == single(2.0, 7.0)
    assert out.get(1, 0) == single(8.0, 10.0)
    out = tighten_overlaps(_single_bounds([[(0.0, 10.0)], [(4.0, 6.0)]]))
    assert out.get(0, 0) == IntervalSet((Interval(0.0, 4.0),
                                         Interval(6.0, 10.0)))
    assert out.get(1, 0) == single(4.0, 6.0)

    for trial in range(10_000):
        rng = substream(59, "tighten", trial)
        lo_a = float(rng.uniform(-20.0, 20.0))
        lo_b = float(rng.uniform(-20.0, 20.0))
        bounds = _single_bounds([
            [(lo_a, lo_a + float(rng.uniform(0.0, 10.0)))],
            [(lo_b, lo_b + float(rng.uniform(0.0, 10.0)))],
        ])
        out = tighten_overlaps(bounds)
        sa, sb = out.get(0, 0), out.get(1, 0)
        assert is_subset_of(sa, bounds.get(0, 0))         # only ever shrinks
        assert is_subset_of(sb, bounds.get(1, 0))
        if any(n.startswith("tightened") for n in out.notes):
            assert interiors_disjoint(sa, sb)


# 6. k-means matches brute force on small fixtures -----------------------------

def _brute_force_inertia(points, k):
    n = len(points)
    assignments = np.array(list(itertools.product(range(k), repeat=n)))
    total = np.zeros(len(assignments))
    for c in range(k):
        member = (assignments == c).astype(float)        # (K, n)
        count = np.maximum(member.sum(axis=1), 1.0)
        centroid = (member @ points) / count[:, None]    # (K, d)
        dist2 = ((points[None, :, :] - centroid[:, None, :]) ** 2).sum(-1)
        total += (member * dist2).sum(axis=1)
    return float(total.min())


def test_kmeans_matches_brute_force_and_inertia_monotone():
    rng = np.random.default_rng(67)
    hits = 0
    for trial in range(100):
        n = int(rng.integers(2, 9))
        k = min(int(rng.integers(1, 4)), n)
        points = rng.uniform(-5.0, 5.0, size=(n, 2))
        res = kmeans(points, k, seed=trial)
        # the inertia after each iteration, from runs cut after i iterations
        trace = [kmeans(points, k, seed=trial, restarts=1, max_iter=i).inertia
                 for i in range(1, 11)]
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
        if res.inertia <= _brute_force_inertia(points, k) + 1e-9:
            hits += 1
    assert hits >= 95, hits


# 7. analytic input gradients match finite differences -------------------------

def _rel_err(a, b):
    denom = max(abs(a), abs(b))
    if denom < 1e-7:
        return 0.0
    return abs(a - b) / denom


def test_input_gradients_match_finite_differences():
    h = 1e-5
    checked = 0
    for trial in range(200):
        rng = substream(71, "grad", trial)
        sizes = (3, int(rng.integers(2, 6)), int(rng.integers(2, 5)), 3)
        net = init_mlp(MlpSpec(sizes, init_seed=trial))
        x = rng.normal(size=3)
        # skip fixtures near a ReLU kink where the loss is not differentiable
        a, kink = x[None, :], False
        for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
            z = a @ w.T + b
            if layer < len(net.weights) - 1:
                if np.abs(z).min() < 1e-3:
                    kink = True
                a = np.maximum(z, 0.0)
        if kink:
            continue
        y = int(rng.integers(3))
        analytic = input_gradient(net, x, y)
        for j in range(3):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            numeric = (cross_entropy_loss(net, xp[None, :], np.array([y]))
                       - cross_entropy_loss(net, xm[None, :], np.array([y]))
                       ) / (2 * h)
            assert _rel_err(analytic[j], numeric) < GRADIENT_RTOL
        checked += 1
        if checked >= 20:
            break
    assert checked >= 20


# 8. pipeline dataset laws and bit-identical reports ---------------------------

def test_synthetic_rows_stay_inside_final_bounds():
    train = make_toy_blobs(12, ((0.0, 0.0), (3.0, 3.0)), 0.7, seed=11)
    probe = ProbeReport(
        delta_x_max=0.3,
        R=np.array([0.4, 0.1]),
        mu=np.array([30.0, 10.0]),
        b_r=0.3,
        counterexamples=Counterexamples((), (), (), None),   # none, and nothing reads them
        per_level_misclassification={},
        probed_per_class=np.array([12, 12]),
        variants_per_class=np.array([120, 120]),
    )
    cfg = DiversifyConfig(top_k=2, max_retries=5)
    out = diversify(train, probe, cfg, seed=3)
    ds = out.dataset
    assert ds.synthetic.any()
    for row, label in zip(ds.features[ds.synthetic], ds.labels[ds.synthetic]):
        for f in range(ds.d):
            assert contains(out.bounds.get(int(label), f), float(row[f]),
                            tol=1e-9)


def test_redundancy_removal_keeps_exact_row_count():
    rng = np.random.default_rng(89)
    for _ in range(200):
        m = int(rng.integers(1, 40))
        x = float(rng.uniform(0.0, 1.0))
        rows = rng.normal(size=(m, 3))
        keep = minimize_redundancy(rows, x, seed=int(rng.integers(2 ** 31)))
        assert len(keep) == max(1, round_half_up(m * (1.0 - x)))
        assert len(set(keep.tolist())) == len(keep)


def test_adasyn_rejects_fully_separated_classes():
    blobs = make_toy_blobs(10, ((0.0, 0.0), (50.0, 50.0)), 1.0, seed=13)
    minority = np.flatnonzero(blobs.labels == 1)[:4]
    idx = np.sort(np.concatenate([np.flatnonzero(blobs.labels == 0),
                                  minority]))
    ds = Dataset(blobs.features[idx], blobs.labels[idx], blobs.class_names,
                 blobs.feature_names)
    with pytest.raises(InfeasibleError, match="not suited"):
        adasyn(ds, k=3, seed=0)


def test_repeated_experiments_emit_bit_identical_reports(tmp_path):
    save_csv(make_toy_blobs(12, ((0.0, 0.0), (4.0, 4.0)), 0.8, seed=5),
             tmp_path / "blobs.csv")
    doc = {
        "dataset": {"csv": "blobs.csv", "label_column": "label",
                    "train_fraction": 0.75},
        "network": {"hidden": [8]},
        "schedule": {"phases": [[0.5, 60]]},
        "noise": {"levels": [0.02, 0.05, 0.1, 0.2, 0.3],
                  "samples_per_input": 6},
        "diversify": {"top_k": 2, "max_retries": 5},
        "baselines": {"subsample_fraction": 0.5,
                      "smote": {"k_neighbors": 2},
                      "adasyn": {"k_neighbors": 2}},
        "repeats": 2,
        "seed": 7,
    }
    cfg = parse_experiment_config(doc, base_dir=tmp_path)
    emit_report(run_experiment(cfg), tmp_path / "a")
    emit_report(run_experiment(cfg), tmp_path / "b")
    for name in ("report.csv", "runs.csv", "report.json", "boxplot.svg"):
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second, name


# 9. leukemia ablations: each half of the pipeline is at worst neutral ---------

def test_leukemia_ablations_do_not_increase_bias():
    if not _leukemia_available():
        pytest.skip(LEUKEMIA_NOTICE)
    cfg = load_experiment_config(CONFIGS / "leukemia.json")
    cfg = replace(cfg, approaches=ABLATION_APPROACHES)
    t0 = time.perf_counter()
    report = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    agg = report.aggregates
    orig = agg["original"].mean
    assert orig is not None
    assert agg["synth_only"].mean <= orig
    assert agg["delete_only"].mean <= orig
    assert elapsed < RUNTIME_BUDGET
