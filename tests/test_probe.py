"""Noise probe tests: perturbations, sweep bookkeeping, bias scoring."""

import csv
import io
import json
import multiprocessing
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biasdiv.data import Dataset, make_toy_blobs
from biasdiv.errors import BiasMetricError, ProbeError
from biasdiv.mlp import (Mlp, MlpSpec, TrainSchedule, init_mlp, input_gradients,
                         predict_batch, train)
from biasdiv.probe import (
    DEFAULT_LEVELS,
    _add_uniform,
    _Variants,
    Counterexamples,
    NoiseSpec,
    ProbeReport,
    compute_bias,
    feature_scales,
    format_level,
    noise_sweep,
    probe_report_to_json,
    save_probe_report,
    write_counterexamples_csv,
)
from biasdiv import forking
from biasdiv import probe as probe_module
from biasdiv.floattext import csv_rows, shortest_digits
from biasdiv.numerics import substream


# Per-input reference versions of the sweep's two perturbations; the sweep
# vectorizes both routes itself.

def apply_noise(x: np.ndarray, level: float, rng: np.random.Generator,
                scales: np.ndarray) -> np.ndarray:
    """Uniform L-inf noise: coordinate j moves by at most level * scales[j]."""
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    x = np.asarray(x, dtype=float)
    bound = level * np.asarray(scales, dtype=float)
    return x + rng.uniform(-bound, bound, size=x.shape)


def gradient_sign_attack(mlp: Mlp, x: np.ndarray, true_class: int, level: float,
                         scales: np.ndarray) -> np.ndarray:
    """Single-step gradient-sign perturbation at the given relative level."""
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    x = np.asarray(x, dtype=float)
    grad = input_gradients(mlp, x[None, :], np.array([true_class]))[0]
    return x + level * np.asarray(scales, dtype=float) * np.sign(grad)


def threshold_net(theta=0.615):
    """1-feature net: class 1 iff relu(x) > theta, class 0 otherwise."""
    spec = MlpSpec((1, 1, 2))
    return Mlp(spec,
               [np.array([[1.0]]), np.array([[0.0], [1.0]])],
               [np.zeros(1), np.array([0.0, -theta])])


def threshold_ds(x0=0.5):
    return Dataset(np.array([[x0], [2.0]]), np.array([0, 1]),
                   ("low", "high"), ("f0",))


def cex_columns(cex):
    """The counterexamples as five arrays: input index, true class,
    predicted class, level and noisy rows."""
    d = cex.variants.inputs.shape[1]
    blocks = list(cex.blocks())
    if not blocks:
        return [np.empty(0, dtype=np.intp)] * 3 + [np.empty(0), np.empty((0, d))]
    return [np.concatenate(column) for column in zip(*blocks)]


def cex_rows(cex):
    """Counterexamples as (input index, true class, predicted class, level,
    noisy row) tuples of Python values."""
    return list(zip(*(column.tolist() for column in cex_columns(cex))))


def exact_counterexamples(input_index, true_class, predicted_class, level, noisy):
    """Counterexamples whose rows are exactly `noisy`: each row is its own
    probed input, probed by the gradient-sign route alone with zero scales
    and negative signs, so its variant is `x + -0.0`, which is `x` for every
    float, -0.0 included. The rows come out sorted by level, stably."""
    level = np.asarray(level, dtype=float)
    order = np.argsort(level, kind="stable")
    noisy = np.asarray(noisy, dtype=float)[order]
    true_class = np.asarray(true_class)[order]
    predicted_class = np.asarray(predicted_class)[order]
    variants = _Variants(noisy, np.asarray(input_index)[order], true_class,
                         np.zeros_like(noisy), -np.ones_like(noisy), 0, len(noisy), None)
    levels = np.unique(level)
    at = [np.flatnonzero(level[order] == v) for v in levels]
    return Counterexamples(levels, at, [predicted_class[i] for i in at], variants)


# -- spec --------------------------------------------------------------------

def test_default_levels_grid():
    assert DEFAULT_LEVELS[0] == 0.01
    assert DEFAULT_LEVELS[-1] == 0.40
    assert len(DEFAULT_LEVELS) == 40
    diffs = np.diff(DEFAULT_LEVELS)
    assert np.allclose(diffs, 0.01)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(levels=())
    with pytest.raises(ValueError):
        NoiseSpec(levels=(0.0, 0.1))
    with pytest.raises(ValueError):
        NoiseSpec(levels=(0.2, 0.1))
    with pytest.raises(ValueError):
        NoiseSpec(samples_per_input=0)
    with pytest.raises(ValueError):
        NoiseSpec(attack="nonsense")


def test_counterexample_arrays_must_be_wrong():
    variants = _Variants(np.zeros((2, 3)), np.arange(2), np.array([0, 1]), np.ones((2, 3)),
                         np.ones((2, 3)), 0, 2, None)
    with pytest.raises(ValueError, match="misclassified"):
        Counterexamples([0.1], [[0, 1]], [[1, 1]], variants)
    with pytest.raises(ValueError, match="length"):
        Counterexamples([0.1], [[0, 1]], [[1]], variants)
    with pytest.raises(ValueError, match="count"):
        Counterexamples([0.1, 0.2], [[0, 1]], [[1, 0]], variants)


def test_counterexample_arrays_hold_typed_columns():
    noisy = np.arange(6.0).reshape(3, 2)
    cex = exact_counterexamples([4, 0, 9], [0, 1, 2], [1, 0, 0], [0.1, 0.2, 0.3], noisy)
    assert len(cex) == 3
    assert cex_rows(cex)[-1] == (9, 2, 0, 0.3, [4.0, 5.0])
    index, _, predicted, level, rows = cex_columns(cex)
    assert index.dtype == np.intp and predicted.dtype == np.intp and level.dtype == float
    assert rows.tobytes() == noisy.tobytes()
    empty = exact_counterexamples([], [], [], [], np.empty((0, 2)))
    assert len(empty) == 0 and list(empty.blocks()) == []
    # compared by identity, so `==` never compares arrays elementwise (and
    # never raises on multi-feature rows)
    twin = Counterexamples(cex.levels, cex.wrong, cex.predicted, cex.variants)
    assert cex == cex and cex != twin


# -- apply_noise ----------------------------------------------------------------

def test_apply_noise_level_zero_identity():
    x = np.array([1.0, -2.0, 0.0])
    out = apply_noise(x, 0.0, substream(1, "z"), scales=np.ones(3))
    assert np.array_equal(out, x)


def test_apply_noise_containment():
    x = np.array([1.0, -2.0, 0.0])
    scales = np.array([2.0, 4.0, 1.0])
    rng = substream(2, "c")
    for _ in range(1000):
        out = apply_noise(x, 0.25, rng, scales)
        assert np.all(np.abs(out - x) <= 0.25 * scales)


def test_apply_noise_deterministic():
    x = np.array([0.5, 0.5])
    a = apply_noise(x, 0.1, substream(3, "d"), scales=np.ones(2))
    b = apply_noise(x, 0.1, substream(3, "d"), scales=np.ones(2))
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        apply_noise(x, -0.1, substream(3, "d"), scales=np.ones(2))


def test_block_draw_equals_sequential_apply_noise():
    # the sweep draws all of an input's variants in one block; that must
    # match repeated apply_noise calls on the same stream
    x = np.array([1.0, -3.0, 2.0])
    scales = np.array([1.0, 2.0, 0.5])
    level = 0.2
    rng_block = substream(9, "probe", 3, 5)
    bound = level * scales
    block = x + rng_block.uniform(-bound, bound, size=(4, 3))
    rng_seq = substream(9, "probe", 3, 5)
    seq = np.vstack([apply_noise(x, level, rng_seq, scales) for _ in range(4)])
    assert np.array_equal(block, seq)


# -- gradient_sign_attack ---------------------------------------------------------

def test_gradient_sign_attack_level_zero():
    net = threshold_net()
    x = np.array([0.5])
    assert np.array_equal(gradient_sign_attack(net, x, 0, 0.0, np.ones(1)), x)


def test_gradient_sign_attack_hand_case():
    # build a net whose loss gradient at (0.5, 0.5) has signs (+, -)
    spec = MlpSpec((2, 2, 2))
    net = Mlp(spec,
              [np.array([[2.0, 0.0], [0.0, 2.0]]),
               np.array([[-1.0, 1.0], [1.0, -1.0]])],
              [np.array([0.1, 0.1]), np.zeros(2)])
    x = np.array([0.5, 0.5])
    out = gradient_sign_attack(net, x, 0, 0.1, np.ones(2))
    assert out == pytest.approx([0.6, 0.4])


def test_gradient_sign_attack_linf_bound():
    net = init_mlp(MlpSpec((3, 5, 2), init_seed=0))
    scales = np.array([2.0, 1.0, 3.0])
    rng = substream(11, "fg")
    for _ in range(50):
        x = rng.normal(size=3)
        out = gradient_sign_attack(net, x, int(rng.integers(2)), 0.15, scales)
        assert np.all(np.abs(out - x) <= 0.15 * scales + 1e-15)


# -- compute_bias -----------------------------------------------------------------

def test_compute_bias_frozen_values():
    R, mu, b_r = compute_bias([2, 2, 2], [10, 10, 10])
    assert b_r == pytest.approx(0.0)
    R, mu, b_r = compute_bias([5, 1], [10, 10])
    assert R == pytest.approx([0.5, 0.1])
    assert b_r == pytest.approx(0.4)
    assert mu == pytest.approx([100 * 5 / 15, 100 * 1 / 11])
    _, _, b_r = compute_bias([6, 1, 2], [10, 10, 10])
    assert b_r == pytest.approx(0.45)


def test_compute_bias_single_class_is_zero():
    R, mu, b_r = compute_bias([3], [7])
    assert b_r == 0.0
    assert R == pytest.approx([3 / 7])


def test_compute_bias_zero_correct_is_error():
    with pytest.raises(BiasMetricError, match="class 1"):
        compute_bias([5, 5], [10, 0])


def test_compute_bias_properties():
    rng = substream(13, "props")
    for _ in range(50):
        L = int(rng.integers(2, 6))
        R = rng.uniform(0, 2, size=L)
        ones = np.ones(L)
        _, _, b = compute_bias(R, ones)
        assert b >= 0
        # permutation invariance
        perm = rng.permutation(L)
        _, _, bp = compute_bias(R[perm], ones)
        assert bp == pytest.approx(b)
        # shift invariance: adding a constant to every ratio changes nothing
        _, _, bs = compute_bias(R + 0.7, ones)
        assert bs == pytest.approx(b)
    # zero iff all equal
    _, _, b = compute_bias([4, 4, 4], [8, 8, 8])
    assert b == pytest.approx(0.0, abs=1e-12)


# -- noise_sweep ------------------------------------------------------------------

def test_sweep_first_misclassification_at_grid_level():
    # boundary at 0.615, probe starts at 0.5 with unit scale: the gradient
    # attack first crosses at level 0.12, so the tolerance is 0.11
    net = threshold_net()
    ds = threshold_ds()
    spec = NoiseSpec(attack="gradient_sign")
    report = noise_sweep(net, ds, spec, seed=0, scales=np.array([1.0]))
    assert report.delta_x_max == pytest.approx(0.11)
    assert len(report.counterexamples) == 29   # levels 0.12..0.40
    assert report.probed_per_class.tolist() == [1, 1]
    assert report.mu[0] > report.mu[1] == 0.0


def test_sweep_immediate_misclassification_gives_zero():
    net = threshold_net()
    # 0.611 crosses the boundary with 0.01 of unit-scale noise already;
    # -5.0 sits in the flat ReLU region and is unmovable by the attack
    ds = Dataset(np.array([[0.611], [-5.0], [2.0]]), np.array([0, 0, 1]),
                 ("low", "high"), ("f0",))
    report = noise_sweep(net, ds, NoiseSpec(attack="gradient_sign"), seed=0,
                         scales=np.array([1.0]))
    assert report.delta_x_max == 0.0


def test_sweep_robust_single_class_fixture():
    spec = MlpSpec((2, 2, 1))
    net = Mlp(spec, [np.zeros((2, 2)), np.zeros((1, 2))], [np.zeros(2), np.zeros(1)])
    ds = Dataset(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0, 0]),
                 ("only",), ("f0", "f1"))
    report = noise_sweep(net, ds, NoiseSpec(samples_per_input=5), seed=1)
    assert len(report.counterexamples) == 0
    assert report.delta_x_max == pytest.approx(0.40)
    assert report.b_r == 0.0


def test_sweep_skips_clean_misclassifications():
    net = threshold_net()
    ds = Dataset(np.array([[0.5], [0.7], [2.0]]), np.array([0, 0, 1]),
                 ("low", "high"), ("f0",))
    report = noise_sweep(net, ds, NoiseSpec(attack="gradient_sign"), seed=0,
                         scales=np.array([1.0]))
    # the x=0.7 row is already misclassified clean, so it is not probed
    assert report.probed_per_class.tolist() == [1, 1]


def test_sweep_no_correct_inputs_is_probe_error():
    ds = make_toy_blobs(per_class=10, centers=[[0.0], [10.0]], spread=0.5, seed=0)
    net = init_mlp(MlpSpec((1, 4, 2), init_seed=0))
    model, _ = train(net, ds, TrainSchedule(((0.5, 200),)))
    flipped = Dataset(ds.features, 1 - ds.labels, ds.class_names, ds.feature_names)
    with pytest.raises(ProbeError):
        noise_sweep(model, flipped, NoiseSpec(samples_per_input=2), seed=0)


def test_sweep_counterexamples_replay_and_respect_bound():
    ds = make_toy_blobs(per_class=8, centers=[[0.0, 0.0], [2.0, 2.0]],
                        spread=0.8, seed=4)
    net = init_mlp(MlpSpec((2, 6, 2), init_seed=1))
    model, _ = train(net, ds, TrainSchedule(((0.5, 150),)))
    scales = feature_scales(ds.features)
    report = noise_sweep(model, ds, NoiseSpec(samples_per_input=10), seed=7,
                         scales=scales)
    assert len(report.counterexamples), "expected some misclassified variants"
    for index, true, pred, level, noisy in cex_rows(report.counterexamples)[:200]:
        noisy = np.array(noisy)
        cls = predict_batch(model, noisy[None, :])[0][0]
        assert cls == pred != true
        assert np.all(np.abs(noisy - ds.features[index]) <= level * scales + 1e-12)
    # no logged counterexample at or below the reported tolerance
    assert (cex_columns(report.counterexamples)[3] > report.delta_x_max).all()


def test_sweep_deterministic():
    ds = make_toy_blobs(per_class=6, centers=[[0.0], [3.0]], spread=1.0, seed=2)
    net = init_mlp(MlpSpec((1, 4, 2), init_seed=3))
    model, _ = train(net, ds, TrainSchedule(((0.5, 100),)))
    spec = NoiseSpec(samples_per_input=5)
    r1 = noise_sweep(model, ds, spec, seed=5)
    r2 = noise_sweep(model, ds, spec, seed=5)
    assert r1.b_r == r2.b_r
    assert r1.delta_x_max == r2.delta_x_max
    assert len(r1.counterexamples) == len(r2.counterexamples)
    assert np.array_equal(cex_columns(r1.counterexamples)[4], cex_columns(r2.counterexamples)[4])


@pytest.mark.parametrize("per_sample_scale, b_r, delta_x_max, per_level, count, first", [
    (False, 0.041750425235812585, 0.2,
     {0.05: [0, 0], 0.1: [0, 0], 0.2: [0, 0], 0.3: [7, 2], 0.4: [10, 6]}, 25,
     [(0, 0, 1, 0.3, [2.923424277825746, 2.0906182743594957]),
      (0, 0, 1, 0.3, [3.2101424032571853, 2.873785569256481])]),
    (True, 0.004439840165754036, 0.2,
     {0.05: [0, 0], 0.1: [0, 0], 0.2: [0, 0], 0.3: [4, 2], 0.4: [4, 5]}, 15,
     [(0, 0, 1, 0.3, [2.7270501084346006, 2.5655512610011906]),
      (0, 0, 1, 0.3, [2.712080617823155, 2.528156645397554])]),
], ids=["feature-scales", "per-sample-scale"])
def test_random_sweep_frozen(per_sample_scale, b_r, delta_x_max, per_level, count, first):
    ds = make_toy_blobs(per_class=8, centers=[[2.0, 2.0], [3.5, 3.5]], spread=0.6, seed=4)
    model, _ = train(init_mlp(MlpSpec((2, 6, 2), init_seed=1)), ds,
                     TrainSchedule(((0.5, 150),)))
    spec = NoiseSpec(levels=(0.05, 0.1, 0.2, 0.3, 0.4), samples_per_input=6,
                     attack="random_sweep", per_sample_scale=per_sample_scale)
    report = noise_sweep(model, ds, spec, seed=7, scales=feature_scales(ds.features))
    assert report.b_r == b_r
    assert report.delta_x_max == delta_x_max
    assert {k: v.tolist() for k, v in report.per_level_misclassification.items()} == per_level
    assert len(report.counterexamples) == count
    assert cex_rows(report.counterexamples)[:2] == first
    # random variants only: samples_per_input per probed input and level
    assert report.variants_per_class.tolist() == (report.probed_per_class * 6 * 5).tolist()


@pytest.mark.parametrize("attack, per_sample_scale, b_r, per_level, count, first, last", [
    ("both", False, 0.0,
     {0.05: [0, 0], 0.1: [0, 0], 0.2: [3, 3], 0.3: [10, 10], 0.4: [14, 14]}, 54,
     [(0, 0, 1, 0.2, [2.8628243580112587, 2.856020097173522]),
      (4, 0, 1, 0.2, [3.278844477383954, 2.1412154527080185])],
     (15, 1, 0, 0.4, [1.5075068889120637, 1.7421861639152725])),
    ("both", True, 0.045758431139503786,
     {0.05: [0, 0], 0.1: [0, 0], 0.2: [1, 3], 0.3: [7, 10], 0.4: [7, 13]}, 41,
     [(5, 0, 1, 0.2, [2.5362446696878274, 3.106834729104516]),
      (11, 1, 0, 0.2, [2.697363007421404, 2.3376350428102493])],
     (15, 1, 0, 0.4, [1.8076156119467108, 1.9173948650248303])),
    ("gradient_sign", False, 0.5714285714285716,
     {0.05: [0, 0], 0.1: [0, 0], 0.2: [3, 3], 0.3: [3, 8], 0.4: [4, 8]}, 29,
     [(0, 0, 1, 0.2, [2.8628243580112587, 2.856020097173522]),
      (4, 0, 1, 0.2, [3.278844477383954, 2.1412154527080185])],
     (15, 1, 0, 0.4, [1.5075068889120637, 1.7421861639152725])),
], ids=["both-feature-scales", "both-per-sample-scale", "gradient-sign"])
def test_sweep_frozen(attack, per_sample_scale, b_r, per_level, count, first, last):
    ds = make_toy_blobs(per_class=8, centers=[[2.0, 2.0], [3.5, 3.5]], spread=0.6, seed=4)
    model, _ = train(init_mlp(MlpSpec((2, 6, 2), init_seed=1)), ds,
                     TrainSchedule(((0.5, 150),)))
    spec = NoiseSpec(levels=(0.05, 0.1, 0.2, 0.3, 0.4), samples_per_input=6,
                     attack=attack, per_sample_scale=per_sample_scale)
    report = noise_sweep(model, ds, spec, seed=7, scales=feature_scales(ds.features))
    assert report.b_r == b_r
    assert report.delta_x_max == 0.1
    assert {k: v.tolist() for k, v in report.per_level_misclassification.items()} == per_level
    assert len(report.counterexamples) == count
    fields = cex_rows(report.counterexamples)
    assert fields[:2] == first and fields[-1] == last


def test_sweep_seeds_all_streams_from_one_substream_call(monkeypatch):
    ds = make_toy_blobs(per_class=6, centers=[[0.0], [3.0]], spread=1.0, seed=2)
    model, _ = train(init_mlp(MlpSpec((1, 4, 2), init_seed=3)), ds,
                     TrainSchedule(((0.5, 100),)))
    calls = []

    def counting_substream(*args):
        calls.append(args)
        return substream(*args)

    monkeypatch.setattr(probe_module, "substream", counting_substream)
    noise_sweep(model, ds, NoiseSpec(levels=(0.1, 0.2, 0.3), samples_per_input=4), seed=5)
    assert calls == [(5, "probe")]
    noise_sweep(model, ds, NoiseSpec(attack="gradient_sign"), seed=5)
    assert calls == [(5, "probe")]   # no random variants, no streams


def test_row_noise_does_not_depend_on_which_rows_are_probed(monkeypatch):
    """Every test row draws its random variants at every level, probed or
    not, so a row probed in two sweeps with one seed gets the same variants
    even when another row drops out of the probe, as when one leg's net
    misclassifies it."""
    ds = make_toy_blobs(per_class=8, centers=[[2.0, 2.0], [3.5, 3.5]], spread=0.6, seed=4)
    model, _ = train(init_mlp(MlpSpec((2, 6, 2), init_seed=1)), ds,
                     TrainSchedule(((0.5, 150),)))
    spec = NoiseSpec(levels=(0.1, 0.2, 0.3), samples_per_input=4, attack="random_sweep")
    scales = feature_scales(ds.features)

    def variants(test):
        """Test row -> its (level, sample, d) variants, as the sweep predicted them."""
        batches = []

        class Recording(probe_module._Pass):
            """The sweep's pass, keeping a copy of its inputs at each level."""

            def forward(self):
                batches.append(self.acts[0].copy())
                return super().forward()

        monkeypatch.setattr(probe_module, "_Pass", Recording)
        noise_sweep(model, test, spec, seed=7, scales=scales)
        probed = np.flatnonzero(predict_batch(model, test.features)[0] == test.labels)
        assert len(batches) == len(spec.levels)
        per_level = np.stack([b.reshape(len(probed), 4, 2) for b in batches], axis=1)
        return dict(zip(probed.tolist(), per_level))

    as_is = variants(ds)
    dropped = min(as_is)
    labels = ds.labels.copy()
    labels[dropped] = 1 - labels[dropped]
    relabelled = variants(Dataset(ds.features, labels, ds.class_names, ds.feature_names))
    assert dropped not in relabelled and len(relabelled) == len(as_is) - 1
    for row, noisy in relabelled.items():
        assert noisy.tobytes() == as_is[row].tobytes(), row


def test_affine_draw_equals_generator_uniform():
    """The sweep turns each input's stream of doubles into noisy rows in
    one vectorized step; the rows hold the bits of `x + Generator.uniform(
    -b, b, size)` on the same stream, for zero, tiny and large bounds and
    several widths."""
    for trial in range(60):
        source = substream(31, "bounds", trial)
        d = (1, 2, 4, 8, 32)[trial % 5]
        n, S = int(source.integers(1, 6)), int(source.integers(1, 25))
        bound = source.uniform(0.0, 1.0, size=(n, d)) * 10.0 ** source.integers(-6, 7, size=(n, d))
        bound[source.random((n, d)) < 0.2] = 0.0
        x = source.normal(size=(n, d)) * 10.0 ** source.integers(-3, 4)
        expected = np.stack([x[r] + substream(trial, "draw", r).uniform(-bound[r], bound[r], (S, d))
                             for r in range(n)])
        got = np.empty((n, S, d))
        for r in range(n):
            substream(trial, "draw", r).random(out=got[r])
        _add_uniform(x[:, None, :], bound[:, None, :], got)
        assert got.tobytes() == expected.tobytes()


def test_sweep_per_sample_scale_flag():
    net = threshold_net()
    ds = threshold_ds()
    spec = NoiseSpec(attack="gradient_sign", per_sample_scale=True)
    report = noise_sweep(net, ds, spec, seed=0, scales=np.array([1.0]))
    # scale is now |x| = 0.5, so the crossing needs level > 0.23
    assert report.delta_x_max == pytest.approx(0.23)


def test_sweep_counts_are_consistent():
    ds = make_toy_blobs(per_class=8, centers=[[0.0, 0.0], [2.5, 2.5]],
                        spread=1.0, seed=9)
    net = init_mlp(MlpSpec((2, 6, 2), init_seed=2))
    model, _ = train(net, ds, TrainSchedule(((0.5, 150),)))
    spec = NoiseSpec(samples_per_input=4)
    report = noise_sweep(model, ds, spec, seed=3)
    per_level_total = sum(c.sum() for c in report.per_level_misclassification.values())
    assert per_level_total == len(report.counterexamples)
    # each probed input contributes samples+1 variants per level
    expected = report.probed_per_class * (spec.samples_per_input + 1) * len(spec.levels)
    assert report.variants_per_class.tolist() == expected.tolist()


def reference_sweep_counterexamples(mlp, test, spec, seed, scales):
    """The counterexamples of `noise_sweep` as five arrays, gathered the
    allocating way: every level's batch is built from `Generator.uniform`
    over every test row, its misclassified rows are copied out, and the
    copies of all levels are concatenated."""
    probed = np.flatnonzero(predict_batch(mlp, test.features)[0] == test.labels)
    X, y = test.features[probed], test.labels[probed]
    all_scales = np.abs(test.features) if spec.per_sample_scale else \
        np.broadcast_to(scales, test.features.shape)
    rng = substream(seed, "probe")
    S = spec.samples_per_input
    inputs = np.arange(len(probed))
    found = []
    for level in spec.levels:
        batch, rows = [], []
        if spec.random_enabled:
            bound = (level * all_scales)[:, None, :]
            noisy = test.features[:, None, :] + rng.uniform(-bound, bound,
                                                            (test.n, S, test.d))
            batch.append(noisy[probed].reshape(-1, test.d))
            rows.append(np.repeat(inputs, S))
        if spec.gradient_enabled:
            signs = np.sign(input_gradients(mlp, X, y))
            batch.append(X + level * all_scales[probed] * signs)
            rows.append(inputs)
        batch, rows = np.concatenate(batch), np.concatenate(rows)
        pred = predict_batch(mlp, batch)[0]
        wrong = pred != y[rows]
        found.append((probed[rows[wrong]], y[rows[wrong]], pred[wrong],
                      np.full(wrong.sum(), level), batch[wrong]))
    return [np.concatenate(column) for column in zip(*found)]


def _blob_model():
    ds = make_toy_blobs(per_class=8, centers=[[2.0, 2.0], [3.5, 3.5]], spread=0.6, seed=4)
    model, _ = train(init_mlp(MlpSpec((2, 6, 2), init_seed=1)), ds,
                     TrainSchedule(((0.5, 150),)))
    return ds, model


@pytest.mark.parametrize("seed", [7, 12])
@pytest.mark.parametrize("per_sample_scale", [False, True])
@pytest.mark.parametrize("attack", ["both", "random_sweep", "gradient_sign"])
def test_blocks_equal_the_allocating_reference(attack, per_sample_scale, seed):
    """The rows rebuilt from positions hold the bits of the rows the
    reference sweep copied out, column by column."""
    ds, model = _blob_model()
    spec = NoiseSpec(levels=(0.05, 0.1, 0.2, 0.3, 0.4), samples_per_input=6,
                     attack=attack, per_sample_scale=per_sample_scale)
    scales = feature_scales(ds.features)
    report = noise_sweep(model, ds, spec, seed=seed, scales=scales)
    expected = reference_sweep_counterexamples(model, ds, spec, seed, scales)
    got = cex_columns(report.counterexamples)
    assert len(report.counterexamples) == len(expected[0]) > 0
    for name, want, have in zip(("index", "true", "predicted", "level", "noisy"),
                                expected, got):
        assert have.dtype == want.dtype and have.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("shape", [(1, 1, 1), (7, 3, 5), (450, 20, 8)],
                         ids=["1x1x1", "7x3x5", "450x20x8"])
def test_advancing_the_sweep_generator_equals_drawing(shape):
    """`Counterexamples.blocks` skips a level by advancing a copy of the
    sweep's generator by the level's count of doubles: what it draws next is
    what drawing and discarding that level's block would have left."""
    drawn, advanced = substream(7, "probe"), substream(7, "probe")
    block = np.empty(shape)
    for skipped in (0, 1, 3, 0, 2):
        for _ in range(skipped):
            drawn.random(out=block)
        advanced.bit_generator.advance(skipped * block.size)
        assert advanced.random(shape).tobytes() == drawn.random(shape).tobytes(), skipped


def test_counterexample_csv_bytes_of_a_five_level_sweep(tmp_path):
    """A sweep's CSV holds the bytes of the per-row reference. Its first two
    levels hold no counterexamples, so the writer skips their draws by
    advancing a copy of the sweep's generator; each other level is
    rebuilt as one block."""
    ds, model = _blob_model()
    spec = NoiseSpec(levels=(0.05, 0.1, 0.2, 0.3, 0.4), samples_per_input=6)
    report = noise_sweep(model, ds, spec, seed=7, scales=feature_scales(ds.features))
    cex = report.counterexamples
    assert [len(w) > 0 for w in cex.wrong] == [False, False, True, True, True]
    for _, _, _, level, _ in cex.blocks():
        assert len(set(level.tolist())) == 1
    write_counterexamples_csv(report, tmp_path / "cex.csv", ds.feature_names)
    assert (tmp_path / "cex.csv").read_bytes() == _reference_csv(cex, ds.feature_names)


def _probe_cli_shaped():
    """A model and a test set shaped like the benchmark's probe-cli: 450
    rows of 8 features in 3 classes and two hidden layers of 15, probed
    with the shipped grid (40 levels, 20 random variants per input)."""
    centers = np.zeros((3, 8))
    centers[[0, 1, 2], [1, 4, 6]] = 1.0
    ds = make_toy_blobs(per_class=150, centers=centers, spread=1.3, seed=3)
    model, _ = train(init_mlp(MlpSpec((8, 15, 15, 3), init_seed=2)), ds,
                     TrainSchedule(((0.5, 200),)))
    return ds, model


def _traced_sweep():
    """One sweep of `_probe_cli_shaped` under tracemalloc: its count of
    counterexamples, its peak, and what its report still holds."""
    ds, model = _probe_cli_shaped()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = noise_sweep(model, ds, NoiseSpec(), seed=5)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return len(report.counterexamples), peak - before, retained - before


def test_sweep_peak_does_not_grow_with_its_counterexamples():
    """Over 40k counterexamples: copying each level's rows and then
    concatenating the copies peaked at 13.1 MiB; keeping positions, 4.8 MiB."""
    count, peak, _ = _traced_sweep()
    assert count >= 40_000
    assert peak < 8 * 2**20, peak


def test_probe_report_keeps_positions_not_rows():
    """The same sweep's report holds positions, predictions and what
    rebuilds the rows: 0.7 MiB, where the rows themselves took 3.9 MiB."""
    count, _, retained = _traced_sweep()
    assert count >= 40_000
    assert retained < 2 * 2**20, retained


# -- serialization ------------------------------------------------------------------

def test_probe_report_json_and_csv(tmp_path):
    net = threshold_net()
    ds = threshold_ds()
    report = noise_sweep(net, ds, NoiseSpec(attack="gradient_sign"), seed=0,
                         scales=np.array([1.0]))
    doc = probe_report_to_json(report, class_names=["low", "high"])
    assert doc["delta_x_max"] == pytest.approx(0.11)
    assert doc["class_names"] == ["low", "high"]
    assert doc["counterexample_count"] == 29
    assert doc["per_level_misclassification"]["0.12"] == [1, 0]

    jpath = tmp_path / "probe.json"
    save_probe_report(report, jpath, class_names=["low", "high"])
    assert json.loads(jpath.read_text())["b_r"] == pytest.approx(report.b_r)

    cpath = tmp_path / "cex.csv"
    write_counterexamples_csv(report, cpath, ds.feature_names)
    lines = cpath.read_text().strip().splitlines()
    assert len(lines) == 1 + 29
    assert lines[0] == "input_index,true_class,predicted_class,level,f0"


def test_format_level_keeps_two_decimals_when_they_round_trip():
    assert [format_level(v) for v in (0.01, 0.1, 0.12, 0.4, 1.0)] == [
        "0.01", "0.10", "0.12", "0.40", "1.00"]
    assert all(format_level(v) == f"{v:.2f}" for v in DEFAULT_LEVELS)
    assert [format_level(v) for v in (0.121, 0.124, 0.005, 0.1 + 0.2)] == [
        "0.121", "0.124", "0.005", "0.30000000000000004"]


def test_close_levels_keep_their_own_keys(tmp_path):
    # 0.121 and 0.124 both print as 0.12 with two decimals; each must keep
    # its counts in the report and its own value in the CSV
    net = threshold_net()
    ds = threshold_ds()
    report = noise_sweep(net, ds, NoiseSpec(levels=(0.05, 0.121, 0.124), attack="gradient_sign"),
                         seed=0, scales=np.array([1.0]))
    doc = probe_report_to_json(report)
    assert doc["per_level_misclassification"] == {"0.05": [0, 0], "0.121": [1, 0],
                                                  "0.124": [1, 0]}
    cpath = tmp_path / "cex.csv"
    write_counterexamples_csv(report, cpath, ds.feature_names)
    with open(cpath, newline="", encoding="utf-8") as fh:
        assert [row[3] for row in csv.reader(fh)][1:] == ["0.121", "0.124"]


def _reference_csv(counterexamples, feature_names) -> bytes:
    """The counterexample CSV as it was written one counterexample at a
    time, each value formatted with `repr(float(v))`."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["input_index", "true_class", "predicted_class", "level"]
                    + list(feature_names))
    for index, true, pred, level, noisy in cex_rows(counterexamples):
        writer.writerow([index, true, pred, f"{level:.2f}"] + [repr(float(v)) for v in noisy])
    return buf.getvalue().encode("utf-8")


def test_counterexample_csv_bytes_match_per_row_repr(tmp_path):
    values = [1e-05, -0.0, 0.1 + 0.2, 1e16, 5e-324, 1 / 3, -123456789.125, 2.5, 0.0,
              float(np.nextafter(1.0, 2.0)), 1e-300, 7.0]
    noisy = np.array(values).reshape(4, 3)
    cex = exact_counterexamples([0, 1, 2, 3], [0] * 4, [1] * 4, [0.01, 0.1, 0.35, 0.4], noisy)
    assert cex_columns(cex)[4].tobytes() == noisy.tobytes()
    names = ("a", 'b, "quoted"', "c")   # the header keeps csv quoting
    report = ProbeReport(0.0, np.zeros(2), np.zeros(2), 0.0, cex, {},
                         np.zeros(2, dtype=int), np.zeros(2, dtype=int))
    path = tmp_path / "cex.csv"
    write_counterexamples_csv(report, path, names)
    assert path.read_bytes() == _reference_csv(cex, names)
    assert path.read_bytes().startswith(b'input_index,true_class,predicted_class,level,a,'
                                        b'"b, ""quoted""",c\r\n')


def _random_report(rows: int) -> ProbeReport:
    """A report whose only content is `rows` counterexamples of 3 features."""
    source = substream(5, "csv", rows)
    noisy = source.normal(size=(rows, 3)) * 10.0 ** source.integers(-8, 9, size=(rows, 3))
    cex = exact_counterexamples(np.arange(rows), np.zeros(rows, dtype=int),
                                np.ones(rows, dtype=int), source.choice([0.01, 0.1, 0.35], rows),
                                noisy)
    return ProbeReport(0.0, np.zeros(2), np.zeros(2), 0.0, cex, {},
                       np.zeros(2, dtype=int), np.zeros(2, dtype=int))


@pytest.mark.parametrize("rows", [0, 1, 37])
def test_counterexample_csv_bytes_match_the_reference(tmp_path, rows):
    """No rows, one row and a few, each value a spread of magnitudes: the
    bytes of the per-row reference."""
    report = _random_report(rows)
    names = ("a", 'b, "quoted"', "c")
    write_counterexamples_csv(report, tmp_path / "cex.csv", names)
    assert (tmp_path / "cex.csv").read_bytes() == _reference_csv(report.counterexamples, names)


def test_counterexample_csv_level_longer_than_a_chunk(tmp_path):
    """A level of more rows than `_CHUNK_ROWS`, between two small levels,
    with zeros, a subnormal and values `repr` writes in exponent notation
    among them."""
    rows = 2 * probe_module._CHUNK_ROWS + 37
    rng = np.random.default_rng(3)
    noisy = rng.normal(size=(rows + 20, 3)) * 10.0 ** rng.integers(-6, 18, size=(rows + 20, 3))
    noisy[[5, 900, 2000]] = [[0.0, -0.0, 5e-324], [1e16, 1e-4, -9999999999999998.0],
                             [2.5, 1.0, 1e22]]
    level = [0.05] * 10 + [0.1] * rows + [0.35] * 10
    cex = exact_counterexamples(np.arange(rows + 20), np.zeros(rows + 20, dtype=int),
                                np.ones(rows + 20, dtype=int), level, noisy)
    report = ProbeReport(0.0, np.zeros(2), np.zeros(2), 0.0, cex, {},
                         np.zeros(2, dtype=int), np.zeros(2, dtype=int))
    write_counterexamples_csv(report, tmp_path / "cex.csv", ("a", "b", "c"))
    assert (tmp_path / "cex.csv").read_bytes() == _reference_csv(cex, ("a", "b", "c"))


def test_counterexample_csv_peak_does_not_grow_with_its_rows(tmp_path, monkeypatch):
    """Writing over 40k counterexamples, in this process even with two CPUs
    usable: the rows are rebuilt a level at a time and formatted a chunk at
    a time, so the peak is the sweep's draw block, one level's rows and one
    chunk's buffers: 2.9 to 3.1 MiB for the first 20 levels' 12k rows and
    for all 42k. Formatting every row as one chunk peaked at 83 MiB."""
    monkeypatch.setattr(forking, "usable_cpus", lambda: 2)
    forked = forking.forked
    ds, model = _probe_cli_shaped()
    report = noise_sweep(model, ds, NoiseSpec(), seed=5)
    assert len(report.counterexamples) >= 40_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_counterexamples_csv(report, tmp_path / "cex.csv", ds.feature_names)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert (tmp_path / "cex.csv").stat().st_size > 6_000_000
    assert peak < 5 * 2**20, peak
    assert forking.forked == forked
    assert multiprocessing.active_children() == []


# -- the CSV's float formatter -----------------------------------------------------

def _written(values) -> list:
    """The texts `floattext.csv_rows` writes for `values`, one row each."""
    values = np.asarray(values, dtype=float).reshape(-1, 1)
    n = len(values)
    text = csv_rows(np.arange(n), np.zeros(n, dtype=int), np.ones(n, dtype=int),
                    np.full(n, 0.1), values, format_level).decode()
    lines = text.split("\r\n")
    assert lines.pop() == ""
    return [line.split(",", 4)[4] for line in lines]


def _repr_digits(value: float) -> tuple:
    """`repr(abs(value))` as digits without trailing zeros and a decimal
    exponent, so that the value reads digits * 10**exponent."""
    mantissa, _, exponent = repr(abs(value)).partition("e")
    whole, _, fraction = mantissa.partition(".")
    fraction = fraction.rstrip("0")
    digits = (whole + fraction).lstrip("0")
    stripped = digits.rstrip("0")
    return int(stripped), int(exponent or 0) - len(fraction) + len(digits) - len(stripped)


def _assert_formats_like_repr(values) -> None:
    """The formatter's text of every value is its `repr`, and the shortest
    digits of every normal double are `repr`'s, in exponent notation too."""
    values = np.asarray(values, dtype=float)
    assert _written(values) == [repr(v) for v in values.tolist()]
    digits, exponent, normal = shortest_digits(values)
    for value, d, e in zip(values[normal].tolist(), digits[normal].tolist(),
                           exponent[normal].tolist()):
        while d % 10 == 0:
            d, e = d // 10, e + 1
        assert (d, e) == _repr_digits(value), value


@settings(max_examples=300)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_format_floats_like_repr(values):
    _assert_formats_like_repr(values)


@settings(max_examples=300)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_format_bit_patterns_like_repr(patterns):
    """Every 64-bit pattern: normal and subnormal doubles, zeros, infinities, NaN."""
    _assert_formats_like_repr(np.array(patterns, dtype=np.uint64).view(np.float64))


def _neighbours(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return np.concatenate([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])


def test_format_boundaries_like_repr():
    cases = np.concatenate([
        _neighbours([1e-4, 1e15, 1e16]),   # where repr changes notation
        _neighbours(2.0 ** np.arange(-1074, 1024)),
        _neighbours([float(f"1e{k}") for k in range(-323, 309)]),
        2.0 ** 53 - np.arange(1, 65),      # the largest doubles that hold every integer
        [0.0, 5e-324, np.finfo(float).tiny, np.finfo(float).max],
        # 16-digit integer parts
        [1234567890123456.0, 9999999999999998.0, 1e15 + 0.125, 4503599627370495.5],
        # the one-digit-shorter candidate wins: 0.3 is 0.29999999999999998890,
        # 2.675 is 2.67499999999999982236431605997495353221893310546875
        [0.3, 0.1 + 0.2, 2.675, 0.5, 123.0, 1e23, 9007199254740992.0, 5e-5, 7e-4],
        # halfway between two 16-digit decimals: the even one is written
        [2.0 ** 49 + 0.25, 2.0 ** 49 + 0.75, 2.0 ** 50 + 0.25, 2.0 ** 50 + 0.75,
         2.0 ** 49 + 1.25, 2.0 ** 50 + 3.75],
    ])
    assert len(cases) > 8_000
    _assert_formats_like_repr(np.concatenate([cases, -cases]))


def test_format_bulk_sample_like_repr():
    """About 200k values, whole CSV rows: log-uniform magnitudes of both
    signs across fixed notation and beyond it, 16-digit integer parts, and
    raw bit patterns; levels of two decimals and of more."""
    rng = np.random.default_rng(24)
    magnitudes = np.concatenate([10.0 ** rng.uniform(-4, 16, (15_000, 8)),
                                 10.0 ** rng.uniform(-5, 17, (6_000, 8)),
                                 1e15 * (1.0 + 9.0 * rng.random((1_000, 8)))])
    values = np.concatenate([magnitudes * rng.choice([-1.0, 1.0], magnitudes.shape),
                             rng.integers(0, 2**64, (3_000, 8), dtype=np.uint64).view(np.float64)])
    n = len(values)
    index, true, pred = rng.integers(0, 10**6, n), rng.integers(0, 3, n), rng.integers(0, 12, n)
    level = rng.choice([0.05, 0.121, 0.4], n)
    chunks = range(0, n, 1024)
    got = b"".join(csv_rows(index[i:i + 1024], true[i:i + 1024], pred[i:i + 1024],
                            level[i:i + 1024], values[i:i + 1024], format_level) for i in chunks)
    want = "".join(f"{i},{t},{p},{format_level(v)},{','.join(map(repr, row))}\r\n"
                   for i, t, p, v, row in zip(index.tolist(), true.tolist(), pred.tolist(),
                                              level.tolist(), values.tolist()))
    assert got == want.encode()
