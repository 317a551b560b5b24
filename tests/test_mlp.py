"""Classifier tests: init, forward pass, gradients, training."""

import numpy as np
import pytest

from biasdiv.data import Dataset, make_toy_blobs
from biasdiv.errors import TrainingError
from biasdiv.mlp import (
    Mlp,
    MlpSpec,
    TrainSchedule,
    accuracy,
    init_mlp,
    input_gradients,
    predict_batch,
    scale_epochs,
    scale_schedule,
    train,
    train_stack,
)
from biasdiv.mlp import _onehot
from biasdiv.numerics import substream


# Reference arithmetic: forward and backward passes that allocate every
# intermediate, for one net or a stack with a leading axis on every array.
# The package's buffered kernel must match them bit for bit.

def reference_forward(weights, biases, X):
    """(activations, pre-activations, probabilities, shifted logits,
    softmax denominators); biases broadcast as (out,) or (R, 1, out)."""
    acts, zs, a = [X], [], X
    last = len(weights) - 1
    for l, (w, b) in enumerate(zip(weights, biases)):
        z = a @ w.swapaxes(-1, -2) + b
        zs.append(z)
        a = z if l == last else np.maximum(z, 0.0)
        acts.append(a)
    logits = zs[-1]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expz = np.exp(shifted)
    sums = expz.sum(axis=-1, keepdims=True)
    return acts, zs, expz / sums, shifted, sums


def reference_backward(weights, acts, zs, probs, onehot):
    """Mean cross-entropy gradients of every weight and bias."""
    delta = (probs - onehot) / onehot.shape[-2]
    dws, dbs = [None] * len(weights), [None] * len(weights)
    for l in range(len(weights) - 1, -1, -1):
        dws[l] = delta.swapaxes(-1, -2) @ acts[l]
        dbs[l] = delta.sum(axis=-2)
        if l > 0:
            delta = (delta @ weights[l]) * (zs[l - 1] > 0)
    return dws, dbs


def reference_mean_nll(shifted, sums, y):
    """Mean cross-entropy per net from one forward pass."""
    picked = np.take_along_axis(shifted, y[..., None], axis=-1)[..., 0]
    return -(picked - np.log(sums)[..., 0]).mean(axis=-1)


def reference_descend(weights, biases, X, y, schedule):
    """Full-batch descent one allocating step at a time: the final weights
    and biases, and the loss of every epoch, shape (epochs,) or (epochs, R)."""
    weights, biases = [w.copy() for w in weights], [b.copy() for b in biases]
    bias_rows = [b[..., None, :] for b in biases]
    onehot = _onehot(y, weights[-1].shape[-2])
    losses = []
    with np.errstate(over="ignore", invalid="ignore"):
        acts, zs, probs, _, _ = reference_forward(weights, bias_rows, X)
        for lr, epochs in schedule.phases:
            for _ in range(epochs):
                dws, dbs = reference_backward(weights, acts, zs, probs, onehot)
                for l in range(len(weights)):
                    weights[l] -= lr * dws[l]
                    biases[l] -= lr * dbs[l]
                acts, zs, probs, shifted, sums = reference_forward(weights, bias_rows, X)
                losses.append(reference_mean_nll(shifted, sums, y))
    return weights, biases, np.array(losses)


# Reference helpers: one input at a time, and the loss alone. The package
# predicts, differentiates and scores whole batches.

def predict(mlp, x):
    """Class index (argmax, ties to the lowest index) and probability vector
    of one input."""
    classes, probs = predict_batch(mlp, np.asarray(x, dtype=float)[None, :])
    return int(classes[0]), probs[0]


def input_gradient(mlp, x, true_class):
    """Gradient of one input's cross-entropy loss with respect to the input."""
    return input_gradients(mlp, np.asarray(x, dtype=float)[None, :],
                           np.array([true_class]))[0]


def cross_entropy_loss(mlp, X, y):
    """Mean cross-entropy of a batch, from one forward pass."""
    _, _, _, shifted, sums = reference_forward(mlp.weights, mlp.biases,
                                               np.asarray(X, dtype=float))
    return float(reference_mean_nll(shifted, sums, np.asarray(y, dtype=int)))


def zero_net(sizes):
    spec = MlpSpec(sizes)
    net = init_mlp(spec)
    return Mlp(spec, [np.zeros_like(w) for w in net.weights],
               [np.zeros_like(b) for b in net.biases])


# -- spec / init ----------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        MlpSpec((4, 3))            # no hidden layer
    with pytest.raises(ValueError):
        MlpSpec((4, 0, 2))


def test_init_shapes_and_determinism():
    net = init_mlp(MlpSpec((5, 20, 2), init_seed=3))
    assert net.weights[0].shape == (20, 5)
    assert net.weights[1].shape == (2, 20)
    again = init_mlp(MlpSpec((5, 20, 2), init_seed=3))
    assert all(np.array_equal(a, b) for a, b in zip(net.weights, again.weights))
    other = init_mlp(MlpSpec((5, 20, 2), init_seed=4))
    assert not np.array_equal(net.weights[0], other.weights[0])


def test_init_two_hidden_layers_and_bounds():
    net = init_mlp(MlpSpec((4, 15, 15, 3), init_seed=0))
    assert len(net.weights) == 3
    for l, w in enumerate(net.weights):
        fan_out, fan_in = w.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.abs(w).max() <= limit
    assert all(np.all(b == 0.0) for b in net.biases)


def test_mlp_shape_validation():
    spec = MlpSpec((3, 4, 2))
    good = init_mlp(spec)
    with pytest.raises(ValueError):
        Mlp(spec, good.weights[:1], good.biases)
    bad_w = [w.copy() for w in good.weights]
    bad_w[0] = np.zeros((5, 3))
    with pytest.raises(ValueError):
        Mlp(spec, bad_w, good.biases)
    nan_w = [w.copy() for w in good.weights]
    nan_w[0][0, 0] = np.nan
    with pytest.raises(ValueError):
        Mlp(spec, nan_w, good.biases)


# -- prediction -------------------------------------------------------------------

def test_zero_net_uniform_probabilities():
    net = zero_net((3, 4, 4))
    cls, probs = predict(net, np.array([1.0, -2.0, 0.5]))
    assert cls == 0   # argmax tie -> lowest index
    assert probs == pytest.approx(np.full(4, 0.25))


def test_probabilities_sum_to_one():
    net = init_mlp(MlpSpec((4, 6, 3), init_seed=1))
    rng = substream(5, "px")
    X = rng.normal(size=(30, 4)) * 10
    _, probs = predict_batch(net, X)
    assert probs.sum(axis=1) == pytest.approx(np.ones(30), abs=1e-9)


def test_hand_built_net_favors_expected_class():
    spec = MlpSpec((2, 2, 2))
    net = Mlp(spec, [np.eye(2), np.eye(2)], [np.zeros(2), np.zeros(2)])
    cls, probs = predict(net, np.array([0.1, 5.0]))
    assert cls == 1
    assert probs[1] > 0.99


def test_predict_input_validation():
    net = zero_net((3, 4, 2))
    with pytest.raises(ValueError):
        predict_batch(net, np.ones((1, 2)))
    with pytest.raises(ValueError):
        predict_batch(net, np.ones(3))


# -- gradients --------------------------------------------------------------------

def _rel_err(a, b):
    denom = max(abs(a), abs(b))
    if denom < 1e-7:
        return 0.0
    return abs(a - b) / denom


def test_input_gradient_matches_finite_differences():
    h = 1e-5
    checked = 0
    for trial in range(200):
        rng = substream(41, "grad", trial)
        sizes = (3, int(rng.integers(2, 6)), int(rng.integers(2, 5)), 3)
        net = init_mlp(MlpSpec(sizes, init_seed=trial))
        x = rng.normal(size=3)
        # skip fixtures near a ReLU kink where the loss is not differentiable
        _, zs_probe = None, None
        a = x[None, :]
        kink = False
        for l, (w, b) in enumerate(zip(net.weights, net.biases)):
            z = a @ w.T + b
            if l < len(net.weights) - 1:
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
            num = (cross_entropy_loss(net, xp[None, :], np.array([y]))
                   - cross_entropy_loss(net, xm[None, :], np.array([y]))) / (2 * h)
            assert _rel_err(analytic[j], num) < 1e-4
        checked += 1
        if checked >= 20:
            break
    assert checked >= 20


def parameter_gradients(mlp, X, y):
    """Reference: mean cross-entropy gradients of every weight and bias."""
    acts, zs, probs, _, _ = reference_forward(mlp.weights, mlp.biases,
                                              np.asarray(X, dtype=float))
    return reference_backward(mlp.weights, acts, zs, probs,
                              _onehot(np.asarray(y, dtype=int), mlp.spec.L))


def test_parameter_gradients_match_finite_differences():
    h = 1e-5
    rng = substream(43, "pgrad")
    net = init_mlp(MlpSpec((3, 4, 2), init_seed=7))
    X = rng.normal(size=(6, 3)) + 0.5
    y = np.array([0, 1, 0, 1, 1, 0])
    dws, dbs = parameter_gradients(net, X, y)
    for l in range(len(net.weights)):
        for idx in np.ndindex(net.weights[l].shape):
            net.weights[l][idx] += h
            up = cross_entropy_loss(net, X, y)
            net.weights[l][idx] -= 2 * h
            down = cross_entropy_loss(net, X, y)
            net.weights[l][idx] += h
            assert _rel_err(dws[l][idx], (up - down) / (2 * h)) < 1e-4
        for i in range(len(net.biases[l])):
            net.biases[l][i] += h
            up = cross_entropy_loss(net, X, y)
            net.biases[l][i] -= 2 * h
            down = cross_entropy_loss(net, X, y)
            net.biases[l][i] += h
            assert _rel_err(dbs[l][i], (up - down) / (2 * h)) < 1e-4


def test_zero_net_zero_gradient_and_shapes():
    net = zero_net((4, 3, 2))
    g = input_gradient(net, np.array([1.0, 2.0, 3.0, 4.0]), 1)
    assert g.shape == (4,)
    assert g == pytest.approx(np.zeros(4))


def test_batched_input_gradients_match_single():
    net = init_mlp(MlpSpec((3, 5, 2), init_seed=2))
    rng = substream(47, "batch")
    X = rng.normal(size=(7, 3))
    y = rng.integers(2, size=7)
    batched = input_gradients(net, X, y)
    for i in range(7):
        assert batched[i] == pytest.approx(input_gradient(net, X[i], int(y[i])))


# -- training ---------------------------------------------------------------------

def blobs_ds():
    return make_toy_blobs(per_class=20, centers=[[0.0, 0.0], [6.0, 6.0]],
                          spread=1.0, seed=8)


def test_train_separable_blobs_to_full_accuracy():
    ds = blobs_ds()
    net = init_mlp(MlpSpec((2, 8, 2), init_seed=0))
    model, report = train(net, ds, TrainSchedule(((0.5, 200),)))
    assert report.train_accuracy == 1.0
    assert len(report.losses) == 200
    assert report.losses[-1] < report.losses[0]


def test_schedule_validation():
    with pytest.raises(ValueError):
        TrainSchedule(())
    with pytest.raises(ValueError):
        TrainSchedule(((0.5, 0),))
    with pytest.raises(ValueError):
        TrainSchedule(((0.0, 10),))


@pytest.mark.parametrize("lr", [float("nan"), float("inf")])
def test_schedule_rejects_non_finite_learning_rate(lr):
    with pytest.raises(ValueError, match="finite"):
        TrainSchedule(((0.5, 10), (lr, 10)))


def test_train_divergence_names_epoch():
    ds = blobs_ds()
    net = init_mlp(MlpSpec((2, 8, 2), init_seed=0))
    with pytest.raises(TrainingError, match=r"diverged at epoch 18$"):
        train(net, ds, TrainSchedule(((1e9, 50),)))


def test_train_deterministic():
    ds = blobs_ds()
    net = init_mlp(MlpSpec((2, 8, 2), init_seed=1))
    m1, r1 = train(net, ds, TrainSchedule(((0.3, 50),)))
    m2, r2 = train(net, ds, TrainSchedule(((0.3, 50),)))
    assert all(np.array_equal(a, b) for a, b in zip(m1.weights, m2.weights))
    assert r1.losses == r2.losses
    # input model untouched
    assert np.array_equal(net.weights[0], init_mlp(MlpSpec((2, 8, 2), init_seed=1)).weights[0])


def test_small_step_never_increases_loss():
    for trial in range(10):
        rng = substream(53, "step", trial)
        ds = make_toy_blobs(per_class=8,
                            centers=rng.uniform(-3, 3, size=(2, 3)).tolist(),
                            spread=1.0, seed=trial)
        net = init_mlp(MlpSpec((3, 5, 2), init_seed=trial))
        before = cross_entropy_loss(net, ds.features, ds.labels)
        _, report = train(net, ds, TrainSchedule(((1e-4, 1),)))
        assert report.losses[0] <= before + 1e-12


def test_train_shape_mismatch():
    ds = blobs_ds()
    net = init_mlp(MlpSpec((3, 8, 2), init_seed=0))
    with pytest.raises(ValueError, match="does not"):
        train(net, ds, TrainSchedule(((0.5, 10),)))


def overlapping_three_class():
    ds = make_toy_blobs(per_class=15, centers=[[0.0, 0.0], [1.0, 1.0], [0.0, 1.5]],
                        spread=1.0, seed=11)
    return ds, init_mlp(MlpSpec((2, 6, 3), init_seed=4))


def test_epoch_losses_equal_reference_loss_of_truncated_runs():
    """Loss e is `cross_entropy_loss` of the net trained for e epochs, on the
    fitted rows, across a phase boundary; the values are frozen too."""
    ds, net = overlapping_three_class()
    phases = ((0.4, 4), (0.1, 3))
    _, report = train(net, ds, TrainSchedule(phases))
    for e in range(1, 8):
        head = ((0.4, min(e, 4)),) + (((0.1, e - 4),) if e > 4 else ())
        model_e, _ = train(net, ds, TrainSchedule(head))
        assert report.losses[e - 1] == cross_entropy_loss(model_e, ds.features, ds.labels)
    assert report.losses == [1.1893295954709577, 1.0165886248270535, 0.9446733955884282,
                             0.9068352660554184, 0.8999503993984528, 0.8934000708678571,
                             0.8871223883661952]


def test_train_accuracy_is_accuracy_on_fitted_rows():
    ds, net = overlapping_three_class()
    model, report = train(net, ds, TrainSchedule(((0.4, 4), (0.1, 3))))
    assert report.train_accuracy == accuracy(model, ds)
    assert report.train_accuracy == 0.6


def test_multi_phase_schedule_epochs():
    ds = blobs_ds()
    net = init_mlp(MlpSpec((2, 4, 2), init_seed=0))
    _, report = train(net, ds, TrainSchedule(((0.5, 40), (0.2, 40))))
    assert len(report.losses) == 80


def stack_sets(R, scale_first=1.0):
    """R distinct datasets of one shape: three classes of 12 rows each."""
    sets = [make_toy_blobs(per_class=12, centers=[[0.0, 0.0], [1.0, 1.0], [0.0, 1.5]],
                           spread=1.0, seed=40 + r) for r in range(R)]
    first = sets[0]
    sets[0] = Dataset(first.features * scale_first, first.labels, first.class_names,
                      first.feature_names)
    return sets


def assert_same_training(got, want):
    (got_model, got_report), (want_model, want_report) = got, want
    for a, b in zip(got_model.weights + got_model.biases,
                    want_model.weights + want_model.biases, strict=True):
        assert np.array_equal(a, b)
    assert got_report.losses == want_report.losses
    assert got_report.train_accuracy == want_report.train_accuracy
    assert got_report.test_accuracy == want_report.test_accuracy


@pytest.mark.parametrize("R", [1, 2, 3, 4])
@pytest.mark.parametrize("hidden", [(6,), (6, 5)])
def test_train_stack_equals_per_net_train(R, hidden):
    sets = stack_sets(R)
    nets = [init_mlp(MlpSpec((2, *hidden, 3), init_seed=r)) for r in range(R)]
    schedule = TrainSchedule(((0.4, 30), (0.1, 20)))
    test_ds, _ = overlapping_three_class()
    stacked = train_stack(nets, sets, schedule, test_ds=test_ds)
    assert len(stacked) == R
    for r in range(R):
        assert_same_training(stacked[r], train(nets[r], sets[r], schedule, test_ds=test_ds))


@pytest.mark.parametrize("R", [1, 3])
@pytest.mark.parametrize("hidden", [(6,), (6, 5)])
def test_training_equals_reference_descent(R, hidden):
    """The buffered kernel against the allocating reference loop, for one
    net (through `train`) and a stack (through `train_stack`)."""
    sets = stack_sets(R)
    nets = [init_mlp(MlpSpec((2, *hidden, 3), init_seed=r)) for r in range(R)]
    schedule = TrainSchedule(((0.4, 30), (0.1, 20)))
    if R == 1:
        got = [train(nets[0], sets[0], schedule)]
        weights, biases, losses = reference_descend(nets[0].weights, nets[0].biases,
                                                    sets[0].features, sets[0].labels,
                                                    schedule)
        weights, biases, losses = [weights], [biases], losses[:, None]
    else:
        got = train_stack(nets, sets, schedule)
        stacked, biases_, losses = reference_descend(
            [np.stack(ws) for ws in zip(*(m.weights for m in nets))],
            [np.stack(bs) for bs in zip(*(m.biases for m in nets))],
            np.stack([ds.features for ds in sets]), np.stack([ds.labels for ds in sets]),
            schedule)
        weights = [[w[r] for w in stacked] for r in range(R)]
        biases = [[b[r] for b in biases_] for r in range(R)]
    for r, (model, report) in enumerate(got):
        for a, b in zip(model.weights + model.biases, weights[r] + biases[r], strict=True):
            assert np.array_equal(a, b)
        assert report.losses == losses[:, r].tolist()


@pytest.mark.parametrize("R, per_class", [(40, 40), (10, 20)])
def test_large_train_stack_equals_per_net_train(R, per_class):
    """Stacks as large as a 10-repeat iris chunk stacks (40 nets of 120
    rows, 10 of 60), in iris's 4-15-15-3 shape."""
    centers = [[5.0, 3.4, 1.5, 0.2], [5.9, 2.8, 4.3, 1.3], [6.6, 3.0, 5.6, 2.0]]
    sets = [make_toy_blobs(per_class, centers, 0.8, seed=60 + r) for r in range(R)]
    nets = [init_mlp(MlpSpec((4, 15, 15, 3), init_seed=r)) for r in range(R)]
    schedule = TrainSchedule(((0.1, 40), (0.05, 30)))
    test_ds = make_toy_blobs(10, centers, 0.8, seed=59)
    stacked = train_stack(nets, sets, schedule, test_ds=test_ds)
    for r in range(R):
        assert_same_training(stacked[r], train(nets[r], sets[r], schedule, test_ds=test_ds))


def test_train_stack_isolates_a_diverging_slice():
    sets = stack_sets(3, scale_first=1e8)
    nets = [init_mlp(MlpSpec((2, 6, 3), init_seed=r)) for r in range(3)]
    schedule = TrainSchedule(((0.4, 30), (0.1, 20)))
    stacked = train_stack(nets, sets, schedule)
    with pytest.raises(TrainingError) as alone:
        train(nets[0], sets[0], schedule)
    assert isinstance(stacked[0], TrainingError)
    assert str(stacked[0]) == str(alone.value)
    for r in (1, 2):
        assert_same_training(stacked[r], train(nets[r], sets[r], schedule))


def test_train_stack_rejects_mismatched_and_empty_input():
    schedule = TrainSchedule(((0.4, 5),))
    sets = stack_sets(2)
    nets = [init_mlp(MlpSpec((2, 6, 3), init_seed=r)) for r in range(2)]
    with pytest.raises(ValueError):
        train_stack([], [], schedule)
    with pytest.raises(ValueError):   # one dataset short
        train_stack(nets, sets[:1], schedule)
    with pytest.raises(ValueError, match="equally many rows"):
        train_stack(nets, [sets[0], sets[1].take(np.arange(30))], schedule)
    three_features = make_toy_blobs(per_class=12, centers=np.eye(3), spread=1.0, seed=0)
    with pytest.raises(ValueError, match="does not"):
        train_stack(nets, [sets[0], three_features], schedule)
    with pytest.raises(ValueError, match="architecture"):
        train_stack([nets[0], init_mlp(MlpSpec((2, 5, 3)))], sets, schedule)


# -- accuracy ---------------------------------------------------------------------

def test_accuracy_counting():
    spec = MlpSpec((1, 2, 2))
    # thresholds at x = 0.5: class 1 iff relu(x) > 0.5
    net = Mlp(spec,
              [np.array([[1.0], [0.0]]), np.array([[0.0, 0.0], [2.0, 0.0]])],
              [np.zeros(2), np.array([0.5, 0.0])])
    ds = Dataset(np.array([[0.0], [1.0], [2.0], [0.1]]),
                 np.array([0, 1, 1, 1]), ("a", "b"), ("f0",))
    # x=0.1 gives logits (0.5, 0.2) -> class 0, the other three are correct
    assert accuracy(net, ds) == pytest.approx(0.75)


def test_empty_dataset_is_unconstructible():
    with pytest.raises(ValueError):
        Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), ("a",), ("f0", "f1"))


# -- epoch scaling ------------------------------------------------------------------

@pytest.mark.parametrize("epochs,n_orig,n_new,expected", [
    (40, 38, 76, 20),
    (80, 120, 240, 40),
    (40, 38, 134, 11),   # 40*38/134 = 11.34...
    (10, 5, 1000, 1),    # floor at 1
    (40, 38, 38, 40),
])
def test_scale_epochs(epochs, n_orig, n_new, expected):
    assert scale_epochs(epochs, n_orig, n_new) == expected


def test_scale_schedule():
    sched = TrainSchedule(((0.5, 40), (0.2, 40)))
    scaled = scale_schedule(sched, 38, 76)
    assert scaled.phases == ((0.5, 20), (0.2, 20))


def test_scale_epochs_validation():
    with pytest.raises(ValueError):
        scale_epochs(0, 10, 10)
    with pytest.raises(ValueError):
        scale_epochs(10, 0, 10)

