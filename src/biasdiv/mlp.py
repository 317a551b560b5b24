"""Small feed-forward ReLU classifier trained by full-batch gradient descent.

Hidden layers use ReLU, the output layer softmax with cross-entropy loss.
Training is deliberately plain (no momentum, no mini-batches) so that a run
is a pure function of the initial weights and the schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import TrainingError
from .numerics import round_half_up, substream


@dataclass(frozen=True)
class MlpSpec:
    """Architecture: (d, h_1, ..., L) with at least one hidden layer."""

    layer_sizes: tuple[int, ...]
    init_seed: int = 0

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 3:
            raise ValueError("need at least one hidden layer: (d, h..., L)")
        if any(s < 1 for s in sizes):
            raise ValueError(f"layer sizes must be positive, got {sizes}")

    @property
    def d(self) -> int:
        return self.layer_sizes[0]

    @property
    def L(self) -> int:
        return self.layer_sizes[-1]


@dataclass
class Mlp:
    spec: MlpSpec
    weights: list[np.ndarray]   # weights[l] has shape (out_l, in_l)
    biases: list[np.ndarray]    # biases[l] has shape (out_l,)

    def __post_init__(self):
        sizes = self.spec.layer_sizes
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise ValueError("parameter count does not match spec")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[l + 1], sizes[l]) or b.shape != (sizes[l + 1],):
                raise ValueError(f"layer {l} parameter shapes do not match spec")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {l} contains non-finite parameters")


@dataclass(frozen=True)
class TrainSchedule:
    """Sequential (learning_rate, epochs) phases."""

    phases: tuple[tuple[float, int], ...]

    def __post_init__(self):
        phases = tuple((float(lr), int(ep)) for lr, ep in self.phases)
        object.__setattr__(self, "phases", phases)
        if not phases:
            raise ValueError("phases must be non-empty")
        for lr, ep in phases:
            if not (math.isfinite(lr) and lr > 0):
                raise ValueError(f"learning rate must be positive and finite, got {lr}")
            if ep < 1:
                raise ValueError(f"epochs must be >= 1, got {ep}")


@dataclass
class TrainReport:
    losses: list[float] = field(default_factory=list)   # one entry per epoch
    train_accuracy: float = 0.0
    test_accuracy: float | None = None


def init_mlp(spec: MlpSpec) -> Mlp:
    """Seeded uniform(+-sqrt(6/(fan_in+fan_out))) weights, zero biases."""
    weights, biases = [], []
    sizes = spec.layer_sizes
    for l in range(len(sizes) - 1):
        fan_in, fan_out = sizes[l], sizes[l + 1]
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        rng = substream(spec.init_seed, "init", l)
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Mlp(spec, weights, biases)


def _forward(weights, biases, X: np.ndarray):
    """Returns (activations, pre_activations, probabilities, shifted logits,
    softmax denominators); the last two give the loss without a second pass.

    Rank-polymorphic: one net's (out, in) weights with (n, d) inputs, or a
    stack of nets with a leading axis on every array, slice r computed by
    the same operations as net r alone. Each bias broadcasts against its
    layer's (..., n, out) output: (out,) for one net, (R, 1, out) for a
    stack.
    """
    acts = [X]
    zs = []
    a = X
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
    probs = expz / sums
    return acts, zs, probs, shifted, sums


def predict_batch(mlp: Mlp, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != mlp.spec.d:
        raise ValueError(f"expected (n, {mlp.spec.d}) inputs, got {X.shape}")
    probs = _forward(mlp.weights, mlp.biases, X)[2]
    return np.argmax(probs, axis=1), probs


def _mean_nll(shifted: np.ndarray, sums: np.ndarray, pick) -> np.ndarray:
    """Mean cross-entropy from one forward pass's shifted logits and softmax
    denominators, per net; `pick` indexes each row's true-class logit:
    `(arange(n), y)` for one net, `(arange(R)[:, None], arange(n), y)` for
    a stack."""
    return -(shifted[pick] - np.log(sums)[..., 0]).mean(axis=-1)


def _onehot(y: np.ndarray, L: int) -> np.ndarray:
    """The true classes as rows of the identity; `y` is (n,) or (R, n)."""
    onehot = np.zeros((*y.shape, L))
    np.put_along_axis(onehot, y[..., None], 1.0, axis=-1)
    return onehot


def _backward(weights, acts, zs, probs, onehot: np.ndarray):
    """Mean cross-entropy gradients for every parameter, and the gradient
    with respect to the first layer's pre-activations; rank-polymorphic
    like `_forward`."""
    delta = (probs - onehot) / onehot.shape[-2]
    dws, dbs = [None] * len(weights), [None] * len(weights)
    for l in range(len(weights) - 1, -1, -1):
        dws[l] = delta.swapaxes(-1, -2) @ acts[l]
        dbs[l] = delta.sum(axis=-2)
        if l > 0:
            delta = (delta @ weights[l]) * (zs[l - 1] > 0)
    return dws, dbs, delta


def input_gradients(mlp: Mlp, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row gradient of that row's own cross-entropy loss w.r.t. the input."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    acts, zs, probs, _, _ = _forward(mlp.weights, mlp.biases, X)
    _, _, delta = _backward(mlp.weights, acts, zs, probs, _onehot(y, mlp.spec.L))
    return (delta @ mlp.weights[0]) * len(y)    # undo the batch-mean so each row stands alone


def accuracy(mlp: Mlp, ds: Dataset) -> float:
    classes, _ = predict_batch(mlp, ds.features)
    return float(np.mean(classes == ds.labels))


def _check_shapes(mlp: Mlp, train_ds: Dataset) -> None:
    if train_ds.d != mlp.spec.d or train_ds.L != mlp.spec.L:
        raise ValueError(
            f"dataset shape ({train_ds.d} features, {train_ds.L} classes) does not "
            f"match spec {mlp.spec.layer_sizes}")


def _descend(weights, biases, X, onehot, pick, schedule: TrainSchedule):
    """The epoch loop of `train` and `train_stack`: updates `weights` and
    `biases` in place, for one net or a stack of nets (see `_forward`;
    biases here are (out,) or (R, out)).

    Returns the losses, shape (epochs,) or (epochs, R); the probabilities
    of the last forward pass; and per net the 1-based epoch at which its
    loss first went non-finite, 0 if it never did. A net that diverges
    keeps its non-finite values in its own slice. Divergence is read off
    the losses at the end of each phase, not every epoch, and the descent
    stops there once every net has diverged.
    """
    bias_rows = [b[..., None, :] for b in biases]   # views: updates show through
    losses = []
    with np.errstate(over="ignore", invalid="ignore"):
        acts, zs, probs, _, _ = _forward(weights, bias_rows, X)
        for lr, epochs in schedule.phases:
            for _ in range(epochs):
                dws, dbs, _ = _backward(weights, acts, zs, probs, onehot)
                for l in range(len(weights)):
                    weights[l] -= lr * dws[l]
                    biases[l] -= lr * dbs[l]
                acts, zs, probs, shifted, sums = _forward(weights, bias_rows, X)
                losses.append(_mean_nll(shifted, sums, pick))
            if not np.isfinite(losses).all(axis=0).any():
                break
    losses = np.array(losses)
    bad = ~np.isfinite(losses)
    diverged = np.where(bad.any(axis=0), bad.argmax(axis=0) + 1, 0)
    return losses, probs, diverged


def _diverged(epoch) -> TrainingError:
    return TrainingError(f"training diverged at epoch {epoch}")


def _report(model: Mlp, losses: np.ndarray, train_accuracy, test_ds) -> TrainReport:
    report = TrainReport(losses=losses.tolist(), train_accuracy=float(train_accuracy))
    if test_ds is not None:
        report.test_accuracy = accuracy(model, test_ds)
    return report


def train(mlp: Mlp, train_ds: Dataset, schedule: TrainSchedule,
          test_ds: Dataset | None = None) -> tuple[Mlp, TrainReport]:
    """Full-batch gradient descent on every row of `train_ds`, over the
    schedule's phases in order.

    Returns a new model; the input model is not modified. The loss of epoch
    e is the loss of the weights after e's update, read off the forward pass
    that starts epoch e + 1 (after the last epoch, one extra forward pass,
    which also gives `train_accuracy`). A non-finite epoch loss aborts with
    an error naming the (1-based) epoch.
    """
    _check_shapes(mlp, train_ds)
    model = Mlp(mlp.spec, [w.copy() for w in mlp.weights], [b.copy() for b in mlp.biases])
    y = train_ds.labels
    losses, probs, diverged = _descend(model.weights, model.biases, train_ds.features,
                                       _onehot(y, mlp.spec.L), (np.arange(len(y)), y),
                                       schedule)
    if diverged:
        raise _diverged(int(diverged))
    return model, _report(model, losses, np.mean(np.argmax(probs, axis=1) == y), test_ds)


def train_stack(mlps, datasets, schedule: TrainSchedule,
                test_ds: Dataset | None = None) -> list:
    """Train R nets of one architecture as one `(R, out, in)` weight stack.

    Slice r sees exactly the arithmetic of `train(mlps[r], datasets[r],
    schedule, test_ds)`, so its weights, losses and accuracies are
    bit-identical to that call's. The sets must have equally many rows.
    Returns, per slice, the `(Mlp, TrainReport)` that `train` returns or
    the `TrainingError` it would raise; a slice that diverges does not
    stop the others.
    """
    mlps, datasets = list(mlps), list(datasets)
    if not mlps or len(datasets) != len(mlps):
        raise ValueError("need one dataset per net, and at least one net")
    if len({m.spec.layer_sizes for m in mlps}) != 1:
        raise ValueError("stacked nets must share one architecture")
    for mlp, ds in zip(mlps, datasets):
        _check_shapes(mlp, ds)
    if len({ds.n for ds in datasets}) != 1:
        raise ValueError("stacked sets must have equally many rows, got "
                         f"{[ds.n for ds in datasets]}")

    weights = [np.stack(ws) for ws in zip(*(m.weights for m in mlps))]
    biases = [np.stack(bs) for bs in zip(*(m.biases for m in mlps))]
    X = np.stack([ds.features for ds in datasets])
    y = np.stack([ds.labels for ds in datasets])
    pick = (np.arange(len(mlps))[:, None], np.arange(y.shape[1]), y)
    losses, probs, diverged = _descend(weights, biases, X, _onehot(y, mlps[0].spec.L),
                                       pick, schedule)
    correct = np.argmax(probs, axis=-1) == y
    results = []
    for r, mlp in enumerate(mlps):
        if diverged[r]:
            results.append(_diverged(int(diverged[r])))
            continue
        model = Mlp(mlp.spec, mlp.weights, mlp.biases)
        # like `train`, which checks the net before its descent, not after
        model.weights = [w[r].copy() for w in weights]
        model.biases = [b[r].copy() for b in biases]
        results.append((model, _report(model, losses[:, r], np.mean(correct[r]), test_ds)))
    return results


def scale_epochs(epochs: int, n_original: int, n_new: int) -> int:
    """Shrink (or grow) an epoch budget proportionally to the dataset-size
    change so augmented runs see a comparable number of weight updates."""
    if epochs < 1 or n_original < 1 or n_new < 1:
        raise ValueError("epochs and sizes must be positive")
    return max(1, round_half_up(epochs * n_original / n_new))


def scale_schedule(schedule: TrainSchedule, n_original: int, n_new: int) -> TrainSchedule:
    return TrainSchedule(
        tuple((lr, scale_epochs(ep, n_original, n_new)) for lr, ep in schedule.phases))
