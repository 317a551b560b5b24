"""Small feed-forward ReLU classifier trained by full-batch gradient descent.

Hidden layers use ReLU, the output layer softmax with cross-entropy loss.
Training is deliberately plain (no momentum, no mini-batches) so that a run
is a pure function of the initial weights and the schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, split_stratified
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
    """Sequential (learning_rate, epochs) phases plus an optional held-out
    validation fraction carved from the training data."""

    phases: tuple[tuple[float, int], ...]
    validation_fraction: float = 0.0

    def __post_init__(self):
        phases = tuple((float(lr), int(ep)) for lr, ep in self.phases)
        object.__setattr__(self, "phases", phases)
        if not phases:
            raise ValueError("schedule needs at least one phase")
        for lr, ep in phases:
            if lr <= 0:
                raise ValueError(f"learning rate must be positive, got {lr}")
            if ep < 1:
                raise ValueError(f"epochs must be >= 1, got {ep}")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in [0, 1)")

    @property
    def total_epochs(self) -> int:
        return sum(ep for _, ep in self.phases)


@dataclass
class TrainReport:
    losses: list[float] = field(default_factory=list)   # one entry per epoch
    train_accuracy: float = 0.0
    test_accuracy: float | None = None
    validation_accuracy: float | None = None


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


def _forward(mlp: Mlp, X: np.ndarray):
    """Returns (activations, pre_activations, probabilities, shifted logits,
    softmax denominators); the last two give the loss without a second pass."""
    acts = [X]
    zs = []
    a = X
    last = len(mlp.weights) - 1
    for l, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = a @ w.T + b
        zs.append(z)
        a = z if l == last else np.maximum(z, 0.0)
        acts.append(a)
    logits = zs[-1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    sums = expz.sum(axis=1, keepdims=True)
    probs = expz / sums
    return acts, zs, probs, shifted, sums


def predict_batch(mlp: Mlp, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != mlp.spec.d:
        raise ValueError(f"expected (n, {mlp.spec.d}) inputs, got {X.shape}")
    probs = _forward(mlp, X)[2]
    return np.argmax(probs, axis=1), probs


def predict(mlp: Mlp, x: np.ndarray) -> tuple[int, np.ndarray]:
    """Class index (argmax, ties to the lowest index) and probability vector."""
    x = np.asarray(x, dtype=float).ravel()
    if x.shape != (mlp.spec.d,):
        raise ValueError(f"expected input of length {mlp.spec.d}, got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("input contains non-finite entries")
    classes, probs = predict_batch(mlp, x[None, :])
    return int(classes[0]), probs[0]


def _mean_nll(shifted: np.ndarray, sums: np.ndarray, rows: np.ndarray,
              y: np.ndarray) -> float:
    """Mean cross-entropy from one forward pass's shifted logits and softmax
    denominators; `rows` is `arange(len(y))`."""
    return float(-(shifted[rows, y] - np.log(sums)[:, 0]).mean())


def cross_entropy_loss(mlp: Mlp, X: np.ndarray, y: np.ndarray) -> float:
    _, _, _, shifted, sums = _forward(mlp, np.asarray(X, dtype=float))
    return _mean_nll(shifted, sums, np.arange(len(y)), y)


def _onehot(y: np.ndarray, L: int) -> np.ndarray:
    onehot = np.zeros((len(y), L))
    onehot[np.arange(len(y)), y] = 1.0
    return onehot


def _backward(mlp: Mlp, acts, zs, probs, onehot: np.ndarray):
    """Mean cross-entropy gradients for every parameter and the input;
    `onehot` holds the true classes as rows of the identity."""
    delta = (probs - onehot) / len(onehot)
    dws, dbs = [None] * len(mlp.weights), [None] * len(mlp.biases)
    for l in range(len(mlp.weights) - 1, -1, -1):
        dws[l] = delta.T @ acts[l]
        dbs[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ mlp.weights[l]) * (zs[l - 1] > 0)
        else:
            delta = delta @ mlp.weights[l]
    return dws, dbs, delta   # final delta is dLoss/dX


def parameter_gradients(mlp: Mlp, X: np.ndarray, y: np.ndarray):
    acts, zs, probs, _, _ = _forward(mlp, np.asarray(X, dtype=float))
    dws, dbs, _ = _backward(mlp, acts, zs, probs,
                            _onehot(np.asarray(y, dtype=int), mlp.spec.L))
    return dws, dbs


def input_gradients(mlp: Mlp, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row gradient of that row's own cross-entropy loss w.r.t. the input."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    acts, zs, probs, _, _ = _forward(mlp, X)
    _, _, dX = _backward(mlp, acts, zs, probs, _onehot(y, mlp.spec.L))
    return dX * len(y)    # undo the batch-mean so each row stands alone


def input_gradient(mlp: Mlp, x: np.ndarray, true_class: int) -> np.ndarray:
    x = np.asarray(x, dtype=float).ravel()
    if x.shape != (mlp.spec.d,):
        raise ValueError(f"expected input of length {mlp.spec.d}, got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("input contains non-finite entries")
    if not 0 <= true_class < mlp.spec.L:
        raise ValueError(f"class index {true_class} out of range")
    return input_gradients(mlp, x[None, :], np.array([true_class]))[0]


def accuracy(mlp: Mlp, ds: Dataset) -> float:
    classes, _ = predict_batch(mlp, ds.features)
    return float(np.mean(classes == ds.labels))


def train(mlp: Mlp, train_ds: Dataset, schedule: TrainSchedule, seed: int,
          test_ds: Dataset | None = None) -> tuple[Mlp, TrainReport]:
    """Full-batch gradient descent over the schedule's phases in order.

    Returns a new model; the input model is not modified. The loss of epoch
    e is the loss of the weights after e's update, read off the forward pass
    that starts epoch e + 1 (after the last epoch, one extra forward pass,
    which also gives `train_accuracy`). A non-finite epoch loss aborts with
    an error naming the (1-based) epoch.
    """
    if train_ds.d != mlp.spec.d or train_ds.L != mlp.spec.L:
        raise ValueError(
            f"dataset shape ({train_ds.d} features, {train_ds.L} classes) does not "
            f"match spec {mlp.spec.layer_sizes}")
    fit_ds, val_ds = train_ds, None
    if schedule.validation_fraction > 0.0:
        val_seed = int(substream(seed, "val").integers(2**32))
        fit_ds, val_ds = split_stratified(
            train_ds, 1.0 - schedule.validation_fraction, val_seed)

    weights = [w.copy() for w in mlp.weights]
    biases = [b.copy() for b in mlp.biases]
    model = Mlp(mlp.spec, weights, biases)
    X, y = fit_ds.features, fit_ds.labels
    rows = np.arange(len(y))
    onehot = _onehot(y, mlp.spec.L)

    report = TrainReport()
    epoch = 0
    with np.errstate(over="ignore", invalid="ignore"):
        acts, zs, probs, _, _ = _forward(model, X)
        for lr, epochs in schedule.phases:
            for _ in range(epochs):
                epoch += 1
                dws, dbs, _ = _backward(model, acts, zs, probs, onehot)
                for l in range(len(weights)):
                    weights[l] -= lr * dws[l]
                    biases[l] -= lr * dbs[l]
                acts, zs, probs, shifted, sums = _forward(model, X)
                loss = _mean_nll(shifted, sums, rows, y)
                if not np.isfinite(loss):
                    raise TrainingError(f"training diverged at epoch {epoch}")
                report.losses.append(loss)

    report.train_accuracy = float(np.mean(np.argmax(probs, axis=1) == y))
    if val_ds is not None:
        report.validation_accuracy = accuracy(model, val_ds)
    if test_ds is not None:
        report.test_accuracy = accuracy(model, test_ds)
    return model, report


def scale_epochs(epochs: int, n_original: int, n_new: int) -> int:
    """Shrink (or grow) an epoch budget proportionally to the dataset-size
    change so augmented runs see a comparable number of weight updates."""
    if epochs < 1 or n_original < 1 or n_new < 1:
        raise ValueError("epochs and sizes must be positive")
    return max(1, round_half_up(epochs * n_original / n_new))


def scale_schedule(schedule: TrainSchedule, n_original: int, n_new: int) -> TrainSchedule:
    return TrainSchedule(
        tuple((lr, scale_epochs(ep, n_original, n_new)) for lr, ep in schedule.phases),
        schedule.validation_fraction,
    )
