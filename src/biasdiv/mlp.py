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


# numpy's reduction along a short last axis adds fewer than 8 columns one
# after another and 8 or more pairwise, so only below 8 does a sum column by
# column keep its bits
_PAIRWISE_FROM = 8
# epochs whose losses `_descend` finishes together
_LOSS_BLOCK = 8


def _row_sums(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`np.add.reduce(a, axis=-2, out=out)`, bit for bit. Wider than one
    column, both it and `einsum` add the rows one after another, and
    `einsum` is the cheaper; a single column is a contiguous sum, which
    numpy's reduction takes pairwise."""
    if a.shape[-1] > 1:
        return np.einsum("...nj->...j", a, out=out)
    return np.add.reduce(a, axis=-2, out=out)


def _class_sums(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`np.add.reduce(a, axis=-1, keepdims=True, out=out)`, bit for bit on
    the non-negative numerators of a softmax: column by column below
    `_PAIRWISE_FROM` columns, far cheaper than a reduction along the short
    axis."""
    classes = a.shape[-1]
    if not 1 < classes < _PAIRWISE_FROM:
        return np.add.reduce(a, axis=-1, keepdims=True, out=out)
    np.add(a[..., 0:1], a[..., 1:2], out=out)
    for j in range(2, classes):
        np.add(out, a[..., j:j + 1], out=out)
    return out


class _Pass:
    """One forward and backward pass over fixed inputs, with every
    intermediate allocated once and written with `out=`, so a pass can run
    every epoch without allocating.

    Rank-polymorphic: one net's (out, in) weights with (n, d) inputs, or a
    stack of nets with a leading axis on every array, slice r computed by
    the same operations, on the same matmul shapes, as net r alone. The
    weights and biases are read through views, so updating them in place
    shows in the next pass; each bias broadcasts against its layer's
    (..., n, out) output as (..., 1, out).

    ReLU and the softmax's shift overwrite their inputs, so the pass holds
    one buffer per layer, and one more for the probabilities when built for
    backward. Backward masks by the activations: relu(z) > 0 holds exactly
    where z > 0, NaN included. Bias gradients and softmax denominators go
    through `_row_sums` and `_class_sums`, which give the bits of numpy's
    reductions at less cost.
    """

    def __init__(self, weights, biases, X: np.ndarray, backward: bool = False):
        rows = X.shape[:-1]
        self.weights = weights
        self.weights_t = [w.swapaxes(-1, -2) for w in weights]
        self.bias_rows = [b[..., None, :] for b in biases]
        self.zs = [np.empty((*rows, w.shape[-2])) for w in weights]   # pre-activations
        self.acts = [X] + self.zs[:-1]                # each layer's input
        self.shifted = self.zs[-1]                    # logits minus each row's max
        self.top = np.empty((*rows, 1))
        self.top_flat = self.top[..., 0]
        self.sums = np.empty((*rows, 1))              # softmax denominators
        if not backward:
            self.probs = self.shifted
            return
        self.probs = np.empty_like(self.shifted)
        self.deltas = [np.empty_like(z) for z in self.zs]
        self.deltas_t = [d.swapaxes(-1, -2) for d in self.deltas]
        self.active = [np.empty(z.shape, dtype=bool) for z in self.zs[:-1]]

    def forward(self, sums: np.ndarray | None = None) -> np.ndarray:
        """The probabilities; the softmax denominators go to `sums` when
        given, else to the pass's own buffer. In a pass built for backward,
        `shifted` and the denominators then give the loss without a second
        pass."""
        sums = self.sums if sums is None else sums
        last = len(self.zs) - 1
        for l, z in enumerate(self.zs):
            np.matmul(self.acts[l], self.weights_t[l], out=z)
            np.add(z, self.bias_rows[l], out=z)
            if l < last:
                np.maximum(z, 0.0, out=z)
        logits = self.zs[-1]
        classes = logits.shape[-1]
        # each row's max, one class column at a time: exact in any order,
        # and far cheaper than a reduction along the short class axis (a
        # single class is its own max)
        np.maximum(logits[..., 0], logits[..., min(1, classes - 1)], out=self.top_flat)
        for j in range(2, classes):
            np.maximum(self.top_flat, logits[..., j], out=self.top_flat)
        np.subtract(logits, self.top, out=self.shifted)
        np.exp(self.shifted, out=self.probs)
        return np.divide(self.probs, _class_sums(self.probs, sums), out=self.probs)

    def backward(self, onehot: np.ndarray, dws=None, dbs=None) -> np.ndarray:
        """Mean cross-entropy gradients of the last forward pass, written
        into `dws` and `dbs` when given; returns the gradient with respect
        to the first layer's pre-activations."""
        delta = self.deltas[-1]
        np.subtract(self.probs, onehot, out=delta)
        np.divide(delta, onehot.shape[-2], out=delta)
        for l in range(len(self.zs) - 1, -1, -1):
            if dws is not None:
                np.matmul(self.deltas_t[l], self.acts[l], out=dws[l])
                _row_sums(delta, dbs[l])
            if l > 0:
                below = self.deltas[l - 1]
                np.matmul(delta, self.weights[l], out=below)
                np.greater(self.acts[l], 0.0, out=self.active[l - 1])
                delta = np.multiply(below, self.active[l - 1], out=below)
        return delta


def predict_batch(mlp: Mlp, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != mlp.spec.d:
        raise ValueError(f"expected (n, {mlp.spec.d}) inputs, got {X.shape}")
    probs = _Pass(mlp.weights, mlp.biases, X).forward()
    return np.argmax(probs, axis=1), probs


def _onehot(y: np.ndarray, L: int) -> np.ndarray:
    """The true classes as rows of the identity; `y` is (n,) or (R, n)."""
    onehot = np.zeros((*y.shape, L))
    np.put_along_axis(onehot, y[..., None], 1.0, axis=-1)
    return onehot


def input_gradients(mlp: Mlp, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row gradient of that row's own cross-entropy loss w.r.t. the input."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    p = _Pass(mlp.weights, mlp.biases, X, backward=True)
    p.forward()
    delta = p.backward(_onehot(y, mlp.spec.L))
    return (delta @ mlp.weights[0]) * len(y)    # undo the batch-mean so each row stands alone


def accuracy(mlp: Mlp, ds: Dataset) -> float:
    classes, _ = predict_batch(mlp, ds.features)
    return float(np.mean(classes == ds.labels))


def _check_shapes(mlp: Mlp, train_ds: Dataset) -> None:
    if train_ds.d != mlp.spec.d or train_ds.L != mlp.spec.L:
        raise ValueError(
            f"dataset shape ({train_ds.d} features, {train_ds.L} classes) does not "
            f"match spec {mlp.spec.layer_sizes}")


def _views(flat: np.ndarray, arrays) -> list:
    """Consecutive views into `flat`, one with each array's shape."""
    views, start = [], 0
    for a in arrays:
        views.append(flat[start:start + a.size].reshape(a.shape))
        start += a.size
    return views


def _descend(weights, biases, X, y, schedule: TrainSchedule):
    """The epoch loop of `train` and `train_stack`: updates `weights` and
    `biases` in place, for one net or a stack of nets (see `_Pass`; `y` is
    (n,) or (R, n), biases (out,) or (R, out)).

    A buffered kernel: the parameters are views into one flat array with a
    matching flat gradient array, so an epoch's update is two ufunc calls,
    and every intermediate of the epoch, the loss included, is written into
    a buffer allocated once per call. The arithmetic, and each slice's
    matmul shapes, are those of one net trained alone.

    Losses are finished in blocks of up to `_LOSS_BLOCK` epochs, none
    spanning two phases: each forward pass leaves its softmax denominators
    and true-class shifted logits in the block's row for its epoch, and the
    logarithm, the row sum and the mean run once per block, element for
    element the operations of one epoch's loss.

    Returns the losses, shape (epochs,) or (epochs, R); the probabilities
    of the last forward pass; and per net the 1-based epoch at which its
    loss first went non-finite, 0 if it never did. A net that diverges
    keeps its non-finite values in its own slice. Divergence is read off
    the losses at the end of each phase, not every epoch, and the descent
    stops there once every net has diverged.
    """
    arrays = [*weights, *biases]
    params = np.concatenate([a.ravel() for a in arrays])
    grads = np.empty_like(params)
    views, grad_views = _views(params, arrays), _views(grads, arrays)
    k = len(weights)
    p = _Pass(views[:k], views[k:], X, backward=True)
    onehot = _onehot(y, weights[-1].shape[-2])
    n = y.shape[-1]
    # flat index of each row's true-class logit in `p.shifted`
    true_logit = np.arange(y.size).reshape(y.shape) * onehot.shape[-1] + y
    flat_shifted = p.shifted.reshape(-1)
    block = min(_LOSS_BLOCK, max(epochs for _, epochs in schedule.phases))
    picked, sums = np.empty((block, *y.shape)), np.empty((block, *p.sums.shape))
    losses = np.empty((sum(epochs for _, epochs in schedule.phases), *y.shape[:-1]))
    done = 0
    with np.errstate(over="ignore", invalid="ignore"):
        p.forward()
        for lr, epochs in schedule.phases:
            for start in range(0, epochs, block):
                m = min(block, epochs - start)
                for i in range(m):
                    p.backward(onehot, grad_views[:k], grad_views[k:])
                    np.multiply(grads, lr, out=grads)
                    np.subtract(params, grads, out=params)
                    p.forward(sums[i])
                    # mode="clip" spares the copy numpy makes of `out` under "raise"
                    flat_shifted.take(true_logit, out=picked[i], mode="clip")
                # mean cross-entropy of the block's epochs
                np.log(sums[:m], out=sums[:m])
                np.subtract(picked[:m], sums[:m, ..., 0], out=picked[:m])
                loss = losses[done:done + m]
                np.add.reduce(picked[:m], axis=-1, out=loss)
                np.divide(loss, n, out=loss)
                np.negative(loss, out=loss)
                done += m
            if not np.isfinite(losses[:done]).all(axis=0).any():
                break
    losses = losses[:done]
    for a, view in zip(arrays, views):
        a[...] = view
    bad = ~np.isfinite(losses)
    diverged = np.where(bad.any(axis=0), bad.argmax(axis=0) + 1, 0)
    return losses, p.probs, diverged


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
    losses, probs, diverged = _descend(model.weights, model.biases, train_ds.features, y,
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
    losses, probs, diverged = _descend(weights, biases, X, y, schedule)
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
    change, so that rows x epochs (how many row gradients a run sums) stays
    comparable. Under full-batch descent an epoch is one weight update, so
    the number of updates does not: a set with half the rows gets twice the
    updates."""
    if epochs < 1 or n_original < 1 or n_new < 1:
        raise ValueError("epochs and sizes must be positive")
    return max(1, round_half_up(epochs * n_original / n_new))


def scale_schedule(schedule: TrainSchedule, n_original: int, n_new: int) -> TrainSchedule:
    return TrainSchedule(
        tuple((lr, scale_epochs(ep, n_original, n_new)) for lr, ep in schedule.phases))
