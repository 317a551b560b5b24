"""Noise probing: perturb correctly classified inputs with rising relative
noise, collect misclassifications, and score per-class robustness bias.

Noise is relative: a level of 0.05 perturbs feature j by up to 5% of that
feature's scale. Scales default to the max absolute value per feature over
the training data so zero-valued entries still receive noise.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import forking
from .data import Dataset
from .errors import BiasMetricError, ProbeError
from .mlp import Mlp, _Pass, input_gradients, predict_batch
from .numerics import substream

DEFAULT_LEVELS = tuple(round(i / 100, 2) for i in range(1, 41))

RANDOM_SWEEP = "random_sweep"
GRADIENT_SIGN = "gradient_sign"
BOTH = "both"


def feature_scales(features: np.ndarray) -> np.ndarray:
    """Per-feature noise scale: max |value| over the given rows."""
    scales = np.abs(np.asarray(features, dtype=float)).max(axis=0)
    return scales


@dataclass(frozen=True)
class NoiseSpec:
    """Probe configuration: which relative levels to sweep, how many random
    variants per input, and which attack routes to run."""

    levels: tuple[float, ...] = DEFAULT_LEVELS
    samples_per_input: int = 20
    attack: str = BOTH
    per_sample_scale: bool = False   # scale noise by |x_j| of each input instead

    def __post_init__(self):
        levels = tuple(float(v) for v in self.levels)
        object.__setattr__(self, "levels", levels)
        if not levels:
            raise ValueError("levels must be non-empty")
        if any(not 0.0 < v <= 1.0 for v in levels):
            raise ValueError("levels must lie in (0, 1]")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError("levels must be strictly increasing")
        if self.samples_per_input < 1:
            raise ValueError("samples_per_input must be >= 1")
        if self.attack not in (RANDOM_SWEEP, GRADIENT_SIGN, BOTH):
            raise ValueError(f"unknown attack '{self.attack}'")

    @property
    def random_enabled(self) -> bool:
        return self.attack in (RANDOM_SWEEP, BOTH)

    @property
    def gradient_enabled(self) -> bool:
        return self.attack in (GRADIENT_SIGN, BOTH)


@dataclass(frozen=True, eq=False)
class _Variants:
    """What every level of a sweep perturbs, in the order of a level's
    batch: `samples` random variants of each probed input, then one
    gradient-sign variant per probed input (either part may be absent)."""

    inputs: np.ndarray        # (n, d) the probed inputs
    rows: np.ndarray          # (n,) their rows in the test set
    labels: np.ndarray        # (n,) their classes
    scales: np.ndarray        # (n, d) their noise scales
    signs: np.ndarray | None  # (n, d) their loss gradients' signs, None without that route
    samples: int              # random variants per input, 0 without that route
    test_rows: int            # every test row draws its noise, probed or not
    generator: np.random.Generator | None   # the sweep's, before its first draw

    @property
    def n_random(self) -> int:
        return len(self.inputs) * self.samples

    def input_of(self, positions: np.ndarray) -> np.ndarray:
        """The probed input behind each of a level's variant positions."""
        n_random = self.n_random
        return np.where(positions < n_random, positions // max(self.samples, 1),
                        positions - n_random)

    def fill(self, level: float, random: np.ndarray, random_at, gradient: np.ndarray,
             gradient_at) -> None:
        """Variants at `level` of the inputs that `random_at` and
        `gradient_at` select: `random` holds the generator's doubles for
        the random ones and is overwritten with them, and the gradient-sign
        ones are written into `gradient`. `np.s_[:, None]` selects every
        input, broadcast over its samples. Each value takes the same
        elementwise steps however the inputs are selected, so it keeps its
        bits."""
        if random.size:
            _add_uniform(self.inputs[random_at], level * self.scales[random_at], random)
        if gradient.size:
            np.add(self.inputs[gradient_at],
                   level * self.scales[gradient_at] * self.signs[gradient_at], out=gradient)

    def rebuild(self, level: float, positions: np.ndarray, inputs: np.ndarray,
                draws: np.ndarray) -> np.ndarray:
        """A level's variants at `positions` (ascending; `inputs` are
        their probed inputs) as rows, from `draws`, the (test rows,
        samples, d) doubles that level drew."""
        d = self.inputs.shape[1]
        split = int(np.searchsorted(positions, self.n_random))
        noisy = np.empty((len(positions), d))
        if split:
            random = positions[:split]
            np.take(draws.reshape(-1, d),
                    self.rows[inputs[:split]] * self.samples + random % self.samples,
                    axis=0, out=noisy[:split])
        self.fill(level, noisy[:split], inputs[:split], noisy[split:], inputs[split:])
        return noisy


@dataclass(frozen=True, eq=False)
class Counterexamples:
    """The misclassified variants of a sweep, kept as where they sit in
    each level's batch (see `_Variants`) rather than as rows: at
    `levels[i]`, the variants at positions `wrong[i]` (ascending) were
    predicted as `predicted[i]`. Their order is level by level, then by
    position; `blocks` rebuilds their rows."""

    levels: tuple[float, ...]
    wrong: tuple[np.ndarray, ...]       # per level: (k_i,) int positions
    predicted: tuple[np.ndarray, ...]   # per level: (k_i,) int classes
    variants: _Variants

    def __post_init__(self):
        levels = tuple(float(level) for level in self.levels)
        wrong = tuple(np.asarray(w, dtype=np.intp) for w in self.wrong)
        predicted = tuple(np.asarray(p, dtype=np.intp) for p in self.predicted)
        if not len(levels) == len(wrong) == len(predicted):
            raise ValueError("counterexample levels, positions and predictions differ in count")
        for w, p in zip(wrong, predicted):
            if len(w) != len(p):
                raise ValueError("counterexample positions and predictions differ in length")
            if (self.variants.labels[self.variants.input_of(w)] == p).any():
                raise ValueError("a counterexample must be misclassified")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "wrong", wrong)
        object.__setattr__(self, "predicted", predicted)

    def __len__(self) -> int:
        return sum(len(w) for w in self.wrong)

    def blocks(self, start: int = 0, stop: int | None = None):
        """Counterexamples `start:stop`, one level at a time: for each
        level holding some of them, their input indices, true classes,
        predicted classes, levels and (k, d) noisy rows.

        A level's random variants are rebuilt from the doubles that level
        drew, from a copy of the sweep's generator. The generator spends one
        64-bit output per double, so the levels that hold none of these rows
        are skipped by advancing it past their draws; the rows hold the bits
        the sweep probed."""
        v = self.variants
        stop = len(self) if stop is None else min(stop, len(self))
        rng = copy.deepcopy(v.generator) if v.samples and start < stop else None
        draws = None if rng is None else np.empty((v.test_rows, v.samples, v.inputs.shape[1]))
        begin = drawn = 0   # drawn: the levels whose doubles `rng` has spent
        for li, (level, wrong, predicted) in enumerate(
                zip(self.levels, self.wrong, self.predicted)):
            if begin >= stop:
                break
            lo, hi = max(start - begin, 0), min(stop - begin, len(wrong))
            begin += len(wrong)
            if lo >= hi:
                continue
            if rng is not None:
                rng.bit_generator.advance((li - drawn) * draws.size)
                rng.random(out=draws)
                drawn = li + 1
            positions = wrong[lo:hi]
            inputs = v.input_of(positions)
            yield (v.rows[inputs], v.labels[inputs], predicted[lo:hi],
                   np.full(hi - lo, level), v.rebuild(level, positions, inputs, draws))


@dataclass
class ProbeReport:
    delta_x_max: float                 # largest all-safe relative noise level
    R: np.ndarray                      # per-class misclassified:correct variant ratio
    mu: np.ndarray                     # per-class misclassified variant percentage
    b_r: float                         # robustness bias score
    counterexamples: Counterexamples
    per_level_misclassification: dict[float, np.ndarray]   # level -> per-class counts
    probed_per_class: np.ndarray       # correctly classified clean inputs per class
    variants_per_class: np.ndarray     # noisy variants probed per class (all levels)


def format_level(level: float) -> str:
    """A noise level as the reports write it: two decimals when they read
    back as the same float (every shipped level), else its `repr`, so
    distinct levels never share a key."""
    text = f"{level:.2f}"
    return text if float(text) == level else repr(float(level))


def _add_uniform(x: np.ndarray, bound: np.ndarray, u: np.ndarray) -> None:
    """Overwrite `u`, a generator's doubles from `random`, with
    `x + Generator.uniform(-bound, bound)` of the same draws: numpy computes
    `low + (high - low) * u` per entry, so this is the same arithmetic, run
    in place (IEEE addition and multiplication commute bit for bit)."""
    np.multiply(u, bound - -bound, out=u)
    np.add(-bound, u, out=u)
    np.add(x, u, out=u)


def compute_bias(per_class_misclassified, per_class_correct):
    """R, mu and the bias score from per-class variant counts.

    b_r = max_i |R_i - mean_{j != i} R_j|; a single-class dataset has no
    other classes to compare against, so its score is 0.
    """
    m = np.asarray(per_class_misclassified, dtype=float)
    c = np.asarray(per_class_correct, dtype=float)
    if m.shape != c.shape or m.ndim != 1:
        raise ValueError("count vectors must be 1-D and the same length")
    if (m < 0).any() or (c < 0).any():
        raise ValueError("counts must be non-negative")
    for i, ci in enumerate(c):
        if ci == 0:
            raise BiasMetricError(
                f"class {i} has no correctly classified variants; ratio undefined")
    R = m / c
    mu = 100.0 * m / (m + c)
    L = len(R)
    if L == 1:
        return R, mu, 0.0
    total = R.sum()
    b_r = max(abs(R[i] - (total - R[i]) / (L - 1)) for i in range(L))
    return R, mu, float(b_r)


def noise_sweep(mlp: Mlp, test: Dataset, spec: NoiseSpec, seed: int,
                scales: np.ndarray | None = None) -> ProbeReport:
    """Probe every correctly classified input at every noise level.

    The random variants come from one generator per sweep,
    `substream(seed, "probe")`, drawn level by level for every test row,
    probed or not. So a row's noise depends only on the seed, the shape
    of the sweep and the row's index and level, and is the same in every
    leg probed on one test set with that seed. The counterexamples keep
    only which variants each level got wrong and as what, and a copy of
    the generator from which `Counterexamples.blocks` rebuilds their rows.
    `scales` should come from the training features; they default to the
    probed set's own scales when omitted.
    """
    if test.d != mlp.spec.d or test.L != mlp.spec.L:
        raise ValueError("model and dataset shapes disagree")
    if scales is None:
        scales = feature_scales(test.features)
    scales = np.asarray(scales, dtype=float)

    clean_pred, _ = predict_batch(mlp, test.features)
    correct_mask = clean_pred == test.labels
    probed_idx = np.flatnonzero(correct_mask)
    if len(probed_idx) == 0:
        raise ProbeError("the model classifies no input correctly; nothing to probe")

    X = test.features[probed_idx]
    y = test.labels[probed_idx]
    L = test.L
    probed_per_class = np.bincount(y, minlength=L)

    if spec.per_sample_scale:
        per_input_scales = np.abs(X)
    else:
        per_input_scales = np.broadcast_to(scales, X.shape)

    signs = None
    if spec.gradient_enabled:
        signs = np.sign(input_gradients(mlp, X, y))

    # Every level probes the same variants: `samples_per_input` random ones
    # per input, then one gradient-sign variant per input. Their rows,
    # labels and counts are fixed; only the noisy inputs change per level.
    n, d = X.shape
    S = spec.samples_per_input if spec.random_enabled else 0
    rng = substream(seed, "probe") if spec.random_enabled else None
    variants = _Variants(X, probed_idx, y, per_input_scales, signs, S, test.n,
                         copy.deepcopy(rng))
    parts = [np.repeat(np.arange(n), S)]
    if spec.gradient_enabled:
        parts.append(np.arange(n))
    v_labels = y[np.concatenate(parts)]
    level_variants = np.bincount(v_labels, minlength=L)
    n_random = variants.n_random
    batch = np.empty((len(v_labels), d))
    random_block = batch[:n_random].reshape(n, S, d)    # a view: (input, sample, d)
    batch_pass = _Pass(mlp.weights, mlp.biases, batch)  # reads `batch` as refilled
    draws = np.empty((test.n, S, d))

    wrong_at, predicted_at = [], []   # per level: the misclassified positions, their classes
    per_level: dict[float, np.ndarray] = {}
    misclassified = np.zeros(L, dtype=int)
    variants_total = np.zeros(L, dtype=int)
    first_bad_level = None

    for li, level in enumerate(spec.levels):
        if rng is not None:
            rng.random(out=draws)
            np.take(draws, probed_idx, axis=0, out=random_block)
        variants.fill(level, random_block, np.s_[:, None], batch[n_random:], np.s_[:])

        pred = np.argmax(batch_pass.forward(), axis=1)
        wrong = np.flatnonzero(pred != v_labels)
        wrong_at.append(wrong)
        predicted_at.append(pred[wrong])

        level_counts = np.bincount(v_labels[wrong], minlength=L)
        per_level[level] = level_counts
        misclassified += level_counts
        variants_total += level_variants
        if len(wrong) and first_bad_level is None:
            first_bad_level = li

    if first_bad_level is None:
        delta_x_max = spec.levels[-1]
    elif first_bad_level == 0:
        delta_x_max = 0.0
    else:
        delta_x_max = spec.levels[first_bad_level - 1]

    correct = variants_total - misclassified
    R, mu, b_r = compute_bias(misclassified, correct)
    return ProbeReport(
        delta_x_max=float(delta_x_max),
        R=R,
        mu=mu,
        b_r=b_r,
        counterexamples=Counterexamples(spec.levels, wrong_at, predicted_at, variants),
        per_level_misclassification=per_level,
        probed_per_class=probed_per_class,
        variants_per_class=variants_total,
    )


def probe_report_to_json(report: ProbeReport, class_names=None) -> dict:
    doc = {
        "delta_x_max": report.delta_x_max,
        "R": report.R.tolist(),
        "mu": report.mu.tolist(),
        "b_r": report.b_r,
        "probed_per_class": report.probed_per_class.tolist(),
        "variants_per_class": report.variants_per_class.tolist(),
        "counterexample_count": len(report.counterexamples),
        "per_level_misclassification": {
            format_level(level): counts.tolist()
            for level, counts in report.per_level_misclassification.items()
        },
    }
    if class_names is not None:
        doc["class_names"] = list(class_names)
    return doc


def save_probe_report(report: ProbeReport, path, class_names=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(probe_report_to_json(report, class_names), fh, indent=2)
        fh.write("\n")


def _write_rows(fh, cex: Counterexamples, start: int, stop: int) -> None:
    """Counterexamples `start:stop` as CSV bytes into the binary file `fh`,
    formatted in chunks of at most `_CHUNK_ROWS` rows by
    `floattext.csv_rows` (each float the bytes of its `repr`). A chunk may
    span levels, so small levels share one, and no more rows than a chunk
    are formatted at once."""
    from .floattext import csv_rows
    pending, count = [], 0
    for block in cex.blocks(start, stop):
        lo, rows = 0, len(block[0])
        while lo < rows:
            take = min(_CHUNK_ROWS - count, rows - lo)
            pending.append([column[lo:lo + take] for column in block])
            count, lo = count + take, lo + take
            if count == _CHUNK_ROWS:
                fh.write(csv_rows(*map(np.concatenate, zip(*pending)), format_level))
                pending, count = [], 0
    if pending:
        fh.write(csv_rows(*map(np.concatenate, zip(*pending)), format_level))


# Rows formatted at once: bounds the formatter's buffers, whatever the CSV's size.
_CHUNK_ROWS = 1024

# Timed on a 2-vCPU VM, one process against a forked helper, on iris sweeps
# of 4 features (medians of 41 interleaved writes): they broke even at 41k
# floats (27.7 and 27.9 ms); the helper was 52 % slower at 32k floats and
# 23 % faster at 51k.
_MIN_BLOCK_VALUES = 20_000


def _helper_start(rows: int, values: int) -> int:
    """The first row a forked helper writes of a CSV of `rows` rows holding
    `values` floats: the middle one where each half holds at least one row
    and `_MIN_BLOCK_VALUES` floats and `forking.fork_context` allows a
    helper, else `rows`, as this process then writes every row."""
    if rows >= 2 and values >= 2 * _MIN_BLOCK_VALUES and forking.fork_context(2) is not None:
        return rows // 2
    return rows


def write_counterexamples_csv(report: ProbeReport, path, feature_names) -> None:
    """One row per counterexample, in the bytes `csv.writer` would write;
    the header goes through `csv` so feature names keep their quoting.

    Where `_helper_start` splits the rows, the two blocks go through
    `forking.fan_out`: a forked helper writes the second half of the rows
    to a temporary part file beside `path` while this process writes the
    header and the first half to `path`; the part is then appended, so the
    bytes are the same either way. The helper inherits the counterexamples
    rather than have them pickled, and rebuilds, formats and writes only
    its own rows. The part file is removed before this returns, and an
    error in the helper is raised here as `fan_out` raises it.
    """
    cex = report.counterexamples
    half = _helper_start(len(cex), len(cex) * cex.variants.inputs.shape[1])
    target = Path(path)
    header = io.StringIO(newline="")
    csv.writer(header).writerow(["input_index", "true_class", "predicted_class",
                                 "level"] + list(feature_names))

    def write(block):
        start, stop, file = block
        with open(file, "wb") as fh:
            if start == 0:   # the first block, into `path`
                fh.write(header.getvalue().encode("utf-8"))
            _write_rows(fh, cex, start, stop)

    blocks, part = [(0, half, target)], None
    try:
        if half < len(cex):
            fd, part = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.",
                                        suffix=".part")
            os.close(fd)
            blocks.append((half, len(cex), part))
        forking.fan_out(write, blocks)
        if part is not None:
            with open(target, "ab") as out, open(part, "rb") as src:
                shutil.copyfileobj(src, out)
    finally:
        if part is not None:
            Path(part).unlink(missing_ok=True)
