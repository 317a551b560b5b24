"""Dataset diversification: per-class bound construction, overlap
tightening, top-k feature clustering, synthetic sampling, redundancy
minimization and correlation validation.

The pipeline widens each class's per-feature bounds by the measured noise
tolerance, carves away regions contested between classes, narrows the most
compact features to their dominant cluster, then draws synthetic rows
uniformly inside the surviving region.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, segment_by_class
from .numerics import (
    CorrMatrix,
    Interval,
    IntervalSet,
    kmeans,
    kmeans_1d,
    pearson_corr,
    relax_interval,
    round_half_up,
    substream,
)
from .probe import ProbeReport, feature_scales

FULL = "full"
SYNTH_ONLY = "synth_only"
DELETE_ONLY = "delete_only"


def derive_seed(seed: int, *labels) -> int:
    """Stable integer seed for a named pipeline stage."""
    return int(substream(seed, *labels).integers(2 ** 63))


@dataclass(frozen=True)
class ClassBounds:
    """Per class, per feature: the region the class is allowed to occupy.

    `notes` records each tightening and each final bound that reverted
    because the intersection would have emptied a region, so reruns can be
    audited.
    """

    per_class: tuple[tuple[IntervalSet, ...], ...]   # [class][feature]
    notes: tuple[str, ...] = ()

    def get(self, class_index: int, feature: int) -> IntervalSet:
        return self.per_class[class_index][feature]


@dataclass(frozen=True)
class DiversifyConfig:
    top_k: int
    removal_fraction: float = 0.5
    corr_threshold: float = 25.0
    clusters: int = 2                 # for compactness scoring and final bounds
    max_retries: int = 100

    def __post_init__(self):
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if not 0.0 <= self.removal_fraction < 1.0:
            raise ValueError("removal_fraction must be in [0, 1)")
        if self.corr_threshold <= 0:
            raise ValueError("corr_threshold must be positive")
        if self.clusters < 1:
            raise ValueError("clusters must be >= 1")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")


@dataclass
class ValidationReport:
    corr_diff: float
    attempts_made: int    # synthesis attempts run
    best_attempt: int     # the attempt whose rows were kept (0: none ran)
    passed: bool
    diagnostic: str | None = None


@dataclass
class DiversifiedDataset:
    dataset: Dataset
    validation: ValidationReport
    bounds: ClassBounds               # final per-class sampling regions
    top_features: list[int]
    chi: np.ndarray                   # synthetic rows requested per class
    removed_per_class: np.ndarray     # rows dropped by redundancy minimization


# ---------------------------------------------------------------------------
# Bound construction
# ---------------------------------------------------------------------------

def global_extremum(parts: tuple[Dataset, ...], delta_x_max: float,
                    scales: np.ndarray) -> ClassBounds:
    """Per-class feature extrema widened by the relative noise tolerance;
    `parts` is `segment_by_class` of the training set."""
    scales = np.asarray(scales, dtype=float)
    per_class = []
    for ds in parts:
        sets = []
        for f in range(ds.d):
            col = ds.features[:, f]
            base = Interval(float(col.min()), float(col.max()))
            sets.append(IntervalSet((relax_interval(base, delta_x_max * scales[f]),)))
        per_class.append(tuple(sets))
    return ClassBounds(tuple(per_class))


def _match_rule(p: Interval, q: Interval):
    """Tightening rule for one interval pair, if any applies.

    Roles follow the geometry, not class order: the lower-starting interval
    plays "i". All comparisons strict; shared endpoints fire nothing.
    """
    if p.lo == q.lo:
        return None
    low, high, swapped = (p, q, False) if p.lo < q.lo else (q, p, True)
    if low.lo < high.lo < low.hi < high.hi:
        new_low = (Interval(low.lo, high.lo),)
        new_high = (Interval(low.hi, high.hi),)
        return new_low, new_high, swapped
    if low.lo < high.lo and high.hi < low.hi:
        new_low = (Interval(low.lo, high.lo), Interval(high.hi, low.hi))
        new_high = (high,)
        return new_low, new_high, swapped
    return None


def _first_rule(a: list[Interval], b: list[Interval]):
    """The first (i, j, rule) over a[i] x b[j] in scan order, or None."""
    for i, p in enumerate(a):
        for j, q in enumerate(b):
            rule = _match_rule(p, q)
            if rule is not None:
                return i, j, rule
    return None


def _tighten_pair(sa: IntervalSet, sb: IntervalSet):
    """Fixpoint of the pairwise rules between two classes on one feature.

    It is always reached. Each firing replaces one or both matched
    intervals by strict sub-intervals with disjoint interiors, cut at an
    endpoint of the other interval that lay inside it, so it strictly
    reduces the overlap between the two sets: no new endpoint value
    appears, and the count of (endpoint value, interval holding it in its
    interior) pairs drops by at least one. The pieces are non-empty and
    keep each set's interiors disjoint, so no `Interval` or `IntervalSet`
    check can fail.
    """
    a, b = list(sa.intervals), list(sb.intervals)
    fired = False
    while (hit := _first_rule(a, b)) is not None:
        i, j, (new_low, new_high, swapped) = hit
        if swapped:
            a[i:i + 1] = list(new_high)
            b[j:j + 1] = list(new_low)
        else:
            a[i:i + 1] = list(new_low)
            b[j:j + 1] = list(new_high)
        a.sort(key=lambda iv: iv.lo)
        b.sort(key=lambda iv: iv.lo)
        fired = True
    return IntervalSet(tuple(a)), IntervalSet(tuple(b)), fired


def tighten_overlaps(bounds: ClassBounds) -> ClassBounds:
    """Resolve inter-class overlaps feature by feature.

    Partially overlapping classes both surrender the contested region;
    a class completely containing another keeps everything except the
    contained class's span (its interval becomes a two-piece union).
    """
    per_class = [list(sets) for sets in bounds.per_class]
    notes = list(bounds.notes)
    L = len(per_class)
    d = len(per_class[0]) if per_class else 0
    for f in range(d):
        for a in range(L):
            for b in range(a + 1, L):
                per_class[a][f], per_class[b][f], fired = _tighten_pair(
                    per_class[a][f], per_class[b][f])
                if fired:
                    notes.append(f"tightened classes {a},{b} on feature {f}")
    return ClassBounds(tuple(tuple(sets) for sets in per_class), tuple(notes))


@dataclass(frozen=True)
class DominantClusters:
    """Per class and feature, the largest cluster of the class's values
    under exact 1-D k-means (`numerics.kmeans_1d`); equal sizes go to the
    lowest-valued cluster."""

    lo: np.ndarray        # (L, d) smallest member
    hi: np.ndarray        # (L, d) largest member
    radius: np.ndarray    # (L, d) farthest member's distance from the cluster mean


def dominant_clusters(parts: tuple[Dataset, ...], c: int) -> DominantClusters:
    """One `kmeans_1d` over all features per class; `parts` is
    `segment_by_class` of the training set."""
    lo, hi, radius = [], [], []
    for ds in parts:
        result = kmeans_1d(ds.features, c)
        cols = np.arange(ds.d)
        dominant = np.argmax(np.diff(result.bounds, axis=0), axis=0)   # ties -> lowest
        first = result.values[result.bounds[dominant, cols], cols]
        last = result.values[result.bounds[dominant + 1, cols] - 1, cols]
        centroid = result.centroids[dominant, cols]
        lo.append(first)
        hi.append(last)
        radius.append(np.maximum(centroid - first, last - centroid))
    return DominantClusters(np.array(lo), np.array(hi), np.array(radius))


def top_k_features(clusters: DominantClusters, k: int) -> list[int]:
    """The k features whose per-class values cluster most tightly.

    Compactness of a feature is the worst case over classes of the distance
    from the dominant cluster's centroid to its farthest member; smaller
    means the classes sit in tighter, more characteristic ranges.
    """
    d = clusters.radius.shape[1]
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}], got {k}")
    compactness = clusters.radius.max(axis=0)
    order = np.argsort(compactness, kind="stable")   # ties -> lower index
    return sorted(int(f) for f in order[:k])


def final_bounds(bounds: ClassBounds, top: list[int],
                 clusters: DominantClusters) -> ClassBounds:
    """Narrow each top feature to the span of its class's dominant cluster."""
    per_class = [list(sets) for sets in bounds.per_class]
    notes = list(bounds.notes)
    for f in top:
        for i in range(len(per_class)):
            window = Interval(float(clusters.lo[i, f]), float(clusters.hi[i, f]))
            clipped = per_class[i][f].intersect(window)
            if clipped is None:
                notes.append(
                    f"final bounds reverted for class {i} feature {f}: "
                    f"dominant cluster lies outside the tightened region")
            else:
                per_class[i][f] = clipped
    return ClassBounds(tuple(tuple(sets) for sets in per_class), tuple(notes))


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

def synth_counts(mu, base: int) -> np.ndarray:
    """Synthetic rows per class, proportional to misclassification rates.

    The least-misclassified (but still affected) class anchors the scale at
    `base`; unaffected classes receive the base count as well. A fully
    clean probe requests nothing.
    """
    mu = np.asarray(mu, dtype=float)
    if (mu < 0).any():
        raise ValueError("mu percentages must be non-negative")
    if base < 1:
        raise ValueError("base must be >= 1")
    positive = mu[mu > 0]
    if len(positive) == 0:
        return np.zeros(len(mu), dtype=int)
    anchor = positive.min()
    return np.array([
        base if m == 0 else round_half_up(base * m / anchor)
        for m in mu
    ], dtype=int)


def sample_synthetic(bounds_i, count: int, rng: np.random.Generator,
                     placement=None) -> np.ndarray:
    """count x d matrix drawn coordinate-wise from the class's regions.

    One `rng.random((d, 2, count))` block holds, per feature, the draws of
    a per-feature loop of `rng.choice(p=length weights)` then
    `rng.uniform(0, 1)` (which returns `random`'s doubles unchanged), and
    `IntervalSet.place` turns them into the same values, so the rows equal
    that loop's bit for bit. `placement` is `_class_placement(bounds_i)`,
    computed here where None; a caller that samples one class's bounds
    again and again passes it.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    lo, span, unions = _class_placement(bounds_i) if placement is None else placement
    draws = rng.random((len(bounds_i), 2, count))
    cols = lo + draws[:, 1] * span
    for f in unions:
        cols[f] = bounds_i[f].place(draws[f, 0], draws[f, 1])
    return cols.T.copy()


def _class_placement(bounds_i) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """What `sample_synthetic` reads of a class's bounds: each feature's
    first interval's lower end and length, as columns, and the features
    whose set holds more than one interval."""
    first = [s.intervals[0] for s in bounds_i]
    lo = np.array([iv.lo for iv in first])[:, None]
    span = np.array([iv.length for iv in first])[:, None]
    return lo, span, [f for f, s in enumerate(bounds_i) if len(s.intervals) > 1]


def minimize_redundancy(class_rows: np.ndarray, removal_fraction: float,
                        seed: int) -> np.ndarray:
    """Indices of one representative row per cluster, ascending.

    Clustering into k = round(m * (1 - x)) groups and keeping the row
    nearest each centroid removes about a fraction x of near-duplicate
    rows. When the rows hold no more than k distinct values, the first row
    of each distinct value is kept instead (fewer than k rows when there
    are fewer values); that is what the clustering gives when there are
    exactly k.
    """
    rows = np.asarray(class_rows, dtype=float)
    if rows.ndim != 2 or len(rows) < 1:
        raise ValueError("need a non-empty 2-D row matrix")
    if not 0.0 <= removal_fraction < 1.0:
        raise ValueError("removal_fraction must be in [0, 1)")
    m = len(rows)
    k = max(1, round_half_up(m * (1.0 - removal_fraction)))
    if k >= m:
        return np.arange(m)
    _, first = np.unique(rows, axis=0, return_index=True)
    if len(first) <= k:
        return np.sort(first)
    result = kmeans(rows, k=k, seed=seed)
    retained = []
    for cluster in range(k):
        members = np.flatnonzero(result.assignments == cluster)
        dists = ((rows[members] - result.centroids[cluster]) ** 2).sum(axis=1)
        retained.append(int(members[np.argmin(dists)]))   # ties -> lowest index
    return np.array(sorted(retained), dtype=int)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _corr_diff(ca: CorrMatrix, b: np.ndarray) -> float:
    """Largest relative change, in percent, of a correlation coefficient
    between the original rows (`ca`, their `pearson_corr`) and `b`, over the
    feature pairs where neither side has a zero-variance column."""
    cb = pearson_corr(b)
    skip = ca.zero_variance_flags | cb.zero_variance_flags
    p, q = np.triu_indices(b.shape[1], 1)
    keep = ~(skip[p] | skip[q])
    a_pq, b_pq = ca.coefficients[p, q][keep], cb.coefficients[p, q][keep]
    diffs = np.abs(b_pq - a_pq) / np.maximum(np.abs(a_pq), 0.1) * 100.0
    return float(diffs.max(initial=0.0))


def validate_synthetic(synth: np.ndarray, original_corr: CorrMatrix,
                       t: float) -> ValidationReport:
    """Single-attempt check that synthetic rows keep the original feature
    correlations (`original_corr`, the training rows' `pearson_corr`)
    within t percent."""
    synth = np.asarray(synth, dtype=float)
    if len(synth) < 2:
        return ValidationReport(
            corr_diff=math.inf, attempts_made=1, best_attempt=1, passed=False,
            diagnostic=f"only {len(synth)} synthetic row(s); need >= 2 to correlate")
    diff = _corr_diff(original_corr, synth)
    return ValidationReport(corr_diff=diff, attempts_made=1, best_attempt=1,
                            passed=bool(diff <= t))


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def diversify(train: Dataset, probe: ProbeReport, cfg: DiversifyConfig,
              seed: int, mode: str = FULL) -> DiversifiedDataset:
    """Full alleviation pipeline; see module docstring for the stages.

    `mode` is FULL, SYNTH_ONLY (no redundancy removal) or DELETE_ONLY (no
    synthesis). The synthetic rows requested per class (`chi`, see
    `synth_counts`) are anchored at the training set's minority-class count.
    Synthesis is retried with fresh sub-streams until the correlation check
    passes or max_retries is exhausted; the best attempt is kept either way.
    """
    if mode not in (FULL, SYNTH_ONLY, DELETE_ONLY):
        raise ValueError(f"unknown mode '{mode}'")
    if cfg.top_k > train.d:
        raise ValueError(f"top_k ({cfg.top_k}) exceeds feature count ({train.d})")
    parts = segment_by_class(train)
    scales = feature_scales(train.features)

    bounds = global_extremum(parts, probe.delta_x_max, scales)
    bounds = tighten_overlaps(bounds)
    clusters = dominant_clusters(parts, cfg.clusters)
    top = top_k_features(clusters, cfg.top_k)
    bounds = final_bounds(bounds, top, clusters)

    if mode == DELETE_ONLY:
        chi = np.zeros(train.L, dtype=int)
        validation = ValidationReport(0.0, 0, 0, True, "synthesis skipped (delete_only)")
        synth_per_class = [np.empty((0, train.d)) for _ in range(train.L)]
    else:
        chi = synth_counts(probe.mu, int(train.class_counts().min()))
        if chi.sum() == 0:
            validation = ValidationReport(0.0, 0, 0, True, "probe saw no misclassification")
            synth_per_class = [np.empty((0, train.d)) for _ in range(train.L)]
        else:
            synth_per_class, validation = _generate_validated(
                bounds, chi, train.features, cfg, seed)

    blocks = []
    removed = np.zeros(train.L, dtype=int)
    for c, orig in enumerate(parts):
        combined = np.vstack([orig.features, synth_per_class[c]])
        synthetic = np.concatenate([orig.synthetic,
                                    np.ones(len(synth_per_class[c]), dtype=bool)])
        if mode == SYNTH_ONLY:
            keep = np.arange(len(combined))
        else:
            keep = minimize_redundancy(combined, cfg.removal_fraction,
                                       derive_seed(seed, "rm", c))
        removed[c] = len(combined) - len(keep)
        blocks.append((combined[keep], synthetic[keep]))

    features = np.vstack([b[0] for b in blocks])
    labels = np.concatenate([np.full(len(b[0]), c, dtype=int)
                             for c, b in enumerate(blocks)])
    synthetic = np.concatenate([b[1] for b in blocks])
    ds = Dataset(features, labels, train.class_names, train.feature_names, synthetic)
    return DiversifiedDataset(ds, validation, bounds, top, chi, removed)


def _generate_validated(bounds: ClassBounds, chi: np.ndarray,
                        original: np.ndarray, cfg: DiversifyConfig, seed: int):
    best_rows, best_report = None, None
    original_corr = pearson_corr(original)
    placements = [_class_placement(bounds.per_class[c]) for c in range(len(chi))]
    for attempt in range(1, cfg.max_retries + 1):
        rows = [
            sample_synthetic(bounds.per_class[c], int(chi[c]),
                             substream(seed, "synth", attempt, c), placements[c])
            for c in range(len(chi))
        ]
        stacked = np.vstack(rows)
        report = validate_synthetic(stacked, original_corr, cfg.corr_threshold)
        if best_report is None or report.corr_diff < best_report.corr_diff:
            best_rows, best_report = rows, replace(report, best_attempt=attempt)
        # a pass has the lowest corr_diff so far; with fewer than two rows
        # retrying cannot change the row count
        if report.passed or len(stacked) < 2:
            break
    return best_rows, replace(best_report, attempts_made=attempt)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def bounds_to_json(bounds: ClassBounds, class_names=None, feature_names=None) -> dict:
    doc = {
        "per_class": [
            [s.to_json() for s in sets] for sets in bounds.per_class
        ],
        "notes": list(bounds.notes),
    }
    if class_names is not None:
        doc["class_names"] = list(class_names)
    if feature_names is not None:
        doc["feature_names"] = list(feature_names)
    return doc


def save_diversify_report(dd: DiversifiedDataset, path) -> None:
    corr_diff = dd.validation.corr_diff
    doc = {
        "validation": {
            "corr_diff": corr_diff if math.isfinite(corr_diff) else None,
            "attempts_made": dd.validation.attempts_made,
            "best_attempt": dd.validation.best_attempt,
            "passed": dd.validation.passed,
            "diagnostic": dd.validation.diagnostic,
        },
        "top_features": list(dd.top_features),
        "chi": dd.chi.tolist(),
        "removed_per_class": dd.removed_per_class.tolist(),
        "bounds": bounds_to_json(dd.bounds, dd.dataset.class_names,
                                 dd.dataset.feature_names),
        "class_counts": dd.dataset.class_counts().tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
