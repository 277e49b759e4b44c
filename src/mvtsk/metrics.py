"""Classification metrics and rank-based multi-algorithm comparison.

ACC / AUC / F1 plus the Friedman test (are k algorithms distinguishable
over n settings?) and the Holm step-down procedure against a control.
Chi-square and normal tail probabilities come from ``scipy.special``
(``chdtrc`` and ``ndtr``, the functions scipy's ``stats`` subpackage itself
calls), and average ranks are computed in numpy with scipy's formula.  The
``stats`` subpackage is not imported: loading it costs about 35 MB and 1 s
in every process that imports this module, ``mvtsk.cli`` included, for two
tails and one ranking.  The ``scipy.special`` functions are imported at
module top, not lazily, so that forked ``bench`` workers inherit them
instead of importing them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import chdtrc, ndtr


# ---------------------------------------------------------------------------
# Tail probabilities
# ---------------------------------------------------------------------------

def chi_square_sf(x: float, df: int) -> float:
    """Survival function of the chi-square distribution."""
    if df < 1:
        raise ValueError("df must be >= 1")
    return float(chdtrc(df, x))

def normal_sf(z: float) -> float:
    """Standard normal survival function 1 - Phi(z)."""
    return float(ndtr(-z))


# ---------------------------------------------------------------------------
# Ranks
# ---------------------------------------------------------------------------

def rankdata(values) -> np.ndarray:
    """Ranks of a 1-D array, 1 = smallest, average ranks on ties; equal to
    scipy's ``rankdata(values)``.  Non-finite input raises ValueError (scipy
    would return all NaN, a plain sort would rank NaN last)."""
    values = np.asarray(values, dtype=float).ravel()
    if not np.isfinite(values).all():
        raise ValueError("cannot rank non-finite values")
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    starts = np.r_[True, ordered[1:] != ordered[:-1]]
    dense = starts.cumsum()
    count = np.r_[np.nonzero(starts)[0], values.size]
    ranks = np.empty(values.size)
    ranks[order] = 0.5 * (count[dense] + count[dense - 1] + 1)
    return ranks


# ---------------------------------------------------------------------------
# Per-run metrics
# ---------------------------------------------------------------------------

def accuracy(labels: np.ndarray, predictions: np.ndarray) -> float:
    labels = np.asarray(labels)
    predictions = np.asarray(predictions)
    if labels.size == 0:
        raise ValueError("empty input")
    if labels.shape != predictions.shape:
        raise ValueError("labels and predictions must have equal length")
    return float(np.mean(labels == predictions))


def _binary_f1(labels, predictions, positive) -> float:
    tp = np.sum((predictions == positive) & (labels == positive))
    fp = np.sum((predictions == positive) & (labels != positive))
    fn = np.sum((predictions != positive) & (labels == positive))
    if tp + fp == 0 or tp + fn == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    if precision + recall == 0:
        return 0.0
    return float(2 * precision * recall / (precision + recall))


def f1(labels, predictions, positive_class: int = 1, n_classes: int | None = None) -> float:
    """Binary F1 on ``positive_class``; macro-averaged when more than two
    classes are involved.  Zero precision+recall yields F1 = 0."""
    labels = np.asarray(labels)
    predictions = np.asarray(predictions)
    if labels.size == 0:
        raise ValueError("empty input")
    if n_classes is None:
        n_classes = int(max(labels.max(), predictions.max())) + 1
    if n_classes <= 2:
        return _binary_f1(labels, predictions, positive_class)
    return float(np.mean([_binary_f1(labels, predictions, c) for c in range(n_classes)]))


def auc(labels, scores) -> float:
    """Rank-based AUC with average ranks on ties.

    Binary: ``scores`` is the positive-class score vector.  Multi-class:
    ``scores`` is the N x C score matrix and the result is the macro average
    of one-vs-rest AUCs over classes with both outcomes present.
    """
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    if scores.ndim == 2 and scores.shape[1] > 2:
        vals = []
        for c in range(scores.shape[1]):
            mask_pos = labels == c
            if mask_pos.any() and (~mask_pos).any():
                vals.append(auc(mask_pos.astype(int), scores[:, c]))
        if not vals:
            raise ValueError("no class has both positive and negative instances")
        return float(np.mean(vals))
    if scores.ndim == 2:
        scores = scores[:, 1]
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    ranks = rankdata(scores)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@dataclass
class MetricReport:
    """Per-repetition ACC/AUC/F1 values with their mean and variance."""

    acc: list = field(default_factory=list)
    auc: list = field(default_factory=list)
    f1: list = field(default_factory=list)

    def add(self, acc_val: float, auc_val: float, f1_val: float):
        self.acc.append(float(acc_val))
        self.auc.append(float(auc_val))
        self.f1.append(float(f1_val))

    @staticmethod
    def _mean_var(values):
        arr = np.asarray(values, dtype=float)
        mean = float(arr.mean())
        var = float(arr.var(ddof=1)) if arr.size > 1 else 0.0
        return mean, var

    def summary(self) -> dict:
        out = {}
        for name, values in (("acc", self.acc), ("auc", self.auc), ("f1", self.f1)):
            mean, var = self._mean_var(values)
            out[name] = {
                "values": list(values),
                "mean": mean,
                "variance": var,
                "formatted": f"{mean:.4f}±{var:.4f}",
            }
        return out


# ---------------------------------------------------------------------------
# Friedman / Holm
# ---------------------------------------------------------------------------

@dataclass
class FriedmanResult:
    """Average ranks (1 = best), chi-square statistic, df, and p-value."""

    avg_ranks: np.ndarray
    statistic: float
    df: int
    p_value: float
    n_settings: int
    n_algorithms: int


def rank_matrix(results: np.ndarray) -> np.ndarray:
    """Within-setting ranks of an n x k results matrix, higher = better,
    average ranks on ties (rank 1 = best)."""
    results = np.asarray(results, dtype=float)
    return np.vstack([rankdata(-row) for row in results])


def friedman_test(results: np.ndarray) -> FriedmanResult:
    """Friedman rank test over an n-settings x k-algorithms results matrix."""
    results = np.asarray(results, dtype=float)
    if results.ndim != 2:
        raise ValueError("results must be a 2-D settings x algorithms matrix")
    n, k = results.shape
    if n < 2 or k < 2:
        raise ValueError(f"need n >= 2 settings and k >= 2 algorithms, got {n} x {k}")
    avg = rank_matrix(results).mean(axis=0)
    stat = 12.0 * n / (k * (k + 1)) * (float((avg**2).sum()) - k * (k + 1) ** 2 / 4.0)
    stat = max(stat, 0.0)  # all-tied input gives exactly 0 up to rounding
    return FriedmanResult(avg, stat, k - 1, chi_square_sf(stat, k - 1), n, k)


@dataclass
class HolmComparison:
    """One control-vs-algorithm row of the step-down procedure."""

    algorithm: str
    z: float
    p: float
    i: int           # hypotheses remaining when this one is tested
    threshold: float  # alpha / i
    reject: bool


@dataclass
class HolmResult:
    control: str
    comparisons: list  # ordered by ascending p (i = k-1 down to 1)


def holm_posthoc(
    avg_ranks: np.ndarray,
    n: int,
    k: int,
    control_index: int,
    names: list | None = None,
    alpha: float = 0.05,
) -> HolmResult:
    """Step-down Holm comparisons of every algorithm against the control.

    z = (R_j - R_control) / sqrt(k(k+1)/(6n)), two-sided p = 2(1 - Phi(|z|)).
    Hypotheses are tested from the smallest p upward against alpha/i, where
    i counts the hypotheses still in play; the first acceptance stops all
    further rejections.
    """
    avg_ranks = np.asarray(avg_ranks, dtype=float)
    if not 0 <= control_index < k:
        raise ValueError(f"control index {control_index} out of range for k={k}")
    if names is None:
        names = [f"algorithm{j}" for j in range(k)]
    se = math.sqrt(k * (k + 1) / (6.0 * n))
    rows = []
    for j in range(k):
        if j == control_index:
            continue
        z = (avg_ranks[j] - avg_ranks[control_index]) / se
        rows.append((names[j], z, 2.0 * normal_sf(abs(z))))
    rows.sort(key=lambda r: (r[2], -abs(r[1]), r[0]))

    m = len(rows)
    comparisons = []
    rejecting = True
    for pos, (name, z, p) in enumerate(rows):
        remaining = m - pos
        threshold = alpha / remaining
        reject = rejecting and p < threshold
        if not reject:
            rejecting = False
        comparisons.append(HolmComparison(name, z, p, remaining, threshold, reject))
    return HolmResult(names[control_index], comparisons)
