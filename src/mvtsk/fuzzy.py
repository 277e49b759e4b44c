"""TSK fuzzy-system machinery.

A rule base of K rules over d features is parameterized by Gaussian
membership functions (per-rule per-feature centers and widths) and an
affine consequent per rule and output.  With the antecedent fixed, mapping
each input into the K(1+d)-dimensional fuzzy feature space makes consequent
learning a linear least-squares problem: the rule-wise weighted-sum output
equals x_g @ P_g exactly.

Antecedents are estimated deterministically by variance partitioning
(recursively splitting the highest-scatter cluster at the mean of its
highest-variance feature), which avoids the seed sensitivity of fuzzy
c-means.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from mvtsk.dataset import DegeneracyWarning

Q_FLOOR = 1e-4


@dataclass
class Antecedent:
    """Gaussian membership parameters: K x d centers and K x d widths."""

    centers: np.ndarray
    widths: np.ndarray

    def __post_init__(self):
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        self.widths = np.atleast_2d(np.asarray(self.widths, dtype=float))
        if self.centers.shape != self.widths.shape:
            raise ValueError("centers and widths must have the same K x d shape")
        if np.any(self.widths <= 0):
            raise ValueError("widths must be strictly positive")

    @property
    def n_rules(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]


def varpart_centers(X: np.ndarray, K: int) -> np.ndarray:
    """Deterministic K cluster centers by recursive variance partitioning.

    Start from one cluster holding every row.  K-1 times: take the cluster
    with the largest within-cluster sum of squared deviations (ties by
    lowest cluster index), split it at the mean of its highest-variance
    feature (ties by lowest feature index).  Centers are cluster means.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    if K < 1:
        raise ValueError("K must be >= 1")
    if K > n:
        raise ValueError(f"cannot form K={K} clusters from {n} rows")

    clusters = [np.arange(n)]
    for _ in range(K - 1):
        # singletons cannot be split; N >= K guarantees a splittable cluster
        scatters = [
            ((X[idx] - X[idx].mean(axis=0)) ** 2).sum() if idx.size > 1 else -np.inf
            for idx in clusters
        ]
        target = int(np.argmax(scatters))
        idx = clusters[target]
        variances = X[idx].var(axis=0)
        j = int(np.argmax(variances))
        thr = X[idx, j].mean()
        left = idx[X[idx, j] <= thr]
        right = idx[X[idx, j] > thr]
        if left.size == 0 or right.size == 0:
            # whole cluster identical on its best feature: peel off one row
            left, right = idx[:1], idx[1:]
        clusters[target] = left
        clusters.append(right)
    return np.vstack([X[idx].mean(axis=0) for idx in clusters])


def estimate_antecedent(X: np.ndarray, K: int, h: float = 1.0, q_floor: float = Q_FLOOR) -> Antecedent:
    """Centers by variance partitioning; widths from nearest-center clusters.

    Each row is assigned to its nearest center (ties by lowest index) and
    q[k, j] = h * var_j(cluster k) + q_floor.  Empty or singleton clusters
    get the floor width.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    centers = varpart_centers(X, K)
    d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    assign = np.argmin(d2, axis=1)
    widths = np.full_like(centers, q_floor)
    for k in range(K):
        members = X[assign == k]
        if members.shape[0] > 1:
            widths[k] = h * members.var(axis=0) + q_floor
    return Antecedent(centers, widths)


def _log_firing(X: np.ndarray, ant: Antecedent) -> np.ndarray:
    """N x K matrix of log firing strengths (sums of log memberships)."""
    diff = X[:, None, :] - ant.centers[None, :, :]
    return -(diff**2 / (2.0 * ant.widths[None, :, :])).sum(axis=2)


def firing_matrix(X: np.ndarray, ant: Antecedent):
    """Raw and normalized firing strengths for every row of X.

    The normalization is done in log space, so the normalized strengths sum
    to 1 even when the raw products underflow.  If every rule underflows to
    -inf for a row, that row falls back to the uniform 1/K (with a warning).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        log_mu = _log_firing(X, ant)
        mu = np.exp(log_mu)
        peak = log_mu.max(axis=1, keepdims=True)
        dead = ~np.isfinite(peak[:, 0])
        shifted = np.exp(log_mu - np.where(np.isfinite(peak), peak, 0.0))
        norm = shifted / shifted.sum(axis=1, keepdims=True)
    if dead.any():
        warnings.warn(
            f"firing strengths underflowed for {int(dead.sum())} rows; using uniform weights",
            DegeneracyWarning,
        )
        norm[dead] = 1.0 / ant.n_rules
    return mu, norm


def firing_strengths(x: np.ndarray, ant: Antecedent):
    """Raw and normalized firing strengths of one input vector."""
    mu, norm = firing_matrix(np.asarray(x, dtype=float)[None, :], ant)
    return mu[0], norm[0]


def fuzzy_map(X: np.ndarray, ant: Antecedent) -> np.ndarray:
    """Map rows of X into the fuzzy feature space, N x K(1+d).

    Block k of a mapped row is the normalized firing strength of rule k
    times [1, x].  For K = 1 this is exactly [1, X].

    Subnormal entries (0 < |x| < tiny), left where a rule's firing strength
    underflows, are set to 0: they are negligible, and arithmetic on them is
    many times slower in every product with the mapped features.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, d = X.shape
    _, norm = firing_matrix(X, ant)
    xe = np.hstack([np.ones((n, 1)), X])
    mapped = (norm[:, :, None] * xe[:, None, :]).reshape(n, ant.n_rules * (1 + d))
    mapped[(np.abs(mapped) < np.finfo(float).tiny) & (mapped != 0.0)] = 0.0
    return mapped


def rule_consequents(P_g: np.ndarray, d: int) -> np.ndarray:
    """Reshape a K(1+d) x C consequent matrix into K blocks of (1+d) x C.

    Block k holds rule k's affine coefficients: row 0 the bias, rows 1..d
    the per-feature slopes, one column per output.
    """
    P_g = np.asarray(P_g, dtype=float)
    if P_g.shape[0] % (1 + d):
        raise ValueError(f"consequent rows {P_g.shape[0]} not divisible by 1+d={1 + d}")
    K = P_g.shape[0] // (1 + d)
    return P_g.reshape(K, 1 + d, -1)
