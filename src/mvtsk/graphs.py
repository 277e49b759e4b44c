"""Neighborhood graphs over latent representations and derived operators.

Two quadratic penalties are built from a p-nearest-neighbor Gaussian graph:
the Laplacian smoothness operator L (pairwise first-order similarity) and
the local-reconstruction operator (I - G)^T (I - G) (second-order: each
instance vs. the weighted combination of its neighbors).

Neighbors are chosen by partitioning each row of the dense distance matrix
at its p-th smallest distance, in O(N^2) time and memory like the dense
operators they feed.  Ties at the p-th distance go to the lowest index.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from mvtsk.dataset import DegeneracyWarning


@dataclass
class SimilarityGraph:
    """Asymmetric p-NN Gaussian affinity matrix (row i -> its p neighbors)."""

    weights: np.ndarray
    p: int
    bandwidth: float


@dataclass
class GraphOperators:
    """The two quadratic-form operators of one graph.

    laplacian       L = D - sym(G), built on the symmetrized graph.
    reconstruction  (I - C)^T (I - C), C the row-normalized G.
    """

    laplacian: np.ndarray
    reconstruction: np.ndarray


def knn_graph(points: np.ndarray, p: int, bandwidth="median") -> SimilarityGraph:
    """Gaussian affinities to the p nearest Euclidean neighbors of each row.

    G[i, j] = exp(-||x_i - x_j||^2 / (2 sigma^2)) for j among the p nearest
    neighbors of i, 0 elsewhere.  ``bandwidth`` is either a positive float
    or "median": sigma = median of the neighbor distances actually used,
    falling back to 1.0 (with a warning) when all used distances are zero.

    A single point yields the empty graph.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    if n == 1:
        return SimilarityGraph(np.zeros((1, 1)), 0, 1.0)
    p = int(min(max(p, 1), n - 1))

    dist = cdist(points, points)
    np.fill_diagonal(dist, np.inf)  # never self; duplicate points still count
    kth = np.partition(dist, p - 1, axis=1)[:, p - 1 : p]
    chosen = dist <= kth
    # rows with more than p entries at distance <= kth tie at kth: keep the
    # lowest-index tied columns, as a stable sort by distance would
    surplus = np.flatnonzero(chosen.sum(axis=1) > p)
    if surplus.size:
        sub, sub_kth = dist[surplus], kth[surplus]
        tied = sub == sub_kth
        room = p - (sub < sub_kth).sum(axis=1, keepdims=True)
        chosen[surplus] &= ~(tied & (np.cumsum(tied, axis=1) > room))

    used = dist[chosen]
    if bandwidth == "median":
        sigma = float(np.median(used))
        if sigma <= 0.0:
            warnings.warn(
                "all neighbor distances are zero; falling back to bandwidth 1.0",
                DegeneracyWarning,
            )
            sigma = 1.0
    else:
        sigma = float(bandwidth)
        if sigma <= 0.0:
            raise ValueError(f"bandwidth must be positive, got {sigma}")

    weights = np.zeros((n, n))
    weights[chosen] = np.exp(-(used**2) / (2.0 * sigma**2))
    return SimilarityGraph(weights, p, sigma)


def laplacian(graph: SimilarityGraph) -> np.ndarray:
    """L = D - sym(G) on the symmetrized affinities; symmetric PSD, L @ 1 = 0."""
    g = 0.5 * (graph.weights + graph.weights.T)
    return np.diag(g.sum(axis=1)) - g


def row_normalize(weights: np.ndarray) -> np.ndarray:
    """Rows rescaled to sum to 1; all-zero rows are left untouched."""
    sums = weights.sum(axis=1, keepdims=True)
    safe = np.where(sums > 0, sums, 1.0)
    return weights / safe


def reconstruction_operator(graph: SimilarityGraph) -> np.ndarray:
    """(I - G)^T (I - G) with G row-normalized; symmetric PSD.

    The zero graph yields the identity.
    """
    lam = np.eye(graph.weights.shape[0]) - row_normalize(graph.weights)
    return lam.T @ lam


def build_operators(points: np.ndarray, p: int, bandwidth="median") -> GraphOperators:
    """Convenience: graph from points, then both operators."""
    graph = knn_graph(points, p, bandwidth)
    return GraphOperators(laplacian(graph), reconstruction_operator(graph))
