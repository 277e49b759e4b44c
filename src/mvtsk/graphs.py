"""Neighborhood graphs over latent representations and derived operators.

Two quadratic penalties are built from a p-nearest-neighbor Gaussian graph:
the Laplacian smoothness operator L (pairwise first-order similarity) and
the local-reconstruction operator (I - C)^T (I - C) (second-order: each
instance vs. the weighted combination of its neighbors, C the row-normalized
graph).

Neighbors are chosen by partitioning each row of the dense distance matrix
at its p-th smallest distance, in O(N^2) time.  Ties at the p-th distance
go to the lowest index.

Below ``SPARSE_MIN_NODES`` nodes ``build_operators`` forms both operators as
dense N x N matrices (``laplacian`` and ``reconstruction_operator``, which
are also the reference forms).  From that size on it keeps the graph as its
N p edges in CSR and applies both operators by sparse products in
O(N p d), never forming an N x N operator (``SparseGraphOperators``).

Stage 1 penalizes each imputed view with the operators of two graphs, the
view's specific graph and the common one.  ``view_penalty`` joins them into
one object with ``times``, ``value`` and ``block``, and is the only code
that depends on the form: a dense pair becomes the single N x N matrix
lam2 (Ls + Lc) + lam3 (Rs + Rc), a sparse pair is applied from its edges.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.spatial.distance import cdist

from mvtsk.dataset import DegeneracyWarning

# Node count from which ``build_operators`` keeps graphs sparse.  Timed on
# 10-iteration stage-1 fits and transforms (3 views, half the rows missing,
# one BLAS thread), the sparse path overtakes the dense one near N=250 at
# p=5, N=350-400 at p=30 and N=450 at p=60; at N=700, p=30 it fits in 1.0 s
# against 1.9 s.  Below the crossover scipy.sparse call overhead dominates.
SPARSE_MIN_NODES = 500


@dataclass
class SimilarityGraph:
    """Asymmetric p-NN Gaussian affinity matrix (row i -> its p neighbors),
    dense or CSR."""

    weights: np.ndarray | sparse.csr_matrix
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


@dataclass
class SparseGraphOperators:
    """The same two operators of one graph, applied from its edges.

    weights       G, CSR with p entries a row
    coefficients  C, the row-normalized G, CSR
    degrees       row sums of sym(G) = (G + G^T) / 2, so L = diag(degrees) - sym(G)
    """

    weights: sparse.csr_matrix
    coefficients: sparse.csr_matrix
    degrees: np.ndarray

    @classmethod
    def from_graph(cls, graph: SimilarityGraph) -> "SparseGraphOperators":
        G = graph.weights
        out_sums = np.asarray(G.sum(axis=1)).ravel()
        in_sums = np.asarray(G.sum(axis=0)).ravel()
        safe = np.where(out_sums > 0, out_sums, 1.0)
        C = sparse.csr_matrix(
            (G.data / np.repeat(safe, np.diff(G.indptr)), G.indices, G.indptr), shape=G.shape
        )
        return cls(G, C, 0.5 * (out_sums + in_sums))

    def penalty_times(self, X: np.ndarray, lam2: float, lam3: float) -> np.ndarray:
        """(lam2 L + lam3 (I - C)^T (I - C)) @ X."""
        G, C = self.weights, self.coefficients
        lap = self.degrees[:, None] * X - 0.5 * (G @ X + G.T @ X)
        resid = X - C @ X
        return lam2 * lap + lam3 * (resid - C.T @ resid)

    def penalty_value(self, X: np.ndarray, lam2: float, lam3: float) -> float:
        """lam2 tr(X^T L X) + lam3 ||(I - C) X||_F^2; X^T sym(G) X and
        X^T G X have the same trace."""
        lap = float(self.degrees @ (X**2).sum(axis=1)) - float(np.sum(X * (self.weights @ X)))
        rec = float(((X - self.coefficients @ X) ** 2).sum())
        return lam2 * lap + lam3 * rec

    def penalty_block(self, rows: np.ndarray, lam2: float, lam3: float) -> np.ndarray:
        """Dense (lam2 L + lam3 (I - C)^T (I - C))[rows, rows] for an index array.

        With C_r = C[:, rows] and G[rows, rows] = diag(row sums) C_r[rows],
        the block is lam3 (I + C_r^T C_r) + lam2 diag(degrees) - A - A^T,
        A = (lam3 + lam2 / 2 * row sums) C_r[rows].
        """
        C_r = self.coefficients[:, rows]
        out_sums = np.asarray(self.weights.sum(axis=1)).ravel()[rows]
        A = (lam3 + 0.5 * lam2 * out_sums)[:, None] * C_r[rows].toarray()
        block = lam3 * (C_r.T @ C_r).toarray() - A - A.T
        block[np.diag_indices_from(block)] += lam2 * self.degrees[rows] + lam3
        return block


def knn_graph(
    points: np.ndarray, p: int, bandwidth="median", sparse_weights: bool = False
) -> SimilarityGraph:
    """Gaussian affinities to the p nearest Euclidean neighbors of each row.

    G[i, j] = exp(-||x_i - x_j||^2 / (2 sigma^2)) for j among the p nearest
    neighbors of i, 0 elsewhere.  ``bandwidth`` is either a positive float
    or "median": sigma = median of the neighbor distances actually used,
    falling back to 1.0 (with a warning) when all used distances are zero.

    ``sparse_weights`` returns G in CSR (column indices sorted in each row)
    instead of a dense array; the weights are the same.

    A single point yields the empty graph.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    if n == 1:
        empty = sparse.csr_matrix((1, 1)) if sparse_weights else np.zeros((1, 1))
        return SimilarityGraph(empty, 0, 1.0)
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

    flat = np.flatnonzero(chosen)  # row-major, so CSR order
    used = dist.ravel()[flat]
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

    affinities = np.exp(-(used**2) / (2.0 * sigma**2))
    if sparse_weights:
        indptr = np.searchsorted(flat, np.arange(0, n * n + 1, n))
        weights = sparse.csr_matrix((affinities, flat % n, indptr), shape=(n, n))
    else:
        weights = np.zeros(n * n)
        weights[flat] = affinities
        weights = weights.reshape(n, n)
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


def build_operators(
    points: np.ndarray, p: int, bandwidth="median"
) -> GraphOperators | SparseGraphOperators:
    """Graph from points, then both operators: ``GraphOperators`` below
    ``SPARSE_MIN_NODES`` points, ``SparseGraphOperators`` from there on."""
    if len(points) >= SPARSE_MIN_NODES:
        return SparseGraphOperators.from_graph(knn_graph(points, p, bandwidth, sparse_weights=True))
    graph = knn_graph(points, p, bandwidth)
    return GraphOperators(laplacian(graph), reconstruction_operator(graph))


@dataclass
class DensePenalty:
    """One view's graph penalty as a dense N x N matrix M."""

    matrix: np.ndarray

    def times(self, X: np.ndarray) -> np.ndarray:
        """M @ X."""
        return self.matrix @ X

    def value(self, X: np.ndarray) -> float:
        """tr(X^T M X)."""
        return float(np.sum(X * (self.matrix @ X)))

    def block(self, rows: np.ndarray) -> np.ndarray:
        """M[rows, rows], a fresh array."""
        return self.matrix[np.ix_(rows, rows)]


@dataclass
class SparsePenalty:
    """One view's graph penalty, applied from the edges of its two graphs:
    the sum of their ``penalty_times``, ``penalty_value`` and
    ``penalty_block``."""

    operators: tuple
    lam2: float
    lam3: float

    def times(self, X: np.ndarray) -> np.ndarray:
        return sum(op.penalty_times(X, self.lam2, self.lam3) for op in self.operators)

    def value(self, X: np.ndarray) -> float:
        return sum(op.penalty_value(X, self.lam2, self.lam3) for op in self.operators)

    def block(self, rows: np.ndarray) -> np.ndarray:
        return sum(op.penalty_block(rows, self.lam2, self.lam3) for op in self.operators)


def view_penalty(specific, common, lam2: float, lam3: float) -> DensePenalty | SparsePenalty:
    """lam2 (Ls + Lc) + lam3 (Rs + Rc) over a view's specific graph and the
    common graph, both ``build_operators`` results on the same nodes."""
    if isinstance(specific, GraphOperators):
        return DensePenalty(
            lam2 * (specific.laplacian + common.laplacian)
            + lam3 * (specific.reconstruction + common.reconstruction)
        )
    return SparsePenalty((specific, common), lam2, lam3)
