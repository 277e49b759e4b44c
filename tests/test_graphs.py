import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvtsk import graphs
from mvtsk.dataset import DegeneracyWarning
from mvtsk.graphs import (
    DensePenalty,
    GraphOperators,
    SparseGraphOperators,
    SparsePenalty,
    build_operators,
    knn_graph,
    laplacian,
    reconstruction_operator,
    row_normalize,
    view_penalty,
)

import oracles


class TestKnnGraph:
    def test_coincident_points_unit_weight(self):
        g = knn_graph(np.zeros((2, 3)), p=1, bandwidth=1.0)
        assert g.weights[0, 1] == 1.0 and g.weights[1, 0] == 1.0
        assert np.all(np.diag(g.weights) == 0.0)

    def test_line_example(self):
        g = knn_graph(np.array([[0.0], [1.0], [10.0]]), p=1, bandwidth=1.0)
        assert g.weights[0, 1] == pytest.approx(np.exp(-0.5), abs=1e-12)
        assert g.weights[0, 2] == 0.0
        # median of used distances {1, 1, 9} is 1, so the rule matches too
        gm = knn_graph(np.array([[0.0], [1.0], [10.0]]), p=1, bandwidth="median")
        assert gm.bandwidth == 1.0

    def test_full_graph_all_positive(self):
        pts = np.random.default_rng(0).normal(size=(6, 2))
        g = knn_graph(pts, p=5)
        off = g.weights[~np.eye(6, dtype=bool)]
        assert np.all(off > 0)

    def test_row_sparsity(self):
        pts = np.random.default_rng(1).normal(size=(9, 3))
        g = knn_graph(pts, p=3)
        assert np.all((g.weights > 0).sum(axis=1) <= 3)

    def test_identical_points_bandwidth_fallback(self):
        with pytest.warns(DegeneracyWarning):
            g = knn_graph(np.ones((4, 2)), p=2)
        assert g.bandwidth == 1.0
        assert np.all(g.weights[g.weights > 0] == 1.0)

    def test_p_clamped(self):
        g = knn_graph(np.random.default_rng(2).normal(size=(3, 2)), p=10)
        assert g.p == 2

    def test_single_point_empty_graph(self):
        g = knn_graph(np.array([[1.0, 2.0]]), p=5)
        assert g.weights.shape == (1, 1) and g.weights[0, 0] == 0.0


def neighbors(graph):
    return [list(np.flatnonzero(row)) for row in graph.weights]


class TestTieRule:
    """Among equal distances the lowest index is chosen first."""

    def test_equidistant_pair_picks_lower_index(self):
        g = knn_graph(np.array([[0.0], [-1.0], [1.0]]), p=1, bandwidth=1.0)
        assert neighbors(g)[0] == [1]

    def test_identical_points_pick_lowest_other_indices(self):
        g = knn_graph(np.ones((4, 2)), p=2, bandwidth=1.0)
        assert neighbors(g) == [[1, 2], [0, 2], [0, 1], [0, 1]]

    def test_strictly_nearer_beats_lower_index(self):
        # row 3 is at distance 1 from rows 0 and 2 and 0.5 from row 4
        pts = np.array([[2.0], [9.0], [4.0], [3.0], [3.5]])
        g = knn_graph(pts, p=2, bandwidth=1.0)
        assert neighbors(g)[3] == [0, 4]


@st.composite
def point_sets(draw):
    """Small point sets rich in distance ties, with p and a bandwidth mode."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.normal(size=(n, d))
    kind = draw(st.sampled_from(["continuous", "rounded", "duplicated", "identical"]))
    if kind == "rounded":
        pts = np.round(2.0 * pts) / 2.0
    elif kind == "duplicated":
        pts = pts[rng.integers(0, draw(st.integers(1, n)), size=n)]
    elif kind == "identical":
        pts = np.repeat(pts[:1], n, axis=0)
    p = draw(st.integers(1, n + 2))
    bandwidth = draw(st.sampled_from(["median", 0.5, 2.0]))
    return pts, p, bandwidth


def degeneracy_warned(fn):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn()
    return out, any(issubclass(w.category, DegeneracyWarning) for w in caught)


class TestMatchesSortOracle:
    @settings(max_examples=300, deadline=None)
    @given(point_sets())
    def test_bit_identical_to_stable_sort(self, case):
        pts, p, bandwidth = case
        g, warned = degeneracy_warned(lambda: knn_graph(pts, p, bandwidth))
        (weights, ref_p, ref_bw), ref_warned = degeneracy_warned(
            lambda: oracles.knn_graph_by_sort(pts, p, bandwidth)
        )
        assert np.array_equal(g.weights, weights)
        assert g.p == ref_p and g.bandwidth == ref_bw
        assert warned == ref_warned


class TestLaplacian:
    def test_two_nodes(self):
        g = knn_graph(np.array([[0.0], [1.0]]), p=1, bandwidth=1.0)
        w = np.exp(-0.5)
        assert np.allclose(laplacian(g), [[w, -w], [-w, w]])

    def test_nullspace_and_symmetry(self):
        pts = np.random.default_rng(3).normal(size=(8, 3))
        L = laplacian(knn_graph(pts, p=3))
        assert np.max(np.abs(L - L.T)) <= 1e-12
        assert np.max(np.abs(L @ np.ones(8))) <= 1e-12

    def test_psd_sampling(self):
        g = knn_graph(np.array([[0.0], [1.0], [10.0]]), p=1, bandwidth=1.0)
        L = laplacian(g)
        rng = np.random.default_rng(4)
        for _ in range(100):
            x = rng.normal(size=3)
            assert x @ L @ x >= -1e-10

    def test_eigenvalues_nonnegative(self):
        pts = np.random.default_rng(5).normal(size=(10, 2))
        L = laplacian(knn_graph(pts, p=4))
        assert np.linalg.eigvalsh(L).min() >= -1e-10


class TestReconstructionOperator:
    def test_zero_graph_gives_identity(self):
        g = knn_graph(np.array([[1.0, 2.0]]), p=1)
        assert np.array_equal(reconstruction_operator(g), np.eye(1))

    def test_duplicated_points_zero_residual(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]])
        with pytest.warns(DegeneracyWarning):
            g = knn_graph(pts, p=1)
        A = reconstruction_operator(g)
        x = pts[:, 0]
        # duplicated pair reconstructs itself exactly
        coeff = row_normalize(g.weights)
        assert abs(x[0] - coeff[0] @ x) <= 1e-12
        assert x @ A @ x >= -1e-10

    def test_psd(self):
        pts = np.random.default_rng(6).normal(size=(9, 3))
        A = reconstruction_operator(knn_graph(pts, p=3))
        assert np.linalg.eigvalsh(A).min() >= -1e-10

    def test_row_normalization(self):
        pts = np.random.default_rng(7).normal(size=(7, 2))
        coeff = row_normalize(knn_graph(pts, p=3).weights)
        assert np.allclose(coeff.sum(axis=1), 1.0)


class TestTraceIdentities:
    """The double-sum forms equal the operator quadratic forms."""

    @pytest.mark.parametrize("seed", range(5))
    def test_laplacian_identity(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(3, 9)
        pts = rng.normal(size=(n, 3))
        X = rng.normal(size=(n, 4))
        ops = build_operators(pts, p=min(3, n - 1))
        brute = oracles.pairwise_smoothness(knn_graph(pts, min(3, n - 1)).weights, X)
        trace = 2.0 * np.trace(X.T @ ops.laplacian @ X)
        assert brute == pytest.approx(trace, abs=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruction_identity(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = rng.integers(3, 9)
        pts = rng.normal(size=(n, 3))
        X = rng.normal(size=(n, 4))
        ops = build_operators(pts, p=min(3, n - 1))
        coeff = row_normalize(knn_graph(pts, min(3, n - 1)).weights)
        brute = oracles.reconstruction_residual(coeff, X)
        trace = np.trace(X.T @ ops.reconstruction @ X)
        assert brute == pytest.approx(trace, abs=1e-8)


def test_build_operators_is_laplacian_and_reconstruction_of_knn_graph():
    pts = np.random.default_rng(8).normal(size=(12, 3))
    ops = build_operators(pts, p=4)
    graph = knn_graph(pts, 4)
    assert np.array_equal(ops.laplacian, laplacian(graph))
    assert np.array_equal(ops.reconstruction, reconstruction_operator(graph))


def dense_penalty(points, p, lam2, lam3, bandwidth="median"):
    graph = knn_graph(points, p, bandwidth)
    return lam2 * laplacian(graph) + lam3 * reconstruction_operator(graph)


class TestSparseOperators:
    """The edge-list operators against the dense reference forms."""

    POINT_SETS = {
        "random": np.random.default_rng(20).normal(size=(40, 3)),
        # integer grid: many ties at the p-th distance
        "ties": np.random.default_rng(21).integers(0, 3, size=(40, 2)).astype(float),
    }

    @pytest.mark.parametrize("kind", list(POINT_SETS))
    def test_sparse_weights_equal_dense(self, kind):
        pts = self.POINT_SETS[kind]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneracyWarning)
            dense = knn_graph(pts, 6)
            csr = knn_graph(pts, 6, sparse_weights=True)
        assert csr.weights.format == "csr" and csr.weights.has_sorted_indices
        assert np.array_equal(csr.weights.toarray(), dense.weights)
        assert (csr.p, csr.bandwidth) == (dense.p, dense.bandwidth)

    @pytest.mark.parametrize("kind", list(POINT_SETS))
    @pytest.mark.parametrize("bandwidth", ["median", 1e-3])
    def test_operators_match_dense(self, kind, bandwidth):
        # bandwidth 1e-3 underflows most affinities to zero, leaving zero rows
        pts = self.POINT_SETS[kind]
        rng = np.random.default_rng(22)
        X = rng.normal(size=(len(pts), 4))
        rows = np.flatnonzero(rng.uniform(size=len(pts)) < 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneracyWarning)
            ops = SparseGraphOperators.from_graph(
                knn_graph(pts, 6, bandwidth, sparse_weights=True)
            )
            M = dense_penalty(pts, 6, 0.7, 1.3, bandwidth)
        assert np.allclose(ops.penalty_times(X, 0.7, 1.3), M @ X, rtol=0, atol=1e-12)
        assert ops.penalty_value(X, 0.7, 1.3) == pytest.approx(np.sum(X * (M @ X)), rel=1e-12)
        assert np.allclose(ops.penalty_block(rows, 0.7, 1.3), M[np.ix_(rows, rows)],
                           rtol=0, atol=1e-12)

    def test_single_point_reconstruction_is_identity(self):
        ops = SparseGraphOperators.from_graph(
            knn_graph(np.array([[1.0, 2.0]]), p=1, sparse_weights=True)
        )
        X = np.array([[3.0, -1.0]])
        assert np.array_equal(ops.penalty_times(X, 0.5, 2.0), 2.0 * X)
        assert np.array_equal(ops.penalty_block(np.array([0]), 0.5, 2.0), [[2.0]])

    def test_threshold_picks_the_form(self, monkeypatch):
        pts = np.random.default_rng(23).normal(size=(12, 3))
        monkeypatch.setattr(graphs, "SPARSE_MIN_NODES", 13)
        assert isinstance(build_operators(pts, 4), GraphOperators)
        monkeypatch.setattr(graphs, "SPARSE_MIN_NODES", 12)
        assert isinstance(build_operators(pts, 4), SparseGraphOperators)


class TestViewPenalty:
    """Both forms of a view's penalty against the dense reference sum over
    its specific and common graphs."""

    POINT_SETS = TestSparseOperators.POINT_SETS

    @pytest.mark.parametrize("threshold, kind", [(10**9, DensePenalty), (0, SparsePenalty)],
                             ids=["dense", "sparse"])
    @pytest.mark.parametrize("specific", list(TestSparseOperators.POINT_SETS))
    @pytest.mark.parametrize("bandwidth", ["median", 1e-3])
    def test_matches_dense_reference(self, monkeypatch, threshold, kind, specific, bandwidth):
        # bandwidth 1e-3 underflows most affinities to zero, leaving zero rows
        common = next(k for k in self.POINT_SETS if k != specific)
        spec_pts, common_pts = self.POINT_SETS[specific], self.POINT_SETS[common]
        rng = np.random.default_rng(24)
        X = rng.normal(size=(len(spec_pts), 4))
        rows = np.flatnonzero(rng.uniform(size=len(spec_pts)) < 0.5)
        monkeypatch.setattr(graphs, "SPARSE_MIN_NODES", threshold)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneracyWarning)
            penalty = view_penalty(build_operators(spec_pts, 6, bandwidth),
                                   build_operators(common_pts, 6, bandwidth), 0.7, 1.3)
            M = (dense_penalty(spec_pts, 6, 0.7, 1.3, bandwidth)
                 + dense_penalty(common_pts, 6, 0.7, 1.3, bandwidth))
        assert isinstance(penalty, kind)
        assert np.allclose(penalty.times(X), M @ X, rtol=0, atol=1e-12)
        assert penalty.value(X) == pytest.approx(np.sum(X * (M @ X)), rel=1e-12)
        block = penalty.block(rows)
        assert np.allclose(block, M[np.ix_(rows, rows)], rtol=0, atol=1e-12)
        block += 1.0  # a fresh array: writing to it leaves the penalty as it was
        assert np.allclose(penalty.block(rows), M[np.ix_(rows, rows)], rtol=0, atol=1e-12)

    def test_dense_form_is_one_matrix_in_reference_order(self):
        pts = self.POINT_SETS["random"]
        other = np.random.default_rng(25).normal(size=pts.shape)
        gs, gc = knn_graph(pts, 4), knn_graph(other, 4)
        penalty = view_penalty(build_operators(pts, 4), build_operators(other, 4), 0.7, 1.3)
        want = 0.7 * (laplacian(gs) + laplacian(gc)) + 1.3 * (
            reconstruction_operator(gs) + reconstruction_operator(gc)
        )
        assert list(vars(penalty)) == ["matrix"]
        assert np.array_equal(penalty.matrix, want)
