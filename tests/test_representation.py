import dataclasses
import tracemalloc

import numpy as np
import pytest

from mvtsk import graphs, pipeline
from mvtsk.classifier import EnsembleConfig
from mvtsk.dataset import (
    DegeneracyWarning,
    apply_mask,
    apply_normalizer,
    fit_normalizer,
    gen_synthetic,
)
from mvtsk.graphs import SparsePenalty, knn_graph, laplacian, reconstruction_operator
from mvtsk.representation import (
    DualRepConfig,
    fit,
    init_model,
    objective,
    objective as rep_objective,
    refresh_graphs,
    transform,
    update_common,
    update_common_basis,
    update_error,
    update_specific,
    update_specific_basis,
)

import oracles
from test_acceptance import random_instance


def planted(n=12, v=3, dims=(5, 4, 6), m=2, noise=0.1, sep=2.0, seed=5, mask=0.4, mask_seed=6):
    ds = gen_synthetic(n, v, list(dims), m, noise, sep, seed=seed)
    if mask:
        ds = apply_mask(ds, mask, seed=mask_seed)
    return apply_normalizer(ds, fit_normalizer(ds))


def small_cfg(**over):
    base = dict(m=2, lam1=0.5, lam2=0.3, lam3=0.2, p=3, max_iters=5, seed=7)
    base.update(over)
    return DualRepConfig(**base)


class TestConfig:
    @pytest.mark.parametrize("p", [0, -1])
    def test_nonpositive_p_rejected(self, p):
        with pytest.raises(ValueError, match="p must be"):
            DualRepConfig(p=p)

    def test_p_one_accepted(self):
        assert DualRepConfig(p=1).p == 1

    @pytest.mark.parametrize("field", ["m", "p", "max_iters", "graph_refresh"])
    @pytest.mark.parametrize("value", [5.0, 2.5, True])
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            DualRepConfig(**{field: value})

    @pytest.mark.parametrize("tol", ["abc", None, True, [1e-6]])
    def test_non_real_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be a real number"):
            DualRepConfig(tol=tol)

    def test_numpy_integers_and_infinite_refresh_accepted(self):
        cfg = DualRepConfig(m=np.int64(3), p=np.int32(4), graph_refresh=float("inf"))
        assert (cfg.m, cfg.p, cfg.graph_refresh) == (3, 4, None)


class TestInit:
    def test_determinism(self):
        ds = planted()
        a, b = init_model(ds, small_cfg()), init_model(ds, small_cfg())
        assert np.array_equal(a.Hc, b.Hc)
        for v in range(3):
            assert np.array_equal(a.Hs[v], b.Hs[v])
            assert np.array_equal(a.U[v], b.U[v])

    def test_complete_data_keeps_X(self):
        ds = planted(mask=0.0)
        model = init_model(ds, small_cfg())
        for v in range(3):
            assert np.array_equal(model.Xt[v], ds.views[v].data)
            assert np.all(model.U[v] == 0.0)

    def test_shapes(self):
        ds = planted(dims=(4, 6, 5))
        model = init_model(ds, small_cfg(m=2))
        assert model.Bs[0].shape == (2, 4)
        assert model.Bs[1].shape == (2, 6)
        assert model.Hc.shape == (2, 12)

    def test_mean_warm_start_through_error_matrix(self):
        ds = planted()
        model = init_model(ds, small_cfg())
        for v in range(3):
            miss = model.missing[v]
            if miss.any():
                means = ds.views[v].data[~miss].mean(axis=0)
                assert np.allclose(model.Xt[v][miss], means)
                # invariant: Xt = X + E U holds at init too
                recon = model.X[v].copy()
                recon[miss] += model.U[v][miss]
                assert np.array_equal(recon, model.Xt[v])

    def test_overparameterized_warning(self):
        ds = planted(dims=(3, 3, 3))
        with pytest.warns(DegeneracyWarning, match="over-parameterized"):
            init_model(ds, small_cfg(m=5))


def reference_penalty(model, v, cfg):
    """View v's dense penalty lam2 (Ls + Lc) + lam3 (Rs + Rc), from the
    reference operator functions on freshly built graphs."""
    gs = knn_graph(model.Hs[v].T, cfg.p)
    gc = knn_graph(model.Hc.T, cfg.p)
    return cfg.lam2 * (laplacian(gs) + laplacian(gc)) + cfg.lam3 * (
        reconstruction_operator(gs) + reconstruction_operator(gc)
    )


class TestGraphRefresh:
    def test_two_instances(self):
        ds = planted(n=2, mask=0.0, dims=(3, 3, 3))
        cfg = small_cfg(p=5)
        model = init_model(ds, cfg)
        penalties = refresh_graphs(model, cfg)
        graph = knn_graph(model.Hs[0].T, cfg.p)
        assert np.array_equal(penalties[0].matrix, reference_penalty(model, 0, cfg))
        assert (graph.weights > 0).sum() == 2  # one neighbor each way

    def test_constant_representation_fallback(self):
        ds = planted()
        cfg = small_cfg()
        model = init_model(ds, cfg)
        model.Hc = np.ones_like(model.Hc)
        with pytest.warns(DegeneracyWarning):
            penalties = refresh_graphs(model, cfg)
        with pytest.warns(DegeneracyWarning):
            graph = knn_graph(model.Hc.T, cfg.p)
            want = [reference_penalty(model, v, cfg) for v in range(model.n_views)]
        for penalty, expected in zip(penalties, want):
            assert np.array_equal(penalty.matrix, expected)
        nz = graph.weights[graph.weights > 0]
        assert np.all(nz == 1.0)

    def test_purity(self):
        ds = planted()
        model = init_model(ds, small_cfg())
        a = refresh_graphs(model, small_cfg())
        b = refresh_graphs(model, small_cfg())
        for pa, pb in zip(a, b, strict=True):
            assert np.array_equal(pa.matrix, pb.matrix)

    @pytest.mark.parametrize("seed", range(3))
    def test_each_dense_penalty_is_the_reference_sum(self, seed):
        ds = planted(seed=80 + seed, mask_seed=90 + seed)
        cfg = small_cfg()
        model = init_model(ds, cfg)
        penalties = refresh_graphs(model, cfg)
        assert len(penalties) == model.n_views
        for v, penalty in enumerate(penalties):
            assert np.array_equal(penalty.matrix, reference_penalty(model, v, cfg))

    def test_refill_replaces_every_penalty_in_place(self):
        ds = planted()
        cfg = small_cfg()
        model = init_model(ds, cfg)
        penalties = refresh_graphs(model, cfg)
        old = list(penalties)
        model.Hc = model.Hc[:, ::-1].copy()
        assert refresh_graphs(model, cfg, penalties) is penalties
        for v, penalty in enumerate(penalties):
            assert penalty is not old[v]
            assert np.array_equal(penalty.matrix, reference_penalty(model, v, cfg))


class TestBlockUpdates:
    """Each closed-form update zeroes its own (frozen-graph) gradient."""

    def _ready_model(self, seed=0, **cfg_over):
        rng = np.random.default_rng(seed)
        ds = planted(seed=int(rng.integers(1e6)), mask_seed=int(rng.integers(1e6)))
        cfg = small_cfg(**cfg_over)
        model = init_model(ds, cfg)
        penalties = refresh_graphs(model, cfg)
        return model, penalties, cfg

    @pytest.mark.parametrize("seed", range(4))
    def test_error_update_zero_gradient(self, seed):
        model, penalties, cfg = self._ready_model(seed)
        for v in range(model.n_views):
            model.U[v] = update_error(model, v, penalties[v], cfg)
            model.refresh_imputed(v)
            grad = oracles.grad_error(model, v, cfg)
            rel = np.linalg.norm(grad) / (1.0 + np.linalg.norm(model.U[v]))
            assert rel <= 1e-6

    @pytest.mark.parametrize("seed", range(3))
    def test_error_update_is_the_reference_solve(self, seed):
        # dense path: bit for bit the solve through the penalty built from
        # the reference operators, with the ridge added after the identity
        model, penalties, cfg = self._ready_model(60 + seed)
        for v in range(model.n_views):
            miss = model.missing[v]
            assert miss.any()
            M = reference_penalty(model, v, cfg)
            X = model.X[v]
            rhs = model.reconstruction(v) - X - M @ X
            system = M[np.ix_(miss, miss)]
            system[np.diag_indices_from(system)] += 1.0
            system[np.diag_indices_from(system)] += cfg.ridge
            want = np.zeros_like(X)
            want[miss] = np.linalg.solve(system, rhs[miss])
            assert np.array_equal(update_error(model, v, penalties[v], cfg), want)

    def test_error_update_no_missing_rows(self):
        ds = planted(mask=0.0)
        cfg = small_cfg()
        model = init_model(ds, cfg)
        penalties = refresh_graphs(model, cfg)
        u = update_error(model, 0, penalties[0], cfg)
        assert np.all(u == 0.0)
        model.refresh_imputed(0)
        assert np.array_equal(model.Xt[0], ds.views[0].data)

    def test_error_update_data_term_only(self):
        # lam2 = lam3 = 0: the imputed row lands on the model reconstruction
        ds = planted(mask=0.4)
        cfg = small_cfg(lam2=0.0, lam3=0.0)
        model = init_model(ds, cfg)
        penalties = refresh_graphs(model, cfg)
        v = 0
        model.U[v] = update_error(model, v, penalties[v], cfg)
        model.refresh_imputed(v)
        miss = model.missing[v]
        recon = model.reconstruction(v)
        assert np.allclose(model.Xt[v][miss], recon[miss], atol=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_specific_update_zero_gradient(self, seed):
        model, penalties, cfg = self._ready_model(10 + seed)
        for v in range(model.n_views):
            model.Hs[v] = update_specific(model, v, cfg)
            grad = oracles.grad_specific(model, v, cfg)
            rel = np.linalg.norm(grad) / (1.0 + np.linalg.norm(model.Hs[v]))
            assert rel <= 1e-6

    def test_specific_identity_basis(self):
        # lam1 = 0, Bs = I, Bc = 0  ->  Hs = Xt^T up to the ridge
        ds = planted(dims=(2, 2, 2), mask=0.0)
        cfg = small_cfg(m=2, lam1=0.0)
        model = init_model(ds, cfg)
        model.Bs[0] = np.eye(2)
        model.Bc[0] = np.zeros((2, 2))
        new = update_specific(model, 0, cfg)
        assert np.allclose(new, model.Xt[0].T, atol=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_basis_updates_zero_gradient(self, seed):
        model, penalties, cfg = self._ready_model(20 + seed)
        for v in range(model.n_views):
            model.Bs[v] = update_specific_basis(model, v, cfg)
            g = oracles.grad_specific_basis(model, v, cfg)
            assert np.linalg.norm(g) / (1.0 + np.linalg.norm(model.Bs[v])) <= 1e-6
            model.Bc[v] = update_common_basis(model, v, cfg)
            g = oracles.grad_common_basis(model, v, cfg)
            assert np.linalg.norm(g) / (1.0 + np.linalg.norm(model.Bc[v])) <= 1e-6

    def test_zero_specific_rep_gives_zero_basis(self):
        model, penalties, cfg = self._ready_model(30)
        model.Hs[0] = np.zeros_like(model.Hs[0])
        assert np.allclose(update_specific_basis(model, 0, cfg), 0.0)

    def test_zero_common_rep_gives_zero_basis(self):
        model, penalties, cfg = self._ready_model(31)
        model.Hc = np.zeros_like(model.Hc)
        assert np.allclose(update_common_basis(model, 0, cfg), 0.0)

    def test_residual_orthogonal_to_specific_rows(self):
        model, penalties, cfg = self._ready_model(32)
        v = 0
        model.Bs[v] = update_specific_basis(model, v, cfg)
        resid = model.Xt[v] - model.reconstruction(v)
        assert np.max(np.abs(model.Hs[v] @ resid)) <= 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_common_update_zero_gradient(self, seed):
        model, penalties, cfg = self._ready_model(40 + seed)
        model.Hc = update_common(model, cfg)
        g = oracles.grad_common(model, cfg)
        assert np.linalg.norm(g) / (1.0 + np.linalg.norm(model.Hc)) <= 1e-6

    def test_common_identity_reduction(self):
        ds = planted(v=1, dims=(2,), mask=0.0)
        cfg = small_cfg(m=2, lam1=0.0)
        model = init_model(ds, cfg)
        model.Bc[0] = np.eye(2)
        model.Bs[0] = np.zeros((2, 2))
        new = update_common(model, cfg)
        assert np.allclose(new, model.Xt[0].T, atol=1e-6)

    @pytest.mark.parametrize("seed", range(3))
    def test_each_update_never_increases_frozen_objective(self, seed):
        model, penalties, cfg = self._ready_model(50 + seed)

        def J():
            return rep_objective(model, penalties, cfg)

        tol = 1e-8 * max(abs(J()), 1.0)
        for v in range(model.n_views):
            before = J()
            model.U[v] = update_error(model, v, penalties[v], cfg)
            model.refresh_imputed(v)
            assert J() <= before + tol
            before = J()
            model.Hs[v] = update_specific(model, v, cfg)
            assert J() <= before + tol
            before = J()
            model.Bs[v] = update_specific_basis(model, v, cfg)
            assert J() <= before + tol
            before = J()
            model.Bc[v] = update_common_basis(model, v, cfg)
            assert J() <= before + tol
        before = J()
        model.Hc = update_common(model, cfg)
        assert J() <= before + tol

    def test_analytic_gradients_match_finite_differences(self):
        # N <= 6, m <= 2: every block of the frozen-graph loss
        ds = planted(n=6, dims=(3, 3, 4), mask=0.34, mask_seed=9)
        cfg = small_cfg()
        model = init_model(ds, cfg)
        penalties = refresh_graphs(model, cfg)

        def J():
            return objective(model, penalties, cfg)

        v = 0
        fd = oracles.central_difference(J, model.Hs[v])
        assert np.max(np.abs(fd - oracles.grad_specific(model, v, cfg))) <= 1e-4
        fd = oracles.central_difference(J, model.Bs[v])
        assert np.max(np.abs(fd - oracles.grad_specific_basis(model, v, cfg))) <= 1e-4
        fd = oracles.central_difference(J, model.Bc[v])
        assert np.max(np.abs(fd - oracles.grad_common_basis(model, v, cfg))) <= 1e-4
        fd = oracles.central_difference(J, model.Hc)
        assert np.max(np.abs(fd - oracles.grad_common(model, cfg))) <= 1e-4

        miss = model.missing[v]
        if miss.any():
            def J_u():
                model.refresh_imputed(v)
                return objective(model, penalties, cfg)
            fd = oracles.central_difference(J_u, model.U[v], mask=miss)
            model.refresh_imputed(v)
            assert np.max(np.abs(fd - oracles.grad_error(model, v, cfg))) <= 1e-4


class TestObjective:
    def test_perfect_factorization_zero(self):
        ds = planted(mask=0.0, noise=0.0)
        cfg = small_cfg(lam1=0.0, lam2=0.0, lam3=0.0)
        model = init_model(ds, cfg)
        for v in range(model.n_views):
            model.Bc[v] = np.zeros_like(model.Bc[v])
            model.Bs[v] = np.linalg.lstsq(model.Hs[v].T, model.Xt[v], rcond=None)[0]
        # not exactly zero (lstsq fit), so plant an exact factorization instead
        for v in range(model.n_views):
            model.Xt[v] = model.reconstruction(v)
            model.X[v] = model.Xt[v].copy()
        penalties = refresh_graphs(model, cfg)
        scale = sum(float((x**2).sum()) for x in model.Xt)
        assert objective(model, penalties, cfg) <= 1e-18 * max(scale, 1.0)

    def test_orthogonal_reps_kill_lam1_term(self):
        ds = planted(n=4, dims=(2, 2, 2), mask=0.0)
        cfg = small_cfg(m=2, lam1=5.0, lam2=0.0, lam3=0.0)
        model = init_model(ds, cfg)
        model.Hc = np.vstack([np.ones(4), np.zeros(4)])
        for v in range(3):
            model.Hs[v] = np.vstack([np.zeros(4), np.ones(4)])
            # Hs^T Hc = outer(ones, zeros)-ish: rows of Hs orthogonal to rows of Hc
            model.Hs[v][1] = 0.0
            model.Hs[v][0] = 0.0
        penalties = refresh_graphs(model, cfg)
        with_term = objective(model, penalties, cfg)
        cfg0 = small_cfg(m=2, lam1=0.0, lam2=0.0, lam3=0.0)
        assert with_term == pytest.approx(objective(model, penalties, cfg0), abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_double_sum_oracle(self, seed):
        ds = planted(n=7, dims=(3, 4, 3), seed=50 + seed, mask=0.3)
        cfg = small_cfg()
        model = init_model(ds, cfg)
        penalties = refresh_graphs(model, cfg)
        fast = objective(model, penalties, cfg)
        slow = oracles.slow_representation_objective(model, cfg)
        assert fast == pytest.approx(slow, abs=1e-8 * max(1.0, abs(slow)))

    def test_nonnegative(self):
        ds = planted()
        cfg = small_cfg()
        model = init_model(ds, cfg)
        penalties = refresh_graphs(model, cfg)
        assert objective(model, penalties, cfg) >= -1e-10


def assert_agree(got, want, tol=1e-10):
    got, want = np.asarray(got), np.asarray(want)
    assert np.max(np.abs(got - want)) <= tol * max(1.0, float(np.max(np.abs(want))))


class TestSparseGraphs:
    """Stage 1 with graphs kept sparse against the dense operators.

    Patching ``graphs.SPARSE_MIN_NODES`` runs the same small problems through
    both forms."""

    @staticmethod
    def _assert_forms_agree(monkeypatch, ds, cfg):
        """Train and score with dense graphs, then with every graph sparse."""
        runs = []
        for threshold in (graphs.SPARSE_MIN_NODES, 0):
            monkeypatch.setattr(graphs, "SPARSE_MIN_NODES", threshold)
            model = pipeline.train_model(ds, cfg, EnsembleConfig(K=2, max_iters=20))
            runs.append((model.rep_model, pipeline.predict_model(model, ds)[0]))
        (dense, dense_scores), (sparse, sparse_scores) = runs
        assert_agree(sparse.objective_trace, dense.objective_trace)
        for sparse_xt, dense_xt in zip(sparse.Xt, dense.Xt):
            assert_agree(sparse_xt, dense_xt)
        assert_agree(sparse_scores, dense_scores)

    @pytest.mark.parametrize("seed", range(20))
    def test_block_optimality_make_ups_agree(self, monkeypatch, seed):
        ds, cfg = random_instance(seed)
        self._assert_forms_agree(monkeypatch, ds, cfg)

    @pytest.mark.parametrize("seed", range(10))
    def test_frozen_graph_make_ups_agree(self, monkeypatch, seed):
        ds, _ = random_instance(100 + seed)
        cfg = DualRepConfig(m=2, lam1=0.5, lam2=0.5, lam3=0.5, p=3,
                            max_iters=50, tol=0.0, graph_refresh=None, seed=seed)
        self._assert_forms_agree(monkeypatch, ds, cfg)

    @pytest.mark.parametrize("seed", range(4))
    def test_objective_matches_double_sum_oracle(self, monkeypatch, seed):
        ds = planted(n=7, dims=(3, 4, 3), seed=50 + seed, mask=0.3)
        cfg = small_cfg()
        model = init_model(ds, cfg)
        monkeypatch.setattr(graphs, "SPARSE_MIN_NODES", 7)
        penalties = refresh_graphs(model, cfg)
        assert all(isinstance(penalty, SparsePenalty) for penalty in penalties)
        slow = oracles.slow_representation_objective(model, cfg)
        assert objective(model, penalties, cfg) == pytest.approx(
            slow, abs=1e-8 * max(1.0, abs(slow))
        )

    def test_error_update_and_objective_above_threshold(self, monkeypatch):
        ds = planted(n=graphs.SPARSE_MIN_NODES + 10, mask=0.5)
        cfg = small_cfg(p=10)
        model = init_model(ds, cfg)
        penalties = refresh_graphs(model, cfg)
        assert all(isinstance(penalty, SparsePenalty) for penalty in penalties)
        monkeypatch.setattr(graphs, "SPARSE_MIN_NODES", 10**9)
        dense = refresh_graphs(model, cfg)
        for v in range(model.n_views):
            model.U[v] = update_error(model, v, penalties[v], cfg)
            model.refresh_imputed(v)
            grad = oracles.grad_error(model, v, cfg)
            assert np.linalg.norm(grad) / (1.0 + np.linalg.norm(model.U[v])) <= 1e-6
        want = objective(model, dense, cfg)
        assert objective(model, penalties, cfg) == pytest.approx(want, rel=1e-12)


class TestFit:
    def test_single_iteration_with_infinite_tol(self):
        ds = planted()
        model = fit(ds, small_cfg(tol=np.inf, max_iters=50))
        assert len(model.objective_trace) == 2  # init value + one iteration

    def test_frozen_graph_monotonicity(self):
        for seed in range(3):
            ds = planted(seed=60 + seed, mask_seed=70 + seed)
            cfg = small_cfg(graph_refresh=None, max_iters=30, tol=0.0)
            model = fit(ds, cfg)
            tr = np.asarray(model.objective_trace)
            drops = tr[1:] - tr[:-1]
            assert np.all(drops <= 1e-8 * np.maximum(np.abs(tr[:-1]), 1.0))

    def test_planted_recovery(self):
        ds = gen_synthetic(40, 2, [8, 6], 2, 0.0, 2.0, seed=11)
        dsn = apply_normalizer(ds, fit_normalizer(ds))
        cfg = DualRepConfig(m=5, lam1=1e-8, lam2=0.0, lam3=0.0, p=3,
                            max_iters=400, tol=0.0, seed=12)
        model = fit(dsn, cfg)
        num = sum(((dsn.views[v].data - model.reconstruction(v)) ** 2).sum() for v in range(2))
        den = sum((dsn.views[v].data ** 2).sum() for v in range(2))
        assert np.sqrt(num / den) <= 1e-3

    def test_imputation_beats_mean_baseline(self):
        truth = gen_synthetic(120, 3, [24, 20, 16], 4, 0.01, 5.0, seed=21)
        stats = fit_normalizer(truth)
        truth_n = apply_normalizer(truth, stats)
        masked = apply_mask(truth_n, 0.3, seed=22)
        cfg = DualRepConfig(m=4, lam1=0.0, lam2=2**-5, lam3=2**-5, p=20,
                            max_iters=80, seed=23)
        model = fit(masked, cfg)

        def masked_rmse(filled):
            se = cnt = 0.0
            for v in range(3):
                miss = masked.views[v].missing
                t = truth_n.views[v].data[miss]
                se += ((filled[v][miss] - t) ** 2).sum()
                cnt += t.size
            return np.sqrt(se / cnt)

        drl = masked_rmse(model.Xt)
        mean = masked_rmse(oracles.column_mean_fill(masked))
        assert drl < mean

    def test_present_rows_bit_exact(self):
        ds = planted()
        model = fit(ds, small_cfg(max_iters=10))
        for v in range(model.n_views):
            pres = ~model.missing[v]
            assert np.array_equal(model.Xt[v][pres], ds.views[v].data[pres])

    def test_orthogonality_penalty_response(self):
        ds = planted(n=20, seed=77, mask=0.3, mask_seed=78)
        low = fit(ds, small_cfg(lam1=0.0, max_iters=40))
        high = fit(ds, small_cfg(lam1=4.0, max_iters=40))
        def cross(m):
            return sum(((m.Hs[v].T @ m.Hc) ** 2).sum() for v in range(m.n_views))
        assert cross(high) < cross(low)

    def test_peak_memory_holds_one_operator_set(self):
        # below SPARSE_MIN_NODES the graph penalties are V = 3 dense N x N
        # arrays, one per view; a refresh must not hold the old set and the
        # new one at once, nor keep the graphs' own operators
        n = 400
        ds = planted(n=n, dims=(24, 20, 16), m=4, mask=0.5)
        cfg = small_cfg(m=4, p=30, max_iters=3, tol=0.0)
        tracemalloc.start()
        try:
            model = fit(ds, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(model.objective_trace) == 4
        assert peak < 10 * n * n * 8
        penalties = refresh_graphs(model, cfg)
        held = [a for p in penalties for a in vars(p).values() if isinstance(a, np.ndarray)]
        assert sum(a.size for a in held) == model.n_views * n * n

    def test_determinism(self):
        ds = planted()
        a = fit(ds, small_cfg(max_iters=6))
        b = fit(ds, small_cfg(max_iters=6))
        assert np.array_equal(a.Hc, b.Hc)
        assert a.objective_trace == b.objective_trace


class TestTransform:
    def test_refit_consistency_complete_data(self):
        ds = gen_synthetic(30, 2, [6, 5], 2, 0.0, 2.0, seed=31)
        dsn = apply_normalizer(ds, fit_normalizer(ds))
        cfg = DualRepConfig(m=5, lam1=0.0, lam2=0.0, lam3=0.0, p=3,
                            max_iters=300, tol=0.0, seed=32)
        model = fit(dsn, cfg)
        train_data_term = sum(
            ((model.Xt[v] - model.reconstruction(v)) ** 2).sum() for v in range(2)
        )
        result = transform(model, dsn)
        te_term = 0.0
        for v in range(2):
            recon = result.Hs[v].T @ model.Bs[v] + result.Hc.T @ model.Bc[v]
            te_term += ((result.Xt[v] - recon) ** 2).sum()
        assert abs(te_term - train_data_term) <= 1e-6

    def test_complete_test_data_keeps_zero_corrections(self):
        ds = planted(mask=0.3)
        model = fit(ds, small_cfg(max_iters=5))
        test_ds = planted(mask=0.0, seed=99)
        result = transform(model, test_ds)
        for v in range(2):
            assert np.array_equal(result.Xt[v], test_ds.views[v].data)
        # masked test data: present rows as given, missing rows reconstructed
        test_ds = planted(mask=0.4, seed=99)
        result = transform(model, test_ds)
        for v, vb in enumerate(test_ds.views):
            recon = result.Hs[v].T @ model.Bs[v] + result.Hc.T @ model.Bc[v]
            assert vb.missing.any()
            assert np.array_equal(result.Xt[v][vb.present], vb.data[vb.present])
            assert np.allclose(result.Xt[v][vb.missing], recon[vb.missing], rtol=0, atol=1e-12)

    def test_single_missing_instance_bounded(self):
        train = planted(n=30, mask=0.2, seed=41, mask_seed=42)
        model = fit(train, small_cfg(max_iters=15))
        test = planted(n=1, mask=0.0, seed=43)
        test.views[0].present[0] = False
        test.views[0].data[0] = 0.0
        result = transform(model, test)
        row = result.Xt[0][0]
        assert np.all(np.isfinite(row))
        tr_data = train.views[0].data[train.views[0].present]
        lo = tr_data.min(axis=0) - 3 * tr_data.std(axis=0)
        hi = tr_data.max(axis=0) + 3 * tr_data.std(axis=0)
        assert np.all(row >= lo - 1e-9) and np.all(row <= hi + 1e-9)

    def test_dimension_mismatch(self):
        model = fit(planted(), small_cfg(max_iters=2))
        bad = planted(dims=(5, 4, 7), seed=55)
        with pytest.raises(ValueError, match="view"):
            transform(model, bad)

    def test_determinism(self):
        model = fit(planted(), small_cfg(max_iters=3))
        test_ds = planted(seed=88, mask_seed=89)
        a = transform(model, test_ds)
        b = transform(model, test_ds)
        assert np.array_equal(a.Hc, b.Hc)
        for v in range(3):
            assert np.array_equal(a.Xt[v], b.Xt[v])

    @pytest.mark.parametrize(
        "over",
        [dict(lam1=3.0), dict(lam2=3.0), dict(lam3=3.0), dict(p=1), dict(max_iters=1),
         dict(tol=0.5), dict(graph_refresh=None), dict(seed=123)],
        ids=lambda over: next(iter(over)),
    )
    def test_reads_only_ridge_from_config(self, over):
        model = fit(planted(), small_cfg(max_iters=3))
        test_ds = planted(seed=88, mask_seed=89)

        def with_config(**fields):
            return dataclasses.replace(model, config=dataclasses.replace(model.config, **fields))

        a = transform(model, test_ds)
        b = transform(with_config(**over), test_ds)
        c = transform(with_config(ridge=1.0), test_ds)
        assert np.array_equal(a.Hc, b.Hc) and not np.array_equal(a.Hc, c.Hc)
        for v in range(3):
            assert np.array_equal(a.Hs[v], b.Hs[v])
            assert np.array_equal(a.Xt[v], b.Xt[v])
