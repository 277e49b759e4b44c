import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvtsk import representation
from mvtsk.classifier import (
    EnsembleConfig,
    design_matrices,
    ensemble_objective,
    factor_design,
    fit,
    fit_design,
    predict,
    predict_design,
    update_consequents,
    update_weights,
)
from mvtsk.dataset import apply_mask, apply_normalizer, fit_normalizer, gen_synthetic, one_hot
from mvtsk.fuzzy import estimate_antecedent, fuzzy_map

import oracles


def mapped_views(seed=0, n=20, dims=(3, 4), K=2):
    rng = np.random.default_rng(seed)
    raw = [rng.uniform(size=(n, d)) for d in dims]
    return [fuzzy_map(x, estimate_antecedent(x, K)) for x in raw]


def cfg(**over):
    base = dict(K=2, beta=0.5, gamma=2.0, delta=0.1, max_iters=50, tol=1e-8)
    base.update(over)
    return EnsembleConfig(**base)


class TestAssemble:
    def _trained(self, v=3, m=4):
        ds = gen_synthetic(15, v, [4] * v, 2, 0.1, 2.0, seed=3)
        ds = apply_normalizer(ds, fit_normalizer(ds))
        model = representation.fit(ds, representation.DualRepConfig(m=m, max_iters=3, p=3, seed=4))
        return ds, model

    def test_specific_view_concatenation_width(self):
        ds, model = self._trained(v=3, m=4)
        mats, roles = design_matrices(model, cfg())
        assert mats[-1].shape[1] == 3 * 4  # V * m columns
        assert roles[-1] == "specific" and roles[-2] == "common"
        assert mats[-2].shape[1] == 4

    def test_mapped_width(self):
        ds, model = self._trained()
        mats, _ = design_matrices(model, cfg(K=2))
        mapped = fuzzy_map(mats[0], estimate_antecedent(mats[0], 2))
        assert mapped.shape[1] == 2 * (1 + mats[0].shape[1])

    def test_complete_data_views_equal_input(self):
        ds = gen_synthetic(10, 2, [3, 3], 2, 0.1, 2.0, seed=5)
        dsn = apply_normalizer(ds, fit_normalizer(ds))
        model = representation.fit(dsn, representation.DualRepConfig(m=2, max_iters=2, p=3, seed=6))
        mats, _ = design_matrices(model, cfg())
        for v in range(2):
            assert np.array_equal(mats[v], dsn.views[v].data)

    def test_fit_names_imputed_views_after_dataset(self):
        ds, model = self._trained(v=2)
        for vb, name in zip(ds.views, ("left", "right")):
            vb.name = name
        ens = fit(model, ds, one_hot(ds.labels, ds.n_classes), cfg(max_iters=2))
        assert ens.roles == ["left", "right", "common", "specific"]

    def test_ablation_switches(self):
        ds, model = self._trained()
        mats, roles = design_matrices(model, cfg(use_common=False))
        assert "common" not in roles and "specific" in roles
        mats, roles = design_matrices(model, cfg(use_specific=False))
        assert "specific" not in roles and len(mats) == ds.n_views + 1


class TestConsequents:
    def test_ridge_reduction_single_view(self):
        # beta = 0, one view, alpha = 1: plain ridge regression
        Xg = mapped_views(seed=1, dims=(3,))[0]
        rng = np.random.default_rng(2)
        Y = rng.normal(size=(Xg.shape[0], 2))
        c = cfg(beta=0.0, delta=0.3)
        P0 = [np.zeros((Xg.shape[1], 2))]
        P, _ = update_consequents(factor_design([Xg]), P0, Y, np.array([1.0]), c)
        expected = oracles.ridge_solution_lstsq(Xg, Y, 0.3)
        assert np.allclose(P[0], expected, atol=1e-8)

    def test_zero_targets_zero_solution(self):
        Xg_list = mapped_views(seed=3)
        Y = np.zeros((20, 2))
        P0 = [np.zeros((x.shape[1], 2)) for x in Xg_list]
        P, _ = update_consequents(factor_design(Xg_list), P0, Y, np.full(2, 0.5), cfg())
        for p in P:
            assert np.allclose(p, 0.0)

    def test_view_subproblem_gradient_zero(self):
        Xg_list = mapped_views(seed=4, dims=(3, 4, 2), K=2)
        rng = np.random.default_rng(5)
        Y = rng.normal(size=(20, 3))
        c = cfg(beta=0.7, delta=0.2)
        alpha = np.array([0.5, 0.3, 0.2])
        P = [rng.normal(size=(x.shape[1], 3)) for x in Xg_list]
        newP, _ = update_consequents(factor_design(Xg_list), P, Y, alpha, c)
        # re-derive the target each view saw during its Gauss-Seidel turn
        work = [p.copy() for p in P]
        for v in range(3):
            preds = [Xg_list[l] @ (newP[l] if l < v else work[l]) for l in range(3)]
            lam = sum(preds[l] for l in range(3) if l != v) / 2.0
            grad = (
                2 * alpha[v] * Xg_list[v].T @ (Xg_list[v] @ newP[v] - Y)
                + 2 * c.beta * Xg_list[v].T @ (Xg_list[v] @ newP[v] - lam)
                + 2 * c.delta * newP[v]
            )
            rel = np.linalg.norm(grad) / (1.0 + np.linalg.norm(newP[v]))
            assert rel <= 1e-6
            work[v] = newP[v]

    def test_alignment_sum_vs_mean_modes(self):
        Xg_list = mapped_views(seed=14, dims=(3, 4, 2))
        rng = np.random.default_rng(15)
        Y = rng.normal(size=(20, 2))
        alpha = np.full(3, 1.0 / 3.0)
        P = [rng.normal(size=(x.shape[1], 2)) for x in Xg_list]
        P_mean, _ = update_consequents(factor_design(Xg_list), P, Y, alpha, cfg(alignment="mean"))
        P_sum, _ = update_consequents(factor_design(Xg_list), P, Y, alpha, cfg(alignment="sum"))
        # three views: the unaveraged target is twice the mean one
        assert not np.allclose(P_mean[0], P_sum[0])
        # two views: both modes coincide (single-other-view target)
        pair = Xg_list[:2]
        P2 = P[:2]
        a2 = np.full(2, 0.5)
        m, _ = update_consequents(factor_design(pair), P2, Y, a2, cfg(alignment="mean"))
        s, _ = update_consequents(factor_design(pair), P2, Y, a2, cfg(alignment="sum"))
        assert np.allclose(m[0], s[0]) and np.allclose(m[1], s[1])

    def test_invalid_alignment_mode(self):
        with pytest.raises(ValueError, match="alignment"):
            cfg(alignment="median")

    @pytest.mark.parametrize("field", ["K", "max_iters"])
    @pytest.mark.parametrize("value", [2.0, 2.5, False])
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            EnsembleConfig(**{field: value})

    def test_identical_views_align_under_strong_beta(self):
        rng = np.random.default_rng(7)
        raw = rng.uniform(size=(20, 3))
        Y = rng.normal(size=(20, 2))
        c = cfg(beta=50.0, delta=1e-6, gamma=1e6, max_iters=400, tol=1e-12)
        ens = fit_design([raw.copy(), raw.copy()], ["a", "b"], Y, c)
        preds = [
            fuzzy_map(raw, ens.antecedents[v]) @ ens.consequents[v] for v in range(2)
        ]
        assert np.linalg.norm(preds[0] - preds[1]) <= 1e-3


def designs(kind, seed=0):
    """Three designs of one shape family; every kind but "wide" and "tall"
    is rank-deficient."""
    rng = np.random.default_rng(seed)
    n, d = (12, 30) if kind in ("wide", "zero_row") else (40, 8)
    mats = [rng.uniform(size=(n, d + k)) for k in range(3)]
    for x in mats:
        if kind == "duplicate_columns":
            x[:, 1] = x[:, 0]
            x[:, -1] = x[:, 2]
        elif kind == "constant_column":
            x[:, 3] = 0.7
            x[:, 4] = -1.3
        elif kind == "zero_row":
            x[5] = 0.0
        if kind not in ("wide", "tall"):
            assert np.linalg.matrix_rank(x) < min(x.shape)
    return mats


def predictions(Xg, P):
    return [x @ p for x, p in zip(Xg, P)]


def assert_close_rel(got, want, rtol=1e-10):
    for g, w in zip(got, want):
        assert np.linalg.norm(g - w) <= rtol * np.linalg.norm(w)


class TestFactoredSweep:
    """The sweep through each design's thin SVD against the normal-equation
    sweep of the oracle."""

    @pytest.mark.parametrize("alignment", ["mean", "sum"])
    @pytest.mark.parametrize(
        "kind", ["wide", "tall", "duplicate_columns", "constant_column", "zero_row"]
    )
    def test_matches_normal_equations(self, kind, alignment):
        Xg = designs(kind)
        rng = np.random.default_rng(1)
        Y = rng.normal(size=(Xg[0].shape[0], 3))
        alpha = np.array([0.5, 0.3, 0.2])
        c = cfg(beta=0.7, delta=0.2, alignment=alignment)
        factors = factor_design(Xg)
        got = want = [rng.normal(size=(x.shape[1], 3)) for x in Xg]
        for _ in range(3):
            got, preds = update_consequents(factors, got, Y, alpha, c)
            want = oracles.consequent_sweep_normal_equations(Xg, want, Y, alpha, c)
            assert_close_rel(got, want)
            assert_close_rel(preds, predictions(Xg, got))

    @pytest.mark.parametrize("kind", ["wide", "tall"])
    def test_zero_weight_without_cooperation(self, kind):
        Xg = designs(kind, seed=2)
        rng = np.random.default_rng(3)
        Y = rng.normal(size=(Xg[0].shape[0], 2))
        alpha = np.array([0.0, 0.4, 0.6])
        c = cfg(beta=0.0, delta=0.3)
        P = [rng.normal(size=(x.shape[1], 2)) for x in Xg]
        got, _ = update_consequents(factor_design(Xg), P, Y, alpha, c)
        want = oracles.consequent_sweep_normal_equations(Xg, P, Y, alpha, c)
        assert not got[0].any() and not want[0].any()
        assert_close_rel(got, want)

    def test_factor_rank_is_min_dimension(self):
        for x in designs("wide") + designs("tall"):
            U, s, Vt = factor_design([x])[0]
            r = min(x.shape)
            assert U.shape == (x.shape[0], r) and s.shape == (r,) and Vt.shape == (r, x.shape[1])


class TestWeights:
    def test_equal_losses_uniform(self):
        Xg_list = mapped_views(seed=8, dims=(3, 3))
        Xg_list[1] = Xg_list[0].copy()
        Y = np.random.default_rng(9).normal(size=(20, 2))
        P = [np.zeros((x.shape[1], 2)) for x in Xg_list]
        alpha = update_weights(predictions(Xg_list, P), Y, cfg())
        assert np.allclose(alpha, 0.5, atol=1e-12)

    def test_temperature_limit_uniform(self):
        Xg_list = mapped_views(seed=10, dims=(3, 4, 2))
        rng = np.random.default_rng(11)
        Y = rng.normal(size=(20, 2))
        P = [rng.normal(size=(x.shape[1], 2)) for x in Xg_list]
        alpha = update_weights(predictions(Xg_list, P), Y, cfg(gamma=1e12))
        assert np.max(np.abs(alpha - 1.0 / 3.0)) <= 1e-9

    def test_softmax_arithmetic(self):
        # losses {0, gamma, 2 gamma} -> weights e^0, e^-1, e^-2 normalized
        gamma = 3.7
        Xg_list = [np.eye(3) for _ in range(3)]
        Y = np.zeros((3, 1))
        P = [
            np.zeros((3, 1)),
            np.full((3, 1), np.sqrt(gamma / 3.0)),
            np.full((3, 1), np.sqrt(2.0 * gamma / 3.0)),
        ]
        alpha = update_weights(predictions(Xg_list, P), Y, cfg(gamma=gamma))
        expect = np.exp([0.0, -1.0, -2.0])
        expect /= expect.sum()
        assert np.allclose(alpha, expect, atol=1e-9)
        assert alpha[0] == pytest.approx(0.66524, abs=1e-5)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_simplex_property(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 6))
        Xg_list = [rng.normal(size=(8, 3)) for _ in range(k)]
        P = [rng.normal(size=(3, 2)) for _ in range(k)]
        Y = rng.normal(size=(8, 2))
        alpha = update_weights(predictions(Xg_list, P), Y, cfg(gamma=float(rng.uniform(0.1, 10))))
        assert np.all(alpha >= 0)
        assert abs(alpha.sum() - 1.0) <= 1e-12


class TestObjective:
    def test_uniform_entropy_value(self):
        Xg_list = mapped_views(seed=12, dims=(3, 4))
        Y = np.zeros((20, 2))
        P = [np.zeros((x.shape[1], 2)) for x in Xg_list]
        alpha = np.full(2, 0.5)
        c = cfg(beta=0.0, gamma=1.3, delta=1e-12)
        val = ensemble_objective(predictions(Xg_list, P), P, alpha, Y, c)
        assert val == pytest.approx(-1.3 * np.log(2.0), abs=1e-9)

    def test_entropy_bounds(self):
        rng = np.random.default_rng(13)
        Xg_list = mapped_views(seed=13, dims=(3, 4, 2))
        Y = np.zeros((20, 2))
        P = [np.zeros((x.shape[1], 2)) for x in Xg_list]
        c = cfg(beta=0.0, gamma=1.0, delta=1e-12)
        for _ in range(20):
            w = rng.uniform(size=3)
            w /= w.sum()
            val = ensemble_objective(predictions(Xg_list, P), P, w, Y, c)
            assert -np.log(3.0) - 1e-9 <= val <= 1e-9


class TestFitPredict:
    def _pipeline(self, mask_rate=0.5, ens_cfg=None, seed=1):
        truth = gen_synthetic(90, 3, [8, 6, 5], 3, 0.05, 6.0, seed=seed)
        masked = apply_mask(truth, mask_rate, seed=seed + 1)
        dsn = apply_normalizer(masked, fit_normalizer(masked))
        rep_cfg = representation.DualRepConfig(
            m=3, lam1=0.0, lam2=2**-5, lam3=2**-5, p=10, max_iters=40, seed=seed + 2
        )
        model = representation.fit(dsn, rep_cfg)
        Y = one_hot(dsn.labels, dsn.n_classes)
        ens = fit(model, dsn, Y, ens_cfg or cfg(gamma=8.0))
        return dsn, model, ens

    def test_training_accuracy_on_separable_data(self):
        dsn, model, ens = self._pipeline()
        design, _ = design_matrices(model, ens.config)
        _, labels = predict_design(ens, design)
        assert np.mean(labels == dsn.labels) >= 0.95

    def test_predict_path_matches_training_data(self):
        dsn, model, ens = self._pipeline()
        scores, labels = predict(ens, representation.transform(model, dsn))
        assert scores.shape == (90, 2)
        assert np.mean(labels == dsn.labels) >= 0.95

    def test_decoupled_limit_keeps_uniform_weights(self):
        _, _, ens = self._pipeline(ens_cfg=cfg(beta=0.0, gamma=1e9, max_iters=20))
        assert np.max(np.abs(ens.alpha - 1.0 / 5.0)) <= 1e-6

    def test_noise_view_gets_smallest_weight(self):
        rng = np.random.default_rng(17)
        n = 40
        labels = np.arange(n) % 2
        Y = one_hot(labels, 2)
        signal = labels[:, None] * 2.0 + rng.normal(size=(n, 3)) * 0.1
        noise = rng.normal(size=(n, 3))
        mats = [signal, signal + 0.05 * rng.normal(size=(n, 3)), noise]
        ens = fit_design(mats, ["s1", "s2", "junk"], Y, cfg(gamma=4.0))
        assert np.argmin(ens.alpha) == 2

    def test_alpha_simplex_after_fit(self):
        _, _, ens = self._pipeline()
        assert abs(ens.alpha.sum() - 1.0) <= 1e-12
        assert np.all(ens.alpha >= 0)

    def test_argmax_invariance_under_scaling(self):
        dsn, model, ens = self._pipeline()
        design, _ = design_matrices(model, ens.config)
        scores, labels = predict_design(ens, design)
        ens.consequents = [3.7 * p for p in ens.consequents]
        scores2, labels2 = predict_design(ens, design)
        assert np.allclose(scores2, 3.7 * scores)
        assert np.array_equal(labels, labels2)

    def test_tie_breaks_to_lowest_class(self):
        Xg = np.ones((3, 2))
        ens = fit_design([np.ones((3, 1))], ["a"], np.zeros((3, 2)), cfg(K=1))
        ens.consequents[0] = np.zeros_like(ens.consequents[0])
        scores, labels = predict_design(ens, [np.ones((3, 1))])
        assert np.all(scores == 0.0)
        assert np.all(labels == 0)

    def test_determinism(self):
        a = self._pipeline(seed=5)[2]
        b = self._pipeline(seed=5)[2]
        assert np.array_equal(a.alpha, b.alpha)
        for pa, pb in zip(a.consequents, b.consequents):
            assert np.array_equal(pa, pb)

    def test_shape_mismatch_raises(self):
        dsn, model, ens = self._pipeline()
        design, _ = design_matrices(model, ens.config)
        design[0] = design[0][:, :-1]
        with pytest.raises(ValueError, match="features"):
            predict_design(ens, design)
