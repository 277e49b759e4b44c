import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvtsk.dataset import DegeneracyWarning
from mvtsk.fuzzy import (
    Q_FLOOR,
    Antecedent,
    estimate_antecedent,
    firing_matrix,
    firing_strengths,
    fuzzy_map,
    varpart_centers,
)

import oracles


class TestVarPart:
    def test_single_cluster_is_column_means(self):
        X = np.array([[1.0, 2.0], [3.0, 6.0]])
        assert np.allclose(varpart_centers(X, 1), [[2.0, 4.0]])

    def test_perfect_binary_split(self):
        assert np.allclose(sorted(varpart_centers(np.array([[0.0], [1.0]]), 2).ravel()), [0.0, 1.0])

    def test_two_cluster_scalar_example(self):
        X = np.array([[0.0], [0.1], [10.0], [10.1]])
        centers = varpart_centers(X, 2)
        assert np.allclose(sorted(centers.ravel()), [0.05, 10.05])

    def test_k_exceeds_n(self):
        with pytest.raises(ValueError):
            varpart_centers(np.zeros((2, 1)), 3)

    def test_deterministic(self):
        X = np.random.default_rng(0).normal(size=(20, 3))
        assert np.array_equal(varpart_centers(X, 5), varpart_centers(X, 5))

    def test_identical_rows_peel_off(self):
        X = np.ones((4, 2))
        centers = varpart_centers(X, 3)
        assert centers.shape == (3, 2)
        assert np.allclose(centers, 1.0)


class TestAntecedent:
    def test_singleton_cluster_gets_floor_width(self):
        X = np.array([[0.0], [10.0]])
        ant = estimate_antecedent(X, 2)
        assert np.allclose(ant.widths, Q_FLOOR)

    def test_width_linear_in_h(self):
        X = np.random.default_rng(1).uniform(size=(30, 2))
        a1 = estimate_antecedent(X, 3, h=1.0)
        a2 = estimate_antecedent(X, 3, h=2.0)
        assert np.allclose(a2.widths - Q_FLOOR, 2.0 * (a1.widths - Q_FLOOR))

    def test_scalar_example_widths(self):
        X = np.array([[0.0], [0.1], [10.0], [10.1]])
        ant = estimate_antecedent(X, 2, h=1.0)
        assert np.allclose(ant.widths, 0.0025 + Q_FLOOR)

    def test_pure_function(self):
        X = np.random.default_rng(2).uniform(size=(15, 4))
        a = estimate_antecedent(X, 4)
        b = estimate_antecedent(X, 4)
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.widths, b.widths)


class TestFiring:
    def test_normalization_at_center(self):
        ant = Antecedent([[0.0, 0.0], [1.0, 1.0]], [[0.2, 0.2], [0.2, 0.2]])
        mu, norm = firing_strengths(np.array([0.0, 0.0]), ant)
        assert mu[0] == 1.0
        assert norm.sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_rule_always_one(self):
        ant = Antecedent([[0.5]], [[0.1]])
        for x in (-3.0, 0.0, 7.0):
            _, norm = firing_strengths(np.array([x]), ant)
            assert norm[0] == 1.0

    def test_logistic_identity_example(self):
        ant = Antecedent([[0.0], [1.0]], [[0.5], [0.5]])
        mu, norm = firing_strengths(np.array([0.0]), ant)
        assert mu[0] == pytest.approx(1.0, abs=1e-12)
        assert mu[1] == pytest.approx(np.exp(-1.0), abs=1e-12)
        assert norm[0] == pytest.approx(0.7310586, abs=1e-6)
        assert norm[1] == pytest.approx(0.2689414, abs=1e-6)

    def test_underflow_fallback_uniform(self):
        ant = Antecedent([[0.0], [1.0]], [[1e-300], [1e-300]])
        with pytest.warns(DegeneracyWarning):
            _, norm = firing_matrix(np.array([[1e155]]), ant)
        assert np.allclose(norm, 0.5)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_normalized_sums_to_one(self, seed):
        rng = np.random.default_rng(seed)
        K, d = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        ant = Antecedent(rng.uniform(size=(K, d)), rng.uniform(0.01, 0.5, size=(K, d)))
        X = rng.uniform(-2, 3, size=(4, d))
        _, norm = firing_matrix(X, ant)
        assert np.max(np.abs(norm.sum(axis=1) - 1.0)) <= 1e-12


class TestFuzzyMap:
    def test_single_rule_is_affine_design(self):
        X = np.random.default_rng(3).uniform(size=(5, 3))
        ant = estimate_antecedent(X, 1)
        Xg = fuzzy_map(X, ant)
        assert np.allclose(Xg, np.hstack([np.ones((5, 1)), X]))

    def test_embedded_normalization_witness(self):
        X = np.random.default_rng(4).uniform(size=(6, 2))
        ant = estimate_antecedent(X, 3)
        Xg = fuzzy_map(X, ant)
        ones_cols = Xg[:, ::3]  # first entry of each (1 + d) block
        assert np.allclose(ones_cols.sum(axis=1), 1.0)

    def test_two_rule_scalar_example(self):
        ant = Antecedent([[0.0], [1.0]], [[0.5], [0.5]])
        Xg = fuzzy_map(np.array([[0.0]]), ant)
        assert Xg.shape == (1, 4)
        assert Xg[0] == pytest.approx([0.7310586, 0.0, 0.2689414, 0.0], abs=1e-6)

    def test_underflowing_rules_leave_no_subnormals(self):
        # narrow, well-separated rules: between x = 0.4256 and 0.4292 the
        # far rule's normalized strength exp(-5000(1 - 2x)) is subnormal,
        # and below that it underflows to 0
        tiny = np.finfo(float).tiny
        ant = Antecedent([[0.0], [1.0]], [[1e-4], [1e-4]])
        X = np.linspace(0.0, 1.0, 1001)[:, None]
        _, norm = firing_matrix(X, ant)
        assert ((norm > 0) & (norm < tiny)).any()
        assert np.max(np.abs(norm.sum(axis=1) - 1.0)) <= 1e-12
        Xg = fuzzy_map(X, ant)
        assert not ((Xg != 0) & (np.abs(Xg) < tiny)).any()
        product = (norm[:, :, None] * np.hstack([np.ones_like(X), X])[:, None, :]).reshape(-1, 4)
        expected = np.where(np.abs(product) < tiny, 0.0, product)
        assert np.array_equal(Xg, expected)


class TestTskOutput:
    """The linearized rule-base output fuzzy_map(X) @ P."""

    def test_single_rule_affine_model(self):
        X = np.array([[0.0], [1.0], [2.0]])
        ant = estimate_antecedent(X, 1)
        P = np.array([[3.0], [2.0]])  # bias 3, slope 2
        out = fuzzy_map(X, ant) @ P
        assert np.allclose(out[:, 0], 3.0 + 2.0 * X[:, 0])

    @pytest.mark.parametrize("seed", range(10))
    def test_rule_based_equals_linearized(self, seed):
        rng = np.random.default_rng(seed)
        K, d, C = int(rng.integers(1, 6)), int(rng.integers(1, 7)), int(rng.integers(1, 4))
        ant = Antecedent(rng.uniform(size=(K, d)), rng.uniform(0.05, 0.6, size=(K, d)))
        P = rng.normal(size=(K * (1 + d), C))
        X = rng.uniform(size=(8, d))
        fast = fuzzy_map(X, ant) @ P
        slow = oracles.tsk_rule_by_rule(X, ant.centers, ant.widths, P)
        assert np.max(np.abs(fast - slow)) <= 1e-10
