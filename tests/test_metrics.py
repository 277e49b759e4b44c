import math

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given, settings
from hypothesis import strategies as hst

from mvtsk.metrics import (
    MetricReport,
    accuracy,
    auc,
    chi_square_sf,
    f1,
    friedman_test,
    holm_posthoc,
    normal_sf,
    rank_matrix,
    rankdata,
)

import oracles


class TestTails:
    @pytest.mark.parametrize("df", [1, 2, 3, 5, 11, 40])
    @pytest.mark.parametrize("x", [0.01, 0.5, 2.0, 8.0, 25.0, 80.0])
    def test_chi_square_sf_vs_scipy(self, df, x):
        ours = chi_square_sf(x, df)
        ref = st.chi2.sf(x, df)
        assert ours == pytest.approx(ref, rel=1e-10)

    def test_chi_square_sf_closed_form_two_df(self):
        assert chi_square_sf(8.0, 2) == pytest.approx(math.exp(-4.0), rel=1e-12)

    @pytest.mark.parametrize("z", [0.0, 0.5, 1.0, 2.0, 3.628149, 5.0])
    def test_normal_sf_vs_scipy(self, z):
        assert normal_sf(z) == pytest.approx(st.norm.sf(z), rel=1e-12)

    def test_printed_pairs(self):
        printed = {
            3.628149: 0.000285,
            3.333974: 0.000856,
            3.039800: 0.002367,
            2.941742: 0.003264,
            2.647568: 0.008107,
        }
        for z, p in printed.items():
            assert abs(2.0 * normal_sf(z) - p) <= 5e-6

    def test_chi_square_sf_equals_scipy_on_grid(self):
        xs = np.linspace(0.0, 120.0, 481)
        for df in range(1, 41):
            ref = st.chi2.sf(xs, df)
            assert all(chi_square_sf(float(x), df) == r for x, r in zip(xs, ref))

    def test_normal_sf_equals_scipy_on_grid(self):
        zs = np.linspace(-40.0, 40.0, 4001)
        ref = st.norm.sf(zs)
        assert all(normal_sf(float(z)) == r for z, r in zip(zs, ref))


# integer-valued floats (with -0.0) force ties; arbitrary finite floats do not
_rank_values = hst.one_of(
    hst.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0]),
    hst.floats(allow_nan=False, allow_infinity=False),
)


class TestRankdata:
    @settings(max_examples=300, deadline=None)
    @given(hst.lists(_rank_values, min_size=1, max_size=40))
    def test_equals_scipy(self, values):
        assert np.array_equal(rankdata(values), st.rankdata(values))

    @pytest.mark.parametrize("values", [
        [5.0], [0.0, -0.0, 1.0], [3.0, 1.0, 3.0, 3.0, 2.0, 1.0], [2.0, 2.0, 2.0],
    ])
    def test_cases_equal_scipy(self, values):
        assert np.array_equal(rankdata(values), st.rankdata(values))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            rankdata([0.3, bad, 0.1])
        with pytest.raises(ValueError, match="non-finite"):
            auc([0, 1, 0], [0.3, bad, 0.1])
        with pytest.raises(ValueError, match="non-finite"):
            rank_matrix([[0.3, 0.2], [bad, 0.1]])


class TestAccF1:
    def test_all_correct(self):
        assert accuracy([0, 1, 1], [0, 1, 1]) == 1.0
        assert f1([0, 1, 1], [0, 1, 1]) == 1.0

    def test_zero_recall_convention(self):
        assert f1([1, 1, 0], [0, 0, 0]) == 0.0

    def test_hand_arithmetic(self):
        # precision 1, recall 0.5 -> F1 = 2/3
        assert f1([1, 1, 0, 0], [1, 0, 0, 0]) == pytest.approx(2.0 / 3.0)

    def test_macro_three_classes(self):
        y = [0, 1, 2, 0, 1, 2]
        yhat = [0, 1, 2, 0, 2, 1]
        per_class = [f1(np.asarray(y) == c, np.asarray(yhat) == c, positive_class=1) for c in range(3)]
        assert f1(y, yhat) == pytest.approx(np.mean(per_class))

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            accuracy([], [])


class TestAuc:
    def test_perfect_ordering(self):
        assert auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_all_ties_half(self):
        assert auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == 0.5

    def test_hand_example(self):
        assert auc([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.1]) == pytest.approx(0.75)

    def test_single_class_errors(self):
        with pytest.raises(ValueError):
            auc([1, 1], [0.2, 0.3])

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_pair_counting(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 13))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.uniform(size=n), 1)  # coarse grid forces ties
        assert auc(labels, scores) == pytest.approx(
            oracles.auc_pair_count(labels, scores), abs=1e-12
        )

    def test_macro_multiclass(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        scores = np.eye(3)[labels] + 0.01
        assert auc(labels, scores) == 1.0


class TestFriedman:
    def test_dominant_algorithm_rank_one(self):
        results = np.array([[0.9, 0.5, 0.4], [0.8, 0.6, 0.5], [0.95, 0.7, 0.6]])
        fr = friedman_test(results)
        assert fr.avg_ranks[0] == 1.0

    def test_identical_results_p_one(self):
        results = np.tile([0.5, 0.5], (4, 1))
        fr = friedman_test(results)
        assert fr.statistic == 0.0
        assert fr.p_value == pytest.approx(1.0, abs=1e-9)

    def test_fixed_rank_example(self):
        # ranks (1, 2, 3) in every one of 4 settings -> chi2 = 8, p = e^-4
        results = np.tile([0.9, 0.8, 0.7], (4, 1))
        fr = friedman_test(results)
        assert fr.statistic == pytest.approx(8.0, abs=1e-12)
        assert fr.p_value == pytest.approx(math.exp(-4.0), rel=1e-9)

    def test_rank_sums_per_setting(self):
        rng = np.random.default_rng(3)
        results = rng.uniform(size=(6, 5))
        ranks = rank_matrix(results)
        assert np.allclose(ranks.sum(axis=1), 5 * 6 / 2)

    def test_avg_rank_centering(self):
        rng = np.random.default_rng(4)
        fr = friedman_test(rng.uniform(size=(5, 4)))
        assert fr.avg_ranks.mean() == pytest.approx((4 + 1) / 2)


class TestHolm:
    def test_thresholds_match_table(self):
        # 12 algorithms -> 11 comparisons; thresholds 0.05 / i
        ranks = np.linspace(1.0, 10.25, 12)
        res = holm_posthoc(ranks, n=12, k=12, control_index=0)
        thresholds = sorted(c.threshold for c in res.comparisons)
        assert thresholds[0] == pytest.approx(0.05 / 11, abs=1e-12)
        assert 0.0125 in [round(t, 6) for t in thresholds]
        assert thresholds[-1] == pytest.approx(0.05, abs=1e-12)

    def test_zero_z_p_one(self):
        res = holm_posthoc(np.array([2.0, 2.0, 1.0]), n=8, k=3, control_index=0)
        tied = [c for c in res.comparisons if c.z == 0.0]
        assert tied and tied[0].p == pytest.approx(1.0)

    def test_z_formula(self):
        ranks = np.array([1.0, 3.0])
        res = holm_posthoc(ranks, n=10, k=2, control_index=0)
        se = math.sqrt(2 * 3 / (6.0 * 10))
        assert res.comparisons[0].z == pytest.approx(2.0 / se)

    def test_stepdown_stops_at_first_acceptance(self):
        # ranks chosen so p values straddle the thresholds
        ranks = np.array([1.0, 4.0, 3.5, 1.2, 1.1])
        res = holm_posthoc(ranks, n=10, k=5, control_index=0)
        rejected = [c.reject for c in res.comparisons]
        # once a hypothesis is accepted everything after stays accepted
        if False in rejected:
            first = rejected.index(False)
            assert not any(rejected[first:])

    def test_control_out_of_range(self):
        with pytest.raises(ValueError):
            holm_posthoc(np.array([1.0, 2.0]), n=4, k=2, control_index=5)


class TestReport:
    def test_mean_variance_recomputable(self):
        rep = MetricReport()
        rep.add(0.9, 0.95, 0.85)
        rep.add(0.8, 0.90, 0.75)
        s = rep.summary()
        assert s["acc"]["mean"] == pytest.approx(np.mean([0.9, 0.8]))
        assert s["acc"]["variance"] == pytest.approx(np.var([0.9, 0.8], ddof=1))
        assert s["acc"]["formatted"] == "0.8500±0.0050"

    def test_single_rep_zero_variance(self):
        rep = MetricReport()
        rep.add(0.9, 0.9, 0.9)
        assert rep.summary()["auc"]["variance"] == 0.0
