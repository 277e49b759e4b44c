"""Acceptance suite.

Each test covers one release criterion at its stated tolerance and prints a
single PASS line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them).  Criteria 7 and 8 share one planted benchmark harness.
"""

import json
import math
import time

import numpy as np

from mvtsk import classifier, metrics, pipeline
from mvtsk.classifier import EnsembleConfig
from mvtsk.cli import main as cli_main
from mvtsk.dataset import (
    apply_mask,
    apply_normalizer,
    fit_normalizer,
    gen_synthetic,
    one_hot,
    save_dataset,
    split_train_test,
)
from mvtsk.explain import decision_trace, linguistic_labels
from mvtsk.fuzzy import Antecedent, estimate_antecedent, firing_matrix, fuzzy_map
from mvtsk.graphs import build_operators, knn_graph, row_normalize
from mvtsk.representation import (
    DualRepConfig,
    fit,
    init_model,
    objective,
    refresh_graphs,
    update_common,
    update_common_basis,
    update_error,
    update_specific,
    update_specific_basis,
)

import oracles

# Shared planted-benchmark configuration (criteria 7 and 8)
GEN = dict(n=200, v=3, dims=[24, 20, 16], m=4, noise_sd=0.01, class_sep=5.0, seed=7)
REP_CFG = dict(m=4, lam1=0.0, lam2=2**-5, lam3=2**-5, p=30, max_iters=100)
ENS_CFG = dict(K=2, beta=0.125, gamma=4.0, delta=0.5)
ROOT_SEED = 123

_cell_cache = {}


def _planted_truth():
    if "truth" not in _cell_cache:
        _cell_cache["truth"] = gen_synthetic(**GEN)
    return _cell_cache["truth"]


def bench_cell(rate, rep_index, ens_over=None):
    """One mask/split/train/evaluate repetition; cached by configuration."""
    key = (rate, rep_index, tuple(sorted((ens_over or {}).items())))
    if key in _cell_cache:
        return _cell_cache[key]
    truth = _planted_truth()
    seeds = [pipeline.derive_seed(ROOT_SEED, int(rate * 100), rep_index, j) for j in range(4)]
    masked = apply_mask(truth, rate, seeds[0])
    train, test = split_train_test(masked, 0.3, seeds[1], stratified=True)
    ens_kw = dict(ENS_CFG)
    ens_kw.update(ens_over or {})
    model = pipeline.train_model(
        train,
        DualRepConfig(seed=seeds[2], **REP_CFG),
        EnsembleConfig(seed=seeds[3], **ens_kw),
    )
    _, pred = pipeline.predict_model(model, test)
    acc = metrics.accuracy(test.labels, pred)
    _cell_cache[key] = acc
    return acc


def random_instance(seed):
    """Small random masked problem for the gradient suite (N <= 12, V = 3,
    d^v <= 6, m <= 3)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 13))
    dims = [int(rng.integers(3, 7)) for _ in range(3)]
    m = int(rng.integers(1, 4))
    ds = gen_synthetic(n, 3, dims, max(1, min(m, min(dims))), 0.1, 2.0,
                       seed=int(rng.integers(1e6)))
    ds = apply_mask(ds, 0.3, seed=int(rng.integers(1e6)))
    ds = apply_normalizer(ds, fit_normalizer(ds))
    cfg = DualRepConfig(
        m=m,
        lam1=float(rng.uniform(0, 2)),
        lam2=float(rng.uniform(0, 2)),
        lam3=float(rng.uniform(0, 2)),
        p=3,
        max_iters=2,
        seed=int(rng.integers(1e6)),
    )
    return ds, cfg


def rel(grad, block):
    return np.linalg.norm(grad) / (1.0 + np.linalg.norm(block))


def test_acceptance_01_table_arithmetic():
    start = time.time()
    printed = {
        3.628149: 0.000285,
        3.333974: 0.000856,
        3.039800: 0.002367,
        2.941742: 0.003264,
        2.647568: 0.008107,
    }
    worst = 0.0
    for z, p in printed.items():
        worst = max(worst, abs(2.0 * metrics.normal_sf(z) - p))
        assert abs(2.0 * metrics.normal_sf(z) - p) <= 5e-6
    res = metrics.holm_posthoc(np.linspace(1, 10.25, 12), n=12, k=12, control_index=0)
    thresholds = sorted(c.threshold for c in res.comparisons)
    for i, t in zip(range(11, 0, -1), thresholds):
        assert t == 0.05 / i
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: Table-7 tail arithmetic (worst |dp| = {worst:.2e}, "
          f"Holm thresholds exact, {elapsed:.2f}s)")


def test_acceptance_02_block_optimality():
    start = time.time()
    worst_rel = 0.0
    worst_fd = 0.0
    for seed in range(20):
        ds, cfg = random_instance(seed)
        model = init_model(ds, cfg)
        penalties = refresh_graphs(model, cfg)

        def J():
            return objective(model, penalties, cfg)

        # representation blocks: update, gradient-zero, FD agreement
        for v in range(3):
            model.U[v] = update_error(model, v, penalties[v], cfg)
            model.refresh_imputed(v)
            g = oracles.grad_error(model, v, cfg)
            worst_rel = max(worst_rel, rel(g, model.U[v]))
            miss = model.missing[v]
            if miss.any():
                def J_u(v=v):
                    model.refresh_imputed(v)
                    return objective(model, penalties, cfg)
                fd = oracles.central_difference(J_u, model.U[v], mask=miss)
                model.refresh_imputed(v)
                worst_fd = max(worst_fd, np.max(np.abs(fd - g)))

            model.Hs[v] = update_specific(model, v, cfg)
            g = oracles.grad_specific(model, v, cfg)
            worst_rel = max(worst_rel, rel(g, model.Hs[v]))
            fd = oracles.central_difference(J, model.Hs[v])
            worst_fd = max(worst_fd, np.max(np.abs(fd - g)))

            model.Bs[v] = update_specific_basis(model, v, cfg)
            g = oracles.grad_specific_basis(model, v, cfg)
            worst_rel = max(worst_rel, rel(g, model.Bs[v]))
            fd = oracles.central_difference(J, model.Bs[v])
            worst_fd = max(worst_fd, np.max(np.abs(fd - g)))

            model.Bc[v] = update_common_basis(model, v, cfg)
            g = oracles.grad_common_basis(model, v, cfg)
            worst_rel = max(worst_rel, rel(g, model.Bc[v]))
            fd = oracles.central_difference(J, model.Bc[v])
            worst_fd = max(worst_fd, np.max(np.abs(fd - g)))

        model.Hc = update_common(model, cfg)
        g = oracles.grad_common(model, cfg)
        worst_rel = max(worst_rel, rel(g, model.Hc))
        fd = oracles.central_difference(J, model.Hc)
        worst_fd = max(worst_fd, np.max(np.abs(fd - g)))

        # classifier blocks on the same instance
        rng = np.random.default_rng(1000 + seed)
        mats, roles = classifier.design_matrices(model, EnsembleConfig(K=2))
        Y = one_hot(ds.labels, ds.n_classes)
        ecfg = EnsembleConfig(
            K=2, beta=float(rng.uniform(0.1, 2)), gamma=float(rng.uniform(0.5, 4)),
            delta=float(rng.uniform(0.05, 1)),
        )
        Xg = [fuzzy_map(mat, estimate_antecedent(mat, 2)) for mat in mats]
        P = [rng.normal(size=(x.shape[1], Y.shape[1])) for x in Xg]
        alpha = np.full(len(Xg), 1.0 / len(Xg))
        newP, sweep_preds = classifier.update_consequents(
            classifier.factor_design(Xg), P, Y, alpha, ecfg
        )
        work = [p.copy() for p in P]
        for v in range(len(Xg)):
            preds = [Xg[l] @ (newP[l] if l <= v else work[l]) for l in range(len(Xg))]
            lam = sum(preds[l] for l in range(len(Xg)) if l != v) / (len(Xg) - 1)

            def sub(Pv):
                return (
                    alpha[v] * ((Xg[v] @ Pv - Y) ** 2).sum()
                    + ecfg.beta * ((Xg[v] @ Pv - lam) ** 2).sum()
                    + ecfg.delta * (Pv**2).sum()
                )

            g = (
                2 * alpha[v] * Xg[v].T @ (Xg[v] @ newP[v] - Y)
                + 2 * ecfg.beta * Xg[v].T @ (Xg[v] @ newP[v] - lam)
                + 2 * ecfg.delta * newP[v]
            )
            worst_rel = max(worst_rel, rel(g, newP[v]))
            fd = oracles.central_difference(lambda: sub(newP[v]), newP[v])
            worst_fd = max(worst_fd, np.max(np.abs(fd - g)))
            work[v] = newP[v]

        # weight update satisfies the entropy-weighting stationarity:
        # losses + gamma * log(alpha) constant across views
        alpha_new = classifier.update_weights(sweep_preds, Y, ecfg)
        losses = np.array([((Xg[v] @ newP[v] - Y) ** 2).sum() for v in range(len(Xg))])
        station = losses + ecfg.gamma * np.log(alpha_new)
        worst_rel = max(worst_rel, np.ptp(station) / (1.0 + np.abs(station).max()))

    assert worst_rel <= 1e-6
    assert worst_fd <= 1e-4
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 2 PASS: block optimality on 20 instances "
          f"(worst relative gradient {worst_rel:.2e}, worst FD gap {worst_fd:.2e}, "
          f"{elapsed:.1f}s)")


def test_acceptance_03_frozen_graph_monotonicity():
    start = time.time()
    worst = -np.inf
    for seed in range(10):
        ds, _ = random_instance(100 + seed)
        cfg = DualRepConfig(
            m=2, lam1=0.5, lam2=0.5, lam3=0.5, p=3,
            max_iters=50, tol=0.0, graph_refresh=None, seed=seed,
        )
        model = fit(ds, cfg)
        tr = np.asarray(model.objective_trace)
        assert len(tr) == 51
        increase = (tr[1:] - tr[:-1]) / np.maximum(np.abs(tr[:-1]), 1.0)
        worst = max(worst, float(increase.max()))
        assert np.all(increase <= 1e-8)
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 3 PASS: frozen-graph descent over 50 iterations x 10 "
          f"instances (worst relative increase {worst:.2e}, {elapsed:.1f}s)")


def test_acceptance_04_trace_identity_oracle():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        pts = rng.normal(size=(n, 3))
        X = rng.normal(size=(n, 5))
        ops = build_operators(pts, p=min(3, n - 1))
        weights = knn_graph(pts, min(3, n - 1)).weights
        lap_brute = oracles.pairwise_smoothness(weights, X)
        lap_trace = 2.0 * float(np.trace(X.T @ ops.laplacian @ X))
        rec_brute = oracles.reconstruction_residual(row_normalize(weights), X)
        rec_trace = float(np.trace(X.T @ ops.reconstruction @ X))
        worst = max(worst, abs(lap_brute - lap_trace), abs(rec_brute - rec_trace))
        assert abs(lap_brute - lap_trace) <= 1e-8
        assert abs(rec_brute - rec_trace) <= 1e-8
    print(f"\nACCEPTANCE 4 PASS: double-sum vs operator forms on 10 instances "
          f"(worst gap {worst:.2e})")


def test_acceptance_05_tsk_equivalence_oracle():
    worst_eq = 0.0
    worst_norm = 0.0
    rng = np.random.default_rng(2024)
    for _ in range(100):
        K = int(rng.integers(1, 6))
        d = int(rng.integers(1, 7))
        C = int(rng.integers(1, 4))
        ant = Antecedent(rng.uniform(size=(K, d)), rng.uniform(0.05, 0.6, size=(K, d)))
        P = rng.normal(size=(K * (1 + d), C))
        X = rng.uniform(size=(6, d))
        fast = fuzzy_map(X, ant) @ P
        slow = oracles.tsk_rule_by_rule(X, ant.centers, ant.widths, P)
        worst_eq = max(worst_eq, float(np.max(np.abs(fast - slow))))
        _, norm = firing_matrix(X, ant)
        worst_norm = max(worst_norm, float(np.max(np.abs(norm.sum(axis=1) - 1.0))))
    assert worst_eq <= 1e-10
    assert worst_norm <= 1e-12
    print(f"\nACCEPTANCE 5 PASS: rule-based vs linearized TSK on 100 cases "
          f"(worst gap {worst_eq:.2e}, worst normalization error {worst_norm:.2e})")


def test_acceptance_06_ridge_oracle():
    rng = np.random.default_rng(66)
    raw = rng.uniform(size=(30, 4))
    Y = rng.normal(size=(30, 3))
    delta = 0.37
    cfg = EnsembleConfig(K=1, beta=0.0, gamma=1.0, delta=delta, max_iters=5)
    ens = classifier.fit_design([raw], ["only"], Y, cfg)
    Xg = fuzzy_map(raw, ens.antecedents[0])
    expected = oracles.ridge_solution_lstsq(Xg, Y, delta)
    gap = np.linalg.norm(ens.consequents[0] - expected) / np.linalg.norm(expected)
    assert gap <= 1e-8
    print(f"\nACCEPTANCE 6 PASS: K=1 single-view consequent matches independent "
          f"ridge solve (relative gap {gap:.2e})")


def test_acceptance_07_planted_model_recovery():
    start = time.time()
    truth = _planted_truth()
    stats = fit_normalizer(truth)
    truth_n = apply_normalizer(truth, stats)

    # (a) joint imputation beats mean imputation at 50% masking (3 masks)
    drl_rmses, mean_rmses = [], []
    for mask_rep in range(3):
        mask_seed = pipeline.derive_seed(ROOT_SEED, 7, mask_rep)
        masked = apply_mask(truth_n, 0.5, mask_seed)

        def masked_rmse(filled):
            se = cnt = 0.0
            for v in range(3):
                miss = masked.views[v].missing
                t = truth_n.views[v].data[miss]
                se += ((filled[v][miss] - t) ** 2).sum()
                cnt += t.size
            return math.sqrt(se / cnt)

        model = fit(masked, DualRepConfig(seed=mask_seed + 1, **REP_CFG))
        drl_rmses.append(masked_rmse(model.Xt))
        mean_rmses.append(masked_rmse(oracles.column_mean_fill(masked)))
    drl_rmse, mean_rmse = np.mean(drl_rmses), np.mean(mean_rmses)
    assert drl_rmse < mean_rmse

    # (b) end-to-end test accuracy at 50% masking
    accs = [bench_cell(0.5, i) for i in range(10)]
    mean_acc = float(np.mean(accs))
    assert mean_acc >= 0.90

    # (c) benchmark degrades monotonically from light to heavy masking
    acc_low = float(np.mean([bench_cell(0.1, i) for i in range(5)]))
    acc_high = float(np.mean([bench_cell(0.7, i) for i in range(5)]))
    assert acc_low >= acc_high

    elapsed = time.time() - start
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 7 PASS: planted recovery (imputation RMSE {drl_rmse:.4f} < "
          f"mean {mean_rmse:.4f}; test ACC {mean_acc:.4f} >= 0.90; "
          f"rate 0.1 ACC {acc_low:.4f} >= rate 0.7 ACC {acc_high:.4f}; {elapsed:.0f}s)")


def test_acceptance_08_ablation_direction():
    start = time.time()
    full = float(np.mean([bench_cell(0.5, i) for i in range(10)]))
    no_common = float(np.mean([bench_cell(0.5, i, {"use_common": False}) for i in range(10)]))
    no_specific = float(np.mean([bench_cell(0.5, i, {"use_specific": False}) for i in range(10)]))
    no_coop = float(np.mean([bench_cell(0.5, i, {"beta": 0.0}) for i in range(10)]))
    assert full >= no_common
    assert full >= no_specific
    assert full >= no_coop
    elapsed = time.time() - start
    assert elapsed < 900.0
    print(f"\nACCEPTANCE 8 PASS: full model {full:.4f} >= ablations "
          f"(no common {no_common:.4f}, no specific {no_specific:.4f}, "
          f"no cooperation {no_coop:.4f}; {elapsed:.0f}s)")


def test_acceptance_09_interpretability():
    centers = np.array([[0.7332], [0.7780], [0.2635], [0.6699]])
    ant = Antecedent(centers, np.full((4, 1), 0.01))
    labels = linguistic_labels(ant)
    assert labels[0][0] == "Little Large"

    rng = np.random.default_rng(9)
    raw = rng.uniform(size=(40, 3))
    Y = one_hot((raw[:, 0] > 0.5).astype(int), 2)
    ens = classifier.fit_design([raw], ["clinical"], Y, EnsembleConfig(K=4, max_iters=20))
    worst = 0.0
    for i in range(10):
        trace = decision_trace(ens, 0, raw[i])
        mapped = fuzzy_map(raw[i][None, :], ens.antecedents[0])
        expected = (mapped @ ens.consequents[0])[0]
        worst = max(worst, float(np.max(np.abs(trace.contributions.sum(axis=0) - expected))))
    assert worst <= 1e-12
    print(f"\nACCEPTANCE 9 PASS: worked linguistic example labels 'Little Large'; "
          f"traces sum to view scores (worst gap {worst:.2e})")


def test_acceptance_10_determinism(tmp_path):
    ds = gen_synthetic(40, 2, [5, 4], 2, 0.05, 5.0, seed=4)
    manifest = save_dataset(ds, str(tmp_path / "data"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "representation": {"m": 2, "p": 4, "max_iters": 8, "seed": 1},
        "ensemble": {"K": 2, "max_iters": 10, "seed": 2},
    }))
    blobs = []
    for name in ("m1.json", "m2.json"):
        out = tmp_path / name
        assert cli_main(["train", manifest, "--config", str(cfg), "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    print("\nACCEPTANCE 10 PASS: repeated training produces byte-identical model files")
