"""Independent reference implementations used as test oracles.

Everything here is written the slow, obvious way (explicit loops, double
sums, rule-by-rule evaluation) so it shares no code path with the package.
"""

import csv
import json
import os
import sys
import traceback
import warnings

import numpy as np
from scipy.spatial.distance import cdist

from mvtsk import cli
from mvtsk.cli import _apply_overrides
from mvtsk.dataset import DegeneracyWarning
from mvtsk.graphs import knn_graph, laplacian, reconstruction_operator, row_normalize
from mvtsk.metrics import accuracy
from mvtsk.pipeline import predict_model, train_model


# ---------------------------------------------------------------------------
# p-NN graph by full stable sort (lowest index first among equal distances)
# ---------------------------------------------------------------------------

def knn_graph_by_sort(points, p, bandwidth="median"):
    """(weights, p, bandwidth) of the p-NN Gaussian graph, choosing each
    row's neighbors by a stable argsort of its distances and a row loop."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    if n == 1:
        return np.zeros((1, 1)), 0, 1.0
    p = int(min(max(p, 1), n - 1))

    dist = cdist(points, points)
    order = np.argsort(dist, axis=1, kind="stable")
    neighbor_idx = np.empty((n, p), dtype=int)
    for i in range(n):
        row = order[i]
        neighbor_idx[i] = row[row != i][:p]

    used = dist[np.repeat(np.arange(n), p), neighbor_idx.ravel()]
    if bandwidth == "median":
        sigma = float(np.median(used))
        if sigma <= 0.0:
            warnings.warn("all neighbor distances are zero", DegeneracyWarning)
            sigma = 1.0
    else:
        sigma = float(bandwidth)

    weights = np.zeros((n, n))
    rows = np.repeat(np.arange(n), p)
    weights[rows, neighbor_idx.ravel()] = np.exp(-(used**2) / (2.0 * sigma**2))
    return weights, p, sigma


# ---------------------------------------------------------------------------
# Graph quadratic forms (double-sum formulations)
# ---------------------------------------------------------------------------

def pairwise_smoothness(weights, X):
    """sum_ij w_ij ||x_i - x_j||^2 over the raw (asymmetric) weights."""
    n = X.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            diff = X[i] - X[j]
            total += weights[i, j] * float(diff @ diff)
    return total


def reconstruction_residual(coefficients, X):
    """sum_i ||x_i - sum_j c_ij x_j||^2 with rows of c as blend weights."""
    n = X.shape[0]
    total = 0.0
    for i in range(n):
        blend = np.zeros_like(X[i])
        for j in range(n):
            blend += coefficients[i, j] * X[j]
        resid = X[i] - blend
        total += float(resid @ resid)
    return total


def slow_representation_objective(model, cfg):
    """Training loss on graphs built from the model's current representations,
    via double sums instead of trace forms.

    Uses the identity tr(X^T L X) = 0.5 * sum_ij G_ij ||x_i - x_j||^2 on the
    raw graph weights, so it matches the packaged objective exactly when that
    identity holds.
    """
    total = 0.0
    common = knn_graph(model.Hc.T, cfg.p).weights
    for v in range(model.n_views):
        xt = model.Xt[v]
        recon = model.Hs[v].T @ model.Bs[v] + model.Hc.T @ model.Bc[v]
        total += float(((xt - recon) ** 2).sum())
        total += cfg.lam1 * float(((model.Hs[v].T @ model.Hc) ** 2).sum())
        for weights in (knn_graph(model.Hs[v].T, cfg.p).weights, common):
            total += cfg.lam2 * 0.5 * pairwise_smoothness(weights, xt)
            total += cfg.lam3 * reconstruction_residual(row_normalize(weights), xt)
    return total


# ---------------------------------------------------------------------------
# Analytic gradients of the frozen-graph objective
# ---------------------------------------------------------------------------

def grad_error(model, v, cfg):
    """Gradient in view v's corrections, zero on present rows.  Both graph
    penalties are formed densely from graphs on the model's current
    representations, whatever form the package keeps them in."""
    m2 = 0.0
    for points in (model.Hs[v].T, model.Hc.T):
        graph = knn_graph(points, cfg.p)
        m2 = m2 + cfg.lam2 * laplacian(graph) + cfg.lam3 * reconstruction_operator(graph)
    recon = model.Hs[v].T @ model.Bs[v] + model.Hc.T @ model.Bc[v]
    grad = 2.0 * ((model.Xt[v] - recon) + m2 @ model.Xt[v])
    grad[~model.missing[v]] = 0.0
    return grad


def grad_specific(model, v, cfg):
    resid = model.Xt[v] - model.Hs[v].T @ model.Bs[v] - model.Hc.T @ model.Bc[v]
    return -2.0 * model.Bs[v] @ resid.T + 2.0 * cfg.lam1 * (model.Hc @ model.Hc.T) @ model.Hs[v]


def grad_specific_basis(model, v, cfg):
    resid = model.Xt[v] - model.Hs[v].T @ model.Bs[v] - model.Hc.T @ model.Bc[v]
    return -2.0 * model.Hs[v] @ resid


def grad_common_basis(model, v, cfg):
    resid = model.Xt[v] - model.Hs[v].T @ model.Bs[v] - model.Hc.T @ model.Bc[v]
    return -2.0 * model.Hc @ resid


def grad_common(model, cfg):
    grad = np.zeros_like(model.Hc)
    for v in range(model.n_views):
        resid = model.Xt[v] - model.Hs[v].T @ model.Bs[v] - model.Hc.T @ model.Bc[v]
        grad += -2.0 * model.Bc[v] @ resid.T
        grad += 2.0 * cfg.lam1 * (model.Hs[v] @ model.Hs[v].T) @ model.Hc
    return grad


def central_difference(fun, arr, mask=None, eps=1e-6):
    """Central finite differences of fun() w.r.t. entries of arr (in place)."""
    grad = np.zeros_like(arr)
    it = np.ndindex(*arr.shape)
    for idx in it:
        if mask is not None and not mask[idx[0]]:
            continue
        orig = arr[idx]
        arr[idx] = orig + eps
        up = fun()
        arr[idx] = orig - eps
        down = fun()
        arr[idx] = orig
        grad[idx] = (up - down) / (2.0 * eps)
    return grad


# ---------------------------------------------------------------------------
# Rule-based TSK evaluation (never touches the fuzzy feature space)
# ---------------------------------------------------------------------------

def tsk_rule_by_rule(X, centers, widths, P_g):
    """Evaluate the rule base the long way: per-rule memberships, products,
    normalization, affine consequents, weighted sum."""
    X = np.atleast_2d(X)
    n, d = X.shape
    K = centers.shape[0]
    C = P_g.shape[1]
    out = np.zeros((n, C))
    for i in range(n):
        mu = np.ones(K)
        for k in range(K):
            for j in range(d):
                mu[k] *= np.exp(-((X[i, j] - centers[k, j]) ** 2) / (2.0 * widths[k, j]))
        norm = mu / mu.sum()
        for k in range(K):
            block = P_g[k * (1 + d) : (k + 1) * (1 + d)]
            fk = block[0].copy()
            for j in range(d):
                fk += X[i, j] * block[j + 1]
            out[i] += norm[k] * fk
    return out


# ---------------------------------------------------------------------------
# Misc small oracles
# ---------------------------------------------------------------------------

def ridge_solution_lstsq(X, Y, delta):
    """Regularized least squares via an augmented lstsq (no normal equations)."""
    d = X.shape[1]
    aug_X = np.vstack([X, np.sqrt(delta) * np.eye(d)])
    aug_Y = np.vstack([Y, np.zeros((d, Y.shape[1]))])
    sol, *_ = np.linalg.lstsq(aug_X, aug_Y, rcond=None)
    return sol


def consequent_sweep_normal_equations(Xg, P, Y, alpha, cfg):
    """One Gauss-Seidel consequent sweep, each view solved from its normal
    equations ((alpha_v + beta) Xg^T Xg + delta I) P_v = Xg^T (alpha_v Y + beta lam_v),
    with lam_v the mean ("mean") or sum ("sum") of the other views' latest
    predictions."""
    P = [np.array(p, dtype=float) for p in P]
    n_views = len(Xg)
    for v in range(n_views):
        lam = np.zeros_like(Y, dtype=float)
        for l in range(n_views):
            if l != v:
                lam = lam + Xg[l] @ P[l]
        if cfg.alignment == "mean" and n_views > 1:
            lam = lam / (n_views - 1)
        gram = (alpha[v] + cfg.beta) * (Xg[v].T @ Xg[v]) + cfg.delta * np.eye(Xg[v].shape[1])
        rhs = Xg[v].T @ (alpha[v] * Y + cfg.beta * lam)
        P[v] = np.linalg.solve(gram, rhs)
    return P


def auc_pair_count(labels, scores):
    """AUC as the fraction of concordant positive/negative pairs (ties 1/2)."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def linear_classifier_accuracy(X, labels, n_classes):
    """Least-squares one-hot linear classifier, train = eval set."""
    Xa = np.hstack([np.ones((X.shape[0], 1)), X])
    Y = np.zeros((X.shape[0], n_classes))
    Y[np.arange(labels.size), labels] = 1.0
    W, *_ = np.linalg.lstsq(Xa, Y, rcond=None)
    pred = np.argmax(Xa @ W, axis=1)
    return float(np.mean(pred == labels))


def column_mean_fill(ds):
    """Each view's data with its missing rows set to the column means of its
    present rows: the reference that joint imputation must beat."""
    filled = []
    for vb in ds.views:
        data = vb.data.copy()
        data[vb.missing] = data[vb.present].mean(axis=0)
        filled.append(data)
    return filled


# ---------------------------------------------------------------------------
# bench grid selection by retraining both stages at every grid point
# ---------------------------------------------------------------------------

def select_by_retraining(sub_tr, sub_val, rep_cfg, ens_cfg, points):
    """The first grid point with the best validation accuracy, training a
    whole model (stage 1 included) and transforming sub_val at every point.
    It necessarily runs the package's training; what it does not share is
    reuse of a stage-1 model or transform across points."""
    best = None
    for overrides in points:
        r_cfg, e_cfg = _apply_overrides(rep_cfg, ens_cfg, overrides)
        model = train_model(sub_tr, r_cfg, e_cfg)
        _, val_pred = predict_model(model, sub_val)
        acc = accuracy(sub_val.labels, val_pred)
        if best is None or acc > best[0]:
            best = (acc, overrides)
    return best[1]


# ---------------------------------------------------------------------------
# `mvtsk bench` running its cells one after another in this process
# ---------------------------------------------------------------------------

def bench_serially(args):
    """``cli.cmd_bench`` as a plain loop over the cells, without worker
    processes; each cell's traceback goes to stderr as the cell fails."""
    rep_cfg, ens_cfg, doc = cli._load_run_config(args.config)
    rates = [float(x) for x in args.rates.split(",")]
    if any(not 0.0 <= r < 1.0 for r in rates):
        raise ValueError(f"rates must lie in [0, 1): {rates}")
    if args.reps < 1:
        raise ValueError(f"--reps must be >= 1, got {args.reps}")
    test_fraction = (
        args.test_fraction if args.test_fraction is not None
        else doc.get("test_fraction", 0.3)
    )
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test fraction must lie in (0, 1), got {test_fraction}")
    points = None
    if args.grid:
        with open(args.grid) as fh:
            points = cli._grid_points(json.load(fh), rep_cfg, ens_cfg)
    ds = cli._dataset.load_dataset(args.manifest)
    os.makedirs(args.out, exist_ok=True)

    rows, errors = [], []
    reports = {rate: cli._metrics.MetricReport() for rate in rates}
    for rate_idx, rate in enumerate(rates):
        for rep in range(args.reps):
            try:
                cell = cli._run_cell(
                    ds, rate, rep, rep_cfg, ens_cfg, test_fraction,
                    args.seed, rate_idx, points,
                )
                reports[rate].add(cell["acc"], cell["auc"], cell["f1"])
                rows.append((rate, rep, cell["acc"], cell["auc"], cell["f1"]))
            except Exception as exc:
                errors.append({
                    "rate": rate, "rep": rep, "error": f"{type(exc).__name__}: {exc}",
                })
                traceback.print_exc(file=sys.stderr)

    with open(os.path.join(args.out, "results.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rate", "rep", "acc", "auc", "f1"])
        for rate, rep, acc, auc_val, f1_val in rows:
            writer.writerow([rate, rep, "%.17g" % acc, "%.17g" % auc_val, "%.17g" % f1_val])

    aggregate = {
        "rates": {
            str(rate): reports[rate].summary() for rate in rates if reports[rate].acc
        },
        "reps": args.reps,
        "seed": args.seed,
        "test_fraction": test_fraction,
    }
    cli._write_json(os.path.join(args.out, "aggregate.json"), aggregate)

    for rate in rates:
        if reports[rate].acc:
            s = reports[rate].summary()
            print(f"rate {rate}: ACC {s['acc']['formatted']}  AUC {s['auc']['formatted']}"
                  f"  F1 {s['f1']['formatted']}")
    if errors:
        cli._write_json(os.path.join(args.out, "errors.json"), errors)
        print(f"{len(errors)} cells failed; see errors.json", file=sys.stderr)
        return 2
    return 0
