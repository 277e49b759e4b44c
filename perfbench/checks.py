"""Correctness checks computed with plain numpy, apart from the program.

Each check raises ``CheckFailed`` with a message; margins are stated in
the README.
"""

from __future__ import annotations

import numpy as np


# Joint imputation may trail column means by at most this factor.  Run to
# convergence it beats them (acceptance test 07); after a few iterations it
# is worse, see the README.
IMPUTE_MARGIN = 1.1


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def require(ok, message: str):
    if not ok:
        raise CheckFailed(message)


def normalize(data: np.ndarray, present: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Min/max scaling to [0, 1] with constant columns at 0.5 and absent rows
    zeroed, written out independently of ``dataset.NormalizationStats``."""
    span = hi - lo
    const = span == 0
    out = (data - lo) / np.where(const, 1.0, span)
    out[:, const] = 0.5
    out = np.clip(out, 0.0, 1.0)
    out[~present] = 0.0
    return out


def check_training(model, train, truth_train, iters: int, sweeps: int) -> float:
    """Stage-1 and ensemble invariants of one trained model.

    Returns the RMSE of the imputed missing entries of the training rows
    against the hidden true values, in normalised space, after comparing it
    with column-mean imputation of the same entries.
    """
    rep = model.rep_model
    se = se_mean = count = 0.0
    for v, (vb, tb) in enumerate(zip(train.views, truth_train.views)):
        present = vb.present
        require(np.array_equal(vb.data[present], tb.data[present]),
                f"view {v}: truth rows do not line up with the training split")
        lo, hi = vb.data[present].min(axis=0), vb.data[present].max(axis=0)
        require(np.array_equal(lo, model.normalization.mins[v])
                and np.array_equal(hi, model.normalization.maxs[v]),
                f"view {v}: normalisation is not the min/max of the present rows")
        normed = normalize(vb.data, present, lo, hi)
        require(np.array_equal(rep.Xt[v][present], normed[present]),
                f"view {v}: present rows of the imputed view differ from the input")
        missing = ~present
        if missing.any():
            truth = normalize(tb.data, np.ones_like(present), lo, hi)[missing]
            se += float(((rep.Xt[v][missing] - truth) ** 2).sum())
            se_mean += float(((normed[present].mean(axis=0) - truth) ** 2).sum())
            count += truth.size
    require(count > 0, "no missing training entries to score the imputation on")
    rmse, mean_rmse = (se / count) ** 0.5, (se_mean / count) ** 0.5
    require(np.isfinite(rmse) and rmse < IMPUTE_MARGIN * mean_rmse,
            f"imputation RMSE {rmse:.4f} exceeds {IMPUTE_MARGIN} x column means {mean_rmse:.4f}")

    alpha = np.asarray(model.ensemble.alpha)
    require(np.all(alpha >= 0) and abs(alpha.sum() - 1.0) <= 1e-12,
            f"view weights are not on the simplex: {alpha}")
    n_iters = len(rep.objective_trace) - 1
    require(n_iters == iters, f"{n_iters} representation iterations, configured {iters}")
    n_sweeps = len(model.ensemble.history)
    require(n_sweeps == sweeps, f"{n_sweeps} ensemble sweeps, configured {sweeps}")
    return rmse


def check_scores(scores, labels, n_rows: int, n_classes: int):
    scores = np.asarray(scores)
    require(scores.shape == (n_rows, n_classes), f"scores shape {scores.shape}")
    require(np.isfinite(scores).all(), "non-finite scores")
    require(np.array_equal(labels, np.argmax(scores, axis=1)),
            "labels are not the argmax of the scores")


def accuracy(labels, truth) -> float:
    return float(np.mean(np.asarray(labels) == np.asarray(truth)))
