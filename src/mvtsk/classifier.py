"""Cooperative multi-view TSK ensemble over imputed and latent views.

The ensemble stacks V + 2 design matrices: the V imputed views, the common
representation (transposed to instances x features), and the concatenated
specific representations.  Each gets its own deterministic antecedent and a
linear consequent in fuzzy feature space.  Consequents are trained by
Gauss-Seidel sweeps of ridge systems that pull every view's predictions
toward the aggregate of the others (cooperation weight beta), while view
weights follow a softmax of negative per-view losses at temperature gamma
(an entropy-regularized weighting).  Prediction is the weight-averaged sum
of the per-view outputs with argmax decoding.

Between sweeps only a view's weight and its cooperation target change, so
each view's N x D mapped design is factored once per fit by a thin SVD
(rank r = min(N, D)).  A sweep then solves every view's ridge system for
its current penalty through that factor in O((N + D) r C), with no Gram
matrix and no D x D solve.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from mvtsk.dataset import MultiViewDataset
from mvtsk.fuzzy import estimate_antecedent, fuzzy_map
from mvtsk.representation import BatchRepresentation, DualRepModel, require_integers


@dataclass
class EnsembleConfig:
    """Hyperparameters for the fuzzy ensemble.

    K            rules per view
    beta         cooperation (cross-view alignment) weight
    gamma        entropy temperature for the view weights (> 0)
    delta        ridge on the consequents (> 0)
    alignment    "mean" averages the other views' predictions for the
                 cooperation target; "sum" uses their unaveraged sum
    use_common / use_specific
                 ablation switches for the two latent views
    """

    K: int = 4
    beta: float = 1.0
    gamma: float = 1.0
    delta: float = 1.0
    max_iters: int = 100
    tol: float = 1e-6
    alignment: str = "mean"
    h: float = 1.0
    use_common: bool = True
    use_specific: bool = True
    seed: int = 0

    def __post_init__(self):
        require_integers(self, "K", "max_iters", "seed")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not isinstance(self.tol, numbers.Real) or isinstance(self.tol, bool):
            raise ValueError(f"tol must be a real number, got {self.tol!r}")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.alignment not in ("mean", "sum"):
            raise ValueError(f"alignment must be 'mean' or 'sum', got {self.alignment!r}")


@dataclass
class ViewEnsemble:
    """Trained ensemble: per-view antecedents, consequents, and weights.

    roles[v] names view v: the dataset view names for the imputed views,
    then "common" and "specific" for the latent ones (when enabled).
    alpha lives on the simplex.
    """

    antecedents: list  # list[Antecedent]
    consequents: list  # list[np.ndarray], each K(1+d_v) x C
    alpha: np.ndarray
    roles: list
    config: EnsembleConfig
    history: list = field(default_factory=list)

    @property
    def n_views(self) -> int:
        return len(self.roles)


def design_matrices(rep: DualRepModel | BatchRepresentation, cfg: EnsembleConfig):
    """Raw (unmapped) design matrices and their role names.

    ``rep`` (a trained model or a ``transform`` of new data) gives the imputed
    views Xt, then the common representation Hc and the concatenated specific
    representations Hs as instances x features.  The imputed views are named
    view0, view1, ...; ``fit`` names them after the dataset's views.
    """
    mats = [xt.copy() for xt in rep.Xt]
    roles = [f"view{v}" for v in range(len(mats))]
    if cfg.use_common:
        mats.append(rep.Hc.T.copy())
        roles.append("common")
    if cfg.use_specific:
        mats.append(np.hstack([h.T for h in rep.Hs]))
        roles.append("specific")
    return mats, roles


def _alignment_target(preds: list, v: int, cfg: EnsembleConfig) -> np.ndarray:
    total = np.zeros_like(preds[v])
    for l, pred in enumerate(preds):
        if l != v:
            total += pred
    if cfg.alignment == "mean" and len(preds) > 1:
        total /= len(preds) - 1
    return total


def factor_design(Xg: list) -> list:
    """Thin SVD ``(U, s, Vt)`` of each view's mapped design, Xg = U diag(s) Vt."""
    return [np.linalg.svd(x, full_matrices=False) for x in Xg]


def update_consequents(
    factors: list, P: list, Y: np.ndarray, alpha: np.ndarray, cfg: EnsembleConfig
):
    """One Gauss-Seidel sweep of the per-view ridge systems.

    ``factors`` is ``factor_design`` of the mapped designs.  Views are
    visited in index order and the cooperation target is refreshed from the
    latest consequents after every view, so each solve is the exact
    minimizer of its view's subproblem at that moment.  With target
    t = alpha_v Y + beta lam_v, that minimizer is
    V diag(s / ((alpha_v + beta) s^2 + delta)) U^T t: the right-hand side
    X^T t lies in span(V), so the thin factor solves N < D and N >= D alike.

    Returns the new consequents and every view's predictions Xg_v @ P_v
    under them.
    """
    P = list(P)
    preds = [U @ (s[:, None] * (Vt @ p)) for (U, s, Vt), p in zip(factors, P)]
    for v, (U, s, Vt) in enumerate(factors):
        lam = _alignment_target(preds, v, cfg)
        proj = U.T @ (alpha[v] * Y + cfg.beta * lam)
        shrink = s / ((alpha[v] + cfg.beta) * s**2 + cfg.delta)
        P[v] = Vt.T @ (shrink[:, None] * proj)
        preds[v] = U @ ((s * shrink)[:, None] * proj)
    return P, preds


def update_weights(preds: list, Y: np.ndarray, cfg: EnsembleConfig) -> np.ndarray:
    """Softmax of negative per-view squared losses at temperature gamma,
    computed stably by shifting with the minimum loss.  ``preds[v]`` is
    view v's prediction Xg_v @ P_v."""
    losses = np.array([((pred - Y) ** 2).sum() for pred in preds])
    scores = -(losses - losses.min()) / cfg.gamma
    w = np.exp(scores)
    return w / w.sum()


def ensemble_objective(
    preds: list, P: list, alpha: np.ndarray, Y: np.ndarray, cfg: EnsembleConfig
) -> float:
    """Weighted training losses + cooperation misfit + entropy + ridge, from
    the views' predictions ``preds[v] = Xg_v @ P_v`` and consequents P.

    Reported for convergence monitoring; the coupled updates are a
    fixed-point scheme, so the value is not guaranteed monotone.
    """
    total = 0.0
    for v in range(len(preds)):
        total += alpha[v] * float(((preds[v] - Y) ** 2).sum())
        lam = _alignment_target(preds, v, cfg)
        total += cfg.beta * float(((preds[v] - lam) ** 2).sum())
        total += cfg.delta * float((P[v] ** 2).sum())
    pos = alpha[alpha > 0]
    total += cfg.gamma * float((pos * np.log(pos)).sum())
    return total


def fit_design(design: list, roles: list, Y: np.ndarray, cfg: EnsembleConfig) -> ViewEnsemble:
    """Train the ensemble on raw design matrices.

    Antecedents are estimated and mapped designs factored once per view;
    consequents start at zero and weights uniform; sweeps alternate
    consequent and weight updates until the largest relative consequent
    change drops below tol.
    """
    Y = np.asarray(Y, dtype=float)
    antecedents = [estimate_antecedent(mat, cfg.K, cfg.h) for mat in design]
    factors = factor_design([fuzzy_map(mat, ant) for mat, ant in zip(design, antecedents)])
    n_views = len(design)
    P = [np.zeros((Vt.shape[1], Y.shape[1])) for _, _, Vt in factors]
    alpha = np.full(n_views, 1.0 / n_views)

    history = []
    for _ in range(cfg.max_iters):
        prev = P
        P, preds = update_consequents(factors, P, Y, alpha, cfg)
        alpha = update_weights(preds, Y, cfg)
        history.append(ensemble_objective(preds, P, alpha, Y, cfg))
        if not np.isfinite(history[-1]):
            raise RuntimeError(f"ensemble objective diverged: {history[-5:]}")
        change = max(
            float(np.linalg.norm(P[v] - prev[v]) / (1.0 + np.linalg.norm(P[v])))
            for v in range(n_views)
        )
        if change < cfg.tol:
            break
    return ViewEnsemble(antecedents, P, alpha, list(roles), cfg, history)


def fit(model: DualRepModel, ds: MultiViewDataset, Y: np.ndarray, cfg: EnsembleConfig) -> ViewEnsemble:
    """Assemble the V+2 views from a trained representation model and train."""
    design, roles = design_matrices(model, cfg)
    roles[: ds.n_views] = [vb.name for vb in ds.views]
    return fit_design(design, roles, Y, cfg)


def predict_design(ensemble: ViewEnsemble, design: list):
    """Scores and labels from raw design matrices (training antecedents are
    reused to map them).  Ties decode to the lowest class index."""
    if len(design) != ensemble.n_views:
        raise ValueError(f"expected {ensemble.n_views} design matrices, got {len(design)}")
    scores = None
    for v, mat in enumerate(design):
        ant = ensemble.antecedents[v]
        if mat.shape[1] != ant.dim:
            raise ValueError(
                f"view '{ensemble.roles[v]}': {mat.shape[1]} features, "
                f"antecedent expects {ant.dim}"
            )
        part = ensemble.alpha[v] * (fuzzy_map(mat, ant) @ ensemble.consequents[v])
        scores = part if scores is None else scores + part
    return scores, np.argmax(scores, axis=1)


def predict(ensemble: ViewEnsemble, rep_result: BatchRepresentation):
    """Scores and labels for data that ``representation.transform`` has
    imputed and represented; each row's scores depend on that row alone."""
    design, _ = design_matrices(rep_result, ensemble.config)
    return predict_design(ensemble, design)
