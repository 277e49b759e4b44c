"""End-to-end training, prediction, and model persistence.

A trained model bundles the normalization statistics, the representation
model (bases, representations, corrections), and the fuzzy ensemble, and
serializes to a single JSON document.  Serialization is deterministic:
retraining with the same seed produces byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from mvtsk import classifier, representation
from mvtsk.classifier import EnsembleConfig, ViewEnsemble
from mvtsk.dataset import (
    MultiViewDataset,
    NormalizationStats,
    apply_normalizer,
    fit_normalizer,
    one_hot,
)
from mvtsk.fuzzy import Antecedent
from mvtsk.representation import DualRepConfig, DualRepModel, TransformResult


@dataclass
class Stage1Model:
    """Stage 1 of a model: the normalization statistics and the trained
    representation model, which is all ``transform_dataset`` reads."""

    view_names: list
    view_dims: list
    n_classes: int
    normalization: NormalizationStats
    rep_model: DualRepModel


@dataclass
class TrainedModel(Stage1Model):
    """Everything needed to score new manifests and explain decisions."""

    ensemble: ViewEnsemble


def derive_seed(root_seed: int, *key: int) -> int:
    """Stable per-cell seed from a root seed and integer coordinates."""
    return int(np.random.SeedSequence(root_seed, spawn_key=tuple(key)).generate_state(1)[0])


def train_representation(ds: MultiViewDataset, rep_cfg: DualRepConfig) -> Stage1Model:
    """Normalize and learn representations/imputations (stage 1)."""
    stats = fit_normalizer(ds)
    rep_model = representation.fit(apply_normalizer(ds, stats), rep_cfg)
    return Stage1Model([vb.name for vb in ds.views], ds.dims, ds.n_classes, stats, rep_model)


def train_ensemble(
    stage1: Stage1Model, ds: MultiViewDataset, ens_cfg: EnsembleConfig
) -> TrainedModel:
    """Train the ensemble (stage 2) on the dataset ``stage1`` was trained on.

    ``stage1`` is only read, so one stage-1 model can back many ensembles.
    """
    Y = one_hot(ds.labels, ds.n_classes)
    ensemble = classifier.fit(stage1.rep_model, ds, Y, ens_cfg)
    return TrainedModel(**vars(stage1), ensemble=ensemble)


def train_model(
    ds: MultiViewDataset, rep_cfg: DualRepConfig, ens_cfg: EnsembleConfig
) -> TrainedModel:
    """Normalize, learn representations/imputations, train the ensemble."""
    return train_ensemble(train_representation(ds, rep_cfg), ds, ens_cfg)


def transform_dataset(model: Stage1Model, ds: MultiViewDataset) -> TransformResult:
    """Normalize and represent a new dataset under the trained model."""
    if ds.dims != model.view_dims:
        for name, want, got in zip(model.view_names, model.view_dims, ds.dims):
            if want != got:
                raise ValueError(
                    f"view '{name}': expected {want} features, manifest has {got}"
                )
        raise ValueError(f"expected dims {model.view_dims}, got {ds.dims}")
    normed = apply_normalizer(ds, model.normalization)
    return representation.transform(model.rep_model, normed)


def predict_model(model: TrainedModel, ds: MultiViewDataset):
    """Scores (N x C) and argmax labels for a new dataset."""
    rep_result = transform_dataset(model, ds)
    return classifier.predict(model.ensemble, model.rep_model, ds, rep_result=rep_result)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _encode(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype=float)
    return {"shape": list(arr.shape), "data": [float(x) for x in arr.ravel()]}


def _decode(obj: dict) -> np.ndarray:
    return np.asarray(obj["data"], dtype=float).reshape(obj["shape"])


def model_to_dict(model: TrainedModel) -> dict:
    rep = model.rep_model
    return {
        "format": "mvtsk-model-v1",
        "views": [
            {"name": n, "dim": d} for n, d in zip(model.view_names, model.view_dims)
        ],
        "n_classes": model.n_classes,
        "normalization": {
            "mins": [_encode(m) for m in model.normalization.mins],
            "maxs": [_encode(m) for m in model.normalization.maxs],
        },
        "representation": {
            "config": rep.config.to_dict(),
            "Hc": _encode(rep.Hc),
            "views": [
                {
                    "Hs": _encode(rep.Hs[v]),
                    "Bs": _encode(rep.Bs[v]),
                    "Bc": _encode(rep.Bc[v]),
                    "U": _encode(rep.U[v]),
                    "col_means": _encode(rep.col_means[v]),
                }
                for v in range(rep.n_views)
            ],
            "objective_trace": [float(x) for x in rep.objective_trace],
        },
        "ensemble": {
            "config": model.ensemble.config.to_dict(),
            "alpha": [float(a) for a in model.ensemble.alpha],
            "roles": list(model.ensemble.roles),
            "views": [
                {
                    "centers": _encode(ant.centers),
                    "widths": _encode(ant.widths),
                    "consequent": _encode(p),
                }
                for ant, p in zip(model.ensemble.antecedents, model.ensemble.consequents)
            ],
            "history": [float(x) for x in model.ensemble.history],
        },
    }


def model_from_dict(doc: dict) -> TrainedModel:
    if doc.get("format") != "mvtsk-model-v1":
        raise ValueError(f"unrecognized model format {doc.get('format')!r}")
    names = [v["name"] for v in doc["views"]]
    dims = [v["dim"] for v in doc["views"]]

    stats = NormalizationStats(
        mins=[_decode(m) for m in doc["normalization"]["mins"]],
        maxs=[_decode(m) for m in doc["normalization"]["maxs"]],
    )

    rep_doc = doc["representation"]
    cfg = DualRepConfig.from_dict(rep_doc["config"])
    n_views = len(rep_doc["views"])
    rep = DualRepModel(
        X=[np.zeros((0, d)) for d in dims],
        missing=[np.zeros(0, dtype=bool) for _ in range(n_views)],
        Hs=[_decode(v["Hs"]) for v in rep_doc["views"]],
        Bs=[_decode(v["Bs"]) for v in rep_doc["views"]],
        Bc=[_decode(v["Bc"]) for v in rep_doc["views"]],
        U=[_decode(v["U"]) for v in rep_doc["views"]],
        Hc=_decode(rep_doc["Hc"]),
        Xt=[np.zeros((0, d)) for d in dims],
        col_means=[_decode(v["col_means"]) for v in rep_doc["views"]],
        config=cfg,
        objective_trace=list(rep_doc["objective_trace"]),
    )

    ens_doc = doc["ensemble"]
    ensemble = ViewEnsemble(
        antecedents=[
            Antecedent(_decode(v["centers"]), _decode(v["widths"])) for v in ens_doc["views"]
        ],
        consequents=[_decode(v["consequent"]) for v in ens_doc["views"]],
        alpha=np.asarray(ens_doc["alpha"], dtype=float),
        roles=list(ens_doc["roles"]),
        config=EnsembleConfig.from_dict(ens_doc["config"]),
        history=list(ens_doc["history"]),
    )
    return TrainedModel(names, dims, doc["n_classes"], stats, rep, ensemble)


def save_model(model: TrainedModel, path: str):
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_model(path: str) -> TrainedModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
