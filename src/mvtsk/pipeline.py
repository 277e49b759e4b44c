"""End-to-end training, prediction, and model persistence.

A trained model bundles the normalization statistics, the representation
model (bases, representations, corrections), and the fuzzy ensemble.  Its
file (format ``mvtsk-model-v2``) holds only what prediction reads: the
normalization, the frozen bases (``RepBases``) and the ensemble's rules and
weights.  Files in the older ``mvtsk-model-v1`` format, which also carried
the training representations, corrections and traces, load through the same
reader.  Serialization is deterministic: retraining with the same seed
produces byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

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
from mvtsk.representation import BatchRepresentation, DualRepConfig, RepBases


@dataclass
class Stage1Model:
    """Stage 1 of a model: the normalization statistics and the
    representation model, which is all ``transform_dataset`` reads.

    ``rep_model`` is the full ``DualRepModel`` after training and the frozen
    ``RepBases`` after loading from a file; ``transform_dataset`` reads only
    its bases, column means and ``config.ridge``, and represents each row alone.
    """

    view_names: list
    view_dims: list
    n_classes: int
    normalization: NormalizationStats
    rep_model: RepBases


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


def transform_dataset(model: Stage1Model, ds: MultiViewDataset) -> BatchRepresentation:
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
    return classifier.predict(model.ensemble, rep_result)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

FORMAT = "mvtsk-model-v2"


def _encode(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype=float)
    return {"shape": list(arr.shape), "data": [float(x) for x in arr.ravel()]}


def _decode(obj: dict) -> np.ndarray:
    return np.asarray(obj["data"], dtype=float).reshape(obj["shape"])


def model_to_dict(model: TrainedModel) -> dict:
    rep = model.rep_model
    return {
        "format": FORMAT,
        "views": [
            {"name": n, "dim": d} for n, d in zip(model.view_names, model.view_dims)
        ],
        "n_classes": model.n_classes,
        "normalization": {
            "mins": [_encode(m) for m in model.normalization.mins],
            "maxs": [_encode(m) for m in model.normalization.maxs],
        },
        "representation": {
            "config": asdict(rep.config),
            "views": [
                {"Bs": _encode(bs), "Bc": _encode(bc), "col_means": _encode(mu)}
                for bs, bc, mu in zip(rep.Bs, rep.Bc, rep.col_means)
            ],
        },
        "ensemble": {
            "config": asdict(model.ensemble.config),
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
        },
    }


def model_from_dict(doc) -> TrainedModel:
    """Read a v2 document, or a v1 one: v1 has every key v2 has, and the
    training state it adds is not read.  A document that is not an object,
    lacks a key or holds a value of the wrong kind is a ValueError."""
    if not isinstance(doc, dict):
        raise ValueError(f"a model file must hold a JSON object, got {type(doc).__name__}")
    if doc.get("format") not in ("mvtsk-model-v1", FORMAT):
        raise ValueError(f"unrecognized model format {doc.get('format')!r}")
    try:
        names = [v["name"] for v in doc["views"]]
        dims = [v["dim"] for v in doc["views"]]

        stats = NormalizationStats(
            mins=[_decode(m) for m in doc["normalization"]["mins"]],
            maxs=[_decode(m) for m in doc["normalization"]["maxs"]],
        )

        rep_doc = doc["representation"]
        rep = RepBases(
            Bs=[_decode(v["Bs"]) for v in rep_doc["views"]],
            Bc=[_decode(v["Bc"]) for v in rep_doc["views"]],
            col_means=[_decode(v["col_means"]) for v in rep_doc["views"]],
            config=DualRepConfig(**rep_doc["config"]),
        )

        ens_doc = doc["ensemble"]
        ensemble = ViewEnsemble(
            antecedents=[
                Antecedent(_decode(v["centers"]), _decode(v["widths"])) for v in ens_doc["views"]
            ],
            consequents=[_decode(v["consequent"]) for v in ens_doc["views"]],
            alpha=np.asarray(ens_doc["alpha"], dtype=float),
            roles=list(ens_doc["roles"]),
            config=EnsembleConfig(**ens_doc["config"]),
        )
        return TrainedModel(names, dims, doc["n_classes"], stats, rep, ensemble)
    except KeyError as exc:
        raise ValueError(f"model file lacks key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed model file: {exc}") from None


def save_model(model: TrainedModel, path: str):
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_model(path: str) -> TrainedModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
