import json
import os

import numpy as np
import pytest

from mvtsk.classifier import EnsembleConfig
from mvtsk.dataset import apply_mask, gen_synthetic, load_dataset
from mvtsk.pipeline import load_model, predict_model, save_model, train_model
from mvtsk.representation import DualRepConfig, DualRepModel, RepBases

DATA = os.path.join(os.path.dirname(__file__), "data")


def masked_split(seed=3):
    ds = apply_mask(gen_synthetic(80, 3, [6, 5, 4], 2, 0.05, 4.0, seed=seed), 0.4, seed=seed + 1)
    return ds.subset(np.arange(56)), ds.subset(np.arange(56, 80))


@pytest.mark.parametrize("latent", [True, False])
def test_saved_model_scores_bit_identically(tmp_path, latent):
    train, test = masked_split()
    model = train_model(
        train,
        DualRepConfig(m=3, p=5, max_iters=6, seed=1),
        EnsembleConfig(K=2, max_iters=8, seed=2, use_common=latent, use_specific=latent),
    )
    path = str(tmp_path / "model.json")
    save_model(model, path)
    loaded = load_model(path)
    assert type(loaded.rep_model) is RepBases
    assert isinstance(model.rep_model, DualRepModel)
    scores, labels = predict_model(model, test)
    loaded_scores, loaded_labels = predict_model(loaded, test)
    assert np.array_equal(scores, loaded_scores)
    assert np.array_equal(labels, loaded_labels)


def test_v2_file_holds_no_training_state(tmp_path):
    train, _ = masked_split()
    model = train_model(train, DualRepConfig(m=2, p=4, max_iters=3), EnsembleConfig(K=2, max_iters=3))
    path = tmp_path / "model.json"
    save_model(model, str(path))
    doc = json.loads(path.read_text())
    assert doc["format"] == "mvtsk-model-v2"
    text = path.read_text()
    for key in ("Hs", "Hc", "U", "objective_trace", "history"):
        assert f'"{key}"' not in text


def test_v1_file_loads_and_scores_as_written():
    model = load_model(os.path.join(DATA, "model-v1.json"))
    with open(os.path.join(DATA, "model-v1-scores.json")) as fh:
        expected = json.load(fh)
    scores, labels = predict_model(model, load_dataset(os.path.join(DATA, "score-set", "manifest.json")))
    assert np.array_equal(scores, np.array(expected["scores"]))
    assert labels.tolist() == expected["labels"]


def test_unknown_format_rejected(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"format": "mvtsk-model-v9"}))
    with pytest.raises(ValueError, match="mvtsk-model-v9"):
        load_model(str(path))
