import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_v1_file_loads_and_scores_as_written(tmp_path):
    model = load_model(os.path.join(DATA, "model-v1.json"))
    with open(os.path.join(DATA, "model-v1-scores.json")) as fh:
        expected = json.load(fh)
    score_set = load_dataset(os.path.join(DATA, "score-set", "manifest.json"))
    scores, labels = predict_model(model, score_set)
    assert np.array_equal(scores, np.array(expected["scores"]))
    assert labels.tolist() == expected["labels"]
    # the loader check, apart from the transform: v1 and its v2 re-save agree
    path = str(tmp_path / "model-v2.json")
    save_model(model, path)
    assert np.array_equal(predict_model(load_model(path), score_set)[0], scores)


def test_unknown_format_rejected(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"format": "mvtsk-model-v9"}))
    with pytest.raises(ValueError, match="mvtsk-model-v9"):
        load_model(str(path))


@pytest.fixture(scope="module", params=[0.0, 1.0], ids=["lam1=0", "lam1=1"])
def served(request):
    """A model trained at the given lam1, its test rows and their scores as
    one batch."""
    train, test = masked_split()
    model = train_model(
        train,
        DualRepConfig(m=3, lam1=request.param, p=5, max_iters=6, seed=1),
        EnsembleConfig(K=2, max_iters=8, seed=2),
    )
    return model, test, predict_model(model, test)[0]


@settings(max_examples=25, deadline=None)
@given(perm=st.permutations(range(24)), row=st.integers(0, 23))
def test_row_scores_do_not_depend_on_the_batch(served, perm, row):
    model, test, scores = served
    permuted, _ = predict_model(model, test.subset(perm))
    assert np.max(np.abs(permuted - scores[perm])) <= 1e-8
    alone, _ = predict_model(model, test.subset([row]))
    assert np.max(np.abs(alone[0] - scores[row])) <= 1e-8


def test_empty_batch_scores_without_warning(served):
    model, test, _ = served
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scores, labels = predict_model(model, test.subset([]))
    assert scores.shape == (0, model.n_classes)
    assert labels.shape == (0,)


def test_view_missing_in_every_row_scores_finite(served):
    model, test, _ = served
    batch = test.subset(np.flatnonzero(test.views[0].present | test.views[2].present))
    batch.views[1].present[:] = False
    batch.views[1].data[:] = 0.0
    scores, _ = predict_model(model, batch)
    assert len(scores) > 0 and np.all(np.isfinite(scores))
