import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvtsk.dataset import (
    DatasetError,
    MultiViewDataset,
    ViewBlock,
    apply_mask,
    apply_normalizer,
    fit_normalizer,
    gen_synthetic,
    load_dataset,
    one_hot,
    save_dataset,
    split_train_test,
)

import oracles


def make_ds(view_arrays, labels, present=None, n_classes=None):
    views = []
    for v, data in enumerate(view_arrays):
        data = np.asarray(data, dtype=float)
        pres = np.ones(data.shape[0], bool) if present is None else np.asarray(present[v], bool)
        views.append(ViewBlock(f"view{v}", data, pres).zero_filled())
    labels = np.asarray(labels)
    if n_classes is None:
        n_classes = int(labels.max()) + 1
    return MultiViewDataset(views, labels, n_classes)


def write_manifest(tmp_path, views, labels, mask=None, classes=None):
    doc = {"views": [], "labels": "labels.csv", "mask": None}
    for v, data in enumerate(views):
        data = np.atleast_2d(np.asarray(data, dtype=float))
        name = f"v{v}.csv"
        with open(tmp_path / name, "w") as fh:
            fh.write(",".join(f"f{j}" for j in range(data.shape[1])) + "\n")
            for row in data:
                fh.write(",".join(str(x) for x in row) + "\n")
        doc["views"].append({"name": f"v{v}", "file": name, "dim": data.shape[1]})
    with open(tmp_path / "labels.csv", "w") as fh:
        fh.write("label\n" + "\n".join(str(int(x)) for x in labels) + "\n")
    if mask is not None:
        mask = np.atleast_2d(np.asarray(mask, dtype=int))
        with open(tmp_path / "mask.csv", "w") as fh:
            fh.write(",".join(f"v{v}" for v in range(mask.shape[1])) + "\n")
            for row in mask:
                fh.write(",".join(str(x) for x in row) + "\n")
        doc["mask"] = "mask.csv"
    if classes is not None:
        doc["classes"] = classes
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestLoad:
    def test_complete_two_views(self, tmp_path):
        path = write_manifest(
            tmp_path,
            [np.arange(6).reshape(3, 2), np.arange(12).reshape(3, 4)],
            [0, 1, 0],
        )
        ds = load_dataset(path)
        assert ds.n_views == 2 and ds.n_instances == 3
        assert ds.n_classes == 2
        assert all(vb.present.all() for vb in ds.views)

    def test_all_views_masked_for_instance(self, tmp_path):
        path = write_manifest(
            tmp_path, [np.ones((2, 2)), np.ones((2, 3))], [0, 1],
            mask=[[1, 1], [0, 0]],
        )
        with pytest.raises(DatasetError, match="instance 1 has no observed view"):
            load_dataset(path)

    def test_row_count_mismatch(self, tmp_path):
        path = write_manifest(tmp_path, [np.ones((4, 2)), np.ones((3, 2))], [0, 1, 0, 1])
        with pytest.raises(DatasetError, match="rows"):
            load_dataset(path)

    def test_non_numeric_cell(self, tmp_path):
        path = write_manifest(tmp_path, [np.ones((2, 2))], [0, 1])
        with open(tmp_path / "v0.csv", "w") as fh:
            fh.write("f0,f1\n1.0,oops\n2.0,3.0\n")
        with pytest.raises(DatasetError, match="non-numeric"):
            load_dataset(path)

    def test_masked_rows_zero_filled(self, tmp_path):
        path = write_manifest(
            tmp_path, [[[1.0, 2.0], [3.0, 4.0]], [[5.0], [6.0]]], [0, 1],
            mask=[[0, 1], [1, 1]],
        )
        ds = load_dataset(path)
        assert np.all(ds.views[0].data[0] == 0.0)
        assert np.all(ds.views[0].data[1] == [3.0, 4.0])

    def test_roundtrip_bit_exact(self, tmp_path):
        ds = gen_synthetic(9, 2, [3, 5], 2, 0.3, 1.0, seed=5)
        ds = apply_mask(ds, 0.4, seed=6)
        out = tmp_path / "saved"
        manifest = save_dataset(ds, str(out))
        back = load_dataset(manifest)
        for a, b in zip(ds.views, back.views):
            assert np.array_equal(a.data, b.data)
            assert np.array_equal(a.present, b.present)
        assert np.array_equal(ds.labels, back.labels)


class TestNormalizer:
    def test_endpoints(self):
        ds = make_ds([[[2.0], [4.0]]], [0, 1])
        stats = fit_normalizer(ds)
        out = apply_normalizer(ds, stats)
        assert np.allclose(out.views[0].data[:, 0], [0.0, 1.0])

    def test_constant_column_maps_to_half(self):
        ds = make_ds([[[5.0], [5.0], [5.0]]], [0, 0, 1])
        out = apply_normalizer(ds, fit_normalizer(ds))
        assert np.allclose(out.views[0].data, 0.5)

    def test_clamping(self):
        train = make_ds([[[2.0], [4.0]]], [0, 1])
        stats = fit_normalizer(train)
        test = make_ds([[[6.0], [1.0]]], [0, 1])
        out = apply_normalizer(test, stats)
        assert np.allclose(out.views[0].data[:, 0], [1.0, 0.0])

    def test_stats_ignore_missing_rows(self):
        ds = make_ds(
            [[[2.0], [4.0], [99.0]], [[1.0], [1.0], [1.0]]],
            [0, 1, 0],
            present=[[True, True, False], [True, True, True]],
        )
        stats = fit_normalizer(ds)
        assert stats.maxs[0][0] == 4.0
        out = apply_normalizer(ds, stats)
        assert out.views[0].data[2, 0] == 0.0  # missing rows stay zero

    def test_no_present_rows_errors(self):
        with pytest.raises(DatasetError, match="no observed view"):
            make_ds([[[1.0], [2.0]]], [0, 1], present=[[False, False]])


class TestMask:
    def test_rate_zero_identity(self):
        ds = gen_synthetic(10, 3, [2, 2, 2], 1, 0.1, 1.0, seed=0)
        out = apply_mask(ds, 0.0, seed=1)
        for a, b in zip(ds.views, out.views):
            assert np.array_equal(a.present, b.present)
            assert np.array_equal(a.data, b.data)

    def test_exact_counts_and_repair(self):
        ds = gen_synthetic(10, 3, [2, 2, 2], 1, 0.1, 1.0, seed=0)
        out = apply_mask(ds, 0.5, seed=7)
        present = np.column_stack([vb.present for vb in out.views])
        # every instance keeps at least one view (exhaustive scan)
        assert present.any(axis=1).all()
        # floor(0.5 * 10) = 5 masked per view, minus repair restorations
        restored = 0
        for v in range(3):
            missing = int((~present[:, v]).sum())
            assert missing <= 5
            restored += 5 - missing
        assert restored <= 10

    def test_determinism(self):
        ds = gen_synthetic(12, 2, [3, 3], 1, 0.1, 1.0, seed=0)
        a = apply_mask(ds, 0.4, seed=9)
        b = apply_mask(ds, 0.4, seed=9)
        for va, vb in zip(a.views, b.views):
            assert np.array_equal(va.present, vb.present)
            assert np.array_equal(va.data, vb.data)

    def test_bad_rate(self):
        ds = gen_synthetic(5, 2, [2, 2], 1, 0.1, 1.0, seed=0)
        with pytest.raises(ValueError):
            apply_mask(ds, 1.0, seed=0)

    @settings(max_examples=25, deadline=None)
    @given(
        rate=st.floats(0.0, 0.95),
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 25),
        v=st.integers(1, 4),
    )
    def test_mask_invariant_property(self, rate, seed, n, v):
        ds = gen_synthetic(n, v, [2] * v, 1, 0.1, 1.0, seed=0)
        out = apply_mask(ds, rate, seed=seed)
        present = np.column_stack([vb.present for vb in out.views])
        assert present.any(axis=1).all()
        for vb in out.views:
            assert np.all(vb.data[vb.missing] == 0.0)


class TestSplit:
    def test_sizes_and_disjoint(self):
        ds = gen_synthetic(10, 2, [2, 2], 1, 0.1, 1.0, seed=0)
        tr, te = split_train_test(ds, 0.3, seed=1)
        assert tr.n_instances == 7 and te.n_instances == 3

    def test_stratified_counts(self):
        ds = make_ds([np.arange(20).reshape(10, 2)], [0] * 5 + [1] * 5)
        tr, te = split_train_test(ds, 0.4, seed=2, stratified=True)
        assert int((te.labels == 0).sum()) == 2
        assert int((te.labels == 1).sum()) == 2

    def test_determinism(self):
        ds = gen_synthetic(15, 2, [2, 2], 1, 0.1, 1.0, seed=0)
        a = split_train_test(ds, 0.25, seed=4)
        b = split_train_test(ds, 0.25, seed=4)
        assert np.array_equal(a[0].labels, b[0].labels)
        assert np.array_equal(a[1].views[0].data, b[1].views[0].data)

    def test_small_class_errors(self):
        ds = make_ds([np.zeros((4, 1)) + np.arange(4)[:, None]], [0, 0, 0, 1])
        with pytest.raises(ValueError, match="fewer than 2"):
            split_train_test(ds, 0.5, seed=0, stratified=True)


class TestOneHot:
    def test_basic(self):
        assert np.array_equal(one_hot([0, 1], 2), [[1, 0], [0, 1]])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            one_hot([2], 2)

    def test_three_classes(self):
        out = one_hot([1, 1, 0], 3)
        assert np.array_equal(out, [[0, 1, 0], [0, 1, 0], [1, 0, 0]])
        assert np.all(out.sum(axis=1) == 1)


class TestSynthetic:
    def test_linear_separability_noise_free(self):
        ds = gen_synthetic(60, 3, [5, 4, 3], 2, 0.0, 12.0, seed=2)
        X = np.hstack([vb.data for vb in ds.views])
        assert oracles.linear_classifier_accuracy(X, ds.labels, 2) == 1.0

    def test_determinism(self):
        a = gen_synthetic(9, 2, [3, 3], 2, 0.2, 1.0, seed=13)
        b = gen_synthetic(9, 2, [3, 3], 2, 0.2, 1.0, seed=13)
        for va, vb in zip(a.views, b.views):
            assert np.array_equal(va.data, vb.data)
        assert np.array_equal(a.labels, b.labels)

    def test_rank_bound_single_view(self):
        ds = gen_synthetic(20, 1, [6], 1, 0.0, 1.0, seed=3)
        rank = np.linalg.matrix_rank(ds.views[0].data, tol=1e-8)
        assert rank <= 2
