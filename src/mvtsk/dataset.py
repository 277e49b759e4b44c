"""Multi-view datasets: loading, normalization, masking, splitting, synthesis.

A dataset is V feature matrices over the same N instances plus integer class
labels.  An instance may be absent from some views (a whole missing row);
absent rows are canonically stored as zeros and tracked through per-view
boolean presence vectors.  Every instance must be observed in at least one
view.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np


class DatasetError(ValueError):
    """Malformed manifest, CSV, or dataset invariant violation."""


class DegeneracyWarning(UserWarning):
    """A numerically degenerate but recoverable situation was handled."""


@dataclass
class ViewBlock:
    """One view: an N x d matrix plus a per-instance presence flag.

    Rows with ``present == False`` hold zeros in every column; the zeros are
    placeholders, never data.
    """

    name: str
    data: np.ndarray
    present: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        self.present = np.asarray(self.present, dtype=bool)
        if self.data.ndim != 2:
            raise DatasetError(f"view '{self.name}': data must be 2-D, got {self.data.ndim}-D")
        if self.data.shape[1] < 1:
            raise DatasetError(f"view '{self.name}': needs at least one feature")
        if self.present.shape != (self.data.shape[0],):
            raise DatasetError(
                f"view '{self.name}': presence vector length {self.present.shape} "
                f"does not match {self.data.shape[0]} rows"
            )

    @property
    def n_instances(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    @property
    def missing(self) -> np.ndarray:
        """Boolean vector, True where the instance is absent from this view."""
        return ~self.present

    def zero_filled(self) -> "ViewBlock":
        """Copy with absent rows forced to the canonical zero placeholder."""
        data = self.data.copy()
        data[self.missing] = 0.0
        return ViewBlock(self.name, data, self.present.copy())


@dataclass
class MultiViewDataset:
    """V views over N shared instances with integer labels in 0..C-1."""

    views: list  # list[ViewBlock]
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=int)
        if not self.views:
            raise DatasetError("dataset needs at least one view")
        n = self.views[0].n_instances
        for vb in self.views:
            if vb.n_instances != n:
                raise DatasetError(
                    f"view '{vb.name}' has {vb.n_instances} instances, expected {n}"
                )
        if self.labels.shape != (n,):
            raise DatasetError(f"labels length {self.labels.shape} does not match N={n}")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise DatasetError(
                f"labels must lie in 0..{self.n_classes - 1}, got range "
                f"[{self.labels.min()}, {self.labels.max()}]"
            )
        present_any = np.zeros(n, dtype=bool)
        for vb in self.views:
            present_any |= vb.present
        bad = np.flatnonzero(~present_any)
        if bad.size:
            raise DatasetError(f"instance {bad[0]} has no observed view")

    @property
    def n_instances(self) -> int:
        return self.views[0].n_instances

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def dims(self) -> list:
        return [vb.dim for vb in self.views]

    def subset(self, idx: np.ndarray) -> "MultiViewDataset":
        """New dataset restricted to the given instance indices (in order)."""
        idx = np.asarray(idx, dtype=int)
        views = [ViewBlock(vb.name, vb.data[idx], vb.present[idx]) for vb in self.views]
        return MultiViewDataset(views, self.labels[idx], self.n_classes)


@dataclass
class NormalizationStats:
    """Per-view per-feature min/max computed over present rows only."""

    mins: list = field(default_factory=list)  # list[np.ndarray], one per view
    maxs: list = field(default_factory=list)

    def transform_view(self, v: int, data: np.ndarray) -> np.ndarray:
        lo, hi = self.mins[v], self.maxs[v]
        span = hi - lo
        out = np.empty_like(data, dtype=float)
        const = span == 0
        safe = np.where(const, 1.0, span)
        out[:] = (data - lo) / safe
        out[:, const] = 0.5
        return np.clip(out, 0.0, 1.0)


# ---------------------------------------------------------------------------
# I/O
# ---------------------------------------------------------------------------

def _read_csv_matrix(path: str) -> np.ndarray:
    """Numeric CSV with one header row; returns an N x d float matrix."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file") from None
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                raise DatasetError(f"{path}:{lineno}: non-numeric cell in {row!r}") from None
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DatasetError(f"{path}: ragged rows, widths {sorted(widths)}")
    if widths != {len(header)}:
        raise DatasetError(
            f"{path}: header has {len(header)} columns but rows have {widths.pop()}"
        )
    return np.array(rows, dtype=float)


def _write_csv_matrix(path: str, header: list, data: np.ndarray, fmt: str = "%.17g"):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in np.atleast_2d(data):
            writer.writerow([fmt % x for x in row])


def load_dataset(manifest_path: str) -> MultiViewDataset:
    """Load a dataset from a JSON manifest.

    The manifest lists per-view CSV files, a labels CSV, an optional mask CSV
    (N x V of 0/1, 1 = present), and the class count.  File paths are
    resolved relative to the manifest.  Missing rows are zero-filled.
    """
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    base = os.path.dirname(os.path.abspath(manifest_path))

    def resolve(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    view_specs = manifest.get("views", [])
    if not view_specs:
        raise DatasetError(f"{manifest_path}: manifest lists no views")

    n_ref = None
    blocks_raw = []
    for spec in view_specs:
        data = _read_csv_matrix(resolve(spec["file"]))
        if "dim" in spec and data.shape[1] != spec["dim"]:
            raise DatasetError(
                f"view '{spec['name']}': manifest declares dim {spec['dim']}, "
                f"file has {data.shape[1]}"
            )
        if n_ref is None:
            n_ref = data.shape[0]
        elif data.shape[0] != n_ref:
            raise DatasetError(
                f"view '{spec['name']}' has {data.shape[0]} rows, expected {n_ref}"
            )
        blocks_raw.append((spec["name"], data))

    labels = _read_csv_matrix(resolve(manifest["labels"]))
    if labels.shape[1] != 1:
        raise DatasetError("labels CSV must have exactly one column")
    if labels.shape[0] != n_ref:
        raise DatasetError(f"labels have {labels.shape[0]} rows, views have {n_ref}")
    labels = labels[:, 0]
    if np.any(labels != np.round(labels)):
        raise DatasetError("labels must be integers")
    labels = labels.astype(int)

    mask_file = manifest.get("mask")
    if mask_file:
        mask = _read_csv_matrix(resolve(mask_file))
        if mask.shape != (n_ref, len(blocks_raw)):
            raise DatasetError(
                f"mask shape {mask.shape} does not match N x V = ({n_ref}, {len(blocks_raw)})"
            )
        if not np.isin(mask, (0.0, 1.0)).all():
            raise DatasetError("mask entries must be 0 or 1")
        present = mask.astype(bool)
    else:
        present = np.ones((n_ref, len(blocks_raw)), dtype=bool)

    views = [
        ViewBlock(name, data, present[:, v]).zero_filled()
        for v, (name, data) in enumerate(blocks_raw)
    ]
    n_classes = int(manifest.get("classes", labels.max() + 1 if labels.size else 1))
    return MultiViewDataset(views, labels, n_classes)


def save_dataset(ds: MultiViewDataset, out_dir: str, manifest_name: str = "manifest.json") -> str:
    """Write view/label/mask CSVs plus a manifest; returns the manifest path.

    Floats are written with 17 significant digits so a load round-trips
    bit-exactly.
    """
    os.makedirs(out_dir, exist_ok=True)
    view_entries = []
    for vb in ds.views:
        fname = f"{vb.name}.csv"
        header = [f"f{j}" for j in range(vb.dim)]
        _write_csv_matrix(os.path.join(out_dir, fname), header, vb.data)
        view_entries.append({"name": vb.name, "file": fname, "dim": vb.dim})
    _write_csv_matrix(
        os.path.join(out_dir, "labels.csv"), ["label"], ds.labels.reshape(-1, 1), fmt="%d"
    )
    mask = np.column_stack([vb.present.astype(int) for vb in ds.views])
    _write_csv_matrix(
        os.path.join(out_dir, "mask.csv"), [vb.name for vb in ds.views], mask, fmt="%d"
    )
    manifest = {
        "views": view_entries,
        "labels": "labels.csv",
        "mask": "mask.csv",
        "classes": ds.n_classes,
    }
    path = os.path.join(out_dir, manifest_name)
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def fit_normalizer(ds: MultiViewDataset) -> NormalizationStats:
    """Per-feature min/max over present rows of each view."""
    stats = NormalizationStats()
    for vb in ds.views:
        if not vb.present.any():
            raise DatasetError(f"view '{vb.name}': no present rows to normalize from")
        obs = vb.data[vb.present]
        stats.mins.append(obs.min(axis=0))
        stats.maxs.append(obs.max(axis=0))
    return stats


def apply_normalizer(ds: MultiViewDataset, stats: NormalizationStats) -> MultiViewDataset:
    """Map present entries to [0, 1] (clamped); missing rows stay zero."""
    views = []
    for v, vb in enumerate(ds.views):
        data = stats.transform_view(v, vb.data)
        data[vb.missing] = 0.0
        views.append(ViewBlock(vb.name, data, vb.present.copy()))
    return MultiViewDataset(views, ds.labels.copy(), ds.n_classes)


# ---------------------------------------------------------------------------
# Masking and splitting
# ---------------------------------------------------------------------------

def apply_mask(ds: MultiViewDataset, rate: float, seed: int) -> MultiViewDataset:
    """Hide floor(rate*N) present instances per view, uniformly at random.

    Each view is masked independently.  Afterwards any instance left with
    zero present views gets one of its originally-present views restored
    (chosen uniformly), so the at-least-one-view invariant always holds.
    Deterministic for a fixed seed.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"mask rate must be in [0, 1), got {rate}")
    rng = np.random.default_rng(seed)
    n = ds.n_instances
    k = int(np.floor(rate * n))

    present = np.column_stack([vb.present for vb in ds.views]).copy()
    original = present.copy()
    for v in range(ds.n_views):
        candidates = np.flatnonzero(present[:, v])
        kk = min(k, candidates.size)
        if kk > 0:
            chosen = rng.permutation(candidates)[:kk]
            present[chosen, v] = False

    # Repair: an instance may not lose all its views.
    for i in np.flatnonzero(~present.any(axis=1)):
        options = np.flatnonzero(original[i])
        pick = options[rng.integers(options.size)]
        present[i, pick] = True

    views = []
    for v, vb in enumerate(ds.views):
        views.append(ViewBlock(vb.name, vb.data, present[:, v]).zero_filled())
    return MultiViewDataset(views, ds.labels.copy(), ds.n_classes)


def split_train_test(
    ds: MultiViewDataset, test_fraction: float, seed: int, stratified: bool = False
):
    """Disjoint train/test split of instances; optionally class-stratified."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    n = ds.n_instances
    if stratified:
        test_idx = []
        for c in range(ds.n_classes):
            members = np.flatnonzero(ds.labels == c)
            if members.size == 0:
                continue
            if members.size < 2:
                raise ValueError(f"class {c} has fewer than 2 instances; cannot stratify")
            k = int(round(test_fraction * members.size))
            k = min(k, members.size - 1)
            test_idx.extend(rng.permutation(members)[:k])
        test_idx = np.sort(np.asarray(test_idx, dtype=int))
    else:
        k = int(round(test_fraction * n))
        k = min(max(k, 1), n - 1)
        test_idx = np.sort(rng.permutation(n)[:k])
    train_idx = np.setdiff1d(np.arange(n), test_idx)
    return ds.subset(train_idx), ds.subset(test_idx)


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """N x C one-hot label matrix with unit row sums."""
    labels = np.asarray(labels, dtype=int)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(f"labels must lie in 0..{n_classes - 1}")
    out = np.zeros((labels.size, n_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------

def gen_synthetic(
    n: int,
    v: int,
    dims: list,
    m: int,
    noise_sd: float,
    class_sep: float,
    seed: int,
    n_classes: int = 2,
) -> MultiViewDataset:
    """Planted-model generator: each view is a sum of a shared and a
    view-private low-rank factorization plus Gaussian noise.

    The shared latent vectors carry class structure (class means separated
    by ``class_sep``); labels come from the latent class assignment.  The
    result is fully present.
    """
    if m < 1:
        raise ValueError("latent dimension m must be >= 1")
    if len(dims) != v:
        raise ValueError(f"need {v} view dims, got {len(dims)}")
    if any(d < m for d in dims):
        raise ValueError("every view dim must be >= m")
    rng = np.random.default_rng(seed)

    counts = [n // n_classes + (1 if c < n % n_classes else 0) for c in range(n_classes)]
    labels = rng.permutation(np.repeat(np.arange(n_classes), counts))

    # class means at pairwise latent distance class_sep; random orthonormal
    # directions when they fit, otherwise rescaled Gaussian draws
    if n_classes <= m:
        q, _ = np.linalg.qr(rng.standard_normal((m, n_classes)))
        class_means = (class_sep / np.sqrt(2.0)) * q.T
    else:
        draws = rng.standard_normal((n_classes, m))
        gaps = [
            np.linalg.norm(draws[i] - draws[j])
            for i in range(n_classes)
            for j in range(i + 1, n_classes)
        ]
        class_means = draws * (class_sep / max(min(gaps), 1e-12))
    h_common = class_means[labels].T + rng.standard_normal((m, n))  # m x N

    views = []
    for view_idx in range(v):
        d = dims[view_idx]
        h_spec = rng.standard_normal((m, n))
        b_spec = rng.standard_normal((m, d)) / np.sqrt(m)
        b_comm = rng.standard_normal((m, d)) / np.sqrt(m)
        x = h_spec.T @ b_spec + h_common.T @ b_comm
        if noise_sd > 0:
            x = x + noise_sd * rng.standard_normal((n, d))
        views.append(ViewBlock(f"view{view_idx}", x, np.ones(n, dtype=bool)))
    return MultiViewDataset(views, labels, n_classes)
