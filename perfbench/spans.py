"""Spans around the calls into each mvtsk layer, recorded from outside.

A layer is timed where its caller looks the function up: ``representation``
imports ``build_operators`` by name, so the graph build is wrapped in the
``representation`` namespace, while ``build_operators`` reaches
``knn_graph`` through the ``graphs`` module globals.  No program file is
changed; the wrappers are installed on the imported modules of one process.

Spans are kept in memory with a parent link and a round id and are written
out once, when the run ends.  They live in flat arrays, which the garbage
collector does not scan; a list of lists would add every span to each
full collection of the program's own allocations.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager

from mvtsk import classifier, cli, dataset, graphs, pipeline, representation

# (layer, module, attribute): each entry wraps one lookup site.
SITES = [
    ("cli.main", cli, "main"),
    ("pipeline.train_model", pipeline, "train_model"),
    ("pipeline.predict_model", pipeline, "predict_model"),
    ("pipeline.save_model", pipeline, "save_model"),
    ("pipeline.load_model", pipeline, "load_model"),
    ("dataset.io", dataset, "load_dataset"),
    ("dataset.io", dataset, "save_dataset"),
    ("dataset.normalize", pipeline, "fit_normalizer"),
    ("dataset.normalize", pipeline, "apply_normalizer"),
    ("dataset.mask_split", dataset, "apply_mask"),
    ("dataset.mask_split", dataset, "split_train_test"),
    ("representation.fit", representation, "fit"),
    ("representation.transform", representation, "transform"),
    ("representation.update_error", representation, "update_error"),
    ("representation.factor_updates", representation, "update_specific"),
    ("representation.factor_updates", representation, "update_specific_basis"),
    ("representation.factor_updates", representation, "update_common_basis"),
    ("representation.factor_updates", representation, "update_common"),
    ("representation.objective", representation, "objective"),
    ("graphs.build_operators", representation, "build_operators"),
    ("graphs.knn_graph", graphs, "knn_graph"),
    ("graphs.laplacian", graphs, "laplacian"),
    ("graphs.reconstruction_operator", graphs, "reconstruction_operator"),
    ("classifier.fit_design", classifier, "fit_design"),
    ("classifier.predict_design", classifier, "predict_design"),
    ("classifier.update_consequents", classifier, "update_consequents"),
    ("classifier.update_weights", classifier, "update_weights"),
    ("classifier.ensemble_objective", classifier, "ensemble_objective"),
    ("fuzzy.estimate_antecedent", classifier, "estimate_antecedent"),
    ("fuzzy.fuzzy_map", classifier, "fuzzy_map"),
]

ROOT = "round"
LAYERS = [ROOT] + list(dict.fromkeys(layer for layer, _, _ in SITES))
LAYER_INDEX = {layer: i for i, layer in enumerate(LAYERS)}
# Layers that have wrapped layers below them; only these get a self time,
# since a leaf's self time equals its busy time.
PARENTS = [
    ROOT, "cli.main", "pipeline.train_model", "pipeline.predict_model", "representation.fit",
    "representation.transform", "graphs.build_operators", "classifier.fit_design",
    "classifier.predict_design",
]
# Count names: a sweep is one update_consequents call.
COUNT_NAMES = {"classifier.update_consequents": "classifier.sweeps"}
# Work counts taken from a call's arguments or result.
WORK = {
    "graphs.knn_graph": ("graphs.knn_graph_nodes", lambda args, out: len(args[0])),
    "representation.fit": (
        "representation.iters", lambda args, out: len(out.objective_trace) - 1
    ),
}


def metric_names():
    """Every per-layer metric with its unit, in report order."""
    names = [(f"{layer}_s", "s") for layer in LAYERS]
    names += [(f"{layer}_self_s", "s") for layer in PARENTS]
    names += [(COUNT_NAMES.get(layer, f"{layer}_calls"), "count") for layer in LAYERS]
    names += [(name, "count") for name, _ in WORK.values()]
    return names


class Tracer:
    """Span recorder.  Wrappers record only while a round is open."""

    def __init__(self):
        # span i: LAYERS[layer[i]], start[i], end[i], parent span (-1 for none), round
        self.layer, self.parent, self.round_id = array("i"), array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self.work = {name: 0 for name, _ in WORK.values()}
        self._stack = []
        self._round = None
        self._saved = []

    def install(self):
        for layer, module, attr in SITES:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(layer, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, layer, fn):
        work = WORK.get(layer)

        def wrapper(*args, **kwargs):
            if self._round is None:
                return fn(*args, **kwargs)
            idx = self._open(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if work is not None:
                self.work[work[0]] += work[1](args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _open(self, layer) -> int:
        idx = len(self.layer)
        self.layer.append(LAYER_INDEX[layer])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.round_id.append(self._round)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def round(self, index):
        """Record spans of one round under a root span."""
        self._round = index
        idx = self._open(ROOT)
        try:
            yield
        finally:
            self._close(idx)
            self._round = None

    def summary(self, rounds: int) -> dict:
        """Per-round busy time, self time and counts for every layer."""
        busy = dict.fromkeys(LAYERS, 0.0)
        child = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        for i, parent in enumerate(self.parent):
            layer, dt = LAYERS[self.layer[i]], self.end[i] - self.start[i]
            busy[layer] += dt
            calls[layer] += 1
            if parent >= 0:
                child[LAYERS[self.layer[parent]]] += dt
        out = {}
        for layer in LAYERS:
            out[f"{layer}_s"] = busy[layer] / rounds
        for layer in PARENTS:
            out[f"{layer}_self_s"] = (busy[layer] - child[layer]) / rounds
        counts = {COUNT_NAMES.get(layer, f"{layer}_calls"): calls[layer] for layer in LAYERS}
        counts.update(self.work)
        for name, total in counts.items():
            if total % rounds:
                raise RuntimeError(f"{name}: {total} is not the same in each of {rounds} rounds")
            out[name] = total // rounds
        return out

    def write(self, path: str):
        """Spans as JSON; times are seconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            json.dump(
                [
                    {"name": LAYERS[self.layer[i]], "start": self.start[i] - t0,
                     "end": self.end[i] - t0, "parent": self.parent[i], "round": self.round_id[i]}
                    for i in range(len(self.layer))
                ],
                fh,
            )
