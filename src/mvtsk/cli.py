"""Command-line interface.

Subcommands: synth (generate a planted dataset), mask (hide view rows),
train, predict, bench (mask-rate sweep with repetitions), stats (Friedman +
Holm over benchmark CSVs), explain (rule report and decision traces).

Every command is deterministic under a fixed --seed; bench derives one seed
per (rate, repetition) cell from the root seed so any cell can be reproduced
in isolation.

bench runs its cells in forked worker processes, one per CPU in the affinity
mask (``taskset -c`` limits them). Its files and stdout lines are
byte-identical for any number of workers, and failed cells' tracebacks go to
stderr in cell order. A DegeneracyWarning may print once per worker; pin
BLAS to one thread (OMP_NUM_THREADS=1) to avoid oversubscribing the CPUs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import multiprocessing
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from mvtsk import classifier as _classifier
from mvtsk import dataset as _dataset
from mvtsk import explain as _explain
from mvtsk import metrics as _metrics
from mvtsk import pipeline as _pipeline
from mvtsk.classifier import EnsembleConfig
from mvtsk.representation import DualRepConfig


def _build_config(cls, section: str, values):
    """``cls(**values)``, with every failure a ValueError naming ``section``."""
    if not isinstance(values, dict):
        raise ValueError(f"config section {section!r} must be an object, got {values!r}")
    known = [f.name for f in dataclasses.fields(cls)]
    for key in values:
        if key not in known:
            raise ValueError(f"config section {section!r}: unknown key {key!r}; known: {known}")
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config section {section!r}: {exc}") from None


def _load_run_config(path: str | None):
    """Config JSON with optional "representation" and "ensemble" sections."""
    doc = {}
    if path:
        with open(path) as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"config {path} must be a JSON object, got {doc!r}")
    rep_overrides = doc.get("representation", {})
    if isinstance(rep_overrides, dict) and rep_overrides.get("tol") in ("inf", "Infinity"):
        rep_overrides = {**rep_overrides, "tol": float("inf")}
    rep_cfg = _build_config(DualRepConfig, "representation", rep_overrides)
    ens_cfg = _build_config(EnsembleConfig, "ensemble", doc.get("ensemble", {}))
    return rep_cfg, ens_cfg, doc


def _write_json(path: str, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    dims = [int(x) for x in args.dims.split(",")]
    ds = _dataset.gen_synthetic(
        args.n, len(dims), dims, args.latent, args.noise, args.sep,
        seed=args.seed, n_classes=args.classes,
    )
    manifest = _dataset.save_dataset(ds, args.out)
    print(f"wrote {manifest} (N={ds.n_instances}, V={ds.n_views}, dims={dims})")
    return 0


def cmd_mask(args) -> int:
    ds = _dataset.load_dataset(args.manifest)
    masked = _dataset.apply_mask(ds, args.rate, args.seed)
    manifest = _dataset.save_dataset(masked, args.out)
    kept = sum(int(vb.present.sum()) for vb in masked.views)
    total = masked.n_instances * masked.n_views
    print(f"wrote {manifest} ({kept}/{total} view-rows present)")
    return 0


def cmd_train(args) -> int:
    rep_cfg, ens_cfg, _ = _load_run_config(args.config)
    if args.seed is not None:
        rep_cfg = dataclasses.replace(rep_cfg, seed=args.seed)
        ens_cfg = dataclasses.replace(ens_cfg, seed=args.seed)
    ds = _dataset.load_dataset(args.manifest)
    model = _pipeline.train_model(ds, rep_cfg, ens_cfg)
    _pipeline.save_model(model, args.out)
    trace = model.rep_model.objective_trace
    print(f"wrote {args.out}")
    print(f"representation: {len(trace) - 1} iterations, objective {trace[-1]:.6g}")
    print("view weights: " + ", ".join(
        f"{r}={a:.4f}" for r, a in zip(model.ensemble.roles, model.ensemble.alpha)
    ))
    return 0


def cmd_predict(args) -> int:
    model = _pipeline.load_model(args.model)
    ds = _dataset.load_dataset(args.manifest)
    scores, labels = _pipeline.predict_model(model, ds)
    os.makedirs(args.out, exist_ok=True)
    scores_path = os.path.join(args.out, "scores.csv")
    with open(scores_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"class{c}" for c in range(scores.shape[1])])
        for row in scores:
            writer.writerow(["%.17g" % x for x in row])
    labels_path = os.path.join(args.out, "labels.csv")
    with open(labels_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"])
        for lab in labels:
            writer.writerow([int(lab)])
    print(f"wrote {scores_path} and {labels_path} ({len(labels)} rows)")
    return 0


def _grid_overrides(grid: dict):
    """Cartesian product of {"section.param": [values...]} into override dicts."""
    keys = sorted(grid)
    for combo in itertools.product(*(grid[k] for k in keys)):
        yield dict(zip(keys, combo))


def _apply_overrides(rep_cfg, ens_cfg, overrides):
    sections = {"representation": dataclasses.asdict(rep_cfg),
                "ensemble": dataclasses.asdict(ens_cfg)}
    for key, value in overrides.items():
        section, _, name = key.partition(".")
        if name not in sections.get(section, {}):
            raise ValueError(
                f"unknown grid key {key!r}; expected representation.<name> or ensemble.<name>"
            )
        sections[section][name] = value
    try:
        return (_build_config(DualRepConfig, "representation", sections["representation"]),
                _build_config(EnsembleConfig, "ensemble", sections["ensemble"]))
    except ValueError as exc:
        raise ValueError(f"grid point {overrides}: {exc}") from None


def _grid_points(grid, rep_cfg, ens_cfg) -> list:
    """Every grid point's overrides in selection order, each checked by
    building its two configs; raises ValueError naming a bad key or value."""
    if not isinstance(grid, dict):
        raise ValueError("the grid must be a JSON object mapping section.name to a list")
    for key, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ValueError(f"grid key {key!r}: expected a non-empty list, got {values!r}")
    points = list(_grid_overrides(grid)) if grid else []
    for overrides in points:
        _apply_overrides(rep_cfg, ens_cfg, overrides)
    return points


def _select(sub_tr, sub_val, rep_cfg, ens_cfg, points):
    """The first grid point with the best validation accuracy.

    Stage 1 depends only on the representation.* overrides, so it is fit and
    applied to ``sub_val`` once per distinct setting of them; each point then
    trains only its ensemble.
    """
    stage1 = {}
    best = None
    for overrides in points:
        r_cfg, e_cfg = _apply_overrides(rep_cfg, ens_cfg, overrides)
        key = json.dumps(
            {k: v for k, v in overrides.items() if k.startswith("representation.")},
            sort_keys=True,
        )
        if key not in stage1:
            fitted = _pipeline.train_representation(sub_tr, r_cfg)
            stage1[key] = (fitted, _pipeline.transform_dataset(fitted, sub_val))
        fitted, val_rep = stage1[key]
        model = _pipeline.train_ensemble(fitted, sub_tr, e_cfg)
        _, val_pred = _classifier.predict(model.ensemble, val_rep)
        acc = _metrics.accuracy(sub_val.labels, val_pred)
        if best is None or acc > best[0]:
            best = (acc, overrides)
    return best[1]


def _run_cell(ds, rate, rep, rep_cfg, ens_cfg, test_fraction, root_seed, rate_idx, points):
    seeds = [_pipeline.derive_seed(root_seed, rate_idx, rep, j) for j in range(4)]
    masked = _dataset.apply_mask(ds, rate, seeds[0])
    train, test = _dataset.split_train_test(masked, test_fraction, seeds[1], stratified=True)
    rep_cfg = dataclasses.replace(rep_cfg, seed=seeds[2])
    ens_cfg = dataclasses.replace(ens_cfg, seed=seeds[3])

    if points:
        sub_tr, sub_val = _dataset.split_train_test(train, 0.2, seeds[1], stratified=True)
        best = _select(sub_tr, sub_val, rep_cfg, ens_cfg, points)
        rep_cfg, ens_cfg = _apply_overrides(rep_cfg, ens_cfg, best)

    model = _pipeline.train_model(train, rep_cfg, ens_cfg)
    scores, pred = _pipeline.predict_model(model, test)
    auc_scores = scores[:, 1] if ds.n_classes == 2 else scores
    return {
        "acc": _metrics.accuracy(test.labels, pred),
        "auc": _metrics.auc(test.labels, auc_scores),
        "f1": _metrics.f1(test.labels, pred, n_classes=ds.n_classes),
    }


# The run's inputs in a bench worker, set once by the pool's initializer:
# (dataset, rep_cfg, ens_cfg, grid points, test fraction, root seed).
_bench_inputs = None


def _init_bench_worker(inputs):
    global _bench_inputs
    _bench_inputs = inputs


def _bench_cell(cell):
    """One (rate_idx, rate, rep) cell in a worker: ``(metrics, None)``, or
    ``(None, (error, traceback))`` if it failed."""
    rate_idx, rate, rep = cell
    ds, rep_cfg, ens_cfg, points, test_fraction, root_seed = _bench_inputs
    try:
        metrics = _run_cell(
            ds, rate, rep, rep_cfg, ens_cfg, test_fraction, root_seed, rate_idx, points,
        )
    except Exception as exc:  # cell failures are recorded, the run continues
        return None, (f"{type(exc).__name__}: {exc}", traceback.format_exc())
    return metrics, None


def cmd_bench(args) -> int:
    rep_cfg, ens_cfg, doc = _load_run_config(args.config)
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
            points = _grid_points(json.load(fh), rep_cfg, ens_cfg)
    ds = _dataset.load_dataset(args.manifest)
    os.makedirs(args.out, exist_ok=True)

    cells = [(rate_idx, rate, rep)
             for rate_idx, rate in enumerate(rates) for rep in range(args.reps)]
    rows, errors = [], []
    reports = {rate: _metrics.MetricReport() for rate in rates}
    # Forked workers inherit the run's inputs and the flushed streams; a
    # worker writes nothing to stdout, so the parent's lines stay in order.
    sys.stdout.flush()
    sys.stderr.flush()
    with ProcessPoolExecutor(
        min(len(cells), len(os.sched_getaffinity(0))),
        mp_context=multiprocessing.get_context("fork"), initializer=_init_bench_worker,
        initargs=((ds, rep_cfg, ens_cfg, points, test_fraction, args.seed),),
    ) as pool:
        # an exception out of map's iterator (Ctrl-C, say) cancels the cells
        # not yet started; leaving the block joins every worker
        for (_, rate, rep), (cell, failure) in zip(cells, pool.map(_bench_cell, cells)):
            if failure is None:
                reports[rate].add(cell["acc"], cell["auc"], cell["f1"])
                rows.append((rate, rep, cell["acc"], cell["auc"], cell["f1"]))
            else:
                error, trace = failure
                errors.append({"rate": rate, "rep": rep, "error": error})
                sys.stderr.write(trace)

    results_path = os.path.join(args.out, "results.csv")
    with open(results_path, "w", newline="") as fh:
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
    _write_json(os.path.join(args.out, "aggregate.json"), aggregate)

    for rate in rates:
        if reports[rate].acc:
            s = reports[rate].summary()
            print(f"rate {rate}: ACC {s['acc']['formatted']}  AUC {s['auc']['formatted']}"
                  f"  F1 {s['f1']['formatted']}")
    if errors:
        _write_json(os.path.join(args.out, "errors.json"), errors)
        print(f"{len(errors)} cells failed; see errors.json", file=sys.stderr)
        return 2
    return 0


def _read_results_csv(path: str) -> dict:
    """``{(rate, rep): {metric: value}}`` from a ``bench`` results.csv; a
    missing column, a short row, a non-numeric or non-finite cell or a
    repeated (rate, rep) raises a ValueError naming the file and the line."""
    values = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        absent = [c for c in ("rate", "rep", "acc", "auc", "f1")
                  if c not in (reader.fieldnames or [])]
        if absent:
            raise ValueError(f"{path}: no column {', '.join(absent)}")
        for row in reader:
            where = f"{path} line {reader.line_num}"
            if None in row.values():
                raise ValueError(f"{where}: too few fields")
            try:
                key = (float(row["rate"]), int(row["rep"]))
                scores = {m: float(row[m]) for m in ("acc", "auc", "f1")}
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            bad = [c for c, x in (("rate", key[0]), *scores.items()) if not math.isfinite(x)]
            if bad:
                raise ValueError(f"{where}: non-finite {', '.join(bad)}")
            if key in values:
                raise ValueError(f"{where}: repeats rate {key[0]}, rep {key[1]}")
            values[key] = scores
    return values


def cmd_stats(args) -> int:
    names = (
        args.names.split(",") if args.names
        else [os.path.splitext(os.path.basename(p))[0] for p in args.results]
    )
    if len(names) != len(args.results):
        raise ValueError(f"{len(names)} names for {len(args.results)} result files")

    per_algo = []
    key_set = None
    for path in args.results:
        values = _read_results_csv(path)
        keys = sorted(values)
        if key_set is None:
            key_set = keys
        elif keys != key_set:
            raise ValueError(f"misaligned settings in {path}")
        per_algo.append(values)

    matrix = np.array(
        [[algo[key][args.metric] for algo in per_algo] for key in key_set]
    )
    fr = _metrics.friedman_test(matrix)
    if args.control not in names:
        raise ValueError(f"control {args.control!r} not among {names}")
    holm = _metrics.holm_posthoc(
        fr.avg_ranks, fr.n_settings, fr.n_algorithms,
        names.index(args.control), names=names,
    )

    print(f"Friedman ({args.metric}, n={fr.n_settings}, k={fr.n_algorithms}): "
          f"chi2={fr.statistic:.6g}, df={fr.df}, p={fr.p_value:.6g}")
    print("Ranking (1 = best):")
    for j in np.argsort(fr.avg_ranks, kind="stable"):
        print(f"  {names[j]:30s} {fr.avg_ranks[j]:.4g}")
    print(f"Holm vs {holm.control}:")
    print(f"  {'i':>2s} {'algorithm':30s} {'z':>10s} {'p':>10s} {'holm':>10s} reject")
    for c in holm.comparisons:
        print(f"  {c.i:2d} {c.algorithm:30s} {c.z:10.6f} {c.p:10.6f} "
              f"{c.threshold:10.6f} {'yes' if c.reject else 'no'}")

    if args.out:
        _write_json(args.out, {
            "metric": args.metric,
            "friedman": {
                "statistic": fr.statistic, "df": fr.df, "p": fr.p_value,
                "avg_ranks": {names[j]: float(fr.avg_ranks[j]) for j in range(len(names))},
            },
            "holm": {
                "control": holm.control,
                "comparisons": [
                    {"i": c.i, "algorithm": c.algorithm, "z": c.z, "p": c.p,
                     "threshold": c.threshold, "reject": c.reject}
                    for c in holm.comparisons
                ],
            },
        })
    return 0


def cmd_explain(args) -> int:
    model = _pipeline.load_model(args.model)
    roles = model.ensemble.roles
    if args.view in roles:
        view_index = roles.index(args.view)
    else:
        try:
            view_index = int(args.view)
        except ValueError:
            raise ValueError(f"unknown view {args.view!r}; known: {roles}") from None
        if not 0 <= view_index < len(roles):
            raise ValueError(f"view index {view_index} out of range; known: {roles}")

    if args.instance is not None:
        if not args.manifest:
            raise ValueError("--instance requires --manifest to supply the data row")
        ds = _dataset.load_dataset(args.manifest)
        if not 0 <= args.instance < ds.n_instances:
            raise ValueError(
                f"--instance {args.instance} out of range for {ds.n_instances} rows"
            )

    feature_names = None
    if args.names:
        with open(args.names) as fh:
            feature_names = [line.strip() for line in fh if line.strip()]

    text, report = _explain.rule_report(model.ensemble, view_index, feature_names)
    print(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "rules.txt"), "w") as fh:
            fh.write(text + "\n")
        _write_json(os.path.join(args.out, "rules.json"), report)

    if args.instance is not None:
        rep_result = _pipeline.transform_dataset(model, ds.subset([args.instance]))
        design, _ = _classifier.design_matrices(rep_result, model.ensemble.config)
        x = design[view_index][0]
        trace = _explain.decision_trace(model.ensemble, view_index, x)
        print(f"\nInstance {args.instance} on view '{roles[view_index]}':")
        for k in range(trace.firing.size):
            marker = "  <- dominant" if k == trace.dominant_rule else ""
            contrib = ", ".join(f"{v:.4f}" for v in trace.contributions[k])
            print(f"  rule {k + 1}: firing {trace.firing[k]:.4f}, "
                  f"contribution [{contrib}]{marker}")
        print(f"  combined score: {[round(float(v), 4) for v in trace.combined]}")
        print(f"  decision: class {int(np.argmax(trace.decision))}")
        if args.out:
            _write_json(os.path.join(args.out, "trace.json"), {
                "view": roles[view_index],
                "instance": args.instance,
                "firing": [float(v) for v in trace.firing],
                "rule_outputs": [[float(v) for v in row] for row in trace.rule_outputs],
                "contributions": [[float(v) for v in row] for row in trace.contributions],
                "combined": [float(v) for v in trace.combined],
                "decision": [float(v) for v in trace.decision],
                "dominant_rule": trace.dominant_rule,
            })
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvtsk",
        description="Incomplete multi-view fuzzy classification pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic planted dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n", type=int, default=200, help="instances")
    p.add_argument("--dims", default="24,20,16", help="comma-separated view dimensions")
    p.add_argument("--latent", type=int, default=4, help="planted latent dimension")
    p.add_argument("--noise", type=float, default=0.01, help="noise standard deviation")
    p.add_argument("--sep", type=float, default=3.0, help="class separation")
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("mask", help="randomly hide view rows")
    p.add_argument("manifest")
    p.add_argument("--rate", type=float, required=True, help="fraction in [0, 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("train", help="train a model on a manifest")
    p.add_argument("manifest")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, help="override both section seeds")
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score a manifest with a trained model")
    p.add_argument("model")
    p.add_argument("manifest")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("bench", help="mask-rate sweep with repetitions")
    p.add_argument("manifest")
    p.add_argument("--rates", default="0.1,0.3,0.5,0.7")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--grid", help="JSON grid file for validation-based selection")
    p.add_argument("--test-fraction", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("stats", help="Friedman + Holm over benchmark CSVs")
    p.add_argument("results", nargs="+", help="per-algorithm results.csv files")
    p.add_argument("--control", required=True, help="control algorithm name")
    p.add_argument("--metric", default="auc", choices=["acc", "auc", "f1"])
    p.add_argument("--names", help="comma-separated algorithm names (default: file stems)")
    p.add_argument("--out", help="JSON report path")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("explain", help="rule report and decision traces")
    p.add_argument("model")
    p.add_argument("--view", required=True, help="view name or index")
    p.add_argument("--names", help="file with one feature name per line")
    p.add_argument("--instance", type=int, help="row to trace (requires --manifest)")
    p.add_argument("--manifest", help="data source for --instance")
    p.add_argument("--out", help="output directory for reports")
    p.set_defaults(func=cmd_explain)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
