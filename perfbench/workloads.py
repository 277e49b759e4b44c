"""The four workloads: inputs, set-up, one timed round, and checks.

Every round of a workload repeats the same operations on the same inputs,
so per-round counts are exact and the share of failed operations does not
depend on how many rounds fit in a run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from mvtsk import cli, dataset, pipeline
from mvtsk.classifier import EnsembleConfig
from mvtsk.representation import DualRepConfig

from checks import CheckFailed, accuracy, check_scores, check_training, require

# Stage-1 and ensemble hyperparameters of the planted-recovery acceptance
# test, with fixed iteration and sweep counts (tol=0 never stops early).
FIXED_REP = dict(m=4, lam1=0.0, lam2=2**-5, lam3=2**-5, p=30, tol=0.0)
FIXED_ENS = dict(beta=0.125, gamma=4.0, delta=0.5, tol=0.0)
TEST_FRACTION = 0.3
BATCH_ROWS = 20
POOL_FRACTION = 1 / 3  # serve_batches: rows held out as the request pool
SET_UPS = 3


@dataclass
class Spec:
    """Make-up of a workload's data and of its rounds."""

    n: int
    dims: tuple
    classes: int = 2
    sep: float = 5.0
    rate: float = 0.5
    iters: int = 10
    sweeps: int = 20
    K: int = 2
    train_repeats: int = 1
    predict_repeats: int = 1
    batches: int = 20
    acc_floor: float = 0.75


SPECS = {
    # dense N x N graphs dominate train and predict
    "large_n": Spec(n=1000, dims=(24, 20, 16), predict_repeats=3, batches=30),
    # wide views, many classes and rules: consequent sweeps dominate
    "wide_rules": Spec(n=300, dims=(60, 50, 40), classes=4, sep=10.0, sweeps=60, K=10,
                       predict_repeats=5, batches=30, acc_floor=0.5),
    # a manifest of about MVRC size for `mvtsk bench`, plus the library job
    # on the same manifest
    "protocol_grid": Spec(n=200, dims=(24, 20, 16), rate=0.3, train_repeats=4, predict_repeats=8,
                          batches=120),
    # one model trained in set-up, then many small batches
    "serve_batches": Spec(n=600, dims=(24, 20, 16), batches=100),
}
NAMES = list(SPECS)

PROTOCOL_RATES = "0.1,0.3,0.5"
PROTOCOL_REPS = 2
PROTOCOL_GRID = {"ensemble.K": [2, 4], "ensemble.gamma": [1.0, 4.0]}
# tol-based stopping in both stages, so iteration counts depend on the data
PROTOCOL_CONFIG = {
    "representation": dict(FIXED_REP, tol=1e-4, max_iters=15),
    "ensemble": dict(FIXED_ENS, K=2, tol=1e-6, max_iters=100),
    "test_fraction": TEST_FRACTION,
}

# The permutation probe: a fixed problem, independent of --seed, whose
# batches are scored in order and permuted.  It is also the warm-up.
PROBE_SEED = 7
PROBE_TRAIN = 200
PROBE_BATCHES = 10


def seeds(seed: int, workload: str) -> dict:
    state = np.random.SeedSequence([seed, NAMES.index(workload)]).generate_state(5)
    return dict(zip(("data", "mask", "split", "model", "batches"), map(int, state)))


def configs(spec: Spec, model_seed: int):
    return (DualRepConfig(**FIXED_REP, max_iters=spec.iters, seed=model_seed),
            EnsembleConfig(**FIXED_ENS, K=spec.K, max_iters=spec.sweeps, seed=model_seed))


def synthesize(spec: Spec, seed: int):
    return dataset.gen_synthetic(
        spec.n, len(spec.dims), list(spec.dims), m=4, noise_sd=0.01, class_sep=spec.sep,
        seed=seed, n_classes=spec.classes,
    )


def timed(fn, *args):
    t = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t


def repeated(count: int, fn, *args):
    """``count`` back-to-back calls; the last output and the mean time.

    A short call lands in one of the machine's fast or slow spells, so one
    sample per round spans several calls.
    """
    t = time.perf_counter()
    for _ in range(count):
        out = fn(*args)
    return out, (time.perf_counter() - t) / count


@dataclass
class Tally:
    """Measurements of one run, pooled over its rounds."""

    setup: list = field(default_factory=list)
    train: list = field(default_factory=list)
    predict: list = field(default_factory=list)
    protocol: list = field(default_factory=list)  # protocol_grid: the bench command
    rounds: list = field(default_factory=list)  # wall time of each round
    batches: list = field(default_factory=list)
    batch_rows: int = 0
    attempted: int = 0
    failed: int = 0
    test_acc: float = 0.0
    impute_rmse: float = 0.0
    model_bytes: int = 0

    def metrics(self) -> dict:
        lat = np.asarray(self.batches)
        return {
            "setup_s": (statistics.median(self.setup), "s"),
            "train_s": (statistics.median(self.train), "s"),
            "predict_s": (statistics.median(self.predict), "s"),
            "protocol_s": (statistics.median(self.protocol or self.rounds), "s"),
            "serve_rows_per_s": (self.batch_rows / float(lat.sum()), "rows/s"),
            "batch_p50_ms": (1e3 * float(np.percentile(lat, 50)), "ms"),
            "batch_p90_ms": (1e3 * float(np.percentile(lat, 90)), "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "model_kb": (self.model_bytes / 1024.0, "KB"),
            "test_acc": (self.test_acc, "frac"),
            "impute_rmse": (self.impute_rmse, "1"),
        }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stream(model, pool, batches, n_classes, tally: Tally):
    """Closed loop, one caller: the next batch is sent after the reply."""
    requests = [pool.subset(idx) for idx in batches]
    for req in requests:
        (scores, labels), dt = timed(pipeline.predict_model, model, req)
        tally.batches.append(dt)
        tally.batch_rows += req.n_instances
        check_scores(scores, labels, req.n_instances, n_classes)
    tally.attempted += len(requests)


def batch_indices(n_rows: int, count: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [np.sort(rng.choice(n_rows, BATCH_ROWS, replace=False)) for _ in range(count)]


def serve_data(spec: Spec, run_seeds: dict):
    """serve_batches' data: the planted set, its training rows and the pool."""
    ds = synthesize(spec, run_seeds["data"])
    masked = dataset.apply_mask(ds, spec.rate, run_seeds["mask"])
    train, pool = dataset.split_train_test(masked, POOL_FRACTION, run_seeds["split"],
                                           stratified=True)
    return ds, train, pool


def permutation_changes(model, pool, b: int) -> bool:
    """Whether permuting the rows of the b-th run of BATCH_ROWS pool rows
    changes any row's label."""
    idx = np.arange(b * BATCH_ROWS, (b + 1) * BATCH_ROWS)
    perm = np.random.default_rng(b).permutation(BATCH_ROWS)
    _, labels = pipeline.predict_model(model, pool.subset(idx))
    _, permuted = pipeline.predict_model(model, pool.subset(idx[perm]))
    return not np.array_equal(labels[perm], permuted)


class Workload:
    """One workload in one run directory; subclasses fill in the steps."""

    def __init__(self, name: str, seed: int, workdir: str, probe):
        self.spec, self.seeds = SPECS[name], seeds(seed, name)
        self.dir, self.probe = workdir, probe
        self.tally = Tally()

    def path(self, *parts):
        return os.path.join(self.dir, *parts)

    def setup(self):
        """Write the workload's data set; the benchmark's set-up time."""
        ds = synthesize(self.spec, self.seeds["data"])
        self.manifest = dataset.save_dataset(ds, self.path("data"))

    def round(self):
        raise NotImplementedError

    def after_round(self):
        """Untimed, untraced work between rounds."""

    def check(self):
        """Checks that need extra program calls; run once, after the rounds."""

    # -- the library job shared by large_n, wide_rules and protocol_grid ----

    def job(self):
        """Load, mask, split, train, predict, save, load and serve batches."""
        spec, tally = self.spec, self.tally
        full = dataset.load_dataset(self.manifest)
        masked = dataset.apply_mask(full, spec.rate, self.seeds["mask"])
        train, test = dataset.split_train_test(
            masked, TEST_FRACTION, self.seeds["split"], stratified=True
        )
        rep_cfg, ens_cfg = configs(spec, self.seeds["model"])
        model, dt = repeated(spec.train_repeats, pipeline.train_model, train, rep_cfg, ens_cfg)
        tally.train.append(dt)
        (scores, labels), dt = repeated(spec.predict_repeats, pipeline.predict_model, model, test)
        tally.predict.append(dt)
        model_path = self.path("model.json")
        pipeline.save_model(model, model_path)
        served = pipeline.load_model(model_path)
        stream(served, test, batch_indices(test.n_instances, spec.batches, self.seeds["batches"]),
               spec.classes, tally)
        tally.attempted += spec.train_repeats + spec.predict_repeats
        self.last = (full, train, test, model, served, scores, labels, model_path)

    def check_job(self):
        full, train, test, model, served, scores, labels, model_path = self.last
        check_scores(scores, labels, test.n_instances, self.spec.classes)
        truth_train, _ = dataset.split_train_test(
            full, TEST_FRACTION, self.seeds["split"], stratified=True
        )
        rmse = check_training(model, train, truth_train, self.spec.iters, self.spec.sweeps)
        reloaded, _ = pipeline.predict_model(served, test)
        require(np.array_equal(reloaded, scores), "save -> load -> score changed the scores")
        acc = accuracy(labels, test.labels)
        require(acc >= self.spec.acc_floor, f"test accuracy {acc:.3f} < {self.spec.acc_floor}")
        self.tally.model_bytes = os.path.getsize(model_path)
        return acc, rmse


class TrainPredict(Workload):
    """large_n and wide_rules: the job at fixed iteration and sweep counts."""

    def round(self):
        self.job()

    def check(self):
        self.tally.test_acc, self.tally.impute_rmse = self.check_job()


class ProtocolGrid(Workload):
    """`mvtsk bench` in-process through cli.main, then the job on its manifest."""

    def setup(self):
        super().setup()
        self.config = self.path("config.json")
        self.grid = self.path("grid.json")
        for path, doc in ((self.config, PROTOCOL_CONFIG), (self.grid, PROTOCOL_GRID)):
            with open(path, "w") as fh:
                json.dump(doc, fh)

    def round(self):
        out = self.path("bench")
        argv = ["bench", self.manifest, "--rates", PROTOCOL_RATES, "--reps", str(PROTOCOL_REPS),
                "--config", self.config, "--grid", self.grid,
                "--seed", str(self.seeds["model"] % 2**31), "--out", out]
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code, dt = timed(cli.main, argv)
        self.tally.protocol.append(dt)
        self.bench = (code, out)
        self.job()
        self.tally.attempted += 1

    def check(self):
        code, out = self.bench
        require(code == 0, f"bench exited with {code}")
        require(not os.path.exists(os.path.join(out, "errors.json")), "bench wrote errors.json")
        with open(os.path.join(out, "results.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        cells = len(PROTOCOL_RATES.split(",")) * PROTOCOL_REPS
        require(len(rows) == cells, f"results.csv has {len(rows)} rows, expected {cells}")
        values = [float(row[k]) for row in rows for k in ("acc", "auc", "f1")]
        require(all(0.0 <= x <= 1.0 for x in values), "a results.csv value lies outside [0, 1]")
        _, self.tally.impute_rmse = self.check_job()
        self.tally.test_acc = statistics.fmean(float(row["acc"]) for row in rows)
        require(self.tally.test_acc >= self.spec.acc_floor,
                f"mean cell accuracy {self.tally.test_acc:.3f} < {self.spec.acc_floor}")


class ServeBatches(Workload):
    """A saved model scoring a closed-loop stream of small batches."""

    def setup(self):
        spec = self.spec
        ds, train, pool = serve_data(spec, self.seeds)
        self.pool_manifest = dataset.save_dataset(pool, self.path("pool"))
        model, dt = timed(pipeline.train_model, train, *configs(spec, self.seeds["model"]))
        self.tally.train.append(dt)
        self.model_path = self.path("model.json")
        pipeline.save_model(model, self.model_path)
        self.trained = (ds, train, model, pool)

    def round(self):
        pool = dataset.load_dataset(self.pool_manifest)
        model = pipeline.load_model(self.model_path)
        stream(model, pool, batch_indices(pool.n_instances, self.spec.batches, self.seeds["batches"]),
               self.spec.classes, self.tally)
        (scores, labels), dt = timed(pipeline.predict_model, model, pool)
        self.tally.predict.append(dt)
        self.tally.attempted += 1
        self.last = (pool, scores, labels)

    def after_round(self):
        """Permuting a batch's rows must permute its labels (untimed).

        A batch whose labels change counts as failed: ``representation.
        transform`` draws each test row's start from its position in the
        batch.  The probe's inputs do not depend on --seed, so the count is
        the same in every round and every run.
        """
        probe_model, probe_pool = self.probe
        for b in range(PROBE_BATCHES):
            self.tally.failed += permutation_changes(probe_model, probe_pool, b)
        self.tally.attempted += PROBE_BATCHES

    def check(self):
        ds, train, model, pool = self.trained
        pool_scores, labels = self.last[1], self.last[2]
        check_scores(pool_scores, labels, pool.n_instances, self.spec.classes)
        fresh, _ = pipeline.predict_model(model, pool)
        require(np.array_equal(fresh, pool_scores), "save -> load -> score changed the scores")
        truth_train, _ = dataset.split_train_test(ds, POOL_FRACTION, self.seeds["split"],
                                                  stratified=True)
        self.tally.impute_rmse = check_training(
            model, train, truth_train, self.spec.iters, self.spec.sweeps
        )
        self.tally.test_acc = accuracy(labels, pool.labels)
        require(self.tally.test_acc >= self.spec.acc_floor,
                f"pool accuracy {self.tally.test_acc:.3f} < {self.spec.acc_floor}")
        self.tally.model_bytes = os.path.getsize(self.model_path)


CLASSES = {"large_n": TrainPredict, "wide_rules": TrainPredict,
           "protocol_grid": ProtocolGrid, "serve_batches": ServeBatches}


def warm_up():
    """Untimed train+predict on a fixed tiny problem; its model and held-out
    rows are the permutation probe of serve_batches."""
    spec = Spec(n=PROBE_TRAIN + PROBE_BATCHES * BATCH_ROWS, dims=(24, 20, 16))
    ds = dataset.apply_mask(synthesize(spec, PROBE_SEED), spec.rate, PROBE_SEED)
    train = ds.subset(np.arange(PROBE_TRAIN))
    pool = ds.subset(np.arange(PROBE_TRAIN, ds.n_instances))
    model = pipeline.train_model(train, *configs(spec, PROBE_SEED))
    pipeline.predict_model(model, pool)
    return model, pool


def run(name: str, seed: int, seconds: float, workdir: str, tracer=None):
    """Warm up, set up SET_UPS times, run whole rounds for ``seconds``, check.

    Returns the tally, the number of rounds and the failed check's message,
    or None when every check passed.
    """
    wl = CLASSES[name](name, seed, workdir, warm_up())
    for _ in range(SET_UPS):
        _, dt = timed(wl.setup)
        wl.tally.setup.append(dt)
    if tracer is not None:
        tracer.install()
    rounds, start = 0, time.perf_counter()
    try:
        while rounds == 0 or time.perf_counter() - start < seconds:
            t = time.perf_counter()
            if tracer is None:
                wl.round()
            else:
                with tracer.round(rounds):
                    wl.round()
            wl.tally.rounds.append(time.perf_counter() - t)
            wl.after_round()
            rounds += 1
        wl.check()
    except CheckFailed as exc:
        return wl.tally, rounds, str(exc)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wl.tally, rounds, None
