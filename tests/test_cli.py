import csv
import json
import multiprocessing
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
from mvtsk import classifier, cli, explain, pipeline, representation
from mvtsk.classifier import EnsembleConfig
from mvtsk.cli import main
from mvtsk.dataset import (
    DegeneracyWarning,
    apply_mask,
    gen_synthetic,
    load_dataset,
    save_dataset,
    split_train_test,
)
from mvtsk.representation import DualRepConfig

DATA = Path(__file__).parent / "data"


@pytest.fixture
def synth_manifest(tmp_path):
    ds = gen_synthetic(60, 3, [6, 5, 4], 2, 0.05, 6.0, seed=3)
    return save_dataset(ds, str(tmp_path / "data"))


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "representation": {"m": 2, "lam1": 0.0, "lam2": 0.03125, "lam3": 0.03125,
                           "p": 5, "max_iters": 10, "seed": 1},
        "ensemble": {"K": 2, "beta": 0.25, "gamma": 4.0, "delta": 0.5,
                     "max_iters": 20, "seed": 2},
        "test_fraction": 0.3,
    }))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def counted(fn, path):
    """``fn`` that first appends a byte to ``path``: bench cells run in
    worker processes, so their calls are counted through a file."""
    path.write_bytes(b"")

    def wrapper(*args):
        with open(path, "ab") as fh:
            fh.write(b".")
        return fn(*args)

    return wrapper


def test_cli_import_does_not_load_scipy_stats():
    # scipy.stats costs about 35 MB and 1 s in every process that loads it
    code = ("import sys, mvtsk.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


class TestSynthAndMask:
    def test_synth_writes_loadable_manifest(self, tmp_path):
        out = tmp_path / "gen"
        assert main(["synth", "--out", str(out), "--n", "20", "--dims", "3,4",
                     "--latent", "2", "--seed", "5"]) == 0
        ds = load_dataset(str(out / "manifest.json"))
        assert ds.n_instances == 20 and ds.dims == [3, 4]

    def test_default_synth_trains_under_default_config_without_warning(self, tmp_path):
        # synth's default view dims are no smaller than DualRepConfig's m
        data, model = tmp_path / "gen", tmp_path / "model.json"
        assert main(["synth", "--out", str(data)]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegeneracyWarning)
            assert main(["train", str(data / "manifest.json"), "--out", str(model)]) == 0

    def test_mask_rate_zero_all_present(self, synth_manifest, tmp_path):
        out = tmp_path / "masked"
        assert main(["mask", synth_manifest, "--rate", "0", "--out", str(out)]) == 0
        ds = load_dataset(str(out / "manifest.json"))
        assert all(vb.present.all() for vb in ds.views)

    def test_mask_deterministic_files(self, synth_manifest, tmp_path):
        outs = []
        for name in ("m1", "m2"):
            out = tmp_path / name
            main(["mask", synth_manifest, "--rate", "0.5", "--seed", "7", "--out", str(out)])
            outs.append((out / "mask.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_mask_bad_rate_errors(self, synth_manifest, tmp_path):
        rc = main(["mask", synth_manifest, "--rate", "1.0", "--out", str(tmp_path / "x")])
        assert rc == 1


class TestTrainPredict:
    def test_train_writes_model_with_simplex_weights(self, synth_manifest, fast_config, tmp_path):
        model_path = tmp_path / "model.json"
        assert main(["train", synth_manifest, "--config", fast_config,
                     "--out", str(model_path)]) == 0
        doc = json.loads(model_path.read_text())
        alpha = doc["ensemble"]["alpha"]
        assert len(alpha) == 5  # 3 views + common + specific
        assert abs(sum(alpha) - 1.0) <= 1e-12

    def test_train_tolerance_inf_single_iteration(self, synth_manifest, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "representation": {"m": 2, "max_iters": 50, "tol": "inf", "p": 4},
            "ensemble": {"K": 2, "max_iters": 5},
        }))
        model_path = tmp_path / "model.json"
        assert main(["train", synth_manifest, "--config", str(cfg),
                     "--out", str(model_path)]) == 0
        assert "representation: 1 iterations," in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["train", "bench"])
    @pytest.mark.parametrize("doc, named", [
        ({"ensemble": {"KK": 2}}, "'KK'"),
        ({"ensemble": [1]}, "'ensemble'"),
        ({"representation": {"m": "two"}}, "'representation'"),
        ([1], "JSON object"),
        ({"ensemble": {"max_iters": 0}}, "max_iters must be >= 1"),
        ({"ensemble": {"tol": "inf"}}, "tol must be a real number"),
        ({"ensemble": {"max_iters": 2.5}}, "max_iters must be an integer"),
        ({"representation": {"max_iters": 2.5}}, "max_iters must be an integer"),
        ({"representation": {"seed": 1.5}}, "seed must be an integer"),
        ({"representation": {"seed": True}}, "seed must be an integer"),
        ({"ensemble": {"seed": 1.5}}, "seed must be an integer"),
        ({"ensemble": {"seed": True}}, "seed must be an integer"),
        ({"representation": {"tol": "abc", "max_iters": 2}}, "tol must be a real number"),
        ({"representation": {"tol": None, "max_iters": 2}}, "tol must be a real number"),
    ])
    def test_bad_config_is_one_line_error(
        self, synth_manifest, tmp_path, capsys, command, doc, named
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        rc = main([command, synth_manifest, "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and named in err

    @pytest.mark.parametrize("command", ["predict", "explain"])
    @pytest.mark.parametrize("broken, named", [
        ("list", "JSON object"), ("no_alpha", "'alpha'"), ("extra_config_key", "'KK'"),
    ])
    def test_bad_model_file_is_one_line_error(
        self, synth_manifest, tmp_path, capsys, command, broken, named
    ):
        doc = json.loads((DATA / "model-v1.json").read_text())
        if broken == "list":
            doc = [1]
        elif broken == "no_alpha":
            del doc["ensemble"]["alpha"]
        else:
            doc["ensemble"]["config"]["KK"] = 2
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc))
        args = {
            "predict": ["predict", str(model_path), synth_manifest, "--out", str(tmp_path / "p")],
            "explain": ["explain", str(model_path), "--view", "0"],
        }[command]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and named in err

    def test_train_determinism_byte_identical(self, synth_manifest, fast_config, tmp_path):
        blobs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            main(["train", synth_manifest, "--config", fast_config, "--out", str(path)])
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_predict_row_count_and_missing_rows(self, synth_manifest, fast_config, tmp_path):
        model_path = tmp_path / "model.json"
        main(["train", synth_manifest, "--config", fast_config, "--out", str(model_path)])
        masked = tmp_path / "masked"
        main(["mask", synth_manifest, "--rate", "0.4", "--seed", "3", "--out", str(masked)])
        out = tmp_path / "pred"
        assert main(["predict", str(model_path), str(masked / "manifest.json"),
                     "--out", str(out)]) == 0
        labels = read_rows(out / "labels.csv")
        assert len(labels) == 60
        scores = read_rows(out / "scores.csv")
        assert set(scores[0]) == {"class0", "class1"}

    def test_predict_dim_mismatch_names_view(self, synth_manifest, fast_config, tmp_path):
        model_path = tmp_path / "model.json"
        main(["train", synth_manifest, "--config", fast_config, "--out", str(model_path)])
        other = save_dataset(gen_synthetic(10, 3, [6, 5, 9], 2, 0.05, 6.0, seed=8),
                             str(tmp_path / "other"))
        rc = main(["predict", str(model_path), other, "--out", str(tmp_path / "p2")])
        assert rc == 1


class TestBench:
    def test_bench_outputs(self, synth_manifest, fast_config, tmp_path):
        out = tmp_path / "bench"
        assert main(["bench", synth_manifest, "--rates", "0,0.3", "--reps", "2",
                     "--config", fast_config, "--seed", "9", "--out", str(out)]) == 0
        rows = read_rows(out / "results.csv")
        assert len(rows) == 4  # |rates| * reps
        agg = json.loads((out / "aggregate.json").read_text())
        assert set(agg["rates"]) == {"0.0", "0.3"}
        for metric in ("acc", "auc", "f1"):
            cell = agg["rates"]["0.0"][metric]
            assert "±" in cell["formatted"]
        assert not (out / "errors.json").exists()

    def test_bench_deterministic(self, synth_manifest, fast_config, tmp_path):
        blobs = []
        for name in ("b1", "b2"):
            out = tmp_path / name
            main(["bench", synth_manifest, "--rates", "0.3", "--reps", "2",
                  "--config", fast_config, "--seed", "11", "--out", str(out)])
            blobs.append((out / "results.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_bench_cell_failures_recorded(self, synth_manifest, tmp_path):
        # K larger than any training split: every cell fails but the run finishes
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "representation": {"m": 2, "max_iters": 2, "p": 3},
            "ensemble": {"K": 500, "max_iters": 3},
        }))
        out = tmp_path / "bench"
        rc = main(["bench", synth_manifest, "--rates", "0.1", "--reps", "2",
                   "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        errors = json.loads((out / "errors.json").read_text())
        assert len(errors) == 2
        assert all("error" in e for e in errors)


class TestBenchGrid:
    ENSEMBLE_GRID = {"ensemble.K": [2, 3], "ensemble.gamma": [1.0, 4.0]}
    MIXED_GRID = {"ensemble.K": [2, 3], "representation.lam2": [0.03125, 0.25]}

    def _bench(self, manifest, config, tmp_path, grid, name, *extra):
        grid_path = tmp_path / f"{name}.grid.json"
        grid_path.write_text(json.dumps(grid))
        out = tmp_path / name
        rc = main(["bench", manifest, "--rates", "0.1,0.4", "--reps", "2", "--config", config,
                   "--grid", str(grid_path), "--seed", "5", "--out", str(out), *extra])
        return rc, out

    @pytest.mark.parametrize("grid", [ENSEMBLE_GRID, MIXED_GRID])
    def test_outputs_match_retraining_every_point(
        self, synth_manifest, fast_config, tmp_path, monkeypatch, grid
    ):
        rc, out = self._bench(synth_manifest, fast_config, tmp_path, grid, "reuse")
        assert rc == 0
        calls = tmp_path / "select.calls"
        monkeypatch.setattr(cli, "_select", counted(oracles.select_by_retraining, calls))
        rc, ref = self._bench(synth_manifest, fast_config, tmp_path, grid, "retrain")
        assert rc == 0
        assert len(calls.read_bytes()) == 4  # the oracle selected in every cell
        for name in ("results.csv", "aggregate.json"):
            assert (out / name).read_bytes() == (ref / name).read_bytes()

    @pytest.mark.parametrize("grid, fits_per_cell", [(ENSEMBLE_GRID, 2), (MIXED_GRID, 3)])
    def test_stage1_fit_once_per_representation_setting(
        self, synth_manifest, fast_config, tmp_path, monkeypatch, grid, fits_per_cell
    ):
        calls = tmp_path / "fit.calls"
        monkeypatch.setattr(representation, "fit", counted(representation.fit, calls))
        rc, _ = self._bench(synth_manifest, fast_config, tmp_path, grid, "counted")
        assert rc == 0
        fits = calls.read_bytes()
        assert len(fits) == 4 * fits_per_cell  # 2 rates x 2 reps

    @pytest.mark.parametrize("config, grid", [
        ("fast", ENSEMBLE_GRID), ("fast", MIXED_GRID), ("failing", {"ensemble.gamma": [1.0, 4.0]}),
    ])
    def test_workers_match_serial_loop(
        self, synth_manifest, fast_config, tmp_path, monkeypatch, capsys, config, grid
    ):
        if config == "failing":  # K larger than any training split: every cell fails
            fast_config = tmp_path / "failing.json"
            fast_config.write_text(json.dumps({
                "representation": {"m": 2, "max_iters": 2, "p": 3},
                "ensemble": {"K": 500, "max_iters": 3},
            }))
        runs = []
        for name in ("workers", "serial"):
            if name == "serial":
                monkeypatch.setattr(cli, "cmd_bench", oracles.bench_serially)
            rc, out = self._bench(synth_manifest, str(fast_config), tmp_path, grid, name)
            assert multiprocessing.active_children() == []
            captured = capsys.readouterr()
            files = {f: (out / f).read_bytes() if (out / f).exists() else None
                     for f in ("results.csv", "aggregate.json", "errors.json")}
            errors = json.loads(files["errors.json"] or "[]")
            # each failed cell's traceback ends with its error line, in cell order
            last_lines = [line for line in captured.err.splitlines()
                          if any(line == e["error"] for e in errors)]
            runs.append((rc, files, captured.out, last_lines))
        assert runs[0] == runs[1]
        assert runs[0][0] == (2 if config == "failing" else 0)
        assert len(runs[0][3]) == (4 if config == "failing" else 0)

    def test_results_in_cell_order_when_a_later_cell_finishes_first(
        self, synth_manifest, fast_config, tmp_path, monkeypatch
    ):
        def first_cell_slow(ds, rate, rep, *args):
            time.sleep(0.3 if (rate, rep) == (0.1, 0) else 0.0)
            return {"acc": rate, "auc": rep / 10, "f1": 0.5}

        monkeypatch.setattr(cli, "_run_cell", first_cell_slow)
        rc, out = self._bench(synth_manifest, fast_config, tmp_path, self.ENSEMBLE_GRID, "order")
        assert rc == 0
        rows = [(float(r["rate"]), int(r["rep"]), float(r["acc"]), float(r["auc"]))
                for r in read_rows(out / "results.csv")]
        assert rows == [(rate, rep, rate, rep / 10) for rate in (0.1, 0.4) for rep in (0, 1)]

    def test_interrupted_run_stops_and_leaves_no_worker(
        self, synth_manifest, fast_config, tmp_path, monkeypatch
    ):
        calls = tmp_path / "cell.calls"

        def first_cell_interrupted(ds, rate, rep, *args):
            if (rate, rep) == (0.1, 0):
                raise KeyboardInterrupt
            time.sleep(0.2)
            return {"acc": 1.0, "auc": 1.0, "f1": 1.0}

        monkeypatch.setattr(cli, "_run_cell", counted(first_cell_interrupted, calls))
        with pytest.raises(KeyboardInterrupt):
            self._bench(synth_manifest, fast_config, tmp_path, self.ENSEMBLE_GRID, "stopped",
                        "--reps", "5")
        assert multiprocessing.active_children() == []
        assert len(calls.read_bytes()) < 10  # cells not yet started were cancelled

    def test_validation_tie_goes_to_first_point(self, synth_manifest):
        # the ensemble seed is unused in training, so points differing only
        # in it tie exactly; the winner must be the first of its tie
        ds = load_dataset(synth_manifest)
        sub_tr, sub_val = split_train_test(ds, 0.3, 4, stratified=True)
        rep_cfg = DualRepConfig(m=2, lam1=0.0, lam2=0.03125, lam3=0.03125, p=5, max_iters=5)
        ens_cfg = EnsembleConfig(K=2, gamma=4.0, delta=0.5, max_iters=10)
        points = list(cli._grid_overrides({"ensemble.seed": [6, 5], "ensemble.K": [2, 3]}))
        best = cli._select(sub_tr, sub_val, rep_cfg, ens_cfg, points)
        assert best["ensemble.seed"] == 6
        assert best == oracles.select_by_retraining(sub_tr, sub_val, rep_cfg, ens_cfg, points)

    @pytest.mark.parametrize("grid, extra, named", [
        ({"K": [2, 4]}, [], "'K'"),
        ({"ensemble.KK": [2]}, [], "'ensemble.KK'"),
        ({"ensemble.K": 2}, [], "'ensemble.K'"),
        ({"ensemble.K": []}, [], "'ensemble.K'"),
        ({"ensemble.K": [2, 0]}, [], "K must be >= 1"),
        ({"representation.m": ["two"]}, [], "'representation.m'"),
        (ENSEMBLE_GRID, ["--reps", "0"], "--reps"),
        (ENSEMBLE_GRID, ["--test-fraction", "0"], "test fraction"),
        (ENSEMBLE_GRID, ["--test-fraction", "1"], "test fraction"),
    ])
    def test_bad_inputs_rejected_before_any_cell(
        self, synth_manifest, fast_config, tmp_path, capsys, grid, extra, named
    ):
        rc, out = self._bench(synth_manifest, fast_config, tmp_path, grid, "bad", *extra)
        assert rc == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and named in err


class TestStats:
    def _write_results(self, path, offsets):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rate", "rep", "acc", "auc", "f1"])
            for i, (rate, rep) in enumerate(
                (r, p) for r in (0.1, 0.3, 0.5, 0.7) for p in range(2)
            ):
                base = 0.7 + 0.02 * (i % 3)
                writer.writerow([rate, rep, base + offsets, base + offsets, base + offsets])

    def test_identical_results_no_rejections(self, tmp_path):
        paths = []
        for name in ("alg_a", "alg_b", "alg_c"):
            p = tmp_path / f"{name}.csv"
            self._write_results(p, 0.0)
            paths.append(str(p))
        out = tmp_path / "stats.json"
        assert main(["stats", *paths, "--control", "alg_a", "--metric", "auc",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["friedman"]["p"] == pytest.approx(1.0, abs=1e-9)
        assert not any(c["reject"] for c in doc["holm"]["comparisons"])

    def test_dominant_control_rank_one(self, tmp_path):
        paths = []
        for name, off in (("best", 0.2), ("mid", 0.1), ("worst", 0.0)):
            p = tmp_path / f"{name}.csv"
            self._write_results(p, off)
            paths.append(str(p))
        out = tmp_path / "stats.json"
        main(["stats", *paths, "--control", "best", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["friedman"]["avg_ranks"]["best"] == 1.0

    def test_fixed_rank_chi_square_example(self, tmp_path):
        # 4 settings with constant ranks (1, 2, 3): chi2 = 8, p = e^-4
        paths = []
        for name, off in (("top", 0.2), ("mid", 0.1), ("low", 0.0)):
            p = tmp_path / f"{name}.csv"
            with open(p, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["rate", "rep", "acc", "auc", "f1"])
                for rate in (0.1, 0.3, 0.5, 0.7):
                    writer.writerow([rate, 0, 0.7 + off, 0.7 + off, 0.7 + off])
            paths.append(str(p))
        out = tmp_path / "stats.json"
        assert main(["stats", *paths, "--control", "top", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["friedman"]["statistic"] == pytest.approx(8.0, abs=1e-9)
        assert doc["friedman"]["p"] == pytest.approx(0.018316, abs=1e-6)

    def test_misaligned_settings_error(self, tmp_path):
        a = tmp_path / "a.csv"
        self._write_results(a, 0.0)
        b = tmp_path / "b.csv"
        with open(b, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rate", "rep", "acc", "auc", "f1"])
            writer.writerow([0.9, 0, 0.5, 0.5, 0.5])
        assert main(["stats", str(a), str(b), "--control", "a"]) == 1

    @pytest.mark.parametrize("lines, message", [
        (["rate,rep,acc,auc", "0.1,0,0.5,0.5"], "b.csv: no column f1"),
        (["rate,rep,acc,auc,f1", "0.1,0,0.5,0.5,0.5", "0.1,0,0.9,0.9,0.9"],
         "b.csv line 3: repeats rate 0.1, rep 0"),
        (["rate,rep,acc,auc,f1", "0.1,0,0.5,x,0.5"], "b.csv line 2: could not convert"),
        (["rate,rep,acc,auc,f1", "0.1,0,0.5"], "b.csv line 2: too few fields"),
        (["rate,rep,acc,auc,f1", "0.1,0,0.5,nan,0.5"], "b.csv line 2: non-finite auc"),
        (["rate,rep,acc,auc,f1", "0.1,0,0.5,0.5,0.5", "inf,1,-inf,0.5,0.5"],
         "b.csv line 3: non-finite rate, acc"),
    ])
    def test_malformed_results_name_file_and_line(self, tmp_path, capsys, lines, message):
        a = tmp_path / "a.csv"
        self._write_results(a, 0.0)
        b = tmp_path / "b.csv"
        b.write_text("\n".join(lines) + "\n")
        assert main(["stats", str(a), str(b), "--control", "a"]) == 1
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1


class TestExplain:
    def test_report_and_trace(self, synth_manifest, fast_config, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main(["train", synth_manifest, "--config", fast_config, "--out", str(model_path)])
        out = tmp_path / "explain"
        assert main(["explain", str(model_path), "--view", "view0",
                     "--manifest", synth_manifest, "--instance", "0",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "Rule 1" in text and "IF" in text
        report = json.loads((out / "rules.json").read_text())
        assert report["view"] == "view0"
        trace = json.loads((out / "trace.json").read_text())
        total = np.array(trace["contributions"]).sum(axis=0)
        assert np.max(np.abs(total - np.array(trace["combined"]))) <= 1e-12

    def test_instance_trace_matches_whole_manifest_transform(self, fast_config, tmp_path):
        ds = apply_mask(gen_synthetic(60, 3, [6, 5, 4], 2, 0.05, 6.0, seed=3), 0.4, seed=4)
        manifest = save_dataset(ds, str(tmp_path / "data"))
        model_path = tmp_path / "model.json"
        main(["train", manifest, "--config", fast_config, "--out", str(model_path)])
        out = tmp_path / "explain"
        assert main(["explain", str(model_path), "--view", "specific",
                     "--manifest", manifest, "--instance", "7", "--out", str(out)]) == 0
        trace = json.loads((out / "trace.json").read_text())
        model = pipeline.load_model(str(model_path))
        rep = pipeline.transform_dataset(model, load_dataset(manifest))
        design, roles = classifier.design_matrices(rep, model.ensemble.config)
        index = roles.index("specific")
        whole = explain.decision_trace(model.ensemble, index, design[index][7])
        for key in ("firing", "rule_outputs", "contributions", "combined", "decision"):
            assert np.max(np.abs(np.array(trace[key]) - getattr(whole, key))) <= 1e-12
        assert trace["dominant_rule"] == whole.dominant_rule

    @pytest.mark.parametrize("instance", ["60", "999", "-1"])
    def test_instance_out_of_range_errors(
        self, synth_manifest, fast_config, tmp_path, capsys, instance
    ):
        model_path = tmp_path / "model.json"
        main(["train", synth_manifest, "--config", fast_config, "--out", str(model_path)])
        capsys.readouterr()
        rc = main(["explain", str(model_path), "--view", "view0",
                   "--manifest", synth_manifest, "--instance", instance])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"--instance {instance} out of range for 60 rows" in captured.err

    def test_unknown_view_errors(self, synth_manifest, fast_config, tmp_path):
        model_path = tmp_path / "model.json"
        main(["train", synth_manifest, "--config", fast_config, "--out", str(model_path)])
        assert main(["explain", str(model_path), "--view", "nope"]) == 1

    def test_default_feature_names(self, synth_manifest, fast_config, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main(["train", synth_manifest, "--config", fast_config, "--out", str(model_path)])
        assert main(["explain", str(model_path), "--view", "0"]) == 0
        assert "f0" in capsys.readouterr().out

    def test_named_features_from_file(self, synth_manifest, fast_config, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main(["train", synth_manifest, "--config", fast_config, "--out", str(model_path)])
        names = tmp_path / "names.txt"
        names.write_text("age\nbmi\npelvis\nwidth\ndepth\nmargin\n")
        assert main(["explain", str(model_path), "--view", "view0",
                     "--names", str(names)]) == 0
        assert "age" in capsys.readouterr().out
