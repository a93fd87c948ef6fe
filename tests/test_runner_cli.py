import dataclasses
import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from puselect.cli import CONFIG_KEYS, build_config, main, parse_config_file
from puselect.data import read_csv
from puselect.estimators import CvConfig, TrainingProtocol
from puselect.metrics import METRIC_NAMES, MetricReport, PairTest, SignificanceMatrix
from puselect.models import ModelKind
from puselect import estimators, runner
from puselect.optimize import NonFiniteError, OptimizerConfig
from puselect.runner import (
    CellStats,
    ExperimentConfig,
    ResultTable,
    fit_single,
    generate_dataset,
    run_real_benchmark,
    run_synth_benchmark,
)
from puselect.synth import GeneratorConfig, generate

LIGHT_PROTOCOL = TrainingProtocol(
    cv=CvConfig(folds=2, grid_sel=(0.0, 0.1), grid_tgt=(0.0, 0.1)),
    cv_max_iters=33,
    n_starts=1,
)


def light_config(tmp_path, **overrides) -> ExperimentConfig:
    defaults = dict(
        generator=GeneratorConfig(n=400, d=2, seed=5),
        protocol=LIGHT_PROTOCOL,
        models=(ModelKind.SPM, ModelKind.NAIVE, ModelKind.REAL_ORACLE),
        trials=2,
        resamples=2,
        seed=5,
        jobs=1,
        output_dir=str(tmp_path / "out"),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestGenerateDataset:
    def test_roundtrip_and_sidecar(self, tmp_path):
        cfg = light_config(tmp_path)
        out_csv = tmp_path / "data.csv"
        data = generate_dataset(cfg, out_csv)
        back = read_csv(out_csv)
        assert back.x.tobytes() == data.x.tobytes()
        sidecar = json.loads((tmp_path / "data.json").read_text())
        assert sidecar["seed"] == 5
        assert sidecar["config"]["n"] == 400
        assert len(sidecar["true_params"]["target"]["w"]) == 2
        assert out_csv.read_text().splitlines()[0] == "f0,f1,l,y"


class TestRunSynthBenchmark:
    def test_outputs_are_reproducible_bytes(self, tmp_path):
        cfg = light_config(tmp_path)
        run_synth_benchmark(cfg)
        first_json = (tmp_path / "out" / "aggregate.json").read_bytes()
        first_csv = (tmp_path / "out" / "trials.csv").read_bytes()
        run_synth_benchmark(cfg)
        assert (tmp_path / "out" / "aggregate.json").read_bytes() == first_json
        assert (tmp_path / "out" / "trials.csv").read_bytes() == first_csv

    def test_parallel_jobs_identical(self, tmp_path):
        serial = light_config(tmp_path, output_dir=str(tmp_path / "serial"))
        parallel = light_config(tmp_path, output_dir=str(tmp_path / "parallel"), jobs=2)
        run_synth_benchmark(serial)
        run_synth_benchmark(parallel)
        assert (tmp_path / "serial" / "aggregate.json").read_bytes() == (
            tmp_path / "parallel" / "aggregate.json"
        ).read_bytes()

    def test_single_unit_runs_inline(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a single trial must not start worker processes")

        # _map_units imports the pool class from its module when it starts workers.
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        run_synth_benchmark(light_config(tmp_path, trials=1, jobs=4))

    def test_cli_import_loads_no_pool_modules(self):
        # A --jobs 1 call never starts workers, so it never pays for the pool imports.
        code = "import sys, puselect.cli; print(*(m in sys.modules for m in sys.argv[1:]))"
        env = {**os.environ, "PYTHONPATH": str(Path(runner.__file__).parents[1])}
        argv = [sys.executable, "-c", code, "multiprocessing", "concurrent.futures"]
        out = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert (out.returncode, out.stdout.split()) == (0, ["False", "False"]), out.stderr

    def test_aggregate_embeds_config_and_seed(self, tmp_path):
        cfg = light_config(tmp_path)
        run_synth_benchmark(cfg)
        payload = json.loads((tmp_path / "out" / "aggregate.json").read_text())
        assert payload["seed"] == 5
        assert payload["config"]["generator"]["n"] == 400
        assert payload["mode"] == "bench-synth"
        assert set(payload["results"]) == {"f1", "accuracy", "auc", "brier"}

    def test_trials_csv_shape(self, tmp_path):
        cfg = light_config(tmp_path)
        table = run_synth_benchmark(cfg)
        lines = (tmp_path / "out" / "trials.csv").read_text().splitlines()
        assert lines[0].startswith("# ") and '"seed": 5' in lines[0]  # provenance comment
        assert lines[1] == "model,trial_id,f1,accuracy,auc,brier,c_sel,c_tgt"
        assert len(lines) == 2 + cfg.trials * len(cfg.models)
        for line, report in zip(lines[2:], table.reports):
            c_sel, c_tgt = (float(v) for v in line.split(",")[-2:])
            assert (c_sel, c_tgt) == (report.c_sel, report.c_tgt)
            assert c_sel in cfg.protocol.cv.grid_sel and c_tgt in cfg.protocol.cv.grid_tgt
        assert len(table.reports) == cfg.trials * len(cfg.models)

    def test_unwritable_output_rejected_before_compute(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        cfg = light_config(tmp_path, output_dir=str(target))
        with pytest.raises((ValueError, OSError)):
            run_synth_benchmark(cfg)

    def test_oracle_only_benchmark_single_row(self, tmp_path):
        cfg = light_config(
            tmp_path,
            generator=GeneratorConfig(seed=8),  # full-size benchmark generator
            models=(ModelKind.REAL_ORACLE,),
            trials=3,
        )
        table = run_synth_benchmark(cfg)
        assert set(table.cells["accuracy"]) == {ModelKind.REAL_ORACLE}
        assert table.mean("accuracy", ModelKind.REAL_ORACLE) >= 0.9
        assert table.significance["f1"] is None  # no pairs with one model


class TestRunRealBenchmark:
    def test_pipeline_closure_from_generated_csv(self, tmp_path):
        cfg = light_config(tmp_path)
        csv_path = tmp_path / "real.csv"
        generate_dataset(cfg, csv_path)
        table = run_real_benchmark(cfg, csv_path)
        payload = json.loads((tmp_path / "out" / "aggregate.json").read_text())
        assert payload["mode"] == "bench-real"
        assert set(payload["results"]) == {"f1", "accuracy", "auc", "brier"}
        assert len(table.reports) == cfg.resamples * len(cfg.models)

    def test_parallel_jobs_identical(self, tmp_path):
        # Three resamples: two workers get uneven shares, four exceed the count.
        csv_path = tmp_path / "real.csv"
        generate_dataset(light_config(tmp_path), csv_path)
        outputs = {}
        for jobs in (1, 2, 4):
            out = tmp_path / f"jobs{jobs}"
            run_real_benchmark(light_config(tmp_path, resamples=3, jobs=jobs, output_dir=str(out)), csv_path)
            outputs[jobs] = ((out / "resamples.csv").read_bytes(), (out / "aggregate.json").read_bytes())
        assert outputs[1] == outputs[2] == outputs[4]

    def test_missing_ground_truth_rejected(self, tmp_path):
        data = generate(GeneratorConfig(n=50, d=2, seed=6))
        from puselect.data import Dataset, write_csv

        no_y = Dataset(x=data.x, l=data.l)
        csv_path = tmp_path / "no_y.csv"
        write_csv(no_y, csv_path)
        with pytest.raises(ValueError, match="y column"):
            run_real_benchmark(light_config(tmp_path), csv_path)
        assert not (tmp_path / "out").exists()  # checked before the output directory is made


class TestFitSingle:
    def test_output_schema_and_recovery(self, tmp_path):
        cfg = light_config(tmp_path, generator=GeneratorConfig(n=800, d=2, seed=7, guess=0.0, lapse=0.0))
        csv_path = tmp_path / "fitme.csv"
        generate_dataset(cfg, csv_path)
        out_file = tmp_path / "fit.json"
        payload = fit_single(cfg, csv_path, ModelKind.SPM, out_file)
        assert set(payload) >= {
            "mode", "model", "seed", "config", "params", "penalties", "diagnostics", "training_metrics"
        }
        assert payload["model"] == "spm"
        assert payload["penalties"]["c_sel"] in cfg.protocol.cv.grid_sel
        assert payload["penalties"]["c_tgt"] in cfg.protocol.cv.grid_tgt
        assert "selection" in payload["params"] and "target" in payload["params"]
        assert "recovery" in payload  # sidecar present next to the CSV
        assert -1.0 <= payload["recovery"]["target_weight_cosine"] <= 1.0
        assert json.loads(out_file.read_text()) == payload

    def test_oracle_annotation_brier_scored_against_the_classes(self, tmp_path):
        # The oracle's annotation probability is p(y|x): scored against y, the
        # column it fits, it is the class Brier.
        cfg = light_config(tmp_path)
        csv_path = tmp_path / "data.csv"
        generate_dataset(cfg, csv_path)
        payload = fit_single(cfg, csv_path, ModelKind.REAL_ORACLE, tmp_path / "fit.json")
        training = payload["training_metrics"]
        assert training["brier_annotation"] == training["brier"]

    def test_no_sidecar_no_recovery(self, tmp_path):
        cfg = light_config(tmp_path)
        csv_path = tmp_path / "plain.csv"
        generate_dataset(cfg, csv_path)
        (tmp_path / "plain.json").unlink()
        payload = fit_single(cfg, csv_path, ModelKind.NAIVE, tmp_path / "fit.json")
        assert "recovery" not in payload

    def test_zero_weights_have_no_cosine(self):
        assert runner._cosine(np.zeros(2), np.ones(2)) is None


class TestAggregateJson:
    def test_layout_key_by_key(self, tmp_path):
        # Two models, two trials, AUC undefined for naive: built by hand, no fitting.
        spm, naive = ModelKind.SPM, ModelKind.NAIVE
        reports = [
            MetricReport(kind, t, 0.5, 0.5, None if kind == naive else 0.5, 0.25, c_sel=0.0, c_tgt=0.0)
            for t in range(2)
            for kind in (spm, naive)
        ]
        defined, undefined = CellStats(0.5, 0.0, 2), CellStats(None, 0.0, 0)
        cells = {m: {spm: defined, naive: undefined if m == "auc" else defined} for m in METRIC_NAMES}
        pairs = {(spm, naive): PairTest(True, 0.125), (naive, spm): PairTest(False, -0.125)}
        significance = {m: None if m == "auc" else SignificanceMatrix(0.05, pairs) for m in METRIC_NAMES}
        table = ResultTable(cells=cells, significance=significance, reports=reports, non_converged_fits=3)
        cfg = light_config(tmp_path, models=(spm, naive))
        runner._write_outputs(tmp_path, "bench-synth", cfg, table, "trials.csv")
        payload = json.loads((tmp_path / "aggregate.json").read_text())

        assert set(payload) == {"mode", "seed", "config", "results", "significance", "non_converged_fits"}
        assert (payload["mode"], payload["seed"], payload["non_converged_fits"]) == ("bench-synth", 5, 3)
        assert set(payload["results"]) == set(METRIC_NAMES) == set(payload["significance"])
        for metric in METRIC_NAMES:
            by_model = payload["results"][metric]
            assert by_model["spm"] == {"mean": 0.5, "stderr": 0.0, "count": 2}
            assert set(by_model) == {"spm", "naive"}
            assert set(by_model["naive"]) == {"mean", "stderr", "count"}
        assert payload["results"]["auc"]["naive"] == {"mean": None, "stderr": 0.0, "count": 0}
        assert payload["results"]["f1"]["naive"] == {"mean": 0.5, "stderr": 0.0, "count": 2}
        assert payload["significance"]["auc"] is None
        assert payload["significance"]["f1"] == {
            "spm_vs_naive": {"significant": True, "quantile_value": 0.125},
            "naive_vs_spm": {"significant": False, "quantile_value": -0.125},
        }


class TestConfigFile:
    def test_parse_and_precedence(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment\n"
            "generator.n = 123\n"
            "seed=9\n"
            "cv.grid_sel = 0.5, 1.5   # inline comment\n"
        )
        raw = parse_config_file(path)
        assert raw == {"generator.n": "123", "seed": "9", "cv.grid_sel": "0.5, 1.5"}
        cfg = build_config(raw)
        assert cfg.generator.n == 123
        assert cfg.seed == 9
        assert cfg.protocol.cv.grid_sel == (0.5, 1.5)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("generator.bogus=1\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_file(path)
        path.write_text("optimizer.method=auto\n")
        with pytest.raises(ValueError, match="unknown key 'optimizer.method'"):
            parse_config_file(path)

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("seed=1\nseed=2\n")
        with pytest.raises(ValueError, match="line 2: repeated key 'seed'"):
            parse_config_file(path)

    def test_build_config_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config key 'trial'"):
            build_config({"trial": "3", "generator.N": "7"})
        with pytest.raises(ValueError, match="unknown config key 'generator.N'"):
            build_config({"generator.N": "7"})

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("generator.n\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_config_file(path)

    def test_defaults_follow_benchmark_protocol(self):
        cfg = build_config({})
        assert cfg.trials == 500
        assert cfg.resamples == 200
        assert cfg.quantile_rule == 0.05
        assert cfg.protocol.cv.folds == 3
        assert cfg.protocol.cv.grid_sel == (0.0, 0.01, 0.1, 1.0, 10.0)
        assert cfg.generator.n == 5000 and cfg.generator.d == 5

    def test_readme_table_lists_every_key_with_its_default(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `([^`]+)` \| `([^`]+)` \|", readme, flags=re.MULTILINE)
        assert [key for key, _ in rows] == list(CONFIG_KEYS)
        for key, default in rows:
            parser, path = CONFIG_KEYS[key][:2]
            expected = functools.reduce(getattr, path.split("."), ExperimentConfig())
            assert parser(default) == expected, key

    # key -> (a value other than its default, the ExperimentConfig fields it sets)
    KEY_FIELDS = {
        "seed": ("7", {"seed", "generator.seed"}),
        "trials": ("9", {"trials"}),
        "jobs": ("2", {"jobs"}),
        "out": ("elsewhere", {"output_dir"}),
        "models": ("psychm,spm", {"models"}),
        "quantile_rule": ("0.1", {"quantile_rule"}),
        "resamples": ("11", {"resamples"}),
        "generator.n": ("123", {"generator.n"}),
        "generator.d": ("4", {"generator.d"}),
        "generator.rho1": ("2.5", {"generator.rho1"}),
        "generator.rho2": ("0.5", {"generator.rho2"}),
        "generator.k": ("1.5", {"generator.k"}),
        "generator.guess": ("0.1", {"generator.guess"}),
        "generator.lapse": ("0.2", {"generator.lapse"}),
        "generator.x_dist": ("uniform", {"generator.x_dist"}),
        "cv.folds": ("4", {"protocol.cv.folds"}),
        "cv.grid_sel": ("0,1", {"protocol.cv.grid_sel"}),
        "cv.grid_tgt": ("0.5", {"protocol.cv.grid_tgt"}),
        "cv.max_iters": ("40", {"protocol.cv_max_iters"}),
        "optimizer.max_iters": ("99", {"protocol.optimizer.max_iters"}),
        "optimizer.grad_tol": ("1e-4", {"protocol.optimizer.grad_tol"}),
        "fit.n_starts": ("2", {"protocol.n_starts"}),
    }

    @staticmethod
    def _fields(cfg, prefix=""):
        flat = {}
        for f in dataclasses.fields(cfg):
            value = getattr(cfg, f.name)
            if dataclasses.is_dataclass(value):
                flat.update(TestConfigFile._fields(value, f"{prefix}{f.name}."))
            else:
                flat[prefix + f.name] = value
        return flat

    @pytest.mark.parametrize("key", list(CONFIG_KEYS))
    def test_each_key_sets_exactly_its_own_field(self, key):
        value, fields = self.KEY_FIELDS[key]
        default, cfg = self._fields(ExperimentConfig()), self._fields(build_config({key: value}))
        assert {name for name in default if cfg[name] != default[name]} == fields

    def test_defaults_are_the_dataclass_defaults(self):
        # The CLI and library callers share one source of defaults.
        assert build_config({}) == ExperimentConfig()

    def test_optimizer_override(self):
        # An optimizer key overrides that setting alone; the others keep the
        # one default budget that every model shares.
        default = build_config({}).protocol.optimizer
        assert default == TrainingProtocol().optimizer == OptimizerConfig(max_iters=150)
        cfg = build_config({"optimizer.grad_tol": "1e-3"})
        assert cfg.protocol.optimizer == OptimizerConfig(max_iters=150, grad_tol=1e-3)
        assert cfg.protocol.cv_optimizer_for() == OptimizerConfig(max_iters=66, grad_tol=1e-3)


class TestCliMain:
    def _flags(self, tmp_path):
        return [
            "--generator.n", "300", "--generator.d", "2",
            "--cv.grid_sel", "0,0.1", "--cv.grid_tgt", "0,0.1",
            "--cv.folds", "2", "--cv.max_iters", "33",
            "--fit.n_starts", "1",
            "--models", "spm,naive,real",
            "--out", str(tmp_path / "cli_out"),
            "--seed", "3",
        ]

    def test_generate_then_fit_roundtrip(self, tmp_path, capsys):
        csv_path = tmp_path / "gen.csv"
        assert main(["generate", str(csv_path), *self._flags(tmp_path)]) == 0
        assert csv_path.exists() and csv_path.with_suffix(".json").exists()
        assert main(["fit", str(csv_path), "--model", "naive", *self._flags(tmp_path)]) == 0
        out_file = tmp_path / "cli_out" / "fit_naive.json"
        assert out_file.exists()
        assert json.loads(out_file.read_text())["model"] == "naive"

    def test_bench_synth_end_to_end(self, tmp_path, capsys):
        code = main(["bench-synth", "--trials", "2", "--jobs", "1", *self._flags(tmp_path)])
        assert code == 0
        assert (tmp_path / "cli_out" / "aggregate.json").exists()
        printed = capsys.readouterr().out
        assert "f1" in printed and "spm" in printed

    def test_bench_real_end_to_end(self, tmp_path, capsys):
        csv_path = tmp_path / "real.csv"
        main(["generate", str(csv_path), *self._flags(tmp_path)])
        code = main(["bench-real", str(csv_path), "--resamples", "2", *self._flags(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "cli_out" / "aggregate.json").read_text())
        assert payload["mode"] == "bench-real"

    def test_bench_real_counts_non_converged_fits(self, tmp_path, capsys):
        csv_path = tmp_path / "real.csv"
        main(["generate", str(csv_path), *self._flags(tmp_path)])
        capsys.readouterr()
        code = main([
            "bench-real", str(csv_path), "--resamples", "2", *self._flags(tmp_path),
            "--models", "spm,naive", "--optimizer.max_iters", "1",
        ])
        assert code == 0
        payload = json.loads((tmp_path / "cli_out" / "aggregate.json").read_text())
        # One final fit per model and resample, each stopped by its cap.
        assert payload["non_converged_fits"] == 2 * 2
        assert "4 final fits did not converge" in capsys.readouterr().err

    def test_unit_whose_cv_fails_is_recorded_as_failed(self, tmp_path):
        # Trial 257's training half has 4 annotated rows of 150, so every
        # naive CV cell meets a fold with none of them.
        flags = self._flags(tmp_path)
        cfg = build_config({k[2:]: v for k, v in zip(flags[::2], flags[1::2])})
        reports = runner._run_synth_trial(cfg, 257)
        assert [r.model for r in reports] == [ModelKind.SPM, ModelKind.NAIVE, ModelKind.REAL_ORACLE]
        naive = reports[1]
        assert (naive.f1, naive.accuracy, naive.auc, naive.brier, naive.c_sel, naive.c_tgt) == (None,) * 6
        assert reports[0].f1 is not None and reports[2].f1 is not None

    def test_bench_synth_survives_a_failed_fit(self, tmp_path, capsys, monkeypatch):
        fit_naive, failed = estimators.fit_naive, []

        def first_final_fit_fails(data, *args):
            # Final fits see all 150 training rows, fold fits 75.
            if data.n == 150 and not failed:
                failed.append(data.n)
                raise NonFiniteError("loss is nan", np.zeros(data.dim + 1))
            return fit_naive(data, *args)

        monkeypatch.setattr(estimators, "fit_naive", first_final_fit_fails)
        code = main(["bench-synth", "--trials", "2", "--jobs", "1", *self._flags(tmp_path)])
        assert code == 0
        out = tmp_path / "cli_out"
        rows = [line.split(",") for line in (out / "trials.csv").read_text().splitlines()[2:]]
        assert [row for row in rows if "" in row] == [["naive", "0"] + [""] * 6]
        counts = json.loads((out / "aggregate.json").read_text())["results"]["f1"]
        assert {kind: cell["count"] for kind, cell in counts.items()} == {"spm": 2, "naive": 1, "real": 2}
        assert "model naive failed to fit at trial_id 0" in capsys.readouterr().err

    def test_model_failing_in_every_unit_writes_strict_json(self, tmp_path, capsys, monkeypatch):
        def fails(data, *args):
            raise NonFiniteError("loss is nan", np.zeros(data.dim + 1))

        def no_constants(name):
            raise AssertionError(f"aggregate.json holds {name}, which is not JSON")

        # A one-cell grid runs no fold fits, so the final fit is naive's only one.
        monkeypatch.setattr(estimators, "fit_naive", fails)
        code = main([
            "bench-synth", "--trials", "1", "--models", "naive,real", "--generator.n", "300",
            "--generator.d", "2", "--cv.grid_sel", "0", "--cv.grid_tgt", "0",
            "--out", str(tmp_path / "cli_out"),
        ])
        assert code == 0
        text = (tmp_path / "cli_out" / "aggregate.json").read_text()
        results = json.loads(text, parse_constant=no_constants)["results"]
        assert {m: results[m]["naive"] for m in METRIC_NAMES} == {
            m: {"mean": None, "stderr": 0.0, "count": 0} for m in METRIC_NAMES
        }
        table = capsys.readouterr().out.splitlines()
        assert [row.split()[1] for row in table[1:5]] == ["nan"] * 4

    def test_validation_error_exit_code(self, tmp_path, capsys):
        code = main(["bench-synth", "--trials", "0", *self._flags(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["bench-real", "{missing}"],
            ["fit", "{missing}", "--model", "spm"],
            ["bench-synth", "--config", "{missing}"],
        ],
    )
    def test_missing_input_file_is_an_error_line(self, tmp_path, capsys, args):
        missing = str(tmp_path / "nonexist")
        code = main([a.format(missing=missing) for a in args] + self._flags(tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and missing in err and "Traceback" not in err
        assert not (tmp_path / "cli_out").exists()

    def test_fit_json_independent_of_jobs_and_out(self, tmp_path, capsys):
        csv_path = tmp_path / "gen.csv"
        assert main(["generate", str(csv_path), *self._flags(tmp_path)]) == 0
        written = []
        for jobs, out in (("1", tmp_path / "a"), ("2", tmp_path / "b")):
            flags = [*self._flags(tmp_path), "--jobs", jobs, "--out", str(out)]
            assert main(["fit", str(csv_path), "--model", "naive", *flags]) == 0
            written.append((out / "fit_naive.json").read_bytes())
        assert written[0] == written[1]

    def test_fit_checks_its_output_before_training(self, tmp_path, capsys, monkeypatch):
        csv_path = tmp_path / "gen.csv"
        assert main(["generate", str(csv_path), *self._flags(tmp_path)]) == 0
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")

        def no_fit(*args, **kwargs):
            raise AssertionError("a model was trained before the output was checked")

        monkeypatch.setattr(runner, "train_model", no_fit)
        flags = [*self._flags(tmp_path), "--out", str(blocked / "sub")]
        assert main(["fit", str(csv_path), "--model", "spm", *flags]) == 2
        assert "error:" in capsys.readouterr().err

    # Not a sidecar, not JSON, and the sidecar of a 3-feature dataset beside a 2-feature CSV.
    @pytest.mark.parametrize(
        "content",
        ['{"source": "lab notebook"}', "not json", '{"true_params": {"target": {"w": [1.0, -1.0, 0.5]}}}'],
    )
    def test_fit_rejects_a_json_beside_the_csv_before_training(
        self, tmp_path, capsys, monkeypatch, content
    ):
        csv_path = tmp_path / "d.csv"
        assert main(["generate", str(csv_path), *self._flags(tmp_path)]) == 0
        (tmp_path / "d.json").write_text(content)

        def no_fit(*args, **kwargs):
            raise AssertionError("a model was trained before the sidecar was checked")

        monkeypatch.setattr(runner, "train_model", no_fit)
        capsys.readouterr()
        assert main(["fit", str(csv_path), "--model", "naive", *self._flags(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "d.json" in err and "Traceback" not in err
        assert "true_params" not in content or "3 weights, the dataset 2 features" in err
        assert not (tmp_path / "cli_out").exists()

    def test_generate_rejects_a_json_dataset_path(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main(["generate", str(out), *self._flags(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--fit.n_starts", "0"], "n_starts"),
            (["--generator.rho1", "nan"], "rho1 must be finite and >= 0, got nan"),
            (["--generator.guess", "0.6", "--generator.lapse", "0.6"], "guess=0.6, lapse=0.6"),
            (["--models", "naive,naive"], "naive,naive"),
            (["--models", "naive,real,naive"], "naive,real,naive"),
            (["--quantile-rule", "2"], "2.0"),
            (["--cv.grid_sel", "0.1,0.1,0.0"], "grid_sel repeats the penalty value(s) [0.1]"),
            (["--optimizer.grad_tol", "nan"], "grad_tol must be finite and positive, got nan"),
            (["--optimizer.grad_tol", "inf"], "grad_tol must be finite and positive, got inf"),
            (["--cv.grid_sel", "nan"], "grid_sel (nan,)"),
            (["--cv.grid_tgt", "nan,nan"], "grid_tgt (nan, nan)"),
            (["--cv.grid_tgt", "0,inf"], "grid_tgt (0.0, inf)"),
            (["--cv.max_iters", "0"], "cv_max_iters must be >= 1, got 0"),
            (["--generator.rho2", "inf"], "rho2 must be finite and >= 0, got inf"),
            (["--generator.k", "nan"], "k must be finite and >= 0, got nan"),
            (["--generator.lapse", "nan"], "guess and lapse rates must be finite"),
            (["--seed", "-1"], "seed must be >= 0, got -1"),
        ],
    )
    def test_invalid_value_rejected_before_any_fit(self, tmp_path, capsys, monkeypatch, flags, named):
        def no_fit(*args, **kwargs):
            raise AssertionError("a model was trained before the input was checked")

        monkeypatch.setattr(runner, "train_model", no_fit)
        code = main(["bench-synth", "--trials", "1", *self._flags(tmp_path), *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and named in err
        assert not (tmp_path / "cli_out").exists()

    @pytest.mark.parametrize("line", ["reg.norm_sel=l1", "optimizer.history_size=5"])
    def test_removed_key_in_config_file_rejected(self, tmp_path, capsys, line):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(line + "\n")
        code = main(["bench-synth", "--trials", "1", "--config", str(cfg_file), *self._flags(tmp_path)])
        assert code == 2
        assert f"unknown key {line.split('=')[0]!r}" in capsys.readouterr().err

    def test_config_file_flag(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("generator.n=200\ngenerator.d=2\ntrials=1\n"
                            "cv.grid_sel=0\ncv.grid_tgt=0\ncv.folds=2\ncv.max_iters=26\n"
                            "fit.n_starts=1\nmodels=naive,real\n")
        out = tmp_path / "cfg_out"
        code = main(["bench-synth", "--config", str(cfg_file), "--out", str(out), "--seed", "2"])
        assert code == 0
        payload = json.loads((out / "aggregate.json").read_text())
        assert payload["config"]["generator"]["n"] == 200
        assert payload["config"]["trials"] == 1

    def test_quantile_rule_flag_reaches_significance(self, tmp_path):
        flags = self._flags(tmp_path)
        code = main(["bench-synth", "--trials", "3", "--quantile-rule", "0.45", *flags])
        assert code == 0
        payload = json.loads((tmp_path / "cli_out" / "aggregate.json").read_text())
        assert payload["config"]["quantile_rule"] == 0.45

    def test_all_config_keys_have_flags(self):
        # every dotted key must be addressable from the command line
        from puselect.cli import _build_parser

        parser = _build_parser()
        subparsers = next(
            a for a in parser._actions if isinstance(a, type(parser._subparsers._group_actions[0]))
        )
        bench = subparsers.choices["bench-synth"]
        options = {s for action in bench._actions for s in action.option_strings}
        for key in CONFIG_KEYS:
            assert f"--{key}" in options, key
        assert "--quantile-rule" in options
