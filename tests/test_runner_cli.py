import json

import pytest

from puselect.cli import CONFIG_KEYS, build_config, main, parse_config_file
from puselect.data import read_csv
from puselect.estimators import CvConfig, TrainingProtocol
from puselect.models import ModelKind
from puselect import runner
from puselect.optimize import OptimizerConfig
from puselect.runner import (
    ExperimentConfig,
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

        monkeypatch.setattr(runner, "ProcessPoolExecutor", no_pool)
        run_synth_benchmark(light_config(tmp_path, trials=1, jobs=4))

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

    def test_no_sidecar_no_recovery(self, tmp_path):
        cfg = light_config(tmp_path)
        csv_path = tmp_path / "plain.csv"
        generate_dataset(cfg, csv_path)
        (tmp_path / "plain.json").unlink()
        payload = fit_single(cfg, csv_path, ModelKind.NAIVE, tmp_path / "fit.json")
        assert "recovery" not in payload


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
        assert cfg.protocol.psychm_init == (0.7, 0.02)
        assert cfg.protocol.cv.folds == 3
        assert cfg.protocol.cv.grid_sel == (0.0, 0.01, 0.1, 1.0, 10.0)
        assert cfg.generator.n == 5000 and cfg.generator.d == 5

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
        # One final fit per model and resample, none of them at the tolerance.
        assert payload["non_converged_fits"] == 2 * 2
        assert "4 fits did not reach the gradient tolerance" in capsys.readouterr().err

    def test_validation_error_exit_code(self, tmp_path, capsys):
        code = main(["bench-synth", "--trials", "0", *self._flags(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--fit.n_starts", "0"], "n_starts"),
            (["--elkan.holdout_frac", "1.5"], "1.5"),
            (["--psychm.init_guess", "0"], "(0.0, 0.02)"),
            (["--models", "naive,naive"], "naive,naive"),
            (["--models", "naive,real,naive"], "naive,real,naive"),
            (["--quantile-rule", "2"], "2.0"),
            (["--cv.grid_sel", "0.1,0.1,0.0"], "grid_sel repeats the penalty value(s) [0.1]"),
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
