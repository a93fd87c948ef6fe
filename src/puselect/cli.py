"""Command-line experiment runner.

Verbs: ``generate`` (write a synthetic dataset CSV + ground-truth sidecar),
``bench-synth`` (the repeated-trial synthetic benchmark), ``bench-real``
(bootstrap evaluation of a feature CSV with ground truth), and ``fit``
(train one model on one dataset).

Configuration is a flat ``key=value`` file with dotted section prefixes
(``generator.n=5000``); every key is also exposed as a CLI flag of the
same dotted name (``--generator.n 5000``), and the common ones have the
short flags ``--seed --trials --jobs --out --models --quantile-rule``.
Precedence: defaults < config file < flags.
"""

from __future__ import annotations

import argparse
import sys

from .estimators import CvConfig, TrainingProtocol
from .models import ModelKind
from .objective import PenaltyNorm
from .optimize import OptimizerConfig
from .runner import (
    ExperimentConfig,
    fit_single,
    generate_dataset,
    run_real_benchmark,
    run_synth_benchmark,
)
from .synth import GeneratorConfig, XDist

__all__ = ["main", "build_config", "parse_config_file", "CONFIG_KEYS"]


def _parse_bool(v: str) -> bool:
    if v.lower() in ("1", "true", "yes"):
        return True
    if v.lower() in ("0", "false", "no"):
        return False
    raise ValueError(f"expected a boolean, got {v!r}")


def _parse_floats(v: str) -> tuple[float, ...]:
    return tuple(float(p) for p in v.split(",") if p.strip() != "")


def _parse_models(v: str) -> tuple[ModelKind, ...]:
    kinds = tuple(ModelKind(p.strip()) for p in v.split(",") if p.strip() != "")
    if not kinds:
        raise ValueError("model list is empty")
    return kinds


_EXPERIMENT = ExperimentConfig()
_GENERATOR = GeneratorConfig()
_CV = CvConfig()
_PROTOCOL = TrainingProtocol()

# key -> (parser, default).  Defaults are read from the config dataclasses,
# so they live in one place; the resolved mapping is assembled back into
# the dataclasses by build_config.
CONFIG_KEYS: dict = {
    "seed": (int, _EXPERIMENT.seed),
    "trials": (int, _EXPERIMENT.trials),
    "jobs": (int, _EXPERIMENT.jobs),
    "out": (str, _EXPERIMENT.output_dir),
    "models": (_parse_models, _EXPERIMENT.models),
    "quantile_rule": (float, _EXPERIMENT.quantile_rule),
    "resamples": (int, _EXPERIMENT.resamples),
    "generator.n": (int, _GENERATOR.n),
    "generator.d": (int, _GENERATOR.d),
    "generator.rho1": (float, _GENERATOR.rho1),
    "generator.rho2": (float, _GENERATOR.rho2),
    "generator.k": (float, _GENERATOR.k),
    "generator.guess": (float, _GENERATOR.guess),
    "generator.lapse": (float, _GENERATOR.lapse),
    "generator.x_dist": (XDist, _GENERATOR.x_dist),
    "cv.folds": (int, _CV.folds),
    "cv.grid_sel": (_parse_floats, _CV.grid_sel),
    "cv.grid_tgt": (_parse_floats, _CV.grid_tgt),
    "cv.max_iters": (int, _PROTOCOL.cv_max_iters),  # 0: same budget as the final fit
    "optimizer.max_iters": (int, _PROTOCOL.optimizer.max_iters),
    "optimizer.grad_tol": (float, _PROTOCOL.optimizer.grad_tol),
    "optimizer.history_size": (int, _PROTOCOL.optimizer.history_size),
    "reg.norm_sel": (PenaltyNorm, _PROTOCOL.norm_sel),
    "reg.norm_tgt": (PenaltyNorm, _PROTOCOL.norm_tgt),
    "elkan.holdout_frac": (float, _PROTOCOL.elkan_holdout),
    "psychm.init_guess": (float, _PROTOCOL.psychm_init[0]),
    "psychm.init_lapse": (float, _PROTOCOL.psychm_init[1]),
    "fit.n_starts": (int, _PROTOCOL.n_starts),
}

_SHORT_FLAGS = {
    "seed": "--seed",
    "trials": "--trials",
    "jobs": "--jobs",
    "out": "--out",
    "models": "--models",
    "quantile_rule": "--quantile-rule",
}


def parse_config_file(path) -> dict:
    """Flat key=value lines; '#' starts a comment; unknown keys are errors."""
    raw = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}: line {lineno}: unknown key {key!r}")
            raw[key] = value
    return raw


def _resolve(raw: dict) -> dict:
    resolved = {}
    for key, (parser, default) in CONFIG_KEYS.items():
        value = raw.get(key, default)
        if isinstance(value, str):
            try:
                value = parser(value)
            except ValueError as exc:
                raise ValueError(f"config key {key}: {exc}") from None
        resolved[key] = value
    return resolved


def build_config(raw: dict) -> ExperimentConfig:
    """Assemble the experiment configuration from a raw key=value mapping."""
    r = _resolve(raw)
    generator = GeneratorConfig(
        n=r["generator.n"],
        d=r["generator.d"],
        rho1=r["generator.rho1"],
        rho2=r["generator.rho2"],
        k=r["generator.k"],
        guess=r["generator.guess"],
        lapse=r["generator.lapse"],
        x_dist=r["generator.x_dist"],
        seed=r["seed"],
    )
    protocol = TrainingProtocol(
        cv=CvConfig(folds=r["cv.folds"], grid_sel=r["cv.grid_sel"], grid_tgt=r["cv.grid_tgt"]),
        optimizer=OptimizerConfig(
            max_iters=r["optimizer.max_iters"],
            grad_tol=r["optimizer.grad_tol"],
            history_size=r["optimizer.history_size"],
        ),
        cv_max_iters=r["cv.max_iters"] or None,
        elkan_holdout=r["elkan.holdout_frac"],
        psychm_init=(r["psychm.init_guess"], r["psychm.init_lapse"]),
        n_starts=r["fit.n_starts"],
        norm_sel=r["reg.norm_sel"],
        norm_tgt=r["reg.norm_tgt"],
    )
    return ExperimentConfig(
        generator=generator,
        protocol=protocol,
        models=r["models"],
        trials=r["trials"],
        resamples=r["resamples"],
        quantile_rule=r["quantile_rule"],
        seed=r["seed"],
        jobs=r["jobs"],
        output_dir=r["out"],
    )


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="key=value configuration file")
    for key in CONFIG_KEYS:
        flags = [f"--{key}"]
        if key in _SHORT_FLAGS and _SHORT_FLAGS[key] != f"--{key}":
            flags.append(_SHORT_FLAGS[key])
        sub.add_argument(*flags, dest=key, metavar="V", default=None, help=argparse.SUPPRESS)


def _gather(args: argparse.Namespace) -> dict:
    raw = {}
    if args.config:
        raw.update(parse_config_file(args.config))
    for key in CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            raw[key] = value
    return raw


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="puselect",
        description="Positive-unlabeled learning with annotation-process models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic dataset CSV + sidecar JSON")
    p_gen.add_argument("output_csv")
    _add_common_flags(p_gen)

    p_synth = sub.add_parser("bench-synth", help="repeated-trial synthetic benchmark")
    _add_common_flags(p_synth)

    p_real = sub.add_parser("bench-real", help="bootstrap benchmark on a dataset CSV with y")
    p_real.add_argument("dataset_csv")
    _add_common_flags(p_real)

    p_fit = sub.add_parser("fit", help="train one model on a dataset CSV")
    p_fit.add_argument("dataset_csv")
    p_fit.add_argument("--model", required=True, help="naive|elkan|spm|psychm|real")
    _add_common_flags(p_fit)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = build_config(_gather(args))
        if args.command == "generate":
            generate_dataset(cfg, args.output_csv)
            print(f"wrote {args.output_csv} and its .json sidecar")
        elif args.command == "bench-synth":
            table = run_synth_benchmark(cfg)
            _print_table(table, cfg)
        elif args.command == "bench-real":
            table = run_real_benchmark(cfg, args.dataset_csv)
            _print_table(table, cfg)
        elif args.command == "fit":
            kind = ModelKind(args.model)
            out_file = f"{cfg.output_dir}/fit_{kind.value}.json"
            fit_single(cfg, args.dataset_csv, kind, out_file)
            print(f"wrote {out_file}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _print_table(table, cfg: ExperimentConfig) -> None:
    if table.non_converged_fits:
        print(
            f"warning: {table.non_converged_fits} fits did not reach the gradient tolerance",
            file=sys.stderr,
        )
    header = ["metric"] + [k.value for k in cfg.models]
    rows = [header]
    for metric, by_model in table.cells.items():
        rows.append([metric] + [f"{by_model[k].mean:.4f}" for k in cfg.models])
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    print(f"results written to {cfg.output_dir}/")


if __name__ == "__main__":
    sys.exit(main())
