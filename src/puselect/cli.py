"""Command-line experiment runner.

Verbs: ``generate`` (write a synthetic dataset CSV + ground-truth sidecar),
``bench-synth`` (the repeated-trial synthetic benchmark), ``bench-real``
(bootstrap evaluation of a feature CSV with ground truth), and ``fit``
(train one model on one dataset).

Configuration is a flat ``key=value`` file with dotted section prefixes
(``generator.n=5000``); every key is also exposed as a CLI flag of the
same dotted name (``--generator.n 5000``); ``--quantile-rule`` is the one
alias, of ``--quantile_rule``.
Precedence: defaults < config file < flags.
"""

from __future__ import annotations

import argparse
import sys

from .models import ModelKind
from .runner import (
    ExperimentConfig,
    fit_single,
    generate_dataset,
    run_real_benchmark,
    run_synth_benchmark,
)
from .synth import XDist

__all__ = ["main", "build_config", "parse_config_file", "CONFIG_KEYS"]


def _parse_floats(v: str) -> tuple[float, ...]:
    return tuple(float(p) for p in v.split(",") if p.strip() != "")


def _parse_models(v: str) -> tuple[ModelKind, ...]:
    return tuple(ModelKind(p.strip()) for p in v.split(",") if p.strip() != "")


# key -> (parser, path of the ExperimentConfig field it sets[, another]).
# A key's default is its field's default, and ``seed`` also seeds the
# generator.  This table is the one place where a key meets its field.
CONFIG_KEYS: dict = {
    "seed": (int, "seed", "generator.seed"),
    "trials": (int, "trials"),
    "jobs": (int, "jobs"),
    "out": (str, "output_dir"),
    "models": (_parse_models, "models"),
    "quantile_rule": (float, "quantile_rule"),
    "resamples": (int, "resamples"),
    "generator.n": (int, "generator.n"),
    "generator.d": (int, "generator.d"),
    "generator.rho1": (float, "generator.rho1"),
    "generator.rho2": (float, "generator.rho2"),
    "generator.k": (float, "generator.k"),
    "generator.guess": (float, "generator.guess"),
    "generator.lapse": (float, "generator.lapse"),
    "generator.x_dist": (XDist, "generator.x_dist"),
    "cv.folds": (int, "protocol.cv.folds"),
    "cv.grid_sel": (_parse_floats, "protocol.cv.grid_sel"),
    "cv.grid_tgt": (_parse_floats, "protocol.cv.grid_tgt"),
    "cv.max_iters": (int, "protocol.cv_max_iters"),
    "optimizer.max_iters": (int, "protocol.optimizer.max_iters"),
    "optimizer.grad_tol": (float, "protocol.optimizer.grad_tol"),
    "fit.n_starts": (int, "protocol.n_starts"),
}


def parse_config_file(path) -> dict:
    """Flat key=value lines; '#' starts a comment; unknown and repeated keys are errors."""
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
            if key in raw:
                raise ValueError(f"{path}: line {lineno}: repeated key {key!r}")
            raw[key] = value
    return raw


def _replaced(obj, changes: dict):
    """``obj`` with the fields of ``changes`` set.  Each nested config is
    rebuilt in one call, so that its checks see all of its new values together."""
    from dataclasses import replace

    nested = {n: _replaced(getattr(obj, n), v) for n, v in changes.items() if isinstance(v, dict)}
    return replace(obj, **{**changes, **nested})


def build_config(raw: dict) -> ExperimentConfig:
    """Assemble the experiment configuration from a raw key=value mapping: each
    given key sets the fields its CONFIG_KEYS paths name on ``ExperimentConfig()``,
    and a key that is not in CONFIG_KEYS is an error."""
    changes: dict = {}
    for key, text in raw.items():
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        parser, *paths = CONFIG_KEYS[key]
        try:
            value = parser(text)
        except ValueError as exc:
            raise ValueError(f"config key {key}: {exc}") from None
        for path in paths:
            *outer, name = path.split(".")
            node = changes
            for part in outer:
                node = node.setdefault(part, {})
            node[name] = value
    return _replaced(ExperimentConfig(), changes)


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="key=value configuration file")
    for key in CONFIG_KEYS:
        flags = [f"--{key}", "--quantile-rule"] if key == "quantile_rule" else [f"--{key}"]
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _print_table(table, cfg: ExperimentConfig) -> None:
    if table.non_converged_fits:
        print(
            f"warning: {table.non_converged_fits} final fits did not converge "
            "(they hit optimizer.max_iters or their line search stalled)",
            file=sys.stderr,
        )
    for r in table.reports:
        if r.f1 is None:
            print(f"warning: model {r.model.value} failed to fit at trial_id {r.trial_id}; "
                  "its row has empty scores", file=sys.stderr)
    header = ["metric"] + [k.value for k in cfg.models]
    rows = [header]
    for metric, by_model in table.cells.items():
        means = [by_model[k].mean for k in cfg.models]
        rows.append([metric] + ["nan" if m is None else f"{m:.4f}" for m in means])
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    print(f"results written to {cfg.output_dir}/")


if __name__ == "__main__":
    sys.exit(main())
