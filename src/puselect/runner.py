"""Experiment orchestration: trial and resample loops, aggregation, and result files.

A synthetic trial and a bootstrap resample are independent units of work.
Each unit's seeds are derived from the master seed and its index, and
units run inline or across worker processes through one helper that
returns results in index order, so results are identical whatever the
degree of parallelism.  Output files embed the resolved configuration for
provenance, and identical configurations reproduce them byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial
from pathlib import Path

import numpy as np

from .data import Dataset, _derive_seed, _rng, read_csv, split, write_csv
from .estimators import DegenerateDataError, TrainingProtocol, train_model
from .metrics import (
    LOWER_IS_BETTER,
    METRIC_NAMES,
    MetricReport,
    PairTest,
    brier,
    score_report,
    significance_matrix,
)
from .models import ModelKind
from .objective import label_column
from .optimize import NonFiniteError
from .synth import GeneratorConfig, generate

__all__ = [
    "ExperimentConfig",
    "CellStats",
    "ResultTable",
    "run_synth_benchmark",
    "run_real_benchmark",
    "bootstrap_evaluate",
    "generate_dataset",
    "fit_single",
]

@dataclass(frozen=True)
class ExperimentConfig:
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    protocol: TrainingProtocol = field(default_factory=TrainingProtocol)
    models: tuple[ModelKind, ...] = tuple(ModelKind)
    trials: int = 500
    resamples: int = 200
    quantile_rule: float = 0.05
    seed: int = 0
    jobs: int = 1
    output_dir: str = "results"

    def __post_init__(self):
        if self.trials < 1 or self.resamples < 1 or self.jobs < 1:
            raise ValueError("trials, resamples, and jobs must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.models:
            raise ValueError("at least one model kind is required")
        if len(set(self.models)) != len(self.models):
            raise ValueError(f"models must not repeat, got {','.join(k.value for k in self.models)}")
        if not 0.0 <= self.quantile_rule <= 1.0:
            raise ValueError(f"quantile_rule must be in [0, 1], got {self.quantile_rule}")


@dataclass(frozen=True)
class CellStats:
    mean: float | None  # None when no unit has the metric defined (count 0)
    stderr: float
    count: int


@dataclass(frozen=True)
class ResultTable:
    """Aggregate of per-trial reports: one stats cell per (metric, model)."""

    cells: dict[str, dict[ModelKind, CellStats]]
    significance: dict[str, dict[tuple[ModelKind, ModelKind], PairTest] | None]
    reports: list[MetricReport]
    non_converged_fits: int = 0

    def mean(self, metric: str, model: ModelKind) -> float | None:
        return self.cells[metric][model].mean

def _json_default(obj):
    """What ``json`` cannot write itself as plain JSON data: a dataclass as
    its fields, an enum by value, and a numpy array or scalar by ``tolist``
    as a list or a Python number.  Any other object raises."""
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, Enum):
        return obj.value
    return obj.tolist()


def _write_json(path: Path, payload: dict) -> dict:
    """Write ``payload`` in the one format of every JSON result file; return the data written."""
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    path.write_text(text + "\n")
    return json.loads(text)


def _check_writable(output_dir: str | Path) -> Path:
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    probe = out / ".write-probe"
    try:
        probe.write_text("")
    except OSError as exc:
        raise ValueError(f"output directory {out} is not writable: {exc}") from None
    probe.unlink()
    return out


def _aggregate(
    reports: list[MetricReport],
    models: tuple[ModelKind, ...],
    quantile_rule: float,
) -> ResultTable:
    """Cell stats and significance per metric.  Every unit reports each of
    ``models``, failed fits included, so a model's scores form one column in
    unit order, None read as nan.  Significance uses the units where every
    model has the metric defined, with lower-is-better metrics negated."""
    cells: dict[str, dict[ModelKind, CellStats]] = {}
    significance: dict[str, dict[tuple[ModelKind, ModelKind], PairTest] | None] = {}
    for metric in METRIC_NAMES:
        columns = np.array(
            [[getattr(r, metric) for r in reports if r.model == kind] for kind in models], dtype=float
        )
        cells[metric] = {}
        for kind, column in zip(models, columns):
            defined = column[~np.isnan(column)]
            mean = float(np.mean(defined)) if defined.size else None
            stderr = float(np.std(defined, ddof=1) / np.sqrt(defined.size)) if defined.size > 1 else 0.0
            cells[metric][kind] = CellStats(mean=mean, stderr=stderr, count=int(defined.size))

        complete = ~np.isnan(columns).any(axis=0)
        if len(models) > 1 and int(complete.sum()) >= 2:
            sign = -1.0 if metric in LOWER_IS_BETTER else 1.0
            matrix_input = dict(zip(models, sign * columns[:, complete]))
            significance[metric] = significance_matrix(matrix_input, quantile_rule)
        else:
            significance[metric] = None

    non_converged = sum(not r.converged for r in reports)
    return ResultTable(
        cells=cells, significance=significance, reports=reports, non_converged_fits=non_converged
    )


def _report_rows(reports: list[MetricReport], provenance: str) -> str:
    columns = METRIC_NAMES + ("c_sel", "c_tgt")
    lines = [f"# {provenance}", ",".join(("model", "trial_id") + columns)]
    for r in reports:
        fields = ["" if getattr(r, name) is None else repr(getattr(r, name)) for name in columns]
        lines.append(",".join([r.model.value, str(r.trial_id)] + fields))
    return "\n".join(lines) + "\n"


def _config_json(cfg: ExperimentConfig) -> dict:
    """The configuration every result file embeds.  It covers everything
    that determines the numbers; jobs and the output location are execution
    details with no influence on results, and leaving them out keeps reruns
    byte-identical whatever the parallelism or destination."""
    return {name: value for name, value in vars(cfg).items() if name not in ("jobs", "output_dir")}


def _write_outputs(out: Path, mode: str, cfg: ExperimentConfig, table: ResultTable, csv_name: str):
    significance = {
        metric: None if s is None else {f"{a.value}_vs_{b.value}": t for (a, b), t in s.items()}
        for metric, s in table.significance.items()
    }
    payload = {
        "mode": mode,
        "seed": cfg.seed,
        "config": _config_json(cfg),
        "results": table.cells,
        "significance": significance,
        "non_converged_fits": table.non_converged_fits,
    }
    written = _write_json(out / "aggregate.json", payload)
    provenance = json.dumps({key: written[key] for key in ("mode", "seed", "config")}, sort_keys=True)
    (out / csv_name).write_text(_report_rows(table.reports, provenance))


def _map_units(task, units: int, jobs: int) -> list:
    """The lists ``task(u)`` returns for ``u`` in ``range(units)``, joined in
    unit order; run on ``min(jobs, units)`` worker processes, inline when
    that is one.

    Workers are spawned, not forked, so they start from a fresh import and
    inherit no threads or locks of the caller; ``task`` must pickle.  The
    pool modules are imported here, so an inline call never loads them.
    """
    workers = min(jobs, units)
    if workers == 1:
        return [item for u in range(units) for item in task(u)]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        return [item for outcome in pool.map(task, range(units)) for item in outcome]


def _train_and_score(
    sample: Dataset, kinds, protocol: TrainingProtocol, seed: int, unit: int
) -> list[MetricReport]:
    """Split one trial's or resample's rows into equal train/test halves, then
    train each model of ``kinds`` and score it on the test half, one report
    each.  A model whose data cannot support a fit, or whose loss turns
    non-finite, is reported as failed, with no scores; the others still run."""
    train, test = split(sample, 0.5, seed=_derive_seed(seed, unit, 1))
    reports = []
    for k_idx, kind in enumerate(kinds):
        try:
            model = train_model(train, kind, protocol, seed=_derive_seed(seed, unit, 2, k_idx))
        except (DegenerateDataError, NonFiniteError):
            reports.append(MetricReport(kind, unit, None, None, None, None))
            continue
        report = score_report(kind, unit, model.score(test.x), test.y)
        reports.append(
            replace(
                report,
                converged=model.diagnostics.converged,
                c_sel=model.reg.c_sel,
                c_tgt=model.reg.c_tgt,
            )
        )
    return reports


def _run_synth_trial(cfg: ExperimentConfig, trial_id: int) -> list[MetricReport]:
    data = generate(replace(cfg.generator, seed=_derive_seed(cfg.seed, trial_id, 0)))
    return _train_and_score(data, cfg.models, cfg.protocol, cfg.seed, trial_id)


def run_synth_benchmark(cfg: ExperimentConfig) -> ResultTable:
    """Fresh generator parameters and data every trial; equal train/test split;
    CV-selected penalties per model; scores on the ground-truth test pairs."""
    out = _check_writable(cfg.output_dir)
    reports = _map_units(partial(_run_synth_trial, cfg), cfg.trials, cfg.jobs)
    table = _aggregate(reports, cfg.models, cfg.quantile_rule)
    _write_outputs(out, "bench-synth", cfg, table, "trials.csv")
    return table


def _run_resample(
    data: Dataset, kinds: tuple[ModelKind, ...], protocol: TrainingProtocol, seed: int, r: int
) -> list[MetricReport]:
    sample = data.subset(_rng(seed, r, 0).integers(0, data.n, size=data.n))
    return _train_and_score(sample, kinds, protocol, seed, r)


def bootstrap_evaluate(
    data: Dataset, kinds, resamples: int, protocol, seed: int, jobs: int = 1
) -> list[MetricReport]:
    """Fit/score all models on bootstrap resamples of a ground-truthed dataset.

    Each resample draws n rows with replacement, splits them into equal
    train/test halves, trains every requested model on the training half
    (with the protocol's cross-validated penalty selection), and scores on
    the held-out half against y.  Per-resample seeds are derived from the
    master seed, so results do not depend on execution order or on
    ``jobs``, the number of worker processes the resamples run on.
    """
    if data.y is None:
        raise ValueError("bootstrap evaluation needs ground-truth classes y")
    if resamples < 1 or jobs < 1:
        raise ValueError("resamples and jobs must be >= 1")
    task = partial(_run_resample, data, tuple(kinds), protocol, seed)
    return _map_units(task, resamples, jobs)


def run_real_benchmark(cfg: ExperimentConfig, dataset_path) -> ResultTable:
    """Bootstrap evaluation of a ground-truthed feature CSV."""
    data = read_csv(dataset_path)
    if data.y is None:
        raise ValueError(f"{dataset_path}: real benchmark needs a y column")
    out = _check_writable(cfg.output_dir)
    reports = bootstrap_evaluate(data, cfg.models, cfg.resamples, cfg.protocol, cfg.seed, cfg.jobs)
    table = _aggregate(reports, cfg.models, cfg.quantile_rule)
    _write_outputs(out, "bench-real", cfg, table, "resamples.csv")
    return table


def generate_dataset(cfg: ExperimentConfig, out_path) -> Dataset:
    """Write a synthetic dataset CSV plus a sidecar JSON with the ground truth."""
    out_path = Path(out_path)
    if out_path.suffix == ".json":
        raise ValueError(f"{out_path}: the dataset CSV must not end in .json, its sidecar's suffix")
    data = generate(cfg.generator)
    write_csv(data, out_path)
    sidecar = {
        "config": cfg.generator,
        "seed": cfg.generator.seed,
        "true_params": data.true_params,
    }
    _write_json(out_path.with_suffix(".json"), sidecar)
    return data


def _true_target_weights(dataset_path: Path, dim: int) -> np.ndarray | None:
    """The true target weights in the generator sidecar next to a dataset CSV;
    None when there is no sidecar, and an error when the file is not one of ``dim`` features."""
    sidecar = dataset_path.with_suffix(".json")
    if not sidecar.exists():
        return None
    try:
        truth = json.loads(sidecar.read_text())
        true_w = np.asarray(truth["true_params"]["target"]["w"], dtype=float)
    except (ValueError, LookupError, TypeError) as exc:
        raise ValueError(f"{sidecar}: no true_params.target.w of a generator sidecar: {exc}") from None
    if true_w.shape != (dim,):
        raise ValueError(f"{sidecar}: true target has {true_w.size} weights, the dataset {dim} features")
    return true_w


def _cosine(u: np.ndarray, v: np.ndarray) -> float | None:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return None
    return float(u @ v / (nu * nv))


def fit_single(cfg: ExperimentConfig, dataset_path, kind: ModelKind, out_file) -> dict:
    """Train one model on a full dataset CSV and dump parameters + diagnostics.

    If the dataset has a generator sidecar JSON next to it, the report adds
    the cosine similarity between fitted and true target weights; a JSON
    there that is not a sidecar of its dimension is an error, raised before any fit,
    as is a dataset without the label column the model fits.
    """
    dataset_path, out_file = Path(dataset_path), Path(out_file)
    data = read_csv(dataset_path)
    label = getattr(data, label_column(kind))
    if label is None:
        raise ValueError(f"{dataset_path}: model {kind.value} needs a y column")
    true_w = _true_target_weights(dataset_path, data.dim)
    _check_writable(out_file.parent)
    model = train_model(data, kind, cfg.protocol, seed=cfg.seed)

    training = {"brier_annotation": brier(model.annotation_probability(data.x), label)}
    if data.y is not None:
        rep = score_report(kind, 0, model.score(data.x), data.y)
        training.update({name: getattr(rep, name) for name in METRIC_NAMES})

    # Weights and rates; the fields this kind of model does not have (None) are left out.
    params = {n: getattr(model, n) for n in ("target", "selection", "guess", "lapse", "c_hat")}
    payload = {
        "mode": "fit",
        "model": kind.value,
        "seed": cfg.seed,
        "config": _config_json(cfg),
        "params": {name: value for name, value in params.items() if value is not None},
        "penalties": model.reg,
        "diagnostics": model.diagnostics,
        "training_metrics": training,
    }

    if true_w is not None:
        payload["recovery"] = {"target_weight_cosine": _cosine(model.target.w, true_w)}

    return _write_json(out_file, payload)
