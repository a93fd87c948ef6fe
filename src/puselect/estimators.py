"""Model fitting: the two annotation-aware models, three baselines, and CV.

Every fit is deterministic given (data, penalties, protocol, seed, init).
The non-convex fits draw their weight initializations from per-start Philox
streams; the convex logistic baselines start at zero, so their seed
argument is inert.  An ``init`` vector, the ``theta`` of an earlier fit of
the same model, replaces the first start; cross-validation uses it to walk
each fold along a warm-started regularization path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, _derive_seed, _rng, split
from .metrics import brier
from .models import LinearParams, ModelKind, SpmParams, affine_sigmoid, psychometric
from .objective import (
    PenaltyNorm,
    RegConfig,
    make_loss_functions,
    unconstrain_rates,
    unpack_psychm,
    unpack_spm,
)
from .optimize import NonFiniteError, OptimResult, OptimizerConfig, minimize

__all__ = [
    "CvConfig",
    "DegenerateDataError",
    "FitDiagnostics",
    "FittedModel",
    "TrainingProtocol",
    "fit_naive",
    "fit_real_oracle",
    "fit_elkan",
    "fit_spm",
    "fit_psychm",
    "select_hyperparams",
    "train_model",
]

_INIT_SCALE = 0.1  # std of the Gaussian weight initialization; biases start at 0


class DegenerateDataError(ValueError):
    """The data cannot support the fit, e.g. it holds a single class."""


@dataclass(frozen=True)
class CvConfig:
    """Grid of (selection, target) penalty coefficients scored by Brier on (x, l)."""

    folds: int = 3
    grid_sel: tuple[float, ...] = (0.0, 0.01, 0.1, 1.0, 10.0)
    grid_tgt: tuple[float, ...] = (0.0, 0.01, 0.1, 1.0, 10.0)

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if not self.grid_sel or not self.grid_tgt:
            raise ValueError("penalty grids must be nonempty")
        if min(self.grid_sel) < 0 or min(self.grid_tgt) < 0:
            raise ValueError("penalty coefficients must be nonnegative")
        for name, grid in (("grid_sel", self.grid_sel), ("grid_tgt", self.grid_tgt)):
            repeated = sorted({c for c in grid if grid.count(c) > 1})
            if repeated:
                raise ValueError(f"{name} repeats the penalty value(s) {repeated}")


@dataclass(frozen=True)
class FitDiagnostics:
    loss: float
    grad_norm: float
    iterations: int
    converged: bool
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class FittedModel:
    """A trained classifier; ``score`` estimates p(y=1|x).

    ``target`` always holds the sigmoid the classifier evaluates, except
    for the Elkan baseline where it holds the annotation model h and the
    score is min(1, h / c_hat).  ``reg`` holds the penalties of the fit,
    and ``theta`` the optimizer's final free-parameter vector, before SPM's
    factor assignment: a warm start for a fit of the same model.
    """

    kind: ModelKind
    target: LinearParams
    diagnostics: FitDiagnostics
    selection: LinearParams | None = None
    guess: float | None = None
    lapse: float | None = None
    c_hat: float | None = None
    reg: RegConfig | None = None
    theta: np.ndarray | None = None

    def score(self, x) -> np.ndarray:
        h = affine_sigmoid(x, self.target.w, self.target.b)
        if self.kind == ModelKind.ELKAN:
            return np.minimum(1.0, h / self.c_hat)
        return h

    def annotation_probability(self, x) -> np.ndarray:
        """Estimated p(l=1|x); equals the raw model output for the baselines."""
        h = affine_sigmoid(x, self.target.w, self.target.b)
        if self.kind == ModelKind.SPM:
            return affine_sigmoid(x, self.selection.w, self.selection.b) * h
        if self.kind == ModelKind.PSYCHM:
            return psychometric(x, self.selection.w, self.selection.b, self.guess, self.lapse) * h
        return h


@dataclass(frozen=True)
class TrainingProtocol:
    """Every training setting besides the data, the model kind and the penalties.

    Every ``fit_*``, `select_hyperparams` and `train_model` takes one; its
    field defaults are the only defaults of these settings.
    """

    cv: CvConfig = field(default_factory=CvConfig)
    # The final-fit budget of every model, calibrated to the benchmark scale,
    # where the loss plateaus long before the optimizer's 2000-iteration cap.
    optimizer: OptimizerConfig = OptimizerConfig(max_iters=150)
    cv_max_iters: int | None = 66  # shortened budget for CV fits; None: the full budget
    elkan_holdout: float = 0.2
    psychm_init: tuple[float, float] = (0.7, 0.02)
    n_starts: int = 3
    norm_sel: PenaltyNorm = PenaltyNorm.L2SQ
    norm_tgt: PenaltyNorm = PenaltyNorm.L2SQ

    def __post_init__(self):
        if self.cv_max_iters is not None and self.cv_max_iters < 1:
            raise ValueError(f"cv_max_iters must be None or >= 1, got {self.cv_max_iters}")
        if not 0.0 < self.elkan_holdout < 1.0:
            raise ValueError(f"elkan_holdout must be in (0, 1), got {self.elkan_holdout}")
        guess, lapse = self.psychm_init
        if not (0.0 < guess < 1.0 and 0.0 <= lapse < 1.0 and guess + lapse < 1.0):
            raise ValueError(f"psychm_init {self.psychm_init}: need guess in (0,1), lapse in [0,1), sum < 1")
        if self.n_starts < 1:
            raise ValueError(f"n_starts must be >= 1, got {self.n_starts}")

    def cv_optimizer_for(self) -> OptimizerConfig:
        """Optimizer for fold fits: the final fit's, capped at ``cv_max_iters``
        iterations when that is set."""
        if self.cv_max_iters is None:
            return self.optimizer
        return replace(self.optimizer, max_iters=min(self.cv_max_iters, self.optimizer.max_iters))


def _diag(result: OptimResult, notes: tuple[str, ...] = ()) -> FitDiagnostics:
    return FitDiagnostics(
        loss=result.loss,
        grad_norm=result.grad_norm,
        iterations=result.iterations,
        converged=result.converged,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Logistic regression (naive / oracle / Elkan's annotation model)


def _fit_logistic(data, kind, reg, opt: OptimizerConfig, init) -> FittedModel:
    """The one-factor layout of the likelihood engine: a logistic regression
    of l (y for the oracle) on x, penalized by ``reg.c_tgt``, from ``init``
    or zero."""
    # The problem is convex, so the zero start is as good as any and keeps
    # the baselines seed-independent.
    theta0 = np.zeros(data.dim + 1) if init is None else init
    result = minimize(*make_loss_functions(data, kind, reg), theta0, opt)
    target = LinearParams(w=result.params[:-1], b=result.params[-1])
    return FittedModel(
        kind=kind, target=target, diagnostics=_diag(result), reg=reg, theta=result.params
    )


def fit_naive(
    data: Dataset, reg: RegConfig, protocol: TrainingProtocol, seed: int = 0, init=None
) -> FittedModel:
    """Logistic regression of the annotation flag on x, unlabeled treated as negative.

    The fit is convex, so the seed has no effect; it is accepted for
    interface uniformity with the other fitting procedures.
    """
    if np.all(data.l == data.l[0]):
        raise DegenerateDataError("annotation flags are all equal; nothing to fit")
    return _fit_logistic(data, ModelKind.NAIVE, reg, protocol.optimizer, init)


def fit_real_oracle(
    data: Dataset, reg: RegConfig, protocol: TrainingProtocol, seed: int = 0, init=None
) -> FittedModel:
    """Logistic regression on the ground-truth classes; an upper-bound reference."""
    if data.y is None:
        raise ValueError("oracle fit needs ground-truth classes y")
    if np.all(data.y == data.y[0]):
        raise DegenerateDataError("classes are all equal; nothing to fit")
    return _fit_logistic(data, ModelKind.REAL_ORACLE, reg, protocol.optimizer, init)


def fit_elkan(
    data: Dataset, reg: RegConfig, protocol: TrainingProtocol, seed: int = 0, init=None
) -> FittedModel:
    """Constant-propensity baseline: learn h(x) = p(l=1|x), then estimate the
    labeling constant as the mean of h over the annotated holdout rows."""
    train, holdout = split(data, 1.0 - protocol.elkan_holdout, seed=_derive_seed(seed, 100))
    if np.all(train.l == train.l[0]):
        raise DegenerateDataError("training part has all-equal annotation flags")
    labeled = holdout.l == 1
    if not np.any(labeled):
        raise DegenerateDataError("holdout contains no labeled positives; cannot estimate c")
    model = _fit_logistic(train, ModelKind.ELKAN, reg, protocol.optimizer, init)
    h = model.target
    return replace(model, c_hat=float(np.mean(affine_sigmoid(holdout.x[labeled], h.w, h.b))))


# ---------------------------------------------------------------------------
# Annotation-process models


def _assign_target_factor(params: SpmParams) -> SpmParams:
    """Resolve the factor-swap ambiguity of the sigmoid product.

    The annotation propensity is assumed smoother than the class posterior,
    so the factor whose full (weights, bias) sub-vector has the larger
    Euclidean norm (the steeper sigmoid) is the classifier.  On an exact
    tie the first factor of the free-parameter layout is the classifier.
    """
    first, second = params.selection, params.target
    if first.norm() >= second.norm():
        return SpmParams(selection=second, target=first)
    return SpmParams(selection=first, target=second)


def _best_of_starts(data, kind, reg, protocol, seed, init, rate_surrogates=()) -> OptimResult:
    """Best of ``protocol.n_starts`` fits from Gaussian weights and zero biases,
    with the rate surrogates, when the model has them, after the selection
    bias; ``init``, when given, is the first start instead."""
    value, value_and_grad = make_loss_functions(data, kind, reg)
    best = None
    for start in range(protocol.n_starts):
        if start == 0 and init is not None:
            theta0 = init
        else:
            rng = _rng(seed, start)
            # Selection weights are drawn before target weights; the order
            # fixes each start's stream.
            sel_w = rng.normal(0.0, _INIT_SCALE, size=data.dim)
            tgt_w = rng.normal(0.0, _INIT_SCALE, size=data.dim)
            theta0 = np.concatenate([sel_w, [0.0, *rate_surrogates], tgt_w, [0.0]])
        result = minimize(value, value_and_grad, theta0, protocol.optimizer)
        if best is None or result.loss < best.loss:
            best = result
    return best


def fit_spm(
    data: Dataset, reg: RegConfig, protocol: TrainingProtocol, seed: int = 0, init=None
) -> FittedModel:
    """Maximum-likelihood fit of the sigmoid-product model.

    A non-converged optimizer is reported in the diagnostics, not raised.
    """
    best = _best_of_starts(data, ModelKind.SPM, reg, protocol, seed, init)
    ordered = _assign_target_factor(unpack_spm(best.params, data.dim))
    return FittedModel(
        kind=ModelKind.SPM,
        target=ordered.target,
        selection=ordered.selection,
        diagnostics=_diag(best),
        reg=reg,
        theta=best.params,
    )


def fit_psychm(
    data: Dataset, reg: RegConfig, protocol: TrainingProtocol, seed: int = 0, init=None
) -> FittedModel:
    """Maximum-likelihood fit of the psychometric model via the unconstrained
    rate surrogates, started at the protocol's ``psychm_init`` rates; the
    target factor is the classifier directly."""
    d = data.dim
    surrogates = unconstrain_rates(*protocol.psychm_init)
    best = _best_of_starts(data, ModelKind.PSYCHM, reg, protocol, seed, init, surrogates)
    params = unpack_psychm(best.params, d)
    notes = ("selection rates are not identifiable with 1-dimensional features",) if d == 1 else ()
    return FittedModel(
        kind=ModelKind.PSYCHM,
        target=params.target,
        selection=params.selection,
        guess=params.guess,
        lapse=params.lapse,
        diagnostics=_diag(best, notes),
        reg=reg,
        theta=best.params,
    )


# ---------------------------------------------------------------------------
# Hyperparameter selection and the one-call training entry point


# Looked up by name at call time, so that a fit replaced on this module
# (a test double, a tracing wrapper) is the one that runs.
_FIT_NAMES = {
    ModelKind.NAIVE: "fit_naive",
    ModelKind.REAL_ORACLE: "fit_real_oracle",
    ModelKind.ELKAN: "fit_elkan",
    ModelKind.SPM: "fit_spm",
    ModelKind.PSYCHM: "fit_psychm",
}


def _fit_kind(data, kind, reg, protocol: TrainingProtocol, seed, init=None) -> FittedModel:
    return globals()[_FIT_NAMES[kind]](data, reg, protocol, seed, init)


def _cv_path(cv: CvConfig, has_selection: bool) -> list[tuple[tuple[int, ...], float, float]]:
    """The live grid cells as ``(key, c_sel, c_tgt)``, ``key`` being the
    cell's grid indices, in regularization-path order: selection penalty from
    largest to smallest, and within each, the target penalty from largest to
    smallest and back on the next row, so that consecutive cells differ in
    one coefficient by one grid step.  Models without a selection factor
    walk the target axis only, at the largest selection penalty."""

    def descending(grid):
        return sorted(range(len(grid)), key=grid.__getitem__, reverse=True)

    tgt = descending(cv.grid_tgt)
    if not has_selection:
        return [((t,), max(cv.grid_sel), cv.grid_tgt[t]) for t in tgt]
    return [
        ((s, t), cv.grid_sel[s], cv.grid_tgt[t])
        for row, s in enumerate(descending(cv.grid_sel))
        for t in (tgt if row % 2 == 0 else tgt[::-1])
    ]


def select_hyperparams(
    data: Dataset, kind: ModelKind, protocol: TrainingProtocol, seed: int = 0
) -> RegConfig:
    """Pick penalty coefficients by k-fold CV Brier score of p(l|x) against l.

    The grid and fold count are ``protocol.cv``.  Fold fits run one start
    each at ``protocol.cv_optimizer_for()``; restarts are reserved for the
    final fit.  Each fold walks the cells in `_cv_path` order: its first fit
    starts from the cell's seeded draw (zero for the baselines), and every
    later fit from the fold's last successful optimum.  Ties go to the more
    regularized pair: larger coefficient sum, then larger target penalty,
    then larger selection penalty.  Models without a selection factor are
    fitted once per target penalty, at the largest selection penalty, the
    cell that tie-break picks.  A cell whose fold fit hits degenerate data
    or a non-finite loss is failed and never selected; if every cell fails,
    a ValueError names the model.
    """
    cv = protocol.cv
    if data.n < cv.folds:
        raise ValueError(f"need at least {cv.folds} rows for {cv.folds}-fold CV")
    fold_protocol = replace(protocol, optimizer=protocol.cv_optimizer_for(), n_starts=1)
    perm = _rng(seed, 0).permutation(data.n)
    folds = np.array_split(perm, cv.folds)
    # (train, validation) per fold, built once for the whole grid.
    fold_data = [
        (data.subset(np.concatenate(folds[:f] + folds[f + 1 :])), data.subset(val_idx))
        for f, val_idx in enumerate(folds)
    ]

    has_selection = kind in (ModelKind.SPM, ModelKind.PSYCHM)
    warm = [None] * cv.folds  # per fold: the free parameters of its last successful fit
    best = None
    for key, c_sel, c_tgt in _cv_path(cv, has_selection):
        reg = RegConfig(
            c_sel=c_sel, c_tgt=c_tgt, norm_sel=protocol.norm_sel, norm_tgt=protocol.norm_tgt
        )
        scores = []
        try:
            for f, (train, val) in enumerate(fold_data):
                model = _fit_kind(
                    train, kind, reg, fold_protocol, _derive_seed(seed, 1, *key, f), warm[f]
                )
                warm[f] = model.theta
                scores.append(brier(model.annotation_probability(val.x), val.l))
        except (DegenerateDataError, NonFiniteError):
            continue
        rank = (float(np.mean(scores)), -(c_sel + c_tgt), -c_tgt, -c_sel)
        if best is None or rank < best[0]:
            best = (rank, reg)
    if best is None:
        raise ValueError(f"every cross-validation cell failed for model {kind.value}")
    return best[1]


def train_model(
    data: Dataset, kind: ModelKind, protocol: TrainingProtocol, seed: int = 0
) -> FittedModel:
    """Cross-validated penalty selection followed by the final fit."""
    reg = select_hyperparams(data, kind, protocol, seed=_derive_seed(seed, 0))
    return _fit_kind(data, kind, reg, protocol, _derive_seed(seed, 1))
