"""Model fitting: the two annotation-aware models, three baselines, and CV.

Every fit is deterministic given (data, config, seed).  The non-convex
fits draw their weight initializations from per-start Philox streams; the
convex logistic baselines start at zero, so their seed argument is inert.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product

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

# The one iteration budget of final fits, for every model.  It is calibrated
# to the benchmark scale, where the loss plateaus long before the
# optimizer's generic 2000-iteration cap.
_OPTIMIZER = OptimizerConfig(max_iters=150)


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
    score is min(1, h / c_hat).
    """

    kind: ModelKind
    target: LinearParams
    diagnostics: FitDiagnostics
    selection: LinearParams | None = None
    guess: float | None = None
    lapse: float | None = None
    c_hat: float | None = None

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
    """Everything `train_model` needs besides the data and the model kind."""

    cv: CvConfig = field(default_factory=CvConfig)
    optimizer: OptimizerConfig = _OPTIMIZER
    cv_max_iters: int | None = 66  # shortened budget for CV fits; None: the full budget
    elkan_holdout: float = 0.2
    psychm_init: tuple[float, float] = (0.7, 0.02)
    n_starts: int = 3
    norm_sel: PenaltyNorm = PenaltyNorm.L2SQ
    norm_tgt: PenaltyNorm = PenaltyNorm.L2SQ

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


def _fit_logistic(data, kind, reg, opt: OptimizerConfig) -> tuple[LinearParams, OptimResult]:
    """The one-factor layout of the likelihood engine: a logistic regression
    of l (y for the oracle) on x, penalized by ``reg.c_tgt``."""
    # The problem is convex, so the zero start is as good as any and keeps
    # the baselines seed-independent.
    theta0 = np.zeros(data.dim + 1)
    result = minimize(*make_loss_functions(data, kind, reg), theta0, opt)
    return LinearParams(w=result.params[:-1], b=result.params[-1]), result


def fit_naive(
    data: Dataset, reg: RegConfig, opt: OptimizerConfig = _OPTIMIZER, seed: int = 0
) -> FittedModel:
    """Logistic regression of the annotation flag on x, unlabeled treated as negative.

    The fit is convex, so the seed has no effect; it is accepted for
    interface uniformity with the other fitting procedures.
    """
    if np.all(data.l == data.l[0]):
        raise DegenerateDataError("annotation flags are all equal; nothing to fit")
    params, result = _fit_logistic(data, ModelKind.NAIVE, reg, opt)
    return FittedModel(kind=ModelKind.NAIVE, target=params, diagnostics=_diag(result))


def fit_real_oracle(
    data: Dataset, reg: RegConfig, opt: OptimizerConfig = _OPTIMIZER, seed: int = 0
) -> FittedModel:
    """Logistic regression on the ground-truth classes; an upper-bound reference."""
    if data.y is None:
        raise ValueError("oracle fit needs ground-truth classes y")
    if np.all(data.y == data.y[0]):
        raise DegenerateDataError("classes are all equal; nothing to fit")
    params, result = _fit_logistic(data, ModelKind.REAL_ORACLE, reg, opt)
    return FittedModel(kind=ModelKind.REAL_ORACLE, target=params, diagnostics=_diag(result))


def fit_elkan(
    data: Dataset,
    reg: RegConfig,
    opt: OptimizerConfig = _OPTIMIZER,
    holdout_frac: float = 0.2,
    seed: int = 0,
) -> FittedModel:
    """Constant-propensity baseline: learn h(x) = p(l=1|x), then estimate the
    labeling constant as the mean of h over annotated holdout examples."""
    if not 0.0 < holdout_frac < 1.0:
        raise ValueError("holdout_frac must be in (0, 1)")
    train, holdout = split(data, 1.0 - holdout_frac, seed=_derive_seed(seed, 100))
    if np.all(train.l == train.l[0]):
        raise DegenerateDataError("training part has all-equal annotation flags")
    labeled = holdout.l == 1
    if not np.any(labeled):
        raise DegenerateDataError("holdout contains no labeled positives; cannot estimate c")
    params, result = _fit_logistic(train, ModelKind.ELKAN, reg, opt)
    c_hat = float(np.mean(affine_sigmoid(holdout.x[labeled], params.w, params.b)))
    return FittedModel(
        kind=ModelKind.ELKAN, target=params, c_hat=c_hat, diagnostics=_diag(result)
    )


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


def _best_of_starts(data, kind, reg, opt, seed, n_starts, rate_surrogates=()) -> OptimResult:
    """Best of ``n_starts`` fits from Gaussian weights and zero biases, with
    the rate surrogates, when the model has them, after the selection bias."""
    value, value_and_grad = make_loss_functions(data, kind, reg)
    best = None
    for start in range(n_starts):
        rng = _rng(seed, start)
        # Selection weights are drawn before target weights; the order fixes
        # each start's stream.
        sel_w = rng.normal(0.0, _INIT_SCALE, size=data.dim)
        tgt_w = rng.normal(0.0, _INIT_SCALE, size=data.dim)
        theta0 = np.concatenate([sel_w, [0.0, *rate_surrogates], tgt_w, [0.0]])
        result = minimize(value, value_and_grad, theta0, opt)
        if best is None or result.loss < best.loss:
            best = result
    return best


def fit_spm(
    data: Dataset,
    reg: RegConfig,
    opt: OptimizerConfig = _OPTIMIZER,
    seed: int = 0,
    n_starts: int = 1,
) -> FittedModel:
    """Maximum-likelihood fit of the sigmoid-product model.

    A non-converged optimizer is reported in the diagnostics, not raised.
    """
    best = _best_of_starts(data, ModelKind.SPM, reg, opt, seed, n_starts)
    ordered = _assign_target_factor(unpack_spm(best.params, data.dim))
    return FittedModel(
        kind=ModelKind.SPM,
        target=ordered.target,
        selection=ordered.selection,
        diagnostics=_diag(best),
    )


def fit_psychm(
    data: Dataset,
    reg: RegConfig,
    opt: OptimizerConfig = _OPTIMIZER,
    init_guess: float = 0.7,
    init_lapse: float = 0.02,
    seed: int = 0,
    n_starts: int = 1,
) -> FittedModel:
    """Maximum-likelihood fit of the psychometric model via the unconstrained
    rate surrogates; the target factor is the classifier directly."""
    if not (0.0 < init_guess < 1.0 and 0.0 <= init_lapse < 1.0 and init_guess + init_lapse < 1.0):
        raise ValueError("need init_guess in (0,1), init_lapse in [0,1), sum < 1")
    d = data.dim
    surrogates = unconstrain_rates(init_guess, init_lapse)
    best = _best_of_starts(data, ModelKind.PSYCHM, reg, opt, seed, n_starts, surrogates)
    params = unpack_psychm(best.params, d)
    notes = ("selection rates are not identifiable with 1-dimensional features",) if d == 1 else ()
    return FittedModel(
        kind=ModelKind.PSYCHM,
        target=params.target,
        selection=params.selection,
        guess=params.guess,
        lapse=params.lapse,
        diagnostics=_diag(best, notes),
    )


# ---------------------------------------------------------------------------
# Hyperparameter selection and the one-call training entry point


def _fit_kind(data, kind, reg, opt, seed, protocol: TrainingProtocol) -> FittedModel:
    if kind == ModelKind.NAIVE:
        return fit_naive(data, reg, opt, seed=seed)
    if kind == ModelKind.REAL_ORACLE:
        return fit_real_oracle(data, reg, opt, seed=seed)
    if kind == ModelKind.ELKAN:
        return fit_elkan(data, reg, opt, holdout_frac=protocol.elkan_holdout, seed=seed)
    if kind == ModelKind.SPM:
        return fit_spm(data, reg, opt, seed=seed, n_starts=protocol.n_starts)
    if kind == ModelKind.PSYCHM:
        init_guess, init_lapse = protocol.psychm_init
        return fit_psychm(
            data, reg, opt,
            init_guess=init_guess, init_lapse=init_lapse,
            seed=seed, n_starts=protocol.n_starts,
        )
    raise ValueError(f"unknown model kind {kind}")


def select_hyperparams(
    data: Dataset,
    kind: ModelKind,
    cv: CvConfig,
    opt: OptimizerConfig = _OPTIMIZER,
    seed: int = 0,
    protocol: TrainingProtocol | None = None,
) -> RegConfig:
    """Pick penalty coefficients by k-fold CV Brier score of p(l|x) against l.

    Ties go to the more regularized pair: larger coefficient sum, then
    larger target penalty, then larger selection penalty.  Models without a
    selection factor are fitted once per distinct target penalty.  A cell
    whose fold fit hits degenerate data or a non-finite loss is failed and
    never selected; if every cell fails, a ValueError names the model.
    """
    protocol = protocol or TrainingProtocol(cv=cv)
    # Fold fits only rank penalty pairs; restarts are reserved for the final fit.
    protocol = replace(protocol, n_starts=1)
    if data.n < cv.folds:
        raise ValueError(f"need at least {cv.folds} rows for {cv.folds}-fold CV")
    perm = _rng(seed, 0).permutation(data.n)
    folds = np.array_split(perm, cv.folds)
    # (train, validation) per fold, built once for the whole grid.
    fold_data = [
        (data.subset(np.concatenate(folds[:f] + folds[f + 1 :])), data.subset(val_idx))
        for f, val_idx in enumerate(folds)
    ]

    has_selection = kind in (ModelKind.SPM, ModelKind.PSYCHM)
    cache: dict[tuple, float | None] = {}

    def mean_brier(sel_idx: int, tgt_idx: int, c_sel: float, c_tgt: float) -> float | None:
        key = (sel_idx, tgt_idx) if has_selection else (tgt_idx,)
        if key in cache:
            return cache[key]
        reg = RegConfig(
            c_sel=c_sel, c_tgt=c_tgt, norm_sel=protocol.norm_sel, norm_tgt=protocol.norm_tgt
        )
        scores = []
        for f, (train, val) in enumerate(fold_data):
            fit_seed = _derive_seed(seed, 1, *key, f)
            try:
                model = _fit_kind(train, kind, reg, opt, fit_seed, protocol)
            except (DegenerateDataError, NonFiniteError):
                cache[key] = None
                return None
            scores.append(brier(model.annotation_probability(val.x), val.l))
        cache[key] = float(np.mean(scores))
        return cache[key]

    best = None
    for (sel_idx, c_sel), (tgt_idx, c_tgt) in product(
        enumerate(cv.grid_sel), enumerate(cv.grid_tgt)
    ):
        score = mean_brier(sel_idx, tgt_idx, c_sel, c_tgt)
        if score is None:
            continue
        rank = (score, -(c_sel + c_tgt), -c_tgt, -c_sel)
        if best is None or rank < best[0]:
            best = (rank, c_sel, c_tgt)
    if best is None:
        raise ValueError(f"every cross-validation cell failed for model {kind.value}")
    _, c_sel, c_tgt = best
    return RegConfig(
        c_sel=c_sel, c_tgt=c_tgt, norm_sel=protocol.norm_sel, norm_tgt=protocol.norm_tgt
    )


def train_model(
    data: Dataset, kind: ModelKind, protocol: TrainingProtocol, seed: int = 0
) -> FittedModel:
    """Cross-validated penalty selection followed by the final fit."""
    reg = select_hyperparams(
        data, kind, protocol.cv, opt=protocol.cv_optimizer_for(), seed=_derive_seed(seed, 0),
        protocol=protocol,
    )
    return _fit_kind(data, kind, reg, protocol.optimizer, _derive_seed(seed, 1), protocol)
