"""Model fitting: the two annotation-aware models, three baselines, and CV.

Every fit is deterministic given (data, penalties, protocol, seed, init),
and every fit runs through `_fit`, which starts it by `_best_of_starts`
and reads the model off the optimum by `unpack`.  The non-convex fits draw
their weight initializations from per-start Philox streams; the convex
logistic baselines run one start, from zero, so their seed argument is
inert.  An ``init`` vector, the ``theta`` of an earlier fit of the same
model, replaces the first start when its loss is no higher;
cross-validation uses it to walk each fold along a warm-started
regularization path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, _derive_seed, _rng, split
from .metrics import brier
from .models import LinearParams, ModelKind, SpmParams, affine_sigmoid, psychometric
from .objective import RegConfig, label_column, make_loss_functions, unconstrain_rates, unpack
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
_PSYCHM_INIT = (0.7, 0.02)  # the (guess, lapse) rates every seeded PsychM start is at
_ELKAN_HOLDOUT = 0.2  # share of rows Elkan's baseline holds out to estimate c
_TWO_FACTOR = (ModelKind.SPM, ModelKind.PSYCHM)


class DegenerateDataError(ValueError):
    """The data cannot support the fit, e.g. it holds a single class."""


@dataclass(frozen=True)
class CvConfig:
    """Grid of (selection, target) penalty coefficients scored by Brier against the fitted label."""

    folds: int = 3
    grid_sel: tuple[float, ...] = (0.0, 0.01, 0.1, 1.0, 10.0)
    grid_tgt: tuple[float, ...] = (0.0, 0.01, 0.1, 1.0, 10.0)

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if not self.grid_sel or not self.grid_tgt:
            raise ValueError("penalty grids must be nonempty")
        for name, grid in (("grid_sel", self.grid_sel), ("grid_tgt", self.grid_tgt)):
            if not all(0.0 <= c < np.inf for c in grid):
                raise ValueError(f"{name} {grid}: penalty coefficients must be finite and >= 0")
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
        """Estimated p(l=1|x); equals the raw model output for the baselines.
        SPM is the psychometric selection at rates (0, 0), where it is the
        sigmoid bit for bit."""
        h = affine_sigmoid(x, self.target.w, self.target.b)
        if self.selection is None:
            return h
        sel = self.selection
        return psychometric(x, sel.w, sel.b, self.guess or 0.0, self.lapse or 0.0) * h


@dataclass(frozen=True)
class TrainingProtocol:
    """Every training setting besides the data, the model kind and the penalties.

    Every ``fit_*``, `select_hyperparams` and `train_model` takes one; its
    field defaults are the only defaults of these settings.  PsychM's start
    rates and Elkan's holdout share are constants of this module.
    """

    cv: CvConfig = field(default_factory=CvConfig)
    optimizer: OptimizerConfig = OptimizerConfig()
    cv_max_iters: int = 66  # iteration cap of CV fold fits
    n_starts: int = 3  # starts of a final SPM or PsychM fit

    def __post_init__(self):
        if self.cv_max_iters < 1:
            raise ValueError(f"cv_max_iters must be >= 1, got {self.cv_max_iters}")
        if self.n_starts < 1:
            raise ValueError(f"n_starts must be >= 1, got {self.n_starts}")

    def cv_optimizer_for(self) -> OptimizerConfig:
        """Optimizer for fold fits: the final fit's, capped at ``cv_max_iters``
        iterations; a cap at or above the final fit's budget leaves it as it is."""
        return replace(self.optimizer, max_iters=min(self.cv_max_iters, self.optimizer.max_iters))


def _best_of_starts(data, kind, reg, protocol, seed, init) -> OptimResult:
    """The lowest-loss fit over the model's starts; ``init``, when given,
    replaces the first start unless its loss is higher there.

    The one-factor baselines run one start, from ``init`` or zero: their
    loss is convex, so the zero start is as good as any and keeps them
    seed-independent.  SPM and PsychM run ``protocol.n_starts`` starts; a
    seeded one has Gaussian weights and zero biases, and PsychM's rate
    surrogates at `_PSYCHM_INIT` after the selection bias.

    The loss comparison guards the warm path: an optimum carried from a
    smaller penalty can sit where the larger one costs far more than a cold
    start (PsychM's selection weights diverge at a zero selection penalty),
    and the first step from there can land on a plateau of clamped rows.
    """
    value, value_and_grad = make_loss_functions(data, kind, reg)
    two_factor = kind in _TWO_FACTOR
    surrogates = unconstrain_rates(*_PSYCHM_INIT) if kind == ModelKind.PSYCHM else ()
    best = None
    for start in range(protocol.n_starts if two_factor else 1):
        if not two_factor:
            theta0 = np.zeros(data.dim + 1)
        else:
            rng = _rng(seed, start)
            # Selection weights are drawn before target weights; the order
            # fixes each start's stream.
            sel_w = rng.normal(0.0, _INIT_SCALE, size=data.dim)
            tgt_w = rng.normal(0.0, _INIT_SCALE, size=data.dim)
            theta0 = np.concatenate([sel_w, [0.0, *surrogates], tgt_w, [0.0]])
        if start == 0 and init is not None and value(init) <= value(theta0):
            theta0 = init
        result = minimize(value, value_and_grad, theta0, protocol.optimizer)
        if best is None or result.loss < best.loss:
            best = result
    return best


def _assign_target_factor(params: SpmParams) -> SpmParams:
    """Resolve the factor-swap ambiguity of the sigmoid product.

    The annotation propensity is assumed smoother than the class posterior,
    so the factor whose full (weights, bias) sub-vector has the larger
    Euclidean norm (the steeper sigmoid) is the classifier.  On an exact
    tie the first factor of the free-parameter layout is the classifier.
    """
    if params.selection.norm() >= params.target.norm():
        return params.swapped()
    return params


def _fit(data, kind, reg, protocol, seed, init, notes=()) -> FittedModel:
    """The model at the lowest-loss optimum of `_best_of_starts`, read off
    by `unpack`; SPM's factors are then assigned by `_assign_target_factor`.
    A one-class label column fails a one-factor fit with `DegenerateDataError`;
    a non-converged optimizer is reported in the diagnostics, not raised."""
    labels = getattr(data, label_column(kind))
    if kind not in _TWO_FACTOR and labels is not None and np.all(labels == labels[0]):
        raise DegenerateDataError(f"the {label_column(kind)} column holds one class; nothing to fit")
    best = _best_of_starts(data, kind, reg, protocol, seed, init)
    params = unpack(kind, best.params, data.dim)
    if kind == ModelKind.SPM:
        params = _assign_target_factor(params)
    parts = vars(params) if kind in _TWO_FACTOR else {"target": params}
    diagnostics = FitDiagnostics(best.loss, best.grad_norm, best.iterations, best.converged, notes)
    return FittedModel(kind=kind, diagnostics=diagnostics, reg=reg, theta=best.params, **parts)


# ---------------------------------------------------------------------------
# Logistic regression (naive / oracle / Elkan's annotation model): the
# one-factor layout, a regression of l (y for the oracle) on x, penalized
# by ``reg.c_tgt``


def fit_naive(
    data: Dataset, reg: RegConfig, protocol: TrainingProtocol, seed: int = 0, init=None
) -> FittedModel:
    """Logistic regression of the annotation flag on x, unlabeled treated as negative.

    The fit is convex, so the seed has no effect; it is accepted for
    interface uniformity with the other fitting procedures.
    """
    return _fit(data, ModelKind.NAIVE, reg, protocol, seed, init)


def fit_real_oracle(
    data: Dataset, reg: RegConfig, protocol: TrainingProtocol, seed: int = 0, init=None
) -> FittedModel:
    """Logistic regression on the ground-truth classes; an upper-bound reference."""
    return _fit(data, ModelKind.REAL_ORACLE, reg, protocol, seed, init)


def fit_elkan(
    data: Dataset, reg: RegConfig, protocol: TrainingProtocol, seed: int = 0, init=None
) -> FittedModel:
    """Constant-propensity baseline: learn h(x) = p(l=1|x), then estimate the
    labeling constant as the mean of h over the annotated holdout rows."""
    train, holdout = split(data, 1.0 - _ELKAN_HOLDOUT, seed=_derive_seed(seed, 100))
    labeled = holdout.l == 1
    if not np.any(labeled):
        raise DegenerateDataError("holdout contains no labeled positives; cannot estimate c")
    model = _fit(train, ModelKind.ELKAN, reg, protocol, seed, init)
    h = model.target
    return replace(model, c_hat=float(np.mean(affine_sigmoid(holdout.x[labeled], h.w, h.b))))


# ---------------------------------------------------------------------------
# Annotation-process models


def fit_spm(
    data: Dataset, reg: RegConfig, protocol: TrainingProtocol, seed: int = 0, init=None
) -> FittedModel:
    """Maximum-likelihood fit of the sigmoid-product model; the steeper
    factor is the classifier (`_assign_target_factor`)."""
    return _fit(data, ModelKind.SPM, reg, protocol, seed, init)


def fit_psychm(
    data: Dataset, reg: RegConfig, protocol: TrainingProtocol, seed: int = 0, init=None
) -> FittedModel:
    """Maximum-likelihood fit of the psychometric model via the unconstrained
    rate surrogates, with seeded starts at the rates `_PSYCHM_INIT`; the
    target factor is the classifier directly."""
    one_dim = ("selection rates are not identifiable with 1-dimensional features",)
    return _fit(data, ModelKind.PSYCHM, reg, protocol, seed, init, one_dim if data.dim == 1 else ())


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


def _cv_path(cv: CvConfig, kind: ModelKind) -> list[tuple[tuple[int, ...], float, float]]:
    """The live grid cells as ``(key, c_sel, c_tgt)``, ``key`` being the
    cell's grid indices, in regularization-path order.  SPM starts at the
    most regularized cell: the selection penalty runs from largest to
    smallest, and within each selection value the target penalty from
    largest to smallest and back on the next row, so that consecutive cells
    differ in one coefficient by one grid step.  PsychM walks the same snake
    from the least regularized cell, both axes from smallest to largest.
    Models without a selection factor walk the target axis only, largest to
    smallest, at the largest selection penalty.

    PsychM starts unregularized because at a large selection penalty s(x)
    is near constant and guess and span trade off almost freely: a path
    started there carries a high-guess optimum on to the cells that can
    identify the rates."""
    upward = kind == ModelKind.PSYCHM

    def order(grid):
        return sorted(range(len(grid)), key=grid.__getitem__, reverse=not upward)

    tgt = order(cv.grid_tgt)
    if kind not in _TWO_FACTOR:
        return [((t,), max(cv.grid_sel), cv.grid_tgt[t]) for t in tgt]
    return [
        ((s, t), cv.grid_sel[s], cv.grid_tgt[t])
        for row, s in enumerate(order(cv.grid_sel))
        for t in (tgt if row % 2 == 0 else tgt[::-1])
    ]


def select_hyperparams(
    data: Dataset, kind: ModelKind, protocol: TrainingProtocol, seed: int = 0
) -> RegConfig:
    """Pick penalty coefficients by k-fold CV Brier score against the label ``kind`` fits.

    The grid and fold count are ``protocol.cv``.  Fold fits run one start
    each at ``protocol.cv_optimizer_for()``; restarts are reserved for the
    final fit.  Each fold walks the cells in `_cv_path` order: its first fit
    starts from the cell's seeded draw (zero for the baselines), and every
    later fit from the fold's last successful optimum, unless that draw has
    the lower loss (see `_best_of_starts`).  Ties go to the more
    regularized pair: larger coefficient sum, then larger target penalty,
    then larger selection penalty.  Models without a selection factor are
    fitted once per target penalty, at the largest selection penalty, the
    cell that tie-break picks.  A cell whose fold fit hits degenerate data
    or a non-finite loss is failed and never selected; if every cell fails,
    a `DegenerateDataError` names the model.  A one-cell path is returned
    without fold fits, so it cannot fail.
    """
    cv = protocol.cv
    if data.n < cv.folds:
        raise ValueError(f"need at least {cv.folds} rows for {cv.folds}-fold CV")
    path = _cv_path(cv, kind)
    if len(path) == 1:
        return RegConfig(*path[0][1:])
    fold_protocol = replace(protocol, optimizer=protocol.cv_optimizer_for(), n_starts=1)
    label = label_column(kind)
    perm = _rng(seed, 0).permutation(data.n)
    folds = np.array_split(perm, cv.folds)
    # (train, validation) per fold, built once for the whole grid.
    fold_data = [
        (data.subset(np.concatenate(folds[:f] + folds[f + 1 :])), data.subset(val_idx))
        for f, val_idx in enumerate(folds)
    ]

    warm = [None] * cv.folds  # per fold: the free parameters of its last successful fit
    best = None
    for key, c_sel, c_tgt in path:
        reg = RegConfig(c_sel=c_sel, c_tgt=c_tgt)
        scores = []
        try:
            for f, (train, val) in enumerate(fold_data):
                model = _fit_kind(
                    train, kind, reg, fold_protocol, _derive_seed(seed, 1, *key, f), warm[f]
                )
                warm[f] = model.theta
                scores.append(brier(model.annotation_probability(val.x), getattr(val, label)))
        except (DegenerateDataError, NonFiniteError):
            continue
        rank = (float(np.mean(scores)), -(c_sel + c_tgt), -c_tgt, -c_sel)
        if best is None or rank < best[0]:
            best = (rank, reg)
    if best is None:
        raise DegenerateDataError(f"every cross-validation cell failed for model {kind.value}")
    return best[1]


def train_model(
    data: Dataset, kind: ModelKind, protocol: TrainingProtocol, seed: int = 0
) -> FittedModel:
    """Cross-validated penalty selection followed by the final fit."""
    reg = select_hyperparams(data, kind, protocol, seed=_derive_seed(seed, 0))
    return _fit_kind(data, kind, reg, protocol, _derive_seed(seed, 1))
