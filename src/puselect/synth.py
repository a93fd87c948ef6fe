"""Synthetic (X, y, l) generator with a psychometric annotation mechanism.

Ground-truth parameters are drawn as a spread-out Gaussian whose center is
shifted by a scaled Rademacher vector, classes follow the target sigmoid,
and only positive examples get an annotation flag, with probability given
by the psychometric selection curve.

Reproducibility: the master seed feeds four independent, fixed-purpose
Philox streams (parameters, features, classes, annotation flags), derived
with spawn keys 0..3.  Supplying explicit parameters therefore leaves the
feature/class/flag draws untouched, and adding columns to one stream can
never perturb another.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import Dataset, _rng
from .models import LinearParams, PsychmParams, _check_rates, affine_sigmoid, psychometric

__all__ = ["XDist", "GeneratorConfig", "sample_params", "generate"]

_PARAMS_STREAM = 0
_X_STREAM = 1
_Y_STREAM = 2
_L_STREAM = 3


class XDist(Enum):
    STANDARD_NORMAL = "normal"
    UNIFORM_CUBE = "uniform"


@dataclass(frozen=True)
class GeneratorConfig:
    n: int = 5000
    d: int = 5
    rho1: float = 10.0  # weight-vector Gaussian std
    rho2: float = 1.0  # bias Gaussian std
    k: float = 5.0  # Rademacher shift scale
    guess: float = 0.05
    lapse: float = 0.05
    x_dist: XDist = XDist.STANDARD_NORMAL
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be positive")
        for name in ("rho1", "rho2", "k"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        _check_rates(self.guess, self.lapse)


def _shifted_gaussian(rng: np.random.Generator, d: int, rho: float, k: float) -> np.ndarray:
    gauss = rng.normal(0.0, rho, size=d)
    rademacher = rng.integers(0, 2, size=d) * 2 - 1
    return gauss + k * rademacher


def sample_params(cfg: GeneratorConfig) -> PsychmParams:
    """Draw ground-truth parameters: selection weights/bias first, then target."""
    rng = _rng(cfg.seed, _PARAMS_STREAM)
    sel_w = _shifted_gaussian(rng, cfg.d, cfg.rho1, cfg.k)
    tgt_w = _shifted_gaussian(rng, cfg.d, cfg.rho1, cfg.k)
    sel_b = rng.normal(0.0, cfg.rho2)
    tgt_b = rng.normal(0.0, cfg.rho2)
    return PsychmParams(
        selection=LinearParams(w=sel_w, b=sel_b),
        guess=cfg.guess,
        lapse=cfg.lapse,
        target=LinearParams(w=tgt_w, b=tgt_b),
    )


def generate(cfg: GeneratorConfig, params: PsychmParams | None = None) -> Dataset:
    """Sample a dataset; annotation flags exist only on positive examples.

    ``params`` overrides the parameter draw (the ground truth of a specific
    model to recover); X, y, and l streams are unaffected by the override.
    """
    if params is None:
        params = sample_params(cfg)
    elif params.dim != cfg.d:
        raise ValueError(f"params dim {params.dim} != config d {cfg.d}")

    x_rng = _rng(cfg.seed, _X_STREAM)
    if cfg.x_dist == XDist.STANDARD_NORMAL:
        x = x_rng.normal(0.0, 1.0, size=(cfg.n, cfg.d))
    else:
        x = x_rng.uniform(-1.0, 1.0, size=(cfg.n, cfg.d))

    t = affine_sigmoid(x, params.target.w, params.target.b)
    y = (_rng(cfg.seed, _Y_STREAM).random(cfg.n) < t).astype(np.int64)

    sel = params.selection
    s = psychometric(x, sel.w, sel.b, params.guess, params.lapse)
    annotate = _rng(cfg.seed, _L_STREAM).random(cfg.n) < s
    l = (annotate & (y == 1)).astype(np.int64)

    return Dataset(x=x, l=l, y=y, true_params=params)
