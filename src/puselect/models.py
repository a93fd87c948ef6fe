"""Parametric posteriors for PU data with a feature-dependent annotation process.

The probability that an example is annotated factorizes as

    p(l=1 | x) = s(x) * t(x)

where t(x) = p(y=1 | x) is the classifier of interest (an affine sigmoid)
and s(x) = p(l=1 | y=1, x) is the expert's propensity to annotate a
positive example.  Two selection families are supported:

* psychometric: s is an affine sigmoid squeezed between a guessing floor
  and a lapse ceiling, the standard shape for human detection curves;
* sigmoid product: s is itself an affine sigmoid, giving a product of two
  sigmoids: the psychometric case guess = lapse = 0, one `PsychmParams`.

The public functions here are pure and never clamp probabilities; log-domain
clamping is the job of the likelihood code in :mod:`puselect.objective`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "ModelKind",
    "LinearParams",
    "PsychmParams",
    "sigmoid",
    "affine_sigmoid",
    "psychometric",
    "psychm_posterior",
]


class ModelKind(str, Enum):
    """The five classifiers the benchmark compares, in the order of its outputs."""

    SPM = "spm"
    PSYCHM = "psychm"
    NAIVE = "naive"
    ELKAN = "elkan"
    REAL_ORACLE = "real"


def _as_vector(w) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size < 1:
        raise ValueError("weight vector must be 1-D with at least one entry")
    if not np.all(np.isfinite(w)):
        raise ValueError("weight vector must be finite")
    return w


@dataclass(frozen=True)
class LinearParams:
    """Weights and bias of one affine-sigmoid factor, sigmoid(w.x + b)."""

    w: np.ndarray
    b: float

    def __post_init__(self):
        object.__setattr__(self, "w", _as_vector(self.w))
        object.__setattr__(self, "b", float(self.b))
        if not np.isfinite(self.b):
            raise ValueError("bias must be finite")

    @property
    def dim(self) -> int:
        return self.w.size

    def norm(self) -> float:
        """Euclidean norm of the full (weights, bias) sub-vector."""
        return float(np.sqrt(self.w @ self.w + self.b * self.b))


def _check_rates(guess: float, lapse: float) -> tuple[float, float]:
    guess, lapse = float(guess), float(lapse)
    if not (np.isfinite(guess) and np.isfinite(lapse)):
        raise ValueError("guess and lapse rates must be finite")
    if guess < 0.0 or lapse < 0.0 or lapse >= 1.0 or guess + lapse > 1.0:
        raise ValueError(
            f"need guess >= 0, lapse in [0, 1), guess + lapse <= 1; "
            f"got guess={guess}, lapse={lapse}"
        )
    return guess, lapse


@dataclass(frozen=True)
class PsychmParams:
    """Psychometric selection (linear part + guess/lapse rates) and sigmoid target.

    Rates (0, 0) give the sigmoid product.  Evaluation tolerates the corners
    guess=0 and guess+lapse=1, where the free-rate family stops being
    identifiable; the psychometric fit keeps away from them via the rate
    reparameterization and flags other non-identifiable setups (e.g.
    one-dimensional features) in its diagnostics.
    """

    selection: LinearParams
    guess: float
    lapse: float
    target: LinearParams

    def __post_init__(self):
        guess, lapse = _check_rates(self.guess, self.lapse)
        object.__setattr__(self, "guess", guess)
        object.__setattr__(self, "lapse", lapse)
        if self.selection.dim != self.target.dim:
            raise ValueError(
                f"selection dim {self.selection.dim} != target dim {self.target.dim}"
            )

    @property
    def dim(self) -> int:
        return self.target.dim


def _sigmoid_into(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write sigmoid(z) into ``out``, another array of z's shape, and return it.

    sigmoid(z) is upper = 1 / (1 + exp(-|z|)) for z >= 0 and 1 - upper
    below, so exp never overflows.  upper lies in [0.5, 1], where upper -
    0.5 and both results are exact, so 0.5 + copysign(upper - 0.5, z) picks
    the branch bit for bit without a data-dependent (mispredicted) select,
    and sigmoid(z) + sigmoid(-z) == 1.0 holds exactly.  The price: for z < 0
    the result is exact only to about 1e-16 absolute, not relative, so at
    z = -25, where it is about 1.4e-11, its log carries noise of about 1e-5.
    """
    np.abs(z, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.add(1.0, out, out=out)
    np.divide(1.0, out, out=out)
    np.subtract(out, 0.5, out=out)
    np.copysign(out, z, out=out)
    np.add(out, 0.5, out=out)
    return out


def sigmoid(z):
    """Logistic function 1 / (1 + exp(-z)) of any finite argument (see `_sigmoid_into`)."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("sigmoid requires finite input")
    out = _sigmoid_into(z, np.empty_like(z))
    return float(out) if out.ndim == 0 else out


def affine_sigmoid(x, w, b):
    """sigmoid(w.x + b), rows of a 2-D x treated as separate points."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    if x.shape[-1] != w.shape[-1]:
        raise ValueError(f"x has dim {x.shape[-1]} but w has dim {w.shape[-1]}")
    return sigmoid(x @ w + b)


def psychometric(x, w, b, guess, lapse):
    """Sigmoid squeezed into [guess, 1 - lapse]: guess + (1-guess-lapse)*sigmoid."""
    guess, lapse = _check_rates(guess, lapse)
    return guess + (1.0 - guess - lapse) * affine_sigmoid(x, w, b)


def psychm_posterior(x, params: PsychmParams):
    """Annotation probability of the psychometric model, and at rates (0, 0) of SPM."""
    sel, tgt = params.selection, params.target
    selection = psychometric(x, sel.w, sel.b, params.guess, params.lapse)
    return selection * affine_sigmoid(x, tgt.w, tgt.b)
