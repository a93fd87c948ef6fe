"""Observed-data log-likelihood, regularized loss, and analytic gradients.

Only the annotation flags l are observed, so the likelihood of one example
is q(x) = s(x) t(x) when l = 1 and 1 - q(x) when l = 0.  With per-row
constants (base, sign) = (0, 1) for an annotated row and (1, -1) otherwise,
both cases are base + sign * q, and the total over the dataset is

    LL = sum_i log(base_i + sign_i * s(x_i) t(x_i))

summed (not averaged) over examples, each row's log argument clamped as a
whole (see ``LOG_CLAMP``).  The training loss is -LL plus two
independent squared-L2 weight penalties, one per factor, so the selection
and target parts of the model can be regularized differently:

    loss = -LL + c_sel * |sel.w|^2 + c_tgt * |tgt.w|^2

Biases and the guess/lapse rates are never penalized.

Free parameter vectors are laid out as

    sigmoid product: [sel.w (d), sel.b, tgt.w (d), tgt.b]            (2d + 2)
    psychometric:    [sel.w (d), sel.b, guess', lapse', tgt.w (d), tgt.b]  (2d + 4)

where guess' and lapse' are unconstrained surrogates: the rates are the
softmax of the logits (0, guess', lapse'),

    guess = e^guess' / (1 + e^guess' + e^lapse')
    lapse = e^lapse' / (1 + e^guess' + e^lapse')

so the span 1 - guess - lapse is the share of the zero logit.  The map is
smooth and keeps guess, lapse > 0 and guess + lapse < 1, so the loss is
defined on all of R^(2d+4) and plain unconstrained minimizers apply.  Its
Jacobian is the softmax's,

    d guess / d guess' = guess (1 - guess)    d lapse / d guess' = -guess lapse

and symmetrically for lapse', so a derivative D_g by guess and D_l by
lapse chain to guess (D_g - m) and lapse (D_l - m), m = guess D_g +
lapse D_l.  Each surrogate is clipped to [-RATE_LOGIT_BOUND,
RATE_LOGIT_BOUND] first, where its derivative is 0: past about 36.7 a rate
rounds to 1 in float64, and the psychometric parameters reject that.
A rate of exactly 0 is out of reach; the fixed-rate layouts below serve it.

The sigmoid product is the psychometric model with guess = lapse = 0, so
one engine evaluates both: with the rates free (the psychometric layout)
or fixed at (0, 0) (the sigmoid-product layout).

The logistic baselines are the one-factor case, q(x) = t(x):

    one factor:      [w (d), b]                                      (d + 1)

with t's weights penalized by c_tgt and no selection or rate slots.  The
naive baseline and Elkan's annotation model fit the flags l; the oracle
fits the ground-truth classes y in their place.

`make_loss_functions` is the one way into the likelihood, for every kind,
and `unpack` the one reader of these layouts: every fit turns its
optimizer's vector into model parameters through it, whatever the kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .models import LinearParams, ModelKind, PsychmParams, _sigmoid_into

__all__ = [
    "LOG_CLAMP",
    "RATE_LOGIT_BOUND",
    "RegConfig",
    "constrain_rates",
    "unconstrain_rates",
    "unpack",
    "free_param_length",
    "label_column",
    "make_loss_functions",
]

# Each row's log argument, base + sign * q, is clamped to [LOG_CLAMP,
# 1 - LOG_CLAMP].  The psychometric lapse keeps q away from 1, but a
# saturated sigmoid product can hit 0 or 1 exactly in float64; clamping
# prevents -inf without touching well-conditioned fits (values already
# inside the interval pass through bit-identically, and the gradient of a
# clamped row is zero, matching what finite differences of the clamped
# value see).
LOG_CLAMP = 1e-12

# The rate surrogates act through their clip to [-RATE_LOGIT_BOUND,
# RATE_LOGIT_BOUND].  There a rate is at most about 1 - 9.4e-14 and the
# span 1 - guess - lapse at least 1 / (1 + 2 e^30), about 4.7e-14, so every
# mapped pair is a valid psychometric (guess, lapse) in float64.
RATE_LOGIT_BOUND = 30.0


@dataclass(frozen=True)
class RegConfig:
    """Per-factor weight penalties: c_sel on selection weights, c_tgt on target weights."""

    c_sel: float = 0.0
    c_tgt: float = 0.0

    def __post_init__(self):
        for c in (self.c_sel, self.c_tgt):
            if not 0.0 <= c < np.inf:
                raise ValueError(f"penalty coefficients must be finite and >= 0, got {c}")


def constrain_rates(guess_raw: float, lapse_raw: float) -> tuple[float, float]:
    """Map unconstrained surrogates to valid (guess, lapse) rates: the
    softmax of (0, guess', lapse'), each surrogate clipped to the bound."""
    a, b = float(guess_raw), float(lapse_raw)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("rate surrogates must be finite")
    ea = math.exp(min(max(a, -RATE_LOGIT_BOUND), RATE_LOGIT_BOUND))
    eb = math.exp(min(max(b, -RATE_LOGIT_BOUND), RATE_LOGIT_BOUND))
    denom = 1.0 + ea + eb
    return ea / denom, eb / denom


def unconstrain_rates(guess: float, lapse: float) -> tuple[float, float]:
    """Inverse of :func:`constrain_rates` for guess, lapse > 0 with sum < 1."""
    guess, lapse = float(guess), float(lapse)
    if guess <= 0 or lapse <= 0 or guess + lapse >= 1:
        raise ValueError("need guess, lapse > 0 with guess + lapse < 1")
    span = 1.0 - guess - lapse
    return math.log(guess / span), math.log(lapse / span)


# Per model kind: the number of sigmoid factors, whether the (guess, lapse)
# rates are free parameters (through their surrogates) or fixed at (0, 0),
# and the label column the likelihood fits.  The sigmoid product is the
# psychometric model with its rates fixed; one factor has no rate map at all.
_LAYOUTS = {
    ModelKind.PSYCHM: (2, True, "l"),
    ModelKind.SPM: (2, False, "l"),
    ModelKind.NAIVE: (1, False, "l"),
    ModelKind.ELKAN: (1, False, "l"),
    ModelKind.REAL_ORACLE: (1, False, "y"),
}


def free_param_length(kind: ModelKind, dim: int) -> int:
    factors, free_rates, _ = _LAYOUTS[kind]
    return factors * (dim + 1) + 2 * free_rates


def label_column(kind: ModelKind) -> str:
    """The column of a `Dataset` that ``kind``'s likelihood fits: l, or y for the oracle."""
    return _LAYOUTS[kind][2]


def unpack(kind: ModelKind, theta: np.ndarray, dim: int) -> LinearParams | PsychmParams:
    """The parameters a free-parameter vector of ``kind`` holds: the one
    reader of the layouts above.  One factor gives its ``LinearParams``,
    two a ``PsychmParams``, SPM's at the fixed rates (0, 0)."""
    theta = np.asarray(theta, dtype=float)
    n_free = free_param_length(kind, dim)
    if theta.shape != (n_free,):
        raise ValueError(f"expected {n_free} free parameters, got {theta.shape}")
    factors, free_rates, _ = _LAYOUTS[kind]
    target = LinearParams(w=theta[-dim - 1 : -1], b=theta[-1])
    if factors == 1:
        return target
    selection = LinearParams(w=theta[:dim], b=theta[dim])
    guess, lapse = constrain_rates(theta[dim + 1], theta[dim + 2]) if free_rates else (0.0, 0.0)
    return PsychmParams(selection=selection, guess=guess, lapse=lapse, target=target)


class _Engine:
    """Loss value and gradient for one (dataset, penalties, layout).

    The layout is one of ``_LAYOUTS``' (factors, free_rates, label)
    triples.  With two factors, ``free_rates`` is true when the guess/lapse
    surrogates are free parameters (the psychometric layout); otherwise the
    rates are fixed at (0, 0), the sigmoid product, with no surrogate slots.
    One factor is a logistic regression of the label column: its only
    penalty is the target's.

    Every call is one pass over all rows, factor-major.  A row's
    probability of a positive label is q = p_0 t, with p_0 the rate-mapped
    selection, s_0 itself at fixed rates (t alone with one factor), and the
    log is taken of base + sign * q per row, with (base, sign) = (0, 1) for
    a positive row and (1, -1) otherwise: exactly q or 1 - q.  The
    rows of x are kept transposed with a row of ones appended, so one
    matmul forms every factor's affine score, bias included, and one more
    gives all weight and bias gradients.  `value_and_grad` is the one
    entry point: every loss, with or without its gradient, comes from it.

    Per-row intermediates go into work arrays allocated once per engine:
    fresh temporaries of this size were handed back to the operating system
    after every call on large data and faulted back in on the next one, a
    fifth of a PsychM fit's time on 10 000 rows.  Every call returns a
    fresh gradient array.
    """

    def __init__(self, data: Dataset, reg: RegConfig, layout):
        if data.n < 1:
            raise ValueError("dataset is empty")
        n_factors, self.free_rates, label = layout
        labels = getattr(data, label)
        if labels is None:
            raise ValueError("the oracle's likelihood needs ground-truth classes y")
        self.d = d = data.dim
        # (weight offset, penalty) per factor; its bias follows its weights.
        # Target weights start after the selection bias and, when the rates
        # are free, after their two surrogates.
        if n_factors == 1:
            self.factors = ((0, reg.c_tgt),)
        else:
            tgt = d + 3 if self.free_rates else d + 1
            self.factors = ((0, reg.c_sel), (tgt, reg.c_tgt))
        self.n_free = self.factors[-1][0] + d + 1
        # theta[self.gather] holds one factor per row: its weights, then its bias.
        offsets = np.array([offset for offset, _ in self.factors])
        self.gather = offsets[:, None] + np.arange(d + 1)
        n = data.n
        self.xt = np.ones((d + 1, n))
        self.xt[:d] = data.x.T
        annotated = labels == 1
        self.sign = np.where(annotated, 1.0, -1.0)
        self.base = np.where(annotated, 0.0, 1.0)
        # Per factor and row: z the affine scores, then the derivative of
        # the log-likelihood by them; s the sigmoids; c 1 - s.  p0 is the
        # rate-mapped selection, or s[0] itself at fixed rates, where
        # guess + span * s is the identity.  Per row: arg what the log
        # is taken of; clipped it clamped, then the derivative of its log
        # by q; dq the derivative by each factor's probability.
        self.z, self.s, self.c = (np.empty((n_factors, n)) for _ in range(3))
        self.p0 = np.empty(n) if self.free_rates else self.s[0]
        self.arg, self.clipped, self.logs = (np.empty(n) for _ in range(3))
        self.dq = np.empty((n_factors, n)) if n_factors == 2 else self.clipped[None]
        self.outside = np.empty(n, dtype=bool)

    def _forward(self, theta: np.ndarray) -> tuple[float, float, float]:
        """Data log-likelihood and (guess, lapse) rates at a checked theta;
        leaves the per-row intermediates in the work arrays."""
        d = self.d
        guess, lapse = constrain_rates(theta[d + 1], theta[d + 2]) if self.free_rates else (0.0, 0.0)

        s = _sigmoid_into(np.matmul(theta[self.gather], self.xt, out=self.z), self.s)
        if self.free_rates:
            np.multiply(1.0 - guess - lapse, s[0], out=self.p0)
            np.add(guess, self.p0, out=self.p0)
        q = s[0] if len(self.factors) == 1 else np.multiply(self.p0, s[1], out=self.arg)
        arg = np.multiply(self.sign, q, out=self.arg)
        np.add(self.base, arg, out=arg)
        np.clip(arg, LOG_CLAMP, 1.0 - LOG_CLAMP, out=self.clipped)
        return float(np.sum(np.log(self.clipped, out=self.logs))), guess, lapse

    def value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_free,):
            raise ValueError(f"expected {self.n_free} free parameters, got {theta.shape}")
        total, guess, lapse = self._forward(theta)

        # d log(clip(arg)) / dq is sign / arg where the clamp leaves arg as
        # it is, and 0 where it moved arg.
        s, c, dz, dq = self.s, self.c, self.z, self.dq
        np.not_equal(self.arg, self.clipped, out=self.outside)
        r = np.divide(self.sign, self.clipped, out=self.clipped)
        np.copyto(r, 0.0, where=self.outside)
        if len(self.factors) == 2:
            # dq / dp_0 = t and dq / dt = p_0.
            np.multiply(r, s[1], out=dq[0])
            np.multiply(r, self.p0, out=dq[1])
        np.multiply(dq, s, out=dz)
        np.subtract(1.0, s, out=c)
        np.multiply(dz, c, out=dz)
        if self.free_rates:
            dz[0] *= 1.0 - guess - lapse

        d = self.d
        grad = np.empty(self.n_free)
        grad[self.gather] = -(dz @ self.xt.T)
        value = -total
        for offset, penalty in self.factors:
            if penalty:
                w = theta[offset : offset + d]
                value += penalty * float(w @ w)
                grad[offset : offset + d] += 2.0 * penalty * w
        if self.free_rates:
            # dp_0 / dguess = 1 - s_0 and dp_0 / dlapse = -s_0, chained
            # through the softmax Jacobian (module docstring); a surrogate
            # past its clip has derivative 0.
            d_guess = float(dq[0] @ c[0])
            d_lapse = -float(dq[0] @ s[0])
            mean = guess * d_guess + lapse * d_lapse
            for j, rate, d_rate in ((d + 1, guess, d_guess), (d + 2, lapse, d_lapse)):
                inside = abs(theta[j]) < RATE_LOGIT_BOUND
                grad[j] = -rate * (d_rate - mean) if inside else 0.0
        return value, grad


def make_loss_functions(data: Dataset, kind: ModelKind, reg: RegConfig):
    """The (value, value_and_grad) pair that the optimizer minimizes; its
    value is the first half of value_and_grad."""
    value_and_grad = _Engine(data, reg, _LAYOUTS[kind]).value_and_grad
    return lambda theta: value_and_grad(theta)[0], value_and_grad
