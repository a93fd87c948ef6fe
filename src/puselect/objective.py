"""Observed-data log-likelihood, regularized loss, and analytic gradients.

Only the annotation flags l are observed, so the likelihood of one example
is h(x) = s(x) t(x) when l = 1 and 1 - h(x) when l = 0.  Splitting the
annotated term gives the total over the dataset

    LL = sum_i [ l_i log s(x_i) + l_i log t(x_i) + (1 - l_i) log(1 - s(x_i) t(x_i)) ]

summed (not averaged) over examples.  The training loss is -LL plus two
independent weight penalties, one per factor, so the selection and target
parts of the model can be regularized differently:

    loss = -LL + c_sel * |sel.w| + c_tgt * |tgt.w|

under a squared-L2 or L1 norm each.  Biases and the guess/lapse rates are
never penalized.

Free parameter vectors are laid out as

    sigmoid product: [sel.w (d), sel.b, tgt.w (d), tgt.b]            (2d + 2)
    psychometric:    [sel.w (d), sel.b, guess', lapse', tgt.w (d), tgt.b]  (2d + 4)

where guess' and lapse' are unconstrained surrogates: the map

    guess = |guess'| / (1 + |guess'| + |lapse'|)
    lapse = |lapse'| / (1 + |guess'| + |lapse'|)

keeps guess, lapse >= 0 and guess + lapse < 1 for every finite input, so
the loss is defined on all of R^(2d+4) and plain unconstrained minimizers
apply.  The subgradient of |.| at 0 is taken to be 0, as is the L1 penalty
subgradient.

The sigmoid product is the psychometric model with guess = lapse = 0, so
one engine evaluates both: with the rates free (the psychometric layout)
or fixed (the sigmoid-product layout, at (0, 0) for that model).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import Dataset
from .models import LinearParams, ModelKind, PsychmParams, SpmParams

__all__ = [
    "LOG_CLAMP",
    "PenaltyNorm",
    "RegConfig",
    "constrain_rates",
    "unconstrain_rates",
    "pack_spm",
    "unpack_spm",
    "pack_psychm",
    "unpack_psychm",
    "free_param_length",
    "conditional_log_likelihood",
    "loss",
    "loss_gradient",
    "make_loss_functions",
]

# Log arguments are clamped to [LOG_CLAMP, 1 - LOG_CLAMP].  The psychometric
# lapse keeps h away from 1, but a saturated sigmoid product can hit 0 or 1
# exactly in float64; clamping prevents -inf without touching
# well-conditioned fits (values already inside the interval pass through
# bit-identically, and the gradient of a clamped term is zero, matching
# what finite differences of the clamped value see).
LOG_CLAMP = 1e-12


class PenaltyNorm(Enum):
    L1 = "l1"
    L2SQ = "l2sq"


@dataclass(frozen=True)
class RegConfig:
    """Per-factor weight penalties: c_sel on selection weights, c_tgt on target weights."""

    c_sel: float = 0.0
    c_tgt: float = 0.0
    norm_sel: PenaltyNorm = PenaltyNorm.L2SQ
    norm_tgt: PenaltyNorm = PenaltyNorm.L2SQ

    def __post_init__(self):
        if self.c_sel < 0 or self.c_tgt < 0:
            raise ValueError("penalty coefficients must be nonnegative")


def constrain_rates(guess_raw: float, lapse_raw: float) -> tuple[float, float]:
    """Map unconstrained surrogates to valid (guess, lapse) rates."""
    g, l = abs(float(guess_raw)), abs(float(lapse_raw))
    if not (np.isfinite(g) and np.isfinite(l)):
        raise ValueError("rate surrogates must be finite")
    denom = 1.0 + g + l
    return g / denom, l / denom


def unconstrain_rates(guess: float, lapse: float) -> tuple[float, float]:
    """Inverse of :func:`constrain_rates` for guess, lapse >= 0 with sum < 1."""
    guess, lapse = float(guess), float(lapse)
    if guess < 0 or lapse < 0 or guess + lapse >= 1:
        raise ValueError("need guess, lapse >= 0 with guess + lapse < 1")
    denom = 1.0 - guess - lapse
    return guess / denom, lapse / denom


def free_param_length(kind: ModelKind, dim: int) -> int:
    if kind == ModelKind.SPM:
        return 2 * dim + 2
    if kind == ModelKind.PSYCHM:
        return 2 * dim + 4
    raise ValueError(f"no free-parameter layout for {kind}")


def pack_spm(params: SpmParams) -> np.ndarray:
    sel, tgt = params.selection, params.target
    return np.concatenate([sel.w, [sel.b], tgt.w, [tgt.b]])


def unpack_spm(theta: np.ndarray, dim: int) -> SpmParams:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (2 * dim + 2,):
        raise ValueError(f"expected {2 * dim + 2} free parameters, got {theta.shape}")
    return SpmParams(
        selection=LinearParams(w=theta[:dim], b=theta[dim]),
        target=LinearParams(w=theta[dim + 1 : 2 * dim + 1], b=theta[2 * dim + 1]),
    )


def pack_psychm(params: PsychmParams) -> np.ndarray:
    sel, tgt = params.selection, params.target
    guess_raw, lapse_raw = unconstrain_rates(params.guess, params.lapse)
    return np.concatenate([sel.w, [sel.b, guess_raw, lapse_raw], tgt.w, [tgt.b]])


def unpack_psychm(theta: np.ndarray, dim: int) -> PsychmParams:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (2 * dim + 4,):
        raise ValueError(f"expected {2 * dim + 4} free parameters, got {theta.shape}")
    guess, lapse = constrain_rates(theta[dim + 1], theta[dim + 2])
    return PsychmParams(
        selection=LinearParams(w=theta[:dim], b=theta[dim]),
        guess=guess,
        lapse=lapse,
        target=LinearParams(w=theta[dim + 3 : 2 * dim + 3], b=theta[2 * dim + 3]),
    )


def _penalty(w: np.ndarray, c: float, norm: PenaltyNorm) -> float:
    if c == 0.0:
        return 0.0
    if norm == PenaltyNorm.L2SQ:
        return c * float(w @ w)
    return c * float(np.sum(np.abs(w)))


def _penalty_grad(w: np.ndarray, c: float, norm: PenaltyNorm) -> np.ndarray:
    if c == 0.0:
        return np.zeros_like(w)
    if norm == PenaltyNorm.L2SQ:
        return 2.0 * c * w
    return c * np.sign(w)


def _engine_rates(kind: ModelKind):
    """The sigmoid product is the psychometric model with its rates fixed
    at (0, 0); the psychometric model's rates are free (None)."""
    if kind == ModelKind.SPM:
        return (0.0, 0.0)
    if kind == ModelKind.PSYCHM:
        return None
    raise ValueError(f"loss is defined for SPM/PsychM only, got {kind}")


class _BlockWork:
    """Work arrays for one block of rows, allocated once per engine.  Fresh
    per-call temporaries of this size were handed back to the operating
    system after every call on large data and faulted back in on the next
    one, a fifth of a PsychM fit's time on 10 000 rows.

    Per row: a holds z, then an annotated block's log terms, then dz; s the
    sigmoids; c the rate-mapped probabilities, then 1 - s; d the derivative
    of the log-likelihood by each probability.  ``probs`` is s itself when
    the rate map is skipped.  ``arg`` is what the log is taken of: the two
    probabilities of an annotated row, 1 - their product for an unannotated
    one; ``clipped`` holds it clamped, then the derivative of its log.
    """

    def __init__(self, n: int, annotated: bool, mapped: bool):
        self.a, self.s, self.c, self.d = (np.empty((n, 2)) for _ in range(4))
        self.u = np.empty(n)
        self.probs = self.c if mapped else self.s
        if annotated:
            self.arg, self.clipped, self.logs = self.probs, self.d, self.a
        else:
            self.arg, self.clipped, self.logs = self.u, np.empty(n), np.empty(n)
        self.inside = np.empty(self.arg.shape, dtype=bool)
        self.above = np.empty(self.arg.shape, dtype=bool)


class _Engine:
    """Loss value and gradient for one (dataset, rates, penalties).

    ``rates`` is None when the guess/lapse surrogates are free parameters
    (the psychometric layout) and a fixed (guess, lapse) pair otherwise
    (the layout without surrogate slots); the sigmoid product is the pair
    (0, 0).  Rows are split once into annotated and unannotated blocks; the
    two affine scores are computed by a single stacked matmul per block.
    `value` and `value_and_grad` share one forward pass, so they agree bit
    for bit.  Per-row intermediates go into work arrays kept for the
    engine's lifetime; every call returns a fresh gradient array.
    """

    def __init__(self, data: Dataset, reg: RegConfig, rates):
        if data.n < 1:
            raise ValueError("dataset is empty")
        self.reg = reg
        self.rates = rates
        self.d = data.dim
        # Target weights start after the selection bias and, when the rates
        # are free, after their two surrogates.
        self.tgt = self.d + 1 if rates is not None else self.d + 3
        self.n_free = self.tgt + self.d + 1
        # guess + span * s is the identity at (0, 0): skip it there.
        self.mapped = rates != (0.0, 0.0)
        pos = data.l == 1
        self.blocks = [
            (block, annotated, _BlockWork(block.shape[0], annotated, self.mapped))
            for block, annotated in ((data.x[pos], True), (data.x[~pos], False))
            if block.shape[0]
        ]

    def _check(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_free,):
            raise ValueError(f"expected {self.n_free} free parameters, got {theta.shape}")
        return theta

    def _forward(self, theta: np.ndarray) -> tuple[float, float]:
        """Data log-likelihood and rate span at a checked theta; leaves each
        block's intermediates in its work arrays."""
        d, t = self.d, self.tgt
        weights = np.column_stack((theta[:d], theta[t : t + d]))
        biases = np.array([theta[d], theta[t + d]])
        if self.rates is None:
            guess, lapse = constrain_rates(theta[d + 1], theta[d + 2])
        else:
            guess, lapse = self.rates
        span = 1.0 - guess - lapse

        total = 0.0
        for block, annotated, work in self.blocks:
            # sigmoid(z) is upper = 1 / (1 + exp(-|z|)) for z >= 0 and
            # 1 - upper below, so exp never overflows.  upper lies in
            # [0.5, 1], where upper - 0.5 and both results are exact, so
            # 0.5 + copysign(upper - 0.5, z) picks the branch bit for bit
            # without a data-dependent (mispredicted) select.
            z = work.a
            np.matmul(block, weights, out=z)
            z += biases
            raw = work.s
            np.abs(z, out=raw)
            np.negative(raw, out=raw)
            np.exp(raw, out=raw)
            np.add(1.0, raw, out=raw)
            np.divide(1.0, raw, out=raw)
            np.subtract(raw, 0.5, out=raw)
            np.copysign(raw, z, out=raw)
            np.add(raw, 0.5, out=raw)
            probs = work.probs
            if self.mapped:
                probs[:, 1] = raw[:, 1]
                np.multiply(span, raw[:, 0], out=probs[:, 0])
                np.add(guess, probs[:, 0], out=probs[:, 0])
            if not annotated:
                miss = np.multiply(probs[:, 0], probs[:, 1], out=work.arg)
                np.subtract(1.0, miss, out=miss)
            np.clip(work.arg, LOG_CLAMP, 1.0 - LOG_CLAMP, out=work.clipped)
            total += float(np.sum(np.log(work.clipped, out=work.logs)))
        return total, span

    def _penalized(self, theta: np.ndarray, total: float) -> float:
        d, t = self.d, self.tgt
        value = -total
        value += _penalty(theta[:d], self.reg.c_sel, self.reg.norm_sel)
        value += _penalty(theta[t : t + d], self.reg.c_tgt, self.reg.norm_tgt)
        return value

    def value(self, theta: np.ndarray) -> float:
        theta = self._check(theta)
        return self._penalized(theta, self._forward(theta)[0])

    def value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        theta = self._check(theta)
        total, span = self._forward(theta)
        free_rates = self.rates is None

        grad_w = np.zeros((self.d, 2))
        grad_b = np.zeros(2)
        d_guess = 0.0
        d_lapse = 0.0
        for block, annotated, work in self.blocks:
            # d log(clip(arg)) / d arg is 1 / clip(arg) strictly inside the
            # clamp interval and 0 elsewhere.
            inside = np.greater(work.arg, LOG_CLAMP, out=work.inside)
            np.less(work.arg, 1.0 - LOG_CLAMP, out=work.above)
            np.logical_and(inside, work.above, out=inside)
            rest = np.divide(1.0, work.clipped, out=work.clipped)
            np.copyto(rest, 0.0, where=np.logical_not(inside, out=inside))
            probs, dprob, raw = work.probs, work.d, work.s
            if not annotated:
                np.negative(rest, out=rest)
                np.multiply(rest, probs[:, 1], out=dprob[:, 0])
                np.multiply(rest, probs[:, 0], out=dprob[:, 1])
            dz, one_minus_raw = work.a, work.c
            np.multiply(dprob, raw, out=dz)
            np.subtract(1.0, raw, out=one_minus_raw)
            np.multiply(dz, one_minus_raw, out=dz)
            if self.mapped:
                dz[:, 0] *= span
            if free_rates:
                d_guess += float(np.sum(np.multiply(dprob[:, 0], one_minus_raw[:, 0], out=work.u)))
                np.negative(raw[:, 0], out=work.u)
                d_lapse += float(np.sum(np.multiply(dprob[:, 0], work.u, out=work.u)))
            grad_w += block.T @ dz
            grad_b += dz.sum(axis=0)

        d, t = self.d, self.tgt
        sel_w, tgt_w = theta[:d], theta[t : t + d]
        grad = np.empty(self.n_free)
        grad[:d] = -grad_w[:, 0] + _penalty_grad(sel_w, self.reg.c_sel, self.reg.norm_sel)
        grad[d] = -grad_b[0]
        if free_rates:
            # Chain the rate gradients through the surrogate map: with
            # D = 1 + |g'| + |l'| the Jacobian entries are
            #   d guess / d g' = sign(g') (1 + |l'|) / D^2
            #   d lapse / d g' = -sign(g') |l'| / D^2
            # and symmetrically for l'; sign(0) = 0.
            g_raw, l_raw = theta[d + 1], theta[d + 2]
            denom = (1.0 + abs(g_raw) + abs(l_raw)) ** 2
            d_g_raw = np.sign(g_raw) * ((1.0 + abs(l_raw)) * d_guess - abs(l_raw) * d_lapse) / denom
            d_l_raw = np.sign(l_raw) * ((1.0 + abs(g_raw)) * d_lapse - abs(g_raw) * d_guess) / denom
            grad[d + 1] = -d_g_raw
            grad[d + 2] = -d_l_raw
        grad[t : t + d] = -grad_w[:, 1] + _penalty_grad(tgt_w, self.reg.c_tgt, self.reg.norm_tgt)
        grad[t + d] = -grad_b[1]
        return self._penalized(theta, total), grad


def make_loss_functions(data: Dataset, kind: ModelKind, reg: RegConfig):
    """The (value, value_and_grad) pair that the optimizer minimizes."""
    engine = _Engine(data, reg, _engine_rates(kind))
    return engine.value, engine.value_and_grad


def conditional_log_likelihood(data: Dataset, params: SpmParams | PsychmParams) -> float:
    """Log-likelihood of the observed annotation flags given the features.

    The rates are fixed at the parameters' own (guess, lapse), which may lie
    on the boundary guess + lapse = 1 that the surrogate map cannot reach.
    """
    if data.dim != params.dim:
        raise ValueError(f"dataset dim {data.dim} != parameter dim {params.dim}")
    rates = (params.guess, params.lapse) if isinstance(params, PsychmParams) else (0.0, 0.0)
    sel, tgt = params.selection, params.target
    theta = np.concatenate([sel.w, [sel.b], tgt.w, [tgt.b]])
    return -_Engine(data, RegConfig(), rates).value(theta)


def loss(data: Dataset, kind: ModelKind, theta: np.ndarray, reg: RegConfig) -> float:
    """Negative log-likelihood plus the two weight penalties."""
    return _Engine(data, reg, _engine_rates(kind)).value(theta)


def loss_gradient(data: Dataset, kind: ModelKind, theta: np.ndarray, reg: RegConfig) -> np.ndarray:
    """Gradient of :func:`loss` with respect to the free parameter vector."""
    return _Engine(data, reg, _engine_rates(kind)).value_and_grad(theta)[1]
