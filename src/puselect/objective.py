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


def _sigmoid(z: np.ndarray) -> np.ndarray:
    upper = 1.0 / (1.0 + np.exp(-np.abs(z)))
    return np.where(z >= 0.0, upper, 1.0 - upper)


def _clip(p: np.ndarray) -> np.ndarray:
    return np.clip(p, LOG_CLAMP, 1.0 - LOG_CLAMP)


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


class _BlockWork:
    """Work arrays for the gradient pass over one block of rows, allocated
    once per engine.  Fresh per-call temporaries of this size were handed
    back to the operating system after every call on large data and faulted
    back in on the next one, a fifth of a PsychM fit's time on 10 000 rows.

    Per row: a holds z, then the upper sigmoid branch, the log terms and
    dz; b the sigmoid; c the rate-mapped probabilities, then 1 - sigmoid;
    d the derivative of the log-likelihood by each probability.
    """

    def __init__(self, n: int):
        self.a, self.b, self.c, self.d = (np.empty((n, 2)) for _ in range(4))
        self.mask, self.mask2 = np.empty((n, 2), dtype=bool), np.empty((n, 2), dtype=bool)
        self.u, self.v, self.w = np.empty(n), np.empty(n), np.empty(n)
        self.umask, self.umask2 = np.empty(n, dtype=bool), np.empty(n, dtype=bool)


def _sum_log_and_reciprocal(p, clipped, logs, inside, above) -> float:
    """sum(log(clip(p))), leaving 1/clip(p) where p lies strictly inside
    the clamp interval and 0 elsewhere in ``clipped``."""
    np.clip(p, LOG_CLAMP, 1.0 - LOG_CLAMP, out=clipped)
    total = float(np.sum(np.log(clipped, out=logs)))
    np.greater(p, LOG_CLAMP, out=inside)
    np.less(p, 1.0 - LOG_CLAMP, out=above)
    np.logical_and(inside, above, out=inside)
    np.divide(1.0, clipped, out=clipped)
    np.copyto(clipped, 0.0, where=np.logical_not(inside, out=inside))
    return total


class _Engine:
    """Shared value/gradient computation for one (dataset, kind, penalties).

    Rows are split once into annotated and unannotated blocks; the two
    affine scores are computed by a single stacked matmul per block.  The
    public `loss`/`loss_gradient` wrappers and the fast per-fit closures
    both run through here, so they produce bit-identical numbers.  The
    gradient pass writes its per-row intermediates into work arrays kept
    for the engine's lifetime; every call returns a fresh gradient array.
    """

    def __init__(self, data: Dataset, kind: ModelKind, reg: RegConfig, rates_override=None):
        if kind not in (ModelKind.SPM, ModelKind.PSYCHM):
            raise ValueError(f"loss is defined for SPM/PsychM only, got {kind}")
        if data.n < 1:
            raise ValueError("dataset is empty")
        self.kind = kind
        self.reg = reg
        self.d = data.dim
        self.n_free = free_param_length(kind, self.d)
        # (guess, lapse) used verbatim instead of the theta surrogates; lets
        # the likelihood be evaluated at boundary rates the surrogate map
        # cannot reach (guess + lapse == 1).
        self.rates_override = rates_override
        pos = data.l == 1
        self.x_pos = data.x[pos]
        self.x_neg = data.x[~pos]
        self.blocks = [
            (block, annotated, _BlockWork(block.shape[0]))
            for block, annotated in ((self.x_pos, True), (self.x_neg, False))
            if block.shape[0]
        ]

    def _rates(self, g_raw: float, l_raw: float) -> tuple[float, float]:
        if self.rates_override is not None:
            return self.rates_override
        return constrain_rates(g_raw, l_raw)

    def _split(self, theta: np.ndarray):
        d = self.d
        if self.kind == ModelKind.SPM:
            return theta[:d], theta[d], theta[d + 1 : 2 * d + 1], theta[2 * d + 1], None, None
        return (
            theta[:d],
            theta[d],
            theta[d + 3 : 2 * d + 3],
            theta[2 * d + 3],
            theta[d + 1],
            theta[d + 2],
        )

    def _check(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_free,):
            raise ValueError(f"expected {self.n_free} free parameters, got {theta.shape}")
        return theta

    def value(self, theta: np.ndarray) -> float:
        theta = self._check(theta)
        sel_w, sel_b, tgt_w, tgt_b, g_raw, l_raw = self._split(theta)
        weights = np.column_stack((sel_w, tgt_w))
        biases = np.array([sel_b, tgt_b])

        total = 0.0
        if self.x_pos.shape[0]:
            probs = _sigmoid(self.x_pos @ weights + biases)
            if g_raw is not None:
                guess, lapse = self._rates(g_raw, l_raw)
                probs[:, 0] = guess + (1.0 - guess - lapse) * probs[:, 0]
            total += float(np.sum(np.log(_clip(probs))))
        if self.x_neg.shape[0]:
            probs = _sigmoid(self.x_neg @ weights + biases)
            if g_raw is not None:
                guess, lapse = self._rates(g_raw, l_raw)
                probs[:, 0] = guess + (1.0 - guess - lapse) * probs[:, 0]
            total += float(np.sum(np.log(_clip(1.0 - probs[:, 0] * probs[:, 1]))))

        value = -total
        value += _penalty(sel_w, self.reg.c_sel, self.reg.norm_sel)
        value += _penalty(tgt_w, self.reg.c_tgt, self.reg.norm_tgt)
        return value

    def value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        theta = self._check(theta)
        sel_w, sel_b, tgt_w, tgt_b, g_raw, l_raw = self._split(theta)
        weights = np.column_stack((sel_w, tgt_w))
        biases = np.array([sel_b, tgt_b])
        psychm = g_raw is not None
        if psychm:
            guess, lapse = self._rates(g_raw, l_raw)
            span = 1.0 - guess - lapse

        total = 0.0
        grad_w = np.zeros((self.d, 2))
        grad_b = np.zeros(2)
        d_guess = 0.0
        d_lapse = 0.0

        for block, annotated, work in self.blocks:
            # The operations of _sigmoid and _clip, in the same order, so
            # value() and this pass agree bit for bit.
            z, raw = work.a, work.b
            np.matmul(block, weights, out=z)
            z += biases
            nonneg = np.greater_equal(z, 0.0, out=work.mask)
            upper = z
            np.abs(z, out=upper)
            np.negative(upper, out=upper)
            np.exp(upper, out=upper)
            np.add(1.0, upper, out=upper)
            np.divide(1.0, upper, out=upper)
            np.subtract(1.0, upper, out=raw)
            np.copyto(raw, upper, where=nonneg)
            if psychm:
                probs = work.c
                probs[:, 1] = raw[:, 1]
                np.multiply(span, raw[:, 0], out=probs[:, 0])
                np.add(guess, probs[:, 0], out=probs[:, 0])
            else:
                probs = raw
            dprob = work.d
            if annotated:
                total += _sum_log_and_reciprocal(probs, dprob, work.a, work.mask, work.mask2)
            else:
                miss = np.multiply(probs[:, 0], probs[:, 1], out=work.u)
                np.subtract(1.0, miss, out=miss)
                rest = work.v
                total += _sum_log_and_reciprocal(miss, rest, work.w, work.umask, work.umask2)
                np.negative(rest, out=rest)
                np.multiply(rest, probs[:, 1], out=dprob[:, 0])
                np.multiply(rest, probs[:, 0], out=dprob[:, 1])
            dz, one_minus_raw = work.a, work.c
            np.multiply(dprob, raw, out=dz)
            np.subtract(1.0, raw, out=one_minus_raw)
            np.multiply(dz, one_minus_raw, out=dz)
            if psychm:
                dz[:, 0] *= span
                d_guess += float(np.sum(np.multiply(dprob[:, 0], one_minus_raw[:, 0], out=work.u)))
                np.negative(raw[:, 0], out=work.u)
                d_lapse += float(np.sum(np.multiply(dprob[:, 0], work.u, out=work.u)))
            grad_w += block.T @ dz
            grad_b += dz.sum(axis=0)

        value = -total
        value += _penalty(sel_w, self.reg.c_sel, self.reg.norm_sel)
        value += _penalty(tgt_w, self.reg.c_tgt, self.reg.norm_tgt)

        pen_sel = _penalty_grad(sel_w, self.reg.c_sel, self.reg.norm_sel)
        pen_tgt = _penalty_grad(tgt_w, self.reg.c_tgt, self.reg.norm_tgt)
        grad = np.empty(self.n_free)
        d = self.d
        grad[:d] = -grad_w[:, 0] + pen_sel
        grad[d] = -grad_b[0]
        if psychm:
            # Chain the rate gradients through the surrogate map: with
            # D = 1 + |g'| + |l'| the Jacobian entries are
            #   d guess / d g' = sign(g') (1 + |l'|) / D^2
            #   d lapse / d g' = -sign(g') |l'| / D^2
            # and symmetrically for l'; sign(0) = 0.
            denom = (1.0 + abs(g_raw) + abs(l_raw)) ** 2
            d_g_raw = np.sign(g_raw) * ((1.0 + abs(l_raw)) * d_guess - abs(l_raw) * d_lapse) / denom
            d_l_raw = np.sign(l_raw) * ((1.0 + abs(g_raw)) * d_lapse - abs(g_raw) * d_guess) / denom
            grad[d + 1] = -d_g_raw
            grad[d + 2] = -d_l_raw
            grad[d + 3 : 2 * d + 3] = -grad_w[:, 1] + pen_tgt
            grad[2 * d + 3] = -grad_b[1]
        else:
            grad[d + 1 : 2 * d + 1] = -grad_w[:, 1] + pen_tgt
            grad[2 * d + 1] = -grad_b[1]
        return value, grad


def make_loss_functions(data: Dataset, kind: ModelKind, reg: RegConfig):
    """Fast (objective, gradient) closures for the optimizer.

    The gradient call computes value and gradient together and memoizes
    them, so an optimizer that evaluates both at the same point pays for
    one forward pass.
    """
    engine = _Engine(data, kind, reg)
    memo: dict = {"key": None, "value": None, "grad": None}

    def objective(theta) -> float:
        key = np.asarray(theta, dtype=float).tobytes()
        if memo["key"] == key:
            return memo["value"]
        return engine.value(theta)

    def gradient(theta) -> np.ndarray:
        value, grad = engine.value_and_grad(theta)
        memo["key"] = np.asarray(theta, dtype=float).tobytes()
        memo["value"] = value
        memo["grad"] = grad
        return grad

    return objective, gradient


def conditional_log_likelihood(data: Dataset, params: SpmParams | PsychmParams) -> float:
    """Log-likelihood of the observed annotation flags given the features."""
    if data.dim != params.dim:
        raise ValueError(f"dataset dim {data.dim} != parameter dim {params.dim}")
    if isinstance(params, PsychmParams):
        sel, tgt = params.selection, params.target
        theta = np.concatenate([sel.w, [sel.b, 0.0, 0.0], tgt.w, [tgt.b]])
        engine = _Engine(
            data, ModelKind.PSYCHM, RegConfig(), rates_override=(params.guess, params.lapse)
        )
    else:
        theta = pack_spm(params)
        engine = _Engine(data, ModelKind.SPM, RegConfig())
    return -engine.value(theta)


def loss(data: Dataset, kind: ModelKind, theta: np.ndarray, reg: RegConfig) -> float:
    """Negative log-likelihood plus the two weight penalties."""
    return _Engine(data, kind, reg).value(theta)


def loss_gradient(data: Dataset, kind: ModelKind, theta: np.ndarray, reg: RegConfig) -> np.ndarray:
    """Gradient of :func:`loss` with respect to the free parameter vector."""
    return _Engine(data, kind, reg).value_and_grad(theta)[1]
