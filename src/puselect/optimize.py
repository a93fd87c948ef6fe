"""The unconstrained minimizer shared by all fitting procedures.

L-BFGS with a strong-Wolfe line search (Nocedal & Wright, *Numerical
Optimization*, Alg. 3.5/3.6).  The caller supplies ``value_and_grad(x) ->
(f, g)``.  Every line-search probe is one such call, and the accepted
probe's ``(f, g)`` becomes the next iterate, so the start costs one call and
an iteration usually one more.  ``minimize`` keeps a ``value`` argument
that it never calls (see ``minimize``).  Every run is deterministic in
(init, config), never ends above the starting loss, and reports whether
the gradient-norm tolerance was met.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar

import numpy as np

__all__ = ["OptimizerConfig", "OptimResult", "NonFiniteError", "minimize"]


class Method(Enum):
    LBFGS = "lbfgs"


@dataclass(frozen=True)
class OptimizerConfig:
    # Not a setting: the benchmark's tracer reads ``cfg.method.value`` to
    # label its ``optimize.*`` metrics.  It goes in the benchmark-only change
    # that also drops the tracer's metrics for the deleted first-order method
    # and ``minimize``'s unused ``value`` argument.
    method: ClassVar[Method] = Method.LBFGS
    max_iters: int = 2000
    grad_tol: float = 1e-6
    history_size: int = 10

    def __post_init__(self):
        if self.grad_tol <= 0 or self.max_iters < 1:
            raise ValueError("grad_tol must be positive and max_iters >= 1")
        if self.history_size < 1:
            raise ValueError("history_size must be >= 1")


@dataclass(frozen=True)
class OptimResult:
    params: np.ndarray
    loss: float
    grad_norm: float
    iterations: int
    converged: bool


class NonFiniteError(ValueError):
    """Objective or gradient became non-finite; carries the offending iterate."""

    def __init__(self, message: str, iterate: np.ndarray):
        super().__init__(message)
        self.iterate = np.array(iterate)


def _eval(value_and_grad, x: np.ndarray) -> tuple[float, np.ndarray]:
    """One call; a finite loss must come with a finite gradient."""
    f, g = value_and_grad(x)
    f, g = float(f), np.asarray(g, dtype=float)
    if np.isfinite(f) and not np.all(np.isfinite(g)):
        raise NonFiniteError("gradient has non-finite entries at iterate", x)
    return f, g


def minimize(value, value_and_grad, init, cfg: OptimizerConfig) -> OptimResult:
    """Minimize a smooth function from ``init``.

    ``value`` is unused, since every probe needs the gradient.  It stays
    only because the benchmark's tracer wraps four arguments and labels its
    spans by ``value``; it goes with ``OptimizerConfig.method``.

    Stops once the current gradient norm drops to ``cfg.grad_tol``, the
    iteration budget runs out, or the line search stalls.  Every accepted
    step passes the sufficient-decrease test along a descent direction, so
    the returned iterate is the lowest seen and its loss never exceeds the
    starting loss.  ``converged`` reflects the gradient norm at the
    returned point.
    """
    x = np.array(init, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("initial point is not finite", x)
    f, g = _eval(value_and_grad, x)
    if not np.isfinite(f):
        raise NonFiniteError(f"objective is {f} at iterate", x)
    gnorm = float(np.linalg.norm(g))
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    rho_hist: list[float] = []

    iterations = 0
    while gnorm > cfg.grad_tol and iterations < cfg.max_iters:
        direction = -_two_loop(g, s_hist, y_hist, rho_hist)
        slope = float(direction @ g)
        if slope >= 0.0:
            # Not a descent direction: drop the history and fall back to
            # steepest descent.
            s_hist, y_hist, rho_hist = [], [], []
            direction = -g
            slope = -float(g @ g)

        found = _wolfe_search(value_and_grad, x, f, direction, slope)
        if found is None:
            break  # line search stalled
        step, f_new, g_new = found
        iterations += 1
        x_new = x + step * direction

        s_vec = x_new - x
        y_vec = g_new - g
        sy = float(s_vec @ y_vec)
        if sy > 1e-10 * float(np.linalg.norm(s_vec)) * float(np.linalg.norm(y_vec)):
            s_hist.append(s_vec)
            y_hist.append(y_vec)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > cfg.history_size:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)
        x, f, g = x_new, f_new, g_new
        gnorm = float(np.linalg.norm(g))

    return OptimResult(
        params=x,
        loss=f,
        grad_norm=gnorm,
        iterations=iterations,
        converged=bool(gnorm <= cfg.grad_tol),
    )


def _two_loop(g: np.ndarray, s_hist, y_hist, rho_hist) -> np.ndarray:
    q = g.copy()
    alphas = []
    for s_vec, y_vec, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
        a = rho * float(s_vec @ q)
        alphas.append(a)
        q -= a * y_vec
    if s_hist:
        y_last = y_hist[-1]
        q *= float(s_hist[-1] @ y_last) / float(y_last @ y_last)
    for s_vec, y_vec, rho, a in zip(s_hist, y_hist, rho_hist, reversed(alphas)):
        b = rho * float(y_vec @ q)
        q += (a - b) * s_vec
    return q


_C1, _C2 = 1e-4, 0.9  # sufficient decrease, curvature
_MAX_PROBES = 10


def _wolfe_search(value_and_grad, x, f, direction, slope):
    """Strong-Wolfe line search; returns ``(step, f, g)`` or None on a stall.

    Probes the unit step, doubles it while the loss falls and the slope
    stays negative, and once a probe brackets the minimum narrows the
    bracket by cubic interpolation (Alg. 3.5/3.6).  A probe with a
    non-finite loss fails sufficient decrease.  Returns the first probe
    that meets both conditions; after ``_MAX_PROBES`` probes, the lowest
    one that met sufficient decrease; None when none did.
    """
    lo = (0.0, f, slope, None)  # step, loss, slope, gradient: lowest admissible probe
    hi = None  # (step, loss, slope) at the bracket's other end, once there is one
    step = 1.0
    for _ in range(_MAX_PROBES):
        f_t, g_t = _eval(value_and_grad, x + step * direction)
        d_t = float(g_t @ direction)
        if not (math.isfinite(f_t) and f_t <= f + _C1 * step * slope) or f_t >= lo[1]:
            hi = (step, f_t, d_t)
        elif abs(d_t) <= -_C2 * slope:
            return step, f_t, g_t
        else:
            if d_t * ((math.inf if hi is None else hi[0]) - step) >= 0.0:
                hi = lo[:3]
            lo = (step, f_t, d_t, g_t)
        step = 2.0 * step if hi is None else _cubic_step(lo[:3], hi)
    return (lo[0], lo[1], lo[3]) if lo[0] > 0.0 else None


def _cubic_step(lo, hi) -> float:
    """Minimizer of the cubic through both bracket ends' losses and slopes,
    clipped to the bracket's inner 80%; the midpoint when the cubic has none
    (e.g. a non-finite loss at one end)."""
    (a, fa, da), (b, fb, db) = lo, hi
    width = b - a
    step = a + 0.5 * width
    d1 = da + db - 3.0 * (fa - fb) / (a - b)
    radicand = d1 * d1 - da * db
    if math.isfinite(radicand) and radicand >= 0.0:
        d2 = math.copysign(math.sqrt(radicand), width)
        denom = db - da + 2.0 * d2
        if denom != 0.0:
            step = b - width * (db + d2 - d1) / denom
    margin = 0.1 * abs(width)
    return min(max(step, min(a, b) + margin), max(a, b) - margin)
