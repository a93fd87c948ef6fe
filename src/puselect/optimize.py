"""The unconstrained minimizer shared by all fitting procedures.

L-BFGS with a strong-Wolfe line search (Nocedal & Wright, *Numerical
Optimization*, Alg. 3.5/3.6).  The caller supplies ``value_and_grad(x) ->
(f, g)``.  Every line-search probe is one such call, and the accepted
probe's ``(f, g)`` becomes the next iterate, so the start costs one call and
an iteration usually one more.  ``minimize`` keeps a ``value`` argument
that it never calls (see ``minimize``).  Every run is deterministic in
(init, config) and never ends above the starting loss.

A step along -g, taken when there are no curvature pairs yet, probes first
at length at most ``_FIRST_STEP``: the gradient of a loss summed over rows
grows with the rows, and a unit step along it can throw a fit far onto a
plateau (L-BFGS-B scales this step to unit length).  The line search
accepts only a probe strictly below the lowest loss seen, so every
accepted step lowers the loss, and a step that only ties it in floating
point is a stall.

A run stops at the first of four events:

- the gradient norm is at most ``grad_tol`` (also at the start);
- an accepted step lowers the loss by at most ``_FTOL`` of its magnitude,
  ``f_prev - f <= _FTOL * max(|f_prev|, |f|)``: the relative-decrease stop
  of L-BFGS-B's ``factr`` (Byrd, Lu, Nocedal & Zhu 1995) at its default
  1e7, without that code's floor of 1 on the magnitude, so that a loss
  near 0 still runs to ``grad_tol``;
- the line search stalls (no probe met sufficient decrease);
- ``max_iters`` iterations are done.

``converged`` means one of the first two: the fit finished.  A fit that
hits the cap or stalls is not converged.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar

import numpy as np

__all__ = ["OptimizerConfig", "OptimResult", "NonFiniteError", "minimize"]

_HISTORY = 10  # curvature pairs that L-BFGS keeps
# Without curvature pairs the first probe moves the parameters at most this
# far.  On standardized features a logit slope of 10 per standard deviation
# already saturates a sigmoid, so a longer first probe lands on a plateau.
# L-BFGS-B's length of 1 was measured too: it ends more three-start PsychM
# fits in a poor basin.
_FIRST_STEP = 10.0
_FTOL = 1e7 * float(np.finfo(float).eps)  # relative-decrease stop, about 2.2e-9


class Method(Enum):
    LBFGS = "lbfgs"


@dataclass(frozen=True)
class OptimizerConfig:
    # Not a setting: the benchmark's tracer reads ``cfg.method.value`` to
    # label its ``optimize.*`` metrics.  It goes in the benchmark-only change
    # that also drops the tracer's metrics for the deleted first-order method
    # and ``minimize``'s unused ``value`` argument.
    method: ClassVar[Method] = Method.LBFGS
    # Every model's final-fit budget, calibrated to the benchmark scale.
    max_iters: int = 150
    grad_tol: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.grad_tol < math.inf:
            raise ValueError(f"grad_tol must be finite and positive, got {self.grad_tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


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

    Stops by the module docstring's rules.  Every accepted step passes
    the sufficient-decrease test along a descent direction, so the returned
    iterate is the lowest seen and its loss never exceeds the starting
    loss.  ``converged`` is True when the gradient norm at the returned
    point is within ``cfg.grad_tol`` or the last step's relative decrease
    was within ``_FTOL``.
    """
    x = np.array(init, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("initial point is not finite", x)
    f, g = _eval(value_and_grad, x)
    if not np.isfinite(f):
        raise NonFiniteError(f"objective is {f} at iterate", x)
    gnorm = float(np.linalg.norm(g))
    history = deque(maxlen=_HISTORY)  # curvature pairs (s, y, 1 / s.y), oldest first

    iterations = 0
    flat = False  # the last accepted step met the relative-decrease stop
    while not flat and gnorm > cfg.grad_tol and iterations < cfg.max_iters:
        direction = -_two_loop(g, history)
        slope = float(direction @ g)
        if slope >= 0.0:
            # Not a descent direction: drop the history and fall back to
            # steepest descent.
            history.clear()
            direction = -g
            slope = -float(g @ g)

        # Without curvature pairs the direction is -g, whose length is the
        # loss's scale, not a step's: its first probe is capped in length.
        first = 1.0 if history else min(1.0, _FIRST_STEP / math.sqrt(-slope))
        found = _wolfe_search(value_and_grad, x, f, direction, slope, first)
        if found is None:
            break  # line search stalled
        step, f_new, g_new = found
        iterations += 1
        x_new = x + step * direction

        s_vec = x_new - x
        y_vec = g_new - g
        sy = float(s_vec @ y_vec)
        if sy > 1e-10 * float(np.linalg.norm(s_vec)) * float(np.linalg.norm(y_vec)):
            history.append((s_vec, y_vec, 1.0 / sy))
        flat = f - f_new <= _FTOL * max(abs(f), abs(f_new))
        x, f, g = x_new, f_new, g_new
        gnorm = float(np.linalg.norm(g))

    return OptimResult(
        params=x,
        loss=f,
        grad_norm=gnorm,
        iterations=iterations,
        converged=flat or gnorm <= cfg.grad_tol,
    )


def _two_loop(g: np.ndarray, history) -> np.ndarray:
    q = g.copy()
    alphas = []
    for s_vec, y_vec, rho in reversed(history):
        a = rho * float(s_vec @ q)
        alphas.append(a)
        q -= a * y_vec
    if history:
        s_last, y_last, _ = history[-1]
        q *= float(s_last @ y_last) / float(y_last @ y_last)
    for (s_vec, y_vec, rho), a in zip(history, reversed(alphas)):
        b = rho * float(y_vec @ q)
        q += (a - b) * s_vec
    return q


_C1, _C2 = 1e-4, 0.9  # sufficient decrease, curvature
_MAX_PROBES = 10


def _wolfe_search(value_and_grad, x, f, direction, slope, first):
    """Strong-Wolfe line search; returns ``(step, f, g)`` or None on a stall.

    Probes step ``first``, doubles it while the loss falls and the slope
    stays negative, and once a probe brackets the minimum narrows the
    bracket by cubic interpolation (Alg. 3.5/3.6).  A probe with a
    non-finite loss fails sufficient decrease.  Returns the first probe
    that meets both conditions; after ``_MAX_PROBES`` probes, the lowest
    one that met sufficient decrease; None when none did.
    """
    lo = (0.0, f, slope, None)  # step, loss, slope, gradient: lowest admissible probe
    hi = None  # (step, loss, slope) at the bracket's other end, once there is one
    step = first
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
