"""The unconstrained minimizer shared by all fitting procedures.

L-BFGS with a backtracking Armijo line search.  The caller supplies
``value(x) -> f`` and ``value_and_grad(x) -> (f, g)``, both computing the
same loss.  Each iterate (the start and every accepted point) costs
exactly one ``value_and_grad`` call; only the line-search probes call
``value``.  Every run is deterministic in (init, config), never ends above
the starting loss, and reports whether the gradient-norm tolerance was met.
"""

from __future__ import annotations

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
    # that also drops the tracer's metrics for the deleted first-order method.
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
    f, g = value_and_grad(x)
    f, g = float(f), np.asarray(g, dtype=float)
    if not np.isfinite(f):
        raise NonFiniteError(f"objective is {f} at iterate", x)
    if not np.all(np.isfinite(g)):
        raise NonFiniteError("gradient has non-finite entries at iterate", x)
    return f, g


def minimize(value, value_and_grad, init, cfg: OptimizerConfig) -> OptimResult:
    """Minimize a smooth function from ``init``.

    Stops once the current gradient norm drops to ``cfg.grad_tol``, the
    iteration budget runs out, or the line search stalls.  Every accepted
    step passes the Armijo test along a descent direction, so the returned
    iterate is the lowest seen and its loss never exceeds the starting
    loss.  ``converged`` reflects the gradient norm at the returned point.
    """
    x = np.array(init, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("initial point is not finite", x)
    f, g = _eval(value_and_grad, x)
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

        step = _backtrack(value, x, f, direction, slope)
        if step == 0.0:
            break  # line search stalled
        iterations += 1
        x_new = x + step * direction
        f_new, g_new = _eval(value_and_grad, x_new)

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


_ARMIJO = 1e-4
_MAX_HALVINGS = 40
_MAX_INTERP_STEP = 10.0


def _backtrack(value, x, f, direction, slope) -> float:
    """Backtracking Armijo line search with quadratic interpolation.

    The unit step is probed along with the minimizer of the quadratic
    through phi(0), phi'(0), phi(1).  The interpolated step is trusted on
    its own only when the probe confirms the quadratic model, which makes
    it exact on quadratic objectives (so the quasi-Newton loop terminates
    in about `dim` iterations there) without letting a wildly wrong model
    collapse the step on strongly non-quadratic ones.  Otherwise a
    safeguarded interpolating shrink takes over.  Returns the step; 0.0
    signals a stall.
    """

    def admissible(step, value):
        return np.isfinite(value) and value <= f + _ARMIJO * step * slope

    f_unit = float(value(x + direction))
    candidates = []
    if admissible(1.0, f_unit):
        candidates.append((1.0, f_unit))
    curvature = 2.0 * (f_unit - f - slope) if np.isfinite(f_unit) else 0.0
    if curvature > 0.0:
        step_q = min(-slope / curvature, _MAX_INTERP_STEP)
        if step_q > 0.0 and step_q != 1.0:
            f_q = float(value(x + step_q * direction))
            if admissible(step_q, f_q):
                predicted = f + slope * step_q + 0.5 * curvature * step_q**2
                model_ok = abs(f_q - predicted) <= 1e-6 * (abs(f) + abs(f_q)) + 1e-12
                if model_ok or step_q >= 0.1:
                    candidates.append((step_q, f_q))
    if admissible(1.0, f_unit) and f_unit <= f + 0.5 * slope:
        # The unit step still captures at least half the linear decrease, so
        # the scaling of the direction is too timid (typical when curvature
        # pairs were rejected); march forward while the value keeps falling.
        step, f_step = 1.0, f_unit
        for _ in range(10):
            f_next = float(value(x + 2.0 * step * direction))
            if admissible(2.0 * step, f_next) and f_next < f_step:
                step, f_step = 2.0 * step, f_next
            else:
                break
        candidates.append((step, f_step))
    if candidates:
        return min(candidates, key=lambda c: c[1])[0]

    # Shrink with one-point interpolation, clipped to [0.1 t, 0.5 t] so the
    # step neither collapses nor stagnates.
    step, f_step = 1.0, f_unit
    for _ in range(_MAX_HALVINGS):
        denom = 2.0 * (f_step - f - slope * step) if np.isfinite(f_step) else 0.0
        proposal = -slope * step * step / denom if denom > 0.0 else 0.5 * step
        step = min(max(proposal, 0.1 * step), 0.5 * step)
        f_step = float(value(x + step * direction))
        if admissible(step, f_step):
            return step
    return 0.0
