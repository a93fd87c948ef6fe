import numpy as np
import pytest

from puselect.estimators import TrainingProtocol, fit_psychm
from puselect.objective import RegConfig
from puselect.optimize import NonFiniteError, OptimizerConfig, minimize
from puselect.synth import GeneratorConfig, generate


def _pair(value, grad):
    """The (value, value_and_grad) pair that minimize takes."""
    return value, lambda w: (value(w), grad(w))


def _quadratic(matrix):
    def value(w):
        return float(0.5 * w @ matrix @ w)

    def grad(w):
        return matrix @ w

    return _pair(value, grad)


def rosenbrock(x):
    return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)


def rosenbrock_grad(x):
    return np.array(
        [-400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]), 200.0 * (x[1] - x[0] ** 2)]
    )


def test_simple_quadratic_converges():
    value, grad = _quadratic(2.0 * np.eye(2))
    cfg = OptimizerConfig(grad_tol=1e-6, max_iters=10000)
    result = minimize(value, grad, np.array([3.0, 4.0]), cfg)
    assert result.converged
    assert np.linalg.norm(result.params) <= 1e-5


def test_rosenbrock_quasi_newton():
    cfg = OptimizerConfig(max_iters=500, grad_tol=1e-9)
    result = minimize(*_pair(rosenbrock, rosenbrock_grad), np.array([-1.2, 1.0]), cfg)
    assert result.loss < 1e-6
    np.testing.assert_allclose(result.params, [1.0, 1.0], atol=1e-4)


def test_stationary_start_returns_immediately():
    value, grad = _quadratic(np.eye(3))
    result = minimize(value, grad, np.zeros(3), OptimizerConfig())
    assert result.converged
    assert result.iterations == 0
    np.testing.assert_allclose(result.params, np.zeros(3), atol=1e-12)


def test_determinism_bitwise():
    value, grad = _quadratic(np.diag([1.0, 7.0, 0.3]))
    cfg = OptimizerConfig(max_iters=500)
    first = minimize(value, grad, np.array([1.0, -2.0, 3.0]), cfg)
    second = minimize(value, grad, np.array([1.0, -2.0, 3.0]), cfg)
    assert first.params.tobytes() == second.params.tobytes()
    assert first.loss == second.loss
    assert first.iterations == second.iterations


def test_best_iterate_retention():
    # Every accepted step passes the Armijo test, so the returned iterate
    # is the lowest of all the iterates evaluated, and on a non-convex
    # function stopped early it is still no worse than the start.
    seen = []

    def recording(w):
        v, g = rosenbrock(w), rosenbrock_grad(w)
        seen.append(v)
        return v, g

    init = np.array([-1.2, 1.0])
    cfg = OptimizerConfig(max_iters=15, grad_tol=1e-12)
    result = minimize(rosenbrock, recording, init, cfg)
    assert result.iterations == 15 and not result.converged
    assert result.loss == min(seen) == seen[-1]
    assert result.loss < rosenbrock(init)
    assert result.loss == rosenbrock(result.params)


@pytest.mark.parametrize("dim", [2, 5, 10, 20])
def test_quadratic_converges_within_budget(dim):
    rng = np.random.default_rng(dim)
    for _ in range(5):
        basis = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
        spectrum = rng.uniform(1.0, 100.0, size=dim)
        matrix = basis @ np.diag(spectrum) @ basis.T
        value, grad = _quadratic(matrix)
        cfg = OptimizerConfig(grad_tol=1e-8, max_iters=200, history_size=max(10, dim))
        result = minimize(value, grad, 5.0 * rng.normal(size=dim), cfg)
        assert result.converged
        # The smallest eigenvalue is at least 1, so |x| <= |g|.
        assert np.linalg.norm(result.params) <= 1e-8


def test_non_finite_objective_raises_with_iterate():
    # A non-finite loss at the start leaves no point to fall back to.
    def failing(w):
        return float("nan"), np.zeros(2)

    init = np.array([-1.2, 1.0])
    with pytest.raises(NonFiniteError) as err:
        minimize(rosenbrock, failing, init, OptimizerConfig())
    np.testing.assert_array_equal(err.value.iterate, init)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_probe_loss_shrinks_step(bad):
    # A probe whose loss is not finite fails sufficient decrease, whatever
    # its gradient, and the search retries nearer the iterate.
    probes = []

    def failing(w):
        probes.append(w.copy())
        if len(probes) == 2:  # the first probe, at the unit step
            return bad, np.full(2, np.nan)
        return rosenbrock(w), rosenbrock_grad(w)

    init = np.array([-1.2, 1.0])
    cfg = OptimizerConfig(max_iters=500, grad_tol=1e-9)
    result = minimize(rosenbrock, failing, init, cfg)
    unit, retry = probes[1] - init, probes[2] - init
    ratio = (retry @ unit) / (unit @ unit)
    assert 0.0 < ratio < 1.0
    np.testing.assert_allclose(retry, ratio * unit, rtol=1e-12, atol=1e-12)
    assert result.converged
    np.testing.assert_allclose(result.params, [1.0, 1.0], atol=1e-4)


def test_non_finite_gradient_raises():
    calls = {"n": 0}

    def grad(w):
        calls["n"] += 1
        if calls["n"] > 1:
            return np.array([np.nan])
        return 2.0 * w

    value = lambda w: float(w @ w)
    with pytest.raises(NonFiniteError):
        minimize(*_pair(value, grad), np.array([3.0]), OptimizerConfig())


def test_non_finite_init_rejected():
    value, grad = _quadratic(np.eye(1))
    with pytest.raises(NonFiniteError):
        minimize(value, grad, np.array([np.inf]), OptimizerConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(grad_tol=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=0)
    with pytest.raises(ValueError):
        OptimizerConfig(history_size=0)


@pytest.mark.parametrize("max_iters", [5, 500])
def test_value_is_never_called(max_iters):
    # Every line-search probe is one value_and_grad call, and the accepted
    # probe's loss and gradient serve the next iterate, so value is unused.
    calls = {"value": 0, "value_and_grad": 0}

    def value(x):
        calls["value"] += 1
        return rosenbrock(x)

    def value_and_grad(x):
        calls["value_and_grad"] += 1
        return rosenbrock(x), rosenbrock_grad(x)

    cfg = OptimizerConfig(max_iters=max_iters, grad_tol=1e-6)
    result = minimize(value, value_and_grad, np.array([-1.2, 1.0]), cfg)
    # Neither a converged nor a capped run stalled in a line search.
    assert result.converged or result.iterations == max_iters
    assert calls["value"] == 0
    assert calls["value_and_grad"] >= result.iterations + 1


def test_accepted_steps_meet_strong_wolfe_conditions():
    # Each accepted point is a recorded probe, and the step to it meets
    # sufficient decrease (c1 = 1e-4) and strong curvature (c2 = 0.9).
    probes = {}

    def recording(w):
        f, g = rosenbrock(w), rosenbrock_grad(w)
        probes[w.tobytes()] = (f, g)
        return f, g

    init = np.array([-1.2, 1.0])
    full = minimize(rosenbrock, recording, init, OptimizerConfig(max_iters=500, grad_tol=1e-9))
    assert full.converged and full.iterations > 20
    x_prev = init
    for k in range(1, full.iterations + 1):
        x_k = minimize(rosenbrock, recording, init, OptimizerConfig(max_iters=k, grad_tol=1e-9)).params
        (f_prev, g_prev), (f_k, g_k) = probes[x_prev.tobytes()], probes[x_k.tobytes()]
        step = x_k - x_prev
        slope = float(g_prev @ step)
        assert slope < 0.0
        assert f_k <= f_prev + 1e-4 * slope
        assert abs(float(g_k @ step)) <= 0.9 * abs(slope) * (1.0 + 1e-9)
        x_prev = x_k


def test_poorly_scaled_direction_reaches_the_line_minimum():
    # On this fit the line minimum of some searches lies near step 1e-4.
    # Clipping the cubic trial to the bracket's inner 80% shrinks the step
    # tenfold per probe and reaches it; bisecting stalls at loss 436.
    data = generate(GeneratorConfig(n=1667, seed=302))
    model = fit_psychm(
        data, RegConfig(1.0, 0.1),
        TrainingProtocol(optimizer=OptimizerConfig(max_iters=66), n_starts=1), seed=2,
    )
    assert model.diagnostics.loss <= 297.5
