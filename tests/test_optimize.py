import numpy as np
import pytest

from puselect.optimize import NonFiniteError, OptimizerConfig, minimize


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
def test_quadratic_terminates_within_dim_plus_five(dim):
    rng = np.random.default_rng(dim)
    for _ in range(5):
        basis = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
        spectrum = rng.uniform(1.0, 100.0, size=dim)
        matrix = basis @ np.diag(spectrum) @ basis.T
        value, grad = _quadratic(matrix)
        cfg = OptimizerConfig(grad_tol=1e-8, max_iters=200, history_size=max(10, dim))
        result = minimize(value, grad, 5.0 * rng.normal(size=dim), cfg)
        assert result.converged
        assert result.iterations <= dim + 5


def test_non_finite_objective_raises_with_iterate():
    # The line-search probes see a finite loss, but the loss evaluated at
    # the accepted point is not: the error carries that point.
    calls = {"n": 0}

    def failing(w):
        calls["n"] += 1
        f = float("nan") if calls["n"] == 3 else rosenbrock(w)
        return f, rosenbrock_grad(w)

    init = np.array([-1.2, 1.0])
    with pytest.raises(NonFiniteError) as err:
        minimize(rosenbrock, failing, init, OptimizerConfig())
    # The third call is the second accepted point.
    assert err.value.iterate.shape == (2,)
    assert rosenbrock(err.value.iterate) < rosenbrock(init)


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
def test_one_value_and_grad_call_per_iterate(max_iters):
    # The start and every iterate cost one value_and_grad call; only
    # line-search probes call value.
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
    assert calls["value_and_grad"] == result.iterations + 1
    assert calls["value"] >= result.iterations
