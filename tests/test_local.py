"""Finite-difference gradients, gradient descent, and BFGS."""

import numpy as np
import pytest

from devqe.local import (
    GradientError,
    LocalOptConfig,
    bfgs_minimize,
    fd_gradient,
    gradient_descent,
)


def rosenbrock(x):
    x = np.asarray(x, dtype=float)
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


NOT_POSITIVE_OR_FINITE = [0.0, -0.1, float("nan"), float("inf")]


class TestLocalOptConfig:
    @pytest.mark.parametrize("value", NOT_POSITIVE_OR_FINITE)
    def test_grad_step_rejected(self, value):
        with pytest.raises(ValueError, match="grad_step"):
            LocalOptConfig(grad_step=value)

    @pytest.mark.parametrize("value", NOT_POSITIVE_OR_FINITE)
    def test_grad_tol_rejected(self, value):
        with pytest.raises(ValueError, match="grad_tol"):
            LocalOptConfig(grad_tol=value)

    @pytest.mark.parametrize("value", NOT_POSITIVE_OR_FINITE)
    def test_gd_learning_rate_rejected(self, value):
        # a zero rate never moves; a NaN rate would accept a NaN step
        with pytest.raises(ValueError, match="gd_learning_rate"):
            LocalOptConfig(gd_learning_rate=value)

    @pytest.mark.parametrize("value", [-1, 2.5, True])
    def test_max_iters_rejected(self, value):
        with pytest.raises(ValueError, match="max_iters"):
            LocalOptConfig(max_iters=value)

    def test_zero_max_iters_returns_the_start(self):
        result = bfgs_minimize(rosenbrock, np.array([0.3, -0.4]), LocalOptConfig(max_iters=0))
        assert result.x.tolist() == [0.3, -0.4]
        assert result.stop_reason == "max_iters"


class TestFdGradient:
    def test_quadratic(self):
        grad = fd_gradient(lambda x: float(x @ x), np.array([1.0, 2.0]), 1e-6)
        assert np.allclose(grad, [2.0, 4.0], atol=1e-6)

    def test_constant(self):
        grad = fd_gradient(lambda x: 3.0, np.array([0.3, -0.7, 2.0]), 1e-6)
        assert np.allclose(grad, 0.0)

    def test_sine(self):
        grad = fd_gradient(lambda x: float(np.sin(x[0])), np.array([0.0]), 1e-6)
        assert abs(grad[0] - 1.0) < 1e-8

    def test_low_degree_polynomials_order_h_squared(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.normal(size=3)
            b = rng.normal(size=3)
            c = rng.normal()
            x = rng.normal(size=3)
            h = 1e-4

            def poly(v):
                return float(v @ (a * v) + b @ v + c)

            grad = fd_gradient(poly, x, h)
            exact = 2.0 * a * x + b
            assert np.max(np.abs(grad - exact)) < 10.0 * h**2

    def test_non_finite_stencil_reports_index(self):
        def bad(x):
            return np.nan if x[1] > 0.5 else float(x @ x)

        with pytest.raises(GradientError) as excinfo:
            fd_gradient(bad, np.array([0.0, 0.5]), 1e-6)
        assert excinfo.value.index == 1

    def test_exact_evaluation_count(self):
        calls = {"n": 0}

        def f(x):
            calls["n"] += 1
            return float(x @ x)

        fd_gradient(f, np.zeros(7), 1e-6)
        assert calls["n"] == 14


def cubic(x):
    """A smooth test function built from elementwise products only, so a
    row-by-row and a whole-block evaluation agree bit for bit."""
    value = 0.0
    for j in range(x.shape[-1]):
        xj = x[..., j]
        value = value + (j + 1.0) * xj * xj * xj - xj * x[..., 0] + 0.5 * xj
    return value


class Batched:
    """An objective with the batch protocol: rows of a block in one call."""

    def __init__(self, fn):
        self.fn = fn
        self.points = 0
        self.blocks = 0

    def __call__(self, x):
        self.points += 1
        return float(self.fn(np.asarray(x)))

    def batch(self, xs):
        self.points += len(xs)
        self.blocks += 1
        return self.fn(np.asarray(xs))


def loop_fd_gradient(objective, x, h):
    """The point-by-point central-difference loop, as a reference."""
    grad = np.empty_like(x)
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = h
        grad[j] = (float(objective(x + step)) - float(objective(x - step))) / (2.0 * h)
    return grad


class TestFdGradientBatch:
    def test_same_gradient_and_count_as_point_by_point(self):
        x = np.random.default_rng(31).uniform(-1.0, 1.0, 6)
        batched, plain = Batched(cubic), Batched(cubic)
        grad = fd_gradient(batched, x, 1e-6)
        assert np.array_equal(grad, fd_gradient(lambda v: plain(v), x, 1e-6))
        assert np.array_equal(grad, loop_fd_gradient(cubic, x, 1e-6))
        assert batched.points == plain.points == 12
        assert batched.blocks == 1 and plain.blocks == 0

    def test_sa_energy_objective_batch_matches_point_by_point(self, h4_integrals):
        from devqe.ansatz import default_ansatz
        from devqe.savqe import Sector, _CountedObjective

        sector = Sector.build(h4_integrals, default_ansatz(4, 4))
        batched, plain = _CountedObjective(sector, (0.5, 0.5)), _CountedObjective(sector, (0.5, 0.5))
        x = np.random.default_rng(32).uniform(-0.5, 0.5, 8)
        grad = fd_gradient(batched, x, 1e-6)
        assert np.array_equal(grad, fd_gradient(lambda v: plain(v), x, 1e-6))
        assert batched.calls == plain.calls == 16

    @pytest.mark.parametrize("bad_row", range(8))
    def test_same_error_index(self, bad_row):
        x = np.array([0.1, -0.2, 0.3, 0.4])
        points = [x + s * 1e-3 * np.eye(4)[j] for j in range(4) for s in (1.0, -1.0)]

        def nan_at_bad_row(v):
            hit = np.all(v == points[bad_row], axis=-1)
            return np.where(hit, np.nan, cubic(v))

        batched, plain = Batched(nan_at_bad_row), Batched(nan_at_bad_row)
        with pytest.raises(GradientError) as from_batch:
            fd_gradient(batched, x, 1e-3)
        with pytest.raises(GradientError) as from_points:
            fd_gradient(lambda v: plain(v), x, 1e-3)
        assert from_batch.value.index == from_points.value.index == bad_row // 2
        # the whole stencil is evaluated either way, as one block or point by point
        assert batched.points == plain.points == 8

    @pytest.mark.parametrize("minimize", [gradient_descent, bfgs_minimize])
    def test_objective_released_without_garbage_collection(self, minimize):
        # the evaluation counter must not form a reference cycle: one would
        # keep a batch objective (in VQE, its compiled operators) alive until
        # a full collection, and the process's memory would grow run by run
        import gc
        import weakref

        objective = Batched(cubic)
        alive = weakref.ref(objective)
        gc.disable()
        try:
            minimize(objective, np.array([0.3, -0.4]), LocalOptConfig(max_iters=3))
            del objective
            assert alive() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("minimize", [gradient_descent, bfgs_minimize])
    def test_optimizers_same_run_with_batch(self, minimize):
        config = LocalOptConfig(max_iters=30, gd_learning_rate=0.05)
        x0 = np.array([0.3, -0.4, 0.2])
        batched, plain = Batched(cubic), Batched(cubic)
        seen = {"batched": [], "plain": []}
        a = minimize(batched, x0, config, callback=lambda *ev: seen["batched"].append(ev[1:]))
        b = minimize(lambda v: plain(v), x0, config, callback=lambda *ev: seen["plain"].append(ev[1:]))
        assert np.array_equal(a.x, b.x)
        assert (a.fun, a.evaluations, a.iterations, a.stop_reason) == (
            b.fun, b.evaluations, b.iterations, b.stop_reason
        )
        assert seen["batched"] == seen["plain"] and len(seen["plain"]) > 2
        assert a.evaluations == batched.points == plain.points
        assert batched.blocks > 0


class TestGradientDescent:
    def test_one_step_quadratic(self):
        # lr = 0.5 sends x - 0.5 * 2x to (FD-exactly) zero in one step
        result = gradient_descent(
            lambda x: float(x[0] ** 2),
            np.array([3.0]),
            LocalOptConfig(gd_learning_rate=0.5),
        )
        assert abs(result.x[0]) < 1e-9
        assert result.stop_reason == "grad_tol"
        assert result.iterations <= 2

    def test_bowl_converges(self):
        config = LocalOptConfig(gd_learning_rate=0.1, max_iters=200)
        result = gradient_descent(
            lambda x: float(np.sum(np.asarray(x) ** 2)), np.array([1.0, 1.0]), config
        )
        grad = fd_gradient(
            lambda x: float(np.sum(np.asarray(x) ** 2)), result.x, 1e-6
        )
        assert np.linalg.norm(grad) < 1e-6
        assert result.stop_reason == "grad_tol"

    def test_counts_include_stencil(self):
        calls = {"n": 0}

        def f(x):
            calls["n"] += 1
            return float(np.sum(np.asarray(x) ** 2))

        result = gradient_descent(f, np.array([0.5, 0.5]), LocalOptConfig(max_iters=10))
        assert result.evaluations == calls["n"]

    def test_steps_never_increase_objective(self):
        # a rate small enough that the run takes steps (0.9 stops before the first)
        config = LocalOptConfig(gd_learning_rate=1e-3, max_iters=100)
        values = []
        gradient_descent(
            rosenbrock, np.array([0.0, 0.0]), config,
            callback=lambda x, fx, evals: values.append(fx),
        )
        assert len(values) >= 10
        assert all(b <= a for a, b in zip(values, values[1:]))


class TestBfgs:
    def test_already_at_minimum_returns_immediately(self):
        result = bfgs_minimize(
            lambda x: float(np.sum(np.asarray(x) ** 2)),
            np.zeros(3),
            LocalOptConfig(),
        )
        assert result.iterations == 0
        assert result.stop_reason == "grad_tol"
        assert np.array_equal(result.x, np.zeros(3))

    def test_rosenbrock_classic(self):
        result = bfgs_minimize(
            rosenbrock, np.array([-1.2, 1.0]), LocalOptConfig(max_iters=200)
        )
        assert result.iterations <= 200
        assert np.max(np.abs(result.x - 1.0)) < 1e-5

    def test_spd_diagonal_quadratic(self):
        a = np.array([1.0, 10.0])

        def f(x):
            return float(0.5 * np.sum(a * np.asarray(x) ** 2))

        result = bfgs_minimize(
            f, np.array([2.0, -1.0]), LocalOptConfig(max_iters=50, grad_tol=1e-9)
        )
        assert result.iterations <= 50
        assert np.max(np.abs(result.x)) < 1e-8

    def test_inverse_hessian_stays_spd(self):
        log = []
        bfgs_minimize(
            rosenbrock,
            np.array([-1.2, 1.0]),
            LocalOptConfig(max_iters=100),
            hessian_log=log,
        )
        assert log
        for h_inv in log:
            np.linalg.cholesky(h_inv)  # raises if not positive definite
            assert np.allclose(h_inv, h_inv.T, atol=1e-12)

    def test_accepted_steps_never_increase(self):
        values = []
        bfgs_minimize(
            rosenbrock, np.array([-1.2, 1.0]), LocalOptConfig(),
            callback=lambda x, fx, evals: values.append(fx),
        )
        assert len(values) > 1
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_line_search_failure_returns_best_so_far(self):
        # piecewise-linear min at 0 with asymmetric slopes: the FD gradient at
        # x0 = 0 is nonzero, but every candidate step increases f
        def f(x):
            return float(max(x[0], -2.0 * x[0]))

        result = bfgs_minimize(f, np.array([0.0]), LocalOptConfig())
        assert result.stop_reason == "line_search_failed"
        assert result.x[0] == 0.0
        assert result.fun == 0.0

    def test_counts_exact(self):
        calls = {"n": 0}

        def f(x):
            calls["n"] += 1
            return rosenbrock(x)

        result = bfgs_minimize(f, np.array([0.5, 0.5]), LocalOptConfig(max_iters=30))
        assert result.evaluations == calls["n"]
