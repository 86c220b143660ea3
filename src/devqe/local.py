"""Local minimizers used as inner VQE drivers.

Central finite-difference gradients, fixed-step gradient descent, and BFGS
with Armijo backtracking.  Every objective evaluation — including the 2D
points of each finite-difference stencil — is charged to the evaluation tally.

Batch protocol: an objective may have a `batch(xs)` method that takes an
(R, D) block of points and returns their R values, each equal to what a call
on that row returns.  One row counts as one evaluation.  `evaluate_rows` is
the one place that chooses between `batch` and one call per row; every block
(a DE generation, an FD stencil) goes through it and is charged in full.
Single points (line searches, steps) are plain calls.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

MAX_BACKTRACKS = 40
CURVATURE_FLOOR = 1e-12


class GradientError(RuntimeError):
    """Non-finite value in the finite-difference stencil."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


@dataclass
class LocalOptConfig:
    grad_step: float = 1e-6
    max_iters: int = 200
    grad_tol: float = 1e-6
    gd_learning_rate: float = 0.1
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5

    def __post_init__(self):
        for name in ("grad_step", "grad_tol", "gd_learning_rate"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        iters = self.max_iters
        if isinstance(iters, bool) or not isinstance(iters, numbers.Integral) or iters < 0:
            raise ValueError("max_iters must be an integer >= 0")
        if not 0.0 < self.armijo_c < 1.0:
            raise ValueError("armijo_c must lie in (0, 1)")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError("backtrack_factor must lie in (0, 1)")


@dataclass
class LocalResult:
    x: np.ndarray
    fun: float
    evaluations: int
    iterations: int
    stop_reason: str


def evaluate_rows(objective, xs) -> np.ndarray:
    """The objective's values on the rows of an (R, D) block: one
    `objective.batch(xs)` call when it has that method, else one call per row."""
    batch = getattr(objective, "batch", None)
    if batch is not None:
        return np.asarray(batch(xs), dtype=float)
    return np.array([float(objective(x)) for x in xs])


def fd_gradient(objective, x, h: float) -> np.ndarray:
    """Central-difference gradient, 2 evaluations per coordinate.

    The stencil is x + h e_j, x - h e_j for j = 0, 1, ...  All 2D points go
    to the objective as one (2D, D) block (`evaluate_rows`), so all of them
    are evaluated even when one is not finite; the GradientError names the
    first coordinate with a non-finite value.
    """
    x = np.asarray(x, dtype=float)
    steps = h * np.eye(x.size)
    points = np.empty((2 * x.size, x.size))
    points[0::2] = x + steps
    points[1::2] = x - steps
    values = evaluate_rows(objective, points).tolist()
    grad = np.empty_like(x)
    for j in range(x.size):
        fp, fm = values[2 * j], values[2 * j + 1]
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise GradientError(f"non-finite stencil value at coordinate {j}", j)
        grad[j] = (fp - fm) / (2.0 * h)
    return grad


class _Counted:
    """The objective with a tally of evaluated points: one per call, and one
    per row of a block."""

    def __init__(self, objective):
        self.objective = objective
        self.n = 0

    def __call__(self, x):
        self.n += 1
        return float(self.objective(x))

    def batch(self, xs):
        self.n += len(xs)
        return evaluate_rows(self.objective, xs)


def gradient_descent(objective, x0, config: LocalOptConfig, callback=None) -> LocalResult:
    """Fixed-step descent x <- x - lr * g; stops on grad_tol, max_iters, or the
    first step that would increase the objective."""
    f = _Counted(objective)
    x = np.asarray(x0, dtype=float).copy()
    fx = f(x)
    if callback is not None:
        callback(x, fx, f.n)
    stop_reason = "max_iters"
    iterations = 0
    for _ in range(config.max_iters):
        grad = fd_gradient(f, x, config.grad_step)
        if np.linalg.norm(grad) < config.grad_tol:
            stop_reason = "grad_tol"
            break
        x_new = x - config.gd_learning_rate * grad
        f_new = f(x_new)
        if f_new > fx:
            stop_reason = "non_improvement"
            break
        x, fx = x_new, f_new
        iterations += 1
        if callback is not None:
            callback(x, fx, f.n)
    return LocalResult(
        x=x,
        fun=fx,
        evaluations=f.n,
        iterations=iterations,
        stop_reason=stop_reason,
    )


def bfgs_minimize(
    objective, x0, config: LocalOptConfig, callback=None, hessian_log=None
) -> LocalResult:
    """BFGS with an Armijo backtracking line search.

    The inverse-Hessian update is skipped when the curvature product s.y falls
    at or below 1e-12.  A line search that fails to improve after 40
    backtracks returns the best point seen with stop_reason "line_search_failed".
    If `hessian_log` is a list, the inverse-Hessian approximation is appended
    after every iteration.
    """
    f = _Counted(objective)
    x = np.asarray(x0, dtype=float).copy()
    dim = x.size
    fx = f(x)
    grad = fd_gradient(f, x, config.grad_step)
    h_inv = np.eye(dim)
    if callback is not None:
        callback(x, fx, f.n)
    stop_reason = "max_iters"
    iterations = 0

    for _ in range(config.max_iters):
        if np.linalg.norm(grad) < config.grad_tol:
            stop_reason = "grad_tol"
            break
        direction = -h_inv @ grad
        slope = float(grad @ direction)
        if slope >= 0.0:
            # fall back to steepest descent if the model lost descent
            direction = -grad
            slope = float(grad @ direction)
        alpha = 1.0
        x_new = None
        for _bt in range(MAX_BACKTRACKS):
            cand = x + alpha * direction
            f_cand = f(cand)
            if f_cand <= fx + config.armijo_c * alpha * slope:
                x_new, f_new = cand, f_cand
                break
            alpha *= config.backtrack_factor
        if x_new is None:
            stop_reason = "line_search_failed"
            break
        grad_new = fd_gradient(f, x_new, config.grad_step)
        s = x_new - x
        y = grad_new - grad
        sy = float(s @ y)
        if sy > CURVATURE_FLOOR:
            rho = 1.0 / sy
            eye = np.eye(dim)
            left = eye - rho * np.outer(s, y)
            right = eye - rho * np.outer(y, s)
            h_inv = left @ h_inv @ right + rho * np.outer(s, s)
        x, fx, grad = x_new, f_new, grad_new
        iterations += 1
        if hessian_log is not None:
            hessian_log.append(h_inv.copy())
        if callback is not None:
            callback(x, fx, f.n)

    return LocalResult(
        x=x,
        fun=fx,
        evaluations=f.n,
        iterations=iterations,
        stop_reason=stop_reason,
    )
