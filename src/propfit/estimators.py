"""The four estimators for proportional-error regression.

Each estimator is the root of an estimating equation in theta:

* ``ml``   - profiled normal maximum likelihood: the relative-error scale
  ``sigma^2`` is re-estimated as ``mean(((y-f)/f)^2)`` at each iterate and
  substituted back into the score.
* ``ql``   - quasi likelihood: ``sum (y-f)/f^2 * grad f = 0``.
* ``wls``  - weighted least squares with fitted weights ``1/f^2``, which
  adds the term ``sum (y-f)^2/f^3 * grad f``.
* ``dwls`` - data-weighted least squares: weights ``1/y^2`` fixed by the
  observed responses, ``sum (y-f)/y^2 * grad f = 0``.

QL, WLS and DWLS estimates never depend on how (or whether) sigma is
estimated; their sigma is reported from the unbiased rule afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._newton import Point, SolveResult, solve
from .exceptions import DegenerateError, DomainError, ZeroMeanError, ZeroResponseError
from .models import Array, Dataset, ModelFunction

METHODS = ("ml", "ql", "wls", "dwls")


def _check_method(method: str) -> str:
    m = method.lower()
    if m not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return m


@dataclass(frozen=True)
class FitOptions:
    """Solver controls.

    A fit has converged when ``max|G| <= max(tol_absolute, tol_residual *
    scale)``, where ``G`` is the estimating equation and ``scale`` is
    ``max_j sum_i |c_i df_i/dtheta_j|``, the size of the terms of ``G =
    sum_i c_i grad f_i`` at the current iterate. ``start`` is either a
    parameter vector or ``"auto"``, which solves unweighted least squares
    from the model's data-driven hint first.
    """

    tol_residual: float = 1e-8
    tol_absolute: float = 1e-10
    max_iter: int = 100
    start: object = "auto"

    def __post_init__(self):
        if self.tol_residual <= 0 or self.tol_absolute <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class FitResult:
    method: str
    theta_hat: Array
    sigma_hat: float
    iterations: int
    converged: bool
    residual_norm: float
    tolerance: float


# ---------------------------------------------------------------------------
# Estimating equations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Equation:
    """An estimating equation ``G = sum_i c_i grad f_i`` and its objective.

    ``weight(f, y)`` is ``c``, ``dweight`` its derivative in ``f`` and
    ``scoring`` the signed weights ``w`` of the scoring matrix ``sum_i w_i
    grad f_i grad f_i'``. ``objective`` is stationary at the root and +inf
    outside its domain. ``profiled`` (ML) adds ``s^2/f`` to ``c``, with
    ``s^2 = mean(((y-f)/f)^2)``, and ``ds^2/dtheta`` to the Jacobian.
    """

    weight: Callable[[Array, Array], Array]
    dweight: Callable[[Array, Array], Array]
    scoring: Callable[[Array, Array], Array]
    objective: Callable[[Array, Array], float]
    divides_by_f: bool = True
    profiled: bool = False


def _ql_objective(f: Array, y: Array) -> float:
    q = y / f
    return float(np.sum(q - np.log(q))) if np.all(q > 0.0) else np.inf


def _ml_objective(f: Array, y: Array) -> float:
    # Profiled negative log-likelihood sum(log f) + n/2 log s^2, less sum(log y).
    q = y / f
    if not np.all(q > 0.0):
        return np.inf
    s2 = float(np.mean((q - 1.0) ** 2))
    return 0.5 * q.size * np.log(s2) - float(np.sum(np.log(q))) if s2 > 0.0 else -np.inf


_EQUATIONS = {
    "ml": _Equation(
        weight=lambda f, y: y * (f - y) / f**3,
        dweight=lambda f, y: y * (3.0 * y - 2.0 * f) / f**4,
        scoring=lambda f, y: 1.0 / f**2,
        objective=_ml_objective,
        profiled=True),
    "ql": _Equation(
        weight=lambda f, y: (y - f) / f**2,
        dweight=lambda f, y: (f - 2.0 * y) / f**3,
        scoring=lambda f, y: -1.0 / f**2,
        objective=_ql_objective),
    "wls": _Equation(
        weight=lambda f, y: y * (y - f) / f**3,
        dweight=lambda f, y: y * (2.0 * f - 3.0 * y) / f**4,
        scoring=lambda f, y: -1.0 / f**2,
        objective=lambda f, y: 0.5 * float(np.sum(((y - f) / f) ** 2))),
    "dwls": _Equation(
        weight=lambda f, y: (y - f) / y**2,
        dweight=lambda f, y: -1.0 / y**2,
        scoring=lambda f, y: -1.0 / y**2,
        objective=lambda f, y: 0.5 * float(np.sum(((y - f) / y) ** 2)),
        divides_by_f=False),
}

# Unweighted least squares: only the "auto" start solves it.
_OLS = _Equation(
    weight=lambda f, y: y - f,
    dweight=lambda f, y: np.full_like(f, -1.0),
    scoring=lambda f, y: np.full_like(f, -1.0),
    objective=lambda f, y: 0.5 * float(np.sum((y - f) ** 2)),
    divides_by_f=False)


def _parts(model: ModelFunction, data: Dataset, theta, need_f_nonzero: bool):
    # Hot path: validate once, then hit the raw eval/grad callables.
    theta = model.check_theta(theta)
    if model.domain_guard is not None and not model.domain_guard(data.x, theta):
        raise DomainError(f"model {model.name!r} is undefined at the requested point")
    f = np.asarray(model.eval_fn(data.x, theta), dtype=float)
    if need_f_nonzero and not np.all(f != 0.0):
        raise ZeroMeanError("mean response is zero at an observation")
    if model.grad_fn is not None:
        G = np.asarray(model.grad_fn(data.x, theta), dtype=float)
    else:
        G = model._fd_grad(data.x, theta)
    return f, G


def _point(eq: _Equation, model: ModelFunction, data: Dataset, theta,
           sigma: float | None = None) -> Point:
    """The solver's view of ``eq`` at ``theta``; ``sigma`` freezes ML's scale."""
    f, G = _parts(model, data, theta, need_f_nonzero=eq.divides_by_f)
    y = data.y
    c = eq.weight(f, y)
    if eq.profiled:
        s2 = float(np.mean(((y - f) / f) ** 2)) if sigma is None else float(sigma) ** 2
        c = c + s2 / f

    def jacobian():
        H = model.hess(data.x, theta)
        A = np.tensordot(c, H, axes=1) + (G * eq.dweight(f, y)[:, None]).T @ G
        if eq.profiled:
            J = G / f[:, None]
            ds2 = (-2.0 / data.n) * (G.T @ (y * (y - f) / f**3))
            A += np.outer(J.sum(axis=0), ds2) - s2 * (J.T @ J)
        return A

    def scoring():
        return (G * eq.scoring(f, y)[:, None]).T @ G

    return Point(theta=theta, objective=eq.objective(f, y), residual=G.T @ c,
                 scale=float(np.max(np.abs(c) @ np.abs(G))),
                 jacobian=jacobian, scoring=scoring)


def equation_residual(method: str, model: ModelFunction, data: Dataset, theta,
                      sigma: float | None = None) -> Array:
    """Left-hand side of the method's estimating equation at ``theta``.

    For ``ml`` the optional ``sigma`` freezes the scale factor; when omitted
    the profiled value ``sqrt(mean(((y-f)/f)^2))`` at ``theta`` is used.
    """
    method = _check_method(method)
    if method == "dwls" and np.any(data.y == 0.0):
        raise ZeroResponseError("data-weighted least squares requires all y != 0")
    return _point(_EQUATIONS[method], model, data, theta, sigma).residual


# ---------------------------------------------------------------------------
# Sigma estimates
# ---------------------------------------------------------------------------

def _rel_residuals(model: ModelFunction, data: Dataset, theta_hat) -> Array:
    f = np.asarray(model.eval(data.x, theta_hat), dtype=float)
    if np.any(f == 0.0):
        raise ZeroMeanError("mean response is zero at an observation")
    return (data.y - f) / f


def estimate_sigma_ml(model: ModelFunction, data: Dataset, theta_hat) -> float:
    """Maximum-likelihood scale: sqrt(mean of squared relative residuals)."""
    rel = _rel_residuals(model, data, theta_hat)
    return float(np.sqrt(np.mean(rel**2)))


def estimate_sigma_unbiased(model: ModelFunction, data: Dataset, theta_hat,
                            p: int | None = None) -> float:
    """Degrees-of-freedom corrected scale: divisor n - p instead of n."""
    p = model.p if p is None else int(p)
    if data.n <= p:
        raise ValueError(f"need n > p, got n={data.n}, p={p}")
    rel = _rel_residuals(model, data, theta_hat)
    return float(np.sqrt(np.sum(rel**2) / (data.n - p)))


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def _solve(eq: _Equation, model: ModelFunction, data: Dataset, theta0: Array,
           opts: FitOptions) -> SolveResult:
    return solve(lambda theta: _point(eq, model, data, theta), theta0,
                 tol_relative=opts.tol_residual, tol_absolute=opts.tol_absolute,
                 max_iter=opts.max_iter)


def _resolve_start(model: ModelFunction, data: Dataset, opts: FitOptions) -> tuple[Array, int]:
    """The starting vector and the iterations spent finding it."""
    if not isinstance(opts.start, str):
        return model.check_theta(np.asarray(opts.start, dtype=float)), 0
    if opts.start != "auto":
        raise ValueError(f"unknown start spec {opts.start!r}")
    if model.start_hint is not None:
        hint = model.check_theta(model.start_hint(data.x, data.y))
    else:
        hint = np.ones(model.p)
    pre = _solve(_OLS, model, data, hint, opts)
    return pre.theta, pre.iterations


def fit(model: ModelFunction, data: Dataset, method: str,
        opts: FitOptions | None = None) -> FitResult:
    """Fit one estimator; see the per-method wrappers for the contracts.

    ``iterations`` counts every solver iteration, those of the unweighted
    least-squares solve behind ``start="auto"`` included.
    """
    method = _check_method(method)
    opts = opts or FitOptions()
    if data.n <= model.p:
        raise ValueError(f"need n > p observations, got n={data.n}, p={model.p}")
    if method == "dwls" and np.any(data.y <= 0.0):
        raise ZeroResponseError("data-weighted least squares requires all y > 0")

    theta0, start_iterations = _resolve_start(model, data, opts)
    sol = _solve(_EQUATIONS[method], model, data, theta0, opts)
    if method == "ml":
        sigma_hat = estimate_sigma_ml(model, data, sol.theta)
        if sigma_hat == 0.0:
            f = np.asarray(model.eval(data.x, sol.theta), dtype=float)
            if np.any(data.y != f):
                raise DegenerateError("scale estimate collapsed to zero on non-interpolating data")
    else:
        sigma_hat = estimate_sigma_unbiased(model, data, sol.theta)
    return FitResult(method=method, theta_hat=sol.theta, sigma_hat=sigma_hat,
                     iterations=start_iterations + sol.iterations, converged=sol.converged,
                     residual_norm=sol.residual_norm, tolerance=sol.tolerance)


def fit_ml(model: ModelFunction, data: Dataset, opts: FitOptions | None = None) -> FitResult:
    """Profiled normal maximum likelihood: sigma is re-estimated at every iterate."""
    return fit(model, data, "ml", opts)


def fit_ql(model: ModelFunction, data: Dataset, opts: FitOptions | None = None) -> FitResult:
    """Quasi-likelihood estimator with variance function f^2."""
    return fit(model, data, "ql", opts)


def fit_wls(model: ModelFunction, data: Dataset, opts: FitOptions | None = None) -> FitResult:
    """Weighted least squares with fitted 1/f^2 weights."""
    return fit(model, data, "wls", opts)


def fit_dwls(model: ModelFunction, data: Dataset, opts: FitOptions | None = None) -> FitResult:
    """Data-weighted least squares with fixed 1/y^2 weights; requires y > 0."""
    return fit(model, data, "dwls", opts)
