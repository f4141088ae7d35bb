"""Newton solver for estimating equations, with Fisher scoring as fallback.

Each equation ``G(theta) = 0`` solved here is the stationary condition of an
objective. An iteration takes the exact Newton step when it lowers both the
objective and ``max|G|``; otherwise it halves the scoring step (the Jacobian
replaced by its expectation) until the objective falls. Near the root the
objective stops changing beyond rounding, so a change within a few ulps
counts as no rise when ``max|G|`` falls. Convergence is ``max|G| <=
max(tol_absolute, tol_relative * scale)`` at the current iterate.
Non-convergence is not an error: the iterate with the smallest ``max|G|``
comes back flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import NonFiniteError, PropfitError, SingularError

_MAX_HALVINGS = 20
# Objective changes within this many ulps are rounding, not a rise.
_OBJECTIVE_ULPS = 8


@dataclass(frozen=True)
class Point:
    """One iterate: objective, equation ``G = sum_i c_i grad f_i``, the size
    ``scale = max_j sum_i |c_i df_i/dtheta_j|`` of its terms, and the two step
    matrices, built only when a step needs them."""

    theta: np.ndarray
    objective: float
    residual: np.ndarray
    scale: float
    jacobian: Callable[[], np.ndarray]
    scoring: Callable[[], np.ndarray]

    @property
    def norm(self) -> float:
        return float(np.max(np.abs(self.residual)))


@dataclass
class SolveResult:
    theta: np.ndarray
    iterations: int
    converged: bool
    residual_norm: float
    tolerance: float


Evaluate = Callable[[np.ndarray], Point]


def _trial(evaluate: Evaluate, theta: np.ndarray) -> Point | None:
    """The iterate at ``theta``; None where the equation is undefined."""
    try:
        with np.errstate(all="ignore"):  # a wild step is rejected, not reported
            pt = evaluate(theta)
    except PropfitError:
        return None
    return pt if np.all(np.isfinite(pt.residual)) else None


def _step(matrix: np.ndarray, residual: np.ndarray) -> np.ndarray | None:
    try:
        delta = np.linalg.solve(matrix, -residual)
    except np.linalg.LinAlgError:
        return None
    return delta if np.all(np.isfinite(delta)) else None


def _no_rise(new: Point, old: Point) -> bool:
    # An objective that is +inf on both sides leaves the decision to max|G|.
    finite = np.isfinite(old.objective)
    slack = _OBJECTIVE_ULPS * np.spacing(abs(old.objective)) if finite else 0.0
    return new.objective <= old.objective + slack


def _next_point(evaluate: Evaluate, pt: Point) -> Point | None:
    delta = _step(pt.jacobian(), pt.residual)
    if delta is not None:
        new = _trial(evaluate, pt.theta + delta)
        if new is not None and new.norm < pt.norm and _no_rise(new, pt):
            return new
    delta = _step(pt.scoring(), pt.residual)
    if delta is None:
        raise SingularError("scoring matrix is singular at the iterate")
    for _ in range(_MAX_HALVINGS):
        new = _trial(evaluate, pt.theta + delta)
        if new is not None and (new.objective < pt.objective
                                or (new.norm < pt.norm and _no_rise(new, pt))):
            return new
        delta = 0.5 * delta
    return None


def solve(evaluate: Evaluate, theta0, *, tol_relative: float = 1e-8,
          tol_absolute: float = 1e-10, max_iter: int = 100) -> SolveResult:
    """Drive ``G(theta)`` to zero from ``theta0``.

    ``evaluate`` returns the :class:`Point` at a parameter vector and raises
    :class:`PropfitError` where the equation is undefined. ``iterations``
    counts the iterations run, a last one that found no step included.
    """
    pt = evaluate(np.asarray(theta0, dtype=float).copy())
    if not np.all(np.isfinite(pt.residual)):
        raise NonFiniteError("estimating equation is non-finite at the starting point")
    best, iterations = pt, 0
    while True:
        tol = max(tol_absolute, tol_relative * pt.scale)
        if pt.norm <= tol:
            return SolveResult(pt.theta, iterations, True, pt.norm, tol)
        if iterations == max_iter:
            break
        iterations += 1
        nxt = _next_point(evaluate, pt)
        if nxt is None:
            break
        pt = nxt
        if pt.norm < best.norm:
            best = pt
    return SolveResult(best.theta, iterations, False, best.norm,
                       max(tol_absolute, tol_relative * best.scale))
