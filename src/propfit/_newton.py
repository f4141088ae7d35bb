"""Newton solver for stacks of estimating equations, with Fisher scoring as fallback.

Each row of a stack is one equation ``G(theta) = 0``, the stationary
condition of an objective. Rows share only the array operations, never a
number, so a row's iterates are the same whatever else is in the stack. An
iteration takes the exact Newton step when it lowers both the objective and
``max|G|``; otherwise it halves the scoring step (the Jacobian replaced by
its expectation) until the objective falls. Near the root the objective
stops changing beyond rounding, so a change within a few ulps counts as no
rise when ``max|G|`` falls. A row has converged when ``max|G| <=
max(tol_absolute, tol_relative * scale)`` at its current iterate.

A row stops moving once it converges, finds no step, runs out of
iterations or fails. Non-convergence is not an error: the row's iterate with
the smallest ``max|G|`` comes back flagged. A row fails alone, with the
exception the one-row solve raises, when its equation is undefined or
non-finite at its start, its Hessian is non-finite or its scoring matrix is
singular.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import NonFiniteError, PropfitError, SingularError

_MAX_HALVINGS = 20
# Objective changes within this many ulps are rounding, not a rise.
_OBJECTIVE_ULPS = 8


class Point:
    """Iterates of a stack of equations, one row each.

    ``theta`` is ``(m, p)``; ``objective``, ``scale`` (the size ``max_j sum_i
    |c_i df_i/dtheta_j|`` of the terms of ``G = sum_i c_i grad f_i``), ``norm``
    (``max|G|``) and ``fault`` are ``(m,)``; ``residual`` is ``G``, ``(m, p)``.
    ``fault`` is 0 where the equation is defined and otherwise a code
    :meth:`error` explains.
    Subclasses build the step matrices in :meth:`jacobian` (which marks rows
    whose Jacobian is undefined in ``fault``) and :meth:`scoring`, and name
    every per-row attribute in ``ROWS`` so that :meth:`take` and :func:`join`
    can select and merge rows.
    """

    ROWS = ("theta", "objective", "residual", "scale", "norm", "fault")

    theta: np.ndarray
    objective: np.ndarray
    residual: np.ndarray
    scale: np.ndarray
    norm: np.ndarray
    fault: np.ndarray

    @property
    def defined(self) -> np.ndarray:
        return (self.fault == 0) & np.isfinite(self.norm)

    def take(self, index) -> "Point":
        """The rows ``index`` selects (a boolean mask or positions)."""
        new = copy.copy(self)
        for name in self.ROWS:
            setattr(new, name, getattr(self, name)[index])
        return new

    def jacobian(self) -> np.ndarray:
        raise NotImplementedError

    def scoring(self) -> np.ndarray:
        raise NotImplementedError

    def error(self, i: int) -> PropfitError:
        raise NotImplementedError


def join(pieces: list[Point]) -> Point:
    """The rows of ``pieces`` (points of one stack), in order."""
    if len(pieces) == 1:
        return pieces[0]
    new = copy.copy(pieces[0])
    for name in new.ROWS:
        setattr(new, name, np.concatenate([getattr(p, name) for p in pieces]))
    return new


@dataclass
class SolveResult:
    """Per row: the root (or best iterate), iterations run, convergence flag,
    ``max|G|`` and tolerance there, and the error of a failed row (whose
    numbers are NaN)."""

    theta: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    residual_norm: np.ndarray
    tolerance: np.ndarray
    errors: list

    def finish(self, rows, theta, iterations, converged: bool, norm, tol) -> None:
        if not rows.size:
            return
        self.theta[rows] = theta
        self.iterations[rows] = iterations
        self.converged[rows] = converged
        self.residual_norm[rows] = norm
        self.tolerance[rows] = tol


# ``evaluate(theta (m, p), rows (m,))``: the iterates of the equations in
# ``rows`` of the stack at ``theta``.
Evaluate = Callable[[np.ndarray, np.ndarray], Point]


def _solve_rows(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``matrix[i]^-1 rhs[i]`` per row; NaN rows where a matrix is singular."""
    if not len(rhs):
        return rhs.copy()
    try:
        return np.linalg.solve(matrix, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full_like(rhs, np.nan)
        for i in range(len(rhs)):
            try:
                out[i] = np.linalg.solve(matrix[i:i + 1], rhs[i:i + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                pass
        return out


def _no_rise(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    # An objective that is +inf on both sides leaves the decision to max|G|;
    # spacing(inf) is NaN, so only the first test can pass there.
    with np.errstate(invalid="ignore"):
        return (new <= old) | (new <= old + _OBJECTIVE_ULPS * np.spacing(np.abs(old)))


def _advance(evaluate: Evaluate, pt: Point, rows: np.ndarray):
    """One iteration of every row of ``pt``.

    Returns the next point of the rows that moved, their positions in ``pt``
    (ascending) and ``{position: error}`` for the rows that failed.
    """
    m = len(rows)
    failures = {}
    jacobian = pt.jacobian()
    live = np.arange(m)
    if pt.fault.any():
        for i in np.flatnonzero(pt.fault):
            failures[int(i)] = pt.error(i)
        live = np.flatnonzero(pt.fault == 0)
        jacobian = jacobian[live]
    norm, objective = pt.norm, pt.objective
    pieces, moved = [], []

    delta = _solve_rows(jacobian, -pt.residual[live])
    finite = np.isfinite(delta).all(axis=-1)
    tried, delta = (live, delta) if finite.all() else (live[finite], delta[finite])
    newton = np.zeros(m, dtype=bool)
    if tried.size:
        new = evaluate(pt.theta[tried] + delta, rows[tried])
        ok = new.defined & (new.norm < norm[tried]) & _no_rise(new.objective, objective[tried])
        if ok.all() and tried.size == m:
            return new, tried, failures
        if ok.any():
            pieces.append(new.take(ok))
            moved.append(tried[ok])
            newton[tried[ok]] = True

    need = live[~newton[live]]
    if need.size:
        sub = pt.take(need)
        step = _solve_rows(sub.scoring(), -sub.residual)
        singular = ~np.isfinite(step).all(axis=-1)
        for i in need[singular]:
            failures[int(i)] = SingularError("scoring matrix is singular at the iterate")
        pending, step = need[~singular], step[~singular]
        for _ in range(_MAX_HALVINGS):
            if not pending.size:
                break
            new = evaluate(pt.theta[pending] + step, rows[pending])
            old = objective[pending]
            ok = new.defined & ((new.objective < old)
                                | ((new.norm < norm[pending]) & _no_rise(new.objective, old)))
            if ok.any():
                pieces.append(new.take(ok))
                moved.append(pending[ok])
            pending, step = pending[~ok], 0.5 * step[~ok]

    if not moved:
        return None, np.zeros(0, dtype=int), failures
    if len(moved) == 1:
        return pieces[0], moved[0], failures
    positions = np.concatenate(moved)
    order = np.argsort(positions, kind="stable")
    return join(pieces).take(order), positions[order], failures


def solve(evaluate: Evaluate, theta0, *, tol_relative: float = 1e-8,
          tol_absolute: float = 1e-10, max_iter: int = 100) -> SolveResult:
    """Drive every row's ``G(theta)`` to zero from its row of ``theta0 (R, p)``.

    ``iterations`` counts the iterations each row ran, a last one that found
    no step included. ``evaluate`` flags, rather than raises, where an
    equation is undefined, and must not warn on a wild trial point.
    """
    theta0 = np.array(theta0, dtype=float)
    R = len(theta0)
    result = SolveResult(theta=np.full(theta0.shape, np.nan), iterations=np.zeros(R, dtype=int),
                         converged=np.zeros(R, dtype=bool), residual_norm=np.full(R, np.nan),
                         tolerance=np.full(R, np.nan), errors=[None] * R)
    rows = np.arange(R)
    pt = evaluate(theta0, rows)
    keep = pt.defined
    if not keep.all():
        for i in np.flatnonzero(~keep):
            result.errors[i] = pt.error(i) if pt.fault[i] else NonFiniteError(
                "estimating equation is non-finite at the starting point")
        pt, rows = pt.take(keep), rows[keep]
    best_theta, best_norm, best_scale = pt.theta, pt.norm, pt.scale
    # Active rows start together and leave when they stop, so they share a count.
    iterations = 0

    def stop(which) -> None:
        result.finish(rows[which], best_theta[which], iterations, False, best_norm[which],
                      np.maximum(tol_absolute, tol_relative * best_scale[which]))

    while rows.size:
        tol = np.maximum(tol_absolute, tol_relative * pt.scale)
        done = pt.norm <= tol
        if done.any():
            result.finish(rows[done], pt.theta[done], iterations, True, pt.norm[done], tol[done])
            go = ~done
            pt, rows = pt.take(go), rows[go]
            best_theta, best_norm, best_scale = best_theta[go], best_norm[go], best_scale[go]
            if not rows.size:
                break
        if iterations == max_iter:
            stop(slice(None))
            break
        iterations += 1

        nxt, moved, failures = _advance(evaluate, pt, rows)
        for i, exc in failures.items():
            result.errors[rows[i]] = exc
        if len(moved) < len(rows):
            stuck = np.ones(len(rows), dtype=bool)
            stuck[moved] = False
            stuck[list(failures)] = False
            stop(stuck)
            rows = rows[moved]
            best_theta, best_norm, best_scale = (best_theta[moved], best_norm[moved],
                                                 best_scale[moved])
        pt = nxt
        if rows.size:
            better = pt.norm < best_norm
            if better.all():
                best_theta, best_norm, best_scale = pt.theta, pt.norm, pt.scale
            elif better.any():
                best_theta = np.where(better[:, None], pt.theta, best_theta)
                best_norm = np.where(better, pt.norm, best_norm)
                best_scale = np.where(better, pt.scale, best_scale)
    return result
