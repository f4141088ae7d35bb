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

Every fit solves its own method's equation and nothing else: with
``start="auto"`` it starts at the model's data-driven hint, or at ones for
a model without one. :func:`fit_methods` fits several methods to a stack of
datasets that share their covariate, from one start and in one solve with a
row per (method, dataset), as one intersection scan finds every method's
dose; :func:`fit` is one method on a stack of one. Both are the one-curve
case of ``_fit_curves``, which also fits two curves in one stack, each row
with its own model and covariate, and joins each fit's curves.
A row's numbers do not depend on the other rows of its stack; a curve
stacked with a longer one is padded, which changes it only to rounding.
This module holds the table of equations (each method's weights and
objective) and the public API; :mod:`propfit._newton` solves them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._newton import _assign, _Data, _Equation, _point, _stack, _sum, solve
from .models import (
    FAULT_RESPONSE,
    FAULT_THETA,
    FAULT_VALUE,
    FAULT_ZERO_MEAN,
    Array,
    Dataset,
    ModelFunction,
    fault_error,
)

METHODS = ("ml", "ql", "wls", "dwls")
MODE_SEPARATE = "separate"  # the mode of a fit whose every curve has its own scale
# The code, in _fit_curves, of a fit with too few observations (no model's fault).
_TOO_FEW = -1


def _check_method(method: str) -> str:
    m = method.lower()
    if m not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return m


@dataclass(frozen=True)
class FitOptions:
    """Solver controls.

    A fit has converged when, at the current iterate, every component of
    the estimating equation ``G = sum_i c_i grad f_i`` meets ``|G_j| <=
    max(tol_residual * S_j, 64 eps F_j)``: ``S_j = sum_i |c_i
    df_i/dtheta_j|`` is the size of the terms of ``G_j`` and ``F_j = sum_i
    |c'_i f_i df_i/dtheta_j|`` its rounding level, which the solver
    computes (see :mod:`propfit._newton`). Both change with ``G_j`` when
    ``x`` or ``y`` change units, so the test does not depend on units, and
    the rounding floor makes every ``tol_residual`` reachable. A fit
    converges component by component; its ``tolerance`` is the largest
    bound, in its component's units, so it bounds nothing about the small
    components. ``start`` is a parameter vector (for a stack, one shared
    vector or one row per dataset) or ``"auto"``: each row's
    :attr:`~propfit.models.ModelFunction.start_hint`, or ones for a model
    without a hint. Other controls than a finite positive ``tol_residual``
    and an integer ``max_iter`` of at least 1 raise ``ValueError``.
    """

    tol_residual: float = 1e-8
    max_iter: int = 100
    start: object = "auto"

    def __post_init__(self):
        if not (0.0 < self.tol_residual < np.inf):
            raise ValueError(f"tolerances must be positive and finite, got {self.tol_residual}")
        if not isinstance(self.max_iter, (int, np.integer)) or self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1 and an integer, got {self.max_iter}")


@dataclass(frozen=True)
class FitResult:
    """One fit: of one curve, or of two (see
    :func:`~propfit.equivalent_dose.fit_two_curves`).

    ``theta_hat`` holds every curve's parameters in curve order. ``mode`` is
    ``"separate"`` when each curve has its own scale, with one entry per curve
    in ``sigma_hats``, and ``"common-sigma"`` when the curves share one, its
    one entry. ``sigma_hat``, the one scale the fit's formulae use, is the
    one curve's or the shared scale, or the separate curves' pooled with
    their divisors (:func:`scale_divisor`). ``tolerance`` is the largest
    per-component stop bound (:class:`FitOptions`): it says nothing of the
    small components.
    """

    method: str
    mode: str
    theta_hat: Array
    sigma_hats: tuple[float, ...]
    sigma_hat: float
    iterations: int
    converged: bool
    residual_norm: float
    tolerance: float


# The per-fit numbers a FitBatch holds as columns (one entry per row).
_NUMBERS = ("sigma_hat", "iterations", "converged", "residual_norm", "tolerance")


@dataclass(frozen=True)
class FitBatch:
    """Fits of one method to a stack of datasets (or of dataset pairs).

    Row ``r`` holds what :func:`fit` (or
    :func:`~propfit.equivalent_dose.fit_two_curves`) returns for dataset
    ``r``, or, where that fit raises, the exception in ``errors[r]`` and
    NaN numbers, with ``iterations`` 0 and ``converged`` False, for one
    curve or two in either mode. A failed row's exception is built once,
    from the fault code of its first failing curve; ``errors`` holds None
    elsewhere. ``tolerance`` is per row as in :class:`FitResult`.
    """

    method: str
    mode: str
    theta_hat: Array  # (R, p)
    sigma_hats: Array  # (R, 1), or (R, 2) for two curves fitted separately
    sigma_hat: Array  # (R,)
    iterations: Array
    converged: Array
    residual_norm: Array
    tolerance: Array
    errors: tuple

    def result(self, r: int) -> FitResult:
        """Row ``r`` as a :class:`FitResult`; raises the row's error if it failed."""
        if self.errors[r] is not None:
            raise self.errors[r]
        return FitResult(method=self.method, mode=self.mode, theta_hat=self.theta_hat[r].copy(),
                         sigma_hats=tuple(self.sigma_hats[r].tolist()),
                         **{name: getattr(self, name)[r].item() for name in _NUMBERS})


# ---------------------------------------------------------------------------
# Estimating equations
# ---------------------------------------------------------------------------

def _ql_objective(f: Array, y: Array, live: Array | None, n: Array) -> Array:
    q = y / f
    return np.where((q > 0.0).all(axis=-1), _sum(q - np.log(q), live), np.inf)


def _ml_objective(f: Array, y: Array, live: Array | None, n: Array) -> Array:
    # Profiled negative log-likelihood sum(log f) + n/2 log s^2, less sum(log y).
    q = y / f
    s2 = _sum((q - 1.0) ** 2, live) / n
    value = np.where(s2 > 0.0, 0.5 * n * np.log(s2) - _sum(np.log(q), live), -np.inf)
    return np.where((q > 0.0).all(axis=-1), value, np.inf)


# One row per method, in the order of ``METHODS``.
_EQUATIONS = (
    _Equation(  # ml
        weight=lambda f, y: y * (f - y) / f**3,
        dweight=lambda f, y: y * (3.0 * y - 2.0 * f) / f**4,
        scoring=lambda f, y: 1.0 / f**2,
        objective=_ml_objective,
        profiled=True),
    _Equation(  # ql
        weight=lambda f, y: (y - f) / f**2,
        dweight=lambda f, y: (f - 2.0 * y) / f**3,
        scoring=lambda f, y: -1.0 / f**2,
        objective=_ql_objective),
    _Equation(  # wls
        weight=lambda f, y: y * (y - f) / f**3,
        dweight=lambda f, y: y * (2.0 * f - 3.0 * y) / f**4,
        scoring=lambda f, y: -1.0 / f**2,
        objective=lambda f, y, live, n: 0.5 * _sum(((y - f) / f) ** 2, live)),
    _Equation(  # dwls
        weight=lambda f, y: (y - f) / y**2,
        dweight=lambda f, y: -1.0 / y**2,
        scoring=lambda f, y: -1.0 / y**2,
        objective=lambda f, y, live, n: 0.5 * _sum(((y - f) / y) ** 2, live),
        divides_by_f=False),
)


def equation_residual(method: str, model: ModelFunction, data: Dataset, theta,
                      sigma: float | None = None) -> Array:
    """Left-hand side of the method's estimating equation at ``theta``.

    For ``ml`` the optional ``sigma`` freezes the scale factor; when omitted
    the profiled value ``sqrt(mean(((y-f)/f)^2))`` at ``theta`` is used.
    """
    method = _check_method(method)
    if method == "dwls" and np.any(data.y <= 0.0):
        raise fault_error(model, FAULT_RESPONSE)
    pt = _point(_assign(_EQUATIONS, _stack(((model, data.x, data.y[None, :]),)),
                        [METHODS.index(method)]), model.check_theta(theta)[None, :], sigma)
    if pt.fault[0]:
        raise fault_error(model, int(pt.fault[0]))
    return pt.residual[0]


# ---------------------------------------------------------------------------
# Sigma estimates
# ---------------------------------------------------------------------------

def scale_divisor(method, n, p: int):
    """The divisor of the squared scale estimate of a ``method`` fit (a name,
    or an array of them) to ``n`` observations of a ``p``-parameter curve:
    ``n`` for ``ml``, whose scale is its maximum-likelihood one, ``n - p``
    for the others."""
    return np.where(np.asarray(method) == "ml", n, n - p)


def _squares(data: _Data, theta) -> tuple[Array, Array]:
    """Per row of ``data`` at ``theta``, ``sum(rel^2)`` of its relative
    residuals ``rel = (y - f)/f`` and a fault code (as
    :meth:`ModelFunction.eval` plus a zero mean)."""
    with np.errstate(all="ignore"):
        f = np.asarray(data.call("eval_fn", theta), dtype=float)
        fault = data.call("faults", theta)
        fault = np.where((fault == 0) & ~np.all(np.isfinite(f), axis=-1), FAULT_VALUE, fault)
        fault = np.where((fault == 0) & ~np.all(f != 0.0, axis=-1), FAULT_ZERO_MEAN, fault)
        return _sum(((data.y - f) / f) ** 2, data.live), fault


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def _fit_curves(curves, modes: dict[str, str], opts: FitOptions) -> dict[str, FitBatch]:
    """``{method: FitBatch}``, each method of ``modes`` (``{method: mode}``,
    lower-case) fitted in its mode to every row of ``curves``, one or two
    ``(model, x (n,), Y (R, n))`` with one ``R`` and ``p``, in one solve.
    Row ``r`` of a batch is the fit of row ``r`` of every curve, from
    ``opts.start``: ``"auto"`` (each model's hint, one call per curve, or
    ones for a model without one) or every curve's parameters in curve
    order (one vector, or one row per ``r``).

    A fit joins its curves' rows: parameters in curve order, the larger
    ``iterations``, ``residual_norm`` and ``tolerance``, and converged where
    every curve is. One int array holds each (method, curve, row)'s code
    (:func:`fault_error`, 0 for none): before the solve, too few
    observations (per curve, or in all for a pair from an explicit start),
    then DWLS's ``y <= 0``, then a non-finite start; where solved (no code
    at that curve or an earlier one, nor at a pair's other), the solver's
    code or, where it returned numbers, theirs (a failed pair's other row
    has 0). A fit fails with its first failing curve's code (one argmax over
    the curves): NaN numbers, ``iterations`` 0, ``converged`` False, and one
    exception, from that code and the curve's model.

    A separate fit has each curve's own scale and, as ``sigma_hat``, their
    pool with their divisors (:func:`scale_divisor`), or the one curve's. A
    ``"common-sigma"`` fit of two curves fits row ``r`` of both as one
    dataset of ``n1 + n2`` observations and ``2 p`` parameters with one
    scale, of the summed squares over the joint divisor. Its ML rows are a
    pair of solver rows (the scale couples them); another method's rows
    solve alone, since its equation does not involve the scale. A pair
    needs ``n1 + n2 > 2 p``, and from ``"auto"`` a hint for each curve,
    which a curve with ``n <= p`` does not have.
    """
    methods = [_check_method(m) for m in modes]
    paired = {m for m in methods if modes[m] != MODE_SEPARATE}
    C, p = len(curves), curves[0][0].p
    if paired and C != 2:
        raise ValueError("a pair takes one row of each of two curves")
    coupled = {m for m in paired if _EQUATIONS[METHODS.index(m)].profiled}
    auto = isinstance(opts.start, str)
    if auto and opts.start != "auto":
        raise ValueError(f"unknown start spec {opts.start!r}")
    joint = opts.start if auto else np.asarray(opts.start, dtype=float)
    if not auto and C > 1 and joint.shape[-1:] != (C * p,):
        raise ValueError(f"joint theta must have shape ({C * p},), got {joint.shape}")
    R = len(np.atleast_1d(curves[0][2]))
    blocks, start = [], []
    for c, (model, x, Y) in enumerate(curves):
        x, Y = np.asarray(x, dtype=float), np.asarray(Y, dtype=float)
        if Y.shape != (R, x.size):
            raise ValueError(f"Y must have shape (R, {x.size}), got {Y.shape}")
        n = x.size
        theta = np.full((R, p), np.nan)
        if not auto:  # this curve's part of the start
            theta = joint if C == 1 else joint[..., c * p:(c + 1) * p]
            if theta.shape not in ((p,), (R, p)):
                raise ValueError(f"theta must have shape ({p},), got {theta.shape}")
            theta = np.broadcast_to(theta, (R, p))
        elif n > p:  # a curve too short to fit has no hint
            theta = np.ones((R, p))
            if model.start_hint is not None and R:
                theta = np.asarray(model.start_hint(x, Y), dtype=float)
                if theta.shape != (R, p):
                    raise ValueError(f"start hint must return shape ({R}, {p}), got {theta.shape}")
        blocks.append((model, x, Y))
        start.append(theta)
    data, start, sizes = _stack(blocks), np.concatenate(start), [x.size for _, x, _ in blocks]
    # Per curve and row, the code of a fit that fails before the solve: a
    # curve too short to fit alone first, then (DWLS, whose weights divide
    # by y) a response y <= 0, then a non-finite start.
    nonfinite = np.where(np.isfinite(start).all(axis=-1), 0, FAULT_THETA).reshape(C, R)
    starts = np.where(np.array(sizes)[:, None] <= p, _TOO_FEW, nonfinite)
    responses = np.any(data.y <= 0.0, axis=-1).reshape(C, R)  # a pad repeats an observation
    dwls = np.where((starts != _TOO_FEW) & responses, FAULT_RESPONSE, starts)
    # A pair from an explicit start needs only more observations than
    # parameters in all; from "auto" it needs each curve's hint.
    pairs = starts if auto else np.where(sum(sizes) <= C * p, _TOO_FEW, nonfinite)
    # Position i * CR + c * R + r fits methods[i] to curve c's Y[r], which is
    # row c * R + r of ``data``; ``code`` holds its code. The stack holds the
    # positions whose fit has no code yet at their curve or an earlier one
    # (a pair's at either curve): first an ML pair's, as pairs of rows
    # (curve 1's row r, then curve 2's), then the others'.
    M, CR = len(methods), C * R
    code = np.array([pairs if m in paired else dwls if m == "dwls" else starts
                     for m in methods], dtype=int).reshape(M, C, R)
    skip = np.logical_or.accumulate(code != 0, axis=1)
    skip |= np.array([m in paired for m in methods], dtype=bool)[:, None, None] & skip[:, -1:]
    order = np.concatenate([np.zeros(0, dtype=int)] + [
        i * CR + np.arange(CR).reshape(C, R).T.ravel() for i, m in enumerate(methods)
        if m in coupled] + [i * CR + np.arange(CR) for i, m in enumerate(methods)
                            if m not in coupled])
    live = order[~skip.ravel()[order]]
    k, rows = np.array([METHODS.index(m) for m in methods], dtype=int)[live // CR], live % CR
    in_pairs = np.array([m in coupled for m in methods], dtype=bool)[live // CR]
    stack = replace(data[rows], pairs=int(np.count_nonzero(in_pairs)) // 2)
    sol = solve(_EQUATIONS, stack, start[rows], k, tol_relative=opts.tol_residual,
                max_iter=opts.max_iter)
    squares, fault = _squares(stack, sol.theta)
    # The solver's code where it returned no numbers, else that of its numbers.
    np.put(code, live, np.where(np.isnan(sol.theta[:, 0]), sol.fault, fault))
    # Each fit's first failing curve (0 if none) and its code, the fit's.
    first = np.argmax(code != 0, axis=1)
    failed = np.take_along_axis(code, first[:, None], axis=1)[:, 0]
    # A position keeps its solve's numbers only where its whole fit has no code.
    ok = failed.ravel()[live // CR * R + live % R] == 0
    columns = {"theta_hat": sol.theta, "iterations": sol.iterations, "squares": squares,
               "converged": sol.converged, "residual_norm": sol.residual_norm,
               "tolerance": sol.tolerance}
    for name, values in columns.items():
        full = np.full((M * CR,) + values.shape[1:],
                       np.nan if values.dtype.kind == "f" else 0, dtype=values.dtype)
        full[live[ok]] = values[ok]
        columns[name] = full.reshape((M, C, R) + values.shape[1:])
    out = {}
    for i, m in enumerate(methods):
        errors = [None] * R
        for r in np.flatnonzero(failed[i]):  # one exception per failed fit
            c, fault = first[i, r], int(failed[i, r])
            n, q = (sum(sizes), C * p) if m in paired and not auto else (sizes[c], p)
            errors[r] = (fault_error(blocks[c][0], fault) if fault != _TOO_FEW
                         else ValueError(f"need n > p observations, got n={n}, p={q}"))
        squares, dfs = columns["squares"][i], scale_divisor(m, np.array(sizes), p)
        sigma_hats = (np.sqrt(squares.sum(axis=0) / scale_divisor(m, sum(sizes), C * p))[:, None]
                      if m in paired else np.sqrt(squares.T / dfs))
        sigma_hat = sigma_hats[:, 0] if sigma_hats.shape[1] == 1 else np.sqrt(
            np.sum(dfs * np.square(sigma_hats), axis=1) / dfs.sum())
        out[m] = FitBatch(
            method=m, mode=modes[m], sigma_hats=sigma_hats, sigma_hat=sigma_hat,
            theta_hat=np.concatenate(columns["theta_hat"][i], axis=1),
            iterations=columns["iterations"][i].max(axis=0),
            converged=columns["converged"][i].all(axis=0),
            residual_norm=columns["residual_norm"][i].max(axis=0),
            tolerance=columns["tolerance"][i].max(axis=0), errors=tuple(errors))
    return out


def fit_methods(model: ModelFunction, x, Y, methods,
                opts: FitOptions | None = None) -> dict[str, FitBatch]:
    """Fit each of ``methods`` to each row of ``Y (R, n)``, all observed at
    ``x (n,)``, from one start; returns ``{method: FitBatch}``.

    The ``"auto"`` start is one hint call for the stack. One solve fits
    every (method, row) pair, and a fit's ``iterations`` are those of its
    own row. Row ``r`` of a batch is the fit of ``Dataset(x, Y[r])``, bit for
    bit, and fails alone where that fit raises (see :class:`FitBatch`):
    with ``n <= p`` every row fails. A start whose shape does not fit the
    model raises for the whole call.
    """
    modes = dict.fromkeys((m.lower() for m in methods), MODE_SEPARATE)
    return _fit_curves(((model, x, Y),), modes, opts or FitOptions())


def fit(model: ModelFunction, data: Dataset, method: str,
        opts: FitOptions | None = None) -> FitResult:
    """Fit one estimator to one dataset: a stack of one for :func:`fit_methods`.

    ``iterations`` counts the iterations of this method's solve, which starts
    at ``opts.start`` (with ``"auto"``, the model's hint).
    """
    return fit_methods(model, data.x, data.y[None, :], (method,), opts)[method.lower()].result(0)
