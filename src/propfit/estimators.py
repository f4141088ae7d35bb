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
case of ``_fit_curves``, whose stack holds several curves, each row with its
own model and covariate.
A row's numbers do not depend on the other rows of its stack; a curve
stacked with a longer one is padded, which changes it only to rounding.
This module holds the table of equations (each method's weights and
objective) and the public API; :mod:`propfit._newton` solves them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from ._newton import _assign, _Data, _Equation, _point, _stack, _sum, solve
from .exceptions import ZeroResponseError, first_errors
from .models import (
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
    the rounding floor makes every ``tol_residual`` reachable. The fit's
    ``tolerance`` is the largest of these bounds. ``start`` is a parameter
    vector (for a stack, one shared vector or one row per dataset) or
    ``"auto"``: each row's :attr:`~propfit.models.ModelFunction.start_hint`,
    or ones for a model without a hint.
    """

    tol_residual: float = 1e-8
    max_iter: int = 100
    start: object = "auto"

    def __post_init__(self):
        if self.tol_residual <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class FitResult:
    """One fit: of one curve, or of two (see
    :func:`~propfit.equivalent_dose.fit_two_curves`).

    ``theta_hat`` holds every curve's parameters in curve order. ``mode`` is
    ``"separate"`` when each curve has its own scale, with one entry per curve
    in ``sigma_hats``, and ``"common-sigma"`` when the curves share one, its
    one entry. ``sigma_hat``, the one scale the fit's formulae use, is the
    one curve's or the shared scale, or the separate curves' pooled with
    their divisors (:func:`scale_divisor`).
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
    ``r``, or, where that fit raises, NaN numbers and the exception in
    ``errors[r]``.
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


def _dwls_response_errors(Y: Array) -> tuple:
    """Per row of ``Y (R, n)``, DWLS's error (its weights divide by y), or None if all y > 0."""
    return tuple(ZeroResponseError("data-weighted least squares requires all y > 0")
                 if bad else None for bad in np.any(Y <= 0.0, axis=1))


def equation_residual(method: str, model: ModelFunction, data: Dataset, theta,
                      sigma: float | None = None) -> Array:
    """Left-hand side of the method's estimating equation at ``theta``.

    For ``ml`` the optional ``sigma`` freezes the scale factor; when omitted
    the profiled value ``sqrt(mean(((y-f)/f)^2))`` at ``theta`` is used.
    """
    method = _check_method(method)
    if method == "dwls" and (error := _dwls_response_errors(data.y[None, :])[0]) is not None:
        raise error
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


def _one_row(model: ModelFunction, data: Dataset, theta_hat, method: str) -> float:
    squares, fault = _squares(_stack(((model, data.x, data.y[None, :]),)),
                              model.check_theta(theta_hat)[None, :])
    if fault[0]:
        raise fault_error(model, int(fault[0]))
    return float(np.sqrt(squares[0] / scale_divisor(method, data.n, model.p)))


def estimate_sigma_ml(model: ModelFunction, data: Dataset, theta_hat) -> float:
    """Maximum-likelihood scale: sqrt(mean of squared relative residuals)."""
    return _one_row(model, data, theta_hat, "ml")


def estimate_sigma_unbiased(model: ModelFunction, data: Dataset, theta_hat) -> float:
    """Degrees-of-freedom corrected scale: divisor n - p instead of n, as in
    every fit's scale but ML's (:func:`scale_divisor`)."""
    if data.n <= model.p:
        raise ValueError(f"need n > p, got n={data.n}, p={model.p}")
    return _one_row(model, data, theta_hat, "ql")


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def _fit_curves(curves, methods, opts: FitOptions, paired=()) -> list[dict[str, FitBatch]]:
    """Per curve of ``curves``, ``(model, x (n,), Y (R, n), start)`` with one
    ``R`` and ``p``, :func:`fit_methods`'s batches, from one solve that fits
    every (method, curve, row). An ``"auto"`` start is the model's hint, one
    call per curve, or ones for a model without one.

    A method of ``paired`` (two curves) fits row ``r`` of both curves as one
    dataset of ``n1 + n2`` observations and ``p1 + p2`` parameters with one
    scale. Both curves' batches carry that fit's ``sigma_hat`` and error, so
    its rows fail together, with the first error in curve order; each keeps
    its own row's ``theta_hat`` and solver columns, which :func:`_join`
    joins. An ML pair is one pair of solver rows (its scale couples them);
    another method's equation does not involve the scale, so its rows solve
    alone.
    A pair needs ``n1 + n2 > p1 + p2``, and from an ``"auto"`` start a hint
    for each curve, which a curve with ``n <= p`` does not have.
    """
    methods = list(dict.fromkeys(_check_method(m) for m in methods))
    paired = {_check_method(m) for m in paired}
    if paired and len(curves) != 2:
        raise ValueError("a pair takes one row of each of two curves")
    coupled = {m for m in paired if _EQUATIONS[METHODS.index(m)].profiled}
    R = len(np.atleast_1d(curves[0][2]))
    blocks, start, start_errors, theta_errors, responses = [], [], [], [], []
    for model, x, Y, spec in curves:
        x, Y = np.asarray(x, dtype=float), np.asarray(Y, dtype=float)
        if Y.shape != (R, x.size):
            raise ValueError(f"Y must have shape (R, {x.size}), got {Y.shape}")
        n, p = x.size, model.p
        theta = np.full((R, p), np.nan)
        if not isinstance(spec, str):
            theta = np.asarray(spec, dtype=float)
            if theta.shape not in ((p,), (R, p)):
                raise ValueError(f"theta must have shape ({p},), got {theta.shape}")
            theta = np.broadcast_to(theta, (R, p))
        elif spec != "auto":
            raise ValueError(f"unknown start spec {spec!r}")
        elif n > p:  # a curve too short to fit has no hint
            theta = np.ones((R, p))
            if model.start_hint is not None and R:
                theta = np.asarray(model.start_hint(x, Y), dtype=float)
                if theta.shape != (R, p):
                    raise ValueError(f"start hint must return shape ({R}, {p}), got {theta.shape}")
        blocks.append((model, x, Y))
        start.append(theta)
        theta_errors.append(tuple(None if ok else fault_error(model, FAULT_THETA)
                                  for ok in np.all(np.isfinite(theta), axis=-1)))
        # A row too short to fit alone fails with this error before any other.
        short = (ValueError(f"need n > p observations, got n={n}, p={p}"),) * R if n <= p else ()
        start_errors.append(short or theta_errors[-1])
        responses.extend(short or _dwls_response_errors(Y))
    data, start = _stack(blocks), np.concatenate(start)
    C, p, sizes = len(curves), start.shape[1], [x.size for _, x, _ in blocks]
    # A pair from an explicit start needs only more observations than
    # parameters in all; from "auto" it needs each curve's hint.
    pair_errors = first_errors(*start_errors)
    if paired and not isinstance(curves[0][3], str):
        pair_errors = ((ValueError(f"need n > p observations, got n={sum(sizes)}, "
                                   f"p={C * p}"),) * R if sum(sizes) <= C * p
                       else first_errors(*theta_errors))
    start_errors = [e for errs in start_errors for e in errs]
    dwls_errors = first_errors(responses, start_errors)
    # Position i * CR + c * R + r fits methods[i] to curve c's Y[r], which is
    # row c * R + r of ``data``. The stack holds the positions with no error
    # yet: first an ML pair's, as pairs of rows (curve 1's row r, then curve
    # 2's), then the others'.
    CR = C * R
    errors = [e for m in methods for e in (pair_errors * C if m in paired else
                                           dwls_errors if m == "dwls" else start_errors)]
    order = np.concatenate([np.zeros(0, dtype=int)] + [
        i * CR + np.arange(CR).reshape(C, R).T.ravel() for i, m in enumerate(methods)
        if m in coupled] + [i * CR + np.arange(CR) for i, m in enumerate(methods)
                            if m not in coupled])
    live = order[[errors[o] is None for o in order]]
    k, rows = np.array([METHODS.index(m) for m in methods], dtype=int)[live // CR], live % CR
    in_pairs = np.array([m in coupled for m in methods], dtype=bool)[live // CR]
    stack = replace(data[rows], pairs=int(np.count_nonzero(in_pairs)) // 2)
    sol = solve(_EQUATIONS, stack, start[rows], k, tol_relative=opts.tol_residual,
                max_iter=opts.max_iter)
    squares, fault = _squares(stack, sol.theta)
    for i, (error, code) in enumerate(zip(sol.errors, fault)):
        if error or code:
            errors[live[i]] = error or fault_error(stack.model(i), int(code))
    pairs = [(slice(a, a + R), slice(a + R, a + CR))
             for i, m in enumerate(methods) if m in paired for a in [i * CR]]
    for one, two in pairs:
        errors[one] = errors[two] = first_errors(errors[one], errors[two])
    ok = np.array([errors[r] is None for r in live], dtype=bool)
    columns = {"theta_hat": sol.theta, "iterations": sol.iterations, "squares": squares,
               "converged": sol.converged, "residual_norm": sol.residual_norm,
               "tolerance": sol.tolerance}
    for name, values in columns.items():
        columns[name] = np.full((len(errors),) + values.shape[1:],
                                np.nan if values.dtype.kind == "f" else 0, dtype=values.dtype)
        columns[name][live[ok]] = values[ok]
    for one, two in pairs:
        v = columns["squares"]
        v[one] = v[two] = v[one] + v[two]
    divisor = [scale_divisor(m, sum(sizes), C * p) if m in paired else scale_divisor(m, n, p)
               for m in methods for n in sizes]
    columns["sigma_hat"] = np.sqrt(columns.pop("squares") / np.repeat(divisor, R))
    columns["sigma_hats"] = columns["sigma_hat"][:, None]
    return [{m: FitBatch(method=m, mode=MODE_SEPARATE, errors=tuple(errors[a:a + R]),
                         **{name: v[a:a + R] for name, v in columns.items()})
             for i, m in enumerate(methods) for a in [i * CR + c * R]}
            for c in range(C)]


# How a fit of several curves joins its curves' columns, one rule per column.
_JOINS = {"theta_hat": partial(np.concatenate, axis=1), "iterations": partial(np.max, axis=0),
          "converged": partial(np.all, axis=0), "residual_norm": partial(np.max, axis=0),
          "tolerance": partial(np.max, axis=0)}


def _join(batches, mode: str, sigma_hats: Array, sigma_hat: Array) -> FitBatch:
    """One method's fits of several curves, row by row, from each curve's
    batch of ``_fit_curves``, in ``mode`` with the scales given: every
    curve's parameters in curve order, the larger iterations, residual norm
    and tolerance, converged where every curve is, and the first error in
    curve order."""
    return FitBatch(method=batches[0].method, mode=mode, sigma_hats=sigma_hats,
                    sigma_hat=sigma_hat, errors=first_errors(*(b.errors for b in batches)),
                    **{name: join([getattr(b, name) for b in batches])
                       for name, join in _JOINS.items()})


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
    opts = opts or FitOptions()
    return _fit_curves(((model, x, Y, opts.start),), methods, opts)[0]


def fit(model: ModelFunction, data: Dataset, method: str,
        opts: FitOptions | None = None) -> FitResult:
    """Fit one estimator to one dataset: a stack of one for :func:`fit_methods`.

    ``iterations`` counts the iterations of this method's solve, which starts
    at ``opts.start`` (with ``"auto"``, the model's hint).
    """
    return fit_methods(model, data.x, data.y[None, :], (method,), opts)[method.lower()].result(0)
