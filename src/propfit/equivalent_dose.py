"""Two-curve equivalent-dose machinery for the partial bleach design.

Two saturating exponentials are fitted to unbleached and bleached data sets;
the equivalent dose is the absolute value of the (negative) dose ``gamma``
where the curves intersect, found as a root of

    g(x, theta) = f1(x, alpha) - f2(x, beta) = 0.

For two saturating exponentials g's slope vanishes at most once, so g has at
most two roots (Rolle; Polya & Szego, *Problems and Theorems in Analysis* II,
Part V), and :func:`solve_gamma_batch` finds them on one fixed grid per row.

``beta1_from_gamma`` constructs the bleached scale so the true curves
intersect exactly at a chosen ``gamma``; :func:`dose_derivatives_batch`
solves for and differentiates the implicit root in the six joint parameters
for a stack of parameter rows (one joint theta is the stack
``theta[None, :]``); :func:`formulae`, the one builder of every fit's
bias, covariance and delta-method dose (one curve or two), pushes the
parameter-level formulae through those derivatives.

Fitting supports two modes. ``separate`` fits each curve on its own (each
with its own scale estimate). ``common-sigma`` fits the two curves as one
dataset sharing one relative-error scale; this changes the
maximum-likelihood estimates (the profiled scale couples the curves, whose
rows the solver takes as pairs) but not QL or WLS, and its formulae use the
two curves' Jacobian bundles joined into one. DWLS has no scale, so it
always fits separately.
Every entry point takes each method's mode from :func:`resolve_modes`,
the one owner of this rule. :func:`fit_two_curves_methods` fits a stack of
dataset pairs, every method in one solve; :func:`fit_two_curves` is one
method on a stack of one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .asymptotics import bias_cov
from .estimators import (
    MODE_SEPARATE,
    FitBatch,
    FitOptions,
    FitResult,
    _fit_curves,
)
from .exceptions import (
    DomainError,
    ModeError,
    MultipleRootWarning,
    NoBracketError,
    PropfitError,
    TangencyError,
    outside_stacklevel,
)
from .jacobian import JacobianBundle, _build_bundles, build_jacobian_bundles, join_bundles
from .models import (
    FAULT_GRADIENT,
    FAULT_HESSIAN,
    FAULT_VALUE,
    Array,
    Dataset,
    ModelFunction,
    fault_error,
    saturating_exponential_model,
)

MODE_COMMON_SIGMA = "common-sigma"
MODES = (MODE_SEPARATE, MODE_COMMON_SIGMA)
MODE_DEFAULT = "default"  # per-method: ML shares sigma, the rest fit separately


def resolve_modes(requested: str, methods) -> dict[str, str]:
    """``{method: mode}`` for each of ``methods`` under the ``requested`` mode:
    ``"default"`` gives ML the common scale and the rest separate fits; DWLS
    has no scale to share, so always fits separately. Raises
    :class:`ModeError` when ``common-sigma`` is requested but no method can
    share a scale."""
    if requested not in (MODE_DEFAULT,) + MODES:
        raise ValueError(f"unknown mode {requested!r}; expected one of {(MODE_DEFAULT,) + MODES}")
    modes = {m: MODE_SEPARATE if m == "dwls" else requested for m in map(str.lower, methods)}
    if requested == MODE_DEFAULT:
        modes = {m: MODE_COMMON_SIGMA if m == "ml" else MODE_SEPARATE for m in modes}
    if requested == MODE_COMMON_SIGMA and MODE_COMMON_SIGMA not in modes.values():
        raise ModeError("data-weighted least squares has no scale to share; "
                        "common-sigma mode needs ml, ql or wls")
    return modes


@dataclass(frozen=True)
class PartialBleachModel:
    """The pair of dose-response curves fitted in the partial bleach design,
    with one number of parameters: a model whose curves differ raises
    ``ValueError``."""

    curve1: ModelFunction
    curve2: ModelFunction

    def __post_init__(self):
        if self.curve1.p != self.curve2.p:
            raise ValueError(f"the curves must have one number of parameters, "
                             f"got {self.curve1.p} and {self.curve2.p}")

    @property
    def p(self) -> int:
        return self.curve1.p + self.curve2.p

    @property
    def param_names(self) -> tuple[str, ...]:
        return self.curve1.param_names + self.curve2.param_names

    def split(self, theta) -> tuple[Array, Array]:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.p,):
            raise ValueError(f"joint theta must have shape ({self.p},), got {theta.shape}")
        return theta[: self.curve1.p], theta[self.curve1.p:]


def partial_bleach_model() -> PartialBleachModel:
    """Unbleached and bleached saturating exponentials with labelled parameters."""
    c1 = saturating_exponential_model()
    # The curves share their callables, so a stack of both evaluates them in one call.
    c2 = replace(c1, name="saturating_exponential_bleached",
                 param_names=("beta1", "beta2", "beta3"))
    return PartialBleachModel(curve1=c1, curve2=c2)


# ---------------------------------------------------------------------------
# The intersection dose
# ---------------------------------------------------------------------------

def beta1_from_gamma(alpha, beta2: float, beta3: float, gamma: float) -> float:
    """Bleached-curve scale that forces an intersection exactly at ``gamma``.

    ``beta1 = alpha1 (1 - exp(-(gamma+alpha2)/alpha3)) / (1 - exp(-(gamma+beta2)/beta3))``.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (3,):
        raise ValueError("alpha must be a 3-vector")
    denom = 1.0 - np.exp(-(gamma + beta2) / beta3)
    numer = alpha[0] * (1.0 - np.exp(-(gamma + alpha[1]) / alpha[2]))
    if abs(denom) < 1e-14 * max(1.0, abs(numer)):
        raise DomainError("bleached curve vanishes at gamma; beta1 is undefined")
    return float(numer / denom)


# Iterations of the root polish; bisection alone halves the bracket each time.
_POLISH_MAX_ITER = 100


def _polish(model: PartialBleachModel, alpha: Array, beta: Array, a: Array, b: Array,
            ga: Array, gb: Array, xtol: Array) -> Array:
    """Roots of the gap in the brackets ``[a, b]`` (one per row, with a sign
    change, ``g(a) = ga`` and ``g(b) = gb``), by Newton steps on the analytic
    slope from the secant's root, falling back to bisection outside the
    bracket. A row stops, keeping its value, at an exact zero or at the
    Newton root of a step within ``xtol``; after ``_POLISH_MAX_ITER``
    iterations a row returns its last iterate."""
    x = b - gb * (b - a) / (gb - ga)
    done = np.zeros(x.size, dtype=bool)
    c1, c2 = model.curve1, model.curve2
    with np.errstate(all="ignore"):
        for _ in range(_POLISH_MAX_ITER):
            if done.all():
                break
            xa = x[:, None]
            g = (c1.eval_fn(xa, alpha) - c2.eval_fn(xa, beta))[:, 0]
            slope = (c1.dx_rows(xa, alpha) - c2.dx_rows(xa, beta))[:, 0]
            step = g / slope
            low = np.sign(g) == np.sign(ga)
            a, ga, b = np.where(low, x, a), np.where(low, g, ga), np.where(low, b, x)
            stop = (g == 0.0) | (np.abs(step) <= xtol)
            newton = x - step
            newton = np.where(stop | ((a < newton) & (newton < b)), newton, 0.5 * (a + b))
            x = np.where(done | (g == 0.0), x, newton)
            done |= stop
    return x


# The grid every row is searched on: 0 and -2**k for k = 0.._DEPTH. A
# saturating exponential overflows 709 rates below its shift, near -2**18
# for the bundled design's fits; curves that never overflow are searched
# down to -2**47.
_DEPTH = 47
_GRID = np.concatenate([[0.0], -np.exp2(np.arange(_DEPTH + 1))])
# The doses the log ratio of the curves' slopes is drawn through.
_ENDS = np.array([0.0, -1.0])


def _turning_points(model: PartialBleachModel, alpha: Array, beta: Array) -> Array:
    """Per row, the zero of the line through ``log(s1 / s2)`` at ``_ENDS``,
    ``s1`` and ``s2`` the curves' slopes in x: where the gap's slope is zero
    when each slope is one exponential in x (NaN where the line has none)."""
    with np.errstate(all="ignore"):
        ratio = np.log(model.curve1.dx_rows(_ENDS, alpha) / model.curve2.dx_rows(_ENDS, beta))
        return ratio[:, 0] / (ratio[:, 1] - ratio[:, 0])


def _roots(model: PartialBleachModel, theta) -> tuple[Array, tuple, int]:
    """:func:`solve_gamma_batch` without its warning, and the number of rows
    with more than one root: one evaluation of each curve on every row's
    grid, ``_GRID`` with the row's turning point inside it, in falling order."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 2 or theta.shape[1] != model.p:
        raise ValueError(f"joint theta must have shape (R, {model.p}), got {theta.shape}")
    R, p1 = len(theta), model.curve1.p
    alpha, beta = theta[:, :p1], theta[:, p1:]
    turn = _turning_points(model, alpha, beta)
    xs = np.empty((R, _GRID.size + 1))
    xs[:, :-1] = _GRID
    xs[:, -1] = np.where((_GRID[-1] < turn) & (turn < 0.0), turn, np.nan)
    xs = -np.sort(-xs, axis=1)  # a row without a turning point ends on NaN
    fs, faults = [], []
    for curve, t in ((model.curve1, alpha), (model.curve2, beta)):
        f, fault = curve.eval_rows(xs, t)
        # A mean that is non-finite only below 0 ends the row's range there.
        fs.append(f)
        faults.append(np.where((fault == FAULT_VALUE) & np.isfinite(f[:, 0]), 0, fault))
    with np.errstate(invalid="ignore"):  # both curves overflow far below zero
        g = fs[0] - fs[1]
    curve = np.where(faults[0] != 0, 1, 2)
    fault = np.where(faults[0] != 0, faults[0], faults[1])
    # A row's range ends at its first non-finite point going down from 0.
    inside = np.logical_and.accumulate(np.isfinite(g), axis=1) & (fault[:, None] == 0)
    zero = g == 0.0
    if zero.any():  # a run of zeros below a nonzero point is the means rounded alike
        run = np.zeros_like(zero)
        run[:, 1:-1] = (g[:, :-2] != 0.0) & zero[:, 1:-1] & zero[:, 2:]
        inside &= ~np.logical_or.accumulate(run, axis=1)  # the range ends above it
    sign = np.where(inside, np.sign(g), np.nan)
    events = np.zeros((R, 2 * xs.shape[1] - 1), dtype=bool)  # point k at 2k, cell below at 2k + 1
    events[:, ::2], events[:, 1::2] = sign == 0.0, sign[:, :-1] * sign[:, 1:] < 0.0
    counts, first = np.count_nonzero(events, axis=1), np.argmax(events, axis=1)
    gammas = np.full(R, np.nan)
    rows = np.flatnonzero(counts)
    k = first[rows] // 2
    gammas[rows] = xs[rows, k]  # an exact zero, or the top of a sign change
    cells = first[rows] % 2 == 1
    r, k = rows[cells], k[cells]
    a, b = xs[r, k + 1], xs[r, k]
    gammas[r] = _polish(model, alpha[r], beta[r], a, b, g[r, k + 1], g[r, k], 1e-8 * (b - a))
    errors: list = [None] * R
    for i in np.flatnonzero(fault):
        errors[i] = fault_error(model.curve1 if curve[i] == 1 else model.curve2, int(fault[i]))
    last = np.maximum(np.count_nonzero(inside, axis=1) - 1, 0)
    for i in np.flatnonzero((counts == 0) & (fault == 0)):
        errors[i] = NoBracketError(f"no sign change of the curve gap over [{xs[i, last[i]]:.6g}, 0]")
    return gammas, tuple(errors), int(np.count_nonzero(counts > 1))


def _warn_multiple_roots(several: int, rows: int) -> None:
    """Warn :class:`MultipleRootWarning` once, naming the line that called
    into propfit, when ``several`` of ``rows`` intersected rows have more
    than one root."""
    if several:
        warnings.warn(f"{several} of {rows} rows have more than one intersection root at or "
                      "below 0; each returns the one closest to zero", MultipleRootWarning,
                      stacklevel=outside_stacklevel())


def solve_gamma_batch(model: PartialBleachModel, theta) -> tuple[Array, tuple]:
    """:func:`solve_gamma` for every row of ``theta (R, p)`` at once.

    Returns the roots and, per row, the exception :func:`solve_gamma` raises
    for that row (None where it returns; such a row's root is NaN). Each
    row's grid, root and error are its own, whatever else is in the stack;
    one :class:`MultipleRootWarning` per call names how many rows have more
    than one root.
    """
    gammas, errors, several = _roots(model, theta)
    _warn_multiple_roots(several, len(gammas))
    return gammas, errors


def solve_gamma(model: PartialBleachModel, theta) -> float:
    """Signed intersection dose: the root of g(x, theta) closest to zero, at
    or below 0.

    Each curve is evaluated once on ``0``, ``-2**k`` for ``k = 0..47`` and
    the gap's turning point: the zero of the line through the log ratio of
    the curves' slopes at ``x = 0`` and ``x = -1``. Where each slope is one
    exponential in x (saturating exponential, exponential decay) the gap is
    monotone between those points, so each root is alone in its cell. The
    range ends where the gap first turns non-finite going down (the curves
    overflow), or above a run of exact zeros below a nonzero point (the
    means rounded alike). The first exact zero or sign change going down
    is the root; a sign change is polished by Newton steps on the curves'
    slope, kept in the cell by bisection, to the Newton root of the first
    step within ``1e-8`` of the cell's width. More than one root in the
    range warns :class:`MultipleRootWarning`; none raises
    :class:`NoBracketError`, stated over the range. A stack of one for
    :func:`solve_gamma_batch`.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.p,):
        raise ValueError(f"joint theta must have shape ({model.p},), got {theta.shape}")
    gammas, errors, several = _roots(model, theta[None, :])
    _warn_multiple_roots(several, 1)
    if errors[0] is not None:
        raise errors[0]
    return float(gammas[0])


def _implicit_derivatives(model: PartialBleachModel, theta: Array,
                          gamma: Array) -> tuple[Array, Array, list]:
    """Per row of ``theta (R, p)`` and its root ``gamma (R,)``: the gradient
    and Hessian of the implicit root gamma(theta) in the joint parameters,
    and the error of a row where they are undefined (None elsewhere; such a
    row's numbers mean nothing).

    Differentiating g(gamma(theta), theta) = 0 once and twice gives

      gamma' = -grad_theta g / g_x
      gamma'' = -[g_tt + g_xt gamma'^T + gamma' g_xt^T + g_xx gamma' gamma'^T] / g_x

    with all pieces evaluated at (gamma, theta). The mixed x/theta
    derivatives come from central differences of the analytic gradient and
    slope in x: each curve's gradient and slope are evaluated once for the
    stack, at gamma - h, gamma and gamma + h with
    ``h = cbrt(eps) * max(1, |gamma|)``, and its Hessian once, at gamma, on
    the rows that pass the tangency check. A row fails, first check first,
    where a curve's parameters are undefined there or its gradient is
    non-finite (curve 1, then curve 2), where the curves' slopes at gamma
    are equal to within 1e-12 relative (:class:`TangencyError`: the root is
    then not locally defined), or where a curve's Hessian is non-finite.
    """
    p1 = model.curve1.p
    curves = ((model.curve1, theta[:, :p1]), (model.curve2, theta[:, p1:]))
    h = float(np.cbrt(np.finfo(float).eps)) * np.maximum(1.0, np.abs(gamma))
    xs = np.stack([gamma - h, gamma, gamma + h], axis=1)
    errors: list = [None] * len(theta)

    def fail(which, error) -> None:
        """The rows ``which`` fail with ``error(r)``, unless they already have."""
        for r in which:
            if errors[r] is None:
                errors[r] = error(r)

    grads, slopes = [], []
    with np.errstate(all="ignore"):
        for curve, t in curves:
            fault = curve.faults(xs, t)
            fail(np.flatnonzero(fault), lambda r: fault_error(curve, int(fault[r])))
            grads.append(curve.grad_rows(xs, t))
            fail(np.flatnonzero(~np.all(np.isfinite(grads[-1]), axis=(1, 2))),
                 lambda r: fault_error(curve, FAULT_GRADIENT))
            slopes.append(curve.dx_rows(xs, t))
        (grad1, grad2), (dx1, dx2) = grads, slopes
        s1, s2 = dx1[:, 1], dx2[:, 1]
        g_x = s1 - s2
        tangent = np.abs(g_x) < 1e-12 * np.maximum(np.maximum(np.abs(s1), np.abs(s2)), 1e-300)
        fail(np.flatnonzero(tangent),
             lambda r: TangencyError("curves meet tangentially; dose gradient is undefined"))
        gp = -np.concatenate([grad1[:, 1], -grad2[:, 1]], axis=1) / g_x[:, None]
        rows = np.flatnonzero([e is None for e in errors])
        g_tt = np.zeros((len(theta), model.p, model.p))
        for (curve, t), block, sign in zip(curves, (slice(0, p1), slice(p1, None)), (1.0, -1.0)):
            H = curve.hess_rows(gamma[rows, None], t[rows])[:, 0]
            fail(rows[~np.all(np.isfinite(H), axis=(1, 2))],
                 lambda r: fault_error(curve, FAULT_HESSIAN))
            g_tt[rows, block, block] = sign * H
        two_h = (2 * h)[:, None]
        g_xt = np.concatenate([(grad1[:, 2] - grad1[:, 0]) / two_h,
                               -(grad2[:, 2] - grad2[:, 0]) / two_h], axis=1)
        g_xx = ((dx1[:, 2] - dx1[:, 0]) - (dx2[:, 2] - dx2[:, 0])) / (2 * h)
        hess = -(g_tt + g_xt[:, :, None] * gp[:, None, :] + gp[:, :, None] * g_xt[:, None, :]
                 + g_xx[:, None, None] * (gp[:, :, None] * gp[:, None, :])) / g_x[:, None, None]
    return gp, hess, errors


@dataclass(frozen=True)
class DoseEstimate:
    """Equivalent-dose summary: signed root plus delta-method bias and SE."""

    gamma_hat: float
    bias: float
    se: float
    method: str

    @property
    def equivalent_dose(self) -> float:
        return abs(self.gamma_hat)

    @property
    def equivalent_dose_bias(self) -> float:
        # |gamma| flips the bias sign when gamma is negative.
        return float(np.sign(self.gamma_hat) or 1.0) * self.bias


@dataclass(frozen=True)
class DoseDerivatives:
    """The intersection dose at a joint theta with its first and second
    derivatives in the six parameters."""

    gamma: float
    grad: Array
    hess: Array


def dose_derivatives_batch(model: PartialBleachModel, theta) -> tuple:
    """Solve for gamma at every row of ``theta (R, p)`` with one
    :func:`solve_gamma_batch` call and differentiate every root found in one
    array pass: per row its :class:`DoseDerivatives`, or the error solving
    or differentiating raised (a tangency, or a curve's non-finite gradient
    or Hessian at the root), the same as the row alone gives."""
    theta = np.asarray(theta, dtype=float)
    gammas, errors, several = _roots(model, theta)
    _warn_multiple_roots(several, len(gammas))
    found = np.flatnonzero([e is None for e in errors])
    grad, hess, failed = _implicit_derivatives(model, theta[found], gammas[found])
    out = list(errors)
    for i, r in enumerate(found):
        out[r] = failed[i] if failed[i] is not None else DoseDerivatives(
            float(gammas[r]), grad[i], hess[i])
    return tuple(out)


@dataclass(frozen=True)
class Formulae:
    """One fit's formula pieces at its theta, from :func:`formulae`: the
    Jacobian bundles behind its bias and covariance and, for two curves, its
    dose derivatives (None for one curve). A piece that could not be built
    holds its error, which the method that needs it raises."""

    method: str
    bundles: tuple[JacobianBundle, ...] | PropfitError
    dose: DoseDerivatives | PropfitError | None

    def bias_cov(self, sigma) -> tuple[Array, Array]:
        """:func:`~propfit.asymptotics.bias_cov` of the fit at ``sigma``, one
        scale or a 1-D array of them."""
        if isinstance(self.bundles, Exception):
            raise self.bundles
        return bias_cov(self.method, self.bundles, sigma)

    def estimate(self, bias: Array, cov: Array) -> DoseEstimate:
        """The fit's dose estimate from its parameters' bias vector and
        covariance, with the second-order delta-method bias and standard error:

            bias(gamma_hat) = gamma'^T bias(theta_hat) + tr(gamma'' Cov(theta_hat)) / 2

        The curvature term is the same order in sigma as the first and, on
        dose-response designs like the bundled one, comparable in size;
        dropping it puts the formula visibly below Monte Carlo.
        """
        if isinstance(self.dose, Exception):
            raise self.dose
        d = self.dose
        return DoseEstimate(gamma_hat=d.gamma,
                            bias=float(d.grad @ bias) + 0.5 * float(np.trace(d.hess @ cov)),
                            se=float(np.sqrt(max(d.grad @ cov @ d.grad, 0.0))),
                            method=self.method)


def formulae(model: PartialBleachModel | ModelFunction, xs, thetas,
             modes: dict[str, str] | None = None) -> dict[str, Formulae]:
    """Per method, the :class:`Formulae` of its fit at ``thetas[method]``,
    observed at the covariates ``xs`` (one per curve).

    A one-curve fit has one bundle. A two-curve fit has its dose and, in its
    mode ``modes[method]`` (from :func:`resolve_modes`), one bundle per curve
    for ``separate`` or, for ``common-sigma``, the one
    :func:`~propfit.jacobian.join_bundles` makes of them. Each curve gets one
    :func:`~propfit.jacobian.build_jacobian_bundles` stack with a row per
    method, and every dose comes from one :func:`dose_derivatives_batch`
    call. A piece keeps the :class:`PropfitError` building it
    raised; a fit with a failed bundle keeps the first, in curve order. A
    fit needs more observations than parameters: per curve when separate,
    in all when common-sigma; else the call raises ``ValueError``.
    """
    if not thetas:
        return {}
    methods = list(thetas)
    T = np.array([thetas[m] for m in methods], dtype=float)
    if isinstance(model, ModelFunction):
        return {m: Formulae(m, b if isinstance(b, Exception) else (b,), None)
                for m, b in zip(methods, build_jacobian_bundles(model, xs[0], T))}
    doses = dose_derivatives_batch(model, T)
    p1 = model.curve1.p
    curves = ((model.curve1, np.asarray(xs[0], dtype=float), T[:, :p1]),
              (model.curve2, np.asarray(xs[1], dtype=float), T[:, p1:]))
    sizes = [(x.size, curve.p) for curve, x, _ in curves]
    for method in methods:
        for n, p in ([np.sum(sizes, axis=0)] if modes[method] == MODE_COMMON_SIGMA else sizes):
            if n <= p:
                raise ValueError(f"need n > p observations, got n={n}, p={p}")
    built = [_build_bundles(*curve) for curve in curves]
    out = {}
    for i, method in enumerate(methods):
        bundles = tuple(b[i] for b in built)
        error = next((b for b in bundles if isinstance(b, Exception)), None)
        if error is None and modes[method] == MODE_COMMON_SIGMA:
            bundles = (join_bundles(bundles),)
        out[method] = Formulae(method, bundles if error is None else error, doses[i])
    return out


def gamma_bias_se(model: PartialBleachModel, x1, x2, theta, sigma: float, method: str,
                  fit_mode: str = MODE_DEFAULT) -> DoseEstimate:
    """Second-order delta-method bias and standard error of the intersection dose.

    Solves for gamma at ``theta`` and pushes the parameter-level order-
    sigma^2 bias vector and covariance (exact ML covariance for ``ml``,
    ``sigma^2 (J'J)^{-1}`` otherwise, assembled per ``fit_mode``) through
    the implicit-function derivatives of gamma: :func:`formulae` for one fit.
    """
    method = method.lower()
    row = formulae(model, (x1, x2), {method: theta}, resolve_modes(fit_mode, (method,)))[method]
    return row.estimate(*row.bias_cov(sigma))


# ---------------------------------------------------------------------------
# Two-curve fitting
# ---------------------------------------------------------------------------

def fit_two_curves_methods(model: PartialBleachModel, x1, Y1, x2, Y2, methods,
                           mode: str = MODE_DEFAULT,
                           opts: FitOptions | None = None) -> dict[str, FitBatch]:
    """Fit each of ``methods``, in the mode :func:`resolve_modes` gives it, to
    every row pair of ``Y1 (R, n1)`` and ``Y2 (R, n2)``, observed at ``x1``
    and ``x2``; returns ``{method: FitBatch}``, row ``r`` the fit of pair ``r``.

    Every fit is in one stack and one solve (see
    :func:`~propfit.estimators._fit_curves`, which joins the curves' rows
    and estimates the scales), each curve starting at its own hint with
    ``start="auto"`` and at its part of a joint start otherwise. A separate
    fit is each curve's own :func:`~propfit.estimators.fit_methods` rows,
    bit for bit, or to rounding for the shorter curve (padded), where both
    curves' fits succeed; where either fails, the fit's numbers are NaN. A
    common-sigma fit is one fit of both curves' observations with one scale.
    """
    curves = ((model.curve1, x1, Y1), (model.curve2, x2, Y2))
    return _fit_curves(curves, resolve_modes(mode, methods), opts or FitOptions())


def fit_two_curves(model: PartialBleachModel, data1: Dataset, data2: Dataset, method: str,
                   mode: str = MODE_DEFAULT, opts: FitOptions | None = None) -> FitResult:
    """Fit the two curves either independently or sharing one scale, in the
    mode :func:`resolve_modes` gives ``method``: a stack of one for
    :func:`fit_two_curves_methods`."""
    return fit_two_curves_methods(model, data1.x, data1.y[None, :], data2.x, data2.y[None, :],
                                  (method,), mode, opts)[method.lower()].result(0)
