"""Two-curve equivalent-dose machinery for the partial bleach design.

Two saturating exponentials are fitted to unbleached and bleached data sets;
the equivalent dose is the absolute value of the (negative) dose ``gamma``
where the curves intersect, found as a root of

    g(x, theta) = f1(x, alpha) - f2(x, beta) = 0.

``beta1_from_gamma`` constructs the bleached scale so the true curves
intersect exactly at a chosen ``gamma``; ``gamma_gradient`` differentiates
the implicit root in the six joint parameters; ``gamma_bias_se`` pushes the
parameter-level bias vectors and covariances through that gradient.

Fitting supports two modes. ``separate`` fits each curve on its own (each
with its own scale estimate). ``common-sigma`` stacks the two curves into a
single six-parameter model sharing one relative-error scale; this changes
the maximum-likelihood estimates (the profiled scale couples the curves) but
not QL or WLS, and is rejected for DWLS whose equations never contain the
scale at all.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .asymptotics import bias_cov
from .estimators import FitOptions, Start, fit_batch
from .exceptions import (
    DomainError,
    ModeError,
    MultipleRootWarning,
    NoBracketError,
    TangencyError,
    first_errors,
)
from .jacobian import JacobianBundle, build_jacobian_bundle
from .models import Array, Dataset, ModelFunction, fault_error, saturating_exponential_model

MODE_SEPARATE = "separate"
MODE_COMMON_SIGMA = "common-sigma"
MODES = (MODE_SEPARATE, MODE_COMMON_SIGMA)
MODE_DEFAULT = "default"  # per-method: ML shares sigma, the rest fit separately

DEFAULT_GRID_POINTS = 256


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    return mode


def resolve_mode(requested: str, method: str) -> str:
    """The fit mode ``method`` runs in: ``"default"`` gives ML the common scale
    and the rest separate fits; DWLS has no scale to share, so always fits
    separately."""
    if requested == MODE_DEFAULT:
        return MODE_COMMON_SIGMA if method == "ml" else MODE_SEPARATE
    if method == "dwls":
        return MODE_SEPARATE
    return requested


@dataclass(frozen=True)
class PartialBleachModel:
    """The pair of dose-response curves fitted in the partial bleach design."""

    curve1: ModelFunction
    curve2: ModelFunction

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

    def intersection_gap(self, x, theta) -> Array | float:
        """g(x, theta) = f1(x, alpha) - f2(x, beta)."""
        alpha, beta = self.split(theta)
        return self.curve1.eval(x, alpha) - self.curve2.eval(x, beta)


def partial_bleach_model() -> PartialBleachModel:
    """Unbleached and bleached saturating exponentials with labelled parameters."""
    c1 = saturating_exponential_model()
    c2 = replace(saturating_exponential_model(),
                 name="saturating_exponential_bleached",
                 param_names=("beta1", "beta2", "beta3"))
    return PartialBleachModel(curve1=c1, curve2=c2)


def stacked_model(model: PartialBleachModel, x1, x2) -> tuple[ModelFunction, Array]:
    """Fuse the two curves into one model over an observation-index covariate.

    Returns the joint six-parameter model and the index array ``0..n1+n2-1``
    to use as its covariate; the actual doses are baked into the closure.
    The stacked form makes a common-sigma fit an ordinary single-model fit.
    Its callables take ``theta (..., 6)`` like the curves' own.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    n1, n2 = x1.size, x2.size
    c1, c2 = model.curve1, model.curve2
    p1, p = c1.p, model.p
    full = np.arange(n1 + n2, dtype=float)

    def _split_idx(ix):
        idx = np.asarray(ix)
        if idx.shape == full.shape and np.array_equal(idx, full):
            return slice(0, n1), x1, slice(n1, None), x2
        first = idx < n1
        return first, x1[idx[first].astype(int)], ~first, x2[idx[~first].astype(int) - n1]

    def _blocks(ix, t, fn1, fn2, tail):
        sel1, d1, sel2, d2 = _split_idx(ix)
        out = np.zeros(t.shape[:-1] + (np.size(ix),) + tail)
        out[(..., sel1) + (slice(0, p1),) * len(tail)] = fn1(d1, t[..., :p1])
        out[(..., sel2) + (slice(p1, p),) * len(tail)] = fn2(d2, t[..., p1:])
        return out

    def guard(ix, t):
        ok1 = True if c1.domain_guard is None else c1.domain_guard(x1, t[..., :p1])
        ok2 = True if c2.domain_guard is None else c2.domain_guard(x2, t[..., p1:])
        return np.logical_and(ok1, ok2)

    joint = ModelFunction(
        name=f"{c1.name}+{c2.name}",
        p=p,
        param_names=model.param_names,
        eval_fn=lambda ix, t: _blocks(ix, t, c1.eval_fn, c2.eval_fn, ()),
        grad_fn=lambda ix, t: _blocks(ix, t, c1.grad_fn, c2.grad_fn, (p,)),
        hess_fn=lambda ix, t: _blocks(ix, t, c1.hess_fn, c2.hess_fn, (p, p)),
        domain_guard=guard,
    )
    return joint, full.copy()


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


def _default_brackets(model: PartialBleachModel, theta: Array) -> tuple[Array, Array]:
    """:func:`default_gamma_bracket` per row of ``theta (R, p)``."""
    p1 = model.curve1.p
    shift = np.minimum(theta[:, 1], theta[:, p1 + 1])
    lo = -shift - np.maximum(1e-3 * np.abs(shift), 1e-6)
    return np.where(lo < 0.0, lo, -1.0), np.zeros(len(theta))


def default_gamma_bracket(model: PartialBleachModel, theta) -> tuple[float, float]:
    """Scan range for the intersection: negative doses where both curves are live.

    Extends 0.1% below the smaller dose shift so an intersection sitting
    exactly at -min(alpha2, beta2), as for equal-shape curve pairs, is still
    bracketed.
    """
    lo, hi = _default_brackets(model, np.concatenate(model.split(theta))[None, :])
    return float(lo[0]), float(hi[0])


def _gap(model: PartialBleachModel, x: Array, alpha: Array, beta: Array):
    """``g(x)`` per row, and per row the first curve (1 or 2) whose evaluation
    faults and its fault code (0 where neither does)."""
    g1, fault1 = model.curve1.eval_rows(x, alpha)
    g2, fault2 = model.curve2.eval_rows(x, beta)
    return g1 - g2, np.where(fault1 != 0, 1, 2), np.where(fault1 != 0, fault1, fault2)


# Iterations of the root polish; bisection alone halves the bracket each time.
_POLISH_MAX_ITER = 100


def _polish(model: PartialBleachModel, alpha: Array, beta: Array, a: Array, b: Array,
            ga: Array, xtol: Array) -> Array:
    """Roots of the gap in the brackets ``[a, b]`` (one per row, with a sign
    change and ``g(a) = ga``), by Newton steps on the analytic slope that
    fall back to bisection outside the bracket; stops once a step is below
    ``xtol``."""
    x = 0.5 * (a + b)
    root = np.empty_like(x)
    active = np.arange(x.size)
    c1, c2 = model.curve1, model.curve2
    with np.errstate(all="ignore"):
        for _ in range(_POLISH_MAX_ITER):
            xa, al, be = x[:, None], alpha[active], beta[active]
            g = (c1.eval_fn(xa, al) - c2.eval_fn(xa, be))[:, 0]
            slope = (c1.dx_rows(xa, al) - c2.dx_rows(xa, be))[:, 0]
            low = np.sign(g) == np.sign(ga)
            a, ga = np.where(low, x, a), np.where(low, g, ga)
            b = np.where(low, b, x)
            new = x - g / slope
            new = np.where((a < new) & (new < b), new, 0.5 * (a + b))
            stop = (g == 0.0) | (np.abs(new - x) <= xtol)
            root[active[stop]] = np.where(g == 0.0, x, new)[stop]
            keep = ~stop
            active, x, a, b, ga, xtol = (active[keep], new[keep], a[keep], b[keep], ga[keep],
                                         xtol[keep])
            if not active.size:
                return root
    root[active] = x
    return root


def solve_gamma_batch(model: PartialBleachModel, theta,
                      bracket: tuple[float, float] | None = None) -> tuple[Array, tuple]:
    """:func:`solve_gamma` for every row of ``theta (R, p)`` at once.

    Returns the roots and, per row, the exception :func:`solve_gamma` raises
    for that row (None where it returns; such a row's root is NaN). Each
    row's root is the same whatever else is in the stack.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 2 or theta.shape[1] != model.p:
        raise ValueError(f"joint theta must have shape (R, {model.p}), got {theta.shape}")
    R, p1 = len(theta), model.curve1.p
    alpha, beta = theta[:, :p1], theta[:, p1:]
    if bracket is None:
        lo, hi = _default_brackets(model, theta)
    else:
        lo, hi = float(bracket[0]), float(bracket[1])
        if not lo < hi:
            raise ValueError(f"invalid bracket {bracket!r}")
        lo, hi = np.full(R, lo), np.full(R, hi)
    xtol = 1e-8 * (hi - lo)

    xs = np.linspace(lo, hi, DEFAULT_GRID_POINTS, axis=-1)
    gs, curve, fault = _gap(model, xs, alpha, beta)
    with np.errstate(invalid="ignore"):
        change = (gs[:, :-1] != 0.0) & (gs[:, 1:] != 0.0) & (
            np.sign(gs[:, :-1]) != np.sign(gs[:, 1:]))
    change[fault != 0] = False
    rows, ks = np.nonzero(change)
    polished = _polish(model, alpha[rows], beta[rows], xs[rows, ks], xs[rows, ks + 1],
                       gs[rows, ks], xtol[rows])

    gammas, errors = np.full(R, np.nan), [None] * R
    for r in range(R):
        if fault[r]:
            errors[r] = fault_error(model.curve1 if curve[r] == 1 else model.curve2,
                                    int(fault[r]))
            continue
        roots = [float(x) for x in xs[r, gs[r] == 0.0]] + [float(x) for x in polished[rows == r]]
        if not roots:
            errors[r] = NoBracketError(
                f"no sign change of the curve gap over [{lo[r]:.6g}, {hi[r]:.6g}]")
            continue
        if len(roots) > 1:
            # Collapse near-duplicates (grid zeros adjacent to sign changes).
            roots = sorted(roots)
            distinct = [roots[0]]
            for root in roots[1:]:
                if abs(root - distinct[-1]) > max(10.0 * xtol[r], 1e-12):
                    distinct.append(root)
            roots = distinct
            if len(roots) > 1:
                warnings.warn(
                    f"{len(roots)} intersection roots found; returning the one closest to zero",
                    MultipleRootWarning,
                    stacklevel=2,
                )
        gammas[r] = min(roots, key=abs)
    return gammas, tuple(errors)


def solve_gamma(model: PartialBleachModel, theta,
                bracket: tuple[float, float] | None = None) -> float:
    """Signed intersection dose: the root of g(x, theta) closest to zero.

    Scans ``DEFAULT_GRID_POINTS`` points across the bracket for sign changes and
    polishes each with Newton steps on the curves' slope, kept inside the
    sign change by bisection, until a step is below ``1e-8 * (hi - lo)``.
    More than one root raises :class:`MultipleRootWarning` and returns the
    root closest to zero. A stack of one for :func:`solve_gamma_batch`.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.p,):
        raise ValueError(f"joint theta must have shape ({model.p},), got {theta.shape}")
    gammas, errors = solve_gamma_batch(model, theta[None, :], bracket)
    if errors[0] is not None:
        raise errors[0]
    return float(gammas[0])


def gamma_gradient(model: PartialBleachModel, theta, gamma: float) -> Array:
    """Derivative of the implicit root gamma(theta) in the six parameters.

    By implicit differentiation of g(gamma, theta) = 0:
    ``d gamma / d theta = -grad_theta g / (dg/dx)``.  Raises
    :class:`TangencyError` when the curves' slopes at gamma are equal to
    within 1e-12 relative (the root is then not locally defined).
    """
    alpha, beta = model.split(theta)
    g1 = np.asarray(model.curve1.grad(float(gamma), alpha), dtype=float)
    g2 = np.asarray(model.curve2.grad(float(gamma), beta), dtype=float)
    grad_theta = np.concatenate([g1, -g2])
    s1 = float(model.curve1.dx(float(gamma), alpha))
    s2 = float(model.curve2.dx(float(gamma), beta))
    dgdx = s1 - s2
    scale = max(abs(s1), abs(s2), 1e-300)
    if abs(dgdx) < 1e-12 * scale:
        raise TangencyError("curves meet tangentially; dose gradient is undefined")
    return -grad_theta / dgdx


def gamma_hessian(model: PartialBleachModel, theta, gamma: float) -> Array:
    """Second derivative of the implicit root gamma(theta).

    Differentiating g(gamma(theta), theta) = 0 twice gives

      d2 gamma = -[g_tt + g_xt gamma'^T + gamma' g_xt^T + g_xx gamma' gamma'^T] / g_x

    with all pieces evaluated at (gamma, theta). The mixed x/theta
    derivatives come from central differences of the analytic gradient and
    slope in x.
    """
    alpha, beta = model.split(theta)
    c1, c2 = model.curve1, model.curve2
    gamma = float(gamma)
    gp = gamma_gradient(model, theta, gamma)
    g_x = float(c1.dx(gamma, alpha)) - float(c2.dx(gamma, beta))

    p1, p = c1.p, model.p
    g_tt = np.zeros((p, p))
    g_tt[:p1, :p1] = c1.hess(gamma, alpha)
    g_tt[p1:, p1:] = -c2.hess(gamma, beta)

    h = float(np.cbrt(np.finfo(float).eps)) * max(1.0, abs(gamma))
    g_xt = np.concatenate([
        (np.asarray(c1.grad(gamma + h, alpha)) - np.asarray(c1.grad(gamma - h, alpha))) / (2 * h),
        -(np.asarray(c2.grad(gamma + h, beta)) - np.asarray(c2.grad(gamma - h, beta))) / (2 * h),
    ])
    g_xx = ((float(c1.dx(gamma + h, alpha)) - float(c1.dx(gamma - h, alpha)))
            - (float(c2.dx(gamma + h, beta)) - float(c2.dx(gamma - h, beta)))) / (2 * h)

    return -(g_tt + np.outer(g_xt, gp) + np.outer(gp, g_xt) + g_xx * np.outer(gp, gp)) / g_x


@dataclass(frozen=True)
class DoseEstimate:
    """Equivalent-dose summary: signed root plus delta-method bias and SE."""

    gamma_hat: float
    bias: float
    se: float
    method: str
    bracket: tuple[float, float]

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
    derivatives in the six parameters, and the bracket it was solved in."""

    gamma: float
    grad: Array
    hess: Array
    bracket: tuple[float, float]

    def bias_se(self, bias: Array, cov: Array) -> tuple[float, float]:
        """Second-order delta-method bias and standard error of gamma from the
        parameters' bias vector and covariance:

            bias(gamma_hat) = gamma'^T bias(theta_hat) + tr(gamma'' Cov(theta_hat)) / 2

        The curvature term is the same order in sigma as the first and, on
        dose-response designs like the bundled one, comparable in size;
        dropping it puts the formula visibly below Monte Carlo.
        """
        dose_bias = float(self.grad @ bias) + 0.5 * float(np.trace(self.hess @ cov))
        return dose_bias, float(np.sqrt(max(self.grad @ cov @ self.grad, 0.0)))


def dose_derivatives(model: PartialBleachModel, theta,
                     bracket: tuple[float, float] | None = None) -> DoseDerivatives:
    """Solve for gamma at ``theta`` (in :func:`default_gamma_bracket` when
    ``bracket`` is None) and differentiate it there."""
    used = bracket if bracket is not None else default_gamma_bracket(model, theta)
    gamma = solve_gamma(model, theta, bracket=used)
    return DoseDerivatives(gamma=gamma, grad=gamma_gradient(model, theta, gamma),
                           hess=gamma_hessian(model, theta, gamma), bracket=tuple(used))


def joint_bundles(model: PartialBleachModel, x1, x2, theta, method: str,
                  fit_mode: str) -> tuple[JacobianBundle, ...]:
    """The Jacobian bundles of a two-curve fit in ``fit_mode``, for
    :func:`~propfit.asymptotics.bias_cov`: the stacked model's for
    ``common-sigma``, one per curve for ``separate``."""
    fit_mode = _check_mode(fit_mode)
    if fit_mode == MODE_COMMON_SIGMA:
        if method.lower() == "dwls":
            raise ModeError("data-weighted least squares has no scale to share")
        joint, idx = stacked_model(model, x1, x2)
        return (build_jacobian_bundle(joint, Dataset(idx, joint.eval(idx, theta)), theta),)
    alpha, beta = model.split(theta)
    bundles = []
    for curve, x, t in ((model.curve1, x1, alpha), (model.curve2, x2, beta)):
        x = np.asarray(x, dtype=float)
        bundles.append(build_jacobian_bundle(curve, Dataset(x, curve.eval(x, t)), t))
    return tuple(bundles)


def gamma_bias_se(model: PartialBleachModel, x1, x2, theta, sigma: float, method: str,
                  fit_mode: str = MODE_SEPARATE,
                  bracket: tuple[float, float] | None = None) -> DoseEstimate:
    """Second-order delta-method bias and standard error of the intersection dose.

    Solves for gamma at ``theta`` and pushes the parameter-level order-
    sigma^2 bias vector and covariance (exact ML covariance for ``ml``,
    ``sigma^2 (J'J)^{-1}`` otherwise, assembled per ``fit_mode``) through
    the implicit-function derivatives of gamma (:meth:`DoseDerivatives.bias_se`).
    """
    dose = dose_derivatives(model, theta, bracket)
    bias, se = dose.bias_se(
        *bias_cov(method, joint_bundles(model, x1, x2, theta, method, fit_mode), sigma))
    return DoseEstimate(gamma_hat=dose.gamma, bias=bias, se=se, method=method.lower(),
                        bracket=dose.bracket)


# ---------------------------------------------------------------------------
# Two-curve fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoCurveFitResult:
    """Joint result of fitting both curves.

    ``sigma_hats`` has two entries in separate mode (one per curve) and a
    single shared entry in common-sigma mode.
    """

    method: str
    mode: str
    theta_hat: Array
    sigma_hats: tuple[float, ...]
    iterations: int
    converged: bool
    residual_norm: float
    tolerance: float


@dataclass(frozen=True)
class TwoCurveFitBatch:
    """Two-curve fits of a stack of dataset pairs; row ``r`` is what
    :func:`fit_two_curves` returns for pair ``r``, or NaN numbers and its
    exception in ``errors[r]``."""

    method: str
    mode: str
    theta_hat: Array  # (R, p)
    sigma_hats: Array  # (R, 2) separate, (R, 1) common-sigma
    iterations: Array
    converged: Array
    residual_norm: Array
    tolerance: Array
    errors: tuple

    def result(self, r: int) -> TwoCurveFitResult:
        """Row ``r`` as a :class:`TwoCurveFitResult`; raises the row's error if it failed."""
        if self.errors[r] is not None:
            raise self.errors[r]
        return TwoCurveFitResult(
            method=self.method, mode=self.mode, theta_hat=self.theta_hat[r].copy(),
            sigma_hats=tuple(float(v) for v in self.sigma_hats[r]),
            iterations=int(self.iterations[r]), converged=bool(self.converged[r]),
            residual_norm=float(self.residual_norm[r]), tolerance=float(self.tolerance[r]))


def _split_start(model: PartialBleachModel, opts: FitOptions,
                 starts: tuple[Start, Start] | None) -> tuple[FitOptions, FitOptions]:
    if starts is not None:
        return replace(opts, start=starts[0]), replace(opts, start=starts[1])
    if isinstance(opts.start, str):
        return opts, opts
    start = np.asarray(opts.start, dtype=float)
    if start.shape[-1:] != (model.p,):
        raise ValueError(f"joint theta must have shape ({model.p},), got {start.shape}")
    p1 = model.curve1.p
    return replace(opts, start=start[..., :p1]), replace(opts, start=start[..., p1:])


def fit_two_curves_batch(model: PartialBleachModel, x1, Y1, x2, Y2, method: str,
                         mode: str = MODE_SEPARATE, opts: FitOptions | None = None,
                         starts: tuple[Start, Start] | None = None) -> TwoCurveFitBatch:
    """:func:`fit_two_curves` for every row pair of ``Y1 (R, n1)`` and
    ``Y2 (R, n2)``, observed at ``x1`` and ``x2``.

    ``starts`` are the curves' resolved ``"auto"`` starts
    (:func:`~propfit.estimators.resolve_start`), for callers that fit several
    methods to the same data; they stand in for ``opts.start``.
    """
    method = method.lower()
    mode = _check_mode(mode)
    opts = opts or FitOptions()
    Y1, Y2 = np.asarray(Y1, dtype=float), np.asarray(Y2, dtype=float)
    o1, o2 = _split_start(model, opts, starts)
    auto = starts is not None or isinstance(opts.start, str)

    if mode == MODE_COMMON_SIGMA:
        if method == "dwls":
            raise ModeError(
                "data-weighted least squares is scale-free; common-sigma mode does not apply"
            )
        joint, idx = stacked_model(model, x1, x2)
        joint_opts = opts
        if auto:
            # Start from separate per-curve fits of the same method.
            pre1 = fit_batch(model.curve1, x1, Y1, method, o1)
            pre2 = fit_batch(model.curve2, x2, Y2, method, o2)
            joint_opts = replace(opts, start=Start(
                theta=np.concatenate([pre1.theta_hat, pre2.theta_hat], axis=1),
                iterations=np.zeros(len(Y1), dtype=int),
                errors=first_errors(pre1.errors, pre2.errors)))
        res = fit_batch(joint, idx, np.concatenate([Y1, Y2], axis=1), method, joint_opts)
        return TwoCurveFitBatch(
            method=method, mode=mode, theta_hat=res.theta_hat, sigma_hats=res.sigma_hat[:, None],
            iterations=res.iterations, converged=res.converged,
            residual_norm=res.residual_norm, tolerance=res.tolerance, errors=res.errors)

    r1 = fit_batch(model.curve1, x1, Y1, method, o1)
    r2 = fit_batch(model.curve2, x2, Y2, method, o2)
    return TwoCurveFitBatch(
        method=method, mode=mode,
        theta_hat=np.concatenate([r1.theta_hat, r2.theta_hat], axis=1),
        sigma_hats=np.stack([r1.sigma_hat, r2.sigma_hat], axis=1),
        iterations=np.maximum(r1.iterations, r2.iterations),
        converged=r1.converged & r2.converged,
        residual_norm=np.maximum(r1.residual_norm, r2.residual_norm),
        tolerance=np.maximum(r1.tolerance, r2.tolerance),
        errors=first_errors(r1.errors, r2.errors))


def fit_two_curves(model: PartialBleachModel, data1: Dataset, data2: Dataset, method: str,
                   mode: str = MODE_SEPARATE, opts: FitOptions | None = None,
                   starts: tuple[Start, Start] | None = None) -> TwoCurveFitResult:
    """Fit the two curves either independently or sharing one scale.

    ``common-sigma`` is meaningful for maximum likelihood (the profiled
    common scale couples the two curves' equations); QL and WLS give the
    same estimates either way, and DWLS rejects the mode outright. A stack
    of one for :func:`fit_two_curves_batch`.
    """
    return fit_two_curves_batch(model, data1.x, data1.y[None, :], data2.x, data2.y[None, :],
                                method, mode, opts, starts).result(0)
