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
from scipy.linalg import block_diag
from scipy.optimize import brentq

from .asymptotics import bias_cov
from .estimators import (
    FitOptions,
    FitResult,
    estimate_sigma_ml,
    estimate_sigma_unbiased,
    fit,
)
from .exceptions import (
    DomainError,
    ModeError,
    MultipleRootWarning,
    NoBracketError,
    TangencyError,
)
from .models import Array, Dataset, ModelFunction, saturating_exponential_model

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
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    n1, n2 = x1.size, x2.size
    c1, c2 = model.curve1, model.curve2
    p1 = c1.p

    def _split_idx(ix):
        idx = np.asarray(ix)
        first = idx < n1
        return first, x1[idx[first].astype(int)], x2[idx[~first].astype(int) - n1]

    def ev(ix, t):
        first, d1, d2 = _split_idx(ix)
        out = np.empty(ix.size)
        out[first] = c1.eval_fn(d1, t[:p1])
        out[~first] = c2.eval_fn(d2, t[p1:])
        return out

    def gr(ix, t):
        first, d1, d2 = _split_idx(ix)
        out = np.zeros((ix.size, model.p))
        out[first, :p1] = c1.grad_fn(d1, t[:p1])
        out[~first, p1:] = c2.grad_fn(d2, t[p1:])
        return out

    def he(ix, t):
        first, d1, d2 = _split_idx(ix)
        out = np.zeros((ix.size, model.p, model.p))
        out[np.ix_(first, range(p1), range(p1))] = c1.hess_fn(d1, t[:p1])
        out[np.ix_(~first, range(p1, model.p), range(p1, model.p))] = c2.hess_fn(d2, t[p1:])
        return out

    def guard(ix, t):
        ok1 = c1.domain_guard is None or c1.domain_guard(x1, t[:p1])
        ok2 = c2.domain_guard is None or c2.domain_guard(x2, t[p1:])
        return ok1 and ok2

    joint = ModelFunction(
        name=f"{c1.name}+{c2.name}",
        p=model.p,
        param_names=model.param_names,
        eval_fn=ev,
        grad_fn=gr,
        hess_fn=he,
        domain_guard=guard,
    )
    return joint, np.arange(n1 + n2, dtype=float)


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


def default_gamma_bracket(model: PartialBleachModel, theta) -> tuple[float, float]:
    """Scan range for the intersection: negative doses where both curves are live.

    Extends 0.1% below the smaller dose shift so an intersection sitting
    exactly at -min(alpha2, beta2), as for equal-shape curve pairs, is still
    bracketed.
    """
    alpha, beta = model.split(theta)
    shift = min(alpha[1], beta[1])
    lo = -shift - max(1e-3 * abs(shift), 1e-6)
    return (lo, 0.0) if lo < 0.0 else (-1.0, 0.0)


def solve_gamma(model: PartialBleachModel, theta, bracket: tuple[float, float] | None = None,
                grid_points: int = DEFAULT_GRID_POINTS) -> float:
    """Signed intersection dose: the root of g(x, theta) closest to zero.

    Scans ``grid_points`` points across the bracket for sign changes and
    polishes each with a bracketing root finder to absolute tolerance
    ``1e-8 * (hi - lo)``.  More than one root raises
    :class:`MultipleRootWarning` and returns the root closest to zero.
    """
    if bracket is None:
        bracket = default_gamma_bracket(model, theta)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError(f"invalid bracket {bracket!r}")
    xtol = 1e-8 * (hi - lo)

    xs = np.linspace(lo, hi, grid_points)
    gs = np.asarray(model.intersection_gap(xs, theta), dtype=float)

    roots = [float(x) for x, g in zip(xs, gs) if g == 0.0]
    gap = lambda x: float(model.intersection_gap(float(x), theta))
    for k in range(len(xs) - 1):
        if gs[k] == 0.0 or gs[k + 1] == 0.0:
            continue
        if np.sign(gs[k]) != np.sign(gs[k + 1]):
            roots.append(float(brentq(gap, xs[k], xs[k + 1], xtol=xtol)))

    if not roots:
        raise NoBracketError(
            f"no sign change of the curve gap over [{lo:.6g}, {hi:.6g}]"
        )
    if len(roots) > 1:
        # Collapse near-duplicates (grid zeros adjacent to sign changes).
        roots = sorted(roots)
        distinct = [roots[0]]
        for r in roots[1:]:
            if abs(r - distinct[-1]) > max(10.0 * xtol, 1e-12):
                distinct.append(r)
        roots = distinct
        if len(roots) > 1:
            warnings.warn(
                f"{len(roots)} intersection roots found; returning the one closest to zero",
                MultipleRootWarning,
                stacklevel=2,
            )
    return min(roots, key=abs)


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


def joint_bias_cov(model: PartialBleachModel, x1, x2, theta, sigma: float,
                    method: str, fit_mode: str) -> tuple[Array, Array]:
    """Six-parameter bias vector and covariance for the requested fit mode."""
    fit_mode = _check_mode(fit_mode)
    method = method.lower()
    if fit_mode == MODE_COMMON_SIGMA:
        if method == "dwls":
            raise ModeError("data-weighted least squares has no scale to share")
        joint, idx = stacked_model(model, x1, x2)
        data = Dataset(idx, np.asarray(joint.eval(idx, theta), dtype=float))
        return bias_cov(method, joint, data, theta, sigma)

    alpha, beta = model.split(theta)
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    d1 = Dataset(x1, np.asarray(model.curve1.eval(x1, alpha), dtype=float))
    d2 = Dataset(x2, np.asarray(model.curve2.eval(x2, beta), dtype=float))
    b1, c1 = bias_cov(method, model.curve1, d1, alpha, sigma)
    b2, c2 = bias_cov(method, model.curve2, d2, beta, sigma)
    return np.concatenate([b1, b2]), block_diag(c1, c2)


def gamma_bias_se(model: PartialBleachModel, x1, x2, theta, sigma: float, method: str,
                  fit_mode: str = MODE_SEPARATE,
                  bracket: tuple[float, float] | None = None,
                  bias_and_cov: tuple[Array, Array] | None = None) -> DoseEstimate:
    """Second-order delta-method bias and standard error of the intersection dose.

    Solves for gamma at ``theta``, then pushes the parameter-level order-
    sigma^2 bias vector and covariance (exact ML covariance for ``ml``,
    ``sigma^2 (J'J)^{-1}`` otherwise, assembled per ``fit_mode``) through the
    implicit-function derivatives of gamma:

        bias(gamma_hat) = gamma'^T bias(theta_hat) + tr(gamma'' Cov(theta_hat)) / 2

    The curvature term is the same order in sigma as the first and, on
    dose-response designs like the bundled one, comparable in size; dropping
    it puts the formula visibly below Monte Carlo. A caller that already
    holds :func:`joint_bias_cov`'s ``(bias, cov)`` for these arguments passes
    it as ``bias_and_cov``.
    """
    used_bracket = bracket if bracket is not None else default_gamma_bracket(model, theta)
    gamma = solve_gamma(model, theta, bracket=used_bracket)
    grad = gamma_gradient(model, theta, gamma)
    hess = gamma_hessian(model, theta, gamma)
    if bias_and_cov is None:
        bias_and_cov = joint_bias_cov(model, x1, x2, theta, sigma, method, fit_mode)
    bias_vec, cov = bias_and_cov
    bias = float(grad @ bias_vec) + 0.5 * float(np.trace(hess @ cov))
    se = float(np.sqrt(max(grad @ cov @ grad, 0.0)))
    return DoseEstimate(gamma_hat=float(gamma), bias=bias, se=se,
                        method=method.lower(), bracket=tuple(used_bracket))


# ---------------------------------------------------------------------------
# Two-curve fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoCurveFitResult:
    """Joint result of fitting both curves.

    ``sigma_hats`` has two entries in separate mode (one per curve) and a
    single shared entry in common-sigma mode. ``parts`` holds the underlying
    per-curve fits (separate) or the single stacked fit (common-sigma).
    """

    method: str
    mode: str
    theta_hat: Array
    sigma_hats: tuple[float, ...]
    iterations: int
    converged: bool
    residual_norm: float
    tolerance: float
    parts: tuple[FitResult, ...]


def _split_start(model: PartialBleachModel, opts: FitOptions) -> tuple[FitOptions, FitOptions]:
    if isinstance(opts.start, str):
        return opts, opts
    start = np.asarray(opts.start, dtype=float)
    a, b = model.split(start)
    return replace(opts, start=a), replace(opts, start=b)


def fit_two_curves(model: PartialBleachModel, data1: Dataset, data2: Dataset, method: str,
                   mode: str = MODE_SEPARATE, opts: FitOptions | None = None) -> TwoCurveFitResult:
    """Fit the two curves either independently or sharing one scale.

    ``common-sigma`` is meaningful for maximum likelihood (the profiled
    common scale couples the two curves' equations); QL and WLS give the
    same estimates either way, and DWLS rejects the mode outright.
    """
    method = method.lower()
    mode = _check_mode(mode)
    opts = opts or FitOptions()

    if mode == MODE_COMMON_SIGMA:
        if method == "dwls":
            raise ModeError(
                "data-weighted least squares is scale-free; common-sigma mode does not apply"
            )
        joint, idx = stacked_model(model, data1.x, data2.x)
        stacked = Dataset(idx, np.concatenate([data1.y, data2.y]))
        if isinstance(opts.start, str):
            # Auto-start from separate per-curve fits of the same method.
            o1, o2 = _split_start(model, opts)
            pre1 = fit(model.curve1, data1, method, o1)
            pre2 = fit(model.curve2, data2, method, o2)
            joint_opts = replace(opts, start=np.concatenate([pre1.theta_hat, pre2.theta_hat]))
        else:
            joint_opts = opts
        res = fit(joint, stacked, method, joint_opts)
        if method == "ml":
            sigma = estimate_sigma_ml(joint, stacked, res.theta_hat)
        else:
            sigma = estimate_sigma_unbiased(joint, stacked, res.theta_hat, p=joint.p)
        return TwoCurveFitResult(
            method=method, mode=mode, theta_hat=res.theta_hat, sigma_hats=(sigma,),
            iterations=res.iterations, converged=res.converged,
            residual_norm=res.residual_norm, tolerance=res.tolerance, parts=(res,),
        )

    o1, o2 = _split_start(model, opts)
    r1 = fit(model.curve1, data1, method, o1)
    r2 = fit(model.curve2, data2, method, o2)
    return TwoCurveFitResult(
        method=method, mode=mode,
        theta_hat=np.concatenate([r1.theta_hat, r2.theta_hat]),
        sigma_hats=(r1.sigma_hat, r2.sigma_hat),
        iterations=max(r1.iterations, r2.iterations),
        converged=r1.converged and r2.converged,
        residual_norm=max(r1.residual_norm, r2.residual_norm),
        tolerance=max(r1.tolerance, r2.tolerance),
        parts=(r1, r2),
    )
