"""Closed-form small-error biases and covariances for the four estimators.

To second order in the relative error ``sigma``, every estimator has
covariance ``sigma^2 (J'J)^{-1}`` and a method-specific bias assembled from
the column sums of J weighted by the leverages ``w1`` and the curvature
weights ``w2``:

    ml:    (J'J)^{-1} [ -sum (w1_i - p/n) J_i - sum w2_i J_i / 2 ] sigma^2
    ql:    (J'J)^{-1} [ -sum w2_i J_i / 2 ] sigma^2
    wls:   (J'J)^{-1} [ sum J_i - sum w1_i J_i - sum w2_i J_i / 2 ] sigma^2
    dwls:  (J'J)^{-1} [ -2 sum J_i + 2 sum w1_i J_i - sum w2_i J_i / 2 ] sigma^2

Beyond that order the maximum-likelihood estimator is sharper: its
large-sample covariance is

    sigma^2 [ J'J + 2 sigma^2 sum (J_i - Jbar)(J_i - Jbar)' ]^{-1}

equivalently the inverse of ``(2 + sigma^-2) sum J J' - (2/n)(sum J)(sum J)'``,
and the difference against ``sigma^2 (J'J)^{-1}`` is positive semidefinite.
The module also provides the quasi-likelihood sandwich for arbitrary response
variances and the bounded ``sqrt(n) sigma`` limit laws for WLS and DWLS.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .exceptions import SingularError
from .jacobian import JacobianBundle, build_jacobian_bundle
from .models import Array, Dataset, ModelFunction

ORDER2 = "order2"
ML_EXACT = "ml_exact"
SANDWICH = "sandwich"

_BIAS_METHODS = ("ml", "ql", "wls", "dwls")


@dataclass(frozen=True)
class BiasReport:
    method: str
    bias: Array
    bundle: JacobianBundle


@dataclass(frozen=True)
class CovarianceReport:
    method: str
    cov: Array
    order: str


@dataclass(frozen=True)
class LimitDistribution:
    """Normal limit of sqrt(n)(theta_hat - theta)/sigma for WLS or DWLS."""

    method: str
    delta: float
    Sigma: Array
    Gamma1: Array
    Gamma2: Array
    Gamma3: Array
    mean_shift: Array
    simplified: bool


@dataclass(frozen=True)
class FactorizationCheck:
    """Whether the model factorizes through its first (scale) parameter."""

    factorized: bool
    v: Array
    ml_wls_tail_gap: float


def _finalize_cov(cov: Array, what: str) -> Array:
    cov = 0.5 * (cov + cov.T)
    eigmin = float(np.linalg.eigvalsh(cov)[0])
    if eigmin < -1e-10 * max(float(np.trace(cov)), 0.0):
        raise SingularError(f"{what} is not positive semidefinite (min eigenvalue {eigmin:.3e})")
    return cov


def bias_kernel(method: str, bundle: JacobianBundle) -> Array:
    """Bias divided by sigma^2, from the bundle's J, w1, w2 summaries."""
    method = method.lower()
    S1 = bundle.sum_J()
    Sw1 = bundle.J.T @ bundle.w1
    Sw2 = bundle.J.T @ bundle.w2
    p, n = bundle.p, bundle.n
    if method == "ml":
        v = -(Sw1 - (p / n) * S1) - 0.5 * Sw2
    elif method == "ql":
        v = -0.5 * Sw2
    elif method == "wls":
        v = S1 - Sw1 - 0.5 * Sw2
    elif method == "dwls":
        v = -2.0 * S1 + 2.0 * Sw1 - 0.5 * Sw2
    else:
        raise ValueError(f"unknown method {method!r}; expected one of {_BIAS_METHODS}")
    return bundle.JtJ_inv @ v


def _bias(method: str, bundle: JacobianBundle, sigma: float) -> Array:
    return float(sigma) ** 2 * bias_kernel(method, bundle)


def _cov_order2(bundle: JacobianBundle, sigma: float) -> Array:
    return _finalize_cov(float(sigma) ** 2 * bundle.JtJ_inv, "order-2 covariance")


def bias_order2(method: str, model: ModelFunction, data: Dataset, theta,
                sigma: float) -> BiasReport:
    """Order-sigma^2 bias vector of the chosen estimator at ``theta``."""
    bundle = build_jacobian_bundle(model, data, theta)
    return BiasReport(method=method.lower(), bias=_bias(method, bundle, sigma), bundle=bundle)


def cov_order2(model: ModelFunction, data: Dataset, theta, sigma: float) -> CovarianceReport:
    """Order-sigma^2 covariance sigma^2 (J'J)^{-1}, shared by all four methods."""
    cov = _cov_order2(build_jacobian_bundle(model, data, theta), sigma)
    return CovarianceReport(method="all", cov=cov, order=ORDER2)


# ---------------------------------------------------------------------------
# Exact maximum-likelihood covariance and its information-matrix source
# ---------------------------------------------------------------------------

def _cov_ml_exact(bundle: JacobianBundle, sigma: float) -> Array:
    sigma = float(sigma)
    centered = bundle.J - bundle.Jbar
    inner = bundle.JtJ + 2.0 * sigma**2 * (centered.T @ centered)
    return _finalize_cov(sigma**2 * np.linalg.inv(inner), "ML covariance")


def cov_ml_exact(model: ModelFunction, data: Dataset, theta, sigma: float) -> CovarianceReport:
    """Large-sample ML covariance, exact beyond order sigma^2."""
    cov = _cov_ml_exact(build_jacobian_bundle(model, data, theta), sigma)
    return CovarianceReport(method="ml", cov=cov, order=ML_EXACT)


def bias_cov(method: str, bundles: Sequence[JacobianBundle], sigma: float) -> tuple[Array, Array]:
    """A fit's reported bias and covariance from its Jacobian bundles.

    Each bundle gives :func:`bias_order2`'s bias and, for ``ml``,
    :func:`cov_ml_exact`'s covariance, else :func:`cov_order2`'s; several
    bundles (independently fitted curves) give the concatenated bias and
    the block-diagonal covariance.
    """
    cov_rule = _cov_ml_exact if method.lower() == "ml" else _cov_order2
    covs = [cov_rule(bundle, sigma) for bundle in bundles]
    cov = np.zeros((sum(c.shape[0] for c in covs),) * 2)
    at = 0
    for c in covs:
        cov[at:at + c.shape[0], at:at + c.shape[0]] = c
        at += c.shape[0]
    return np.concatenate([_bias(method, bundle, sigma) for bundle in bundles]), cov


def cov_ml_unreduced(model: ModelFunction, data: Dataset, theta, sigma: float) -> Array:
    """The same ML covariance in its unreduced algebraic form.

    ``[(2 + sigma^-2) sum J J' - (2/n)(sum J)(sum J)']^{-1}`` -- kept as an
    independent code path so the two forms can be checked against each other.
    """
    bundle = build_jacobian_bundle(model, data, theta)
    sigma = float(sigma)
    S1 = bundle.sum_J()
    M = (2.0 + sigma**-2) * bundle.JtJ - (2.0 / bundle.n) * np.outer(S1, S1)
    return _finalize_cov(np.linalg.inv(M), "unreduced ML covariance")


def ml_expected_information(bundle: JacobianBundle, sigma: float) -> Array:
    """Expected negative Hessian of the log likelihood in (theta, sigma).

    Blocks: ``(2 + sigma^-2) sum J J'``, cross term ``(2/sigma) sum J``, and
    ``2 n / sigma^2`` for the scale.
    """
    sigma = float(sigma)
    p = bundle.p
    S1 = bundle.sum_J()
    info = np.empty((p + 1, p + 1))
    info[:p, :p] = (2.0 + sigma**-2) * bundle.JtJ
    info[:p, p] = info[p, :p] = (2.0 / sigma) * S1
    info[p, p] = 2.0 * bundle.n / sigma**2
    return info


def ml_score_covariance(bundle: JacobianBundle, sigma: float,
                        rel_m3: float | None = None, rel_m4: float | None = None) -> Array:
    """Covariance of the score in (theta, sigma) from raw moment inputs.

    ``rel_m3``/``rel_m4`` are the third and fourth moments of the relative
    errors ``(y - f)/f``; they default to the normal-error values ``0`` and
    ``3 sigma^4``.  Assembled independently of :func:`ml_expected_information`
    so the information identity can be verified rather than assumed.
    """
    sigma = float(sigma)
    m3 = 0.0 if rel_m3 is None else float(rel_m3)
    m4 = 3.0 * sigma**4 if rel_m4 is None else float(rel_m4)
    var_sq = m4 - sigma**4  # Var((y-f)^2/f^2)

    p = bundle.p
    S1 = bundle.sum_J()
    out = np.empty((p + 1, p + 1))
    out[:p, :p] = (sigma**-2 + sigma**-4 * var_sq + 2.0 * sigma**-4 * m3) * bundle.JtJ
    cross = (sigma**-5 * m3 + sigma**-5 * m4 - sigma**-1) * S1
    out[:p, p] = out[p, :p] = cross
    out[p, p] = sigma**-6 * bundle.n * var_sq
    return out


def cov_ml_full(model: ModelFunction, data: Dataset, theta, sigma: float) -> Array:
    """Joint (p+1)x(p+1) covariance of (theta_hat, sigma_hat) under ML.

    The upper-left p x p block reproduces :func:`cov_ml_exact`.
    """
    bundle = build_jacobian_bundle(model, data, theta)
    info = ml_expected_information(bundle, float(sigma))
    eigvals = np.linalg.eigvalsh(info)
    if eigvals[0] <= 0.0:
        raise SingularError("ML information matrix is not positive definite")
    cov = np.linalg.inv(info)
    return 0.5 * (cov + cov.T)


def cov_ql_sandwich(model: ModelFunction, data: Dataset, theta, var_y) -> CovarianceReport:
    """Quasi-likelihood sandwich covariance for arbitrary response variances."""
    var_y = np.asarray(var_y, dtype=float)
    if var_y.shape != (data.n,):
        raise ValueError(f"var_y must have shape ({data.n},)")
    if np.any(var_y < 0.0):
        raise ValueError("var_y must be nonnegative")
    bundle = build_jacobian_bundle(model, data, theta)
    meat = (bundle.J * (var_y / bundle.f**2)[:, None]).T @ bundle.J
    cov = _finalize_cov(bundle.JtJ_inv @ meat @ bundle.JtJ_inv, "sandwich covariance")
    return CovarianceReport(method="ql", cov=cov, order=SANDWICH)


# ---------------------------------------------------------------------------
# Bounded sqrt(n) sigma limit laws for the biased equations
# ---------------------------------------------------------------------------

def limit_distribution(method: str, model: ModelFunction, data: Dataset, theta,
                       sigma: float, simplified: bool = False) -> LimitDistribution:
    """Normal limit of sqrt(n)(theta_hat - theta)/sigma for WLS or DWLS.

    ``simplified=True`` drops the leverage and curvature terms (they average
    out as O(1/n)), leaving the mean shift ``delta Sigma Gamma1`` for WLS and
    ``-2 delta Sigma Gamma1`` for DWLS.
    """
    method = method.lower()
    if method not in ("wls", "dwls"):
        raise ValueError("limit distributions apply to 'wls' and 'dwls' only")
    bundle = build_jacobian_bundle(model, data, theta)
    n = bundle.n
    delta = float(np.sqrt(n) * sigma)
    Sigma = n * bundle.JtJ_inv
    Gamma1 = bundle.sum_J() / n
    if simplified:
        Gamma2 = np.zeros(bundle.p)
        Gamma3 = np.zeros(bundle.p)
    else:
        Gamma2 = (bundle.J.T @ bundle.w1) / n
        Gamma3 = (bundle.J.T @ bundle.w2) / n
    if method == "wls":
        shift = delta * Sigma @ (Gamma1 - Gamma2 - 0.5 * Gamma3)
    else:
        shift = delta * Sigma @ (-2.0 * Gamma1 + 2.0 * Gamma2 - 0.5 * Gamma3)
    return LimitDistribution(method=method, delta=delta, Sigma=Sigma, Gamma1=Gamma1,
                             Gamma2=Gamma2, Gamma3=Gamma3, mean_shift=shift,
                             simplified=simplified)


def check_theta1_factorization(model: ModelFunction, data: Dataset, theta,
                               rtol: float = 1e-8) -> FactorizationCheck:
    """Detect the scale-factor structure f = theta1 * f*(theta2..thetap).

    Computes ``v = (J'J)^{-1} sum J_i``; for factorized models this is
    exactly ``[theta1, 0, ..., 0]``, and the ML and WLS biases then agree on
    every component but the first (reported as ``ml_wls_tail_gap``).
    """
    theta = model.check_theta(theta)
    bundle = build_jacobian_bundle(model, data, theta)
    v = bundle.JtJ_inv @ bundle.sum_J()
    target = np.zeros(bundle.p)
    target[0] = theta[0]
    scale = max(abs(float(theta[0])), 1e-300)
    factorized = bool(np.max(np.abs(v - target)) <= rtol * scale)

    gap = float("nan")
    if factorized and bundle.p > 1:
        b_ml = bias_kernel("ml", bundle)[1:]
        b_wls = bias_kernel("wls", bundle)[1:]
        denom = max(float(np.max(np.abs(b_ml))), float(np.max(np.abs(b_wls))), 1e-300)
        gap = float(np.max(np.abs(b_ml - b_wls))) / denom
    return FactorizationCheck(factorized=factorized, v=v, ml_wls_tail_gap=gap)
