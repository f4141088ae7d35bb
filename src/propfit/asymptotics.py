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

from .estimators import METHODS
from .exceptions import SingularError
from .jacobian import JacobianBundle, _block_diag
from .models import Array

# How close to ``[theta1, 0, ..., 0]``, relative to ``|theta1|``,
# :func:`check_theta1_factorization` needs ``v`` to be.
_FACTORIZATION_RTOL = 1e-8


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
    """``cov`` (one matrix, or a stack of them) symmetrized; raises for the
    first that is not positive semidefinite."""
    cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    eigmin = np.linalg.eigvalsh(cov)[..., 0]
    floor = -1e-10 * np.maximum(np.trace(cov, axis1=-2, axis2=-1), 0.0)
    for low, bound in zip(np.ravel(eigmin), np.ravel(floor)):
        if low < bound:
            raise SingularError(f"{what} is not positive semidefinite (min eigenvalue {low:.3e})")
    return cov


def _squares(sigma) -> Array:
    """``float(s) ** 2`` for the scale ``sigma`` (shape ``()``) or each of a
    1-D array of them (shape ``(S,)``)."""
    if np.ndim(sigma):
        return np.array([float(s) ** 2 for s in sigma])
    return np.array(float(sigma) ** 2)


def bias_order2(method: str, bundle: JacobianBundle, sigma) -> Array:
    """Order-sigma^2 bias vector of the chosen estimator, from the bundle's
    J, w1, w2 summaries; a 1-D array of scales gives a row per scale."""
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
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return _squares(sigma)[..., None] * (bundle.JtJ_inv @ v)


def cov_order2(bundle: JacobianBundle, sigma) -> Array:
    """Order-sigma^2 covariance sigma^2 (J'J)^{-1}, shared by all four methods."""
    return _finalize_cov(_squares(sigma)[..., None, None] * bundle.JtJ_inv, "order-2 covariance")


# ---------------------------------------------------------------------------
# Exact maximum-likelihood covariance and its information-matrix source
# ---------------------------------------------------------------------------

def cov_ml_exact(bundle: JacobianBundle, sigma) -> Array:
    """Large-sample ML covariance, exact beyond order sigma^2."""
    s2 = _squares(sigma)[..., None, None]
    centered = bundle.J - bundle.Jbar
    inner = bundle.JtJ + 2.0 * s2 * (centered.T @ centered)
    return _finalize_cov(s2 * np.linalg.inv(inner), "ML covariance")


def bias_cov(method: str, bundles: Sequence[JacobianBundle], sigma) -> tuple[Array, Array]:
    """A fit's reported bias and covariance from its Jacobian bundles.

    Each bundle gives :func:`bias_order2`'s bias and, for ``ml``,
    :func:`cov_ml_exact`'s covariance, else :func:`cov_order2`'s; several
    bundles (independently fitted curves) give the concatenated bias and
    the block-diagonal covariance. ``sigma`` is one scale, or a 1-D array
    of them that gives each result a leading axis, a row per scale, with
    every bit of that scale's own call.
    """
    cov_rule = cov_ml_exact if method.lower() == "ml" else cov_order2
    cov = _block_diag([cov_rule(b, sigma) for b in bundles])
    return np.concatenate([bias_order2(method, b, sigma) for b in bundles], axis=-1), cov


def cov_ml_unreduced(bundle: JacobianBundle, sigma: float) -> Array:
    """The same ML covariance in its unreduced algebraic form.

    ``[(2 + sigma^-2) sum J J' - (2/n)(sum J)(sum J)']^{-1}`` -- kept as an
    independent code path so the two forms can be checked against each other.
    """
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


def cov_ml_full(bundle: JacobianBundle, sigma: float) -> Array:
    """Joint (p+1)x(p+1) covariance of (theta_hat, sigma_hat) under ML.

    The upper-left p x p block reproduces :func:`cov_ml_exact`.
    """
    info = ml_expected_information(bundle, float(sigma))
    eigvals = np.linalg.eigvalsh(info)
    if eigvals[0] <= 0.0:
        raise SingularError("ML information matrix is not positive definite")
    cov = np.linalg.inv(info)
    return 0.5 * (cov + cov.T)


def cov_ql_sandwich(bundle: JacobianBundle, var_y) -> Array:
    """Quasi-likelihood sandwich covariance for arbitrary response variances."""
    var_y = np.asarray(var_y, dtype=float)
    if var_y.shape != (bundle.n,):
        raise ValueError(f"var_y must have shape ({bundle.n},)")
    if not np.all(np.isfinite(var_y) & (var_y >= 0.0)):
        raise ValueError("var_y must be finite and nonnegative")
    meat = (bundle.J * (var_y / bundle.f**2)[:, None]).T @ bundle.J
    return _finalize_cov(bundle.JtJ_inv @ meat @ bundle.JtJ_inv, "sandwich covariance")


# ---------------------------------------------------------------------------
# Bounded sqrt(n) sigma limit laws for the biased equations
# ---------------------------------------------------------------------------

def limit_distribution(method: str, bundle: JacobianBundle, sigma: float,
                       simplified: bool = False) -> LimitDistribution:
    """Normal limit of sqrt(n)(theta_hat - theta)/sigma for WLS or DWLS.

    ``simplified=True`` drops the leverage and curvature terms (they average
    out as O(1/n)), leaving the mean shift ``delta Sigma Gamma1`` for WLS and
    ``-2 delta Sigma Gamma1`` for DWLS.
    """
    method = method.lower()
    if method not in ("wls", "dwls"):
        raise ValueError("limit distributions apply to 'wls' and 'dwls' only")
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


def check_theta1_factorization(bundle: JacobianBundle, theta1: float) -> FactorizationCheck:
    """Detect the scale-factor structure f = theta1 * f*(theta2..thetap).

    Computes ``v = (J'J)^{-1} sum J_i`` from the bundle at a parameter
    vector whose first entry is ``theta1``; for factorized models this is
    exactly ``[theta1, 0, ..., 0]`` (here: to within ``1e-8 |theta1|``), and
    the ML and WLS biases then agree on every component but the first
    (reported as ``ml_wls_tail_gap``).
    """
    v = bundle.JtJ_inv @ bundle.sum_J()
    target = np.zeros(bundle.p)
    target[0] = theta1
    scale = max(abs(float(theta1)), 1e-300)
    factorized = bool(np.max(np.abs(v - target)) <= _FACTORIZATION_RTOL * scale)

    gap = float("nan")
    if factorized and bundle.p > 1:
        b_ml = bias_order2("ml", bundle, 1.0)[1:]
        b_wls = bias_order2("wls", bundle, 1.0)[1:]
        denom = max(float(np.max(np.abs(b_ml))), float(np.max(np.abs(b_wls))), 1e-300)
        gap = float(np.max(np.abs(b_ml - b_wls))) / denom
    return FactorizationCheck(factorized=factorized, v=v, ml_wls_tail_gap=gap)
