"""Relative-gradient design machinery.

The rows ``J_i = grad f(x_i, theta) / f(x_i, theta)`` act as the design
matrix of the problem: ``(J'J)^{-1}`` drives every covariance, the hat-matrix
diagonal gives the leverages ``w1_i``, and the scaled Hessians
``K_i = H(x_i, theta) / f(x_i, theta)`` give the curvature weights
``w2_i = tr(K_i (J'J)^{-1})`` entering the bias formulae.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import DerivativeNoiseWarning, SingularError, ZeroMeanError
from .models import Array, Dataset, ModelFunction

# Reciprocal-condition floor below which J'J is declared singular.
RCOND_MIN = 1e-12


@dataclass(frozen=True)
class JacobianBundle:
    """Design summaries of a (model, data, theta) triple.

    Attributes
    ----------
    J : (n, p)
        Rows ``grad f_i / f_i``.
    JtJ, JtJ_inv : (p, p)
        The cross-product matrix and its inverse.
    Jbar : (p,)
        Row mean of J.
    w1 : (n,)
        Hat-matrix diagonal (leverages); sums to p.
    w2 : (n,)
        Curvature weights ``tr(K_i (J'J)^{-1})``.
    f : (n,)
        Mean responses at theta, kept for reuse by callers.
    """

    J: Array
    JtJ: Array
    JtJ_inv: Array
    Jbar: Array
    w1: Array
    w2: Array
    f: Array

    @property
    def n(self) -> int:
        return self.J.shape[0]

    @property
    def p(self) -> int:
        return self.J.shape[1]

    def sum_J(self) -> Array:
        """Column sums of J (the vector multiplying the bias terms)."""
        return self.J.sum(axis=0)


def build_jacobian_bundle(model: ModelFunction, data: Dataset, theta) -> JacobianBundle:
    """Assemble the J matrix, leverages, and curvature weights at ``theta``.

    Raises
    ------
    ZeroMeanError
        If any fitted mean is zero (the relative gradient is undefined).
    SingularError
        If J'J has reciprocal condition below ``RCOND_MIN`` or is not
        positive definite.
    ValueError
        If the dataset does not satisfy n > p.
    """
    theta = model.check_theta(theta)
    n, p = data.n, model.p
    if n <= p:
        raise ValueError(f"need n > p observations, got n={n}, p={p}")

    f = np.asarray(model.eval(data.x, theta), dtype=float)
    if np.any(f == 0.0):
        idx = int(np.flatnonzero(f == 0.0)[0])
        raise ZeroMeanError(f"mean response is zero at x={data.x[idx]!r}")

    G = np.asarray(model.grad(data.x, theta), dtype=float)
    J = G / f[:, None]

    JtJ = J.T @ J
    eigvals = np.linalg.eigvalsh(JtJ)
    if eigvals[0] <= 0.0 or eigvals[0] < RCOND_MIN * eigvals[-1]:
        raise SingularError(
            f"J'J is numerically singular (eigenvalue range {eigvals[0]:.3e}..{eigvals[-1]:.3e})"
        )
    JtJ_inv = np.linalg.inv(JtJ)
    JtJ_inv = 0.5 * (JtJ_inv + JtJ_inv.T)

    w1 = np.einsum("ij,jk,ik->i", J, JtJ_inv, J)

    if model.grad_fn is None and model.hess_fn is None:
        warnings.warn(
            "curvature weights use a doubly finite-differenced Hessian; "
            "expect relative noise near cbrt(eps)",
            DerivativeNoiseWarning,
            stacklevel=2,
        )
    H = np.asarray(model.hess(data.x, theta), dtype=float)
    K = H / f[:, None, None]
    w2 = np.einsum("ijk,kj->i", K, JtJ_inv)

    return JacobianBundle(J=J, JtJ=JtJ, JtJ_inv=JtJ_inv, Jbar=J.mean(axis=0),
                          w1=w1, w2=w2, f=f)
