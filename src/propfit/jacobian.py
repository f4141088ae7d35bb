"""Relative-gradient design machinery.

The rows ``J_i = grad f(x_i, theta) / f(x_i, theta)`` act as the design
matrix of the problem: ``(J'J)^{-1}`` drives every covariance, the hat-matrix
diagonal gives the leverages ``w1_i``, and the scaled Hessians
``K_i = H(x_i, theta) / f(x_i, theta)`` give the curvature weights
``w2_i = tr(K_i (J'J)^{-1})`` entering the bias formulae.

:func:`build_jacobian_bundles` builds them for a stack of parameter rows
that share their covariate, one model evaluation of the means, gradient and
Hessian for the whole stack, with each row's failure kept as that row's
error; :func:`build_jacobian_bundle` is its stack of one.
:func:`join_bundles` joins the bundles of curves fitted with one shared
scale into the bundle of their joint fit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import DerivativeNoiseWarning, SingularError, ZeroMeanError, outside_stacklevel
from .models import FAULT_GRADIENT, FAULT_HESSIAN, Array, Dataset, ModelFunction, fault_error

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


def build_jacobian_bundles(model: ModelFunction, x, thetas) -> tuple:
    """:func:`build_jacobian_bundle` at every row of ``thetas (R, p)``, all
    observed at the covariate ``x (n,)``, as one stack.

    Returns, per row, its :class:`JacobianBundle` or the
    :class:`~propfit.exceptions.PropfitError` the one-row builder raises for
    it, checked in the same order: the parameters and the means (as
    :meth:`~propfit.models.ModelFunction.eval`), a zero mean, a non-finite
    gradient, a singular ``J'J``, a non-finite Hessian. The means, gradient
    and Hessian are each evaluated once, on the rows still standing, and a
    row's numbers do not depend on the rest of the stack. ``thetas`` of the
    wrong shape, or ``n <= p``, raise ``ValueError`` for the whole call.
    """
    x, thetas = np.asarray(x, dtype=float), np.asarray(thetas, dtype=float)
    n, p = x.size, model.p
    if thetas.ndim != 2 or thetas.shape[1] != p:
        raise ValueError(f"thetas must have shape (R, {p}), got {thetas.shape}")
    if n <= p:
        raise ValueError(f"need n > p observations, got n={n}, p={p}")
    return _build_bundles(model, x, thetas)


def _build_bundles(model: ModelFunction, x: Array, thetas: Array) -> tuple:
    """:func:`build_jacobian_bundles` on a well-shaped stack, for any ``n``:
    a curve with ``n <= p`` is still a block of a joint fit with more
    observations than parameters (:func:`join_bundles`)."""
    out: list = [None] * len(thetas)

    f, fault = model.eval_rows(x, thetas)
    zero = (fault == 0) & np.any(f == 0.0, axis=1)
    for r in np.flatnonzero(fault):
        out[r] = fault_error(model, int(fault[r]))
    for r in np.flatnonzero(zero):
        idx = int(np.flatnonzero(f[r] == 0.0)[0])
        out[r] = ZeroMeanError(f"mean response is zero at x={x[idx]!r}")
    rows = np.flatnonzero((fault == 0) & ~zero)

    G = model.grad_rows(x, thetas[rows])
    finite = np.all(np.isfinite(G), axis=(1, 2))
    for r in rows[~finite]:
        out[r] = fault_error(model, FAULT_GRADIENT)
    rows = rows[finite]
    J = G[finite] / f[rows][:, :, None]

    JtJ = np.swapaxes(J, 1, 2) @ J
    eigvals = np.linalg.eigvalsh(JtJ)
    singular = (eigvals[:, 0] <= 0.0) | (eigvals[:, 0] < RCOND_MIN * eigvals[:, -1])
    for r, (low, high) in zip(rows[singular], eigvals[singular][:, [0, -1]]):
        out[r] = SingularError(
            f"J'J is numerically singular (eigenvalue range {low:.3e}..{high:.3e})")
    rows, J, JtJ = rows[~singular], J[~singular], JtJ[~singular]
    JtJ_inv = np.linalg.inv(JtJ)
    JtJ_inv = 0.5 * (JtJ_inv + np.swapaxes(JtJ_inv, 1, 2))
    w1 = np.einsum("rij,rjk,rik->ri", J, JtJ_inv, J)

    if rows.size and model.grad_fn is None and model.hess_fn is None:
        warnings.warn(
            "curvature weights use a doubly finite-differenced Hessian; "
            "expect relative noise near cbrt(eps)",
            DerivativeNoiseWarning,
            stacklevel=outside_stacklevel(),
        )
    H = model.hess_rows(x, thetas[rows])
    finite = np.all(np.isfinite(H), axis=(1, 2, 3))
    for r in rows[~finite]:
        out[r] = fault_error(model, FAULT_HESSIAN)
    K = H / f[rows][:, :, None, None]
    for i in np.flatnonzero(finite):
        # Per row: the batched form of this contraction sums in another order.
        out[rows[i]] = JacobianBundle(J=J[i], JtJ=JtJ[i], JtJ_inv=JtJ_inv[i],
                                      Jbar=J[i].mean(axis=0), w1=w1[i],
                                      w2=np.einsum("ijk,kj->i", K[i], JtJ_inv[i]), f=f[rows[i]])
    return tuple(out)


def _block_diag(blocks) -> Array:
    """The block-diagonal matrix of ``blocks`` (arrays whose last two axes
    are the blocks, any leading axes shared), zero elsewhere."""
    rows, cols = (sum(b.shape[axis] for b in blocks) for axis in (-2, -1))
    out = np.zeros(blocks[0].shape[:-2] + (rows, cols))
    i = j = 0
    for b in blocks:
        out[..., i:i + b.shape[-2], j:j + b.shape[-1]] = b
        i, j = i + b.shape[-2], j + b.shape[-1]
    return out


def join_bundles(bundles) -> JacobianBundle:
    """The bundle of curves fitted as one dataset with one shared scale, from
    each curve's own bundle: each curve's parameters act on its own
    observations only, so ``J``, ``J'J`` and ``(J'J)^{-1}`` are
    block-diagonal, every ``w1_i`` and ``w2_i`` is its curve's, and ``Jbar``
    is the mean of ``J`` over all ``n1 + n2 + ...`` rows."""
    J = _block_diag([b.J for b in bundles])
    return JacobianBundle(J=J, JtJ=_block_diag([b.JtJ for b in bundles]),
                          JtJ_inv=_block_diag([b.JtJ_inv for b in bundles]),
                          Jbar=J.mean(axis=0), w1=np.concatenate([b.w1 for b in bundles]),
                          w2=np.concatenate([b.w2 for b in bundles]),
                          f=np.concatenate([b.f for b in bundles]))


def build_jacobian_bundle(model: ModelFunction, data: Dataset, theta) -> JacobianBundle:
    """Assemble the J matrix, leverages, and curvature weights at ``theta``:
    a stack of one for :func:`build_jacobian_bundles`.

    Raises
    ------
    DomainError
        If ``theta`` has a non-finite entry or is outside the model's domain.
    NonFiniteError
        If the means, gradient or Hessian are non-finite.
    ZeroMeanError
        If any fitted mean is zero (the relative gradient is undefined).
    SingularError
        If J'J has reciprocal condition below ``RCOND_MIN`` or is not
        positive definite.
    ValueError
        If the dataset does not satisfy n > p.
    """
    bundle = build_jacobian_bundles(model, data.x, model.check_theta(theta)[None, :])[0]
    if isinstance(bundle, Exception):
        raise bundle
    return bundle
