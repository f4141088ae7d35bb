"""Mean functions and datasets for proportional-error regression.

A model is a mean function ``f(x, theta)`` with vectorized evaluation over
the covariate, optional analytic first and second parameter derivatives
(finite differences fill in when they are absent), a domain guard, and a
data-driven starting-value hook used by the fitters.

The fitters and the intersection solver work on stacks of parameter rows,
so a model's callables take ``theta`` of shape ``(..., p)``: the leading
dimensions broadcast against those of ``x`` (``theta[..., j, None]`` is the
idiom), and the trailing ``n`` of the value, ``(n, p)`` of the gradient and
``(n, p, p)`` of the Hessian follow them; weights ``c`` take the shape of the
value and contract the Hessian to ``(p, p)``. A stack evaluation reports why a
row is undefined as a fault code instead of raising, so one bad row fails
alone; :func:`fault_error` turns a code into the exception the unbatched
path raises.

Built-in models cover the shapes the bias formulae distinguish: a constant
mean, a fixed shape scaled by a single parameter, a two-parameter
exponential decay, and the three-parameter saturating exponential used for
thermoluminescence dose-response curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .exceptions import DomainError, NonFiniteError, PropfitError, ZeroMeanError

Array = NDArray[np.float64]

# Central-difference step scale for first derivatives; second derivatives
# nest the same scheme and are symmetrized afterwards.
_FD_STEP = float(np.cbrt(np.finfo(float).eps))
# The largest relative gap between analytic and finite-difference
# derivatives that :func:`fd_check` passes.
_FD_TOL = 1e-5


# Why a row of a stack evaluation is undefined; 0 means it is not.
FAULT_THETA = 1  # non-finite parameters
FAULT_DOMAIN = 2  # the domain guard rejects the parameters
FAULT_VALUE = 3  # the mean is non-finite
FAULT_ZERO_MEAN = 4  # the mean is zero at an observation
FAULT_HESSIAN = 5  # the parameter Hessian is non-finite
FAULT_GRADIENT = 6  # the parameter gradient is non-finite


def _as_1d(x) -> Array:
    return np.atleast_1d(np.asarray(x, dtype=float))


def _value_shape(x, t) -> tuple[int, ...]:
    """Shape of ``f(x, t)``: x broadcast against the rows of ``t``."""
    return np.broadcast_shapes(np.shape(x), np.shape(t)[:-1] + (1,))


@dataclass(frozen=True)
class Dataset:
    """Paired observations (x, y) for a single curve.

    Both arrays are 1-D, equal length, and finite.  ``x`` is the covariate
    (dose, in the dating application), ``y`` the observed response.
    """

    x: Array
    y: Array

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or y.ndim != 1:
            raise ValueError("x and y must be 1-D arrays")
        if x.shape != y.shape:
            raise ValueError(f"x and y must match in length, got {x.shape} vs {y.shape}")
        if x.size < 1:
            raise ValueError("dataset must contain at least one observation")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("observations must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class ModelFunction:
    """A mean function with derivative and domain contracts.

    Parameters
    ----------
    name : str
        Registry name.
    p : int
        Number of parameters.
    param_names : tuple of str
        Labels for the parameter vector components, used in reports.
    eval_fn : callable
        ``(x(n,), theta(..., p)) -> f(..., n)``, vectorized over x and over
        the rows of theta (see the module docstring).
    grad_fn : callable, optional
        ``(x, theta) -> (..., n, p)`` analytic parameter gradient.  When
        absent, central finite differences with step
        ``cbrt(eps) * max(1, |theta_j|)`` are used.
    hess_fn : callable, optional
        ``(x, theta) -> (..., n, p, p)`` analytic parameter Hessian.  When
        absent, nested central differences of the gradient, symmetrized.
    whess_fn : callable, optional
        ``(x, theta, c(..., n)) -> (..., p, p)``, the Hessian contracted with
        the weights: ``sum_i c_i H_i``, which the Newton solver needs, without
        the ``(..., n, p, p)`` array.  Used only together with ``hess_fn``,
        so replace both or neither (:func:`fd_check` compares them); when
        absent, :meth:`whess_rows` contracts :meth:`hess_rows`.
    dx_fn : callable, optional
        ``(x, theta) -> (..., n)`` derivative in the covariate (used by the
        curve-intersection machinery).  Finite differences when absent.
    domain_guard : callable, optional
        ``(x, theta) -> bool`` per row of theta; False marks invalid
        evaluation points.
    start_hint : callable, optional
        ``(x(n,), Y(..., n)) -> theta(..., p)`` data-driven starting values,
        one row per row of responses. With ``start="auto"`` every method's
        solve starts at the hint (at ones for a model without one), so a
        hint near the least-squares answer saves iterations. The fitters
        call it once per stack, so a row's hint must not depend on the other
        rows of ``Y``.
    """

    name: str
    p: int
    param_names: tuple[str, ...]
    eval_fn: Callable[[Array, Array], Array]
    grad_fn: Callable[[Array, Array], Array] | None = None
    hess_fn: Callable[[Array, Array], Array] | None = None
    dx_fn: Callable[[Array, Array], Array] | None = None
    domain_guard: Callable[[Array, Array], bool] | None = None
    start_hint: Callable[[Array, Array], Array] | None = None
    whess_fn: Callable[[Array, Array, Array], Array] | None = None

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("model must have at least one parameter")
        if len(self.param_names) != self.p:
            raise ValueError("param_names length must equal p")

    # -- validation ---------------------------------------------------

    def check_theta(self, theta) -> Array:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.p,):
            raise ValueError(f"theta must have shape ({self.p},), got {theta.shape}")
        if not np.all(np.isfinite(theta)):
            raise DomainError("parameter vector contains non-finite entries")
        return theta

    def faults(self, x, theta) -> Array:
        """Fault code per row of ``theta (..., p)``: :data:`FAULT_THETA` where
        it has a non-finite entry, :data:`FAULT_DOMAIN` where the domain guard
        rejects it, else 0."""
        finite = np.isfinite(theta).all(axis=-1)
        guard = True
        if self.domain_guard is not None:
            guard = np.asarray(self.domain_guard(x, theta), dtype=bool)
        ok = finite & guard
        if ok.all():
            return np.zeros(ok.shape, dtype=int)
        return np.where(finite, np.where(guard, 0, FAULT_DOMAIN), FAULT_THETA)

    def eval_rows(self, x, theta) -> tuple[Array, Array]:
        """:meth:`eval` over the rows of ``theta (..., p)``: the means and a
        fault code per row (:data:`FAULT_VALUE` where a mean is non-finite)."""
        theta = np.asarray(theta, dtype=float)
        with np.errstate(all="ignore"):
            f = np.asarray(self.eval_fn(x, theta), dtype=float)
        fault = self.faults(x, theta)
        return f, np.where((fault == 0) & ~np.all(np.isfinite(f), axis=-1), FAULT_VALUE, fault)

    def grad_rows(self, x, theta) -> Array:
        """The parameter gradient over the rows of ``theta``, unchecked: the
        analytic one, else central differences."""
        if self.grad_fn is not None:
            return np.asarray(self.grad_fn(x, theta), dtype=float)
        return self._fd_grad(x, theta)

    def hess_rows(self, x, theta) -> Array:
        """The parameter Hessian over the rows of ``theta``, unchecked."""
        if self.hess_fn is not None:
            return np.asarray(self.hess_fn(x, theta), dtype=float)
        h = self._fd_hess(x, theta)
        return 0.5 * (h + np.swapaxes(h, -1, -2))

    def whess_rows(self, x, theta, c) -> Array:
        """``sum_i c_i H_i`` over the rows of ``theta`` and of the weights
        ``c``, unchecked: the model's contraction (``whess_fn``, heeded only
        beside an analytic ``hess_fn``), else that of :meth:`hess_rows`."""
        if self.whess_fn is not None and self.hess_fn is not None:
            return np.asarray(self.whess_fn(x, theta, c), dtype=float)
        return _contract(c, self.hess_rows(x, theta))

    def dx_rows(self, x, theta) -> Array:
        """The derivative in the covariate over the rows of ``theta``, unchecked."""
        if self.dx_fn is not None:
            return np.asarray(self.dx_fn(x, theta), dtype=float)
        h = _FD_STEP * np.maximum(1.0, np.max(np.abs(x), axis=-1, keepdims=True, initial=0.0))
        return (self.eval_fn(x + h, theta) - self.eval_fn(x - h, theta)) / (2.0 * h)

    # -- evaluation ---------------------------------------------------

    def _checked(self, x, theta) -> tuple[Array, Array]:
        """``x`` as 1-D and the checked ``theta``; raises what :meth:`eval`
        raises where ``theta`` is outside the model's domain."""
        xv, theta = _as_1d(x), self.check_theta(theta)
        fault = self.faults(xv, theta)
        if fault:
            raise fault_error(self, int(fault))
        return xv, theta

    def eval(self, x, theta) -> Array | float:
        """Mean response f(x, theta); scalar in, scalar out."""
        scalar = np.isscalar(x) or np.ndim(x) == 0
        xv = _as_1d(x)
        f, fault = self.eval_rows(xv, self.check_theta(theta))
        if fault:
            raise fault_error(self, int(fault))
        return float(f[0]) if scalar else f

    def grad(self, x, theta) -> Array:
        """Parameter gradient; shape (p,) for scalar x, else (n, p)."""
        scalar = np.isscalar(x) or np.ndim(x) == 0
        xv, theta = self._checked(x, theta)
        g = self.grad_rows(xv, theta)
        if not np.all(np.isfinite(g)):
            raise fault_error(self, FAULT_GRADIENT)
        return g[0] if scalar else g

    def hess(self, x, theta) -> Array:
        """Parameter Hessian; shape (p, p) for scalar x, else (n, p, p)."""
        scalar = np.isscalar(x) or np.ndim(x) == 0
        xv, theta = self._checked(x, theta)
        h = self.hess_rows(xv, theta)
        if not np.all(np.isfinite(h)):
            raise fault_error(self, FAULT_HESSIAN)
        return h[0] if scalar else h

    def dx(self, x, theta) -> Array | float:
        """Derivative of the mean in the covariate."""
        scalar = np.isscalar(x) or np.ndim(x) == 0
        xv, theta = self._checked(x, theta)
        d = self.dx_rows(xv, theta)
        return float(d[0]) if scalar else d

    # -- finite differences --------------------------------------------

    def _steps(self, theta: Array) -> Array:
        return _FD_STEP * np.maximum(1.0, np.abs(theta))

    def _fd_grad(self, x: Array, theta: Array) -> Array:
        h = self._steps(theta)
        cols = []
        for j in range(self.p):
            tp, tm = theta.copy(), theta.copy()
            tp[..., j] += h[..., j]
            tm[..., j] -= h[..., j]
            # Divide by the step actually representable in floats.
            step = tp[..., j, None] - tm[..., j, None]
            cols.append((self.eval_fn(x, tp) - self.eval_fn(x, tm)) / step)
        return np.stack(cols, axis=-1)

    def _fd_hess(self, x: Array, theta: Array) -> Array:
        # Central difference of the (possibly analytic) gradient.
        h = self._steps(theta)
        grad = self.grad_fn if self.grad_fn is not None else self._fd_grad
        cols = []
        for k in range(self.p):
            tp, tm = theta.copy(), theta.copy()
            tp[..., k] += h[..., k]
            tm[..., k] -= h[..., k]
            step = tp[..., k, None, None] - tm[..., k, None, None]
            cols.append((np.asarray(grad(x, tp)) - np.asarray(grad(x, tm))) / step)
        return np.stack(cols, axis=-1)


def _contract(c: Array, H: Array) -> Array:
    """``sum_i c_i H_i``: weights ``(..., n)`` times Hessians ``(..., n, p, p)``."""
    p = H.shape[-1]
    return (c[..., None, :] @ H.reshape(H.shape[:-2] + (p * p,))).reshape(c.shape[:-1] + (p, p))


def fault_error(model: ModelFunction, code: int) -> PropfitError:
    """The exception the unbatched path raises for a row with fault ``code``."""
    if code == FAULT_THETA:
        return DomainError("parameter vector contains non-finite entries")
    if code == FAULT_DOMAIN:
        return DomainError(f"model {model.name!r} is undefined at the requested point")
    if code == FAULT_VALUE:
        return NonFiniteError(f"model {model.name!r} evaluated non-finite")
    if code == FAULT_ZERO_MEAN:
        return ZeroMeanError("mean response is zero at an observation")
    if code == FAULT_HESSIAN:
        return NonFiniteError(f"Hessian of model {model.name!r} is non-finite")
    if code == FAULT_GRADIENT:
        return NonFiniteError(f"gradient of model {model.name!r} is non-finite")
    raise ValueError(f"unknown fault code {code!r}")


# ---------------------------------------------------------------------------
# Derivative checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FdCheckReport:
    """Outcome of comparing analytic derivatives against central differences.

    ``hess_max_rel_err`` also covers the contraction ``whess_fn`` against
    ``hess_fn``'s Hessians under signed weights.
    """

    model: str
    grad_max_rel_err: float
    hess_max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.grad_max_rel_err <= self.tol and self.hess_max_rel_err <= self.tol


def fd_check(model: ModelFunction, theta, xs) -> FdCheckReport:
    """Compare a model's analytic derivatives against finite differences.

    Requires at least one analytic derivative to be supplied; the report
    flags (never raises on) discrepancies above its ``tol``, 1e-5 relative
    error.
    """
    if model.grad_fn is None and model.hess_fn is None:
        raise ValueError("fd_check requires analytic derivatives to compare against")
    xv = _as_1d(xs)
    theta = model.check_theta(theta)

    def rel_gap(a: Array, b: Array) -> float:
        scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
        return float(np.max(np.abs(a - b))) / scale

    grad_err = 0.0
    if model.grad_fn is not None:
        grad_err = rel_gap(np.asarray(model.grad_fn(xv, theta)), model._fd_grad(xv, theta))

    hess_err = 0.0
    if model.hess_fn is not None:
        fd = model._fd_hess(xv, theta)
        fd = 0.5 * (fd + np.transpose(fd, (0, 2, 1)))
        H = np.asarray(model.hess_fn(xv, theta))
        hess_err = rel_gap(H, fd)
        if model.whess_fn is not None:
            c = np.random.default_rng(0).standard_normal(xv.size)
            hess_err = max(hess_err, rel_gap(model.whess_rows(xv, theta, c), _contract(c, H)))

    return FdCheckReport(model=model.name, grad_max_rel_err=grad_err,
                         hess_max_rel_err=hess_err, tol=_FD_TOL)


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------

def constant_model() -> ModelFunction:
    """Constant mean f = theta1."""

    def ev(x, t):
        return t[..., :1] * np.ones(_value_shape(x, t))

    def gr(x, t):
        return np.ones(_value_shape(x, t) + (1,))

    def he(x, t):
        return np.zeros(_value_shape(x, t) + (1, 1))

    return ModelFunction(
        name="constant",
        p=1,
        param_names=("theta1",),
        eval_fn=ev,
        grad_fn=gr,
        hess_fn=he,
        dx_fn=lambda x, t: np.zeros(_value_shape(x, t)),
        start_hint=lambda x, Y: np.mean(Y, axis=-1, keepdims=True),
    )


def scaled_shape_model(g: Callable[[Array], Array]) -> ModelFunction:
    """Fixed shape scaled by one parameter: f = theta1 * g(x)."""

    def ev(x, t):
        return t[..., :1] * np.asarray(g(x), dtype=float)

    def gr(x, t):
        return np.ones(_value_shape(x, t) + (1,)) * np.asarray(g(x), dtype=float)[..., None]

    def he(x, t):
        return np.zeros(_value_shape(x, t) + (1, 1))

    def hint(x, Y):
        gx, Y = np.asarray(g(x), dtype=float), np.asarray(Y, dtype=float)
        denom = np.sum(gx * gx)
        return (np.sum(Y * gx, axis=-1, keepdims=True) / denom if denom > 0
                else np.ones_like(Y[..., :1]))

    return ModelFunction(
        name="scaled_shape",
        p=1,
        param_names=("theta1",),
        eval_fn=ev,
        grad_fn=gr,
        hess_fn=he,
        start_hint=hint,
    )


def exponential_decay_model() -> ModelFunction:
    """Two-parameter exponential decay f = theta1 * exp(-x / theta2)."""

    def ev(x, t):
        return t[..., 0, None] * np.exp(-x / t[..., 1, None])

    def gr(x, t):
        a, b = t[..., 0, None], t[..., 1, None]
        e = np.exp(-x / b)
        return np.stack([e, a * x / b ** 2 * e], axis=-1)

    def he(x, t):
        a, b = t[..., 0, None], t[..., 1, None]
        e = np.exp(-x / b)
        h = np.zeros(e.shape + (2, 2))
        h[..., 0, 1] = h[..., 1, 0] = x / b ** 2 * e
        h[..., 1, 1] = a * x * e * (x - 2.0 * b) / b ** 4
        return h

    def dx(x, t):
        return -t[..., 0, None] / t[..., 1, None] * np.exp(-x / t[..., 1, None])

    def hint_row(x, y):
        # A log-linear fit to the responses of the majority sign; theta1
        # takes that sign.
        sign = -1.0 if np.sum(y < 0) > np.sum(y > 0) else 1.0
        keep = sign * y > 0
        if keep.sum() >= 2 and np.ptp(x[keep]) > 0:
            slope, intercept = np.polyfit(x[keep], np.log(sign * y[keep]), 1)
            if slope < 0:
                return np.array([sign * float(np.exp(intercept)), -1.0 / slope])
        span = float(np.ptp(x)) or 1.0
        return np.array([sign * (float(np.max(np.abs(y))) or 1.0), span])

    def hint(x, Y):
        Y = np.asarray(Y, dtype=float)
        rows = [hint_row(x, y) for y in Y.reshape(-1, Y.shape[-1])]
        return np.reshape(rows, Y.shape[:-1] + (2,))

    return ModelFunction(
        name="exponential",
        p=2,
        param_names=("theta1", "theta2"),
        eval_fn=ev,
        grad_fn=gr,
        hess_fn=he,
        dx_fn=dx,
        domain_guard=lambda x, t: t[..., 1] != 0.0,
        start_hint=hint,
    )


# The saturating exponential's start hint tries a3 at these multiples of the
# dose span, log-spaced from 1/20 to 20 times it.
_RATE_GRID = np.geomspace(0.05, 20.0, 48)


def saturating_exponential_model() -> ModelFunction:
    """Saturating exponential f = a1 * (1 - exp(-(x + a2) / a3)).

    The dose-response shape for thermoluminescence curves: ``a1`` is the
    saturation level, ``a2`` shifts the dose axis, ``a3`` sets the
    saturation rate.
    """

    def _e(x, t):
        return np.exp(-(x + t[..., 1, None]) / t[..., 2, None])

    def ev(x, t):
        return t[..., 0, None] * (1.0 - _e(x, t))

    def gr(x, t):
        a1, a2, a3 = t[..., 0, None], t[..., 1, None], t[..., 2, None]
        e = _e(x, t)
        g = np.empty(e.shape + (3,))
        g[..., 0] = 1.0 - e
        g[..., 1] = a1 * e / a3
        g[..., 2] = -a1 * (x + a2) / a3 ** 2 * e
        return g

    def he(x, t):
        a1, a2, a3 = t[..., 0, None], t[..., 1, None], t[..., 2, None]
        e = _e(x, t)
        u = x + a2
        h = np.zeros(e.shape + (3, 3))
        h[..., 0, 1] = h[..., 1, 0] = e / a3
        h[..., 0, 2] = h[..., 2, 0] = -u / a3 ** 2 * e
        h[..., 1, 1] = -a1 * e / a3 ** 2
        h[..., 1, 2] = h[..., 2, 1] = a1 * e * (u - a3) / a3 ** 3
        h[..., 2, 2] = a1 * e * u * (2.0 * a3 - u) / a3 ** 4
        return h

    def whe(x, t, c):
        # sum_i c_i H_i from S_k = sum_i c_i e_i u_i^k, k = 0, 1, 2.
        a1, a3 = t[..., 0], t[..., 2]
        ce, u = c * _e(x, t), x + t[..., 1, None]
        s0, s1, s2 = ce.sum(axis=-1), (ce * u).sum(axis=-1), (ce * u * u).sum(axis=-1)
        h = np.zeros(s0.shape + (3, 3))
        h[..., 0, 1] = h[..., 1, 0] = s0 / a3
        h[..., 0, 2] = h[..., 2, 0] = -s1 / a3 ** 2
        h[..., 1, 1] = -a1 * s0 / a3 ** 2
        h[..., 1, 2] = h[..., 2, 1] = a1 * (s1 - a3 * s0) / a3 ** 3
        h[..., 2, 2] = a1 * (2.0 * a3 * s1 - s2) / a3 ** 4
        return h

    def dx(x, t):
        return t[..., 0, None] / t[..., 2, None] * _e(x, t)

    def heuristic(x, y):
        a1 = 1.05 * float(np.max(y))
        if a1 <= 0:
            a1 = 1.0
        a3 = float(np.ptp(x)) or 1.0
        x_med = float(np.median(x))
        y_med = float(np.median(y))
        frac = y_med / a1
        if 0.0 < frac < 1.0:
            a2 = -x_med - a3 * np.log(1.0 - frac)
        else:
            a2 = 0.1 * a3
        return np.array([a1, a2, a3])

    def hint(x, Y):
        # Variable projection: at a fixed a3 the mean is A + B z with
        # z = exp(-(x - x0)/a3), linear in (A, B), so each grid a3 costs one
        # 2x2 least-squares solve. The best grid point with A > 0 > B gives
        # a1 = A and -B/A = exp(-(x0 + a2)/a3). Every sum runs along a row,
        # so a row's hint does not depend on the other rows of Y.
        x, Y = np.asarray(x, dtype=float), np.asarray(Y, dtype=float)
        rows = Y.reshape(-1, x.size)
        theta = np.full((len(rows), 3), np.nan)
        span, n = float(np.ptp(x)), x.size
        if span > 0 and n >= 4:
            x0 = float(np.min(x))
            a3 = span * _RATE_GRID
            z = np.exp(-(x - x0) / a3[:, None])  # (grid, n)
            sz, szz = np.sum(z, axis=-1), np.sum(z * z, axis=-1)
            det = n * szz - sz * sz
            sy = np.sum(rows, axis=-1, keepdims=True)
            szy = np.sum(rows[:, None, :] * z, axis=-1)  # (rows, grid)
            with np.errstate(all="ignore"):
                A = (szz * sy - sz * szy) / det
                B = (n * szy - sz * sy) / det
                rss = np.sum((rows[:, None, :] - A[..., None] - B[..., None] * z) ** 2, axis=-1)
                rss[(A <= 0.0) | (B >= 0.0) | np.any(rows <= 0.0, axis=-1, keepdims=True)] = np.inf
                best = np.argmin(rss, axis=-1)
                ok = np.isfinite(np.min(rss, axis=-1))
                A, B, a3 = A[ok, best[ok]], B[ok, best[ok]], a3[best[ok]]
                theta[ok] = np.stack([A, -a3 * np.log(-B / A) - x0, a3], axis=-1)
        for i in np.flatnonzero(~np.all(np.isfinite(theta), axis=-1)):
            theta[i] = heuristic(x, rows[i])
        return theta.reshape(Y.shape[:-1] + (3,))

    return ModelFunction(
        name="saturating_exponential",
        p=3,
        param_names=("alpha1", "alpha2", "alpha3"),
        eval_fn=ev,
        grad_fn=gr,
        hess_fn=he,
        dx_fn=dx,
        domain_guard=lambda x, t: t[..., 2] != 0.0,
        start_hint=hint,
        whess_fn=whe,
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

MODEL_REGISTRY: dict[str, Callable[[], ModelFunction]] = {
    "constant": constant_model,
    "exponential": exponential_decay_model,
    "saturating_exponential": saturating_exponential_model,
}


def get_model(name: str) -> ModelFunction:
    """Instantiate a built-in model (one of :data:`MODEL_REGISTRY`) by name."""
    try:
        factory = MODEL_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_REGISTRY))
        raise KeyError(f"unknown model {name!r}; registered models: {known}") from None
    return factory()
