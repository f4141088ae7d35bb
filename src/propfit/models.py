"""Mean functions and datasets for proportional-error regression.

A model is a mean function ``f(x, theta)`` with vectorized evaluation over
the covariate, optional analytic first and second parameter derivatives
(finite differences fill in when they are absent), a domain guard, and a
data-driven starting-value hook used by the fitters.

The fitters and the intersection solver work on stacks of parameter rows,
so a model's callables take ``theta`` of shape ``(..., p)``: the leading
dimensions broadcast against those of ``x`` (``theta[..., j, None]`` is the
idiom), and the trailing ``n`` of the value, ``(n, p)`` of the gradient and
``(n, p, p)`` of the Hessian follow them. A stack evaluation reports why a
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


# Why a row of a stack evaluation is undefined; 0 means it is not.
FAULT_THETA = 1  # non-finite parameters
FAULT_DOMAIN = 2  # the domain guard rejects the parameters
FAULT_VALUE = 3  # the mean is non-finite
FAULT_ZERO_MEAN = 4  # the mean is zero at an observation
FAULT_HESSIAN = 5  # the parameter Hessian is non-finite


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
    dx_fn : callable, optional
        ``(x, theta) -> (..., n)`` derivative in the covariate (used by the
        curve-intersection machinery).  Finite differences when absent.
    domain_guard : callable, optional
        ``(x, theta) -> bool`` per row of theta; False marks invalid
        evaluation points.
    start_hint : callable, optional
        ``(x, y) -> theta`` rough data-driven starting values.
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
        fault = np.where(np.all(np.isfinite(theta), axis=-1), 0, FAULT_THETA)
        if self.domain_guard is not None:
            ok = np.asarray(self.domain_guard(x, theta), dtype=bool)
            fault = np.where((fault == 0) & ~ok, FAULT_DOMAIN, fault)
        return fault

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
            raise NonFiniteError(f"gradient of model {self.name!r} is non-finite")
        return g[0] if scalar else g

    def hess(self, x, theta) -> Array:
        """Parameter Hessian; shape (p, p) for scalar x, else (n, p, p)."""
        scalar = np.isscalar(x) or np.ndim(x) == 0
        xv, theta = self._checked(x, theta)
        h = self.hess_rows(xv, theta)
        if not np.all(np.isfinite(h)):
            raise NonFiniteError(f"Hessian of model {self.name!r} is non-finite")
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
    raise ValueError(f"unknown fault code {code!r}")


# ---------------------------------------------------------------------------
# Derivative checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FdCheckReport:
    """Outcome of comparing analytic derivatives against central differences."""

    model: str
    grad_max_rel_err: float
    hess_max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.grad_max_rel_err <= self.tol and self.hess_max_rel_err <= self.tol


def fd_check(model: ModelFunction, theta, xs, tol: float = 1e-5) -> FdCheckReport:
    """Compare a model's analytic derivatives against finite differences.

    Requires at least one analytic derivative to be supplied; the report
    flags (never raises on) discrepancies above ``tol`` relative error.
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
        hess_err = rel_gap(np.asarray(model.hess_fn(xv, theta)), fd)

    return FdCheckReport(model=model.name, grad_max_rel_err=grad_err,
                         hess_max_rel_err=hess_err, tol=tol)


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
        start_hint=lambda x, y: np.array([float(np.mean(y))]),
    )


def scaled_shape_model(g: Callable[[Array], Array], name: str = "scaled_shape") -> ModelFunction:
    """Fixed shape scaled by one parameter: f = theta1 * g(x)."""

    def ev(x, t):
        return t[..., :1] * np.asarray(g(x), dtype=float)

    def gr(x, t):
        return np.ones(_value_shape(x, t) + (1,)) * np.asarray(g(x), dtype=float)[..., None]

    def he(x, t):
        return np.zeros(_value_shape(x, t) + (1, 1))

    def hint(x, y):
        gx = np.asarray(g(x), dtype=float)
        denom = float(gx @ gx)
        return np.array([float(y @ gx) / denom if denom > 0 else 1.0])

    return ModelFunction(
        name=name,
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

    def hint(x, y):
        pos = y > 0
        if pos.sum() >= 2 and np.ptp(x[pos]) > 0:
            slope, intercept = np.polyfit(x[pos], np.log(y[pos]), 1)
            if slope < 0:
                return np.array([float(np.exp(intercept)), -1.0 / slope])
        span = float(np.ptp(x)) or 1.0
        return np.array([float(np.max(np.abs(y))) or 1.0, span])

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
        return np.stack([
            1.0 - e,
            a1 * e / a3,
            -a1 * (x + a2) / a3 ** 2 * e,
        ], axis=-1)

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

    def dx(x, t):
        return t[..., 0, None] / t[..., 2, None] * _e(x, t)

    def hint(x, y):
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
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

MODEL_REGISTRY: dict[str, Callable[..., ModelFunction]] = {
    "constant": constant_model,
    "exponential": exponential_decay_model,
    "saturating_exponential": saturating_exponential_model,
}


def register_model(name: str, factory: Callable[..., ModelFunction]) -> None:
    """Register a user model factory under ``name``."""
    MODEL_REGISTRY[name] = factory


def get_model(name: str, **options) -> ModelFunction:
    """Instantiate a registered model by name."""
    try:
        factory = MODEL_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_REGISTRY))
        raise KeyError(f"unknown model {name!r}; registered models: {known}") from None
    return factory(**options)
