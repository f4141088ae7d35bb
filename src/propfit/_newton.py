"""Estimating equations and their Newton solver, with Fisher scoring as fallback.

An estimating equation ``G(theta) = sum_i c_i grad f_i = 0`` is the stationary
condition of an objective (:class:`_Equation`). :func:`_point` evaluates a
stack of datasets (:class:`_Data`), row ``r`` with its own model, covariate
and count of observations and the equation ``k[r]`` of a table, so one solve
covers every method on every curve (as one intersection scan covers every
method's dose). A row shorter than the longest is padded, and a pad adds
exactly zero to ``G``, its Jacobian and scale, the objective and ML's scale.
The stack's equation layout, its runs of rows of one equation and its ML
rows, is built once (:func:`_assign`) and cut with the stack as rows
stop, and so are the stack's constants: each row's pooled count of
observations and each run's views of ``y``, ``live`` and ``n``. So each
evaluation calls every equation once on its run's rows, and finds the
weights ``c`` and their derivative ``c'`` in one pass over the runs.

The first rows of a stack may be pairs: two rows, each with its own
parameters, that are one dataset of both rows' observations, as a
common-sigma fit of two curves is. A pair shares its objective, its
``max|G|`` and scale (the larger of its rows') and ML's scale ``s^2`` over
both rows' observations, whose derivative couples the rows' Newton step:
one solve of the system in both rows' parameters. Everything below that
holds for a row holds for a pair as a whole: its step decisions, its
convergence, stop and failure, and its independence of the rest of the stack.

Rows (and pairs) share only the array operations, never a number, so a
row's iterates are the same whatever else is in a stack of its length;
padding reorders its sums, which changes them only to rounding. The
Jacobian's ``sum_i c_i H_i`` is the model's contraction
(:meth:`~propfit.models.ModelFunction.whess_rows`), so a model with a
``whess_fn`` never builds its ``(rows, n, p, p)`` Hessian here. An
iteration takes the exact Newton step when it lowers both the objective
and ``max|G|``; otherwise it halves the scoring step (the Jacobian
replaced by its expectation, per row) until the objective falls, and the
step it takes replaces the row's rejected Newton trial. Near the
root the objective ``Q`` stops changing beyond rounding, so a rise within
its rounding level ``16 eps (|Q| + sum_i |c_i f_i|)`` counts as no rise
when ``max|G|`` falls: the first term is the rounding of ``Q``'s own
terms, the second what rounding the means ``f`` to ``eps`` moves ``Q`` by
(over ``s^2`` for ML's profiled objective, whose gradient is ``G/s^2``).

A row has converged when every component of ``G`` at its current iterate
meets ``|G_j| <= max(tol_relative * S_j, 64 eps F_j)``: ``S_j = sum_i |c_i
df_i/dtheta_j|`` is the size of the terms of ``G_j`` and ``F_j = sum_i
|c'_i f_i df_i/dtheta_j|`` the rounding level of ``G_j``, which rounding
the means ``f`` to ``eps`` moves it by. Both follow the units of ``x`` and
``y`` as ``G_j`` does, so the test is unit-free, and the second is the
floor below which no step can lower ``|G_j|``: on noise-free data, where
``S_j`` tends to zero at the root, the row stops there. A pair converges
when both its rows do. A row's ``tolerance`` is the largest of its bounds
(a pair's, of both rows' bounds), whose units differ by component, so it
bounds nothing about the small components.

A row stops moving once it converges, finds no step, runs out of
iterations or fails. Non-convergence is not an error: the row's iterate with
the smallest ``max|G|`` comes back flagged. A row fails alone when its
equation is undefined or non-finite at its start, its Hessian is non-finite
or its scoring matrix is singular: its numbers are NaN and its ``fault`` is
a :func:`~propfit.models.fault_error` code. A pair fails whole, and its
other row has NaN numbers and code 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .models import FAULT_EQUATION, FAULT_HESSIAN, FAULT_SINGULAR, FAULT_ZERO_MEAN, Array, ModelFunction

_MAX_HALVINGS = 20
_EPS = np.finfo(float).eps
# |G_j| within this many eps of its rounding level F_j has converged.
_RESIDUAL_ULPS = 64
# Objective rises within this many eps of |Q| + sum_i |c_i f_i| are
# rounding, not a rise.
_OBJECTIVE_ULPS = 16


@dataclass(frozen=True)
class _Equation:
    """An estimating equation ``G = sum_i c_i grad f_i`` and its objective.

    ``weight(f, y)`` is ``c``, ``dweight`` its derivative in ``f`` and
    ``scoring`` the signed weights ``w`` of the scoring matrix ``sum_i w_i
    grad f_i grad f_i'``. ``objective(f, y, live, n)`` is stationary at the
    root and +inf outside its domain; it sums only where ``live`` (see
    :class:`_Data`) and counts ``n`` observations per row. ``profiled`` (ML)
    adds ``s^2/f`` to ``c``, with ``s^2 = mean(((y-f)/f)^2)``, and
    ``ds^2/dtheta`` to the Jacobian.
    """

    weight: Callable[[Array, Array], Array]
    dweight: Callable[[Array, Array], Array]
    scoring: Callable[[Array, Array], Array]
    objective: Callable[[Array, Array, Array | None, Array], Array]
    divides_by_f: bool = True
    profiled: bool = False


def _t(a: Array) -> Array:
    return a.swapaxes(-1, -2)


def _sum(a: Array, live: Array | None) -> Array:
    """The sum over each row's observations, ``live`` masking its pads."""
    return (a if live is None else np.where(live, a, 0.0)).sum(axis=-1)


def _cut(runs: tuple, index: Array) -> tuple:
    """The runs (see :class:`_Data`) of the rows ``index`` (ascending
    positions) keeps, the ones it empties dropped."""
    ends = index.searchsorted([b for _, _, b in runs]).tolist()
    return tuple((eq, a, b) for (eq, _, _), a, b in zip(runs, [0, *ends], ends) if a < b)


@dataclass(frozen=True)
class _Data:
    """The datasets of a stack. Row ``r`` observes ``y[r]`` at ``x[r]`` (or at
    a shared ``x``) under ``models[curve[r]]``: ``n[r]`` observations, then
    pads (copies of the last) that ``live`` masks (None if there are none).
    ``callers[r]`` is the model whose callables evaluate row ``r`` (None: ``models[0]``'s).
    Rows ``2j`` and ``2j + 1``, ``j < pairs``, are a pair: one dataset of both
    rows' observations, whose parameters are both rows'.

    The equation layout (:func:`_assign`, empty until then): ``runs``
    holds ``(equation, a, b)`` per run of rows ``a:b`` that solve one
    equation, all of them pairs or none, and ``ml`` is the slice of the rows
    whose equation is profiled (None if none). ``views`` holds per run
    ``(y[a:b], y, live, n)`` of its datasets: a row's, or a pair's both
    rows' observations, which its objective sums. ``pooled`` is the count
    of observations of each row's dataset (a pair's in both rows). A cut
    keeps the layout and builds its own constants.
    """

    models: tuple[ModelFunction, ...]
    curve: Array
    x: Array
    y: Array
    n: Array
    live: Array | None
    callers: Array | None
    pairs: int = 0
    runs: tuple = ()
    ml: slice | None = field(init=False, default=None)
    views: tuple = field(init=False, default=())
    pooled: Array = field(init=False, default=None)

    def __post_init__(self):
        ml = [(a, b) for eq, a, b in self.runs if eq.profiled]
        object.__setattr__(self, "ml", slice(ml[0][0], ml[-1][1]) if ml else None)
        pooled = self.pairwise(np.add, self.n)
        views = []
        for _, a, b in self.runs:
            y, live = self.y[a:b], None if self.live is None else self.live[a:b]
            if b <= 2 * self.pairs:
                views.append((y, y.reshape((b - a) // 2, -1),
                              None if live is None else live.reshape((b - a) // 2, -1),
                              pooled[a:b:2]))
            else:
                views.append((y, y, live, self.n[a:b]))
        object.__setattr__(self, "views", tuple(views))
        object.__setattr__(self, "pooled", pooled)

    def __getitem__(self, index) -> "_Data":
        """The rows ``index`` selects (a boolean mask or ascending positions),
        which keeps pairs whole."""
        index = np.asarray(index)
        if index.dtype == bool:
            index = index.nonzero()[0]
        pairs = self.pairs and int(index.searchsorted(2 * self.pairs)) // 2
        return _Data(self.models, self.curve[index], self.x if self.x.ndim == 1 else self.x[index],
                     self.y[index], self.n[index], None if self.live is None else self.live[index],
                     None if self.callers is None else self.callers[index], pairs,
                     _cut(self.runs, index))

    def pairwise(self, op, v: Array) -> Array:
        """``v`` per row, with both rows of a pair set to ``op`` of their two values."""
        if not self.pairs:
            return v
        two, out = 2 * self.pairs, v.copy()
        out[:two].reshape(self.pairs, 2, *v.shape[1:])[...] = op(v[0:two:2], v[1:two:2])[:, None]
        return out

    def call(self, name: str, theta: Array, *per_row: Array) -> Array:
        """``models[curve[r]].<name>(x[r], theta[r], *(a[r] for a in per_row))``
        per row, in one call per set of callables; elementwise models give the
        same bits either way."""
        if self.callers is None or not len(theta):
            return getattr(self.models[0], name)(self.x, theta, *per_row)
        parts = [(rows, np.asarray(getattr(self.models[g], name)(
                     self.x[rows], theta[rows], *(a[rows] for a in per_row))))
                 for g in dict.fromkeys(self.callers.tolist())
                 for rows in [np.flatnonzero(self.callers == g)]]
        out = np.empty(theta.shape[:1] + parts[0][1].shape[1:], dtype=parts[0][1].dtype)
        for rows, part in parts:
            out[rows] = part
        return out


def _stack(curves) -> _Data:
    """The datasets of ``curves``, each ``(model, x (n,), Y (R, n))``, as one
    stack in curve order: one curve keeps its shared ``x``, several are
    padded to the longest with copies of each row's last observation."""
    models = tuple(model for model, _, _ in curves)
    width = max(x.size for _, x, _ in curves)

    def pad(a):
        return a if a.shape[-1] == width else np.pad(
            a, [(0, 0)] * (a.ndim - 1) + [(0, width - a.shape[-1])],
            mode="edge" if a.shape[-1] else "constant")

    kernels = [(m.eval_fn, m.grad_fn, m.hess_fn, m.whess_fn, m.domain_guard) for m in models]
    owner = np.array([kernels.index(kernel) for kernel in kernels])
    curve = np.repeat(np.arange(len(curves)), [len(Y) for _, _, Y in curves])
    n = np.concatenate([np.full(len(Y), x.size) for _, x, Y in curves])
    x = curves[0][1] if len(curves) == 1 else np.concatenate(
        [np.broadcast_to(pad(x), (len(Y), width)) for _, x, Y in curves])
    return _Data(models, curve, x, np.concatenate([pad(Y) for _, _, Y in curves]), n,
                 np.arange(width) < n[:, None] if np.any(n < width) else None,
                 owner[curve] if owner.any() else None)


def _assign(equations: tuple[_Equation, ...], data: _Data, k) -> _Data:
    """``data`` with row ``r`` solving ``equations[k[r]]`` (at most one of
    them ``profiled``): its layout, built once for the stack and kept by
    every cut of it. The rows of each equation must be contiguous in ``k``,
    and those of a pair share their equation; ``ValueError`` otherwise."""
    k, two = np.asarray(k), 2 * data.pairs
    starts = np.flatnonzero(np.diff(k, prepend=np.nan)).tolist()
    run_k = k[starts].tolist()
    if len(set(run_k)) < len(run_k):
        raise ValueError("the rows of each equation must be contiguous in k")
    if two > len(k) or np.any(k[0:two:2] != k[1:two:2]):
        raise ValueError("the rows of a pair must share their equation")
    starts = sorted({*starts, two} - {len(k)})
    return replace(data, runs=tuple((equations[k[a]], a, b)
                                    for a, b in zip(starts, [*starts[1:], len(k)])))


def _pick(runs: tuple, name: str, *rows) -> Array:
    """``<equation of row r>.<name>(*(a[r] for a in rows))`` per row ``r``
    (None stays None), one call per run of the stack's layout ``runs`` (see
    :class:`_Data`) on that run's rows."""
    if len(runs) == 1:
        return getattr(runs[0][0], name)(*rows)
    return np.concatenate([getattr(eq, name)(*(None if v is None else v[a:b] for v in rows))
                           for eq, a, b in runs])


@dataclass
class _Iterate:
    """Iterates over a stack of datasets, one row each: ``theta (m, p)`` with
    ``data`` (:class:`_Data`, with its equation layout).

    Per row: ``objective``, ``norm`` (``max|G|``) and ``fault`` (0 where
    the equation is defined, else a :func:`~propfit.models.fault_error`
    code); ``residual`` is ``G``, ``f`` the means, ``G`` their gradient,
    ``c`` the weights, ``dc`` their derivative ``c'`` in ``f`` and ``s2``
    ML's scale (zero for the other equations). The methods compute in the
    caller's floating-point error state; :func:`solve` ignores every error.
    """

    theta: Array
    objective: Array
    residual: Array
    norm: Array
    fault: Array
    data: _Data
    f: Array
    G: Array
    c: Array
    dc: Array
    s2: Array

    @property
    def defined(self) -> Array:
        """Rows whose equation is defined and finite; a pair is both or neither."""
        return ~self.data.pairwise(np.logical_or, (self.fault != 0) | ~np.isfinite(self.norm))

    def take(self, index) -> "_Iterate":
        """The rows ``index`` selects (a boolean mask or ascending positions)."""
        return _Iterate(self.theta[index], self.objective[index], self.residual[index],
                        self.norm[index], self.fault[index], self.data[index], self.f[index],
                        self.G[index], self.c[index], self.dc[index], self.s2[index])

    def put(self, index, other: "_Iterate", which) -> None:
        """Overwrite the rows ``index`` with the rows ``which`` of ``other``
        (iterates of the same datasets)."""
        for name, rows in vars(self).items():
            if name != "data":
                vars(self)[name] = rows = rows if rows.flags.writeable else rows.copy()
                rows[index] = vars(other)[name][which]

    def bounds(self, tol_relative: float) -> Array:
        """Per row and parameter, the bound ``max(tol_relative * S_j, 64 eps
        F_j)`` on ``|G_j|`` (see the module docstring)."""
        G = np.abs(self.G)
        terms = (np.abs(self.c)[..., None, :] @ G)[..., 0, :]
        rounding = (np.abs(self.dc * self.f)[..., None, :] @ G)[..., 0, :]
        return np.maximum(tol_relative * terms, _RESIDUAL_ULPS * _EPS * rounding)

    def rounding(self) -> Array:
        """Per row, the objective's rounding level ``16 eps (|Q| + sum_i |c_i
        f_i|)`` (the sum a pair's over both rows, and over ``s^2`` for ML's
        profiled objective; see the module docstring)."""
        level = self.data.pairwise(np.add, np.abs(self.c * self.f).sum(axis=-1))
        ml = self.data.ml
        if ml is not None:
            level[ml] /= self.s2[ml]
        return _OBJECTIVE_ULPS * _EPS * (np.abs(self.objective) + level)

    def blocks(self) -> tuple[Array, Array | None]:
        """``dG/dtheta = sum c_i H_i + sum c'_i grad f_i grad f_i'`` (plus ML's
        scale terms) per row and, per row of a pair, the block of ``dG/dtheta``
        in its mate's parameters (None with no pair): ML's ``sum J ds^2'``,
        zero for the other equations. ``sum c_i H_i`` is the row's model's
        :meth:`~propfit.models.ModelFunction.whess_rows`; rows where it is
        non-finite are marked in ``fault``."""
        y, f, G, c, dc = self.data.y, self.f, self.G, self.c, self.dc
        p, two, ml = G.shape[-1], 2 * self.data.pairs, self.data.ml
        off = np.zeros(G.shape[:1] + (p, p)) if two else None
        A = self.data.call("whess_rows", self.theta, c)
        bad = ~np.isfinite(A).all(axis=(-2, -1))
        A += _t(G * dc[..., None]) @ G
        if ml is not None:
            y, f, G = y[ml], f[ml], G[ml]
            J = G / f[..., None]
            ds2 = (-2.0 / self.data.pooled[ml])[:, None] * (
                _t(G) @ (y * (y - f) / f**3)[..., None])[..., 0]
            total = J.sum(axis=-2)
            A[ml] += total[..., :, None] * ds2[..., None, :] - self.s2[ml, None, None] * (
                _t(J) @ J)
            # The ML rows of pairs, (lead, mate) each, are the first ``e`` of ``ml``.
            a, e = ml.start, min(ml.stop, two) - ml.start
            if e > 0:
                off[a:a + e:2] = total[0:e:2, :, None] * ds2[1:e:2, None, :]
                off[a + 1:a + e:2] = total[1:e:2, :, None] * ds2[0:e:2, None, :]
        if bad.any():
            self.fault[bad] = FAULT_HESSIAN
        return A, off

    def scoring(self, rows) -> Array:
        """The expected Jacobian ``sum_i w_i grad f_i grad f_i'`` of the rows
        ``rows`` (ascending positions)."""
        G = self.G[rows]
        w = _pick(_cut(self.data.runs, rows), "scoring", self.f[rows], self.data.y[rows])
        return _t(G * w[..., None]) @ G


def _point(data: _Data, theta, sigma: float | None = None) -> _Iterate:
    """The equations of ``data``'s layout (see :class:`_Data`) at ``theta (m,
    p)``; ``sigma`` freezes ML's scale. Undefined rows are flagged in
    ``fault``, not raised. A pair's rows carry its objective and ``max|G|``,
    those of one dataset of both rows' observations."""
    theta = np.asarray(theta, dtype=float)
    y, live, two, ml = data.y, data.live, 2 * data.pairs, data.ml
    with np.errstate(all="ignore"):
        f = np.asarray(data.call("eval_fn", theta), dtype=float)
        fault = data.call("faults", theta)
        zero = ~(f != 0.0).all(axis=-1)
        if zero.any():
            for eq, a, b in data.runs:
                zero[a:b] &= eq.divides_by_f
            fault = np.where((fault == 0) & zero, FAULT_ZERO_MEAN, fault)
        G = data.call("grad_rows", theta)
        # One pass over the runs: weights, their derivative and the objective.
        objective, cs, dcs = np.empty(len(theta)), [], []
        for (eq, a, b), (y_rows, y_set, live_set, n_set) in zip(data.runs, data.views):
            f_rows = f[a:b]
            cs.append(eq.weight(f_rows, y_rows))
            dcs.append(eq.dweight(f_rows, y_rows))
            if b <= two:  # pairs, each one dataset of both rows' observations
                objective[a:b] = eq.objective(f_rows.reshape(len(n_set), -1), y_set, live_set,
                                              n_set).repeat(2)
            else:
                objective[a:b] = eq.objective(f_rows, y_set, live_set, n_set)
        c, dc = (cs[0], dcs[0]) if len(cs) == 1 else (np.concatenate(cs), np.concatenate(dcs))
        s2 = np.zeros(len(theta))
        if ml is not None:
            if sigma is None:
                # ML's scale over the observations of the row, or of its pair.
                ssq = np.zeros(len(theta))
                ssq[ml] = _sum(((y[ml] - f[ml]) / f[ml]) ** 2, None if live is None else live[ml])
                s2[ml] = data.pairwise(np.add, ssq)[ml] / data.pooled[ml]
            else:
                s2[ml] = float(sigma) ** 2
            c[ml] += s2[ml, None] / f[ml]
        if live is not None:
            G, c = np.where(live[..., None], G, 0.0), np.where(live, c, 0.0)
        residual = (c[..., None, :] @ G)[..., 0, :]
        norm = data.pairwise(np.maximum, np.abs(residual).max(axis=-1))
    return _Iterate(theta=theta, objective=objective, residual=residual, norm=norm,
                    fault=fault, data=data, f=f, G=G, c=c, dc=dc, s2=s2)


@dataclass
class SolveResult:
    """Per row: the root (or best iterate), iterations run, convergence flag,
    ``max|G|`` and tolerance there, and ``fault``, 0 unless the row failed:
    then its :func:`~propfit.models.fault_error` code. A failed row's
    numbers are NaN, and so are those of its pair mate, whose code stays 0."""

    theta: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    residual_norm: np.ndarray
    tolerance: np.ndarray
    fault: np.ndarray

    def finish(self, rows, theta, iterations, converged: bool, norm, tol) -> None:
        if not rows.size:
            return
        self.theta[rows] = theta
        self.iterations[rows] = iterations
        self.converged[rows] = converged
        self.residual_norm[rows] = norm
        self.tolerance[rows] = tol


def _solve_rows(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``matrix[i]^-1 rhs[i]`` per row; NaN rows where a matrix is singular."""
    try:
        return np.linalg.solve(matrix, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full_like(rhs, np.nan)
        for i in range(len(rhs)):
            try:
                out[i] = np.linalg.solve(matrix[i:i + 1], rhs[i:i + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                pass
        return out


def _newton_steps(jacobian: Array, off: Array | None, residual: Array, data: _Data) -> Array:
    """``-J^-1 G`` per row of ``data``; a pair solves one system in both rows'
    parameters, each row's block of ``jacobian`` on the diagonal and ``off``
    across. NaN rows (a pair's both) where a matrix is singular."""
    if not data.pairs:
        return _solve_rows(jacobian, -residual)
    two, p = 2 * data.pairs, residual.shape[-1]
    step = np.empty_like(residual)
    if two < len(step):
        step[two:] = _solve_rows(jacobian[two:], -residual[two:])
    system = np.empty((data.pairs, 2 * p, 2 * p))
    system[:, :p, :p], system[:, :p, p:] = jacobian[0:two:2], off[0:two:2]
    system[:, p:, :p], system[:, p:, p:] = off[1:two:2], jacobian[1:two:2]
    step[:two] = _solve_rows(system, -residual[:two].reshape(data.pairs, 2 * p)).reshape(two, p)
    return step


def _no_rise(new: np.ndarray, old: np.ndarray, level: np.ndarray) -> np.ndarray:
    # Where the old objective is infinite its level is infinite or NaN, and
    # the second test adds nothing to the first: an objective infinite on
    # both sides leaves the decision to max|G|.
    return (new <= old) | (new <= old + level)


def _advance(pt: _Iterate):
    """One iteration of every row of ``pt``.

    Returns the next iterate of the rows that moved and their positions in
    ``pt`` (ascending); a row that fails gets its code in ``pt.fault``.
    Every row that has not failed tries its Newton step (a non-finite one
    lands on an undefined iterate); a scoring step each rejecting row
    accepts is written into that trial at the row's position.
    """
    jacobian, off = pt.blocks()
    norm, objective, level = pt.norm, pt.objective, pt.rounding()
    # ``live`` holds the positions of the rows that try a step; ``at`` indexes
    # them, whole arrays when no row failed.
    live, at, data = np.arange(len(pt.theta)), slice(None), pt.data
    if pt.fault.any():
        live = at = (~data.pairwise(np.logical_or, pt.fault != 0)).nonzero()[0]
        if not live.size:
            return None, live
        data, jacobian = data[live], jacobian[live]
        off = None if off is None else off[live]

    delta = _newton_steps(jacobian, off, pt.residual[at], data)
    trial = _point(data, pt.theta[at] + delta)
    moved = trial.defined & (trial.norm < norm[at]) & _no_rise(
        trial.objective, objective[at], level[at])
    if moved.all():
        return trial, live

    # Positions in ``trial`` of the rows that fall back, and in ``pt``.
    back = (~moved).nonzero()[0]
    need = live[back]
    step = _solve_rows(pt.scoring(need), -pt.residual[need])
    pt.fault[need[~np.isfinite(step).all(axis=-1)]] = FAULT_SINGULAR
    singular = pt.data.pairwise(np.logical_or, pt.fault != 0)[need]
    pending, step = back[~singular], step[~singular]
    for _ in range(_MAX_HALVINGS):
        if not pending.size:
            break
        rows = live[pending]
        new = _point(pt.data[rows], pt.theta[rows] + step)
        old = objective[rows]
        ok = new.defined & ((new.objective < old)
                            | ((new.norm < norm[rows]) & _no_rise(new.objective, old, level[rows])))
        if ok.any():
            trial.put(pending[ok], new, ok)
            moved[pending[ok]] = True
        pending, step = pending[~ok], 0.5 * step[~ok]
    return (trial if moved.all() else trial.take(moved)), live[moved]


def solve(equations: tuple[_Equation, ...], data: _Data, theta0, k, *,
          tol_relative: float = 1e-8, max_iter: int = 100) -> SolveResult:
    """Drive the equation ``equations[k[r]]`` to zero for every dataset
    of ``data``, from its row of ``theta0 (R, p)``. The rows of each equation
    must be contiguous in ``k``; ``ValueError`` otherwise.

    ``iterations`` counts the iterations each row ran, a last one that found
    no step included.
    """
    theta0, data = np.array(theta0, dtype=float), _assign(equations, data, k)
    R = len(theta0)
    result = SolveResult(theta=np.full(theta0.shape, np.nan), iterations=np.zeros(R, dtype=int),
                         converged=np.zeros(R, dtype=bool), residual_norm=np.full(R, np.nan),
                         tolerance=np.full(R, np.nan), fault=np.zeros(R, dtype=int))
    rows = np.arange(R)
    if not R:
        return result
    pt = _point(data, theta0)
    keep = pt.defined
    if not keep.all():
        result.fault = np.where((pt.fault == 0) & ~np.isfinite(pt.residual).all(axis=-1),
                                FAULT_EQUATION, pt.fault)
        pt, rows = pt.take(keep), rows[keep]
    # Each row's iterate with the smallest max|G| so far, with its tolerance.
    best_theta, best_norm, best_tol = pt.theta, np.full(len(rows), np.inf), np.zeros(len(rows))
    # Active rows start together and leave when they stop, so they share a count.
    iterations = 0

    def stop(which) -> None:
        result.finish(rows[which], best_theta[which], iterations, False, best_norm[which],
                      best_tol[which])

    with np.errstate(all="ignore"):
        while rows.size:
            bounds = pt.bounds(tol_relative)
            tol = pt.data.pairwise(np.maximum, bounds.max(axis=-1))
            better = pt.norm < best_norm
            if better.all():
                best_theta, best_norm, best_tol = pt.theta, pt.norm, tol
            elif better.any():
                best_theta = np.where(better[:, None], pt.theta, best_theta)
                best_norm = np.where(better, pt.norm, best_norm)
                best_tol = np.where(better, tol, best_tol)
            done = pt.data.pairwise(np.logical_and, (np.abs(pt.residual) <= bounds).all(axis=-1))
            if done.any():
                result.finish(rows[done], pt.theta[done], iterations, True, pt.norm[done],
                              tol[done])
                go = ~done
                pt, rows = pt.take(go), rows[go]
                best_theta, best_norm, best_tol = best_theta[go], best_norm[go], best_tol[go]
                if not rows.size:
                    break
            if iterations == max_iter:
                stop(slice(None))
                break
            iterations += 1

            nxt, moved = _advance(pt)
            if len(moved) < len(rows):
                stuck = np.ones(len(rows), dtype=bool)
                stuck[moved] = False
                if pt.fault.any():  # failed rows, and their pair mates, keep NaN numbers
                    result.fault[rows] = pt.fault
                    stuck &= ~pt.data.pairwise(np.logical_or, pt.fault != 0)
                stop(stuck)
                rows = rows[moved]
                best_theta, best_norm = best_theta[moved], best_norm[moved]
                best_tol = best_tol[moved]
            pt = nxt
    return result
