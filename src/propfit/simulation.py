"""Seeded Monte Carlo engine comparing formula biases with empirical ones.

Responses are generated as ``y = f(x, theta0) * (1 + sigma * eps)`` with
standard normal ``eps``; each (sigma, replicate) pair owns a dedicated
random stream derived from the master seed, so results are bit-identical
for any degree of execution parallelism. Every replicate is fitted by all
requested estimators, the intersection dose is solved when the design has
two curves, and the empirical bias ``B_s`` is tabulated next to the
closed-form bias ``B_T`` that :func:`~propfit.equivalent_dose.formulae`
gives at the true parameters. With ``start="theta0"`` each replicate's
solve starts at its first-order solution ``theta0 + L`` (every estimator's
root to order sigma, from the Jacobian bundles ``B_T`` is built from),
shortened along L where it would move a parameter by more than
``WARM_START_CAP`` of its value. A chunk's replicates are drawn into one
response array, with the draws and draw order of :func:`generate_dataset`,
and scaled and checked at once. The study's replicates, across the whole
sigma grid, are fitted as one stack holding every method's rows of
both curves (see :func:`~propfit.equivalent_dose.fit_two_curves_methods`),
and every method's intersections as one more; their rows come out exactly
as if fitted one by one, and each (method, sigma) summary reduces every
target at once.

The bundled two-curve default mimics the published dose-response study:
sample sizes 16 and 13 with the fitted parameter values of that data set.
The dose levels themselves were never published, so the grids below are a
documented stand-in (replicated doses spanning 0..1000 Gray) and can be
overridden in the design.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .equivalent_dose import (
    MODE_DEFAULT,
    Formulae,
    PartialBleachModel,
    _roots,
    _warn_multiple_roots,
    beta1_from_gamma,
    fit_two_curves_methods,
    formulae,
    partial_bleach_model,
    resolve_modes,
)
from .estimators import METHODS, FitOptions, fit_methods
from .exceptions import Rejected
from .jacobian import join_bundles
from .models import Array, Dataset, ModelFunction

# Stand-in dose grids (Gray) echoing the published sample sizes n1=16, n2=13.
DEFAULT_UNBLEACHED_DOSES = np.array(
    [0.0, 0.0, 50.0, 50.0, 100.0, 100.0, 200.0, 200.0,
     400.0, 400.0, 600.0, 600.0, 800.0, 800.0, 1000.0, 1000.0])
DEFAULT_BLEACHED_DOSES = np.array(
    [0.0, 0.0, 50.0, 100.0, 100.0, 200.0, 200.0,
     400.0, 400.0, 600.0, 600.0, 800.0, 1000.0])

# Fitted parameter values of the QNL84-2 data set used as simulation truth.
QNL84_ALPHA = np.array([142853.0, 123.182, 393.065])
QNL84_BETA2 = 192.547
QNL84_BETA3 = 756.620
QNL84_GAMMA = -87.45

# The most observations (replicates times observations per replicate) a
# study fits as one chunk: a chunk's solver arrays hold a row of n floats, or
# n x p of gradient, per method, curve and replicate, so memory grows with
# the product; past about a thousand replicates of the 16 + 13-point
# two-curve design (1034 here) a larger chunk saves little time, while a
# long single curve (n = 1024) gets chunks of 29 replicates.
STACK_OBSERVATIONS = 30_000

# The largest share of its truth that a replicate's first-order step L may
# move any component by: a longer L is shortened until its farthest-moved
# component moves by exactly this share, since a larger step can flip a
# rate's sign and send the fit to another root.
WARM_START_CAP = 0.25


@dataclass(frozen=True)
class SimDesign:
    """Definition of one Monte Carlo study.

    Single-curve designs leave ``x2`` as None. ``fit_mode`` applies to
    two-curve designs: ``"default"`` gives maximum likelihood the shared
    scale and everything else separate fits. ``start="theta0"`` starts each
    replicate at its first-order solution ``theta0 + L``, with L shortened
    to the ``WARM_START_CAP`` guard where it passes it (see
    :func:`_fit_rows`); ``"auto"`` at each curve's data-driven hint.
    ``replicates``, ``master_seed`` and ``max_redraws`` that are not
    integers, and a negative ``master_seed``, raise ``ValueError``, as
    other invalid settings do.
    """

    model: ModelFunction | PartialBleachModel
    x1: Array
    theta0: Array
    sigma_grid: tuple[float, ...]
    replicates: int
    master_seed: int
    x2: Array | None = None
    methods: tuple[str, ...] = METHODS
    start: str = "theta0"
    fit_mode: str = MODE_DEFAULT
    fit_options: FitOptions = field(default_factory=FitOptions)
    max_redraws: int = 100

    def __post_init__(self):
        object.__setattr__(self, "x1", np.asarray(self.x1, dtype=float))
        if self.x2 is not None:
            object.__setattr__(self, "x2", np.asarray(self.x2, dtype=float))
        object.__setattr__(self, "theta0", np.asarray(self.theta0, dtype=float))
        object.__setattr__(self, "sigma_grid", tuple(float(s) for s in self.sigma_grid))
        if isinstance(self.model, PartialBleachModel) and not self.two_curve:
            raise ValueError("a two-curve model needs x2")
        if self.two_curve and not isinstance(self.model, PartialBleachModel):
            raise ValueError("x2 is only valid for a two-curve model")
        if not self.sigma_grid:
            raise ValueError("need at least one sigma value")
        if any(not (0.0 <= s <= 0.5) for s in self.sigma_grid):
            raise ValueError("sigma values must lie in [0, 0.5]")
        if len(set(self.sigma_grid)) < len(self.sigma_grid):
            raise ValueError("sigma values must be distinct")
        for name in ("replicates", "master_seed", "max_redraws"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)}")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.max_redraws < 0:
            raise ValueError("max_redraws must be at least 0")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be at least 0, got {self.master_seed}")
        if not self.methods:
            raise ValueError("need at least one method")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        if len(set(self.methods)) < len(self.methods):
            raise ValueError("methods must be distinct")
        if self.start not in ("theta0", "auto"):
            raise ValueError("start must be 'theta0' or 'auto'")
        resolve_modes(self.fit_mode, METHODS)  # raises ValueError on an unknown mode

    @property
    def two_curve(self) -> bool:
        return self.x2 is not None

    @property
    def target_names(self) -> tuple[str, ...]:
        names = self.model.param_names
        return names + ("gamma",) if self.two_curve else names

    def mode_for(self, method: str) -> str:
        return resolve_modes(self.fit_mode, self.methods)[method]

    @cached_property
    def means(self) -> tuple[tuple[Array, Array], ...]:
        """Each curve's covariate and its means at ``theta0``, which every
        replicate draws around; evaluated on first use and kept."""
        if self.two_curve:
            alpha, beta = self.model.split(self.theta0)
            return ((self.x1, np.asarray(self.model.curve1.eval(self.x1, alpha), dtype=float)),
                    (self.x2, np.asarray(self.model.curve2.eval(self.x2, beta), dtype=float)))
        return ((self.x1, np.asarray(self.model.eval(self.x1, self.theta0), dtype=float)),)

    @cached_property
    def truth_formulae(self) -> dict[str, Formulae]:
        """Each method's :func:`~propfit.equivalent_dose.formulae` at
        ``theta0``, the pieces of ``B_T`` and of the first-order starts;
        built on first use and kept. A piece that cannot be built holds
        its error."""
        modes = resolve_modes(self.fit_mode, self.methods) if self.two_curve else None
        return formulae(self.model, [x for x, _ in self.means],
                        dict.fromkeys(self.methods, self.theta0), modes)

    @cached_property
    def first_order_map(self) -> Array:
        """``(J'J)^{-1} J'`` at ``theta0``, ``(p, n)`` over every curve's
        parameters and observations, from the first method's bundles at
        the truth: block-diagonal, so each curve's step uses its own
        observations only. It maps a replicate's relative residuals at the
        truth to its first-order step L (see :func:`_fit_rows`)."""
        bundles = self.truth_formulae[self.methods[0]].bundles
        joint = bundles[0] if len(bundles) == 1 else join_bundles(bundles)
        return joint.JtJ_inv @ joint.J.T


def default_partial_bleach_design(sigma_grid=(0.01, 0.02, 0.03, 0.04, 0.05, 0.06),
                                  replicates: int = 10000, master_seed: int = 20260810,
                                  **overrides) -> SimDesign:
    """Two-curve design at the published parameter values and stand-in doses."""
    beta1 = beta1_from_gamma(QNL84_ALPHA, QNL84_BETA2, QNL84_BETA3, QNL84_GAMMA)
    theta0 = np.concatenate([QNL84_ALPHA, [beta1, QNL84_BETA2, QNL84_BETA3]])
    base = dict(
        model=partial_bleach_model(),
        x1=DEFAULT_UNBLEACHED_DOSES,
        x2=DEFAULT_BLEACHED_DOSES,
        theta0=theta0,
        sigma_grid=tuple(sigma_grid),
        replicates=replicates,
        master_seed=master_seed,
    )
    base.update(overrides)
    return SimDesign(**base)


# ---------------------------------------------------------------------------
# Random streams and data generation
# ---------------------------------------------------------------------------

def replicate_stream(master_seed: int, sigma_index: int, replicate_index: int) -> np.random.Generator:
    """Dedicated generator for one (sigma, replicate) cell.

    Streams are keyed by index, never by execution order, which is what
    makes parallel runs reproduce serial ones exactly.
    """
    seq = np.random.SeedSequence(entropy=int(master_seed),
                                 spawn_key=(int(sigma_index), int(replicate_index)))
    return np.random.default_rng(seq)


def generate_dataset(model: ModelFunction, x_grid, theta0, sigma: float,
                     stream: np.random.Generator) -> Dataset:
    """Draw one dataset y = f(x, theta0)(1 + sigma eps) from the stream.

    Raises :class:`Rejected` when any response lands at or below zero;
    callers redraw the whole replicate.
    """
    x = np.asarray(x_grid, dtype=float)
    y = np.asarray(model.eval(x, theta0), dtype=float) * (
        1.0 + float(sigma) * stream.standard_normal(x.size))
    if np.any(y <= 0.0):
        raise Rejected
    return Dataset(x, y)


# ---------------------------------------------------------------------------
# Study results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimCell:
    """One (method, sigma, target) comparison of formula and empirical bias."""

    target: str
    b_t: float
    b_s: float
    mc_se: float


@dataclass(frozen=True)
class MethodSigmaSummary:
    method: str
    sigma: float
    r_effective: int
    failure_count: int
    rejected_count: int
    redraw_count: int
    cells: tuple[SimCell, ...]

    def cell(self, target: str) -> SimCell:
        for c in self.cells:
            if c.target == target:
                return c
        raise KeyError(target)


@dataclass(frozen=True)
class SimSummary:
    design: SimDesign
    truths: dict[str, float]
    results: tuple[MethodSigmaSummary, ...]

    def entry(self, method: str, sigma: float) -> MethodSigmaSummary:
        for r in self.results:
            if r.method == method and r.sigma == sigma:
                return r
        raise KeyError((method, sigma))

    @cached_property
    def cells(self) -> dict[tuple[str, str, float], SimCell]:
        """Every cell, by ``(target, method, sigma)``."""
        return {(c.target, r.method, r.sigma): c for r in self.results for c in r.cells}


def _draw_replicate(design: SimDesign, sigma: float, sigma_idx: int, k: int,
                    rows) -> tuple[bool, int]:
    """Fill ``rows``, one row of each curve's response array, with replicate
    ``k``'s draw as :func:`generate_dataset` would make it from the
    replicate's stream: each attempt draws curve 1, then curve 2, and a
    rejected curve starts the next attempt. Returns (drawn, redraws);
    drawn is False when every attempt was rejected. A study draws a
    replicate with it when its first attempt is rejected."""
    stream = replicate_stream(design.master_seed, sigma_idx, k)
    for redraws in range(design.max_redraws + 1):
        for row, (_, f) in zip(rows, design.means):
            np.multiply(f, 1.0 + sigma * stream.standard_normal(row.size), out=row)
            if np.any(row <= 0.0):
                break
        else:
            return True, redraws
    return False, design.max_redraws + 1


def _guarded_starts(theta0: Array, steps: Array) -> Array:
    """Per row of ``steps (R, p)``, ``theta0 + t * step`` with the largest
    ``t <= 1`` that moves no component by more than ``WARM_START_CAP`` of
    that component of ``theta0``: ``theta0 + step`` bit for bit where the
    whole step is within the cap, and ``theta0`` where the step is not
    finite or moves a zero component of ``theta0``."""
    move = np.abs(steps)
    reach = WARM_START_CAP * np.abs(theta0)
    # t = min_j reach_j / move_j over the components past their reach, where
    # move_j > reach_j >= 0, so no share divides by zero.
    t = np.divide(reach, move, out=np.ones_like(move), where=move > reach).min(axis=1)
    moved = (t > 0.0) & np.all(np.isfinite(steps), axis=1)
    starts = np.tile(theta0, (len(steps), 1))
    starts[moved] = theta0 + t[moved, None] * steps[moved]
    return starts


def _first_order_starts(design: SimDesign, curves: list[Array]) -> Array:
    """Each replicate row's guarded first-order solution (see
    :func:`_fit_rows`)."""
    rel = (np.concatenate(curves, axis=1)
           / np.concatenate([f for _, f in design.means]) - 1.0)
    # A product summed along each row, not a matrix product, whose blocking
    # would make a row's step depend on the other rows of its chunk.
    return _guarded_starts(design.theta0,
                           (rel[:, None, :] * design.first_order_map).sum(axis=-1))


def _fit_rows(design: SimDesign, curves: list[Array], n_targets: int) -> tuple[dict, Array]:
    """Estimates per method for a stack of replicates, each curve's
    responses one ``(rows, n)`` array, NaNs marking failures, and how many
    of the intersected rows have more than one root, of how many (no
    warning: the study warns once for all its chunks).

    With ``start="theta0"`` a row starts at ``theta0 + L``, where
    ``L = (J'J)^{-1} J' (y/f - 1)``, with ``J`` the relative Jacobian and
    ``f`` the means at ``theta0``, is every estimator's root to order
    sigma (:attr:`SimDesign.first_order_map`, one per study), so a
    solve starts O(sigma^2) from its root, not O(sigma). A row whose L
    moves any parameter of any curve by more than ``WARM_START_CAP`` of
    its value starts at ``theta0 + t L`` instead, with the share ``t < 1``
    that moves the farthest parameter by exactly the cap (see
    :func:`_guarded_starts`)."""
    start = _first_order_starts(design, curves) if design.start == "theta0" else "auto"
    opts = replace(design.fit_options, start=start)
    R = len(curves[0])
    if design.two_curve:
        fits = fit_two_curves_methods(design.model, design.x1, curves[0], design.x2, curves[1],
                                      design.methods, design.fit_mode, opts)
    else:
        fits = fit_methods(design.model, design.x1, curves[0], design.methods, opts)
    rows = {m: np.flatnonzero(res.converged) for m, res in fits.items()}
    theta = np.concatenate([fits[m].theta_hat[r] for m, r in rows.items()])
    found = np.ones(len(theta), dtype=bool)
    several = np.zeros(2, dtype=int)  # rows with more than one root, rows intersected
    if design.two_curve:
        # Every method's converged rows are intersected as one stack.
        gamma, _, count = _roots(design.model, theta)
        several[:] = count, len(theta)
        found = ~np.isnan(gamma)
        theta = np.concatenate([theta, gamma[:, None]], axis=1)
    out: dict[str, Array] = {}
    ends = np.cumsum([len(r) for r in rows.values()])[:-1]
    for (method, r), t, f in zip(rows.items(), np.split(theta, ends), np.split(found, ends)):
        out[method] = np.full((R, n_targets), np.nan)
        out[method][r[f]] = t[f]
    return out, several


def _run_rows(design: SimDesign, cells: Array, n_targets: int):
    """Draw and fit the replicates ``cells``, ``(sigma index, replicate)``
    pairs: their estimates per method, rejected flags, redraw counts and
    :func:`_fit_rows`' multiple-root count."""
    # Each replicate's first attempt, both curves' normals in one call: the
    # draws of curve 1 then curve 2. The scaling and rejection run once.
    ys = np.empty((len(cells), sum(x.size for x, _ in design.means)))
    for row, (i, k) in zip(ys, cells):
        replicate_stream(design.master_seed, i, k).standard_normal(out=row)
    sigma = np.array(design.sigma_grid)[cells[:, 0], None]
    np.multiply(np.concatenate([f for _, f in design.means]), 1.0 + sigma * ys, out=ys)
    drawn = np.ones(len(cells), dtype=bool)
    redraws = np.zeros(len(cells), dtype=int)
    curves = np.split(ys, np.cumsum([x.size for x, _ in design.means])[:-1], axis=1)
    # A rejected row is drawn again from a fresh stream, attempt by attempt.
    for j in np.flatnonzero(np.any(ys <= 0.0, axis=1)):
        i, k = cells[j]
        drawn[j], redraws[j] = _draw_replicate(design, design.sigma_grid[i], int(i), int(k),
                                               [c[j] for c in curves])
    estimates = {m: np.full((len(cells), n_targets), np.nan) for m in design.methods}
    several = np.zeros(2, dtype=int)
    if drawn.any():
        fits, several = _fit_rows(design, [c[drawn] for c in curves], n_targets)
        for method, est in fits.items():
            estimates[method][drawn] = est
    return estimates, ~drawn, redraws, several


def run_study(design: SimDesign, threads: int = 1) -> SimSummary:
    """Run the full study: generate, fit, aggregate, and attach formula biases.

    The study's replicates, sigma by sigma, are split into ``threads``
    contiguous chunks (at most one per replicate), more where a chunk would
    pass ``STACK_OBSERVATIONS`` observations, and each chunk is fitted as one stack,
    whichever sigmas it spans, on a pool of at most one thread per CPU. A replicate's numbers do not depend
    on its stack, so the summary is identical whatever the split. The
    formula biases' pieces (:func:`~propfit.equivalent_dose.formulae`) are
    built at the truth before any replicate is fitted, so a truth without a
    dose, a singular design or a ``common-sigma`` request no method can
    share (:func:`resolve_modes`) raises at once. Replicates whose fitted
    curves cross more than once warn one
    :class:`~propfit.exceptions.MultipleRootWarning` for the whole study.
    Fewer than one thread, or a non-integer count, raises ``ValueError``.
    """
    if not isinstance(threads, (int, np.integer)):
        raise ValueError(f"threads must be an integer, got {threads}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    targets = design.target_names
    n_targets = len(targets)
    truths = {name: float(v) for name, v in zip(targets, design.theta0)}
    # B_T's sigma-free pieces at the truth, built before any replicate is
    # fitted; a piece that cannot be built raises here.
    rows = design.truth_formulae
    for row in rows.values():
        for piece in (row.dose, row.bundles):
            if isinstance(piece, Exception):
                raise piece
    if design.two_curve:
        truths["gamma"] = rows[design.methods[0]].dose.gamma
    truth_vec = np.array([truths[t] for t in targets])

    S, R = len(design.sigma_grid), design.replicates
    # The study as (sigma index, replicate) cells, sigma by sigma.
    flat = np.stack(np.divmod(np.arange(S * R), R), axis=1)
    workers = min(threads, S * R)
    per_chunk = max(1, STACK_OBSERVATIONS // sum(x.size for x, _ in design.means))
    chunks = np.array_split(flat, max(workers, -(-(S * R) // per_chunk)))

    def one(chunk: Array):
        return _run_rows(design, chunk, n_targets)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
            outcomes = list(pool.map(one, chunks))
    else:
        outcomes = [one(chunk) for chunk in chunks]
    # Back to per-sigma blocks: row i * R + k is replicate k of sigma i.
    estimates = {m: np.concatenate([o[0][m] for o in outcomes]).reshape(S, R, n_targets)
                 for m in design.methods}
    rejected = np.concatenate([o[1] for o in outcomes]).reshape(S, R)
    redraws = np.concatenate([o[2] for o in outcomes]).reshape(S, R)
    _warn_multiple_roots(*sum(o[3] for o in outcomes))

    # B_T: each method's bias and covariance over the whole grid at once.
    formula = {m: rows[m].bias_cov(np.array(design.sigma_grid)) for m in design.methods}
    results: list[MethodSigmaSummary] = []
    for sigma_idx, sigma in enumerate(design.sigma_grid):
        n_rejected = int(rejected[sigma_idx].sum())
        for method in design.methods:
            b_t, cov = (a[sigma_idx] for a in formula[method])
            if design.two_curve:
                b_t = np.append(b_t, rows[method].estimate(b_t, cov).bias)
            est = estimates[method][sigma_idx]
            ok = ~np.any(np.isnan(est), axis=1)
            r_eff = int(ok.sum())
            failures = R - n_rejected - r_eff
            # One contiguous row per target: reducing along it sums in the
            # same order as the target's own 1-D column would.
            vals = np.ascontiguousarray(est[ok].T)
            b_s = np.mean(vals, axis=1) - truth_vec if r_eff else np.full(n_targets, np.nan)
            mc_se = (np.std(vals, axis=1, ddof=1) / np.sqrt(r_eff) if r_eff >= 2
                     else np.zeros(n_targets))
            cells = tuple(SimCell(target=t, b_t=float(bt), b_s=float(bs), mc_se=float(se))
                          for t, bt, bs, se in zip(targets, b_t, b_s, mc_se))
            results.append(MethodSigmaSummary(
                method=method, sigma=sigma, r_effective=r_eff,
                failure_count=failures, rejected_count=n_rejected,
                redraw_count=int(redraws[sigma_idx].sum()), cells=cells,
            ))

    return SimSummary(design=design, truths=truths, results=tuple(results))


# ---------------------------------------------------------------------------
# Comparison table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BiasTable:
    """Formula-vs-simulation bias table for one target quantity."""

    target: str
    methods: tuple[str, ...]
    sigmas: tuple[float, ...]
    b_t: Array  # (n_sigma, n_method)
    b_s: Array

    def text(self) -> str:
        header = ["sigma"]
        for m in self.methods:
            header += [f"{m.upper()}:B_T", f"{m.upper()}:B_s"]
        widths = [max(9, len(h)) for h in header]
        lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
        for i, s in enumerate(self.sigmas):
            row = [f"{s:.3g}"]
            for j in range(len(self.methods)):
                row += [f"{self.b_t[i, j]:.3f}", f"{self.b_s[i, j]:.3f}"]
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        rows = []
        for i, s in enumerate(self.sigmas):
            row: dict = {"sigma": s}
            for j, m in enumerate(self.methods):
                row[m] = {"b_t": float(self.b_t[i, j]), "b_s": float(self.b_s[i, j])}
            rows.append(row)
        return {"target": self.target, "methods": list(self.methods), "rows": rows}


def compare_bias_table(summary: SimSummary, target: str | None = None) -> BiasTable:
    """Arrange a study's biases as sigma rows by (B_T, B_s) method pairs."""
    design = summary.design
    if target is None:
        target = "gamma" if design.two_curve else design.target_names[0]
    sigmas = design.sigma_grid
    methods = design.methods
    cells = [summary.cells[target, m, s] for s in sigmas for m in methods]
    shape = (len(sigmas), len(methods))
    return BiasTable(target=target, methods=methods, sigmas=sigmas,
                     b_t=np.array([c.b_t for c in cells], dtype=float).reshape(shape),
                     b_s=np.array([c.b_s for c in cells], dtype=float).reshape(shape))
