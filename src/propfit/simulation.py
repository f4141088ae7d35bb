"""Seeded Monte Carlo engine comparing formula biases with empirical ones.

Responses are generated as ``y = f(x, theta0) * (1 + sigma * eps)`` with
standard normal ``eps``; each (sigma, replicate) pair owns a dedicated
random stream derived from the master seed, so results are bit-identical
for any degree of execution parallelism. Every replicate is fitted by all
requested estimators, the intersection dose is solved when the design has
two curves, and the empirical bias ``B_s`` is tabulated next to the
closed-form bias ``B_T`` evaluated at the true parameters. A sigma's
replicates are fitted, per method and curve, as one stack (see
:func:`~propfit.estimators.fit_batch`), whose rows come out exactly as if
fitted one by one.

The bundled two-curve default mimics the published dose-response study:
sample sizes 16 and 13 with the fitted parameter values of that data set.
The dose levels themselves were never published, so the grids below are a
documented stand-in (replicated doses spanning 0..1000 Gray) and can be
overridden in the design.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .asymptotics import bias_cov
from .equivalent_dose import (
    MODE_DEFAULT,
    MODES,
    PartialBleachModel,
    beta1_from_gamma,
    dose_derivatives,
    fit_two_curves_batch,
    joint_bundles,
    partial_bleach_model,
    resolve_mode,
    solve_gamma_batch,
)
from .estimators import METHODS, FitOptions, fit_batch, resolve_start
from .exceptions import PropfitError, Rejected
from .jacobian import build_jacobian_bundle
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

# Most replicates fitted as one stack: memory grows with the stack (a
# stacked Hessian holds rows x n x p x p floats, about 8 MB at 1024 rows of
# the two-curve design), while past about a thousand rows a larger stack
# saves little time.
STACK_ROWS = 1024


@dataclass(frozen=True)
class SimDesign:
    """Definition of one Monte Carlo study.

    Single-curve designs leave ``x2`` as None. ``fit_mode`` applies to
    two-curve designs: ``"default"`` gives maximum likelihood the shared
    scale and everything else separate fits.
    """

    model: ModelFunction | PartialBleachModel
    x1: Array
    theta0: Array
    sigma_grid: tuple[float, ...]
    replicates: int
    master_seed: int
    x2: Array | None = None
    methods: tuple[str, ...] = METHODS
    reject_nonpositive: bool = True
    start: str = "theta0"
    fit_mode: str = MODE_DEFAULT
    fit_options: FitOptions = field(default_factory=FitOptions)
    gamma_bracket: tuple[float, float] | None = None
    max_redraws: int = 100

    def __post_init__(self):
        object.__setattr__(self, "x1", np.asarray(self.x1, dtype=float))
        if self.x2 is not None:
            object.__setattr__(self, "x2", np.asarray(self.x2, dtype=float))
        object.__setattr__(self, "theta0", np.asarray(self.theta0, dtype=float))
        object.__setattr__(self, "sigma_grid", tuple(float(s) for s in self.sigma_grid))
        if any(not (0.0 <= s <= 0.5) for s in self.sigma_grid):
            raise ValueError("sigma values must lie in [0, 0.5]")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        if self.start not in ("theta0", "auto"):
            raise ValueError("start must be 'theta0' or 'auto'")
        if self.fit_mode not in (MODE_DEFAULT,) + MODES:
            raise ValueError(f"unknown fit_mode {self.fit_mode!r}")

    @property
    def two_curve(self) -> bool:
        return self.x2 is not None

    @property
    def target_names(self) -> tuple[str, ...]:
        names = self.model.param_names
        return names + ("gamma",) if self.two_curve else names

    def mode_for(self, method: str) -> str:
        return resolve_mode(self.fit_mode, method)


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
                     stream: np.random.Generator, reject_nonpositive: bool = True) -> Dataset:
    """Draw one dataset y = f(x, theta0)(1 + sigma eps) from the stream.

    Raises :class:`Rejected` when ``reject_nonpositive`` is set and any
    response lands at or below zero; callers redraw the whole replicate.
    """
    x = np.asarray(x_grid, dtype=float)
    f = np.asarray(model.eval(x, theta0), dtype=float)
    eps = stream.standard_normal(x.size)
    y = f * (1.0 + float(sigma) * eps)
    if reject_nonpositive and np.any(y <= 0.0):
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


def _draw_replicate(design: SimDesign, sigma: float, sigma_idx: int, k: int):
    """Returns (datasets, redraws) or (None, redraws) if every draw was rejected."""
    stream = replicate_stream(design.master_seed, sigma_idx, k)
    redraws = 0
    for _ in range(design.max_redraws + 1):
        try:
            if design.two_curve:
                alpha, beta = design.model.split(design.theta0)
                d1 = generate_dataset(design.model.curve1, design.x1, alpha, sigma,
                                      stream, design.reject_nonpositive)
                d2 = generate_dataset(design.model.curve2, design.x2, beta, sigma,
                                      stream, design.reject_nonpositive)
                return (d1, d2), redraws
            d = generate_dataset(design.model, design.x1, design.theta0, sigma,
                                 stream, design.reject_nonpositive)
            return (d,), redraws
        except Rejected:
            redraws += 1
    return None, redraws


def _fit_rows(design: SimDesign, datasets: list, n_targets: int) -> dict[str, Array]:
    """Estimates per method for a stack of replicates (rows); NaNs mark failures."""
    start = design.theta0 if design.start == "theta0" else "auto"
    opts = replace(design.fit_options, start=start)
    R = len(datasets)
    curves = [np.stack([d[c].y for d in datasets]) for c in range(len(datasets[0]))]
    out: dict[str, Array] = {}
    if design.two_curve:
        model, (Y1, Y2) = design.model, curves
        starts = None
        if design.start == "auto":
            starts = (resolve_start(model.curve1, design.x1, Y1, opts),
                      resolve_start(model.curve2, design.x2, Y2, opts))
        for method in design.methods:
            est = out[method] = np.full((R, n_targets), np.nan)
            try:
                res = fit_two_curves_batch(model, design.x1, Y1, design.x2, Y2, method,
                                           mode=design.mode_for(method), opts=opts,
                                           starts=starts)
            except PropfitError:
                continue
            ok = np.flatnonzero(res.converged)
            gamma, errors = solve_gamma_batch(model, res.theta_hat[ok],
                                              bracket=design.gamma_bracket)
            found = np.array([e is None for e in errors], dtype=bool)
            est[ok[found]] = np.concatenate([res.theta_hat[ok[found]], gamma[found, None]],
                                            axis=1)
    else:
        for method in design.methods:
            est = out[method] = np.full((R, n_targets), np.nan)
            try:
                res = fit_batch(design.model, design.x1, curves[0], method, opts)
            except PropfitError:
                continue
            est[res.converged] = res.theta_hat[res.converged]
    return out


def _run_rows(design: SimDesign, sigma: float, sigma_idx: int, ks: Array, n_targets: int):
    """Draw and fit the replicates ``ks`` of one sigma: their estimates per
    method, rejected flags and redraw counts."""
    drawn = [_draw_replicate(design, sigma, sigma_idx, int(k)) for k in ks]
    redraws = np.array([n for _, n in drawn], dtype=int)
    rejected = np.array([d is None for d, _ in drawn], dtype=bool)
    estimates = {m: np.full((len(ks), n_targets), np.nan) for m in design.methods}
    kept = [d for d, _ in drawn if d is not None]
    if kept:
        for method, est in _fit_rows(design, kept, n_targets).items():
            estimates[method][~rejected] = est
    return estimates, rejected, redraws


def run_study(design: SimDesign, threads: int = 1) -> SimSummary:
    """Run the full study: generate, fit, aggregate, and attach formula biases.

    Each sigma's replicates are split into contiguous chunks, one per
    thread but none longer than ``STACK_ROWS`` rows, and each chunk is
    fitted as one stack (on a thread pool when ``threads > 1``). A
    replicate's numbers do not depend on its stack, so the summary is
    identical whatever the split. The formula biases' pieces are built at
    the truth before any replicate is fitted, so a truth without a dose or
    with a singular design raises at once.
    """
    targets = design.target_names
    n_targets = len(targets)
    truths = {name: float(v) for name, v in zip(targets, design.theta0)}
    model, theta0 = design.model, design.theta0
    # B_T's sigma-free pieces at the truth: the Jacobian bundles of each fit
    # mode and, for two curves, the dose and its derivatives.
    dose = None
    if design.two_curve:
        dose = dose_derivatives(model, theta0, design.gamma_bracket)
        truths["gamma"] = dose.gamma
        by_mode: dict = {}
        bundles = {}
        for method in design.methods:
            mode = design.mode_for(method)
            if mode not in by_mode:
                by_mode[mode] = joint_bundles(model, design.x1, design.x2, theta0, method, mode)
            bundles[method] = by_mode[mode]
    else:
        data = Dataset(design.x1, np.asarray(model.eval(design.x1, theta0), dtype=float))
        bundles = dict.fromkeys(design.methods, (build_jacobian_bundle(model, data, theta0),))
    truth_vec = np.array([truths[t] for t in targets])

    results: list[MethodSigmaSummary] = []
    for sigma_idx, sigma in enumerate(design.sigma_grid):
        R = design.replicates
        workers = max(1, min(threads, R))
        chunks = np.array_split(np.arange(R), max(workers, -(-R // STACK_ROWS)))

        def one(ks: Array):
            return _run_rows(design, sigma, sigma_idx, ks, n_targets)

        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(one, chunks))
        else:
            outcomes = [one(ks) for ks in chunks]
        estimates = {m: np.concatenate([o[0][m] for o in outcomes]) for m in design.methods}
        rejected = np.concatenate([o[1] for o in outcomes])
        redraws = np.concatenate([o[2] for o in outcomes])

        n_rejected = int(rejected.sum())
        for method in design.methods:
            b_t, cov = bias_cov(method, bundles[method], sigma)
            if dose is not None:
                b_t = np.append(b_t, dose.bias_se(b_t, cov)[0])
            est = estimates[method]
            ok = ~np.any(np.isnan(est), axis=1)
            r_eff = int(ok.sum())
            failures = R - n_rejected - r_eff
            cells = []
            for j, target in enumerate(targets):
                vals = est[ok, j]
                b_s = float(np.mean(vals) - truth_vec[j]) if r_eff else float("nan")
                mc_se = float(np.std(vals, ddof=1) / np.sqrt(r_eff)) if r_eff >= 2 else 0.0
                cells.append(SimCell(target=target, b_t=float(b_t[j]),
                                     b_s=b_s, mc_se=mc_se))
            results.append(MethodSigmaSummary(
                method=method, sigma=sigma, r_effective=r_eff,
                failure_count=failures, rejected_count=n_rejected,
                redraw_count=int(redraws.sum()), cells=tuple(cells),
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
    b_t = np.full((len(sigmas), len(methods)), np.nan)
    b_s = np.full((len(sigmas), len(methods)), np.nan)
    for i, s in enumerate(sigmas):
        for j, m in enumerate(methods):
            cell = summary.entry(m, s).cell(target)
            b_t[i, j] = cell.b_t
            b_s[i, j] = cell.b_s
    return BiasTable(target=target, methods=methods, sigmas=sigmas, b_t=b_t, b_s=b_s)
