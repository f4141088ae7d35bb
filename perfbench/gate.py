"""Correctness gate for the benchmark's CLI outputs.

The thresholds below are fixed from the size of each workload and from the
theory they test, not from observed results, and no check depends on the
seed. ``check_*`` functions return a list of failure messages; an empty
list means the outputs passed.
"""

from __future__ import annotations

import math

import jsonschema

# |B_s - B_T| <= GAMMA_BIAS_Z * mc_se for every gamma cell. B_T is the
# order-sigma^2 formula, so the gap is Monte Carlo noise plus O(sigma^4)
# terms and the selection effect of failed fits. A 5-standard-error limit
# keeps the false-alarm rate under 1e-5 per cell under normality while
# leaving room for those terms at the workloads' replicate counts.
GAMMA_BIAS_Z = 5.0

# At sigma 0.02 the Monte Carlo standard deviation of gamma_hat must lie
# within SD_REL_TOL of the delta-method standard error. The acceptance
# suite allows 15% at R = 5000; with the 160 replicates a simulate workload
# pools at sigma 0.02, a sample standard deviation has a relative standard
# error of about 1/sqrt(2 * 160) = 5.6%, and four of those on top of the 15%
# gives 0.37, rounded up to 0.4.
SD_SIGMA = 0.02
SD_REL_TOL = 0.4

# Relative gap between the two reported curves at the reported gamma_hat.
# Reports carry 12 significant digits and the root is polished to
# 1e-8 of its bracket, which leaves gaps near 1e-8 of the curve height.
INTERSECTION_RTOL = 1e-6


def schema_errors(report: dict, schema: dict, where: str) -> list[str]:
    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as exc:
        return [f"{where}: report does not match its schema: {exc.message}"]
    return []


def fit_operations(report: dict) -> tuple[int, int]:
    """(failed, attempted) method entries of one fit report."""
    entries = report["methods"].values()
    failed = sum(1 for e in entries if "error" in e or not e.get("converged"))
    return failed, len(report["methods"])


def sim_operations(report: dict) -> tuple[int, int]:
    """(failed, attempted) replicate fits of one sim report.

    An operation is one (replicate, method) fit: attempts are replicates
    minus rejected draws, per method and sigma.
    """
    replicates = report["design"]["replicates"]
    failed = sum(r["failure_count"] for r in report["results"])
    attempted = sum(replicates - r["rejected_count"] for r in report["results"])
    return failed, attempted


def _saturating_exponential(x: float, a1: float, a2: float, a3: float) -> float:
    return a1 * (1.0 - math.exp(-(x + a2) / a3))


def check_fit_report(report: dict, schema: dict, where: str) -> list[str]:
    """Schema, and for every converged method: gamma_hat is where the curves meet."""
    errors = schema_errors(report, schema, where)
    if errors:
        return errors
    if not any(e.get("converged") for e in report["methods"].values()):
        errors.append(f"{where}: no method converged")
    for method, entry in report["methods"].items():
        if not entry.get("converged") or "error" in entry:
            continue
        estimates = [p["estimate"] for p in entry["parameters"]]
        gamma = entry["dose"]["gamma_hat"]
        if len(estimates) != 6 or gamma is None or any(v is None for v in estimates):
            errors.append(f"{where}: {method} converged without a full estimate and dose")
            continue
        f1 = _saturating_exponential(gamma, *estimates[:3])
        f2 = _saturating_exponential(gamma, *estimates[3:])
        if not abs(f1 - f2) <= INTERSECTION_RTOL * abs(f1):
            errors.append(f"{where}: {method} curves differ by {abs(f1 - f2):.3g} "
                          f"at gamma_hat={gamma} (curve height {f1:.6g})")
    return errors


def pooled_gamma_cells(reports: list[dict]) -> dict[tuple[str, float], dict]:
    """Pool the gamma cells of independent studies of one design.

    Returns, per (method, sigma): the pooled B_s and its Monte Carlo
    standard error, the sample standard deviation of gamma_hat (exactly as
    one study over all kept replicates would compute them), and B_T, which
    every study evaluates at the same truth.
    """
    groups: dict[tuple[str, float], list] = {}
    for report in reports:
        truth = report["truths"]["gamma"]
        for entry in report["results"]:
            cell = next(c for c in entry["cells"] if c["target"] == "gamma")
            groups.setdefault((entry["method"], entry["sigma"]), []).append(
                (entry["r_effective"], cell, truth))
    pooled = {}
    for key, parts in groups.items():
        n = sum(r for r, _, _ in parts)
        truth = parts[0][2]
        if n < 2 or any(c["b_s"] is None for r, c, _ in parts if r):
            pooled[key] = {"b_s": math.nan, "mc_se": math.nan, "sd": math.nan,
                           "b_t": parts[0][1]["b_t"]}
            continue
        means = [(r, c["b_s"] + truth, c["mc_se"] * math.sqrt(r)) for r, c, _ in parts if r]
        mean = sum(r * m for r, m, _ in means) / n
        ss = sum((r - 1) * sd * sd + r * (m - mean) ** 2 for r, m, sd in means)
        sd = math.sqrt(ss / (n - 1))
        pooled[key] = {"b_s": mean - truth, "mc_se": sd / math.sqrt(n), "sd": sd,
                       "b_t": parts[0][1]["b_t"]}
    return pooled


def check_sim_reports(reports: list[dict], schema: dict, dose_se) -> list[str]:
    """Schema per report; pooled gamma bias and spread against the formulae.

    ``dose_se(method, sigma)`` returns the delta-method standard error of
    gamma_hat at the design truth.
    """
    errors = []
    for k, report in enumerate(reports):
        errors += schema_errors(report, schema, f"simulate input {k}")
    if errors:
        return errors
    for (method, sigma), cell in sorted(pooled_gamma_cells(reports).items()):
        where = f"gamma, {method} at sigma={sigma:g}"
        gap = abs(cell["b_s"] - cell["b_t"])
        if not gap <= GAMMA_BIAS_Z * cell["mc_se"]:
            errors.append(f"{where}: |B_s - B_T| = {gap:.4g} exceeds "
                          f"{GAMMA_BIAS_Z:g} x mc_se = {GAMMA_BIAS_Z * cell['mc_se']:.4g}")
        if sigma == SD_SIGMA:
            se = dose_se(method, sigma)
            rel = abs(cell["sd"] - se) / se
            if not rel <= SD_REL_TOL:
                errors.append(f"{where}: Monte Carlo sd {cell['sd']:.4g} differs from the "
                              f"delta-method se {se:.4g} by {rel:.1%} (limit {SD_REL_TOL:.0%})")
    return errors
