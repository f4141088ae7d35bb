"""Command-line interface.

Three subcommands:

* ``propfit fit``      - fit CSV data (one or two curves), report estimates
  with formula bias, standard error and bias/sqrt(MSE) per parameter.
* ``propfit simulate`` - run a seeded Monte Carlo study from a JSON config
  and emit the formula-vs-simulation bias table.
* ``propfit check``    - run the bundled invariant suite.

Exit codes: 0 success, 1 check failure, 2 input/config error, 3 every
requested fit failed.

Text and JSON outputs are rendered from the same values; JSON carries 12
significant digits and is byte-stable for a fixed seed regardless of
``--threads``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .asymptotics import bias_cov
from .checks import render_checks, run_checks
from .config import RunConfig, load_config
from .equivalent_dose import (
    MODE_COMMON_SIGMA,
    MODE_SEPARATE,
    DoseEstimate,
    dose_derivatives,
    fit_two_curves,
    joint_bundles,
    partial_bleach_model,
    resolve_mode,
)
from .estimators import METHODS, fit, resolve_start
from .exceptions import ConfigError, ModeError, PropfitError
from .io import read_input_table
from .jacobian import build_jacobian_bundle
from .simulation import compare_bias_table, run_study

ENV_THREADS = "PROPFIT_THREADS"


# ---------------------------------------------------------------------------
# JSON helpers
# ---------------------------------------------------------------------------

def round_floats(obj, digits: int = 12):
    """Recursively round floats to ``digits`` significant digits."""
    if isinstance(obj, float):
        if not np.isfinite(obj):
            return None
        return float(f"{obj:.{digits}g}")
    if isinstance(obj, dict):
        return {k: round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v, digits) for v in obj]
    return obj


def dump_json(obj) -> str:
    return json.dumps(round_floats(obj), indent=2, sort_keys=True) + "\n"


def _write_outputs(text: str, json_text: str, fmt: str, out: str | None) -> None:
    if out is None:
        if fmt in ("text", "both"):
            sys.stdout.write(text)
        if fmt in ("json", "both"):
            sys.stdout.write(json_text)
        return
    if fmt == "both":
        base = out
        for suffix in (".txt", ".json"):
            if base.endswith(suffix):
                base = base[: -len(suffix)]
        with open(base + ".txt", "w", encoding="utf-8") as fh:
            fh.write(text)
        with open(base + ".json", "w", encoding="utf-8") as fh:
            fh.write(json_text)
        return
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(json_text if fmt == "json" else text)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _pct(bias: float, se: float) -> float:
    mse = bias * bias + se * se
    return 100.0 * abs(bias) / np.sqrt(mse) if mse > 0 else 0.0


def _param_rows(names, theta, bias=None, cov=None) -> list[dict]:
    """One report row per parameter; bias and se are NaN without ``bias``/``cov``."""
    nan = float("nan")
    rows = []
    for j, name in enumerate(names):
        row = {"name": name, "estimate": float(theta[j]), "bias": nan, "se": nan,
               "bias_over_rmse_pct": nan}
        if bias is not None:
            b, se = float(bias[j]), float(np.sqrt(cov[j, j]))
            row.update(bias=b, se=se, bias_over_rmse_pct=_pct(b, se))
        rows.append(row)
    return rows


def _fit_entry(res, sigma: float, params: list[dict], **extra) -> dict:
    return {"converged": bool(res.converged), "iterations": res.iterations,
            "residual_norm": float(res.residual_norm), "sigma_hat": float(sigma),
            "parameters": params, **extra}


def _error_entry(exc: Exception, **extra) -> dict:
    """The entry of a method whose fit raised."""
    return {"error": f"{type(exc).__name__}: {exc}", "converged": False, "iterations": 0,
            "residual_norm": float("nan"), "sigma_hat": float("nan"), "parameters": [],
            **extra}


def _fit_single(config: RunConfig, data) -> dict:
    model = config.build_model()
    opts = config.fit_options
    if isinstance(opts.start, str):
        # Every method starts from the same unweighted least-squares fit.
        opts = replace(opts, start=resolve_start(model, data.x, data.y[None, :], opts))
    entries: dict = {}
    for method in config.methods:
        try:
            res = fit(model, data, method, opts)
        except (PropfitError, ValueError) as exc:
            entries[method] = _error_entry(exc)
            continue
        try:
            bundles = (build_jacobian_bundle(model, data, res.theta_hat),)
            params = _param_rows(model.param_names, res.theta_hat,
                                 *bias_cov(method, bundles, res.sigma_hat))
        except PropfitError:
            params = _param_rows(model.param_names, res.theta_hat)
        entries[method] = _fit_entry(res, res.sigma_hat, params)
    return {"kind": "fit_report", "model": config.model, "mode": None,
            "curves": {"1": data.n}, "methods": entries}


def _fit_pair(config: RunConfig, labels, data1, data2) -> dict:
    model = partial_bleach_model()
    if config.methods == ("dwls",) and config.mode == MODE_COMMON_SIGMA:
        raise ModeError("data-weighted least squares cannot share a scale")
    opts = config.fit_options
    starts = None
    if isinstance(opts.start, str):
        # Every method starts from the same unweighted least-squares fits.
        starts = tuple(resolve_start(curve, data.x, data.y[None, :], opts)
                       for curve, data in ((model.curve1, data1), (model.curve2, data2)))
    entries: dict = {}
    for method in config.methods:
        mode = resolve_mode(config.mode, method)
        try:
            res = fit_two_curves(model, data1, data2, method, mode=mode, opts=opts,
                                 starts=starts)
        except (PropfitError, ValueError) as exc:
            entries[method] = _error_entry(exc, mode=mode)
            continue
        if len(res.sigma_hats) == 1:
            sigma = res.sigma_hats[0]
        else:
            # Pool the per-curve scale estimates with their degrees of freedom.
            dfs = np.array([data1.n - model.curve1.p, data2.n - model.curve2.p], dtype=float)
            sigma = float(np.sqrt(np.sum(dfs * np.square(res.sigma_hats)) / dfs.sum()))
        params = _param_rows(model.param_names, res.theta_hat)
        extra = {}
        try:
            bias, cov = bias_cov(method, joint_bundles(model, data1.x, data2.x, res.theta_hat,
                                                       method, mode), sigma)
            params = _param_rows(model.param_names, res.theta_hat, bias, cov)
            derivs = dose_derivatives(model, res.theta_hat, config.gamma_bracket)
            dose_bias, dose_se = derivs.bias_se(bias, cov)
            est = DoseEstimate(gamma_hat=derivs.gamma, bias=dose_bias, se=dose_se,
                               method=method, bracket=derivs.bracket)
            dose = {"gamma_hat": est.gamma_hat,
                    "equivalent_dose": est.equivalent_dose,
                    "bias": est.equivalent_dose_bias, "se": est.se,
                    "bias_over_rmse_pct": _pct(est.bias, est.se)}
        except PropfitError as exc:
            dose = dict.fromkeys(("gamma_hat", "equivalent_dose", "bias", "se",
                                  "bias_over_rmse_pct"), float("nan"))
            extra["error"] = f"{type(exc).__name__}: {exc}"
        entries[method] = _fit_entry(res, sigma, params, mode=mode, dose=dose, **extra)
    return {"kind": "fit_report", "model": "partial_bleach", "mode": config.mode,
            "curves": {labels[0]: data1.n, labels[1]: data2.n}, "methods": entries}


def _num(value, spec: str) -> str:
    """A report number as text; a missing one (NaN, null in JSON) reads ``nan``."""
    return format(float("nan") if value is None else value, spec)


def render_fit_text(report: dict) -> str:
    lines = [f"model: {report['model']}",
             "curves: " + ", ".join(f"{k} (n={v})" for k, v in report["curves"].items()), ""]
    for method, entry in report["methods"].items():
        status = "converged" if entry.get("converged") else "NOT CONVERGED"
        mode = entry.get("mode")
        mode_txt = f", mode={mode}" if mode else ""
        lines.append(f"method: {method.upper()} ({status}{mode_txt})")
        if "error" in entry:
            lines.append(f"  error: {entry['error']}")
        if entry["parameters"]:
            lines.append(f"  sigma estimate: {_num(entry['sigma_hat'], '.3f')}")
            header = f"  {'parameter':<12}{'estimate':>14}{'bias':>12}{'se':>12}{'bias/rMSE%':>12}"
            lines.append(header)
            rows = list(entry["parameters"])
            if entry.get("dose"):
                d = entry["dose"]
                rows = rows + [{"name": "dose", "estimate": d["equivalent_dose"],
                                "bias": d["bias"], "se": d["se"],
                                "bias_over_rmse_pct": d["bias_over_rmse_pct"]}]
            for p in rows:
                lines.append(f"  {p['name']:<12}{_num(p['estimate'], '>14.3f')}"
                             f"{_num(p['bias'], '>12.3f')}{_num(p['se'], '>12.3f')}"
                             f"{_num(p['bias_over_rmse_pct'], '>12.2f')}")
        lines.append("")
    return "\n".join(lines)


def cmd_fit(args) -> int:
    try:
        config = load_config(args.config) if args.config else RunConfig()
        if args.method:
            config = replace(config, methods=METHODS if args.method == "all"
                             else (args.method,))
        if args.mode:
            config = replace(config, mode=args.mode)
        table = read_input_table(args.data)
        labels = table.labels
        if len(labels) == 1:
            if args.model:
                config = replace(config, model=args.model)
            if config.two_curve:
                raise ConfigError("two-curve model requested but the CSV has one curve")
            report = _fit_single(config, table.single())
        elif len(labels) == 2:
            model_name = args.model or "partial_bleach"
            if model_name != "partial_bleach":
                raise ConfigError("a two-curve CSV requires the partial_bleach model")
            config = replace(config, model="partial_bleach")
            d1, d2 = table.pair()
            report = _fit_pair(config, labels, d1, d2)
        else:
            raise ConfigError(f"expected 1 or 2 curves, found {len(labels)}")
    except (ConfigError, ModeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = round_floats(report)
    _write_outputs(render_fit_text(report), dump_json(report), args.format, args.out)
    converged_any = any(e.get("converged") for e in report["methods"].values())
    return 0 if converged_any else 3


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _design_dict(design) -> dict:
    model_name = "partial_bleach" if design.two_curve else design.model.name
    out = {"model": model_name, "theta0": [float(v) for v in design.theta0],
           "x1": [float(v) for v in design.x1],
           "sigma": list(design.sigma_grid), "replicates": design.replicates,
           "seed": design.master_seed, "start": design.start, "mode": design.fit_mode,
           "methods": list(design.methods)}
    if design.two_curve:
        out["x2"] = [float(v) for v in design.x2]
    return out


def sim_report_dict(summary) -> dict:
    design = summary.design
    results = []
    for entry in summary.results:
        results.append({
            "method": entry.method, "sigma": entry.sigma,
            "r_effective": entry.r_effective, "failure_count": entry.failure_count,
            "rejected_count": entry.rejected_count, "redraw_count": entry.redraw_count,
            "cells": [{"target": c.target, "b_t": c.b_t, "b_s": c.b_s, "mc_se": c.mc_se}
                      for c in entry.cells],
        })
    tables = {t: compare_bias_table(summary, t).to_dict() for t in design.target_names}
    return {"kind": "sim_report", "design": _design_dict(design),
            "truths": dict(summary.truths), "results": results, "tables": tables}


def render_sim_text(summary) -> str:
    design = summary.design
    main_target = "gamma" if design.two_curve else design.target_names[0]
    lines = [f"simulation: {design.replicates} replicates, seed {design.master_seed}",
             f"formula (B_T) vs simulation (B_s) bias for {main_target}:", ""]
    lines.append(compare_bias_table(summary, main_target).text())
    anomalies = [r for r in summary.results if r.failure_count or r.rejected_count]
    for r in anomalies:
        lines.append(f"note: {r.method} at sigma={r.sigma:g}: "
                     f"{r.failure_count} fit failures, {r.rejected_count} rejected replicates")
    return "\n".join(lines)


def cmd_simulate(args) -> int:
    try:
        config = load_config(args.config)
        design = config.build_design()
        if args.seed is not None:
            design = replace(design, master_seed=args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        summary = run_study(design, threads=args.threads)
    except (PropfitError, ValueError) as exc:
        # The design's truth has no dose or no usable formulae; run_study
        # finds this before fitting any replicate.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    report = sim_report_dict(summary)
    fmt = args.format or config.output_format
    _write_outputs(render_sim_text(summary), dump_json(report), fmt, args.out)
    return 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    results = run_checks()
    sys.stdout.write(render_checks(results))
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _default_threads() -> int:
    raw = os.environ.get(ENV_THREADS, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="propfit",
                                     description="proportional-error regression toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit CSV data and report bias/SE per estimator")
    p_fit.add_argument("--data", required=True, help="CSV with columns [curve,]x,y")
    p_fit.add_argument("--config", help="JSON run configuration")
    p_fit.add_argument("--model", choices=["constant", "exponential",
                                           "saturating_exponential", "partial_bleach"])
    p_fit.add_argument("--method", choices=list(METHODS) + ["all"], default="all")
    p_fit.add_argument("--mode", choices=[MODE_SEPARATE, MODE_COMMON_SIGMA])
    p_fit.add_argument("--out", help="output path (both: .txt and .json)")
    p_fit.add_argument("--format", choices=["text", "json", "both"], default="text")
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="run a seeded Monte Carlo bias study")
    p_sim.add_argument("--config", required=True, help="JSON run configuration with sim section")
    p_sim.add_argument("--seed", type=int, help="override sim.seed")
    p_sim.add_argument("--threads", type=int, default=_default_threads(),
                       help="worker threads, each fitting a contiguous chunk of every "
                            f"sigma's replicates (default ${ENV_THREADS} or 1)")
    p_sim.add_argument("--out", help="output path (both: .txt and .json)")
    p_sim.add_argument("--format", choices=["text", "json", "both"])
    p_sim.set_defaults(func=cmd_simulate)

    p_check = sub.add_parser("check", help="run the bundled invariant suite")
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
