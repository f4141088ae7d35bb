"""Command-line interface.

Three subcommands:

* ``propfit fit``      - fit CSV data (one or two curves) on one path, with
  each fit's bias, SE and bias/sqrt(MSE) from ``equivalent_dose.formulae``.
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
import math
import sys
from dataclasses import replace
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .checks import render_checks, run_checks
from .config import TWO_CURVE_MODEL, RunConfig, load_config
from .equivalent_dose import (
    MODE_COMMON_SIGMA,
    MODE_SEPARATE,
    fit_two_curves_methods,
    formulae,
    resolve_modes,
)
from .estimators import METHODS, fit_methods
from .exceptions import ConfigError, ModeError, PropfitError
from .io import read_input_table
from .models import MODEL_REGISTRY
from .simulation import compare_bias_table, run_study

# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def round_floats(obj):
    """Recursively round floats to 12 significant digits; a non-finite one
    becomes None (null in JSON)."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return None
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def _write_json(obj, write, pad: str) -> None:
    """Write ``obj``'s JSON text piece by piece through ``write`` as
    ``json.dumps(round_floats(obj), indent=2, sort_keys=True)`` writes it,
    nested at ``pad``. A float's ``.12g`` text is what ``repr`` gives its
    rounded value unless it lacks a ``.`` (a whole number) or has an
    exponent."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            write("null")
            return
        text = f"{obj:.12g}"
        write(text if "." in text and "e" not in text else repr(float(text)))
    elif isinstance(obj, str):
        write(_quote(obj))
    elif isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for key in sorted(obj):
            write(sep + _quote(key) + ": ")
            sep = ",\n" + inner
            _write_json(obj[key], write, inner)
        write("\n" + pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        for value in obj:
            write(sep)
            sep = ",\n" + inner
            _write_json(value, write, inner)
        write("\n" + pad + "]")
    elif obj is None:
        write("null")
    elif isinstance(obj, bool):
        write("true" if obj else "false")
    elif isinstance(obj, int):
        write(int.__repr__(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dump_json(report) -> str:
    """A report as JSON text, its floats rounded as :func:`round_floats`
    rounds them: ``json.dumps(round_floats(report), indent=2,
    sort_keys=True)`` and a newline. Written by :func:`_write_json`, since
    ``json.dumps`` with ``indent`` set runs the pure-Python encoder."""
    out: list[str] = []
    _write_json(report, out.append, "")
    out.append("\n")
    return "".join(out)


def _write_outputs(fmt: str, out: str | None, text, json_text) -> int:
    """Write a command's outputs, rendering each only where ``fmt`` writes it
    (``text()`` and ``json_text()`` give them); returns 0, or the
    input-error exit code after printing the error line when a file cannot
    be written."""
    rendered = {suffix: render() for suffix, kind, render in ((".txt", "text", text),
                                                              (".json", "json", json_text))
                if fmt in (kind, "both")}
    if out is None:
        sys.stdout.write("".join(rendered.values()))
        return 0
    base = out
    if fmt == "both":
        for suffix in rendered:
            if base.endswith(suffix):
                base = base[: -len(suffix)]
    files = {base + suffix if fmt == "both" else out: content
             for suffix, content in rendered.items()}
    try:
        for path, content in files.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(content)
    except OSError as exc:
        return _input_error(exc)
    return 0


def _describe(exc: Exception) -> str:
    """An error as reports and error lines show it: ``<Type>: <message>``."""
    return f"{type(exc).__name__}: {exc}"


def _input_error(exc: Exception) -> int:
    """Print a command's one error line; returns the input-error exit code."""
    print(f"error: {_describe(exc)}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _pct(bias: float, se: float) -> float:
    mse = bias * bias + se * se
    return 0.0 if mse == 0 else 100.0 * abs(bias) / np.sqrt(mse)


DOSE_FIELDS = ("gamma_hat", "equivalent_dose", "bias", "se", "bias_over_rmse_pct")


def _fit_entry(res, names, row, **extra) -> dict:
    """A fitted method's entry: its fit and, from ``row`` (its
    :class:`~propfit.equivalent_dose.Formulae`) at the fit's scale
    ``res.sigma_hat``, each parameter's bias and se and, for two curves, its
    dose; a piece that fails leaves NaNs and its error."""
    bias = se = np.full(len(names), np.nan)
    if row.dose is not None:
        extra["dose"] = dict.fromkeys(DOSE_FIELDS, float("nan"))
    try:
        bias, cov = row.bias_cov(res.sigma_hat)
        se = np.sqrt(np.diag(cov))
        if row.dose is not None:
            est = row.estimate(bias, cov)
            extra["dose"] = dict(zip(DOSE_FIELDS, (
                est.gamma_hat, est.equivalent_dose, est.equivalent_dose_bias, est.se,
                _pct(est.bias, est.se))))
    except PropfitError as exc:
        extra["error"] = _describe(exc)
    params = [{"name": name, "estimate": float(t), "bias": float(b), "se": float(e),
               "bias_over_rmse_pct": _pct(float(b), float(e))}
              for name, t, b, e in zip(names, res.theta_hat, bias, se)]
    return {"converged": bool(res.converged), "iterations": res.iterations,
            "residual_norm": float(res.residual_norm), "sigma_hat": float(res.sigma_hat),
            "parameters": params, **extra}


def _fit_report(config: RunConfig, curves: dict) -> dict:
    """The fit report of ``curves`` (label: dataset, one or two of them):
    every method fitted in one call, then each fit's formula row from
    :func:`~propfit.equivalent_dose.formulae`."""
    model, methods, opts = config.build_model(), config.methods, config.fit_options
    data = list(curves.values())
    xs, Ys = [d.x for d in data], [d.y[None, :] for d in data]
    two = len(data) == 2
    modes = resolve_modes(config.mode, methods) if two else None
    try:
        if two:
            batches = fit_two_curves_methods(model, xs[0], Ys[0], xs[1], Ys[1], methods,
                                             config.mode, opts)
        else:
            batches = fit_methods(model, xs[0], Ys[0], methods, opts)
        fits = {m: b.result(0) if b.errors[0] is None else b.errors[0]
                for m, b in batches.items()}
    except (PropfitError, ValueError) as exc:
        fits = dict.fromkeys(methods, exc)
    rows = formulae(model, xs, {m: res.theta_hat for m, res in fits.items()
                                if not isinstance(res, Exception)}, modes)
    entries: dict = {}
    for method, res in fits.items():
        label = {"mode": modes[method]} if two else {}
        if isinstance(res, Exception):
            entries[method] = {"error": _describe(res), "converged": False, "iterations": 0,
                               "residual_norm": float("nan"), "sigma_hat": float("nan"),
                               "parameters": [], **label}
            continue
        entries[method] = _fit_entry(res, model.param_names, rows[method], **label)
    return {"kind": "fit_report", "model": config.model, "mode": config.mode if two else None,
            "curves": {name: d.n for name, d in curves.items()}, "methods": entries}


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
            dose = entry.get("dose")
            rows = entry["parameters"] + (
                [dict(dose, name="dose", estimate=dose["equivalent_dose"])] if dose else [])
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
        count = len(table.curves)
        if count > 2:
            raise ConfigError(f"expected 1 or 2 curves, found {count}")
        # A two-curve CSV takes the two-curve model, not the config's.
        config = replace(config, model=args.model
                         or (TWO_CURVE_MODEL if count == 2 else config.model))
        if config.two_curve != (count == 2):
            raise ConfigError("a two-curve CSV requires the partial_bleach model" if count == 2
                              else "two-curve model requested but the CSV has one curve")
        report = _fit_report(config, table.curves if count == 2 else {"1": table.single()})
    except (ConfigError, ModeError) as exc:
        return _input_error(exc)

    fmt = args.format or config.output_format
    converged_any = any(e.get("converged") for e in report["methods"].values())
    return (_write_outputs(fmt, args.out, lambda: render_fit_text(round_floats(report)),
                           lambda: dump_json(report))
            or (0 if converged_any else 3))


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
    design, table = summary.design, compare_bias_table(summary)
    lines = [f"simulation: {design.replicates} replicates, seed {design.master_seed}",
             f"formula (B_T) vs simulation (B_s) bias for {table.target}:", "", table.text()]
    anomalies = [r for r in summary.results if r.failure_count or r.rejected_count]
    for r in anomalies:
        lines.append(f"note: {r.method} at sigma={r.sigma:g}: "
                     f"{r.failure_count} fit failures, {r.rejected_count} rejected replicates")
    return "\n".join(lines)


def cmd_simulate(args) -> int:
    try:
        config = load_config(args.config)
        design = config.build_design()
        if args.seed is not None:  # SimDesign's checks raise ValueError
            design = replace(design, master_seed=args.seed)
    except (ConfigError, ValueError) as exc:
        return _input_error(exc)
    try:
        summary = run_study(design, threads=args.threads)
    except (PropfitError, ValueError) as exc:
        # The thread count is below 1, or the design's truth has no dose or
        # no usable formulae; run_study finds this before fitting any replicate.
        return _input_error(exc)
    fmt = args.format or config.output_format
    return _write_outputs(fmt, args.out, lambda: render_sim_text(summary),
                          lambda: dump_json(sim_report_dict(summary)))


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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="propfit",
                                     description="proportional-error regression toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit CSV data and report bias/SE per estimator")
    p_fit.add_argument("--data", required=True, help="CSV with columns [curve,]x,y")
    p_fit.add_argument("--config", help="JSON run configuration")
    p_fit.add_argument("--model", choices=[*MODEL_REGISTRY, TWO_CURVE_MODEL])
    p_fit.add_argument("--method", choices=list(METHODS) + ["all"])
    p_fit.add_argument("--mode", choices=[MODE_SEPARATE, MODE_COMMON_SIGMA])
    p_fit.add_argument("--out", help="output path (both: .txt and .json)")
    p_fit.add_argument("--format", choices=["text", "json", "both"])

    p_sim = sub.add_parser("simulate", help="run a seeded Monte Carlo bias study")
    p_sim.add_argument("--config", required=True, help="JSON run configuration with sim section")
    p_sim.add_argument("--seed", type=int, help="override sim.seed")
    p_sim.add_argument("--threads", type=int, default=1,
                       help="contiguous chunks of the study's replicates, fitted on at "
                            "most one thread per CPU (default 1)")
    p_sim.add_argument("--out", help="output path (both: .txt and .json)")
    p_sim.add_argument("--format", choices=["text", "json", "both"])

    sub.add_parser("check", help="run the bundled invariant suite")
    return parser


_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    """Parse ``argv`` with one parser per process, built at the first call,
    and run its command, ``cmd_<command>`` as this module holds it now."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    return globals()[f"cmd_{args.command}"](args)


if __name__ == "__main__":
    sys.exit(main())
