"""Command-line interface: reports, exit codes, determinism, schemas."""

import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from propfit import cli, equivalent_dose, estimators
from propfit.asymptotics import bias_order2, cov_ml_exact, cov_order2
from propfit.cli import _pct, dump_json, main, render_fit_text, render_sim_text, round_floats
from propfit.config import TWO_CURVE_MODEL, RunConfig, load_schema
from propfit.equivalent_dose import (
    MODE_COMMON_SIGMA,
    MODE_DEFAULT,
    MODE_SEPARATE,
    beta1_from_gamma,
    fit_two_curves,
    gamma_bias_se,
    partial_bleach_model,
    resolve_modes,
)
from propfit.estimators import METHODS, fit
from propfit.io import read_input_table
from propfit.jacobian import build_jacobian_bundle
from propfit.exceptions import (
    DerivativeNoiseWarning,
    ModeError,
    MultipleRootWarning,
    PropfitError,
    SingularError,
)
from propfit.models import Dataset, ModelFunction, saturating_exponential_model
from propfit.simulation import (
    default_partial_bleach_design,
    generate_dataset,
    replicate_stream,
    run_study,
)
from conftest import (
    APART_BETA,
    PAPER_ALPHA,
    PAPER_BETA2,
    PAPER_BETA3,
    PAPER_GAMMA,
    stacked_model,
)

DEMO_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "partial_bleach_config.json"


@pytest.fixture
def const_csv(tmp_path):
    path = tmp_path / "const.csv"
    path.write_text("x,y\n0,1\n1,2\n2,3\n")
    return str(path)


@pytest.fixture
def pair_csv(tmp_path):
    """Noise-free two-curve CSV built from the published parameter values."""
    beta1 = beta1_from_gamma(PAPER_ALPHA, PAPER_BETA2, PAPER_BETA3, PAPER_GAMMA)
    return write_pair(tmp_path / "pair.csv", np.array([beta1, PAPER_BETA2, PAPER_BETA3]))


def write_pair(path, beta):
    """Write the noise-free two-curve CSV of the published unbleached curve
    and the bleached curve ``beta``; returns its path."""
    pb = partial_bleach_model()
    x1 = np.array([0.0, 0.0, 50.0, 50.0, 100.0, 100.0, 200.0, 200.0,
                   400.0, 400.0, 600.0, 600.0, 800.0, 800.0, 1000.0, 1000.0])
    x2 = np.array([0.0, 0.0, 50.0, 100.0, 100.0, 200.0, 200.0,
                   400.0, 400.0, 600.0, 600.0, 800.0, 1000.0])
    lines = ["curve,x,y"]
    for x in x1:
        lines.append(f"unbleached,{x},{float(pb.curve1.eval(float(x), PAPER_ALPHA))!r}")
    for x in x2:
        lines.append(f"bleached,{x},{float(pb.curve2.eval(float(x), beta))!r}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def noisy_pair(path, keep2=slice(None)):
    """A two-curve CSV drawn from the bundled design at sigma 0.03, keeping
    the bleached points ``keep2``; returns the design and the path."""
    design = default_partial_bleach_design()
    pb = design.model
    alpha, beta = pb.split(design.theta0)
    stream = replicate_stream(5, 0, 0)
    d1 = generate_dataset(pb.curve1, design.x1, alpha, 0.03, stream)
    d2 = generate_dataset(pb.curve2, design.x2, beta, 0.03, stream)
    d2 = Dataset(d2.x[keep2], d2.y[keep2])
    lines = ["curve,x,y"]
    for label, data in (("unbleached", d1), ("bleached", d2)):
        lines += [f"{label},{float(x)!r},{float(y)!r}" for x, y in zip(data.x, data.y)]
    path.write_text("\n".join(lines) + "\n")
    return design, str(path)


def single_csv(path):
    """A one-curve CSV drawn around the unbleached curve at sigma 0.03."""
    design = default_partial_bleach_design()
    data = generate_dataset(design.model.curve1, design.x1, design.theta0[:3], 0.03,
                            replicate_stream(5, 0, 0))
    path.write_text("x,y\n" + "".join(f"{float(x)!r},{float(y)!r}\n"
                                      for x, y in zip(data.x, data.y)))
    return str(path)


SHORT = "ValueError: need n > p observations, got n=3, p=3"


def library_bias_cov(method, model, data, theta, sigma):
    """A fit's bias and covariance from the public one-curve formulae."""
    cov = cov_ml_exact if method == "ml" else cov_order2
    bundle = build_jacobian_bundle(model, data, theta)
    return bias_order2(method, bundle, sigma), cov(bundle, sigma)


def library_rows(names, theta, bias, se) -> list[dict]:
    """The parameter rows a fit report should carry."""
    return [{"name": name, "estimate": float(t), "bias": float(b), "se": float(s),
             "bias_over_rmse_pct": 100.0 * abs(b) / np.hypot(b, s)}
            for name, t, b, s in zip(names, theta, bias, se)]


def fit_entries(tmp_path, *argv):
    """Exit code and per-method entries of a ``propfit fit`` JSON report."""
    out = tmp_path / "report.json"
    code = main(["fit", *argv, "--format", "json", "--out", str(out)])
    return code, json.loads(out.read_text())["methods"]


@pytest.fixture
def sim_config(tmp_path):
    cfg = {
        "model": "constant",
        "sim": {"theta0": [100.0], "x1": list(range(12)), "sigma": [0.01],
                "replicates": 10, "seed": 42},
    }
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestFitCommand:
    def test_constant_ql_closed_form(self, const_csv, tmp_path, capsys):
        out = tmp_path / "rep"
        code = main(["fit", "--data", const_csv, "--model", "constant",
                     "--method", "ql", "--format", "json", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        entry = report["methods"]["ql"]
        assert entry["parameters"][0]["estimate"] == pytest.approx(2.0, abs=1e-9)
        assert entry["sigma_hat"] == pytest.approx(0.5, rel=1e-9)

    def test_two_curve_noise_free(self, pair_csv, tmp_path):
        out = tmp_path / "rep"
        code = main(["fit", "--data", pair_csv, "--method", "ml",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        dose = report["methods"]["ml"]["dose"]
        assert dose["gamma_hat"] == pytest.approx(PAPER_GAMMA, abs=1e-3)
        assert dose["equivalent_dose"] == pytest.approx(abs(PAPER_GAMMA), abs=1e-3)
        assert abs(dose["bias"]) < 1e-6
        assert dose["se"] < 1e-4
        assert report["methods"]["ml"]["sigma_hat"] == pytest.approx(0.0, abs=1e-9)

    def test_fit_report_validates_against_schema(self, pair_csv, tmp_path):
        out = tmp_path / "rep"
        assert main(["fit", "--data", pair_csv, "--format", "json",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        jsonschema.validate(report, load_schema("fit_report"))
        assert set(report["methods"]) == {"ml", "ql", "wls", "dwls"}

    def test_table4_row_shape_in_text(self, pair_csv, tmp_path):
        out = tmp_path / "rep"
        assert main(["fit", "--data", pair_csv, "--method", "ql",
                     "--format", "text", "--out", str(out)]) == 0
        text = out.read_text()
        assert "estimate" in text and "bias" in text and "se" in text
        assert "bias/rMSE%" in text
        assert "sigma estimate" in text
        for name in ("alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3", "dose"):
            assert name in text

    def test_text_and_json_carry_same_numbers(self, const_csv, tmp_path):
        out = tmp_path / "rep"
        assert main(["fit", "--data", const_csv, "--model", "constant",
                     "--format", "both", "--out", str(out)]) == 0
        report = json.loads((tmp_path / "rep.json").read_text())
        text = (tmp_path / "rep.txt").read_text()
        line = next(l for l in text.splitlines() if l.strip().startswith("theta1"))
        shown = [float(tok) for tok in line.split()[1:]]
        params = report["methods"]["ml"]["parameters"][0]
        assert shown[0] == pytest.approx(params["estimate"], abs=5e-4)
        assert shown[1] == pytest.approx(params["bias"], abs=5e-4)
        assert shown[2] == pytest.approx(params["se"], abs=5e-4)

    def test_missing_dose_renders_as_nan(self, tmp_path):
        # Curves that never cross have no dose: the dose fields are missing,
        # the parameter rows keep bias and se.
        apart_csv = write_pair(tmp_path / "apart.csv", APART_BETA)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "partial_bleach", "methods": ["ql"]}))
        out = tmp_path / "rep"
        assert main(["fit", "--data", apart_csv, "--config", str(cfg), "--format", "both",
                     "--out", str(out)]) == 0
        report = json.loads((tmp_path / "rep.json").read_text())
        jsonschema.validate(report, load_schema("fit_report"))
        entry = report["methods"]["ql"]
        assert entry["error"].startswith("NoBracketError")
        assert all(v is None for v in entry["dose"].values())
        assert all(p["se"] is not None for p in entry["parameters"])
        text = (tmp_path / "rep.txt").read_text()
        dose = next(l for l in text.splitlines() if l.strip().startswith("dose"))
        assert dose.split()[1:] == ["nan"] * 4

    def test_dose_matches_library(self, tmp_path):
        # In every mode, the parameter rows and the dose propfit fit reports
        # equal those built from the library's own pieces.
        pb = partial_bleach_model()
        path = noisy_pair(tmp_path / "pair.csv")[1]
        d1, d2 = read_input_table(path).curves.values()
        joint, idx = stacked_model(pb, d1.x, d2.x)
        stacked = Dataset(idx, np.concatenate([d1.y, d2.y]))
        for requested in (MODE_DEFAULT, MODE_SEPARATE, MODE_COMMON_SIGMA):
            flag = [] if requested == MODE_DEFAULT else ["--mode", requested]
            code, entries = fit_entries(tmp_path, "--data", path, *flag)
            assert code == 0
            for method, mode in resolve_modes(requested, METHODS).items():
                res = fit_two_curves(pb, d1, d2, method, mode=mode)
                sigma = res.sigma_hats[0]
                if len(res.sigma_hats) == 2:
                    # Each curve's scale counts n - p degrees of freedom, ML's n.
                    lost = 0 if method == "ml" else 1
                    dfs = np.array([d1.n - lost * pb.curve1.p, d2.n - lost * pb.curve2.p],
                                   dtype=float)
                    sigma = float(np.sqrt(np.sum(dfs * np.square(res.sigma_hats)) / dfs.sum()))
                    alpha, beta = pb.split(res.theta_hat)
                    pieces = [library_bias_cov(method, pb.curve1, d1, alpha, sigma),
                              library_bias_cov(method, pb.curve2, d2, beta, sigma)]
                else:
                    pieces = [library_bias_cov(method, joint, stacked, res.theta_hat, sigma)]
                assert res.sigma_hat == sigma, (requested, method)
                bias = np.concatenate([b for b, _ in pieces])
                se = np.concatenate([np.sqrt(np.diag(c)) for _, c in pieces])
                assert entries[method]["parameters"] == round_floats(
                    library_rows(pb.param_names, res.theta_hat, bias, se)), (requested, method)
                est = gamma_bias_se(pb, d1.x, d2.x, res.theta_hat, sigma, method,
                                    fit_mode=mode)
                expected = {"gamma_hat": est.gamma_hat, "equivalent_dose": est.equivalent_dose,
                            "bias": est.equivalent_dose_bias, "se": est.se,
                            "bias_over_rmse_pct": _pct(est.bias, est.se)}
                assert entries[method]["dose"] == round_floats(expected), (requested, method)

    def test_single_curve_rows_match_library(self, tmp_path):
        model = saturating_exponential_model()
        path = single_csv(tmp_path / "one.csv")
        data = read_input_table(path).single()
        code, entries = fit_entries(tmp_path, "--data", path, "--model", model.name)
        assert code == 0 and set(entries) == set(METHODS)
        for method in METHODS:
            res = fit(model, data, method)
            bias, cov = library_bias_cov(method, model, data, res.theta_hat, res.sigma_hat)
            assert entries[method]["parameters"] == round_floats(
                library_rows(model.param_names, res.theta_hat, bias, np.sqrt(np.diag(cov))))
            assert "dose" not in entries[method] and "mode" not in entries[method]

    def test_config_methods_and_format_apply(self, pair_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "partial_bleach", "methods": ["ql", "wls"],
                                   "output": {"format": "json"}}))
        assert main(["fit", "--data", pair_csv, "--config", str(cfg)]) == 0
        assert set(json.loads(capsys.readouterr().out)["methods"]) == {"ql", "wls"}
        # Flags still override the config.
        assert main(["fit", "--data", pair_csv, "--config", str(cfg), "--method", "ml",
                     "--format", "text"]) == 0
        text = capsys.readouterr().out
        assert "method: ML" in text and "method: QL" not in text
        cfg.write_text(json.dumps({"model": "partial_bleach", "methods": ["dwls"],
                                   "mode": "common-sigma"}))
        assert main(["fit", "--data", pair_csv, "--config", str(cfg)]) == 2

    def test_short_curve_fails_every_method(self, tmp_path):
        design, path = noisy_pair(tmp_path / "pair.csv", keep2=[0, 7, 12])
        code, entries = fit_entries(tmp_path, "--data", path)
        assert code == 3
        assert {m: e["error"] for m, e in entries.items()} == dict.fromkeys(METHODS, SHORT)
        # From a given start, common-sigma ML fits the 16 + 3 points jointly.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fit": {"start": [float(v) for v in design.theta0]}}))
        code, entries = fit_entries(tmp_path, "--data", path, "--config", str(cfg))
        assert code == 0
        assert entries["ml"]["converged"] and entries["ml"]["mode"] == MODE_COMMON_SIGMA
        assert "error" not in entries["ml"]
        assert {m: entries[m]["error"] for m in ("ql", "wls", "dwls")} == dict.fromkeys(
            ("ql", "wls", "dwls"), SHORT)

    def test_short_single_curve_fails_every_method(self, const_csv, tmp_path):
        code, entries = fit_entries(tmp_path, "--data", const_csv,
                                    "--model", "saturating_exponential")
        assert code == 3
        assert {m: e["error"] for m, e in entries.items()} == dict.fromkeys(METHODS, SHORT)

    @pytest.mark.parametrize("curves, error", [
        (1, "ValueError: theta must have shape (3,), got (2,)"),
        (2, "ValueError: joint theta must have shape (6,), got (2,)"),
    ], ids=["1", "2"])
    def test_misshapen_start_fails_every_method(self, tmp_path, curves, error):
        # A two-entry start fits neither the one-curve model nor the joint
        # one: the whole fit call raises, and every method's entry carries it.
        path = (single_csv(tmp_path / "one.csv") if curves == 1
                else noisy_pair(tmp_path / "pair.csv")[1])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fit": {"start": [1.0, 2.0]}}))
        code, entries = fit_entries(tmp_path, "--data", path, "--config", str(cfg))
        assert code == 3
        assert {m: e["error"] for m, e in entries.items()} == dict.fromkeys(METHODS, error)
        assert all(e["parameters"] == [] for e in entries.values())

    def test_single_curve_formula_failure_keeps_reason(self, tmp_path, monkeypatch):
        # The fits converge, but every Jacobian bundle behind the formulae fails.
        def singular(model, x, thetas):
            return tuple(SingularError("J'J is singular") for _ in thetas)

        monkeypatch.setattr("propfit.equivalent_dose.build_jacobian_bundles", singular)
        out = tmp_path / "rep"
        assert main(["fit", "--data", single_csv(tmp_path / "one.csv"), "--model",
                     "saturating_exponential", "--format", "both", "--out", str(out)]) == 0
        report = json.loads((tmp_path / "rep.json").read_text())
        jsonschema.validate(report, load_schema("fit_report"))
        for entry in report["methods"].values():
            assert entry["converged"]
            assert entry["error"] == "SingularError: J'J is singular"
            assert [(r["bias"], r["se"]) for r in entry["parameters"]] == [(None, None)] * 3
        text = (tmp_path / "rep.txt").read_text()
        assert text.count("  error: SingularError: J'J is singular\n") == len(METHODS)

    @pytest.mark.parametrize("mode", [MODE_SEPARATE, MODE_COMMON_SIGMA])
    def test_explicit_mode_per_method(self, pair_csv, tmp_path, mode):
        code, entries = fit_entries(tmp_path, "--data", pair_csv, "--mode", mode)
        assert code == 0
        assert {m: e["mode"] for m, e in entries.items()} == resolve_modes(mode, METHODS)
        assert entries["dwls"]["mode"] == MODE_SEPARATE
        assert all(e["converged"] for e in entries.values())

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["fit", "--data", str(tmp_path / "nope.csv")]) == 2

    def test_one_dose_scan_for_every_method(self, pair_csv, tmp_path, monkeypatch):
        # One solve fits every method on both curves (common-sigma ML as row
        # pairs), and every method's dose comes from one scan.
        calls = {"solve": 0, "_roots": 0}
        for module, name in ((estimators, "solve"), (equivalent_dose, "_roots")):
            def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        code, entries = fit_entries(tmp_path, "--data", pair_csv)
        assert code == 0 and set(entries) == set(METHODS)
        assert all(e["dose"]["gamma_hat"] == pytest.approx(PAPER_GAMMA) for e in entries.values())
        assert calls == {"solve": 1, "_roots": 1}

    def test_one_bundle_stack_per_curve_model(self, tmp_path, monkeypatch):
        # The default mode's bundles: one stack for each curve, a row per
        # method (ML's joined bundle is built from its rows). The formulae
        # evaluate means only for those stacks and the one dose scan's curves.
        stacks, means, inside = [], [], []
        build, formulae = equivalent_dose._build_bundles, equivalent_dose.formulae
        evaluate, evaluate_one = ModelFunction.eval_rows, ModelFunction.eval

        def counted_build(model, x, thetas):
            stacks.append((model.name, len(thetas)))
            return build(model, x, thetas)

        def counted_formulae(*args, **kwargs):
            inside.append(True)
            try:
                return formulae(*args, **kwargs)
            finally:
                inside.pop()

        def counted_eval(model, x, theta):
            if inside:
                means.append(model.name)
            return evaluate(model, x, theta)

        def scalar_eval(model, x, theta):
            assert not inside, "formulae evaluated means one at a time"
            return evaluate_one(model, x, theta)

        monkeypatch.setattr(equivalent_dose, "_build_bundles", counted_build)
        monkeypatch.setattr(cli, "formulae", counted_formulae)
        monkeypatch.setattr(ModelFunction, "eval_rows", counted_eval)
        monkeypatch.setattr(ModelFunction, "eval", scalar_eval)
        code, entries = fit_entries(tmp_path, "--data", noisy_pair(tmp_path / "pair.csv")[1])
        assert code == 0 and all("error" not in e for e in entries.values())
        pb = partial_bleach_model()
        assert sorted(stacks) == sorted([(pb.curve1.name, 4), (pb.curve2.name, 4)])
        assert sorted(means) == sorted([pb.curve1.name, pb.curve2.name] * 2)

    def test_bad_csv_exits_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        assert main(["fit", "--data", str(path)]) == 2

    def test_dwls_common_sigma_alone_exits_2(self, pair_csv):
        assert main(["fit", "--data", pair_csv, "--method", "dwls",
                     "--mode", "common-sigma"]) == 2

    @pytest.mark.parametrize("curves, model, message", [
        (2, "saturating_exponential", "a two-curve CSV requires the partial_bleach model"),
        (1, "partial_bleach", "two-curve model requested but the CSV has one curve"),
    ], ids=["two-curve-csv", "one-curve-csv"])
    def test_model_that_does_not_fit_the_csv_exits_2(self, pair_csv, tmp_path, capsys,
                                                      curves, model, message):
        path = pair_csv if curves == 2 else single_csv(tmp_path / "one.csv")
        assert main(["fit", "--data", path, "--model", model]) == 2
        assert capsys.readouterr().err == f"error: ConfigError: {message}\n"

    def test_three_curves_exits_2(self, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text("curve,x,y\na,1,1\nb,1,1\nc,1,1\n")
        assert main(["fit", "--data", str(path)]) == 2

    def test_all_methods_failing_exits_3(self, tmp_path, capsys):
        # One iteration cannot reach any method's root: every method returns
        # flagged, partial results still rendered.
        data = tmp_path / "data.csv"
        data.write_text("x,y\n0,1.1\n1,2.3\n2,2.9\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "exponential", "fit": {"max_iter": 1}}))
        code = main(["fit", "--data", str(data), "--config", str(cfg),
                     "--format", "text"])
        assert code == 3
        out = capsys.readouterr().out
        assert "NOT CONVERGED" in out
        assert "theta1" in out  # estimates still shown


class TestSimulateCommand:
    def test_runs_and_validates(self, sim_config, tmp_path):
        out = tmp_path / "sim"
        code = main(["simulate", "--config", sim_config, "--format", "json",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        jsonschema.validate(report, load_schema("sim_report"))
        assert report["design"]["seed"] == 42

    def test_byte_identical_across_thread_counts(self, sim_config, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["simulate", "--config", sim_config, "--seed", "42",
                     "--threads", "1", "--format", "json", "--out", str(a)]) == 0
        assert main(["simulate", "--config", sim_config, "--seed", "42",
                     "--threads", "8", "--format", "json", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_byte_identical_on_rerun(self, sim_config, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["simulate", "--config", sim_config, "--format", "json", "--out", str(a)])
        main(["simulate", "--config", sim_config, "--format", "json", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_output(self, sim_config, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["simulate", "--config", sim_config, "--seed", "1", "--format", "json",
              "--out", str(a)])
        main(["simulate", "--config", sim_config, "--seed", "2", "--format", "json",
              "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_table3_shaped_text(self, tmp_path):
        cfg = {
            "model": "partial_bleach",
            "sim": {"theta0": [142853.0, 123.182, 393.065,
                               95717.80268403766, 192.547, 756.62],
                    "x1": [0, 0, 50, 50, 100, 100, 200, 200, 400, 400,
                           600, 600, 800, 800, 1000, 1000],
                    "x2": [0, 0, 50, 100, 100, 200, 200, 400, 400, 600, 600, 800, 1000],
                    "sigma": [0.01, 0.02], "replicates": 2, "seed": 3},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(path), "--format", "text",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert "gamma" in text
        header = next(l for l in text.splitlines() if "ML:B_T" in l)
        for m in ("ML", "QL", "WLS", "DWLS"):
            assert f"{m}:B_T" in header and f"{m}:B_s" in header

    def test_text_notes_fit_failures(self):
        # At sigma 0.1 a few of this study's replicates fail; at 0.02 none do.
        design = default_partial_bleach_design(sigma_grid=(0.02, 0.1), replicates=40,
                                               master_seed=9)
        with pytest.warns(MultipleRootWarning, match="^12 of 320 rows have more than one"):
            summary = run_study(design)
        noted = [e for e in summary.results if e.failure_count or e.rejected_count]
        assert {e.sigma for e in noted} == {0.1}
        notes = [l for l in render_sim_text(summary).splitlines() if l.startswith("note: ")]
        assert notes == [f"note: {e.method} at sigma=0.1: {e.failure_count} fit failures, "
                         f"{e.rejected_count} rejected replicates" for e in noted]

    def test_bad_config_exits_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sim": {"theta0": [1.0]}}))
        assert main(["simulate", "--config", str(path)]) == 2

    def test_empty_sigma_grid_exits_2(self, sim_config, tmp_path, capsys):
        # No sigma means no study: one error line and no report.
        cfg = json.loads(Path(sim_config).read_text())
        cfg["sim"]["sigma"] = []
        path, out = tmp_path / "cfg.json", tmp_path / "report.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", "error: ConfigError: invalid config at sim/sigma: [] should be non-empty\n")
        assert not out.exists()

    def test_repeated_sigma_exits_2(self, sim_config, tmp_path, capsys):
        cfg = json.loads(Path(sim_config).read_text())
        cfg["sim"]["sigma"] = [0.01, 0.01]
        path, out = tmp_path / "cfg.json", tmp_path / "report.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: ConfigError: invalid config at sim/sigma: "
                                           "[0.01, 0.01] has non-unique elements\n")
        assert not out.exists()

    def test_negative_seed_exits_2(self, sim_config, tmp_path, capsys):
        # A negative seed in the config or on the command line: one error
        # line naming the setting, and no report.
        cfg = json.loads(Path(sim_config).read_text())
        cfg["sim"]["seed"] = -5
        path, out = tmp_path / "cfg.json", tmp_path / "report.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: ConfigError: invalid config at sim/seed: "
                                           "-5 is less than the minimum of 0\n")
        assert main(["simulate", "--config", sim_config, "--seed", "-3", "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", "error: ValueError: master_seed must be at least 0, got -3\n")
        assert not out.exists()

    def test_dwls_common_sigma_alone_exits_2(self, pair_csv, tmp_path, capsys):
        # Every entry point gives the one mode error, and simulate fits nothing.
        cfg = dict(json.loads(DEMO_CONFIG.read_text()), methods=["dwls"], mode=MODE_COMMON_SIGMA)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path)]) == 2
        simulate = capsys.readouterr()
        assert main(["fit", "--data", pair_csv, "--config", str(path)]) == 2
        fit = capsys.readouterr()
        pb, theta0 = partial_bleach_model(), np.array(cfg["sim"]["theta0"])
        x1, x2 = np.array(cfg["sim"]["x1"], dtype=float), np.array(cfg["sim"]["x2"], dtype=float)
        data1 = Dataset(x1, np.asarray(pb.curve1.eval(x1, theta0[:3])))
        data2 = Dataset(x2, np.asarray(pb.curve2.eval(x2, theta0[3:])))
        with pytest.raises(ModeError) as from_fit:
            fit_two_curves(pb, data1, data2, "dwls", MODE_COMMON_SIGMA)
        with pytest.raises(ModeError) as from_dose:
            gamma_bias_se(pb, x1, x2, theta0, 0.02, "dwls", fit_mode=MODE_COMMON_SIGMA)
        message = str(from_fit.value)
        assert str(from_dose.value) == message
        assert simulate.err == f"error: ModeError: {message}\n" and simulate.out == ""
        assert fit.err == f"error: ModeError: {message}\n" and fit.out == ""

    def test_config_error_line(self, pair_csv, tmp_path, capsys):
        # Both commands print a config error as its type and message.
        path = tmp_path / "cfg.json"
        path.write_text("[]")
        line = "error: ConfigError: config must be a JSON object\n"
        for argv in (["simulate", "--config", str(path)],
                     ["fit", "--data", pair_csv, "--config", str(path)]):
            assert main(argv) == 2
            assert capsys.readouterr() == ("", line)

    @pytest.mark.parametrize("entry, message", [
        ('"gamma_bracket": [2.0, 1.0]', "invalid config at (top level): Additional properties "
         "are not allowed ('gamma_bracket' was unexpected)"),
        ('"gamma_bracket": [NaN, 0]', "config holds a non-finite number: NaN"),
        ('"gamma_bracket": [-1e999, 0]', "config holds a non-finite number: -1e999"),
        ('"fit": {"tol_residual": NaN}', "config holds a non-finite number: NaN"),
        ('"fit": {"tol_residual": Infinity}', "config holds a non-finite number: Infinity"),
    ], ids=["reversed-bracket", "nan-bracket", "overflow-bracket", "nan-tol", "inf-tol"])
    def test_bad_config_number_exits_2(self, pair_csv, tmp_path, capsys, entry, message):
        # A runnable config with one bad entry: both commands print one error
        # line. `gamma_bracket` is not a key; a number is checked first.
        text, path = DEMO_CONFIG.read_text(), tmp_path / "cfg.json"
        path.write_text(text[:text.rindex("}")] + f", {entry}}}")
        for argv in (["simulate", "--config", str(path)],
                     ["fit", "--data", pair_csv, "--config", str(path)]):
            assert main(argv) == 2
            assert capsys.readouterr() == ("", f"error: ConfigError: {message}\n")

    @pytest.mark.parametrize("section, key, value", [
        ("sim", "theta0", [10**400, 123.182, 393.065, 95717.8, 192.547, 756.62]),
        ("sim", "x1", [10**400, *range(15)]),
        ("fit", "tol_residual", 10**400),
        ("fit", "start", [10**400, 123.182, 393.065, 95717.8, 192.547, 756.62]),
    ], ids=["sim.theta0", "sim.x1", "fit.tol_residual", "fit.start"])
    def test_integer_beyond_the_float_range_exits_2(self, pair_csv, tmp_path, capsys,
                                                   section, key, value):
        # A runnable config but for one 401-digit integer literal: both
        # commands print one error line.
        config = json.loads(DEMO_CONFIG.read_text())
        config.setdefault(section, {})[key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        for argv in (["simulate", "--config", str(path)],
                     ["fit", "--data", pair_csv, "--config", str(path)]):
            assert main(argv) == 2
            assert capsys.readouterr() == (
                "", f"error: ConfigError: config holds a non-finite number: {10**400}\n")

    @pytest.mark.parametrize("fmt", ["json", "both"])
    def test_unwritable_out_exits_2(self, pair_csv, sim_config, tmp_path, capsys, fmt):
        # An output file in a directory that does not exist gives the error line.
        out = tmp_path / "missing" / "r.json"
        name = out if fmt == "json" else out.with_suffix(".txt")
        line = f"error: FileNotFoundError: [Errno 2] No such file or directory: '{name}'\n"
        for argv in (["fit", "--data", pair_csv], ["simulate", "--config", sim_config]):
            assert main([*argv, "--format", fmt, "--out", str(out)]) == 2
            assert capsys.readouterr() == ("", line)

    def test_config_without_sim_exits_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": "constant"}))
        assert main(["simulate", "--config", str(path)]) == 2

    def test_truth_without_formulae_exits_2(self, tmp_path, capsys):
        # A truth whose curves never cross, a design whose J'J is singular,
        # and one with no more points than parameters.
        no_dose = json.loads(DEMO_CONFIG.read_text())
        no_dose["sim"]["theta0"] = [*PAPER_ALPHA, *APART_BETA]
        singular = {"model": "exponential", "methods": ["ql"],
                    "sim": {"theta0": [2, 3], "x1": [1, 1, 1, 1], "sigma": [0.02],
                            "replicates": 4, "seed": 1}}
        too_few = {"model": "exponential", "methods": ["ql"],
                   "sim": {"theta0": [2, 3], "x1": [1, 2], "sigma": [0.02],
                           "replicates": 4, "seed": 1}}
        path = tmp_path / "cfg.json"
        for cfg, error in ((no_dose, "NoBracketError"), (singular, "SingularError"),
                           (too_few, "ValueError")):
            path.write_text(json.dumps(cfg))
            assert main(["simulate", "--config", str(path), "--format", "json"]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(f"error: {error}: ")
            assert "Traceback" not in captured.err
            assert captured.out == ""


class TestInputErrorLines:
    """Each malformed input file gives one error line and exit 2."""

    @pytest.mark.parametrize("text, message", [
        ("x,y\n", "input table contains no rows"),
        ("", "empty input: missing CSV header"),
        ("curve,x\na,1\n", "header must contain 'x' and 'y', got ['curve', 'x']"),
    ], ids=["no-rows", "empty", "no-y"])
    def test_bad_csv(self, tmp_path, capsys, text, message):
        path = tmp_path / "in.csv"
        path.write_text(text)
        assert main(["fit", "--data", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: ConfigError: {message}\n")

    def test_blank_lines_inside_a_csv_are_skipped(self, const_csv, tmp_path, capsys):
        path = tmp_path / "blank.csv"
        path.write_text("x,y\n0,1\n\n1,2\n , \n2,3\n")
        reports = []
        for data in (str(path), const_csv):
            assert main(["fit", "--data", data, "--model", "constant", "--format", "json"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("cfg, message", [
        ({"model": "partial_bleach",
          "sim": {"theta0": [1.0] * 6, "x1": [0.0, 1.0], "sigma": [0.02], "replicates": 2}},
         "two-curve simulation requires sim.x2"),
        ({"model": "constant", "sim": {"theta0": [1.0], "sigma": [0.02], "replicates": 2}},
         "sim section requires x1 (dose grid)"),
    ], ids=["no-x2", "no-x1"])
    def test_bad_sim_section(self, tmp_path, capsys, cfg, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: ConfigError: {message}\n")

    def test_unreadable_config(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        assert main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: ConfigError: cannot read config: [Errno 2] "
                                           f"No such file or directory: '{path}'\n")


class TestCheckCommand:
    def test_fresh_build_passes(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert re.search(r"sum w1 - p = [+-]\d", out)

    def test_no_derivative_check_without_analytic_derivatives(self, monkeypatch):
        # A model with neither gradient nor Hessian has nothing to check
        # against central differences; the other checks still run on it
        # (its curvature weights warn of their finite-differenced Hessian).
        import propfit.checks as checks
        from dataclasses import replace as dc_replace

        expo = next(f for f in checks.builtin_fixtures() if f.name == "exponential")
        plain = checks.Fixture("plain", dc_replace(expo.model, grad_fn=None, hess_fn=None,
                                                   whess_fn=None), expo.data, expo.theta)
        monkeypatch.setattr(checks, "builtin_fixtures", lambda: [plain])
        with pytest.warns(DerivativeNoiseWarning):
            names = [r.name for r in checks.run_checks()]
        assert "hat_trace[plain]" in names
        assert not [name for name in names if name.startswith("derivatives[")]

    def test_broken_gradient_fails(self, capsys, monkeypatch):
        import propfit.checks as checks
        from dataclasses import replace as dc_replace

        fixtures = checks.builtin_fixtures()
        sat = next(f for f in fixtures if f.model.name == "saturating_exponential")
        bad_model = dc_replace(sat.model,
                               grad_fn=lambda x, t: 1.05 * sat.model.grad_fn(x, t))
        broken = checks.Fixture("broken", bad_model, sat.data, sat.theta)
        monkeypatch.setattr(checks, "builtin_fixtures", lambda: fixtures + [broken])
        monkeypatch.setattr("propfit.cli.run_checks", checks.run_checks)
        assert main(["check"]) == 1
        assert "FAIL" in capsys.readouterr().out

class TestSchemaImport:
    def test_jsonschema_loads_only_to_validate_a_config(self, pair_csv, tmp_path):
        # In a fresh interpreter: a fit without --config never imports
        # jsonschema; a config is still validated, with today's error line.
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps({"modle": "constant"}))
        script = ("import sys\n"
                  "from propfit.cli import main\n"
                  "code = main(['fit', '--data', sys.argv[1], '--format', 'json',"
                  " '--out', sys.argv[3]])\n"
                  "print(code, 'jsonschema' in sys.modules)\n"
                  "code = main(['fit', '--data', sys.argv[1], '--config', sys.argv[2]])\n"
                  "print(code, 'jsonschema' in sys.modules)\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script, pair_csv, str(bad),
                               str(tmp_path / "fit.json")],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.splitlines() == ["0 False", "2 True"]
        assert proc.stderr == ("error: ConfigError: invalid config at (top level): Additional "
                               "properties are not allowed ('modle' was unexpected)\n")

    def test_model_choices_are_the_config_schema_enum(self):
        commands = next(a for a in cli.build_parser()._actions if a.dest == "command")
        model = next(a for a in commands.choices["fit"]._actions if a.dest == "model")
        assert model.choices == load_schema("config")["properties"]["model"]["enum"]


class TestEntryPoint:
    def test_one_parser_per_process_reads_the_thread_count_each_call(self, sim_config,
                                                                      monkeypatch):
        builds, seen = [], []
        build = cli.build_parser
        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())

        def stop(design, threads):
            seen.append(threads)
            raise PropfitError("stopped before fitting")
        monkeypatch.setattr(cli, "run_study", stop)
        for count in ("2", "5"):
            assert main(["simulate", "--config", sim_config, "--threads", count]) == 2
        assert seen == [2, 5] and len(builds) == 1
        # The command is looked up when it runs, so a replaced one is called.
        monkeypatch.setattr(cli, "cmd_check", lambda args: 7)
        assert main(["check"]) == 7 and len(builds) == 1

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_fewer_than_one_thread_exits_2(self, sim_config, capsys, count):
        assert main(["simulate", "--config", sim_config, "--threads", count]) == 2
        assert capsys.readouterr() == (
            "", f"error: ValueError: threads must be at least 1, got {count}\n")

    @pytest.mark.parametrize("command", ["fit", "simulate"])
    def test_json_renders_no_text_and_both_writes_each_format(self, command, pair_csv,
                                                              sim_config, tmp_path,
                                                              monkeypatch):
        argv = (["fit", "--data", pair_csv] if command == "fit"
                else ["simulate", "--config", sim_config])

        def no_text(*args):
            raise AssertionError("rendered a text report for JSON output")
        with monkeypatch.context() as patched:
            patched.setattr(cli, "render_fit_text", no_text)
            patched.setattr(cli, "render_sim_text", no_text)
            assert main([*argv, "--format", "json", "--out", str(tmp_path / "j.json")]) == 0
        assert main([*argv, "--format", "text", "--out", str(tmp_path / "t.txt")]) == 0
        assert main([*argv, "--format", "both", "--out", str(tmp_path / "b")]) == 0
        for one, both in (("j.json", "b.json"), ("t.txt", "b.txt")):
            assert (tmp_path / one).read_bytes() == (tmp_path / both).read_bytes()


# Floats a report can hold: any double (NaN, infinities, -0.0, subnormals
# included), whole numbers around where ``.12g`` turns to an exponent, and
# numpy's float64.
REPORT_FLOATS = st.one_of(
    st.floats(),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308),
    st.integers(-10**17, 10**17).filter(lambda v: abs(v) >= 10**11).map(float),
    st.floats(allow_nan=True).map(np.float64))
REPORT_LEAVES = st.one_of(REPORT_FLOATS, st.integers(), st.booleans(), st.none(), st.text())
REPORT_VALUES = st.recursive(
    REPORT_LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner, inner),
                            st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=24)


class TestJsonWriter:
    """``dump_json`` writes what ``json.dumps`` writes of the rounded report."""

    @given(REPORT_VALUES)
    @example({"a": [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e11, 1e16,
                    1e17, 123456789012.5, np.float64(0.1)], "\u00e9\u2603": [(), {}, [[]]],
              "b": {"c": (1, True, False, None)}})
    def test_matches_the_rounded_reference(self, value):
        reference = json.dumps(round_floats(value), indent=2, sort_keys=True) + "\n"
        assert dump_json(value) == reference

    def test_what_json_cannot_write_raises_type_error(self):
        for value in ({"a": np.int64(1)}, [1.0, object()]):
            with pytest.raises(TypeError, match="is not JSON serializable"):
                json.dumps(round_floats(value))
            with pytest.raises(TypeError, match="is not JSON serializable"):
                dump_json(value)

    def test_rendering_leaves_no_garbage(self, pair_csv):
        # Rendering builds no reference cycle: with the collector off,
        # nothing is left for it to find.
        config = RunConfig(model=TWO_CURVE_MODEL)
        fit_report = cli._fit_report(config, read_input_table(pair_csv).curves)
        summary = run_study(default_partial_bleach_design(sigma_grid=(0.02,), replicates=3))
        gc.collect()
        gc.disable()
        try:
            dump_json(fit_report)
            render_fit_text(round_floats(fit_report))
            dump_json(cli.sim_report_dict(summary))
            render_sim_text(summary)
            assert gc.collect() == 0
        finally:
            gc.enable()
