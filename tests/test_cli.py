"""Command-line interface: reports, exit codes, determinism, schemas."""

import json
import re
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from propfit.cli import main
from propfit.config import load_schema
from propfit.equivalent_dose import beta1_from_gamma, partial_bleach_model
from conftest import PAPER_ALPHA, PAPER_BETA2, PAPER_BETA3, PAPER_GAMMA

DEMO_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "partial_bleach_config.json"


@pytest.fixture
def const_csv(tmp_path):
    path = tmp_path / "const.csv"
    path.write_text("x,y\n0,1\n1,2\n2,3\n")
    return str(path)


@pytest.fixture
def pair_csv(tmp_path):
    """Noise-free two-curve CSV built from the published parameter values."""
    pb = partial_bleach_model()
    beta1 = beta1_from_gamma(PAPER_ALPHA, PAPER_BETA2, PAPER_BETA3, PAPER_GAMMA)
    beta = np.array([beta1, PAPER_BETA2, PAPER_BETA3])
    x1 = np.array([0.0, 0.0, 50.0, 50.0, 100.0, 100.0, 200.0, 200.0,
                   400.0, 400.0, 600.0, 600.0, 800.0, 800.0, 1000.0, 1000.0])
    x2 = np.array([0.0, 0.0, 50.0, 100.0, 100.0, 200.0, 200.0,
                   400.0, 400.0, 600.0, 600.0, 800.0, 1000.0])
    lines = ["curve,x,y"]
    for x in x1:
        lines.append(f"unbleached,{x},{float(pb.curve1.eval(float(x), PAPER_ALPHA))!r}")
    for x in x2:
        lines.append(f"bleached,{x},{float(pb.curve2.eval(float(x), beta))!r}")
    path = tmp_path / "pair.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


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

    def test_missing_dose_renders_as_nan(self, pair_csv, tmp_path):
        # The curves cross near -87, so a bracket of [1, 2] holds no crossing:
        # the dose fields are missing, the parameter rows keep bias and se.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "partial_bleach", "gamma_bracket": [1.0, 2.0],
                                   "methods": ["ql"]}))
        out = tmp_path / "rep"
        assert main(["fit", "--data", pair_csv, "--config", str(cfg), "--format", "both",
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

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["fit", "--data", str(tmp_path / "nope.csv")]) == 2

    def test_bad_csv_exits_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        assert main(["fit", "--data", str(path)]) == 2

    def test_dwls_common_sigma_alone_exits_2(self, pair_csv):
        assert main(["fit", "--data", pair_csv, "--method", "dwls",
                     "--mode", "common-sigma"]) == 2

    def test_three_curves_exits_2(self, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text("curve,x,y\na,1,1\nb,1,1\nc,1,1\n")
        assert main(["fit", "--data", str(path)]) == 2

    def test_all_methods_failing_exits_3(self, tmp_path, capsys):
        # Unreachable tolerance: every method returns flagged, partial
        # results still rendered.  (y chosen so no root is float-exact.)
        data = tmp_path / "data.csv"
        data.write_text("x,y\n0,1.1\n1,2.3\n2,2.9\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "constant",
                                   "fit": {"tol_residual": 1e-30,
                                           "tol_absolute": 1e-300}}))
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

    def test_env_var_sets_default_threads(self, sim_config, monkeypatch):
        from propfit.cli import build_parser

        monkeypatch.setenv("PROPFIT_THREADS", "3")
        args = build_parser().parse_args(["simulate", "--config", sim_config])
        assert args.threads == 3

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

    def test_bad_config_exits_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sim": {"theta0": [1.0]}}))
        assert main(["simulate", "--config", str(path)]) == 2

    def test_config_without_sim_exits_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": "constant"}))
        assert main(["simulate", "--config", str(path)]) == 2

    def test_truth_without_formulae_exits_2(self, tmp_path, capsys):
        # A truth whose curves do not cross in the bracket, a design whose
        # J'J is singular, and one with no more points than parameters.
        no_dose = dict(json.loads(DEMO_CONFIG.read_text()), gamma_bracket=[1.0, 2.0])
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


class TestCheckCommand:
    def test_fresh_build_passes(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert re.search(r"sum w1 - p = [+-]\d", out)

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