"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The Monte Carlo criteria fix master seeds; with the deterministic stream
layout the whole suite is exactly reproducible. Criterion 2/9 share one
R=5000 study of the bundled two-curve design.
"""

import json

import numpy as np
import pytest

from propfit.asymptotics import (
    check_theta1_factorization,
    cov_ml_exact,
    cov_ml_full,
    cov_ml_unreduced,
    cov_order2,
)
from propfit.checks import builtin_fixtures, _random_fixtures
from propfit.cli import main
from propfit.equivalent_dose import (
    MODE_COMMON_SIGMA,
    MODE_SEPARATE,
    fit_two_curves,
    gamma_bias_se,
)
from propfit.estimators import FitOptions, equation_residual, fit
from propfit.jacobian import build_jacobian_bundle
from propfit.models import Dataset, constant_model, fd_check
from propfit.simulation import (
    DEFAULT_BLEACHED_DOSES,
    DEFAULT_UNBLEACHED_DOSES,
    SimDesign,
    default_partial_bleach_design,
    generate_dataset,
    replicate_stream,
    run_study,
)
from conftest import PAPER_ALPHA

# Frozen master seeds for the stochastic criteria.
SEED_CONSTANT_STUDY = 20260810
SEED_TWO_CURVE_STUDY = 11


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{extra}")
    assert ok, f"criterion {number} failed: {description}{extra}"


@pytest.fixture(scope="module")
def two_curve_study():
    design = default_partial_bleach_design(sigma_grid=(0.01, 0.02, 0.03),
                                           replicates=5000,
                                           master_seed=SEED_TWO_CURVE_STUDY)
    return run_study(design)


def test_criterion_1_constant_model_bias_reproduction():
    """Closed-form biases on the constant model, verified by 20000 replicates."""
    theta, sigma, n = 100.0, 0.02, 20
    design = SimDesign(model=constant_model(), x1=np.arange(float(n)),
                       theta0=np.array([theta]), sigma_grid=(sigma,),
                       replicates=20000, master_seed=SEED_CONSTANT_STUDY)
    summary = run_study(design)
    targets = {"ml": 0.0, "ql": 0.0,
               "wls": theta * sigma**2 * (1 - 1 / n),
               "dwls": -2.0 * theta * sigma**2 * (1 - 1 / n)}
    assert targets["wls"] == pytest.approx(0.038)
    assert targets["dwls"] == pytest.approx(-0.076)
    ok = True
    details = []
    for method, target in targets.items():
        entry = summary.entry(method, sigma)
        cell = entry.cell("theta1")
        # The formula itself must hit the closed-form target exactly.
        assert cell.b_t == pytest.approx(target, abs=1e-12)
        gap = abs(cell.b_s - target)
        ok = ok and entry.failure_count == 0 and gap <= 3.0 * cell.mc_se
        details.append(f"{method}: |B_s-target|={gap:.4f} vs 3*mc_se={3 * cell.mc_se:.4f}")
    report(1, "constant-model closed-form biases within 3 MC standard errors",
           ok, "; ".join(details))


def test_criterion_2_two_curve_qualitative_table(two_curve_study):
    """Sign, ordering, formula-vs-simulation ratio, and sigma^2 slope."""
    summary = two_curve_study
    sigmas = (0.01, 0.02, 0.03)
    methods = ("ml", "ql", "wls", "dwls")

    signs_ok = True
    ratios_ok = True
    ratio_details = []
    for s in sigmas:
        for m in methods:
            cell = summary.entry(m, s).cell("gamma")
            signs_ok = signs_ok and cell.b_t < 0 and cell.b_s < 0
            if m != "dwls":
                ratio = cell.b_s / cell.b_t
                ratios_ok = ratios_ok and 0.7 <= ratio <= 1.3
                ratio_details.append(f"{m}@{s:g}:{ratio:.2f}")
    report(2, "(a) every gamma bias negative", signs_ok)

    order_ok = True
    for s in sigmas:
        b = {m: summary.entry(m, s).cell("gamma").b_t for m in methods}
        order_ok = order_ok and abs(b["dwls"]) > abs(b["ql"]) > abs(b["ml"])
        order_ok = order_ok and abs(b["ml"] - b["wls"]) <= 0.1 * abs(b["wls"])
    report(2, "(b) |B(DWLS)| > |B(QL)| > |B(ML)| ~= |B(WLS)| within 10%", order_ok)

    report(2, "(c) B_s/B_T in [0.7, 1.3] for ML, QL, WLS", ratios_ok,
           " ".join(ratio_details))

    bt = [abs(summary.entry("ml", s).cell("gamma").b_t) for s in sigmas]
    slope = np.polyfit(np.log(sigmas), np.log(bt), 1)[0]
    report(2, "(d) log-log slope of |B_T| vs sigma in [1.9, 2.1]",
           1.9 <= slope <= 2.1, f"slope={slope:.4f}")


def test_simulated_bias_grows_quadratically(two_curve_study):
    """|B_s| vs sigma follows the sigma^2 trend for every method."""
    summary = two_curve_study
    sigmas = (0.01, 0.02, 0.03)
    for method in ("ml", "ql", "wls", "dwls"):
        bs = [abs(summary.entry(method, s).cell("gamma").b_s) for s in sigmas]
        slope = np.polyfit(np.log(sigmas), np.log(bs), 1)[0]
        assert 1.7 <= slope <= 2.3, f"{method}: slope {slope:.3f}"


def test_criterion_3_scale_factorization_structure(satexp, satexp_grid):
    """(J'J)^{-1} sum J = [alpha1, 0, 0]; ML and WLS shape biases coincide."""
    fc = check_theta1_factorization(build_jacobian_bundle(satexp, satexp_grid, PAPER_ALPHA),
                                    PAPER_ALPHA[0])
    off = np.max(np.abs(fc.v[1:]))
    ok = fc.factorized and off < 1e-8 * abs(PAPER_ALPHA[0]) and fc.ml_wls_tail_gap < 1e-10
    report(3, "scale-factor structure and ML/WLS shape-bias agreement", ok,
           f"off-components={off:.2e}, tail gap={fc.ml_wls_tail_gap:.2e}")


def test_criterion_4_ml_covariance_identities():
    """Two algebraic forms, full-matrix block, and the variance ordering."""
    sigma = 0.05
    fixtures = builtin_fixtures() + _random_fixtures(50)
    worst_forms = worst_block = 0.0
    psd_ok = True
    for fx in fixtures:
        bundle = build_jacobian_bundle(fx.model, fx.data, fx.theta)
        exact = cov_ml_exact(bundle, sigma)
        unred = cov_ml_unreduced(bundle, sigma)
        scale = np.max(np.abs(exact))
        worst_forms = max(worst_forms, np.max(np.abs(exact - unred)) / scale)
        full = cov_ml_full(bundle, sigma)
        p = fx.model.p
        worst_block = max(worst_block, np.max(np.abs(full[:p, :p] - exact)) / scale)
        gap = cov_order2(bundle, sigma) - exact
        psd_ok = psd_ok and np.linalg.eigvalsh(0.5 * (gap + gap.T))[0] >= -1e-10 * np.trace(gap + exact)
    ok = worst_forms <= 1e-10 and worst_block <= 1e-10 and psd_ok
    report(4, "ML covariance identities on 50+ fixtures", ok,
           f"forms={worst_forms:.2e}, block={worst_block:.2e}, ordering PSD={psd_ok}")


def test_criterion_5_order_sigma_equivalence(satexp, satexp_grid):
    """All four estimators linearize to least squares on the J design."""
    rng = np.random.default_rng(2718)
    eps = rng.standard_normal(satexp_grid.n)
    bundle = build_jacobian_bundle(satexp, satexp_grid, PAPER_ALPHA)
    ols = bundle.JtJ_inv @ (bundle.J.T @ eps)
    opts = dict(tol_residual=1e-14, max_iter=200)

    ok = True
    details = []
    for method in ("ml", "ql", "wls", "dwls"):
        def gap(sigma):
            data = Dataset(satexp_grid.x, satexp_grid.y * (1.0 + sigma * eps))
            res = fit(satexp, data, method, FitOptions(start=PAPER_ALPHA, **opts))
            return np.linalg.norm((res.theta_hat - PAPER_ALPHA) / sigma - ols)

        ratio = gap(1e-3) / gap(1e-4)
        ok = ok and 5.0 <= ratio <= 20.0
        details.append(f"{method}:{ratio:.1f}")
    report(5, "order-sigma linearization gap shrinks 5-20x from 1e-3 to 1e-4",
           ok, " ".join(details))


def test_criterion_6_hat_trace_and_derivative_checks():
    """Leverage sums and analytic-vs-FD derivatives on all bundled fixtures."""
    worst_trace = 0.0
    worst_fd = 0.0
    for fx in builtin_fixtures():
        bundle = build_jacobian_bundle(fx.model, fx.data, fx.theta)
        worst_trace = max(worst_trace, abs(float(bundle.w1.sum()) - fx.model.p))
        rep = fd_check(fx.model, fx.theta, fx.data.x)
        worst_fd = max(worst_fd, rep.grad_max_rel_err, rep.hess_max_rel_err)
    ok = worst_trace < 1e-10 and worst_fd < 1e-5
    report(6, "hat-trace within 1e-10 and FD agreement within 1e-5", ok,
           f"trace={worst_trace:.2e}, fd={worst_fd:.2e}")


def test_criterion_7_sigma_handling_invariances(pbm_and_data):
    """Separate vs shared-scale fitting across the four estimators."""
    pb, theta0, d1, d2 = pbm_and_data
    opts = FitOptions(start=theta0)

    gaps = []
    for method in ("ql", "wls"):
        sep = fit_two_curves(pb, d1, d2, method, mode=MODE_SEPARATE, opts=opts)
        sim = fit_two_curves(pb, d1, d2, method, mode=MODE_COMMON_SIGMA, opts=opts)
        gaps.append(np.max(np.abs(sep.theta_hat - sim.theta_hat)
                           / np.maximum(np.abs(sep.theta_hat), 1.0)))
    ql_wls_ok = max(gaps) <= 1e-8
    report(7, "(QL/WLS) separate == simultaneous fixed-sigma to 1e-8", ql_wls_ok,
           f"max rel gap {max(gaps):.2e}")

    # DWLS: the equation never references sigma, so passing one cannot matter.
    stacked = Dataset(d1.x, d1.y)
    r_plain = equation_residual("dwls", pb.curve1, stacked, theta0[:3])
    r_sigma = equation_residual("dwls", pb.curve1, stacked, theta0[:3], sigma=0.3)
    a = fit_two_curves(pb, d1, d2, "dwls", mode=MODE_SEPARATE, opts=opts)
    b = fit_two_curves(pb, d1, d2, "dwls", mode=MODE_SEPARATE, opts=opts)
    dwls_ok = np.array_equal(r_plain, r_sigma) and np.array_equal(a.theta_hat, b.theta_hat)
    report(7, "(DWLS) exactly invariant to sigma handling", dwls_ok)

    sep = fit_two_curves(pb, d1, d2, "ml", mode=MODE_SEPARATE, opts=opts)
    com = fit_two_curves(pb, d1, d2, "ml", mode=MODE_COMMON_SIGMA, opts=opts)
    gap = np.max(np.abs(sep.theta_hat - com.theta_hat))
    tol = 10.0 * max(sep.tolerance, com.tolerance)
    report(7, "(ML) common-sigma differs from separate on asymmetric noise",
           gap > tol, f"gap {gap:.3e} > 10*tol {tol:.3e}")


@pytest.fixture
def pbm_and_data():
    design = default_partial_bleach_design()
    pb, theta0 = design.model, design.theta0
    stream = replicate_stream(1234, 0, 0)
    d1 = generate_dataset(pb.curve1, DEFAULT_UNBLEACHED_DOSES, theta0[:3], 0.01, stream)
    d2 = generate_dataset(pb.curve2, DEFAULT_BLEACHED_DOSES, theta0[3:], 0.06, stream)
    return pb, theta0, d1, d2


def test_criterion_8_simulate_thread_determinism(tmp_path):
    """cmd_simulate: seed 42 gives byte-identical JSON for 1 and 8 threads."""
    cfg = {
        "model": "partial_bleach",
        "sim": {"theta0": [142853.0, 123.182, 393.065,
                           95717.80268403766, 192.547, 756.62],
                "x1": list(map(float, DEFAULT_UNBLEACHED_DOSES)),
                "x2": list(map(float, DEFAULT_BLEACHED_DOSES)),
                "sigma": [0.01], "replicates": 60, "seed": 42},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code1 = main(["simulate", "--config", str(cfg_path), "--seed", "42",
                  "--threads", "1", "--format", "json", "--out", str(a)])
    code8 = main(["simulate", "--config", str(cfg_path), "--seed", "42",
                  "--threads", "8", "--format", "json", "--out", str(b)])
    ok = code1 == 0 and code8 == 0 and a.read_bytes() == b.read_bytes()
    report(8, "cmd_simulate seed 42: --threads 1 vs 8 byte-identical JSON", ok,
           f"{len(a.read_bytes())} bytes")


def test_criterion_9_delta_method_se_vs_monte_carlo(two_curve_study):
    """MC spread of the dose estimate within 15% of the delta-method SE."""
    summary = two_curve_study
    design = summary.design
    ok = True
    details = []
    for method in design.methods:
        entry = summary.entry(method, 0.02)
        cell = entry.cell("gamma")
        mc_sd = cell.mc_se * np.sqrt(entry.r_effective)
        est = gamma_bias_se(design.model, design.x1, design.x2, design.theta0, 0.02,
                            method, fit_mode=design.mode_for(method))
        rel = abs(mc_sd - est.se) / est.se
        ok = ok and rel <= 0.15
        details.append(f"{method}: mc_sd={mc_sd:.3f} vs se={est.se:.3f} ({rel:.1%})")
    report(9, "MC sd of gamma within 15% of delta-method SE", ok, "; ".join(details))