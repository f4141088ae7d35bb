"""Monte Carlo engine: generation, streams, determinism, aggregation."""

import numpy as np
import pytest

from propfit.asymptotics import bias_order2
from propfit.equivalent_dose import gamma_bias_se, stacked_model
from propfit.exceptions import Rejected
from propfit.models import Dataset, constant_model
from propfit.simulation import (
    SimDesign,
    compare_bias_table,
    default_partial_bleach_design,
    generate_dataset,
    replicate_stream,
    run_study,
)
from conftest import PAPER_GAMMA


def constant_design(**overrides):
    base = dict(model=constant_model(), x1=np.arange(20.0), theta0=np.array([100.0]),
                sigma_grid=(0.02,), replicates=50, master_seed=7)
    base.update(overrides)
    return SimDesign(**base)


class TestGenerateDataset:
    def test_zero_sigma_returns_mean_exactly(self, satexp):
        theta = np.array([100.0, 10.0, 40.0])
        x = np.linspace(0.0, 100.0, 6)
        data = generate_dataset(satexp, x, theta, 0.0, replicate_stream(1, 0, 0))
        np.testing.assert_array_equal(data.y, np.asarray(satexp.eval(x, theta)))

    def test_injected_eps_matches_hand_computation(self, const):
        class FakeStream:
            def standard_normal(self, n):
                return np.array([1.0, -2.0, 0.5])

        data = generate_dataset(const, np.arange(3.0), np.array([10.0]), 0.1, FakeStream())
        np.testing.assert_allclose(data.y, [11.0, 8.0, 10.5], rtol=1e-15)

    def test_moments_of_generated_responses(self, const):
        # Law of large numbers oracle on 50000 single-point replicates.
        sigma, R = 0.05, 50000
        stream = replicate_stream(3, 0, 0)
        data = generate_dataset(const, np.zeros(R), np.array([1.0]), sigma, stream,
                                reject_nonpositive=False)
        assert np.mean(data.y) == pytest.approx(1.0, abs=3.0 * sigma / np.sqrt(R))
        assert np.std(data.y, ddof=1) == pytest.approx(sigma, rel=0.02)

    def test_nonpositive_draw_rejected(self, const):
        class FakeStream:
            def standard_normal(self, n):
                return np.full(n, -3.0)

        with pytest.raises(Rejected):
            generate_dataset(const, np.arange(3.0), np.array([1.0]), 0.5, FakeStream())


class TestStreams:
    def test_streams_are_reproducible(self):
        a = replicate_stream(42, 1, 7).standard_normal(5)
        b = replicate_stream(42, 1, 7).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ_across_keys(self):
        base = replicate_stream(42, 0, 0).standard_normal(5)
        for key in [(42, 0, 1), (42, 1, 0), (43, 0, 0)]:
            other = replicate_stream(*key).standard_normal(5)
            assert not np.array_equal(base, other)


class TestRunStudy:
    def test_zero_sigma_single_replicate(self):
        design = constant_design(sigma_grid=(0.0,), replicates=1)
        summary = run_study(design)
        for m in design.methods:
            entry = summary.entry(m, 0.0)
            cell = entry.cell("theta1")
            assert cell.b_s == 0.0
            assert cell.b_t == 0.0
            assert entry.failure_count == 0

    def test_wls_bias_matches_formula_on_constant_model(self):
        # Table-2 specialization: E theta_hat - theta = theta sigma^2 (1-1/n).
        design = constant_design(replicates=2000, master_seed=11)
        summary = run_study(design)
        entry = summary.entry("wls", 0.02)
        cell = entry.cell("theta1")
        target = 100.0 * 0.02**2 * (1 - 1 / 20)
        assert cell.b_t == pytest.approx(target, rel=1e-10)
        assert abs(cell.b_s - target) <= 3.0 * cell.mc_se
        assert entry.r_effective == 2000

    def test_determinism_same_seed(self):
        design = constant_design(replicates=40)
        a = run_study(design)
        b = run_study(design)
        for ra, rb in zip(a.results, b.results):
            for ca, cb in zip(ra.cells, rb.cells):
                assert ca == cb

    def test_determinism_across_thread_counts(self):
        design = default_partial_bleach_design(sigma_grid=(0.02,), replicates=12,
                                               master_seed=5)
        serial = run_study(design, threads=1)
        threaded = run_study(design, threads=4)
        for rs, rt in zip(serial.results, threaded.results):
            assert rs.method == rt.method and rs.sigma == rt.sigma
            for cs, ct in zip(rs.cells, rt.cells):
                assert cs == ct  # bit-identical, not merely close

    def test_seed_changes_results(self):
        a = run_study(constant_design(replicates=40, master_seed=1))
        b = run_study(constant_design(replicates=40, master_seed=2))
        ca = a.entry("ql", 0.02).cell("theta1")
        cb = b.entry("ql", 0.02).cell("theta1")
        assert ca.b_s != cb.b_s

    def test_two_curve_targets_include_gamma(self):
        design = default_partial_bleach_design(sigma_grid=(0.01,), replicates=5,
                                               master_seed=3)
        summary = run_study(design)
        assert summary.truths["gamma"] == pytest.approx(PAPER_GAMMA, abs=1e-4)
        cell = summary.entry("ml", 0.01).cell("gamma")
        assert np.isfinite(cell.b_s)
        assert cell.b_t < 0

    def test_rejection_counting(self, const):
        # sigma = 0.5 at theta = 1 rejects often; the counters must balance.
        design = constant_design(theta0=np.array([1.0]), sigma_grid=(0.5,),
                                 replicates=30, master_seed=13, max_redraws=0)
        summary = run_study(design)
        for m in design.methods:
            entry = summary.entry(m, 0.5)
            assert entry.rejected_count > 0
            assert entry.r_effective + entry.failure_count + entry.rejected_count == 30

    def test_formula_biases_match_public_formulae(self):
        # B_T is bias_order2 per curve for separate fits and on the stacked
        # model for common-sigma ML, and gamma_bias_se's bias for the dose,
        # all at theta0.
        sigma = 0.02
        design = default_partial_bleach_design(sigma_grid=(sigma,), replicates=2,
                                               master_seed=4)
        pb, x1, x2, theta0 = design.model, design.x1, design.x2, design.theta0
        summary = run_study(design)
        alpha, beta = pb.split(theta0)
        joint, idx = stacked_model(pb, x1, x2)
        for method in design.methods:
            mode = design.mode_for(method)
            if mode == "common-sigma":
                expected = bias_order2(method, joint, Dataset(idx, joint.eval(idx, theta0)),
                                       theta0, sigma).bias
            else:
                expected = np.concatenate([
                    bias_order2(method, curve, Dataset(x, curve.eval(x, t)), t, sigma).bias
                    for curve, x, t in ((pb.curve1, x1, alpha), (pb.curve2, x2, beta))])
            dose = gamma_bias_se(pb, x1, x2, theta0, sigma, method, fit_mode=mode)
            expected = np.append(expected, dose.bias)
            entry = summary.entry(method, sigma)
            got = np.array([entry.cell(t).b_t for t in design.target_names])
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

    def test_no_rejections_on_bundled_design(self):
        design = default_partial_bleach_design(sigma_grid=(0.06,), replicates=20,
                                               master_seed=9)
        summary = run_study(design)
        assert all(r.rejected_count == 0 and r.redraw_count == 0 for r in summary.results)


class TestSimDesignValidation:
    def test_sigma_range(self):
        with pytest.raises(ValueError):
            constant_design(sigma_grid=(0.6,))

    def test_replicates_positive(self):
        with pytest.raises(ValueError):
            constant_design(replicates=0)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            constant_design(methods=("ols",))


class TestCompareBiasTable:
    def test_empty_sigma_grid(self):
        design = constant_design(sigma_grid=())
        table = compare_bias_table(run_study(design))
        assert table.sigmas == ()
        text = table.text()
        assert "B_T" in text and len(text.strip().splitlines()) == 1

    def test_single_cell(self):
        design = constant_design(sigma_grid=(0.02,), replicates=5, methods=("ql",))
        table = compare_bias_table(run_study(design))
        assert table.b_t.shape == (1, 1)
        d = table.to_dict()
        assert d["rows"][0]["sigma"] == 0.02
        assert set(d["rows"][0]["ql"]) == {"b_t", "b_s"}

    def test_paper_shaped_output(self):
        design = default_partial_bleach_design(sigma_grid=(0.01, 0.02), replicates=3,
                                               master_seed=4)
        table = compare_bias_table(run_study(design))
        assert table.target == "gamma"
        lines = table.text().strip().splitlines()
        assert len(lines) == 3  # header + 2 sigma rows
        assert lines[0].split()[0] == "sigma"
        assert len(table.methods) == 4