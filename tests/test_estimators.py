"""The four estimating equations and their solver."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from propfit import estimators
from propfit.equivalent_dose import partial_bleach_model
from propfit.estimators import (
    METHODS,
    FitOptions,
    equation_residual,
    estimate_sigma_ml,
    estimate_sigma_unbiased,
    fit,
    fit_methods,
)
from propfit.exceptions import DomainError, ZeroResponseError
from propfit.jacobian import build_jacobian_bundle
from propfit.models import Dataset
from propfit.simulation import DEFAULT_BLEACHED_DOSES, DEFAULT_UNBLEACHED_DOSES, QNL84_BETA2, \
    QNL84_BETA3, default_partial_bleach_design, generate_dataset, replicate_stream
from conftest import PAPER_ALPHA, make_noisy, stacked_model

TIGHT = FitOptions(tol_residual=1e-12)


class TestConstantModelClosedForms:
    """On f = theta1 every equation has an explicit root."""

    def test_ql_is_mean(self, const, const_123):
        res = fit(const, const_123, "ql")
        assert res.converged
        assert res.theta_hat[0] == pytest.approx(2.0, abs=1e-10)

    def test_ml_is_mean(self, const, const_123):
        res = fit(const, const_123, "ml")
        assert res.theta_hat[0] == pytest.approx(2.0, abs=1e-10)

    def test_wls_closed_form(self, const, const_123):
        # Eq. reduces to sum(y^2) - theta sum(y) = 0 -> 14/6.
        res = fit(const, const_123, "wls")
        assert res.theta_hat[0] == pytest.approx(14.0 / 6.0, abs=1e-9)

    def test_wls_against_scalar_root_oracle(self, const, const_123):
        # Independent oracle: bracketing root finder on the raw 1-d equation.
        def eq(t):
            return float(equation_residual("wls", const, const_123,
                                           np.array([t]))[0])

        root = brentq(eq, 1.0, 5.0, xtol=1e-13)
        res = fit(const, const_123, "wls", TIGHT)
        assert res.theta_hat[0] == pytest.approx(root, abs=1e-9)

    def test_dwls_closed_form(self, const, const_123):
        # sum(1/y) / sum(1/y^2) = (11/6)/(49/36) = 66/49.
        res = fit(const, const_123, "dwls")
        assert res.theta_hat[0] == pytest.approx(66.0 / 49.0, abs=1e-9)

    def test_ml_equals_ql_exactly(self, const, const_123):
        ml = fit(const, const_123, "ml", TIGHT)
        ql = fit(const, const_123, "ql", TIGHT)
        assert ml.theta_hat[0] == pytest.approx(ql.theta_hat[0], rel=1e-12)


class TestZeroNoiseFixedPoint:
    @pytest.mark.parametrize("method", ["ml", "ql", "wls", "dwls"])
    def test_exact_data_returns_truth(self, satexp, satexp_grid, method):
        res = fit(satexp, satexp_grid, method, FitOptions(start=PAPER_ALPHA))
        assert res.converged
        np.testing.assert_allclose(res.theta_hat, PAPER_ALPHA, rtol=1e-8)
        if method == "ml":
            assert res.sigma_hat == 0.0

    @pytest.mark.parametrize("method", ["ml", "ql", "wls", "dwls"])
    def test_auto_start_recovers_truth(self, satexp, satexp_grid, method):
        res = fit(satexp, satexp_grid, method, FitOptions(start="auto"))
        assert res.converged
        np.testing.assert_allclose(res.theta_hat, PAPER_ALPHA, rtol=1e-6)


class TestSigmaEstimates:
    def test_zero_residuals(self, const):
        data = Dataset(np.arange(3.0), np.full(3, 2.0))
        assert estimate_sigma_ml(const, data, np.array([2.0])) == 0.0
        assert estimate_sigma_unbiased(const, data, np.array([2.0])) == 0.0

    def test_two_point_relative_residuals(self, const):
        data = Dataset(np.arange(2.0), np.array([1.1, 0.9]))
        assert estimate_sigma_ml(const, data, np.array([1.0])) == pytest.approx(0.1, rel=1e-12)

    def test_constant_arithmetic(self, const, const_123):
        theta = np.array([2.0])
        assert estimate_sigma_ml(const, const_123, theta) == pytest.approx(
            np.sqrt(1.0 / 6.0), rel=1e-12)
        assert estimate_sigma_unbiased(const, const_123, theta) == pytest.approx(0.5, rel=1e-12)

    def test_divisor_ratio(self, const, const_123):
        ml = estimate_sigma_ml(const, const_123, np.array([2.0]))
        ub = estimate_sigma_unbiased(const, const_123, np.array([2.0]))
        assert ub / ml == pytest.approx(np.sqrt(3.0 / 2.0), rel=1e-12)


class TestEquationResidual:
    def test_ql_zero_at_truth_on_exact_data(self, satexp, satexp_grid):
        r = equation_residual("ql", satexp, satexp_grid, PAPER_ALPHA)
        np.testing.assert_allclose(r, 0.0, atol=1e-18)

    def test_wls_zero_at_closed_form(self, const, const_123):
        r = equation_residual("wls", const, const_123, np.array([14.0 / 6.0]))
        assert abs(r[0]) < 1e-14

    def test_ml_nonzero_at_ql_root_on_noisy_data(self, satexp):
        data = make_noisy(satexp, np.linspace(0.0, 1000.0, 16), PAPER_ALPHA, 0.05, seed=3)
        ql = fit(satexp, data, "ql", FitOptions(start=PAPER_ALPHA))
        r_ml = equation_residual("ml", satexp, data, ql.theta_hat)
        assert np.max(np.abs(r_ml)) > 100.0 * ql.residual_norm

    def test_ml_frozen_sigma_matches_profiled_at_consistent_point(self, const, const_123):
        theta = np.array([2.0])
        s = estimate_sigma_ml(const, const_123, theta)
        np.testing.assert_allclose(
            equation_residual("ml", const, const_123, theta),
            equation_residual("ml", const, const_123, theta, sigma=s),
            rtol=1e-14)

    @pytest.mark.parametrize("method", ["ql", "wls", "dwls"])
    def test_sigma_free_methods_ignore_sigma(self, method, satexp, satexp_grid):
        a = equation_residual(method, satexp, satexp_grid, PAPER_ALPHA * 1.01)
        b = equation_residual(method, satexp, satexp_grid, PAPER_ALPHA * 1.01, sigma=0.37)
        np.testing.assert_array_equal(a, b)


def _central_jacobian(method, model, data, theta, rel_step=1e-6):
    cols = []
    for j in range(theta.size):
        h = rel_step * max(1.0, abs(theta[j]))
        tp, tm = theta.copy(), theta.copy()
        tp[j] += h
        tm[j] -= h
        cols.append((equation_residual(method, model, data, tp)
                     - equation_residual(method, model, data, tm)) / (tp[j] - tm[j]))
    return np.stack(cols, axis=1)


class TestEquationJacobian:
    """The solver's analytic Jacobian against central differences of the equation."""

    @pytest.mark.parametrize("method", ["ml", "ql", "wls", "dwls"])
    @pytest.mark.parametrize("case", ["constant", "exponential", "saturating"])
    def test_matches_central_differences(self, const, expo, satexp, method, case):
        if case == "constant":
            model, theta = const, np.array([2.0])
            data = make_noisy(const, np.arange(6.0), theta, 0.1, seed=4)
        elif case == "exponential":
            model, theta = expo, np.array([10.0, 3.0])
            data = make_noisy(expo, np.linspace(0.0, 8.0, 9), theta, 0.05, seed=4)
        else:
            model, theta = satexp, PAPER_ALPHA
            data = make_noisy(satexp, np.linspace(0.0, 1000.0, 16), theta, 0.05, seed=4)
        # Off the root, so every term of the Jacobian is exercised.
        theta = theta * (1.0 + 0.02 * np.arange(1, theta.size + 1))
        stack = estimators._assign(estimators._EQUATIONS, estimators._stack(
            ((model, data.x, data.y[None, :]),)), [METHODS.index(method)])
        analytic = estimators._point(stack, theta[None, :]).jacobian()[0]
        np.testing.assert_allclose(analytic, _central_jacobian(method, model, data, theta),
                                   rtol=1e-5, atol=1e-7 * np.max(np.abs(analytic)))

    def test_ml_on_stacked_common_sigma_model(self):
        pb = partial_bleach_model()
        joint, idx = stacked_model(pb, DEFAULT_UNBLEACHED_DOSES, DEFAULT_BLEACHED_DOSES)
        theta = np.concatenate([PAPER_ALPHA, [95717.8, QNL84_BETA2, QNL84_BETA3]])
        data = make_noisy(joint, idx, theta, 0.03, seed=8)
        theta = theta * (1.0 + 0.01 * np.arange(1, 7))
        stack = estimators._assign(estimators._EQUATIONS, estimators._stack(
            ((joint, data.x, data.y[None, :]),)), [METHODS.index("ml")])
        analytic = estimators._point(stack, theta[None, :]).jacobian()[0]
        np.testing.assert_allclose(analytic, _central_jacobian("ml", joint, data, theta),
                                   rtol=1e-5, atol=1e-7 * np.max(np.abs(analytic)))


class TestRootContract:
    @pytest.mark.parametrize("method", ["ml", "ql", "wls", "dwls"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_converged_means_small_residual(self, satexp, method, seed):
        data = make_noisy(satexp, np.linspace(0.0, 1000.0, 16), PAPER_ALPHA, 0.03, seed=seed)
        res = fit(satexp, data, method, FitOptions(start=PAPER_ALPHA))
        assert res.converged
        r = equation_residual(method, satexp, data, res.theta_hat)
        assert np.max(np.abs(r)) <= res.tolerance

    @pytest.mark.parametrize("method", ["ml", "ql", "wls", "dwls"])
    def test_convergence_does_not_depend_on_start(self, satexp, method):
        data = make_noisy(satexp, np.linspace(0.0, 1000.0, 16), PAPER_ALPHA, 0.05, seed=9)
        a = fit(satexp, data, method, FitOptions(start=PAPER_ALPHA))
        b = fit(satexp, data, method, FitOptions(start="auto"))
        assert a.converged and b.converged
        assert a.tolerance == pytest.approx(b.tolerance, rel=1e-6)
        np.testing.assert_allclose(b.theta_hat, a.theta_hat, rtol=1e-8)

    def test_estimate_lands_within_a_few_standard_errors(self, satexp):
        # SE scale from sigma^2 (J'J)^{-1} at the truth.
        from propfit.asymptotics import cov_order2

        sigma = 0.02
        x = np.linspace(0.0, 1000.0, 16)
        data = make_noisy(satexp, x, PAPER_ALPHA, sigma, seed=12)
        se = np.sqrt(np.diag(cov_order2(build_jacobian_bundle(
            satexp, Dataset(x, np.asarray(satexp.eval(x, PAPER_ALPHA))), PAPER_ALPHA), sigma)))
        for method in ("ml", "ql", "wls", "dwls"):
            res = fit(satexp, data, method, FitOptions(start=PAPER_ALPHA))
            assert res.converged
            np.testing.assert_array_less(np.abs(res.theta_hat - PAPER_ALPHA), 5.0 * se)

    def test_a_fit_running_off_to_the_linear_limit_is_not_converged(self):
        # At sigma 0.15 this bleached-curve fit runs off towards the
        # saturating exponential's linear limit, where G is small only
        # because its terms are; a unit-free stop test does not pass it.
        design = default_partial_bleach_design()
        pb, theta0 = design.model, design.theta0
        stream = replicate_stream(5, 0, 299)
        generate_dataset(pb.curve1, DEFAULT_UNBLEACHED_DOSES, theta0[:3], 0.15, stream)
        data = generate_dataset(pb.curve2, DEFAULT_BLEACHED_DOSES, theta0[3:], 0.15, stream)
        res = fit(pb.curve2, data, "ql")
        assert res.theta_hat[0] > 1e8
        assert not res.converged


class TestOrderSigmaEquivalence:
    """To first order every estimator is least squares on the J design."""

    @pytest.mark.parametrize("method", ["ml", "ql", "wls", "dwls"])
    def test_small_sigma_linearization(self, satexp, satexp_grid, method):
        rng = np.random.default_rng(11)
        eps = rng.standard_normal(satexp_grid.n)
        bundle = build_jacobian_bundle(satexp, satexp_grid, PAPER_ALPHA)
        ols = bundle.JtJ_inv @ (bundle.J.T @ eps)

        def gap(sigma):
            y = satexp_grid.y * (1.0 + sigma * eps)
            data = Dataset(satexp_grid.x, y)
            res = fit(satexp, data, method,
                      FitOptions(start=PAPER_ALPHA, tol_residual=1e-14, max_iter=200))
            scaled = (res.theta_hat - PAPER_ALPHA) / sigma
            return np.linalg.norm(scaled - ols)

        ratio = gap(1e-3) / gap(1e-4)
        assert 5.0 <= ratio <= 20.0


class TestInvariances:
    @pytest.mark.parametrize("method", ["ml", "ql", "wls", "dwls"])
    def test_scale_equivariance(self, satexp, method):
        data = make_noisy(satexp, np.linspace(0.0, 1000.0, 16), PAPER_ALPHA, 0.02, seed=5)
        c = 3.7
        scaled = Dataset(data.x, c * data.y)
        r1 = fit(satexp, data, method, FitOptions(start=PAPER_ALPHA, tol_residual=1e-11))
        start2 = PAPER_ALPHA * np.array([c, 1.0, 1.0])
        r2 = fit(satexp, scaled, method, FitOptions(start=start2, tol_residual=1e-11))
        assert r2.theta_hat[0] / r1.theta_hat[0] == pytest.approx(c, rel=1e-7)
        np.testing.assert_allclose(r2.theta_hat[1:], r1.theta_hat[1:], rtol=1e-7)
        assert r2.sigma_hat == pytest.approx(r1.sigma_hat, rel=1e-7)

    def test_default_fits_are_scale_equivariant(self):
        # y -> c*y scales theta1 by c and leaves the rest: default fits (the
        # "auto" start, default tolerance) of both bundled curves agree to
        # 1e-8 relative, whatever the units of y.
        design = default_partial_bleach_design()
        pb, theta0 = design.model, design.theta0
        curves = ((pb.curve1, DEFAULT_UNBLEACHED_DOSES, theta0[:3]),
                  (pb.curve2, DEFAULT_BLEACHED_DOSES, theta0[3:]))
        Y = [[], []]
        for seed in (1, 7):
            for k in range(20):
                stream = replicate_stream(seed, 0, k)
                for rows, (model, x, theta) in zip(Y, curves):
                    rows.append(generate_dataset(model, x, theta, 0.03, stream).y)
        for rows, (model, x, _) in zip(Y, curves):
            base = fit_methods(model, x, np.array(rows), METHODS)
            for c in (1e-8, 2.0**-20, 1e-3, 1e4):
                scaled = fit_methods(model, x, c * np.array(rows), METHODS)
                for m in METHODS:
                    assert base[m].converged.all() and scaled[m].converged.all(), (m, c)
                    np.testing.assert_allclose(scaled[m].theta_hat / [c, 1.0, 1.0],
                                               base[m].theta_hat, rtol=1e-8, atol=0.0,
                                               err_msg=f"{m}, c = {c}")

    @pytest.mark.parametrize("method", ["ql", "wls", "dwls"])
    def test_fits_are_deterministic(self, satexp, method):
        data = make_noisy(satexp, np.linspace(0.0, 1000.0, 16), PAPER_ALPHA, 0.02, seed=6)
        a = fit(satexp, data, method, FitOptions(start=PAPER_ALPHA))
        b = fit(satexp, data, method, FitOptions(start=PAPER_ALPHA))
        np.testing.assert_array_equal(a.theta_hat, b.theta_hat)


class TestErrors:
    def test_dwls_rejects_nonpositive_response(self, const):
        data = Dataset(np.arange(3.0), np.array([1.0, -2.0, 3.0]))
        with pytest.raises(ZeroResponseError):
            fit(const, data, "dwls")

    def test_dwls_residual_rejects_zero_response(self, const):
        data = Dataset(np.arange(3.0), np.array([1.0, 0.0, 3.0]))
        with pytest.raises(ZeroResponseError):
            equation_residual("dwls", const, data, np.array([1.0]))

    def test_dwls_residual_rejects_negative_response_as_the_fit(self, const):
        data = Dataset(np.arange(3.0), np.array([1.0, -2.0, 3.0]))
        with pytest.raises(ZeroResponseError) as from_fit:
            fit(const, data, "dwls")
        with pytest.raises(ZeroResponseError) as from_residual:
            equation_residual("dwls", const, data, np.array([1.0]))
        assert str(from_residual.value) == str(from_fit.value) == (
            "data-weighted least squares requires all y > 0")

    def test_too_few_observations(self, satexp):
        data = Dataset(np.arange(3.0), np.ones(3))
        with pytest.raises(ValueError):
            fit(satexp, data, "ql")

    def test_unknown_method(self, const, const_123):
        with pytest.raises(ValueError):
            fit(const, const_123, "ols")

    @pytest.mark.parametrize("controls, message", [
        ({"tol_residual": 0.0}, "tolerances must be positive"),
        ({"tol_residual": -1e-10}, "tolerances must be positive"),
        ({"max_iter": 0}, "max_iter must be at least 1")])
    def test_options_reject_bad_controls(self, controls, message):
        with pytest.raises(ValueError, match=message):
            FitOptions(**controls)

    def test_residual_and_ml_scale_raise_outside_the_domain(self, satexp, satexp_grid):
        theta = np.array([PAPER_ALPHA[0], PAPER_ALPHA[1], 0.0])  # alpha3 = 0
        message = "model 'saturating_exponential' is undefined at the requested point"
        for method in METHODS:
            with pytest.raises(DomainError, match=message):
                equation_residual(method, satexp, satexp_grid, theta)
        with pytest.raises(DomainError, match=message):
            estimate_sigma_ml(satexp, satexp_grid, theta)

    def test_unbiased_scale_needs_more_points_than_parameters(self, const):
        data = Dataset(np.arange(1.0), np.array([1.0]))
        with pytest.raises(ValueError, match="need n > p, got n=1, p=1"):
            estimate_sigma_unbiased(const, data, np.array([1.5]))

    def test_misshapen_responses_and_unknown_start_raise_for_the_call(self, satexp,
                                                                       satexp_grid):
        x = satexp_grid.x
        with pytest.raises(ValueError, match=rf"Y must have shape \(R, {x.size}\), got \(2, 3\)"):
            fit_methods(satexp, x, np.ones((2, 3)), METHODS)
        with pytest.raises(ValueError, match="unknown start spec 'hint'"):
            fit(satexp, satexp_grid, "ql", FitOptions(start="hint"))

    def test_nonconvergence_is_flagged_not_raised(self, satexp):
        # The rounding floor makes any tolerance reachable: a fit stopped one
        # iteration before it reaches the floor comes back flagged, with its
        # best iterate, instead of an exception.
        data = make_noisy(satexp, np.linspace(0.0, 1000.0, 16), PAPER_ALPHA, 0.05, seed=1)
        opts = FitOptions(start=PAPER_ALPHA, tol_residual=1e-30, max_iter=20)
        full = fit(satexp, data, "ql", opts)
        assert full.converged and full.residual_norm <= full.tolerance
        res = fit(satexp, data, "ql", replace(opts, max_iter=full.iterations - 1))
        assert not res.converged
        assert np.all(np.isfinite(res.theta_hat))
        # The best iterate is still excellent: it meets the default tolerance.
        assert res.residual_norm <= fit(satexp, data, "ql", FitOptions(start=PAPER_ALPHA)).tolerance

    def test_max_iter_returns_best_iterate_flagged(self, satexp):
        data = make_noisy(satexp, np.linspace(0.0, 1000.0, 16), PAPER_ALPHA, 0.02, seed=2)
        start = 1.3 * PAPER_ALPHA
        res = fit(satexp, data, "ql", FitOptions(start=start, max_iter=1))
        assert not res.converged and res.iterations == 1
        norm = np.max(np.abs(equation_residual("ql", satexp, data, res.theta_hat)))
        assert res.residual_norm == pytest.approx(norm, rel=1e-12)
        assert norm < np.max(np.abs(equation_residual("ql", satexp, data, start)))
