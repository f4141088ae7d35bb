"""Bias formulae, covariances, limit laws, and their algebraic identities."""

import re
from dataclasses import replace

import numpy as np
import pytest

from propfit.asymptotics import (
    bias_cov,
    bias_order2,
    check_theta1_factorization,
    cov_ml_exact,
    cov_ml_full,
    cov_ml_unreduced,
    cov_order2,
    cov_ql_sandwich,
    limit_distribution,
    ml_expected_information,
    ml_score_covariance,
)
from propfit.exceptions import SingularError
from propfit.jacobian import JacobianBundle, build_jacobian_bundle
from propfit.models import Dataset
from conftest import PAPER_ALPHA


@pytest.fixture
def const_design(const):
    data = Dataset(np.arange(20.0), np.full(20, 100.0))
    return const, data, np.array([100.0])


@pytest.fixture
def expo_design(expo):
    x = np.linspace(0.5, 6.0, 9)
    theta = np.array([2.0, 3.0])
    return expo, Dataset(x, np.asarray(expo.eval(x, theta))), theta


class TestBiasOrder2:
    """Constant model: w1 = 1/n, w2 = 0 collapse the formulae to closed forms."""

    def test_ml_and_ql_unbiased_on_constant(self, const_design):
        bundle = build_jacobian_bundle(*const_design)
        for method in ("ml", "ql"):
            bias = bias_order2(method, bundle, 0.02)
            assert bias[0] == pytest.approx(0.0, abs=1e-18)

    def test_unknown_method_rejected(self, const_design):
        with pytest.raises(ValueError, match="unknown method 'ols'"):
            bias_order2("ols", build_jacobian_bundle(*const_design), 0.02)

    def test_wls_closed_form(self, const_design):
        # Oracle: expanding sum(y^2)/sum(y) with y = theta(1 + sigma eps) to
        # O(sigma^2) gives E theta_hat - theta = theta sigma^2 (1 - 1/n).
        bias = bias_order2("wls", build_jacobian_bundle(*const_design), 0.02)
        assert bias[0] == pytest.approx(100.0 * 0.02**2 * (1 - 1 / 20), rel=1e-12)

    def test_dwls_closed_form(self, const_design):
        bias = bias_order2("dwls", build_jacobian_bundle(*const_design), 0.02)
        assert bias[0] == pytest.approx(-2.0 * 100.0 * 0.02**2 * (1 - 1 / 20), rel=1e-12)

    def test_wls_expansion_oracle_on_random_eps(self, const_design):
        # theta_hat = sum(y^2)/sum(y) should match its O(sigma^2) expansion
        # theta (1 + sigma eps_bar + sigma^2 (eps2_bar - eps_bar^2)) to O(sigma^3).
        model, data, theta = const_design
        rng = np.random.default_rng(17)
        eps = rng.standard_normal(20)

        def exact_minus_expansion(sigma):
            y = theta[0] * (1 + sigma * eps)
            estimate = np.sum(y**2) / np.sum(y)
            e1, e2 = eps.mean(), np.mean(eps**2)
            expansion = theta[0] * (1 + sigma * e1 + sigma**2 * (e2 - e1**2))
            return abs(estimate - expansion)

        assert exact_minus_expansion(1e-3) / exact_minus_expansion(1e-4) == pytest.approx(
            1000.0, rel=0.2)

    def test_ml_minus_ql_is_centered_leverage_term(self, expo):
        # Needs a skewed design: on symmetric grids the term vanishes exactly.
        x = np.array([0.5, 0.7, 1.0, 2.0, 3.5, 5.0, 6.0])
        theta = np.array([2.0, 3.0])
        data = Dataset(x, np.asarray(expo.eval(x, theta)))
        sigma = 0.05
        bundle = build_jacobian_bundle(expo, data, theta)
        b_ml = bias_order2("ml", bundle, sigma)
        b_ql = bias_order2("ql", bundle, sigma)
        expected = -sigma**2 * bundle.JtJ_inv @ (
            bundle.J.T @ (bundle.w1 - bundle.p / bundle.n))
        assert np.max(np.abs(expected)) > 0
        np.testing.assert_allclose(b_ml - b_ql, expected, rtol=1e-12)

    def test_quadratic_sigma_scaling(self, expo_design):
        bundle = build_jacobian_bundle(*expo_design)
        for method in ("ml", "ql", "wls", "dwls"):
            b1 = bias_order2(method, bundle, 0.01)
            b2 = bias_order2(method, bundle, 0.02)
            np.testing.assert_allclose(b2, 4.0 * b1, rtol=1e-13)

    def test_centered_leverages_sum_to_zero(self, expo_design):
        model, data, theta = expo_design
        bundle = build_jacobian_bundle(model, data, theta)
        assert np.sum(bundle.w1 - bundle.p / bundle.n) == pytest.approx(0.0, abs=1e-12)


class TestCovariances:
    def test_order2_constant_closed_form(self, const_design):
        cov = cov_order2(build_jacobian_bundle(*const_design), 0.02)
        assert cov[0, 0] == pytest.approx(0.02**2 * 100.0**2 / 20, rel=1e-12)

    def test_order2_sigma_scaling(self, expo_design):
        bundle = build_jacobian_bundle(*expo_design)
        c1 = cov_order2(bundle, 0.01)
        c2 = cov_order2(bundle, 0.02)
        np.testing.assert_allclose(c2, 4.0 * c1, rtol=1e-13)

    def test_ml_exact_two_forms_agree(self, expo_design):
        bundle = build_jacobian_bundle(*expo_design)
        for sigma in (0.01, 0.1, 0.4):
            a = cov_ml_exact(bundle, sigma)
            b = cov_ml_unreduced(bundle, sigma)
            assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(a))

    def test_ml_exact_collapses_on_constant(self, const_design):
        # J rows all equal: the centered term vanishes identically.
        bundle = build_jacobian_bundle(*const_design)
        exact = cov_ml_exact(bundle, 0.1)
        order2 = cov_order2(bundle, 0.1)
        np.testing.assert_allclose(exact, order2, rtol=1e-12)

    def test_variance_ordering(self, expo_design):
        bundle = build_jacobian_bundle(*expo_design)
        exact = cov_ml_exact(bundle, 0.2)
        order2 = cov_order2(bundle, 0.2)
        eig = np.linalg.eigvalsh(order2 - exact)
        assert eig[0] >= -1e-12 * np.trace(order2)
        assert eig[-1] > 0  # strictly better in some direction when J rows differ

    def test_order_sigma4_agreement(self, expo_design):
        # The exact and order-2 covariances differ at relative order sigma^2.
        bundle = build_jacobian_bundle(*expo_design)

        def rel_gap(sigma):
            exact = cov_ml_exact(bundle, sigma)
            order2 = cov_order2(bundle, sigma)
            return np.linalg.norm(order2 - exact) / np.linalg.norm(order2)

        ratio = rel_gap(0.1) / rel_gap(0.01)
        assert 50.0 <= ratio <= 200.0


class TestBiasCovOverSigmas:
    def test_first_sigma_that_is_not_psd_raises_its_own_error(self, expo_design):
        # A negated (J'J)^{-1} scales to a covariance that is not positive
        # semidefinite at every sigma but 0; the stack raises what the first
        # such sigma alone raises.
        bundle = build_jacobian_bundle(*expo_design)
        flipped = replace(bundle, JtJ_inv=-bundle.JtJ_inv)
        bias, cov = bias_cov("wls", (flipped,), np.array([0.0]))
        np.testing.assert_array_equal(cov[0], np.zeros((2, 2)))
        with pytest.raises(SingularError) as alone:
            bias_cov("wls", (flipped,), 0.02)
        assert str(alone.value).startswith("order-2 covariance is not positive semidefinite")
        with pytest.raises(SingularError, match=re.escape(str(alone.value))):
            bias_cov("wls", (flipped,), np.array([0.0, 0.02, 0.05]))


class TestMlFull:
    def test_upper_block_matches_exact(self, expo_design):
        bundle = build_jacobian_bundle(*expo_design)
        full = cov_ml_full(bundle, 0.05)
        exact = cov_ml_exact(bundle, 0.05)
        assert np.max(np.abs(full[:2, :2] - exact)) <= 1e-10 * np.max(np.abs(exact))

    def test_sigma_variance_constant_model(self, const_design):
        # Closed form via the 2x2 partitioned inverse: the scale entry is
        # sigma^2/(2n) / (1 - rho) with rho = 2 sigma^2 / (1 + 2 sigma^2).
        sigma, n = 0.1, 20
        full = cov_ml_full(build_jacobian_bundle(*const_design), sigma)
        rho = 2.0 * sigma**2 / (1.0 + 2.0 * sigma**2)
        assert full[-1, -1] == pytest.approx(sigma**2 / (2 * n) / (1 - rho), rel=1e-12)

    def test_direct_inverse_oracle(self, expo_design):
        sigma = 0.07
        bundle = build_jacobian_bundle(*expo_design)
        info = ml_expected_information(bundle, sigma)
        np.testing.assert_allclose(cov_ml_full(bundle, sigma),
                                   np.linalg.inv(info), rtol=1e-9)

    @pytest.mark.parametrize("sigma", [0.01, 0.1, 0.5])
    def test_symmetric_positive_definite(self, expo_design, sigma):
        full = cov_ml_full(build_jacobian_bundle(*expo_design), sigma)
        np.testing.assert_allclose(full, full.T, atol=1e-15 * np.max(np.abs(full)))
        assert np.linalg.eigvalsh(full)[0] > 0

    def test_information_not_positive_definite_raises(self):
        # A zero Jacobian leaves the information's theta block zero. No
        # model gives such a bundle (build_jacobian_bundle rejects a
        # singular J'J), so it is built by hand.
        bundle = JacobianBundle(J=np.zeros((4, 1)), JtJ=np.zeros((1, 1)), JtJ_inv=np.zeros((1, 1)),
                                Jbar=np.zeros(1), w1=np.zeros(4), w2=np.zeros(4), f=np.ones(4))
        with pytest.raises(SingularError, match="ML information matrix is not positive definite"):
            cov_ml_full(bundle, 0.05)

    def test_bartlett_identity_under_normal_moments(self, expo_design, const_design):
        for model, data, theta in (expo_design, const_design):
            bundle = build_jacobian_bundle(model, data, theta)
            info = ml_expected_information(bundle, 0.08)
            score = ml_score_covariance(bundle, 0.08)
            assert np.max(np.abs(info - score)) <= 1e-10 * np.max(np.abs(info))

    def test_identity_breaks_for_non_normal_moments(self, expo_design):
        model, data, theta = expo_design
        bundle = build_jacobian_bundle(model, data, theta)
        info = ml_expected_information(bundle, 0.08)
        score = ml_score_covariance(bundle, 0.08, rel_m3=0.001)
        assert np.max(np.abs(info - score)) > 0


class TestSandwich:
    def test_collapses_to_order2_for_proportional_variance(self, expo_design):
        model, data, theta = expo_design
        sigma = 0.05
        f = np.asarray(model.eval(data.x, theta))
        bundle = build_jacobian_bundle(model, data, theta)
        np.testing.assert_allclose(cov_ql_sandwich(bundle, sigma**2 * f**2),
                                   cov_order2(bundle, sigma), rtol=1e-12)

    def test_zero_variance_gives_zero(self, expo_design):
        model, data, theta = expo_design
        cov = cov_ql_sandwich(build_jacobian_bundle(model, data, theta), np.zeros(data.n))
        np.testing.assert_array_equal(cov, np.zeros((2, 2)))

    def test_misspecified_variance_against_monte_carlo(self, const):
        # Var(Y) = sigma^2 f (not f^2).  On the constant model the QL estimate
        # is exactly ybar, so the MC oracle is the variance of 20000 means.
        n, theta, sigma = 25, np.array([4.0]), 0.3
        data = Dataset(np.arange(float(n)), np.full(n, 4.0))
        var_y = np.full(n, sigma**2 * theta[0])
        bundle = build_jacobian_bundle(const, data, theta)
        sandwich = cov_ql_sandwich(bundle, var_y)[0, 0]
        order2 = cov_order2(bundle, sigma)[0, 0]
        assert abs(sandwich - order2) > 0.1 * max(sandwich, order2)

        rng = np.random.default_rng(21)
        draws = theta[0] + np.sqrt(sigma**2 * theta[0]) * rng.standard_normal((20000, n))
        mc_var = np.var(draws.mean(axis=1), ddof=1)
        assert sandwich == pytest.approx(mc_var, rel=0.1)

    def test_rejects_negative_variance(self, expo_design):
        # Non-finite variances are rejected too: they would give a NaN
        # covariance that the positive-semidefinite test lets through.
        bundle = build_jacobian_bundle(*expo_design)
        for bad in (-1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="var_y must be finite and nonnegative"):
                cov_ql_sandwich(bundle, np.full(bundle.n, bad))

    def test_rejects_misshapen_variance(self, expo_design):
        model, data, theta = expo_design
        with pytest.raises(ValueError, match=rf"var_y must have shape \({data.n},\)"):
            cov_ql_sandwich(build_jacobian_bundle(model, data, theta), np.ones(data.n + 1))


class TestLimitDistribution:
    def test_mean_shift_matches_bias_formula(self, expo_design):
        # delta Sigma (Gamma combos) is the same algebra as the bias at a
        # different scaling: shift * sigma / sqrt(n) = bias_order2 exactly.
        bundle = build_jacobian_bundle(*expo_design)
        sigma, n = 0.04, bundle.n
        for method in ("wls", "dwls"):
            lim = limit_distribution(method, bundle, sigma)
            back = lim.mean_shift * sigma / np.sqrt(n)
            np.testing.assert_allclose(back, bias_order2(method, bundle, sigma), rtol=1e-12)

    def test_simplified_dwls_is_minus_two_wls(self, expo_design):
        bundle = build_jacobian_bundle(*expo_design)
        wls = limit_distribution("wls", bundle, 0.05, simplified=True)
        dwls = limit_distribution("dwls", bundle, 0.05, simplified=True)
        np.testing.assert_allclose(dwls.mean_shift, -2.0 * wls.mean_shift, rtol=1e-13)
        assert np.all(wls.Gamma2 == 0) and np.all(wls.Gamma3 == 0)

    def test_delta_and_sigma_fields(self, expo_design):
        model, data, theta = expo_design
        bundle = build_jacobian_bundle(model, data, theta)
        lim = limit_distribution("wls", bundle, 0.05)
        assert lim.delta == pytest.approx(np.sqrt(data.n) * 0.05)
        np.testing.assert_allclose(lim.Sigma, data.n * bundle.JtJ_inv, rtol=1e-13)

    def test_scale_factor_models_shift_along_first_axis(self, satexp, satexp_grid):
        lim = limit_distribution("wls", build_jacobian_bundle(satexp, satexp_grid, PAPER_ALPHA),
                                 0.02, simplified=True)
        v = lim.Sigma @ lim.Gamma1
        np.testing.assert_allclose(v, [PAPER_ALPHA[0], 0.0, 0.0], atol=1e-7 * PAPER_ALPHA[0])

    def test_rejects_unbiased_equation_methods(self, expo_design):
        with pytest.raises(ValueError):
            limit_distribution("ml", build_jacobian_bundle(*expo_design), 0.05)


class TestFactorization:
    def test_saturating_exponential_factorizes(self, satexp, satexp_grid):
        fc = check_theta1_factorization(build_jacobian_bundle(satexp, satexp_grid, PAPER_ALPHA),
                                        PAPER_ALPHA[0])
        assert fc.factorized
        np.testing.assert_allclose(fc.v, [PAPER_ALPHA[0], 0.0, 0.0],
                                   atol=1e-8 * PAPER_ALPHA[0])
        assert fc.ml_wls_tail_gap < 1e-10

    def test_constant_model_factorizes(self, const, const_123):
        fc = check_theta1_factorization(build_jacobian_bundle(const, const_123, np.array([2.0])),
                                        2.0)
        assert fc.factorized
        assert fc.v[0] == pytest.approx(2.0, rel=1e-12)

    def test_affine_model_does_not_factorize(self):
        # f = theta1 + theta2 x on a 5-point grid; v has no reason to be
        # [theta1, 0].
        from propfit.models import ModelFunction

        model = ModelFunction(
            name="affine", p=2, param_names=("a", "b"),
            eval_fn=lambda x, t: t[..., 0, None] + t[..., 1, None] * x,
            grad_fn=lambda x, t: np.stack([np.ones_like(x), x], axis=1) * np.ones(
                t.shape[:-1] + (1, 1)),
            hess_fn=lambda x, t: np.zeros(t.shape[:-1] + (x.size, 2, 2)),
        )
        x = np.arange(1.0, 6.0)
        theta = np.array([2.0, 0.7])
        data = Dataset(x, np.asarray(model.eval(x, theta)))
        fc = check_theta1_factorization(build_jacobian_bundle(model, data, theta), theta[0])
        assert not fc.factorized

    def test_ml_wls_biases_differ_only_in_scale_direction(self, satexp, satexp_grid):
        bundle = build_jacobian_bundle(satexp, satexp_grid, PAPER_ALPHA)
        b_ml = bias_order2("ml", bundle, 0.02)
        b_wls = bias_order2("wls", bundle, 0.02)
        np.testing.assert_allclose(b_ml[1:], b_wls[1:],
                                   rtol=1e-10, atol=1e-12 * np.max(np.abs(b_ml)))
        assert abs(b_ml[0] - b_wls[0]) > 1e-6 * abs(b_wls[0])
