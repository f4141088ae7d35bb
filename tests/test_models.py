"""Mean functions: evaluation, derivatives, guards, registry."""

from dataclasses import replace

import numpy as np
import pytest

from propfit.estimators import FitOptions, fit_methods
from propfit.exceptions import DomainError, NonFiniteError
from propfit.models import (
    FAULT_DOMAIN,
    FAULT_THETA,
    FAULT_VALUE,
    Dataset,
    ModelFunction,
    constant_model,
    exponential_decay_model,
    fault_error,
    fd_check,
    get_model,
    saturating_exponential_model,
    scaled_shape_model,
)
from conftest import PAPER_ALPHA


class TestEval:
    def test_constant(self, const):
        assert const.eval(5.0, np.array([2.0])) == 2.0

    def test_satexp_at_zero_dose_matches_direct_formula(self, satexp):
        # Direct evaluation of the saturating exponential at the published values.
        expected = 142853.0 * (1.0 - np.exp(-123.182 / 393.065))
        assert satexp.eval(0.0, PAPER_ALPHA) == pytest.approx(expected, rel=1e-14)

    def test_satexp_vanishes_when_shift_cancels_dose(self, satexp):
        assert satexp.eval(-PAPER_ALPHA[1], PAPER_ALPHA) == pytest.approx(0.0, abs=1e-9)

    def test_vectorized_eval_matches_scalar(self, satexp):
        xs = np.array([0.0, 100.0, 500.0])
        vec = satexp.eval(xs, PAPER_ALPHA)
        assert vec.shape == (3,)
        for x, v in zip(xs, vec):
            assert satexp.eval(float(x), PAPER_ALPHA) == v

    def test_domain_guard_rejects_zero_rate(self, satexp):
        with pytest.raises(DomainError):
            satexp.eval(1.0, np.array([1.0, 1.0, 0.0]))

    def test_nonfinite_theta_rejected(self, const):
        with pytest.raises(DomainError):
            const.eval(1.0, np.array([np.nan]))

    def test_wrong_length_theta_rejected(self, satexp):
        with pytest.raises(ValueError):
            satexp.eval(1.0, np.array([1.0, 2.0]))


class TestFaults:
    # The exponential's guard rejects a zero scale theta2.
    ROWS = np.array([[2.0, 1.0], [np.nan, 1.0], [np.inf, 0.0], [2.0, 0.0]])
    CODES = [0, FAULT_THETA, FAULT_THETA, FAULT_DOMAIN]

    def test_stack(self, expo):
        x = np.linspace(0.0, 4.0, 5)
        assert expo.faults(x, self.ROWS).tolist() == self.CODES
        clean = expo.faults(x, self.ROWS[[0, 0, 0]])
        assert clean.shape == (3,) and not clean.any()

    def test_one_row(self, expo):
        x = np.linspace(0.0, 4.0, 5)
        for theta, code in zip(self.ROWS, self.CODES):
            fault = expo.faults(x, theta)
            assert fault.shape == () and int(fault) == code

    def test_without_guard(self, const):
        x = np.arange(3.0)
        assert const.faults(x, np.array([[1.0], [np.nan]])).tolist() == [0, FAULT_THETA]
        assert int(const.faults(x, np.array([1.0]))) == 0

    def test_fault_errors(self, expo):
        error = fault_error(expo, FAULT_VALUE)
        assert isinstance(error, NonFiniteError)
        assert str(error) == "model 'exponential' evaluated non-finite"
        with pytest.raises(ValueError, match="unknown fault code 99"):
            fault_error(expo, 99)


class TestGradients:
    def test_constant_gradient_is_one(self, const):
        np.testing.assert_array_equal(const.grad_rows(np.array([3.0]), np.array([2.0])), [[1.0]])

    def test_scaled_shape_gradient_is_shape(self):
        g = lambda x: np.exp(-x / 3.0)
        model = scaled_shape_model(g)
        x = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(model.grad_rows(x, np.array([4.0]))[:, 0], g(x), rtol=1e-14)

    def test_satexp_gradient_formulas_against_central_differences(self, satexp):
        # Oracle: central differences of the mean function itself.
        theta = np.array([1.0, 0.5, 2.0])
        x = 1.0
        h = 1e-6
        fd = np.empty(3)
        for j in range(3):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            fd[j] = (satexp.eval(x, tp) - satexp.eval(x, tm)) / (2 * h)
        np.testing.assert_allclose(satexp.grad_rows(np.array([x]), theta)[0], fd, rtol=1e-8)

    def test_exponential_gradient_shapes_and_values(self, expo):
        theta = np.array([2.0, 3.0])
        x = np.array([1.0, 2.0, 4.0])
        grad = expo.grad_rows(x, theta)
        e = np.exp(-x / 3.0)
        np.testing.assert_allclose(grad[:, 0], e, rtol=1e-14)
        np.testing.assert_allclose(grad[:, 1], 2.0 * x / 9.0 * e, rtol=1e-14)

    def test_finite_difference_fallback(self):
        model = ModelFunction(name="fd_only", p=2, param_names=("a", "b"),
                              eval_fn=lambda x, t: t[0] * x + t[1])
        grad = model.grad_rows(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        np.testing.assert_allclose(grad, [[1.0, 1.0], [2.0, 1.0]], rtol=1e-9)

    def test_slope_finite_difference_fallback(self):
        # scaled_shape_model has no dx_fn: its slope in x is central differences.
        model = scaled_shape_model(lambda x: np.exp(-x / 3.0))
        assert model.dx_fn is None
        x = np.array([0.0, 1.0, 2.0, 40.0])
        np.testing.assert_allclose(model.dx_rows(x, np.array([4.0])), 4.0 * -np.exp(-x / 3.0) / 3.0,
                                   rtol=1e-7)

    def test_exponential_slope_against_central_differences(self, expo):
        theta, x, h = np.array([2.0, 3.0]), np.array([0.0, 1.0, 4.0]), 1e-6
        fd = (expo.eval(x + h, theta) - expo.eval(x - h, theta)) / (2 * h)
        np.testing.assert_allclose(expo.dx_rows(x, theta), fd, rtol=1e-8)

    def test_hessian_symmetry(self, satexp):
        H = satexp.hess_rows(np.array([0.0, 50.0, 400.0]), PAPER_ALPHA)
        np.testing.assert_array_equal(H, np.transpose(H, (0, 2, 1)))


class TestFdCheck:
    def test_constant_has_zero_discrepancy(self, const):
        rep = fd_check(const, np.array([2.0]), np.array([0.0, 1.0]))
        assert rep.passed
        assert rep.grad_max_rel_err == 0.0

    def test_satexp_at_paper_values(self, satexp):
        rep = fd_check(satexp, PAPER_ALPHA, np.array([0.0, 100.0, 500.0]))
        assert rep.passed
        assert rep.grad_max_rel_err < 1e-5
        assert rep.hess_max_rel_err < 1e-5

    def test_wrong_gradient_is_flagged(self, satexp):
        from dataclasses import replace

        broken = replace(satexp, grad_fn=lambda x, t: 1.1 * satexp.grad_fn(x, t))
        rep = fd_check(broken, PAPER_ALPHA, np.array([0.0, 100.0, 500.0]))
        assert not rep.passed

    def test_stale_contraction_is_flagged(self, satexp):
        # The curve at twice the dose: its gradient and Hessian are replaced,
        # and pass, but the contraction left from the original is stale.
        xs = np.array([0.0, 100.0, 500.0])
        doubled = replace(satexp, eval_fn=lambda x, t: satexp.eval_fn(2.0 * x, t),
                          grad_fn=lambda x, t: satexp.grad_fn(2.0 * x, t),
                          hess_fn=lambda x, t: satexp.hess_fn(2.0 * x, t))
        rep = fd_check(doubled, PAPER_ALPHA, xs)
        assert rep.grad_max_rel_err < 1e-5 and not rep.passed
        mended = replace(doubled, whess_fn=lambda x, t, c: satexp.whess_fn(2.0 * x, t, c))
        assert fd_check(mended, PAPER_ALPHA, xs).passed
        wrong = replace(satexp, whess_fn=lambda x, t, c: 1.01 * satexp.whess_fn(x, t, c))
        assert fd_check(wrong, PAPER_ALPHA, xs).hess_max_rel_err > 5e-3

    def test_requires_analytic_derivatives(self):
        model = ModelFunction(name="bare", p=1, param_names=("a",),
                              eval_fn=lambda x, t: t[0] * x)
        with pytest.raises(ValueError):
            fd_check(model, np.array([1.0]), np.array([1.0]))


class TestDataset:
    def test_basic(self):
        d = Dataset(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert d.n == 2

    @pytest.mark.parametrize("x,y", [
        ([1.0], [1.0, 2.0]),
        ([], []),
        ([np.inf], [1.0]),
        ([1.0], [np.nan]),
        ([[1.0]], [[1.0]]),
    ])
    def test_invalid_rejected(self, x, y):
        with pytest.raises(ValueError):
            Dataset(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


class TestRegistry:
    def test_builtins_present(self):
        for name in ("constant", "exponential", "saturating_exponential"):
            model = get_model(name)
            assert model.name == name

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_model("no_such_model")

    def test_model_shape_is_checked(self, const):
        with pytest.raises(ValueError, match="model must have at least one parameter"):
            replace(const, p=0, param_names=())
        with pytest.raises(ValueError, match="param_names length must equal p"):
            replace(const, param_names=("a", "b"))


class TestStartHints:
    def test_constant_hint_is_mean(self, const):
        hint = const.start_hint(np.arange(3.0), np.array([1.0, 2.0, 3.0]))
        assert hint[0] == pytest.approx(2.0)

    def test_satexp_hint_is_usable(self, satexp, satexp_grid):
        hint = satexp.start_hint(satexp_grid.x, satexp_grid.y)
        assert hint.shape == (3,)
        assert hint[0] > np.max(satexp_grid.y)
        assert satexp.eval(0.0, hint) > 0

    def test_satexp_hint_fallbacks(self, satexp):
        x = np.linspace(0.0, 500.0, 6)
        # No positive response: unit saturation level and a shift of a tenth of the span.
        np.testing.assert_array_equal(satexp.start_hint(x, -np.ones(6)), [1.0, 50.0, 500.0])
        # A median response at or below zero has no log to take either.
        y = np.array([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0])
        np.testing.assert_array_equal(satexp.start_hint(x, y), [2.1, 50.0, 500.0])

    @pytest.mark.parametrize("factory", [
        constant_model, exponential_decay_model, saturating_exponential_model,
        lambda: scaled_shape_model(lambda x: 1.0 + x)], ids=["constant", "exponential",
                                                           "saturating", "scaled_shape"])
    def test_hints_take_a_stack_of_rows(self, factory):
        model = factory()
        x = np.linspace(0.0, 10.0, 8)
        Y = np.exp(-x / np.arange(1.0, 7.0).reshape(3, 2, 1)) * (2.0 - np.exp(-x / 4.0))
        hints = model.start_hint(x, Y)
        assert hints.shape == (3, 2, model.p)
        for index in np.ndindex(3, 2):
            np.testing.assert_array_equal(model.start_hint(x, Y[index]), hints[index])

    def test_hint_must_return_a_row_per_response_row(self, satexp, satexp_grid):
        # A hint written for one response row at a time gives one start for
        # the whole stack: the fit call raises, naming the shape it needed.
        model = replace(satexp, start_hint=lambda x, y: np.array([1.0, 2.0, 3.0]))
        Y = np.tile(satexp_grid.y, (2, 1))
        with pytest.raises(ValueError, match=r"start hint must return shape \(2, 3\), got \(3,\)"):
            fit_methods(model, satexp_grid.x, Y, ("ql",))

    @pytest.mark.parametrize("x", [np.full(6, 300.0), np.array([0.0, 500.0, 1000.0])],
                             ids=["no spread", "three points"])
    def test_satexp_hint_falls_back_for_a_degenerate_covariate(self, satexp, x):
        # No separable fit is tried: every row gets the heuristic, alone or stacked.
        Y = np.array([np.linspace(1.0, 2.0, x.size), np.linspace(5.0, 3.0, x.size)])
        hints = satexp.start_hint(x, Y)
        np.testing.assert_array_equal(hints[:, 0], 1.05 * Y.max(axis=1))
        np.testing.assert_array_equal(hints[:, 2], np.ptp(x) or 1.0)
        for y, hint in zip(Y, hints):
            np.testing.assert_array_equal(satexp.start_hint(x, y), hint)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_exponential_hint_fallback_takes_the_majority_sign(self, expo, sign):
        # Magnitudes that rise have no decay to fit: the hint falls back to
        # the largest |y| with the majority's sign, and the span of x.
        x = np.linspace(0.0, 10.0, 6)
        y = sign * np.array([1.0, 2.0, 3.0, 4.0, 5.0, -6.0])
        np.testing.assert_array_equal(expo.start_hint(x, y), [sign * 6.0, 10.0])

    @pytest.mark.parametrize("theta1", [2.0, -2.0])
    def test_exponential_hint_in_auto_fit(self, expo, theta1):
        # Decaying responses of either sign give a log-linear fit to |y|,
        # and theta1 takes the responses' sign.
        theta = np.array([theta1, 3.0])
        x = np.linspace(0.0, 10.0, 12)
        y = np.asarray(expo.eval(x, theta))
        np.testing.assert_allclose(expo.start_hint(x, y), theta, rtol=1e-12)
        fits = fit_methods(expo, x, y[None, :], ("ml", "ql", "wls"), FitOptions(start="auto"))
        for batch in fits.values():
            assert batch.converged[0]
            np.testing.assert_allclose(batch.theta_hat[0], theta, rtol=1e-8)
