"""Design bundle: J rows, leverages, curvature weights."""

import numpy as np
import pytest

from propfit.exceptions import DerivativeNoiseWarning, SingularError, ZeroMeanError
from propfit.jacobian import build_jacobian_bundle
from propfit.models import Dataset, ModelFunction
from conftest import PAPER_ALPHA


class TestClosedForms:
    def test_constant_model_bundle(self, const):
        # Closed form: J_i = 1/theta, JtJ = n/theta^2, w1 = 1/n, w2 = 0.
        data = Dataset(np.arange(4.0), np.ones(4))
        b = build_jacobian_bundle(const, data, np.array([2.0]))
        np.testing.assert_allclose(b.J, np.full((4, 1), 0.5), rtol=1e-15)
        np.testing.assert_allclose(b.JtJ, [[1.0]], rtol=1e-15)
        np.testing.assert_allclose(b.w1, np.full(4, 0.25), rtol=1e-14)
        np.testing.assert_array_equal(b.w2, np.zeros(4))

    def test_exponential_rows_match_hand_derivation(self, expo):
        # J_i = [1/theta1, x_i/theta2^2] for f = theta1 exp(-x/theta2).
        theta = np.array([2.0, 3.0])
        x = np.array([1.0, 2.0, 4.0])
        data = Dataset(x, np.asarray(expo.eval(x, theta)))
        b = build_jacobian_bundle(expo, data, theta)
        np.testing.assert_allclose(b.J[:, 0], np.full(3, 0.5), rtol=1e-13)
        np.testing.assert_allclose(b.J[:, 1], x / 9.0, rtol=1e-13)

    def test_exponential_rows_match_fd(self, expo):
        theta = np.array([2.0, 3.0])
        x = np.array([1.0, 2.0, 4.0])
        data = Dataset(x, np.asarray(expo.eval(x, theta)))
        b = build_jacobian_bundle(expo, data, theta)
        h = 1e-6
        for j in range(2):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            fd = (np.asarray(expo.eval(x, tp)) - np.asarray(expo.eval(x, tm))) / (2 * h)
            np.testing.assert_allclose(b.J[:, j], fd / np.asarray(expo.eval(x, theta)),
                                       rtol=1e-7)


class TestInvariants:
    def test_hat_trace_across_models(self, const, expo, satexp, satexp_grid):
        cases = [
            (const, Dataset(np.arange(5.0), np.ones(5)), np.array([3.0])),
            (expo, Dataset(np.linspace(0.5, 6, 9),
                           np.asarray(expo.eval(np.linspace(0.5, 6, 9), np.array([2.0, 3.0])))),
             np.array([2.0, 3.0])),
            (satexp, satexp_grid, PAPER_ALPHA),
        ]
        for model, data, theta in cases:
            b = build_jacobian_bundle(model, data, theta)
            assert abs(b.w1.sum() - model.p) < 1e-10

    def test_hat_trace_random_designs(self, expo):
        rng = np.random.default_rng(99)
        for _ in range(25):
            n = int(rng.integers(4, 20))
            x = np.sort(rng.uniform(0.2, 9.0, n))
            theta = np.array([rng.uniform(0.5, 4.0), rng.uniform(1.0, 5.0)])
            data = Dataset(x, np.asarray(expo.eval(x, theta)))
            b = build_jacobian_bundle(expo, data, theta)
            assert abs(b.w1.sum() - 2) < 1e-10
            assert np.all(b.w1 >= -1e-12)
            assert np.all(b.w1 <= 1.0 + 1e-12)

    def test_scale_parameter_gives_first_column_one_over_theta1(self, satexp, satexp_grid):
        b = build_jacobian_bundle(satexp, satexp_grid, PAPER_ALPHA)
        np.testing.assert_allclose(b.J[:, 0], np.full(satexp_grid.n, 1.0 / PAPER_ALPHA[0]),
                                   rtol=1e-12)


class TestErrors:
    def test_zero_mean_raises(self, const):
        data = Dataset(np.arange(4.0), np.ones(4))
        with pytest.raises(ZeroMeanError):
            build_jacobian_bundle(const, data, np.array([0.0]))

    def test_needs_more_observations_than_parameters(self, satexp):
        data = Dataset(np.arange(3.0), np.ones(3))
        with pytest.raises(ValueError):
            build_jacobian_bundle(satexp, data, PAPER_ALPHA)

    def test_singular_design_raises(self):
        # Two parameters multiplying the same shape: J columns collinear.
        model = ModelFunction(
            name="degenerate", p=2, param_names=("a", "b"),
            eval_fn=lambda x, t: (t[..., 0, None] + t[..., 1, None]) * np.exp(-x),
        )
        x = np.linspace(0.0, 2.0, 6)
        data = Dataset(x, (2.0) * np.exp(-x))
        with pytest.raises(SingularError):
            build_jacobian_bundle(model, data, np.array([1.0, 1.0]))

    def test_doubly_fd_hessian_warns(self):
        model = ModelFunction(name="fd_only", p=1, param_names=("a",),
                              eval_fn=lambda x, t: t[..., 0, None] * np.exp(-x))
        x = np.linspace(0.0, 2.0, 5)
        data = Dataset(x, 3.0 * np.exp(-x))
        with pytest.warns(DerivativeNoiseWarning):
            build_jacobian_bundle(model, data, np.array([3.0]))
