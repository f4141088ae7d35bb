"""Stacked fits and intersections: every row as if solved alone."""

import functools
import re
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from propfit import _newton, equivalent_dose, estimators
from propfit.equivalent_dose import (
    MODE_COMMON_SIGMA,
    MODE_DEFAULT,
    MODE_SEPARATE,
    PartialBleachModel,
    beta1_from_gamma,
    dose_derivatives_batch,
    fit_two_curves,
    fit_two_curves_methods,
    partial_bleach_model,
    resolve_modes,
    solve_gamma,
    solve_gamma_batch,
)
from propfit.estimators import (
    METHODS,
    FitOptions,
    equation_residual,
    fit,
    fit_methods,
    scale_divisor,
)
from propfit.exceptions import (
    DomainError,
    MultipleRootWarning,
    NoBracketError,
    NonFiniteError,
    SingularError,
    TangencyError,
    ZeroMeanError,
    ZeroResponseError,
)
from propfit.jacobian import RCOND_MIN, build_jacobian_bundle, build_jacobian_bundles
from propfit.models import (
    FAULT_DOMAIN,
    FAULT_EQUATION,
    FAULT_GRADIENT,
    FAULT_HESSIAN,
    FAULT_SINGULAR,
    Array,
    Dataset,
    ModelFunction,
    fault_error,
)
from propfit.simulation import (
    DEFAULT_BLEACHED_DOSES,
    DEFAULT_UNBLEACHED_DOSES,
    _draw_replicate,
    _first_order_starts,
    _run_rows,
    default_partial_bleach_design,
)
from conftest import APART_BETA, PAPER_ALPHA, curve_gap, relative_scale, stacked_model

X = np.linspace(0.0, 1000.0, 16)


def count_solves(monkeypatch) -> list:
    """Records, for every solver call from now on, its rows' equation indices."""
    calls, solve = [], estimators.solve

    def counted(equations, data, theta0, k, **kwargs):
        calls.append(np.array(k))
        return solve(equations, data, theta0, k, **kwargs)
    monkeypatch.setattr(estimators, "solve", counted)
    return calls


def noisy_stack(model, x, theta, sigma, rows, seed):
    rng = np.random.default_rng(seed)
    f = np.asarray(model.eval(x, theta))
    return f * (1.0 + sigma * rng.standard_normal((rows, x.size)))


def assert_joined(batch, ones, sizes, rtol=0.0):
    """``batch``, one method's separate fits of curves of ``sizes``
    observations whose own one-curve batches are ``ones``, is their join:
    the first error in curve order and, where a curve failed, NaN numbers
    with 0 iterations, not converged; elsewhere the parameters in curve
    order, each curve's scale and their pool, the larger iterations,
    residual norm and tolerance, and converged where every curve is.
    ``rtol`` allows a padded curve's rounding; the residual norm, rounding
    noise there, then only meets the tolerance."""
    errors = [next((e for e in errs if e is not None), None)
              for errs in zip(*(b.errors for b in ones))]
    assert ([(type(e), str(e)) for e in batch.errors]
            == [(type(e), str(e)) for e in errors])
    failed = np.array([e is not None for e in errors], dtype=bool)
    for name in ("theta_hat", "sigma_hats", "sigma_hat", "residual_norm", "tolerance"):
        assert np.isnan(getattr(batch, name)[failed]).all(), name
    assert not batch.iterations[failed].any() and not batch.converged[failed].any()
    sigma_hats = np.stack([b.sigma_hat for b in ones], axis=1)
    dfs = scale_divisor(batch.method, np.array(sizes), ones[0].theta_hat.shape[1])
    want = {"theta_hat": np.concatenate([b.theta_hat for b in ones], axis=1),
            "sigma_hats": sigma_hats,
            "sigma_hat": np.sqrt(np.sum(dfs * np.square(sigma_hats), axis=1) / dfs.sum()),
            "tolerance": np.max([b.tolerance for b in ones], axis=0),
            "residual_norm": np.max([b.residual_norm for b in ones], axis=0),
            "iterations": np.max([b.iterations for b in ones], axis=0),
            "converged": np.all([b.converged for b in ones], axis=0)}
    done = ~failed & batch.converged
    assert np.all(batch.residual_norm[done] <= batch.tolerance[done])
    for name, value in want.items():
        got = getattr(batch, name)[~failed]
        if rtol and name == "residual_norm":
            continue
        if rtol and got.dtype.kind == "f":
            np.testing.assert_allclose(got, value[~failed], rtol=rtol, atol=0.0, err_msg=name)
        else:
            np.testing.assert_array_equal(got, value[~failed], err_msg=name)


def assert_rows_equal(batch, r, single):
    np.testing.assert_array_equal(batch.theta_hat[r], single.theta_hat)
    assert batch.sigma_hat[r] == single.sigma_hat
    assert batch.iterations[r] == single.iterations
    assert batch.converged[r] == single.converged
    assert batch.residual_norm[r] == single.residual_norm
    assert batch.tolerance[r] == single.tolerance


class TestFitBatch:
    @pytest.mark.parametrize("method", ["ml", "ql", "wls", "dwls"])
    @pytest.mark.parametrize("start", ["truth", "auto"])
    def test_rows_are_bit_identical_to_single_fits(self, satexp, method, start):
        Y = noisy_stack(satexp, X, PAPER_ALPHA, 0.06, rows=9, seed=21)
        opts = FitOptions(start=PAPER_ALPHA if start == "truth" else "auto")
        batch = fit_methods(satexp, X, Y, (method,), opts)[method]
        part = fit_methods(satexp, X, Y[3:7], (method,), opts)[method]
        for r, y in enumerate(Y):
            assert_rows_equal(batch, r, fit(satexp, Dataset(X, y), method, opts))
        for r in range(4):
            assert_rows_equal(part, r, batch.result(3 + r))

    @pytest.mark.parametrize("mode", [MODE_SEPARATE, MODE_COMMON_SIGMA])
    @pytest.mark.parametrize("start", ["truth", "auto"])
    def test_two_curve_rows_match_single_fits(self, mode, start):
        design = default_partial_bleach_design()
        pb, theta0 = design.model, design.theta0
        Y1 = noisy_stack(pb.curve1, DEFAULT_UNBLEACHED_DOSES, theta0[:3], 0.03, 5, seed=22)
        Y2 = noisy_stack(pb.curve2, DEFAULT_BLEACHED_DOSES, theta0[3:], 0.03, 5, seed=23)
        opts = FitOptions(start=theta0 if start == "truth" else "auto")
        batch = fit_two_curves_methods(pb, DEFAULT_UNBLEACHED_DOSES, Y1, DEFAULT_BLEACHED_DOSES,
                                       Y2, ("ml",), mode, opts)["ml"]
        for r in range(5):
            one = fit_two_curves(pb, Dataset(DEFAULT_UNBLEACHED_DOSES, Y1[r]),
                                 Dataset(DEFAULT_BLEACHED_DOSES, Y2[r]), "ml", mode, opts)
            np.testing.assert_array_equal(batch.theta_hat[r], one.theta_hat)
            assert batch.iterations[r] == one.iterations
            assert tuple(batch.sigma_hats[r]) == one.sigma_hats

    def test_one_curve_fits_are_separate_with_their_one_scale(self, satexp):
        Y = noisy_stack(satexp, X, PAPER_ALPHA, 0.03, rows=3, seed=24)
        batches = fit_methods(satexp, X, Y, METHODS)
        for m, batch in batches.items():
            assert batch.mode == MODE_SEPARATE
            np.testing.assert_array_equal(batch.sigma_hats, batch.sigma_hat[:, None])
            one = fit(satexp, Dataset(X, Y[0]), m)
            assert one.mode == MODE_SEPARATE and one.sigma_hats == (one.sigma_hat,)

    def test_result_is_the_batch_row_in_python_scalars(self, satexp):
        Y = noisy_stack(satexp, X, PAPER_ALPHA, 0.03, rows=3, seed=25)
        pb, _, Y1, Y2 = two_curve_data(0.03, rows=3, seed=26)
        stacks = [fit_methods(satexp, X, Y, METHODS)] + [
            fit_two_curves_methods(pb, DEFAULT_UNBLEACHED_DOSES, Y1, DEFAULT_BLEACHED_DOSES, Y2,
                                   METHODS, mode) for mode in (MODE_SEPARATE, MODE_COMMON_SIGMA)]
        kinds = {"iterations": int, "converged": bool}
        for batches in stacks:
            for batch in batches.values():
                for r in range(3):
                    res = batch.result(r)
                    assert (res.method, res.mode) == (batch.method, batch.mode)
                    assert type(res.theta_hat) is np.ndarray
                    assert not np.shares_memory(res.theta_hat, batch.theta_hat)
                    np.testing.assert_array_equal(res.theta_hat, batch.theta_hat[r])
                    assert all(type(v) is float for v in res.sigma_hats)
                    assert res.sigma_hats == tuple(batch.sigma_hats[r])
                    for name in ("sigma_hat", "iterations", "converged", "residual_norm",
                                 "tolerance"):
                        value = getattr(res, name)
                        assert type(value) is kinds.get(name, float)
                        assert value == getattr(batch, name)[r]
        assert [batches["ml"].sigma_hats.shape for batches in stacks] == [(3, 1), (3, 2), (3, 1)]


class TestFitMethods:
    def test_rows_match_one_method_fits_from_one_start(self, satexp, monkeypatch):
        Y = noisy_stack(satexp, X, PAPER_ALPHA, 0.03, rows=5, seed=27)
        alone = {m: fit_methods(satexp, X, Y, (m,))[m] for m in METHODS}
        calls = count_solves(monkeypatch)
        together = fit_methods(satexp, X, Y, METHODS)
        # One solve for every method's rows, each from the model's hint.
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], np.repeat(np.arange(len(METHODS)), len(Y)))
        for m in METHODS:
            for r in range(len(Y)):
                assert_rows_equal(together[m], r, alone[m].result(r))

    def test_model_without_hint_starts_at_ones(self, monkeypatch):
        # A positive line with no start hint: "auto" starts every method at
        # ones, so each fit, its iterations included, is the one from that start.
        model = ModelFunction(
            name="line", p=2, param_names=("t0", "t1"),
            eval_fn=lambda x, t: t[..., 0, None] + t[..., 1, None] * x,
            grad_fn=lambda x, t: np.stack(np.broadcast_arrays(
                np.ones(t.shape[:-1] + x.shape), x), axis=-1),
            hess_fn=lambda x, t: np.zeros(t.shape[:-1] + (x.size, 2, 2)))
        x, theta = np.linspace(0.0, 10.0, 12), np.array([5.0, 2.0])
        Y = noisy_stack(model, x, theta, 0.03, rows=4, seed=33)
        calls = count_solves(monkeypatch)
        auto = fit_methods(model, x, Y, METHODS)
        assert len(calls) == 1
        ones = fit_methods(model, x, Y, METHODS, FitOptions(start=np.ones(2)))
        for m in METHODS:
            assert auto[m].converged.all() and auto[m].errors == (None,) * 4
            np.testing.assert_allclose(auto[m].theta_hat, np.tile(theta, (4, 1)), rtol=0.1)
            for r in range(len(Y)):
                assert_rows_equal(auto[m], r, ones[m].result(r))

    def test_misshapen_start_raises_for_the_call(self, satexp):
        Y = noisy_stack(satexp, X, PAPER_ALPHA, 0.03, rows=2, seed=28)
        with pytest.raises(ValueError, match=r"theta must have shape \(3,\)"):
            fit_methods(satexp, X, Y, METHODS, FitOptions(start=PAPER_ALPHA[:2]))

    @pytest.mark.parametrize("mode", [MODE_DEFAULT, MODE_SEPARATE, MODE_COMMON_SIGMA])
    @pytest.mark.parametrize("start", ["truth", "auto"])
    def test_two_curve_rows_match_one_method_fits(self, mode, start, monkeypatch):
        design = default_partial_bleach_design()
        pb, theta0 = design.model, design.theta0
        Y1 = noisy_stack(pb.curve1, DEFAULT_UNBLEACHED_DOSES, theta0[:3], 0.03, 4, seed=29)
        Y2 = noisy_stack(pb.curve2, DEFAULT_BLEACHED_DOSES, theta0[3:], 0.03, 4, seed=30)
        opts = FitOptions(start=theta0 if start == "truth" else "auto")
        args = (pb, DEFAULT_UNBLEACHED_DOSES, Y1, DEFAULT_BLEACHED_DOSES, Y2)
        modes = resolve_modes(mode, METHODS)
        alone = {m: fit_two_curves_methods(*args, (m,), modes[m], opts)[m] for m in METHODS}
        calls = count_solves(monkeypatch)
        together = fit_two_curves_methods(*args, METHODS, mode, opts)
        # One solve fits every method on both curves, common-sigma ones as row pairs.
        assert len(calls) == 1
        for m in METHODS:
            assert together[m].mode == modes[m]
            np.testing.assert_array_equal(together[m].theta_hat, alone[m].theta_hat)
            np.testing.assert_array_equal(together[m].sigma_hats, alone[m].sigma_hats)
            np.testing.assert_array_equal(together[m].iterations, alone[m].iterations)
            assert together[m].errors == (None,) * 4


class TestFailingRows:
    def test_domain_error_fails_its_row_only(self, satexp):
        Y = noisy_stack(satexp, X, PAPER_ALPHA, 0.02, rows=4, seed=24)
        starts = np.tile(PAPER_ALPHA, (4, 1))
        starts[2, 2] = 0.0  # alpha3 = 0 is outside the model's domain
        batch = fit_methods(satexp, X, Y, ("ql",), FitOptions(start=starts))["ql"]
        assert np.all(np.isnan(batch.theta_hat[2])) and not batch.converged[2]
        assert batch.converged[[0, 1, 3]].all()
        message = "model 'saturating_exponential' is undefined at the requested point"
        assert isinstance(batch.errors[2], DomainError)
        assert str(batch.errors[2]) == message
        with pytest.raises(DomainError, match=message):
            fit(satexp, Dataset(X, Y[2]), "ql", FitOptions(start=starts[2]))
        with pytest.raises(DomainError, match=message):
            batch.result(2)

    def test_two_curve_result_raises_its_row_error(self):
        design = default_partial_bleach_design()
        pb, theta0 = design.model, design.theta0
        Y1 = noisy_stack(pb.curve1, DEFAULT_UNBLEACHED_DOSES, theta0[:3], 0.02, 2, seed=34)
        Y2 = noisy_stack(pb.curve2, DEFAULT_BLEACHED_DOSES, theta0[3:], 0.02, 2, seed=35)
        Y2[1, 0] = -Y2[1, 0]
        batch = fit_two_curves_methods(pb, DEFAULT_UNBLEACHED_DOSES, Y1, DEFAULT_BLEACHED_DOSES,
                                       Y2, ("dwls",))["dwls"]
        assert batch.result(0).converged
        assert isinstance(batch.errors[1], ZeroResponseError)
        with pytest.raises(ZeroResponseError, match=r"requires all y > 0"):
            batch.result(1)

    def test_singular_scoring_matrix_fails_its_row_only(self):
        # Two parameters scaling one shape: their gradient columns coincide,
        # so only a row that starts at an exact root avoids a step.
        model = ModelFunction(
            name="collinear", p=2, param_names=("a", "b"),
            eval_fn=lambda x, t: (t[..., 0, None] + t[..., 1, None]) * np.exp(-x),
            grad_fn=lambda x, t: np.stack([np.exp(-x)] * 2, axis=-1)
            * np.ones(t.shape[:-1] + (1, 1)),
            hess_fn=lambda x, t: np.zeros(t.shape[:-1] + (x.size, 2, 2)))
        x = np.linspace(0.0, 2.0, 6)
        theta = np.array([1.0, 1.0])
        exact = np.asarray(model.eval(x, theta))
        Y = np.stack([exact, exact * (1.0 + 0.01 * np.arange(6)), exact])
        batch = fit_methods(model, x, Y, ("dwls",), FitOptions(start=theta))["dwls"]
        assert batch.converged[[0, 2]].all()
        np.testing.assert_array_equal(batch.theta_hat[0], theta)
        assert isinstance(batch.errors[1], SingularError)
        assert np.all(np.isnan(batch.theta_hat[1]))
        with pytest.raises(SingularError, match="scoring matrix is singular at the iterate"):
            fit(model, Dataset(x, Y[1]), "dwls", FitOptions(start=theta))

    def test_singular_scoring_matrix_fails_its_pair_only(self, expo, monkeypatch):
        # Curve 1 scales one shape by two parameters (as above): the common-sigma
        # ML pair whose curve 1 is off its root fails both rows, curve 2's
        # included, and no other row.
        collinear = ModelFunction(
            name="collinear", p=2, param_names=("a", "b"),
            eval_fn=lambda x, t: (t[..., 0, None] + t[..., 1, None]) * np.exp(-x),
            grad_fn=lambda x, t: np.stack([np.exp(-x)] * 2, axis=-1)
            * np.ones(t.shape[:-1] + (1, 1)),
            hess_fn=lambda x, t: np.zeros(t.shape[:-1] + (x.size, 2, 2)))
        x1, x2 = np.linspace(0.0, 2.0, 6), np.linspace(0.0, 4.0, 7)
        theta = np.array([1.0, 1.0, 5.0, 2.0])
        exact1 = np.asarray(collinear.eval(x1, theta[:2]))
        Y1 = np.stack([exact1, exact1 * (1.0 + 0.01 * np.arange(6)), exact1])
        Y2 = np.tile(np.asarray(expo.eval(x2, theta[2:])), (3, 1))
        solved, solve = [], estimators.solve

        def kept(*args, **kwargs):
            solved.append(solve(*args, **kwargs))
            return solved[-1]
        monkeypatch.setattr(estimators, "solve", kept)
        fits = fit_two_curves_methods(PartialBleachModel(collinear, expo), x1, Y1, x2, Y2,
                                      ("ml",), MODE_COMMON_SIGMA, FitOptions(start=theta))["ml"]
        # The stack's rows are the pairs (curve 1, curve 2) of replicates 0, 1, 2;
        # the solver codes the singular row, curve 1's, and not its mate.
        assert solved[0].fault.tolist() == [0, 0, FAULT_SINGULAR, 0, 0, 0]
        assert isinstance(fits.errors[1], SingularError)
        assert str(fits.errors[1]) == "scoring matrix is singular at the iterate"
        assert np.isnan(fits.theta_hat[1]).all()
        assert fits.errors[0] is fits.errors[2] is None
        assert fits.converged[[0, 2]].all()
        np.testing.assert_array_equal(fits.theta_hat[[0, 2]], np.tile(theta, (2, 1)))

    def test_non_finite_contraction_fails_its_row_only(self, satexp):
        # A NaN contracted Hessian wherever alpha1 > 1.5 x its paper value:
        # only the row fitted near twice that value meets it.
        model = replace(satexp, name="nan_contraction", whess_fn=lambda x, t, c: np.where(
            (t[..., 0] > 1.5 * PAPER_ALPHA[0])[..., None, None], np.nan,
            satexp.whess_fn(x, t, c)))
        truths = PAPER_ALPHA * np.array([[1.0, 1.0, 1.0], [2.0, 1.0, 1.0], [1.2, 1.0, 1.0]])
        rng = np.random.default_rng(36)
        Y = np.stack([np.asarray(satexp.eval(X, t)) * (1.0 + 0.02 * rng.standard_normal(X.size))
                      for t in truths])
        starts = 1.1 * truths
        message = "Hessian of model 'nan_contraction' is non-finite"
        for method in METHODS:
            batch = fit_methods(model, X, Y, (method,), FitOptions(start=starts))[method]
            assert isinstance(batch.errors[1], NonFiniteError)
            assert str(batch.errors[1]) == message
            assert np.all(np.isnan(batch.theta_hat[1]))
            with pytest.raises(NonFiniteError, match=message):
                fit(model, Dataset(X, Y[1]), method, FitOptions(start=starts[1]))
            for r in (0, 2):
                assert batch.converged[r]
                assert_rows_equal(batch, r, fit(satexp, Dataset(X, Y[r]), method,
                                                FitOptions(start=starts[r])))

    def test_non_finite_hessian_fails_its_row_only(self, expo):
        # NaN Hessian wherever theta1 > 4.5: only the row fitted near 5 meets it.
        model = replace(expo, name="nan_hessian", hess_fn=lambda x, t: np.where(
            (t[..., 0] > 4.5)[..., None, None, None], np.nan, expo.hess_fn(x, t)))
        x = np.linspace(0.0, 4.0, 8)
        truths = np.array([[2.0, 1.5], [5.0, 1.5], [2.5, 1.5], [1.5, 1.5]])
        rng = np.random.default_rng(33)
        Y = np.stack([np.asarray(expo.eval(x, t)) * (1.0 + 0.02 * rng.standard_normal(x.size))
                      for t in truths])
        starts = 1.1 * truths
        for method in ("ml", "ql"):
            batch = fit_methods(model, x, Y, (method,), FitOptions(start=starts))[method]
            message = "Hessian of model 'nan_hessian' is non-finite"
            assert isinstance(batch.errors[1], NonFiniteError)
            assert str(batch.errors[1]) == message
            assert np.all(np.isnan(batch.theta_hat[1]))
            with pytest.raises(NonFiniteError, match=message):
                fit(model, Dataset(x, Y[1]), method, FitOptions(start=starts[1]))
            for r in (0, 2, 3):
                assert batch.converged[r]
                assert_rows_equal(batch, r, fit(model, Dataset(x, Y[r]), method,
                                                FitOptions(start=starts[r])))

    def test_non_finite_equation_at_the_start_fails_its_row_only(self, satexp):
        # At a1 = 1e-300 the means underflow: ML's, QL's and WLS's weights,
        # which divide by f, overflow at the start, while DWLS's divide by y
        # and its scoring matrix is singular there. Row 1 fails so alone, in
        # a stack whose other rows keep their bits and as curve 1 of a
        # common-sigma ML pair.
        pb, theta0, Y1, Y2 = two_curve_data(0.02, rows=3, seed=57)
        x1, x2 = DEFAULT_UNBLEACHED_DOSES, DEFAULT_BLEACHED_DOSES
        starts = np.tile(theta0, (3, 1))
        starts[1, 0] = 1e-300
        failures = dict.fromkeys(("ml", "ql", "wls"), (
            NonFiniteError, "estimating equation is non-finite at the starting point"))
        failures["dwls"] = (SingularError, "scoring matrix is singular at the iterate")
        opts = [FitOptions(start=start[:3]) for start in starts]
        together = fit_methods(pb.curve1, x1, Y1, METHODS, FitOptions(start=starts[:, :3]))
        for m, (kind, message) in failures.items():
            with pytest.raises(kind, match=f"^{re.escape(message)}$"):
                fit(pb.curve1, Dataset(x1, Y1[1]), m, opts[1])
            assert type(together[m].errors[1]) is kind and str(together[m].errors[1]) == message
            assert np.isnan(together[m].theta_hat[1]).all()
            for r in (0, 2):
                assert_rows_equal(together[m], r, fit(pb.curve1, Dataset(x1, Y1[r]), m, opts[r]))
        pair = fit_two_curves_methods(pb, x1, Y1, x2, Y2, ("ml",), MODE_COMMON_SIGMA,
                                      FitOptions(start=starts))["ml"]
        kind, message = failures["ml"]
        assert type(pair.errors[1]) is kind and str(pair.errors[1]) == message
        assert np.isnan(pair.theta_hat[1]).all() and not pair.converged[1]
        rest = fit_two_curves_methods(pb, x1, Y1[[0, 2]], x2, Y2[[0, 2]], ("ml",),
                                      MODE_COMMON_SIGMA, FitOptions(start=theta0))["ml"]
        for name in ("theta_hat", "sigma_hats", "iterations", "converged", "residual_norm",
                     "tolerance"):
            np.testing.assert_array_equal(getattr(pair, name)[[0, 2]], getattr(rest, name))

    def test_too_few_observations_fail_every_row(self, satexp):
        # n <= p fails every row, before a nonpositive response would.
        Y = noisy_stack(satexp, X[:3], PAPER_ALPHA, 0.02, rows=2, seed=26)
        Y[1, 0] = -1.0
        for method in ("ql", "dwls"):
            batch = fit_methods(satexp, X[:3], Y, (method,), FitOptions(start=PAPER_ALPHA))[method]
            assert np.all(np.isnan(batch.theta_hat)) and not batch.converged.any()
            assert [type(e) for e in batch.errors] == [ValueError, ValueError]
            assert {str(e) for e in batch.errors} == {"need n > p observations, got n=3, p=3"}

    def test_nonpositive_response_fails_its_dwls_row_only(self, satexp):
        Y = noisy_stack(satexp, X, PAPER_ALPHA, 0.02, rows=3, seed=25)
        Y[0, 4] = -1.0
        batch = fit_methods(satexp, X, Y, ("dwls",), FitOptions(start=PAPER_ALPHA))["dwls"]
        assert isinstance(batch.errors[0], ZeroResponseError)
        assert batch.converged[1:].all()
        with pytest.raises(ZeroResponseError,
                           match="data-weighted least squares requires all y > 0"):
            fit(satexp, Dataset(X, Y[0]), "dwls", FitOptions(start=PAPER_ALPHA))


def assert_batches_equal(batch, alone):
    for name in ("theta_hat", "sigma_hat", "iterations", "converged", "residual_norm",
                 "tolerance"):
        np.testing.assert_array_equal(getattr(batch, name), getattr(alone, name))
    assert ([(type(e), str(e)) for e in batch.errors]
            == [(type(e), str(e)) for e in alone.errors])


def assert_mixed_stack_rows(model, x, Y, opts):
    """Every method's rows of one ``fit_methods(..., METHODS)`` stack equal
    its one-method fits; returns the stack's batches."""
    together = fit_methods(model, x, Y, METHODS, opts)
    assert list(together) == list(METHODS)
    for m in METHODS:
        assert_batches_equal(together[m], fit_methods(model, x, Y, (m,), opts)[m])
    return together


class TestMixedStacks:
    """The batch contract on stacks that hold every method's rows."""

    @pytest.mark.parametrize("start", ["truth", "auto"])
    def test_nonpositive_response_fails_dwls_only(self, satexp, start):
        Y = noisy_stack(satexp, X, PAPER_ALPHA, 0.02, rows=3, seed=25)
        Y[1, 4] = -1.0
        opts = FitOptions(start=PAPER_ALPHA if start == "truth" else "auto")
        together = assert_mixed_stack_rows(satexp, X, Y, opts)
        assert isinstance(together["dwls"].errors[1], ZeroResponseError)
        assert not any(isinstance(together[m].errors[1], ZeroResponseError)
                       for m in ("ml", "ql", "wls"))
        for m in METHODS:
            assert together[m].converged[[0, 2]].all()

    def test_separable_and_fallback_starts_fit_as_alone(self, satexp):
        # Rows 0 and 3 start from the separable least-squares hint; row 1 (a
        # non-positive y) and row 2 (falling, so no grid point has A > 0 > B)
        # from the heuristic one, whose a3 is the dose span.
        Y = noisy_stack(satexp, X, PAPER_ALPHA, 0.03, rows=4, seed=44)
        Y[1, 4] = -1.0
        Y[2] = Y[2, ::-1]
        hints = satexp.start_hint(X, Y)
        np.testing.assert_array_equal(hints[:, 2] == np.ptp(X), [False, True, True, False])
        opts = FitOptions(start="auto")
        together = fit_methods(satexp, X, Y, METHODS, opts)
        for r, y in enumerate(Y):
            np.testing.assert_array_equal(satexp.start_hint(X, y), hints[r])
            alone = fit_methods(satexp, X, y[None, :], METHODS, opts)
            for m in METHODS:
                assert repr(together[m].errors[r]) == repr(alone[m].errors[0])
                if alone[m].errors[0] is None:
                    assert_rows_equal(together[m], r, alone[m].result(0))

    def test_constant_covariate_curve_beside_a_separable_one(self, satexp):
        # Curve 2's covariate has no spread, so its rows start from the
        # heuristic hint; each curve still fits as it does alone.
        x2 = np.full(X.size, 400.0)
        curves = ((satexp, X, noisy_stack(satexp, X, PAPER_ALPHA, 0.03, 3, seed=45)),
                  (satexp, x2, noisy_stack(satexp, x2, PAPER_ALPHA, 0.03, 3, seed=46)))
        assert np.all(satexp.start_hint(x2, curves[1][2])[:, 2] == 1.0)
        stacked = estimators._fit_curves(curves, dict.fromkeys(METHODS, MODE_SEPARATE),
                                         FitOptions())
        alone = [fit_methods(*curve, METHODS) for curve in curves]
        for m in METHODS:
            assert_joined(stacked[m], [a[m] for a in alone], (X.size, x2.size))

    def test_fault_mid_solve(self, expo):
        # NaN Hessian wherever theta1 > 4.5: the row fitted near 5 fails
        # while solving, for the methods whose iterates get there.
        model = replace(expo, name="nan_hessian", hess_fn=lambda x, t: np.where(
            (t[..., 0] > 4.5)[..., None, None, None], np.nan, expo.hess_fn(x, t)))
        x = np.linspace(0.0, 4.0, 8)
        truths = np.array([[2.0, 1.5], [5.0, 1.5], [2.5, 1.5]])
        rng = np.random.default_rng(33)
        Y = np.stack([np.asarray(expo.eval(x, t)) * (1.0 + 0.02 * rng.standard_normal(x.size))
                      for t in truths])
        together = assert_mixed_stack_rows(model, x, Y, FitOptions(start=1.1 * truths))
        for m in ("ml", "ql"):
            assert isinstance(together[m].errors[1], NonFiniteError)
            assert together[m].converged[[0, 2]].all()

    def test_zero_mean_start_fails_only_methods_dividing_by_it(self, satexp):
        # alpha2 = 0 puts a zero mean at x = 0: ML, QL and WLS divide by the
        # mean and fail at that start, while DWLS moves off it and converges.
        Y = noisy_stack(satexp, X, PAPER_ALPHA, 0.02, rows=3, seed=34)
        starts = np.tile(PAPER_ALPHA, (3, 1))
        starts[1, 1] = 0.0
        together = assert_mixed_stack_rows(satexp, X, Y, FitOptions(start=starts))
        for m in ("ml", "ql", "wls"):
            assert isinstance(together[m].errors[1], ZeroMeanError)
        assert together["dwls"].converged.all()

    def test_fault_after_solve(self):
        # A line through the origin has a zero mean at x = 0: the methods
        # that divide by the mean fail at their start, while DWLS converges
        # and then fails, since its sigma estimate divides by the mean.
        model = ModelFunction(
            name="through_origin", p=1, param_names=("slope",),
            eval_fn=lambda x, t: t[..., :1] * x,
            grad_fn=lambda x, t: (x * np.ones(t.shape[:-1] + (1,)))[..., None],
            hess_fn=lambda x, t: np.zeros(t.shape[:-1] + (x.size, 1, 1)))
        x = np.arange(5.0)
        Y = np.stack([0.1 + 2.0 * x, 0.2 + 3.0 * x])
        together = assert_mixed_stack_rows(model, x, Y, FitOptions(start=np.array([1.0])))
        for m in METHODS:
            assert [type(e) for e in together[m].errors] == [ZeroMeanError] * 2
        with pytest.raises(ZeroMeanError, match="mean response is zero at an observation"):
            fit(model, Dataset(x, Y[0]), "dwls", FitOptions(start=np.array([1.0])))

    def test_too_few_observations(self, satexp, monkeypatch):
        Y = noisy_stack(satexp, X[:3], PAPER_ALPHA, 0.02, rows=2, seed=26)
        calls = count_solves(monkeypatch)
        together = assert_mixed_stack_rows(satexp, X[:3], Y, FitOptions())
        for m in METHODS:
            assert {str(e) for e in together[m].errors} == {
                "need n > p observations, got n=3, p=3"}
        # No start is solved, and every stack is empty.
        assert [c.size for c in calls] == [0] * (1 + len(METHODS))

    def test_no_methods(self, satexp):
        Y = noisy_stack(satexp, X, PAPER_ALPHA, 0.02, rows=2, seed=26)
        assert fit_methods(satexp, X, Y, ()) == {}

    def test_every_row_fails_before_solving(self, satexp, monkeypatch):
        # Non-finite starts fail every row before the solve: an empty stack.
        Y = noisy_stack(satexp, X, PAPER_ALPHA, 0.02, rows=3, seed=26)
        starts = np.tile(PAPER_ALPHA, (3, 1))
        starts[:, 1] = np.nan
        calls = count_solves(monkeypatch)
        together = assert_mixed_stack_rows(satexp, X, Y, FitOptions(start=starts))
        assert calls[0].size == 0
        for m in METHODS:
            assert [str(e) for e in together[m].errors] == [
                "parameter vector contains non-finite entries"] * 3
            assert np.isnan(together[m].theta_hat).all()


def two_curve_data(sigma, rows, seed):
    """The default design's curves and a stack of noisy dataset pairs."""
    design = default_partial_bleach_design()
    pb, theta0 = design.model, design.theta0
    Y1 = noisy_stack(pb.curve1, DEFAULT_UNBLEACHED_DOSES, theta0[:3], sigma, rows, seed)
    Y2 = noisy_stack(pb.curve2, DEFAULT_BLEACHED_DOSES, theta0[3:], sigma, rows, seed + 1)
    return pb, theta0, Y1, Y2


def same_callables(pb):
    """``pb`` with each curve's callables replaced by a wrapper of its own."""
    def wrapped(curve):
        return replace(curve, **{name: functools.wraps(fn)(lambda *a, _fn=fn: _fn(*a))
                                 for name in ("eval_fn", "grad_fn", "hess_fn", "dx_fn",
                                              "domain_guard")
                                 for fn in [getattr(curve, name)]})
    return replace(pb, curve1=wrapped(pb.curve1), curve2=wrapped(pb.curve2))


class TestTwoCurveStack:
    """Both curves' per-curve fits in one stack, curve 2 (13 points) padded to 16."""

    @pytest.mark.parametrize("start", ["truth", "auto"])
    def test_curve_rows_match_one_curve_fits(self, start):
        pb, theta0, Y1, Y2 = two_curve_data(0.06, rows=8, seed=41)
        Y1[2, 5] = -1.0  # fails DWLS on curve 1's row 2
        joint, starts = "auto", ["auto", "auto"]
        if start == "truth":
            joint = np.tile(theta0, (8, 1))
            joint[3, 1], joint[5, 5] = np.nan, 0.0  # fail curve 1's row 3 and curve 2's row 5
            starts = [joint[:, :3], joint[:, 3:]]
        curves = ((pb.curve1, DEFAULT_UNBLEACHED_DOSES, Y1),
                  (pb.curve2, DEFAULT_BLEACHED_DOSES, Y2))
        stacked = estimators._fit_curves(curves, dict.fromkeys(METHODS, MODE_SEPARATE),
                                         FitOptions(start=joint))
        alone = [fit_methods(*curve, METHODS, FitOptions(start=spec))
                 for curve, spec in zip(curves, starts)]
        for m in METHODS:
            # Curve 1 is the longest, so its bits are its own; curve 2's rows
            # are padded, so they agree to rounding.
            assert_joined(stacked[m], [a[m] for a in alone], (16, 13), rtol=1e-12)
            ok = np.array([e is None for e in stacked[m].errors], dtype=bool)
            np.testing.assert_array_equal(stacked[m].theta_hat[ok, :3], alone[0][m].theta_hat[ok])
            np.testing.assert_array_equal(stacked[m].sigma_hats[ok, 0], alone[0][m].sigma_hat[ok])
        assert isinstance(stacked["dwls"].errors[2], ZeroResponseError)
        if start == "truth":
            assert all(isinstance(stacked[m].errors[r], DomainError)
                       for r in (3, 5) for m in METHODS)

    @pytest.mark.parametrize("mode", [MODE_DEFAULT, MODE_COMMON_SIGMA])
    def test_curves_with_their_own_callables_give_the_same_bits(self, mode):
        pb, theta0, Y1, Y2 = two_curve_data(0.03, rows=5, seed=43)
        args = (DEFAULT_UNBLEACHED_DOSES, Y1, DEFAULT_BLEACHED_DOSES, Y2, METHODS, mode)
        shared = fit_two_curves_methods(pb, *args)
        own = fit_two_curves_methods(same_callables(pb), *args)
        for m in METHODS:
            for name in ("theta_hat", "sigma_hats", "iterations", "converged",
                         "residual_norm", "tolerance"):
                np.testing.assert_array_equal(getattr(own[m], name), getattr(shared[m], name))
            assert own[m].errors == shared[m].errors == (None,) * 5

    def test_solve_calls_no_hessian(self):
        # The solver takes sum c_i H_i from the curves' contraction and never
        # builds their per-observation Hessians.
        pb, theta0, Y1, Y2 = two_curve_data(0.06, rows=4, seed=71)
        calls = Counter()

        def counted(curve):
            def wrap(name, fn):
                def call(*args):
                    calls[name] += 1
                    return fn(*args)
                return call
            return replace(curve, **{name: wrap(name, getattr(curve, name))
                                     for name in ("hess_fn", "whess_fn")})
        counting = replace(pb, curve1=counted(pb.curve1), curve2=counted(pb.curve2))
        for mode in (MODE_DEFAULT, MODE_SEPARATE, MODE_COMMON_SIGMA):
            fits = fit_two_curves_methods(counting, DEFAULT_UNBLEACHED_DOSES, Y1,
                                          DEFAULT_BLEACHED_DOSES, Y2, METHODS, mode)
            assert all(fits[m].errors == (None,) * 4 for m in METHODS)
        assert calls["hess_fn"] == 0 and calls["whess_fn"] > 0

    def test_runs_that_stop_early_leave_the_rest_as_alone(self):
        # ML pairs, then QL, WLS and DWLS on every row of both curves (curve 2
        # padded). The WLS rows start at their own roots and stop in round 0,
        # so the runs after theirs move up in the stack while the others go on;
        # every run's rows still solve as they do alone.
        pb, theta0, Y1, Y2 = two_curve_data(0.06, rows=4, seed=73)
        equations = estimators._EQUATIONS
        data = estimators._stack(((pb.curve1, DEFAULT_UNBLEACHED_DOSES, Y1),
                                  (pb.curve2, DEFAULT_BLEACHED_DOSES, Y2)))
        start = np.repeat([theta0[:3], theta0[3:]], 4, axis=0)
        roots = estimators.solve(equations, data, start, [2] * 8).theta
        rows = np.concatenate([np.arange(8).reshape(2, 4).T.ravel(), np.tile(np.arange(8), 3)])
        k = np.repeat(np.arange(4), 8)
        start = np.concatenate([start[rows[:16]], roots, start])
        together = estimators.solve(equations, replace(data[rows], pairs=4), start, k)
        assert together.iterations[16:24].max() == 0 < np.delete(together.iterations,
                                                                   np.s_[16:24]).min()
        for run in range(4):
            part = slice(8 * run, 8 * run + 8)
            alone = estimators.solve(equations, replace(data[rows[part]], pairs=4 * (run == 0)),
                                     start[part], k[part])
            for name in ("theta", "iterations", "converged", "residual_norm", "tolerance"):
                np.testing.assert_array_equal(getattr(together, name)[part],
                                              getattr(alone, name), err_msg=name)
            assert together.fault[part].tolist() == alone.fault.tolist() == [0] * 8

    def test_fault_on_a_curve_two_row_names_its_model(self):
        pb, theta0, Y1, Y2 = two_curve_data(0.03, rows=3, seed=45)
        starts = np.tile(theta0, (3, 1))
        starts[1, 5] = 0.0  # beta3 = 0 is outside the bleached curve's domain
        fits = fit_two_curves_methods(pb, DEFAULT_UNBLEACHED_DOSES, Y1, DEFAULT_BLEACHED_DOSES,
                                      Y2, ("ql",), MODE_SEPARATE, FitOptions(start=starts))["ql"]
        assert isinstance(fits.errors[1], DomainError)
        assert str(fits.errors[1]) == (
            "model 'saturating_exponential_bleached' is undefined at the requested point")
        assert fits.errors[0] is fits.errors[2] is None

    def test_a_failed_curve_fails_its_whole_fit(self):
        # Curve 2 of row 1 starts at beta3 = 0, outside its domain, while
        # curve 1 of that row fits alone: the separate fit of row 1 fails as
        # a whole, and the other rows join their curves' own fits.
        pb, theta0, Y1, Y2 = two_curve_data(0.03, rows=3, seed=45)
        starts = np.tile(theta0, (3, 1))
        starts[1, 5] = 0.0
        curves = ((pb.curve1, DEFAULT_UNBLEACHED_DOSES, Y1),
                  (pb.curve2, DEFAULT_BLEACHED_DOSES, Y2))
        alone = [fit_methods(*curve, METHODS, FitOptions(start=part))
                 for curve, part in zip(curves, (starts[:, :3], starts[:, 3:]))]
        args = (pb, DEFAULT_UNBLEACHED_DOSES, Y1, DEFAULT_BLEACHED_DOSES, Y2)
        separate = fit_two_curves_methods(*args, METHODS, MODE_SEPARATE, FitOptions(start=starts))
        shared = ("ml", "ql", "wls")
        common = fit_two_curves_methods(*args, shared, MODE_COMMON_SIGMA, FitOptions(start=starts))
        for m, fits in [(m, separate[m]) for m in METHODS] + [(m, common[m]) for m in shared]:
            assert alone[0][m].converged[1] and alone[0][m].errors[1] is None
            assert isinstance(fits.errors[1], DomainError)
            for name in ("theta_hat", "sigma_hats", "sigma_hat", "residual_norm", "tolerance"):
                assert np.isnan(getattr(fits, name)[1]).all(), name
            assert fits.iterations[1] == 0 and not fits.converged[1]
            assert fits.converged[[0, 2]].all() and fits.errors[0] is fits.errors[2] is None
        for m in METHODS:
            assert_joined(separate[m], [a[m] for a in alone], (16, 13), rtol=1e-12)

    def test_a_fit_failed_before_the_solve_sends_no_later_curve(self, monkeypatch):
        # Curve 1's row 1 has a y <= 0, so its separate DWLS fit fails before
        # the solve, and curve 2's row 1 is not solved either: 4 rows, not 5.
        # A y <= 0 in curve 2 instead skips no curve-1 solve, whose error
        # would come first. Every field is the join of the curves' own fits.
        pb, theta0, *Ys = two_curve_data(0.03, rows=3, seed=48)
        x1, x2 = DEFAULT_UNBLEACHED_DOSES, DEFAULT_BLEACHED_DOSES
        opts = FitOptions(start=theta0)
        for c, sent in [(0, 4), (1, 5)]:
            Y1, Y2 = (Y.copy() for Y in Ys)
            (Y1, Y2)[c][1, 4] *= -1.0
            alone = [fit_methods(curve, x, Y, ("dwls",), FitOptions(start=part))["dwls"]
                     for curve, x, Y, part in [(pb.curve1, x1, Y1, theta0[:3]),
                                               (pb.curve2, x2, Y2, theta0[3:])]]
            rest = fit_two_curves_methods(pb, x1, Y1[[0, 2]], x2, Y2[[0, 2]], ("dwls",),
                                          MODE_SEPARATE, opts)["dwls"]
            with monkeypatch.context() as patched:
                calls = count_solves(patched)
                fits = fit_two_curves_methods(pb, x1, Y1, x2, Y2, ("dwls",), MODE_SEPARATE,
                                              opts)["dwls"]
            assert [len(k) for k in calls] == [sent]
            assert isinstance(fits.errors[1], ZeroResponseError)
            assert_joined(fits, alone, (x1.size, x2.size), rtol=1e-12)
            for name in ("theta_hat", "sigma_hats", "sigma_hat", "iterations", "converged",
                         "residual_norm", "tolerance"):
                np.testing.assert_array_equal(getattr(fits, name)[[0, 2]], getattr(rest, name))

    def test_curves_with_different_parameter_counts(self, satexp, expo):
        # A pair's rows share p, so curves that differ make no model.
        with pytest.raises(ValueError, match="one number of parameters, got 3 and 2"):
            PartialBleachModel(satexp, expo)

    @pytest.mark.parametrize("method", METHODS)
    def test_pads_add_nothing(self, satexp, method):
        # Rows of 13 points stacked with rows of 16: the padded rows' equation,
        # Jacobian, convergence bounds and objective (and its rounding level)
        # agree with the same rows alone.
        x = DEFAULT_BLEACHED_DOSES
        Y = noisy_stack(satexp, x, PAPER_ALPHA, 0.05, rows=4, seed=47)
        theta = PAPER_ALPHA * (1.0 + 0.01 * np.arange(1, 4))
        k = np.full(4, METHODS.index(method))
        equations = estimators._EQUATIONS
        alone = estimators._point(
            estimators._assign(equations, estimators._stack(((satexp, x, Y),)), k), [theta] * 4)
        longer = noisy_stack(satexp, X, PAPER_ALPHA, 0.05, rows=4, seed=48)
        data = estimators._stack(((satexp, x, Y), (satexp, X, longer)))
        assert data.live is not None and not data.live[:4, 13:].any()
        padded = estimators._point(
            estimators._assign(equations, data, np.repeat(k, 2))[np.arange(4)], [theta] * 4)
        for name in ("residual", "objective", "s2"):
            np.testing.assert_allclose(getattr(padded, name), getattr(alone, name), rtol=1e-13)
        np.testing.assert_allclose(padded.bounds(1e-8), alone.bounds(1e-8), rtol=1e-13)
        np.testing.assert_allclose(padded.rounding(), alone.rounding(), rtol=1e-13)
        np.testing.assert_allclose(padded.blocks()[0], alone.blocks()[0], rtol=1e-12)


class TestCommonSigmaPairs:
    """A common-sigma fit is one dataset of both curves' observations with one
    scale: the stacked model's fit, each curve's part carried by its row."""

    X1, X2 = DEFAULT_UNBLEACHED_DOSES, DEFAULT_BLEACHED_DOSES

    @pytest.mark.parametrize("method", ["ml", "ql", "wls"])
    @pytest.mark.parametrize("start", ["truth", "auto"])
    def test_rows_solve_the_stacked_model(self, method, start):
        pb, theta0, Y1, Y2 = two_curve_data(0.03, rows=5, seed=61)
        opts = FitOptions(start=theta0 if start == "truth" else "auto")
        fits = fit_two_curves_methods(pb, self.X1, Y1, self.X2, Y2, (method,),
                                      MODE_COMMON_SIGMA, opts)[method]
        assert fits.errors == (None,) * 5 and fits.converged.all()
        assert fits.sigma_hats.shape == (5, 1)
        joint, idx = stacked_model(pb, self.X1, self.X2)
        for r in range(5):
            data, theta = Dataset(idx, np.concatenate([Y1[r], Y2[r]])), fits.theta_hat[r]
            assert np.max(np.abs(equation_residual(method, joint, data, theta))) <= (
                fits.tolerance[r])
            sigma = relative_scale(joint, data, theta, method)
            np.testing.assert_allclose(fits.sigma_hats[r, 0], sigma, rtol=1e-14)

    def test_ml_pairs_take_the_stacked_fit_iterates(self):
        # From one start, the pair's Newton steps are the stacked model's, to rounding.
        pb, theta0, Y1, Y2 = two_curve_data(0.03, rows=5, seed=62)
        opts = FitOptions(start=theta0)
        pairs = fit_two_curves_methods(pb, self.X1, Y1, self.X2, Y2, ("ml",),
                                       MODE_COMMON_SIGMA, opts)["ml"]
        joint, idx = stacked_model(pb, self.X1, self.X2)
        stacked = fit_methods(joint, idx, np.concatenate([Y1, Y2], axis=1), ("ml",), opts)["ml"]
        np.testing.assert_allclose(pairs.theta_hat, stacked.theta_hat, rtol=1e-10)
        np.testing.assert_allclose(pairs.sigma_hats[:, 0], stacked.sigma_hat, rtol=1e-10)
        np.testing.assert_array_equal(pairs.iterations, stacked.iterations)
        np.testing.assert_array_equal(pairs.converged, stacked.converged)

    def test_a_curve_two_fault_fails_its_pair_only(self, monkeypatch):
        pb, theta0, Y1, Y2 = two_curve_data(0.03, rows=4, seed=63)
        starts = np.tile(theta0, (4, 1))
        starts[2, 5] = 0.0  # beta3 = 0 is outside the bleached curve's domain
        calls = count_solves(monkeypatch)
        fits = fit_two_curves_methods(pb, self.X1, Y1, self.X2, Y2, METHODS,
                                      MODE_COMMON_SIGMA, FitOptions(start=starts))
        assert len(calls) == 1
        for m in METHODS:
            assert isinstance(fits[m].errors[2], DomainError), m
            assert str(fits[m].errors[2]) == (
                "model 'saturating_exponential_bleached' is undefined at the requested point")
            assert not fits[m].converged[2]
            # A failed fit's numbers are NaN, a pair's and a separate fit's alike.
            assert np.isnan(fits[m].theta_hat[2]).all()
        keep = [0, 1, 3]
        rest = fit_two_curves_methods(pb, self.X1, Y1[keep], self.X2, Y2[keep], METHODS,
                                      MODE_COMMON_SIGMA, FitOptions(start=starts[keep]))
        for m in METHODS:
            for name in ("theta_hat", "sigma_hats", "iterations", "converged",
                         "residual_norm", "tolerance"):
                np.testing.assert_array_equal(getattr(fits[m], name)[keep],
                                              getattr(rest[m], name))
            assert rest[m].errors == (None,) * 3

    def test_a_short_curve_needs_an_explicit_start(self):
        # Curve 2 keeps 3 points, as many as its parameters: a pair of 19
        # points fits from a joint start, but the curve has no hint.
        pb, theta0, Y1, Y2 = two_curve_data(0.03, rows=2, seed=66)
        keep, methods = [0, 7, 12], ("ml", "ql", "wls")
        args = (pb, self.X1, Y1, self.X2[keep], Y2[:, keep], methods, MODE_COMMON_SIGMA)
        joint = fit_two_curves_methods(*args, FitOptions(start=theta0))
        auto = fit_two_curves_methods(*args)
        for m in methods:
            assert joint[m].converged.all() and joint[m].errors == (None, None)
            assert [str(e) for e in auto[m].errors] == [
                "need n > p observations, got n=3, p=3"] * 2

    @pytest.mark.parametrize("keep2", [[0, 7, 12], [0, 4, 8, 12]], ids=["3+3", "3+4"])
    def test_a_joint_start_needs_more_observations_than_parameters_in_all(self, keep2,
                                                                         monkeypatch):
        # Curve 1 keeps 3 points, as many as its parameters. From a joint
        # start a common-sigma pair needs only n1 + n2 > 2 p: 3 + 3 fails
        # before the solve and 3 + 4 fits, while DWLS, fitted separately,
        # fails on curve 1 either way.
        pb, theta0, Y1, Y2 = two_curve_data(0.03, rows=2, seed=66)
        keep1 = [0, 7, 12]
        calls = count_solves(monkeypatch)
        fits = fit_two_curves_methods(pb, self.X1[keep1], Y1[:, keep1], self.X2[keep2],
                                      Y2[:, keep2], METHODS, MODE_COMMON_SIGMA,
                                      FitOptions(start=theta0))
        assert [str(e) for e in fits["dwls"].errors] == [
            "need n > p observations, got n=3, p=3"] * 2
        for m in ("ml", "ql", "wls"):
            if len(keep2) == 3:
                assert [(type(e), str(e)) for e in fits[m].errors] == [
                    (ValueError, "need n > p observations, got n=6, p=6")] * 2
                assert np.isnan(fits[m].theta_hat).all() and not fits[m].converged.any()
            else:
                assert fits[m].errors == (None, None) and fits[m].converged.all()
        sent = {METHODS[k] for k in np.concatenate([[], *calls]).astype(int).tolist()}
        assert sent == (set() if len(keep2) == 3 else {"ml", "ql", "wls"})

    def test_curves_with_different_parameter_counts_share_no_scale(self, expo, monkeypatch):
        # Swapping in a curve of another size is refused before any fit,
        # so no mode pools the scale of curves that differ in size.
        pb = two_curve_data(0.03, rows=3, seed=64)[0]
        calls = count_solves(monkeypatch)
        with pytest.raises(ValueError, match="one number of parameters, got 3 and 2"):
            replace(pb, curve2=expo)
        assert calls == []


class TestScoringFallback:
    def test_rows_that_fall_back_solve_as_alone(self, monkeypatch):
        # At sigma 0.06 from the truth some rows, ML pairs among them, reject
        # a Newton step and take scoring steps, written into the stack's
        # Newton trial; each row still solves as it does alone.
        pb, theta0, Y1, Y2 = two_curve_data(0.06, rows=8, seed=72)
        scored, scoring = [], _newton._Iterate.scoring

        def counted(self, rows):
            scored.extend(eq.profiled for eq, a, b in _newton._cut(self.data.runs, rows)
                          for _ in range(a, b))
            return scoring(self, rows)
        monkeypatch.setattr(_newton._Iterate, "scoring", counted)
        opts = FitOptions(start=theta0)
        x1, x2 = DEFAULT_UNBLEACHED_DOSES, DEFAULT_BLEACHED_DOSES
        together = fit_two_curves_methods(pb, x1, Y1, x2, Y2, METHODS, MODE_DEFAULT, opts)
        assert any(scored) and not all(scored)
        for r in range(len(Y1)):
            alone = fit_two_curves_methods(pb, x1, Y1[r:r + 1], x2, Y2[r:r + 1], METHODS,
                                           MODE_DEFAULT, opts)
            for m in METHODS:
                for name in ("theta_hat", "iterations", "converged", "residual_norm"):
                    np.testing.assert_array_equal(getattr(together[m], name)[r],
                                                  getattr(alone[m], name)[0], err_msg=name)
                assert repr(together[m].errors[r]) == repr(alone[m].errors[0])


class TestSolveContract:
    def test_equation_rows_must_be_contiguous(self, satexp):
        Y = noisy_stack(satexp, X, PAPER_ALPHA, 0.02, rows=3, seed=49)
        data = estimators._stack(((satexp, X, Y),))
        with pytest.raises(ValueError, match="rows of each equation must be contiguous"):
            estimators.solve(estimators._EQUATIONS, data, np.tile(PAPER_ALPHA, (3, 1)), [1, 2, 1])

    def test_a_pair_is_two_rows_of_one_equation(self, satexp):
        Y = noisy_stack(satexp, X, PAPER_ALPHA, 0.02, rows=3, seed=50)
        data = replace(estimators._stack(((satexp, X, Y),)), pairs=1)
        with pytest.raises(ValueError, match="rows of a pair must share their equation"):
            estimators.solve(estimators._EQUATIONS, data, np.tile(PAPER_ALPHA, (3, 1)), [0, 1, 1])
        with pytest.raises(ValueError, match="a pair takes one row of each of two curves"):
            estimators._fit_curves(((satexp, X, Y),), {"ml": MODE_COMMON_SIGMA}, FitOptions())


    def test_each_failure_leaves_its_code(self, satexp):
        # ML pairs first: (curve 1, curve 2) with curve 2 outside its domain
        # at the start, a healthy pair, and a pair whose row of a model with a
        # NaN contracted Hessian fails at its first iteration; then QL and
        # DWLS rows, each one started at a1 = 1e-300. A failed row has its
        # code and NaN numbers; its pair mate has code 0 and NaN numbers.
        pb, theta0, Y1, Y2 = two_curve_data(0.02, rows=3, seed=57)
        nan_model = replace(satexp, name="nan_contraction", whess_fn=lambda x, t, c: np.where(
            (t[..., 0] > 1.5 * PAPER_ALPHA[0])[..., None, None], np.nan,
            satexp.whess_fn(x, t, c)))
        x1, x2 = DEFAULT_UNBLEACHED_DOSES, DEFAULT_BLEACHED_DOSES
        Yn = noisy_stack(satexp, x1, 2.0 * PAPER_ALPHA, 0.02, rows=1, seed=38)
        data = estimators._stack(((pb.curve1, x1, Y1), (pb.curve2, x2, Y2), (nan_model, x1, Yn)))
        # Rows 0-2 are curve 1's datasets, 3-5 curve 2's and 6 the NaN model's.
        rows = [0, 3, 1, 4, 6, 5, 1, 2, 1, 0]
        k = [0] * 6 + [1, 1, 3, 3]
        start = np.tile(theta0[:3], (len(rows), 1))
        start[data.curve[rows] == 1] = theta0[3:]
        start[4] = 2.2 * PAPER_ALPHA
        start[1, 2] = 0.0
        start[[6, 8], 0] = 1e-300
        sol = estimators.solve(estimators._EQUATIONS, replace(data[rows], pairs=3), start, k)
        codes = [0, FAULT_DOMAIN, 0, 0, FAULT_HESSIAN, 0, FAULT_EQUATION, 0, FAULT_SINGULAR, 0]
        assert sol.fault.tolist() == codes
        failed = np.array([0, 1, 4, 5, 6, 8])
        for name in ("theta", "residual_norm", "tolerance"):
            assert np.isnan(getattr(sol, name)[failed]).all(), name
        assert not sol.iterations[failed].any() and not sol.converged[failed].any()
        assert sol.converged[[2, 3, 7, 9]].all()


class TestStackConstants:
    """A padded stack whose first two rows are an ML pair (of a 13-point and
    a 16-point curve), then one more ML row and one row of each other
    equation: the weights' derivative kept on the iterate and the constants
    every cut carries."""

    K = np.array([0, 0, 0, 1, 1, 2, 3])

    @pytest.fixture
    def data(self, satexp):
        x = DEFAULT_BLEACHED_DOSES
        Y = [noisy_stack(satexp, grid, PAPER_ALPHA, 0.05, rows=rows, seed=seed)
             for grid, rows, seed in ((x, 1, 71), (X, 1, 72), (x, 5, 73))]
        data = replace(estimators._stack(((satexp, x, Y[0]), (satexp, X, Y[1]),
                                          (satexp, x, Y[2]))), pairs=1)
        assert data.live is not None
        return estimators._assign(estimators._EQUATIONS, data, self.K)

    def test_kept_dweight_is_the_equations_own(self, data):
        theta = PAPER_ALPHA * (1.0 + 0.01 * np.arange(7))[:, None]
        pt = estimators._point(data, theta)
        assert len(data.runs) == 5 and data.ml == slice(0, 3)
        with np.errstate(all="ignore"):
            expected = _newton._pick(data.runs, "dweight", pt.f, data.y)
        assert pt.dc.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("index", [[0, 1, 2, 4, 6], [2, 3, 5], [0, 1], [6],
                                       np.arange(7) != 3])
    def test_a_cut_carries_a_fresh_stacks_constants(self, data, index):
        cut = data[index]
        rows = np.arange(7)[index]
        fresh = estimators._assign(
            estimators._EQUATIONS,
            estimators._Data(data.models, data.curve[rows], data.x[rows], data.y[rows],
                             data.n[rows], data.live[rows], None, int(0 in rows)),
            self.K[rows])
        assert cut.pairs == fresh.pairs and cut.ml == fresh.ml
        assert [(eq, a, b) for eq, a, b in cut.runs] == [(eq, a, b) for eq, a, b in fresh.runs]
        assert cut.pooled.dtype == fresh.pooled.dtype
        np.testing.assert_array_equal(cut.pooled, fresh.pooled)
        np.testing.assert_array_equal(fresh.pooled[:2 * fresh.pairs],
                                      [13 + 16] * 2 * fresh.pairs)
        assert len(cut.views) == len(fresh.views) == len(fresh.runs)
        for (_, a, b), ours, theirs in zip(fresh.runs, cut.views, fresh.views):
            # Per run: its rows' y, and its datasets' y, live and count.
            y, live, n = fresh.y[a:b], fresh.live[a:b], fresh.n[a:b]
            if b <= 2 * fresh.pairs:
                y_set, live_set = y.reshape((b - a) // 2, -1), live.reshape((b - a) // 2, -1)
                n_set = n[0::2] + n[1::2]
            else:
                y_set, live_set, n_set = y, live, n
            for got, other, want in zip(ours, theirs, (y, y_set, live_set, n_set)):
                assert got.shape == other.shape == want.shape
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(other, want)


class TestSolveGammaBatch:
    @pytest.fixture
    def stack(self):
        pb = partial_bleach_model()
        beta_truth = np.array([95717.80268403766, 192.547, 756.62])
        rows = np.array([
            np.concatenate([PAPER_ALPHA, beta_truth]),  # one crossing, at -87.45
            np.concatenate([PAPER_ALPHA, [396216.15, 123.252, 1155.57]]),  # two crossings
            np.concatenate([PAPER_ALPHA, [1.7 * PAPER_ALPHA[0], PAPER_ALPHA[1],
                                          PAPER_ALPHA[2]]]),  # both vanish at -alpha2 only
            np.concatenate([PAPER_ALPHA, APART_BETA]),  # never cross
        ])
        return pb, rows

    def test_rows_match_single_solves(self, stack):
        pb, rows = stack
        theta = rows[[0, 1, 2, 3, 1]]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            gammas, errors = solve_gamma_batch(pb, theta)
        together = [str(w.message) for w in caught]
        alone = []
        for r in range(len(theta)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if errors[r] is None:
                    assert gammas[r] == solve_gamma(pb, theta[r])
                else:
                    assert np.isnan(gammas[r])
                    with pytest.raises(type(errors[r]), match=re.escape(str(errors[r]))):
                        solve_gamma(pb, theta[r])
            alone += [str(w.message) for w in caught]
        # One warning per call, counting the rows with two roots.
        message = ("{} of {} rows have more than one intersection root at or below 0; "
                   "each returns the one closest to zero")
        assert together == [message.format(2, 5)]
        assert alone == [message.format(1, 1)] * 2
        assert [e is None for e in errors] == [True] * 3 + [False, True]
        assert gammas[0] == pytest.approx(-87.45, abs=1e-6)
        # The root closest to zero, where the curves meet.
        assert -60.0 < gammas[1] < -50.0  # the other crossing is near -122
        assert abs(curve_gap(pb, gammas[1], rows[1])) <= 1e-6 * PAPER_ALPHA[0]
        assert gammas[2] == pytest.approx(-PAPER_ALPHA[1], abs=1e-6)
        # No crossing is stated over the grid's finite range: down to -2**18,
        # above the point where the curves overflow.
        assert isinstance(errors[3], NoBracketError)
        assert str(errors[3]) == "no sign change of the curve gap over [-262144, 0]"

    def test_faulting_rows_name_their_curve(self, stack):
        pb, rows = stack
        theta = np.tile(rows[0], (4, 1))
        theta[0, 2] = 0.0  # alpha3 = 0: the unbleached curve is undefined
        theta[2, 5] = 0.0  # beta3 = 0: the bleached curve is undefined
        theta[3, 3] *= 1.01
        gammas, errors = solve_gamma_batch(pb, theta)
        for r, curve in ((0, pb.curve1), (2, pb.curve2)):
            message = f"model {curve.name!r} is undefined at the requested point"
            assert isinstance(errors[r], DomainError) and str(errors[r]) == message
            assert np.isnan(gammas[r])
            with pytest.raises(DomainError, match=message):
                solve_gamma(pb, theta[r])
        for r in (1, 3):
            assert errors[r] is None
            assert gammas[r] == solve_gamma(pb, theta[r])

    def test_mixed_rows_match_single_solves(self, stack):
        pb, rows = stack
        # Curves with shift 128 both vanish at -128, a grid point, so their
        # gap is exactly zero on the grid.
        late = 1000.0 * (1.0 - np.exp(-0.015)) / (1.0 - np.exp(-0.03))
        theta = np.array([
            rows[0],  # one crossing, at -87.45
            [1000.0, 128.0, 100.0, 2000.0, 128.0, 100.0],  # only the grid zero
            [1000.0, 128.0, 100.0, late, 128.0, 50.0],  # the grid zero and one at -126.5
            rows[1],  # two crossings
            [PAPER_ALPHA[0], 200.0, PAPER_ALPHA[2],
             1.7 * PAPER_ALPHA[0], 200.0, PAPER_ALPHA[2]],  # meets at -200 only
            np.concatenate([PAPER_ALPHA[:2], [0.0], rows[0][3:]]),  # alpha3 = 0
        ])
        with pytest.warns(MultipleRootWarning, match="^2 of 6 rows have more than one"):
            gammas, errors = solve_gamma_batch(pb, theta)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MultipleRootWarning)
            for r in range(len(theta)):
                alone, alone_errors = solve_gamma_batch(pb, theta[r:r + 1])
                np.testing.assert_array_equal(gammas[r], alone[0])
                assert repr(errors[r]) == repr(alone_errors[0])
        assert [e is None for e in errors] == [True] * 5 + [False]
        assert isinstance(errors[5], DomainError) and pb.curve1.name in str(errors[5])
        assert gammas[1] == -128.0 and gammas[2] == pytest.approx(-126.5, abs=1e-6)
        assert gammas[3] == pytest.approx(-53.6, abs=0.1)
        assert gammas[4] == pytest.approx(-200.0, abs=1e-6)

    def test_default_brackets_per_row(self, stack):
        pb, rows = stack
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MultipleRootWarning)
            gammas, errors = solve_gamma_batch(pb, rows)
            for r in range(len(rows)):
                if errors[r] is None:
                    assert gammas[r] == solve_gamma(pb, rows[r])
                else:
                    with pytest.raises(type(errors[r]), match=re.escape(str(errors[r]))):
                        solve_gamma(pb, rows[r])

    def test_dose_derivatives_resolve_default_brackets_once(self, stack, monkeypatch):
        # One solve of the whole stack finds every row's root.
        pb, rows = stack
        calls, roots = [], equivalent_dose._roots

        def counted(model, theta):
            calls.append(len(theta))
            return roots(model, theta)
        monkeypatch.setattr(equivalent_dose, "_roots", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MultipleRootWarning)
            doses = dose_derivatives_batch(pb, rows)
        assert calls == [len(rows)]
        assert doses[0].gamma == pytest.approx(-87.45, abs=1e-6)

    def test_dose_derivatives_rows(self, stack):
        # A crossing, one below the start range, curves that never cross,
        # and identical curves, whose closest root is a tangency.
        pb, rows = stack
        below = rows[0].copy()
        below[3] = beta1_from_gamma(PAPER_ALPHA, below[4], below[5], -200.0)
        theta = np.stack([rows[0], below, np.concatenate([PAPER_ALPHA, APART_BETA]),
                          np.concatenate([PAPER_ALPHA, PAPER_ALPHA])])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MultipleRootWarning)
            doses = dose_derivatives_batch(pb, theta)
            gammas, _ = solve_gamma_batch(pb, theta)
            for r, dose in enumerate(doses):
                alone = dose_derivatives_batch(pb, theta[r:r + 1])[0]
                if isinstance(dose, Exception):
                    assert (type(alone), str(alone)) == (type(dose), str(dose))
                    continue
                assert dose.gamma == gammas[r] == alone.gamma
                np.testing.assert_array_equal(dose.grad, alone.grad)
                np.testing.assert_array_equal(dose.hess, alone.hess)
        assert isinstance(doses[2], NoBracketError) and isinstance(doses[3], TangencyError)
        # The crossing below both shifts, where both curves are negative.
        assert doses[1].gamma < -max(PAPER_ALPHA[1], rows[0][4])
        assert doses[1].gamma == pytest.approx(-200.0, abs=1e-6)
        with pytest.raises(ValueError, match=r"joint theta must have shape \(R, 6\)"):
            dose_derivatives_batch(pb, rows[:, :5])


def assert_rows_alone(design):
    """The study rows of the design's one sigma, fitted as one stack, in four
    chunks and one by one, are the same bits; returns the whole stack's."""
    R = design.replicates
    cells = np.stack([np.zeros(R, dtype=int), np.arange(R)], axis=1)
    whole, *_ = _run_rows(design, cells, 7)
    chunks = [_run_rows(design, part, 7)[0] for part in np.array_split(cells, 4)]
    alone = [_run_rows(design, cells[k:k + 1], 7)[0] for k in range(R)]
    for method in design.methods:
        np.testing.assert_array_equal(
            whole[method], np.concatenate([c[method] for c in chunks]))
        np.testing.assert_array_equal(
            whole[method], np.concatenate([a[method] for a in alone]))
    return whole


class TestStudyRows:
    def test_replicates_do_not_depend_on_their_stack(self):
        design = default_partial_bleach_design(sigma_grid=(0.03,), replicates=6,
                                               master_seed=31)
        assert_rows_alone(design)

    def test_shortened_starts_do_not_depend_on_their_stack(self):
        # At sigma 0.06 the guard shortens some of these rows' first-order
        # steps to the cap and starts the others at the whole step.
        design = default_partial_bleach_design(sigma_grid=(0.06,), replicates=6,
                                               master_seed=31)
        curves = [np.empty((6, x.size)) for x, _ in design.means]
        for k in range(6):
            assert _draw_replicate(design, 0.06, 0, k, [c[k] for c in curves]) == (True, 0)
        rel = np.concatenate(curves, axis=1) / np.concatenate([f for _, f in design.means]) - 1.0
        steps = (rel[:, None, :] * design.first_order_map).sum(axis=-1)
        whole_step = np.all(_first_order_starts(design, curves) == design.theta0 + steps, axis=1)
        assert whole_step.any() and not whole_step.all()
        whole = assert_rows_alone(design)
        for method in design.methods:
            assert not np.isnan(whole[method]).any()

    def test_stacks_spanning_two_sigmas(self):
        design = default_partial_bleach_design(sigma_grid=(0.02, 0.04), replicates=4,
                                               master_seed=32)
        cells = np.stack(np.divmod(np.arange(8), 4), axis=1)
        whole, *_ = _run_rows(design, cells, 7)
        # Boundaries inside each sigma's block (3 and 6, so the chunk 3:6
        # straddles the blocks), then each sigma's block alone (4).
        straddling = [_run_rows(design, part, 7)[0] for part in np.split(cells, [3, 6])]
        blocks = [_run_rows(design, part, 7)[0] for part in np.split(cells, [4])]
        for method in design.methods:
            assert not np.isnan(whole[method]).any()
            np.testing.assert_array_equal(
                whole[method], np.concatenate([c[method] for c in straddling]))
            np.testing.assert_array_equal(
                whole[method], np.concatenate([b[method] for b in blocks]))


# The one-row code the stacks replaced, kept as the reference they must match bit for bit.

def checked_rows(model: ModelFunction, name: str, x, theta) -> Array:
    """``model``'s ``name`` (``"grad_rows"``, ``"hess_rows"`` or ``"dx_rows"``)
    at the covariates ``x`` and one checked ``theta``: raises what
    ``model.eval`` raises there, or the error of a non-finite gradient or
    Hessian."""
    x, theta = np.atleast_1d(np.asarray(x, dtype=float)), model.check_theta(theta)
    fault = int(model.faults(x, theta))
    if fault:
        raise fault_error(model, fault)
    out = getattr(model, name)(x, theta)
    code = {"grad_rows": FAULT_GRADIENT, "hess_rows": FAULT_HESSIAN}.get(name)
    if code and not np.all(np.isfinite(out)):
        raise fault_error(model, code)
    return out


def one_row_bundle(model: ModelFunction, data: Dataset, theta):
    theta = model.check_theta(theta)
    if data.n <= model.p:
        raise ValueError("n <= p")
    f = np.asarray(model.eval(data.x, theta), dtype=float)
    if np.any(f == 0.0):
        idx = int(np.flatnonzero(f == 0.0)[0])
        raise ZeroMeanError(f"mean response is zero at x={data.x[idx]!r}")
    J = checked_rows(model, "grad_rows", data.x, theta) / f[:, None]
    JtJ = J.T @ J
    eigvals = np.linalg.eigvalsh(JtJ)
    if eigvals[0] <= 0.0 or eigvals[0] < RCOND_MIN * eigvals[-1]:
        raise SingularError(
            f"J'J is numerically singular (eigenvalue range {eigvals[0]:.3e}..{eigvals[-1]:.3e})")
    JtJ_inv = np.linalg.inv(JtJ)
    JtJ_inv = 0.5 * (JtJ_inv + JtJ_inv.T)
    w1 = np.einsum("ij,jk,ik->i", J, JtJ_inv, J)
    K = checked_rows(model, "hess_rows", data.x, theta) / f[:, None, None]
    return {"J": J, "JtJ": JtJ, "JtJ_inv": JtJ_inv, "Jbar": J.mean(axis=0), "w1": w1,
            "w2": np.einsum("ijk,kj->i", K, JtJ_inv), "f": f}


def one_row_dose_derivatives(model, theta, gamma):
    alpha, beta = model.split(theta)
    c1, c2 = model.curve1, model.curve2
    h = float(np.cbrt(np.finfo(float).eps)) * max(1.0, abs(gamma))
    xs = np.array([gamma - h, gamma, gamma + h])
    grad1 = checked_rows(c1, "grad_rows", xs, alpha)
    grad2 = checked_rows(c2, "grad_rows", xs, beta)
    dx1, dx2 = checked_rows(c1, "dx_rows", xs, alpha), checked_rows(c2, "dx_rows", xs, beta)
    s1, s2 = float(dx1[1]), float(dx2[1])
    g_x = s1 - s2
    if abs(g_x) < 1e-12 * max(abs(s1), abs(s2), 1e-300):
        raise TangencyError("curves meet tangentially; dose gradient is undefined")
    gp = -np.concatenate([grad1[1], -grad2[1]]) / g_x
    g_tt = np.zeros((6, 6))
    g_tt[:3, :3] = checked_rows(c1, "hess_rows", gamma, alpha)[0]
    g_tt[3:, 3:] = -checked_rows(c2, "hess_rows", gamma, beta)[0]
    g_xt = np.concatenate([(grad1[2] - grad1[0]) / (2 * h), -(grad2[2] - grad2[0]) / (2 * h)])
    g_xx = ((dx1[2] - dx1[0]) - (dx2[2] - dx2[0])) / (2 * h)
    return gp, -(g_tt + np.outer(g_xt, gp) + np.outer(gp, g_xt)
                 + g_xx * np.outer(gp, gp)) / g_x


def poisoned(model, field, marker):
    """``model`` whose ``field`` callable is NaN at rows whose first parameter is ``marker``."""
    fn = getattr(model, field)

    def nan_at_marker(x, t):
        out = np.asarray(fn(x, t), dtype=float)
        flag = t[..., 0] == marker
        return np.where(flag.reshape(flag.shape + (1,) * (out.ndim - flag.ndim)), np.nan, out)

    return replace(model, **{field: nan_at_marker})


def assert_same_outcome(got, expected):
    """``got`` (a bundle or an error) equals ``expected()`` bit for bit, or raises alike."""
    try:
        want = expected()
    except Exception as exc:  # noqa: BLE001 - the reference's error is the expectation
        assert isinstance(got, Exception), f"expected {exc!r}, got a result"
        assert (type(got), str(got)) == (type(exc), str(exc))
        return None
    assert not isinstance(got, Exception), f"unexpected {got!r}"
    return want


class TestJacobianBundleStack:
    def test_rows_match_the_one_row_builder(self, expo):
        model = poisoned(poisoned(expo, "hess_fn", 7.0), "grad_fn", 9.0)
        x = np.linspace(0.5, 6.0, 9)
        thetas = np.array([
            [2.0, 3.0],        # ordinary
            [0.0, 3.0],        # zero mean
            [2.0, 1e8],        # J'J singular: the second column is ~1e-16 of the first
            [np.nan, 3.0],     # non-finite parameters
            [7.0, 3.0],        # non-finite Hessian
            [2.0, 0.0],        # outside the domain
            [9.0, 3.0],        # non-finite gradient
            [5.0, 1.5],        # ordinary
        ])
        bundles = build_jacobian_bundles(model, x, thetas)
        data = Dataset(x, np.ones_like(x))
        kinds = []
        for theta, got in zip(thetas, bundles):
            want = assert_same_outcome(got, lambda: one_row_bundle(model, data, theta))
            alone = assert_same_outcome(got, lambda: build_jacobian_bundle(model, data, theta))
            kinds.append(type(got).__name__)
            if want is None:
                continue
            for name, value in want.items():
                np.testing.assert_array_equal(getattr(got, name), value, err_msg=name)
                np.testing.assert_array_equal(getattr(alone, name), value, err_msg=name)
        assert kinds == ["JacobianBundle", "ZeroMeanError", "SingularError", "DomainError",
                         "NonFiniteError", "DomainError", "NonFiniteError", "JacobianBundle"]
        assert "Hessian" in str(bundles[4]) and "gradient" in str(bundles[6])

    def test_stacked_two_curve_rows_match(self):
        # Each curve's stack and the stacked model's (the oracle of joined bundles), at
        # fitted-like rows.
        pb = partial_bleach_model()
        x1, x2 = DEFAULT_UNBLEACHED_DOSES, DEFAULT_BLEACHED_DOSES
        beta = np.array([95717.80268403766, 192.547, 756.62])
        rng = np.random.default_rng(5)
        thetas = np.concatenate([PAPER_ALPHA, beta]) * (1.0 + 0.02 * rng.standard_normal((6, 6)))
        joint, idx = stacked_model(pb, x1, x2)
        for model, x, rows in ((pb.curve1, x1, thetas[:, :3]), (pb.curve2, x2, thetas[:, 3:]),
                               (joint, idx, thetas)):
            data = Dataset(x, np.ones_like(x))
            for theta, got in zip(rows, build_jacobian_bundles(model, x, rows)):
                for name, value in one_row_bundle(model, data, theta).items():
                    np.testing.assert_array_equal(getattr(got, name), value, err_msg=name)

    def test_whole_call_errors(self, expo):
        x = np.linspace(0.5, 6.0, 9)
        with pytest.raises(ValueError, match=r"thetas must have shape \(R, 2\)"):
            build_jacobian_bundles(expo, x, np.ones(2))
        with pytest.raises(ValueError, match="need n > p"):
            build_jacobian_bundles(expo, x[:2], np.ones((1, 2)))


class TestDoseDerivativeStack:
    BETA = np.array([95717.80268403766, 192.547, 756.62])

    def test_rows_match_the_one_row_code(self):
        # A crossing, a scaled crossing, curves that never cross, identical
        # curves (a tangency at the closest root) and crossings where a
        # curve's gradient or Hessian is non-finite.
        pb = partial_bleach_model()
        grad_marker, hess_marker = 1.01 * self.BETA[0], 1.02 * self.BETA[0]
        model = replace(pb, curve2=poisoned(poisoned(pb.curve2, "grad_fn", grad_marker),
                                            "hess_fn", hess_marker))
        theta0 = np.concatenate([PAPER_ALPHA, self.BETA])
        thetas = np.array([
            theta0,
            theta0 * np.array([2.5, 1, 1, 2.5, 1, 1]),
            np.concatenate([PAPER_ALPHA, APART_BETA]),
            np.concatenate([PAPER_ALPHA, PAPER_ALPHA]),
            np.concatenate([PAPER_ALPHA, [grad_marker, *self.BETA[1:]]]),
            np.concatenate([PAPER_ALPHA, [hess_marker, *self.BETA[1:]]]),
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MultipleRootWarning)
            doses = dose_derivatives_batch(model, thetas)
            gammas, _ = solve_gamma_batch(model, thetas)
            kinds = []
            for theta, gamma, dose in zip(thetas, gammas, doses):
                kinds.append(type(dose).__name__)
                if isinstance(dose, NoBracketError):
                    continue
                want = assert_same_outcome(
                    dose, lambda: one_row_dose_derivatives(model, theta, gamma))
                if want is None:
                    continue
                assert dose.gamma == gamma
                np.testing.assert_array_equal(dose.grad, want[0])
                np.testing.assert_array_equal(dose.hess, want[1])
        assert kinds == ["DoseDerivatives", "DoseDerivatives", "NoBracketError",
                         "TangencyError", "NonFiniteError", "NonFiniteError"]
        assert "gradient" in str(doses[4]) and "Hessian" in str(doses[5])

    def test_gradient_against_central_differences_of_the_root(self):
        pb = partial_bleach_model()
        theta0 = np.concatenate([PAPER_ALPHA, self.BETA])
        thetas = np.stack([theta0, theta0 * (1.0 + 0.01 * np.arange(1, 7))])
        for theta, dose in zip(thetas, dose_derivatives_batch(pb, thetas)):
            fd = np.empty(6)
            for j in range(6):
                step = 1e-5 * max(1.0, abs(theta[j]))
                up, down = theta.copy(), theta.copy()
                up[j] += step
                down[j] -= step
                fd[j] = (solve_gamma(pb, up) - solve_gamma(pb, down)) / (2 * step)
            np.testing.assert_allclose(dose.grad, fd, rtol=1e-4)
