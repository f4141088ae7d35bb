"""Monte Carlo engine: generation, streams, determinism, aggregation."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from propfit import estimators, simulation
from propfit._newton import _assign, _point, _stack
from propfit.asymptotics import bias_order2
from propfit.equivalent_dose import (
    MODE_COMMON_SIGMA,
    MODE_DEFAULT,
    MODE_SEPARATE,
    fit_two_curves,
    fit_two_curves_methods,
    gamma_bias_se,
    resolve_modes,
    solve_gamma,
)
from propfit.estimators import _EQUATIONS, METHODS, FitOptions, fit_methods
from propfit.exceptions import ModeError, MultipleRootWarning, Rejected
from propfit.jacobian import build_jacobian_bundle
from propfit.models import Dataset, constant_model, saturating_exponential_model
from propfit.simulation import (
    DEFAULT_UNBLEACHED_DOSES,
    QNL84_ALPHA,
    WARM_START_CAP,
    SimDesign,
    _draw_replicate,
    _first_order_starts,
    _guarded_starts,
    _run_rows,
    compare_bias_table,
    default_partial_bleach_design,
    generate_dataset,
    replicate_stream,
    run_study,
)
from conftest import PAPER_GAMMA, stacked_model


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
        data = generate_dataset(const, np.zeros(R), np.array([1.0]), sigma, stream)
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
        with pytest.raises(KeyError):
            summary.entry("ml", 0.02)
        with pytest.raises(KeyError):
            entry.cell("gamma")

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

    @pytest.mark.parametrize("cpus, pools", [(2, [2]), (1, [1]), (None, [1])])
    def test_pool_capped_at_cpu_count(self, monkeypatch, cpus, pools):
        # --threads sets the number of chunks; the pool never outnumbers the CPUs.
        seen = []

        class Pool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        design = constant_design(sigma_grid=(0.01, 0.02), replicates=5)
        serial = run_study(design, threads=1)
        monkeypatch.setattr(simulation, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(simulation.os, "cpu_count", lambda: cpus)
        assert run_study(design, threads=100_000).results == serial.results
        assert seen == pools

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
                expected = bias_order2(method, build_jacobian_bundle(
                    joint, Dataset(idx, joint.eval(idx, theta0)), theta0), sigma)
            else:
                expected = np.concatenate([
                    bias_order2(method, build_jacobian_bundle(
                        curve, Dataset(x, curve.eval(x, t)), t), sigma)
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

    def test_every_replicate_whose_curves_cross_is_kept(self):
        # At sigma 0.06, about 1% of the fitted curve pairs cross below the
        # smaller fitted shift. Dropping them biases gamma's B_s toward zero.
        design = default_partial_bleach_design(sigma_grid=(0.06,), replicates=2000)
        with pytest.warns(MultipleRootWarning, match="^107 of 8000 rows have more than one"):
            results = run_study(design).results
        for entry in results:
            gamma = entry.cell("gamma")
            assert entry.failure_count == 0
            assert abs(gamma.b_s - gamma.b_t) <= 3.0 * gamma.mc_se

    def test_one_multiple_root_warning_per_study(self):
        # The sigma-0.06 design of the test above: about 1% of the fitted
        # curve pairs cross more than once. Three chunks warn once, with
        # the count the one-chunk study gives, naming the line that called.
        design = default_partial_bleach_design(sigma_grid=(0.06,), replicates=300)
        messages = []
        for threads in (1, 3):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                run_study(design, threads=threads)
            [warning] = caught
            assert warning.category is MultipleRootWarning
            assert warning.filename == __file__
            messages.append(str(warning.message))
        assert messages[0] == messages[1]
        several, rows = (int(n) for n in messages[0].split(" rows ")[0].split(" of "))
        assert 0 < several < rows <= 4 * design.replicates


class TestStudyStack:
    """The study is fitted as one flat stack across the sigma grid."""

    @staticmethod
    def redrawing_design():
        # theta = 1 at sigma 0.4 and 0.5 draws non-positive responses often,
        # so both sigmas redraw, and with one redraw allowed some reject.
        return constant_design(theta0=np.array([1.0]), sigma_grid=(0.4, 0.5),
                               replicates=30, master_seed=13, max_redraws=1)

    def test_per_sigma_bookkeeping(self):
        design = self.redrawing_design()
        summary = run_study(design)
        opts = replace(design.fit_options, start=design.theta0)
        for sigma_idx, sigma in enumerate(design.sigma_grid):
            y = np.empty((design.replicates, design.x1.size))
            drawn = [_draw_replicate(design, sigma, sigma_idx, k, [y[k]])
                     for k in range(design.replicates)]
            redraws = sum(n for _, n in drawn)
            kept = y[[d for d, _ in drawn]]
            rejected = design.replicates - len(kept)
            assert redraws > 0
            for method in design.methods:
                converged = fit_methods(design.model, design.x1, kept, (method,),
                                        opts)[method].converged
                entry = summary.entry(method, sigma)
                assert entry.redraw_count == redraws
                assert entry.rejected_count == rejected
                assert entry.r_effective == int(converged.sum())
                assert entry.failure_count == int((~converged).sum())
        assert summary.entry("ql", 0.4).redraw_count != summary.entry("ql", 0.5).redraw_count
        assert summary.entry("ql", 0.5).rejected_count > 0

    @pytest.mark.parametrize("stack_rows", [1, 7])
    def test_summary_does_not_depend_on_stack_rows(self, monkeypatch, stack_rows):
        design = self.redrawing_design()
        default = run_study(design)
        monkeypatch.setattr(simulation, "STACK_OBSERVATIONS",
                            stack_rows * sum(x.size for x, _ in design.means))
        split = run_study(design)
        assert split.truths == default.truths
        assert split.results == default.results

    def test_auto_start_rows_match_single_fits(self):
        design = default_partial_bleach_design(sigma_grid=(0.03,), replicates=4,
                                               master_seed=10, start="auto")
        cells = np.array([(0, k) for k in range(design.replicates)])
        estimates, rejected, *_ = _run_rows(design, cells, len(design.target_names))
        assert not rejected.any()
        opts = FitOptions(start="auto")
        for k in range(design.replicates):
            y1, y2 = np.empty(design.x1.size), np.empty(design.x2.size)
            assert _draw_replicate(design, 0.03, 0, k, [y1, y2]) == (True, 0)
            d1, d2 = Dataset(design.x1, y1), Dataset(design.x2, y2)
            for method in design.methods:
                res = fit_two_curves(design.model, d1, d2, method, design.mode_for(method), opts)
                gamma = solve_gamma(design.model, res.theta_hat)
                np.testing.assert_array_equal(estimates[method][k],
                                              np.append(res.theta_hat, gamma))

    def test_one_stack_per_method_across_sigmas(self, monkeypatch):
        calls = {"fit_two_curves_methods": 0, "_roots": 0}

        def counted(name):
            original = getattr(simulation, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(simulation, name, counted(name))
        design = default_partial_bleach_design(sigma_grid=(0.01, 0.02, 0.03),
                                               replicates=10, master_seed=8)
        assert len(design.methods) == 4
        run_study(design, threads=1)
        # One fit of every method for all 30 replicates, not one per sigma
        # (3), and one intersection stack for every method's rows, not one
        # per method (4) or per method and sigma (12).
        assert calls == {"fit_two_curves_methods": 1, "_roots": 1}

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_newton_solve_per_chunk(self, monkeypatch, threads):
        # Every method's fits of a chunk, common-sigma ML's as row pairs, are one solve.
        calls, solve = [], estimators.solve
        monkeypatch.setattr(estimators, "solve",
                            lambda *args, **kwargs: calls.append(1) or solve(*args, **kwargs))
        design = default_partial_bleach_design(sigma_grid=(0.01, 0.02), replicates=5,
                                               master_seed=8)
        assert design.mode_for("ml") == "common-sigma"
        run_study(design, threads=threads)
        assert len(calls) == threads

    def test_cell_statistics_match_per_target_columns(self):
        # Four iterations leave some of every method's fits unconverged.
        design = SimDesign(model=saturating_exponential_model(), x1=np.linspace(0.0, 1000.0, 16),
                           theta0=np.array([142853.0, 123.182, 393.065]), sigma_grid=(0.05,),
                           replicates=37, master_seed=5, fit_options=FitOptions(max_iter=4))
        summary = run_study(design)
        cells = np.stack([np.zeros(37, dtype=int), np.arange(37)], axis=1)
        estimates, rejected, *_ = _run_rows(design, cells, 3)
        assert not rejected.any()
        for method in design.methods:
            est = estimates[method]
            ok = ~np.isnan(est).any(axis=1)
            entry = summary.entry(method, 0.05)
            assert entry.r_effective == ok.sum() and 2 <= entry.r_effective < 37
            for j, target in enumerate(design.target_names):
                column = est[ok, j]
                np.testing.assert_array_equal(entry.cell(target).b_s,
                                              np.mean(column) - design.theta0[j])
                np.testing.assert_array_equal(entry.cell(target).mc_se,
                                              np.std(column, ddof=1) / np.sqrt(ok.sum()))


def drawn_curves(design, sigma_idx):
    """Each curve's responses ``(R, n)`` for every replicate of sigma
    ``sigma_idx``, as the study draws them; no replicate may be rejected."""
    curves = [np.empty((design.replicates, x.size)) for x, _ in design.means]
    for k in range(design.replicates):
        assert _draw_replicate(design, design.sigma_grid[sigma_idx], sigma_idx, k,
                               [c[k] for c in curves]) == (True, 0)
    return curves


def equation_rows(method, model, x, Y, theta):
    """Per row, ``method``'s estimating equation for ``Y[r]`` at
    ``theta[r]`` (:func:`~propfit.estimators.equation_residual`) as one stack."""
    data = _assign(_EQUATIONS, _stack(((model, x, Y),)), np.full(len(Y), METHODS.index(method)))
    return _point(data, theta).residual


class TestFirstOrderStart:
    """With ``start="theta0"`` a replicate starts at ``theta0 + L``, shortened
    along L to the guard's cap where L passes it."""

    def test_guard_shortens_a_step_past_the_cap(self):
        theta0 = np.array([100.0, -20.0, 5.0])
        at_cap = WARM_START_CAP * np.array([100.0, -20.0, -5.0])
        past = np.array([25.0, np.nextafter(-5.0, -6.0), 1.0])  # just past the cap
        steps = np.array([at_cap, past, [1.0, np.nan, 1.0]])
        starts = _guarded_starts(theta0, steps)
        np.testing.assert_array_equal(starts[[0, 2]], [theta0 + at_cap, theta0])
        # The second row moves along its step, by a share just under 1, until
        # its largest move is the cap.
        share = (starts[1] - theta0) / past
        np.testing.assert_allclose(share, share[1], rtol=1e-15)
        assert 1.0 - 1e-15 < share[1] < 1.0
        assert np.max(np.abs(starts[1] - theta0) / np.abs(theta0)) == pytest.approx(
            WARM_START_CAP, rel=1e-15)

    def test_guard_keeps_a_sign_flipping_start_off(self):
        # The draws of replicate 1568 at sigma 0.10 as a one-sigma study
        # draws them: L flips beta3's sign, and dwls from theta0 + L runs
        # off towards the saturating exponential's linear limit. Shortened
        # to the cap, L moves beta3 to 0.75 of its truth, and every method
        # reaches the root it reaches from theta0.
        design = default_partial_bleach_design(sigma_grid=(0.10,), replicates=1,
                                               master_seed=20260810)
        curves = [np.empty((1, x.size)) for x, _ in design.means]
        assert _draw_replicate(design, 0.10, 0, 1568, [c[0] for c in curves]) == (True, 0)
        rel = np.concatenate([c[0] for c in curves]) / np.concatenate(
            [f for _, f in design.means]) - 1.0
        step = design.first_order_map @ rel
        assert step[5] / design.theta0[5] < -1.0
        [start] = _first_order_starts(design, curves)
        assert start[5] / design.theta0[5] == pytest.approx(1.0 - WARM_START_CAP, rel=1e-15)
        np.testing.assert_allclose(start - design.theta0, step * (start[5] - design.theta0[5])
                                   / step[5], rtol=1e-13)

        estimates, *_ = _run_rows(design, np.array([[0, 1568]]), 7)

        def fits_from(start, methods=design.methods):
            return fit_two_curves_methods(design.model, design.x1, curves[0], design.x2,
                                          curves[1], methods, design.fit_mode,
                                          FitOptions(start=start))
        cold, warm = fits_from(design.theta0), fits_from(start[None])
        for method in design.methods:
            assert cold[method].converged[0] and warm[method].converged[0]
            np.testing.assert_array_equal(estimates[method][0, :6], warm[method].theta_hat[0])
            assert_within_stop_rule(design, curves, method, warm[method], cold[method])
        np.testing.assert_allclose(cold["dwls"].theta_hat[0, 3:], [6.66e4, 111.0, 320.0],
                                   rtol=5e-3)
        unguarded = fits_from(design.theta0 + step, ("dwls",))["dwls"]
        assert not np.allclose(unguarded.theta_hat[0], cold["dwls"].theta_hat[0], rtol=1e-3)

    @pytest.mark.parametrize("sigma", [0.01, 0.03, 0.06])
    def test_warm_and_cold_starts_agree_within_the_stop_rule(self, sigma):
        design = default_partial_bleach_design(sigma_grid=(sigma,), replicates=100,
                                               master_seed=20260810)
        curves = drawn_curves(design, 0)
        warm_starts = _first_order_starts(design, curves)
        assert np.any(warm_starts != design.theta0)
        fits = {name: fit_two_curves_methods(design.model, design.x1, curves[0], design.x2,
                                             curves[1], design.methods, design.fit_mode,
                                             FitOptions(start=start))
                for name, start in (("cold", design.theta0), ("warm", warm_starts))}
        cells = np.stack([np.zeros(design.replicates, dtype=int),
                          np.arange(design.replicates)], axis=1)
        study, *_ = _run_rows(design, cells, 7)
        for method in design.methods:
            cold, warm = fits["cold"][method], fits["warm"][method]
            np.testing.assert_array_equal(warm.converged, cold.converged)
            ok = warm.converged
            assert ok.any()
            np.testing.assert_array_equal(study[method][ok, :6], warm.theta_hat[ok])
            assert_within_stop_rule(design, curves, method, warm, cold)

    def test_one_curve_study_starts_rows_at_the_guarded_first_order_solution(self):
        model = saturating_exponential_model()
        design = SimDesign(model=model, x1=DEFAULT_UNBLEACHED_DOSES, theta0=QNL84_ALPHA,
                           sigma_grid=(0.02, 0.08), replicates=40, master_seed=41)
        summary = run_study(design)
        x, f = design.means[0]
        bundle = build_jacobian_bundle(model, Dataset(x, f), design.theta0)
        steps = bundle.JtJ_inv @ bundle.J.T
        kinds = set()
        for sigma_idx, sigma in enumerate(design.sigma_grid):
            [Y] = drawn_curves(design, sigma_idx)
            L = ((Y / f - 1.0)[:, None, :] * steps).sum(axis=-1)
            # The share of L that moves the farthest component by the cap,
            # or all of L where no component passes it.
            share = np.minimum(1.0, np.min(WARM_START_CAP * np.abs(design.theta0) / np.abs(L),
                                           axis=1))
            kinds |= set((share == 1.0).tolist())
            start = design.theta0 + share[:, None] * L
            fits = fit_methods(model, x, Y, design.methods, FitOptions(start=start))
            for method in design.methods:
                ok = fits[method].converged
                vals = np.ascontiguousarray(fits[method].theta_hat[ok].T)
                entry = summary.entry(method, sigma)
                assert entry.r_effective == ok.sum()
                np.testing.assert_array_equal(
                    [entry.cell(t).b_s for t in design.target_names],
                    np.mean(vals, axis=1) - design.theta0)
                np.testing.assert_array_equal(
                    [entry.cell(t).mc_se for t in design.target_names],
                    np.std(vals, axis=1, ddof=1) / np.sqrt(ok.sum()))
        assert kinds == {True, False}


def assert_within_stop_rule(design, curves, method, warm, cold):
    """A two-curve fit from two starts, ``warm`` and ``cold`` (their
    :class:`~propfit.estimators.FitBatch` rows for ``curves``), agrees
    wherever both converged: both stopped with every |G_j| within their
    tolerance, so to first order |warm - cold| <= |(dG/dtheta)^-1|
    (tol_warm + tol_cold), with dG/dtheta at the cold root by central
    differences."""
    ok = warm.converged & cold.converged
    joint, index = stacked_model(design.model, design.x1, design.x2)
    both = np.concatenate(curves, axis=1)
    p1 = design.model.curve1.p

    def G(theta):
        if design.mode_for(method) == MODE_COMMON_SIGMA:
            return equation_rows(method, joint, index, both[ok], theta)
        return np.concatenate([
            equation_rows(method, design.model.curve1, design.x1, curves[0][ok], theta[:, :p1]),
            equation_rows(method, design.model.curve2, design.x2, curves[1][ok], theta[:, p1:])],
            axis=1)

    theta = cold.theta_hat[ok]
    dG = np.empty((len(theta), 6, 6))
    for j in range(6):
        h = np.zeros_like(theta)
        h[:, j] = 1e-6 * np.abs(theta[:, j])
        dG[:, :, j] = (G(theta + h) - G(theta - h)) / (2.0 * h[:, j, None])
    bound = (np.abs(np.linalg.inv(dG)).sum(axis=2)
             * (warm.tolerance[ok] + cold.tolerance[ok])[:, None])
    assert np.all(np.abs(warm.theta_hat[ok] - theta) <= bound), method


def replay(design, sigma, sigma_idx, k):
    """Replicate ``k`` as :func:`generate_dataset` draws it from the
    replicate's stream, curve 1, then curve 2, on each attempt: its
    responses per curve (None when every attempt is rejected), its redraws
    and, per rejected attempt, the index of the curve that rejected it."""
    if design.two_curve:
        alpha, beta = design.model.split(design.theta0)
        curves = ((design.model.curve1, design.x1, alpha),
                  (design.model.curve2, design.x2, beta))
    else:
        curves = ((design.model, design.x1, design.theta0),)
    stream = replicate_stream(design.master_seed, sigma_idx, k)
    rejected_at = []
    for attempt in range(design.max_redraws + 1):
        ys = []
        try:
            for model, x, theta in curves:
                ys.append(generate_dataset(model, x, theta, sigma, stream).y)
            return ys, attempt, rejected_at
        except Rejected:
            rejected_at.append(len(ys))
    return None, design.max_redraws + 1, rejected_at


class TestDrawOrder:
    """The study's rows are the draws :func:`generate_dataset` makes."""

    @pytest.mark.parametrize("design", [
        TestStudyStack.redrawing_design(),
        # At sigma 0.45 about one attempt in three is rejected, by either curve.
        default_partial_bleach_design(sigma_grid=(0.45,), replicates=40, master_seed=17,
                                      max_redraws=1),
    ], ids=["constant", "two_curve"])
    def test_rows_replay_generate_dataset(self, monkeypatch, design):
        fitted = []

        def recorded(design, curves, n_targets):
            fitted.append(curves)
            return ({m: np.full((len(curves[0]), n_targets), np.nan) for m in design.methods},
                    np.zeros(2, dtype=int))

        monkeypatch.setattr(simulation, "_fit_rows", recorded)
        S, R = len(design.sigma_grid), design.replicates
        cells = np.stack(np.divmod(np.arange(S * R), R), axis=1)
        _, rejected, redraws, _ = _run_rows(design, cells, len(design.target_names))
        [curves] = fitted
        kept, rejected_at = [], []
        for j, (i, k) in enumerate(cells):
            ys, n, at = replay(design, design.sigma_grid[i], i, k)
            # A row rejected in its chunk is drawn again by _draw_replicate.
            alone = [np.empty(x.size) for x, _ in design.means]
            assert _draw_replicate(design, design.sigma_grid[i], i, k, alone) == (ys is not None, n)
            if ys is not None:
                for a, y in zip(alone, ys):
                    np.testing.assert_array_equal(a, y)
            assert redraws[j] == n
            assert rejected[j] == (ys is None)
            kept += [] if ys is None else [ys]
            rejected_at += at
        assert len(curves) == len(design.means)
        for c, responses in enumerate(curves):
            np.testing.assert_array_equal(responses, np.array([ys[c] for ys in kept]))
        assert rejected.any() and not rejected.all()
        # Some attempts are rejected at each curve.
        assert set(rejected_at) == set(range(len(curves)))


class TestSimDesignValidation:
    def test_sigma_range(self):
        with pytest.raises(ValueError):
            constant_design(sigma_grid=(0.6,))

    def test_sigma_grid_not_empty(self):
        with pytest.raises(ValueError, match="need at least one sigma value"):
            constant_design(sigma_grid=())

    def test_sigma_grid_distinct(self):
        # A summary keeps one table cell per (target, method, sigma), so a
        # repeated sigma would report tables that disagree with its results.
        with pytest.raises(ValueError, match="sigma values must be distinct"):
            default_partial_bleach_design(sigma_grid=(0.02, 0.02), replicates=50,
                                          methods=("ml",))

    def test_replicates_positive(self):
        with pytest.raises(ValueError):
            constant_design(replicates=0)

    def test_max_redraws_not_negative(self):
        # With -1, every replicate would count as rejected after 0 redraws.
        with pytest.raises(ValueError, match="max_redraws must be at least 0"):
            constant_design(max_redraws=-1)
        assert constant_design(max_redraws=0).max_redraws == 0

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            constant_design(methods=("ols",))

    @pytest.mark.parametrize("methods, message", [
        ((), "need at least one method"), (("ml", "ml"), "methods must be distinct")],
        ids=["empty", "repeated"])
    def test_methods_not_empty_or_repeated(self, methods, message):
        for design in (constant_design, default_partial_bleach_design):
            with pytest.raises(ValueError, match=message):
                design(methods=methods)

    def test_two_curve_model_needs_x2(self):
        with pytest.raises(ValueError, match="a two-curve model needs x2"):
            default_partial_bleach_design(x2=None)

    def test_one_curve_model_takes_no_x2(self):
        with pytest.raises(ValueError, match="x2 is only valid for a two-curve model"):
            constant_design(x2=np.arange(5.0))

    def test_unknown_start(self):
        with pytest.raises(ValueError, match="start must be 'theta0' or 'auto'"):
            constant_design(start="truth")

    def test_unknown_fit_mode(self):
        with pytest.raises(ValueError, match="unknown mode 'joint'"):
            constant_design(fit_mode="joint")

    def test_mode_for_is_resolve_modes(self):
        # A dwls-only common-sigma design has no mode for dwls: run_study
        # rejects it, and mode_for raises the same error.
        for fit_mode in (MODE_DEFAULT, MODE_SEPARATE, MODE_COMMON_SIGMA):
            design = default_partial_bleach_design(fit_mode=fit_mode)
            assert {m: design.mode_for(m) for m in METHODS} == resolve_modes(fit_mode, METHODS)
        design = default_partial_bleach_design(methods=("dwls",), fit_mode=MODE_COMMON_SIGMA)
        with pytest.raises(ModeError) as from_mode:
            design.mode_for("dwls")
        with pytest.raises(ModeError) as from_study:
            run_study(design)
        assert str(from_mode.value) == str(from_study.value)


class TestCompareBiasTable:
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