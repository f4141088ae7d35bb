"""Two-curve intersection machinery for the partial bleach design."""

import re
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from propfit import equivalent_dose
from propfit.equivalent_dose import (
    MODE_COMMON_SIGMA,
    MODE_DEFAULT,
    MODE_SEPARATE,
    PartialBleachModel,
    beta1_from_gamma,
    dose_derivatives_batch,
    fit_two_curves,
    fit_two_curves_methods,
    formulae,
    gamma_bias_se,
    gamma_gradient,
    gamma_hessian,
    partial_bleach_model,
    resolve_modes,
    solve_gamma,
)
from propfit.asymptotics import bias_cov
from propfit.estimators import METHODS, FitOptions, equation_residual
from propfit.exceptions import (
    DerivativeNoiseWarning,
    DomainError,
    ModeError,
    MultipleRootWarning,
    NoBracketError,
    NonFiniteError,
    TangencyError,
)
from propfit.jacobian import build_jacobian_bundles, join_bundles
from propfit.models import Dataset
from propfit.simulation import (
    DEFAULT_BLEACHED_DOSES,
    DEFAULT_UNBLEACHED_DOSES,
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


@pytest.fixture(scope="module")
def pb():
    return partial_bleach_model()


@pytest.fixture(scope="module")
def theta0(pb):
    beta1 = beta1_from_gamma(PAPER_ALPHA, PAPER_BETA2, PAPER_BETA3, PAPER_GAMMA)
    return np.concatenate([PAPER_ALPHA, [beta1, PAPER_BETA2, PAPER_BETA3]])


class TestBeta1FromGamma:
    def test_identical_shape_returns_alpha1(self):
        out = beta1_from_gamma(PAPER_ALPHA, PAPER_ALPHA[1], PAPER_ALPHA[2], -50.0)
        assert out == pytest.approx(PAPER_ALPHA[0], rel=1e-14)

    def test_gamma_at_minus_alpha2_gives_zero(self):
        out = beta1_from_gamma(PAPER_ALPHA, PAPER_BETA2, PAPER_BETA3, -PAPER_ALPHA[1])
        assert out == pytest.approx(0.0, abs=1e-9)

    def test_round_trip_at_published_values(self, pb, theta0):
        # The constructed pair must intersect exactly at the published gamma.
        assert solve_gamma(pb, theta0) == pytest.approx(PAPER_GAMMA, abs=1e-4)

    def test_zero_denominator_raises(self):
        with pytest.raises(DomainError):
            beta1_from_gamma(PAPER_ALPHA, 50.0, PAPER_BETA3, -50.0)

    def test_misshapen_parameters_raise(self, pb):
        with pytest.raises(ValueError, match="alpha must be a 3-vector"):
            beta1_from_gamma(PAPER_ALPHA[:2], PAPER_BETA2, PAPER_BETA3, PAPER_GAMMA)
        message = re.escape("joint theta must have shape (6,), got (3,)")
        with pytest.raises(ValueError, match=message):
            pb.split(PAPER_ALPHA)
        with pytest.raises(ValueError, match=message):
            solve_gamma(pb, PAPER_ALPHA)


class TestSolveGamma:
    def test_round_trip_over_gamma_grid(self, pb):
        # Constructions below -alpha2 intersect where both curves go negative;
        # the grid reaches them all the same.
        for gamma in np.linspace(-200.0, -10.0, 9):
            beta1 = beta1_from_gamma(PAPER_ALPHA, PAPER_BETA2, PAPER_BETA3, gamma)
            theta = np.concatenate([PAPER_ALPHA, [beta1, PAPER_BETA2, PAPER_BETA3]])
            assert solve_gamma(pb, theta) == pytest.approx(gamma, abs=1e-4)

    def test_doubled_scale_has_root_at_minus_alpha2(self, pb):
        # curve2 = 2x curve1 with the same shape: the gap is a pure
        # saturating exponential, zero exactly at x = -alpha2.
        theta = np.concatenate([PAPER_ALPHA,
                                [2 * PAPER_ALPHA[0], PAPER_ALPHA[1], PAPER_ALPHA[2]]])
        root = solve_gamma(pb, theta)
        assert root == pytest.approx(-PAPER_ALPHA[1], abs=1e-4)

    def test_identical_curves_are_degenerate(self, pb):
        theta = np.concatenate([PAPER_ALPHA, PAPER_ALPHA])
        with pytest.warns(MultipleRootWarning):
            solve_gamma(pb, theta)

    def test_multiple_root_warning_names_the_calling_line(self, pb):
        # The default filter shows a warning once per line it names, so each
        # call must name its own line, not one inside propfit.
        theta = np.concatenate([PAPER_ALPHA, [396216.15, 123.252, 1155.57]])  # two crossings
        x1, x2 = DEFAULT_UNBLEACHED_DOSES, DEFAULT_BLEACHED_DOSES
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            solve_gamma(pb, theta)
            solve_gamma(pb, theta)
            gamma_bias_se(pb, x1, x2, theta, 0.02, "ml")
            gamma_bias_se(pb, x1, x2, theta, 0.02, "ml")
        assert [w.category for w in caught] == [MultipleRootWarning] * 4
        assert {w.filename for w in caught} == {__file__}
        assert len({w.lineno for w in caught}) == 4

    def test_equal_shapes_cross_once_where_both_vanish(self, pb):
        # Curves with the same shape and different scales meet only where
        # both vanish, at -alpha2: their gap is one exponential, with one root.
        theta = np.concatenate([PAPER_ALPHA,
                                [1.7 * PAPER_ALPHA[0], PAPER_ALPHA[1], PAPER_ALPHA[2]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", MultipleRootWarning)
            gamma = solve_gamma(pb, theta)
        assert gamma == pytest.approx(-PAPER_ALPHA[1], abs=1e-6)

    def test_curves_that_never_cross_widen_until_they_overflow(self, pb):
        # The gap keeps its sign at every dose. Widening stops where the
        # curves overflow, which is no crossing, not a non-finite model.
        theta = np.concatenate([PAPER_ALPHA, APART_BETA])
        with pytest.raises(NoBracketError, match="no sign change") as raised:
            solve_gamma(pb, theta)
        lo, hi = map(float, re.search(r"over \[(\S+), (\S+)\]", str(raised.value)).groups())
        assert hi == 0.0 and lo < -1000.0 * PAPER_ALPHA[1]
        assert np.isfinite(pb.intersection_gap(lo, theta))
        with pytest.raises(NonFiniteError):
            pb.intersection_gap(2.0 * lo, theta)

    def test_curves_that_never_cross_evaluate_each_curve_once(self, pb):
        # One evaluation of each curve on the whole grid finds that the gap
        # keeps its sign down to where the curves overflow.
        calls = Counter()

        def counted(curve):
            def eval_fn(x, t):
                calls[curve.name] += 1
                return curve.eval_fn(x, t)
            return replace(curve, eval_fn=eval_fn)

        model = replace(pb, curve1=counted(pb.curve1), curve2=counted(pb.curve2))
        with pytest.raises(NoBracketError, match="no sign change"):
            solve_gamma(model, np.concatenate([PAPER_ALPHA, APART_BETA]))
        assert calls == {pb.curve1.name: 1, pb.curve2.name: 1}

    def test_the_design_truth_crosses_once(self, pb, theta0):
        with warnings.catch_warnings():
            warnings.simplefilter("error", MultipleRootWarning)
            gamma = solve_gamma(pb, theta0)
        assert gamma == pytest.approx(PAPER_GAMMA, abs=1e-4)

    def test_turning_point_matches_its_closed_form(self, pb, theta0):
        # The gap's slope vanishes at [log(b1 a3 / (a1 b3)) + a2/a3 - b2/b3]
        # / (1/b3 - 1/a3), for rates and scales of either sign.
        theta = np.array([theta0,
                          np.concatenate([PAPER_ALPHA, [396216.15, 123.252, 1155.57]]),
                          theta0 * [1.0, 1.0, 1.0, 1.0, 1.0, 0.6],
                          theta0 * [-1.0, 1.0, -1.0, 1.0, -2.0, 1.0],
                          theta0 * [1.0, 1.0, -1.0, -1.0, 1.0, 1.5]])
        a1, a2, a3, b1, b2, b3 = theta.T
        want = (np.log(b1 * a3 / (a1 * b3)) + a2 / a3 - b2 / b3) / (1.0 / b3 - 1.0 / a3)
        got = equivalent_dose._turning_points(pb, theta[:, :3], theta[:, 3:])
        np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_residual_at_root(self, pb, theta0):
        root = solve_gamma(pb, theta0)
        assert abs(pb.intersection_gap(root, theta0)) <= 1e-4

    # Fits from the seed-7 noisy benchmark study (sigma 0.06) whose root a
    # Newton step hits within rounding, so the step lands on the end of the
    # sign change rather than strictly inside it.
    @pytest.mark.parametrize("theta", [
        [162356.6785410878, 134.26624509415657, 523.726252259006,
         86087.97110723687, 165.3175394023404, 588.7783996942084],
        [152082.03094301015, 142.3169967707676, 485.7976710648519,
         99613.39676935818, 164.56516222039923, 743.6465952279838],
        [148849.66871592565, 129.63248364708716, 423.65986670742797,
         91394.62875439963, 157.0533296262342, 628.2708280359167],
    ], ids=("simulate-005", "simulate-006", "simulate-011"))
    def test_newton_step_on_the_bracket_end_stops_at_its_root(self, pb, theta):
        theta = np.array(theta)
        calls = Counter()

        def counted(curve):
            def dx_fn(x, t):
                calls[curve.name] += 1
                return curve.dx_fn(x, t)
            return replace(curve, dx_fn=dx_fn)

        model = replace(pb, curve1=counted(pb.curve1), curve2=counted(pb.curve2))
        gamma = solve_gamma(model, theta)
        # One slope per curve in each polish iteration.
        assert calls[pb.curve1.name] == calls[pb.curve2.name] <= 4
        alpha, beta = pb.split(theta)
        step = pb.intersection_gap(gamma, theta) / (pb.curve1.dx(gamma, alpha)
                                                    - pb.curve2.dx(gamma, beta))
        assert abs(step) <= 1e-12 * abs(gamma)

    def test_polish_out_of_iterations_returns_its_last_iterate(self, pb, theta0, monkeypatch):
        a, b = -128.0, -64.0  # the grid's cell around the truth's root
        ga, gb = pb.intersection_gap(np.array([a, b]), theta0)
        alpha, beta = pb.split(theta0)
        x = b - gb * (b - a) / (gb - ga)
        args = (pb, alpha[None, :], beta[None, :], np.array([a]), np.array([b]),
                np.array([ga]), np.array([gb]), np.array([1e-8 * (b - a)]))
        root = equivalent_dose._polish(*args)[0]
        monkeypatch.setattr(equivalent_dose, "_POLISH_MAX_ITER", 1)
        last = equivalent_dose._polish(*args)[0]
        # One Newton step from the secant's root, inside the sign change, and
        # short of the root.
        newton = x - pb.intersection_gap(x, theta0) / (pb.curve1.dx(x, alpha)
                                                       - pb.curve2.dx(x, beta))
        assert a < last < b and last == pytest.approx(newton, rel=1e-12)
        assert abs(last - root) > 1e-8 * (b - a)


class TestGammaGradient:
    def test_identical_curves_raise_tangency(self, pb):
        theta = np.concatenate([PAPER_ALPHA, PAPER_ALPHA])
        with pytest.raises(TangencyError, match="curves meet tangentially"):
            gamma_gradient(pb, theta, -50.0)

    def test_against_resolve_oracle(self, pb, theta0):
        # Oracle: perturb each component, re-solve the intersection.
        gamma = solve_gamma(pb, theta0)
        grad = gamma_gradient(pb, theta0, gamma)
        fd = np.empty(6)
        for j in range(6):
            h = 1e-5 * max(1.0, abs(theta0[j]))
            tp, tm = theta0.copy(), theta0.copy()
            tp[j] += h
            tm[j] -= h
            fd[j] = (solve_gamma(pb, tp) - solve_gamma(pb, tm)) / (2 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-4)

    def test_shifted_scale_construction(self, pb):
        # With curve2 = 2x curve1 the root sits at -alpha2.  There
        # g_alpha2 = a1/a3, g_beta2 = -2 a1/a3 and g_x = -a1/a3, so the
        # implicit derivatives are +1 and -2; moving both shifts together
        # moves the root by -1, i.e. the root rides the common shift.
        theta = np.concatenate([PAPER_ALPHA,
                                [2 * PAPER_ALPHA[0], PAPER_ALPHA[1], PAPER_ALPHA[2]]])
        gamma = solve_gamma(pb, theta)
        grad = gamma_gradient(pb, theta, gamma)
        assert grad[1] == pytest.approx(1.0, rel=1e-6)
        assert grad[4] == pytest.approx(-2.0, rel=1e-6)
        assert grad[1] + grad[4] == pytest.approx(-1.0, rel=1e-6)

    def test_joint_scaling_leaves_shape_components(self, pb, theta0):
        # Scaling both curve scales by c leaves gamma and its shape
        # derivatives unchanged; scale derivatives shrink by 1/c.
        c = 2.5
        scaled = theta0 * np.array([c, 1, 1, c, 1, 1])
        g0 = solve_gamma(pb, theta0)
        g1 = solve_gamma(pb, scaled)
        assert g1 == pytest.approx(g0, abs=1e-6)
        d0 = gamma_gradient(pb, theta0, g0)
        d1 = gamma_gradient(pb, scaled, g1)
        np.testing.assert_allclose(d1[[1, 2, 4, 5]], d0[[1, 2, 4, 5]], rtol=1e-8)
        np.testing.assert_allclose(d1[[0, 3]], d0[[0, 3]] / c, rtol=1e-8)

    def test_hessian_against_resolve_oracle(self, pb, theta0):
        gamma = solve_gamma(pb, theta0)
        hess = gamma_hessian(pb, theta0, gamma)
        np.testing.assert_allclose(hess, hess.T, rtol=1e-12)
        fd = np.empty((6, 6))
        for j in range(6):
            hj = 2e-4 * max(1.0, abs(theta0[j]))
            for k in range(j, 6):
                hk = 2e-4 * max(1.0, abs(theta0[k]))
                tpp, tpm, tmp, tmm = (theta0.copy() for _ in range(4))
                tpp[j] += hj; tpp[k] += hk
                tpm[j] += hj; tpm[k] -= hk
                tmp[j] -= hj; tmp[k] += hk
                tmm[j] -= hj; tmm[k] -= hk
                fd[j, k] = fd[k, j] = (solve_gamma(pb, tpp) - solve_gamma(pb, tpm)
                                       - solve_gamma(pb, tmp) + solve_gamma(pb, tmm)) / (4 * hj * hk)
        scale = np.max(np.abs(hess))
        assert np.max(np.abs(hess - fd)) <= 2e-3 * scale


    def test_dose_derivatives_evaluate_each_curve_once(self, pb, theta0):
        # Per curve: gradient and slope at gamma - h, gamma, gamma + h in one
        # call each, and the Hessian at gamma.
        calls = Counter()

        def counted(curve):
            def wrap(name):
                fn = getattr(curve, name)

                def inner(x, t):
                    calls[name] += 1
                    return fn(x, t)
                return inner
            return replace(curve, **{name: wrap(name)
                                     for name in ("grad_fn", "dx_fn", "hess_fn")})

        model = replace(pb, curve1=counted(pb.curve1), curve2=counted(pb.curve2))
        gamma = solve_gamma(model, theta0)
        solving = Counter(calls)  # the root polish's own slope evaluations
        calls.clear()
        dose = dose_derivatives_batch(model, theta0[None, :])[0]
        calls.subtract(solving)
        assert +calls == Counter(grad_fn=2, dx_fn=2, hess_fn=2)
        assert dose.gamma == gamma
        np.testing.assert_array_equal(dose.grad, gamma_gradient(pb, theta0, gamma))
        np.testing.assert_array_equal(dose.hess, gamma_hessian(pb, theta0, gamma))


class TestGammaBiasSe:
    def test_sigma_scaling(self, pb, theta0):
        x1, x2 = DEFAULT_UNBLEACHED_DOSES, DEFAULT_BLEACHED_DOSES
        small = gamma_bias_se(pb, x1, x2, theta0, 1e-4, "ql")
        big = gamma_bias_se(pb, x1, x2, theta0, 1e-3, "ql")
        assert big.bias / small.bias == pytest.approx(100.0, rel=1e-6)
        assert big.se / small.se == pytest.approx(10.0, rel=1e-6)

    def test_ml_and_wls_doses_biases_close(self, pb, theta0):
        # The scale-direction bias difference barely moves the intersection.
        x1, x2 = DEFAULT_UNBLEACHED_DOSES, DEFAULT_BLEACHED_DOSES
        ml = gamma_bias_se(pb, x1, x2, theta0, 0.01, "ml", fit_mode=MODE_COMMON_SIGMA)
        wls = gamma_bias_se(pb, x1, x2, theta0, 0.01, "wls")
        assert abs(ml.bias - wls.bias) <= 0.1 * abs(wls.bias)

    def test_bias_ordering_across_methods(self, pb, theta0):
        x1, x2 = DEFAULT_UNBLEACHED_DOSES, DEFAULT_BLEACHED_DOSES
        for sigma in (0.01, 0.02, 0.03, 0.04, 0.05, 0.06):
            by = {}
            for m in ("ml", "ql", "wls", "dwls"):
                mode = MODE_COMMON_SIGMA if m == "ml" else MODE_SEPARATE
                by[m] = gamma_bias_se(pb, x1, x2, theta0, sigma, m, fit_mode=mode).bias
            assert all(b < 0 for b in by.values())
            assert abs(by["dwls"]) > abs(by["ql"]) > abs(by["ml"])

    def test_dose_estimate_fields(self, pb, theta0):
        est = gamma_bias_se(pb, DEFAULT_UNBLEACHED_DOSES, DEFAULT_BLEACHED_DOSES,
                            theta0, 0.02, "ql")
        assert est.gamma_hat == pytest.approx(PAPER_GAMMA, abs=1e-4)
        assert est.equivalent_dose == pytest.approx(-PAPER_GAMMA, abs=1e-4)
        assert est.equivalent_dose_bias == -est.bias  # gamma < 0 flips the sign
        assert est.se > 0

    def test_dwls_rejects_common_sigma(self, pb, theta0):
        with pytest.raises(ModeError):
            gamma_bias_se(pb, DEFAULT_UNBLEACHED_DOSES, DEFAULT_BLEACHED_DOSES,
                          theta0, 0.02, "dwls", fit_mode=MODE_COMMON_SIGMA)

    def test_curves_without_analytic_derivatives(self, pb, theta0):
        # Finite-difference curves get common-sigma formulae too, close to the
        # analytic ones: from gamma_bias_se and from a default-mode study's B_T.
        fd = PartialBleachModel(*(replace(c, grad_fn=None, hess_fn=None)
                                  for c in (pb.curve1, pb.curve2)))
        design = default_partial_bleach_design(sigma_grid=(0.02,), replicates=20,
                                               master_seed=4)
        with pytest.warns(DerivativeNoiseWarning):
            got = gamma_bias_se(fd, design.x1, design.x2, theta0, 0.02, "ml",
                                fit_mode=MODE_COMMON_SIGMA)
            fd_summary = run_study(replace(design, model=fd))
        want = gamma_bias_se(pb, design.x1, design.x2, theta0, 0.02, "ml",
                             fit_mode=MODE_COMMON_SIGMA)
        assert got.bias == pytest.approx(want.bias, rel=1e-4)
        assert got.se == pytest.approx(want.se, rel=1e-6)
        summary = run_study(design)
        for method in design.methods:
            fd_cell = fd_summary.entry(method, 0.02).cell("gamma")
            cell = summary.entry(method, 0.02).cell("gamma")
            assert fd_cell.b_t == pytest.approx(cell.b_t, abs=5e-5), method
            assert fd_cell.b_s == pytest.approx(cell.b_s, rel=1e-6), method


class TestStackedModel:
    def test_eval_and_grad_block_structure(self, pb, theta0):
        joint, idx = stacked_model(pb, DEFAULT_UNBLEACHED_DOSES, DEFAULT_BLEACHED_DOSES)
        n1 = DEFAULT_UNBLEACHED_DOSES.size
        f = joint.eval(idx, theta0)
        np.testing.assert_allclose(
            f[:n1], np.asarray(pb.curve1.eval(DEFAULT_UNBLEACHED_DOSES, theta0[:3])),
            rtol=1e-14)
        G = joint.grad(idx, theta0)
        assert np.all(G[:n1, 3:] == 0.0)
        assert np.all(G[n1:, :3] == 0.0)

    def test_only_its_index_covariate(self, pb, theta0):
        joint, idx = stacked_model(pb, DEFAULT_UNBLEACHED_DOSES, DEFAULT_BLEACHED_DOSES)
        for covariate in (idx[:5], idx[::-1], 0.0):
            with pytest.raises(ValueError, match="covariate is the index 0..28"):
                joint.eval_fn(covariate, theta0)

    def test_fd_agreement(self, pb, theta0):
        from propfit.models import fd_check

        joint, idx = stacked_model(pb, DEFAULT_UNBLEACHED_DOSES[:4], DEFAULT_BLEACHED_DOSES[:4])
        rep = fd_check(joint, theta0, idx)
        assert rep.passed


class TestJoinBundles:
    """Joined per-curve bundles against the stacked model's bundle (the oracle)."""

    @staticmethod
    def assert_matches_stacked(joined, stacked):
        for name in ("J", "JtJ", "Jbar", "f"):
            np.testing.assert_array_equal(getattr(joined, name), getattr(stacked, name),
                                          err_msg=name)
        for name in ("JtJ_inv", "w1", "w2"):
            np.testing.assert_allclose(getattr(joined, name), getattr(stacked, name),
                                       rtol=1e-13, atol=0.0, err_msg=name)
        for method in METHODS:
            for got, want in zip(bias_cov(method, (joined,), 0.03),
                                 bias_cov(method, (stacked,), 0.03)):
                np.testing.assert_allclose(got, want, rtol=1e-11, atol=0.0, err_msg=method)
        np.testing.assert_array_equal(bias_cov("ml", (joined,), 0.03)[1],
                                      bias_cov("ml", (stacked,), 0.03)[1])

    def test_bundled_design(self, pb, theta0):
        x1, x2 = DEFAULT_UNBLEACHED_DOSES, DEFAULT_BLEACHED_DOSES
        rng = np.random.default_rng(19)
        thetas = theta0 * (1.0 + 0.05 * rng.standard_normal((60, 6)))
        joint, idx = stacked_model(pb, x1, x2)
        rows = zip(build_jacobian_bundles(pb.curve1, x1, thetas[:, :3]),
                   build_jacobian_bundles(pb.curve2, x2, thetas[:, 3:]),
                   build_jacobian_bundles(joint, idx, thetas))
        for one, two, stacked in rows:
            self.assert_matches_stacked(join_bundles((one, two)), stacked)

    def test_short_curve_builds_in_a_shared_scale(self, pb, theta0):
        # A 3-point curve has no bundle of its own, but is a block of the
        # 16 + 3-point common-sigma fit; its separate fit raises.
        x1, x2 = DEFAULT_UNBLEACHED_DOSES, DEFAULT_BLEACHED_DOSES[[0, 7, 12]]
        joint, idx = stacked_model(pb, x1, x2)
        rng = np.random.default_rng(3)
        thetas = theta0 * (1.0 + 0.05 * rng.standard_normal((5, 6)))
        modes = dict.fromkeys(("ml", "ql", "wls"), MODE_COMMON_SIGMA)
        for theta, stacked in zip(thetas, build_jacobian_bundles(joint, idx, thetas)):
            rows = formulae(pb, (x1, x2), dict.fromkeys(modes, theta), modes)
            for row in rows.values():
                (joined,) = row.bundles
                self.assert_matches_stacked(joined, stacked)
        with pytest.raises(ValueError, match="need n > p observations, got n=3, p=3"):
            formulae(pb, (x1, x2), {"ml": theta0}, {"ml": MODE_SEPARATE})


class TestBiasCovOverSigmas:
    """bias_cov on a sigma array against its calls one sigma at a time."""

    @pytest.mark.parametrize("mode", [MODE_SEPARATE, MODE_COMMON_SIGMA])
    def test_each_row_is_its_sigma_alone(self, pb, theta0, mode):
        sigmas = np.array([0.0, 0.01, 0.03, 0.06, 0.45])
        rows = formulae(pb, [DEFAULT_UNBLEACHED_DOSES, DEFAULT_BLEACHED_DOSES],
                        dict.fromkeys(METHODS, theta0), dict.fromkeys(METHODS, mode))
        for method, row in rows.items():
            assert len(row.bundles) == (2 if mode == MODE_SEPARATE else 1)
            bias, cov = bias_cov(method, row.bundles, sigmas)
            assert bias.shape == (5, 6) and cov.shape == (5, 6, 6)
            for sigma, b, c in zip(sigmas, bias, cov):
                alone = bias_cov(method, row.bundles, float(sigma))
                assert alone[0].shape == (6,) and alone[1].shape == (6, 6)
                np.testing.assert_array_equal(b, alone[0], err_msg=f"{method} at {sigma}")
                np.testing.assert_array_equal(c, alone[1], err_msg=f"{method} at {sigma}")


def _noisy_pair(pb, theta0, sigma1, sigma2, seed):
    stream = replicate_stream(seed, 0, 0)
    d1 = generate_dataset(pb.curve1, DEFAULT_UNBLEACHED_DOSES, theta0[:3], sigma1, stream)
    d2 = generate_dataset(pb.curve2, DEFAULT_BLEACHED_DOSES, theta0[3:], sigma2, stream)
    return d1, d2


class TestFitTwoCurves:
    def test_zero_noise_recovers_truth_both_modes(self, pb, theta0):
        d1 = Dataset(DEFAULT_UNBLEACHED_DOSES,
                     np.asarray(pb.curve1.eval(DEFAULT_UNBLEACHED_DOSES, theta0[:3])))
        d2 = Dataset(DEFAULT_BLEACHED_DOSES,
                     np.asarray(pb.curve2.eval(DEFAULT_BLEACHED_DOSES, theta0[3:])))
        for mode in (MODE_SEPARATE, MODE_COMMON_SIGMA):
            res = fit_two_curves(pb, d1, d2, "ml", mode=mode,
                                 opts=FitOptions(start=theta0))
            assert res.converged
            np.testing.assert_allclose(res.theta_hat, theta0, rtol=1e-8)

    @pytest.mark.parametrize("method", ["ql", "wls"])
    def test_separate_equals_simultaneous_for_sigma_free_equations(self, pb, theta0, method):
        d1, d2 = _noisy_pair(pb, theta0, 0.02, 0.02, seed=81)
        opts = FitOptions(start=theta0)
        sep = fit_two_curves(pb, d1, d2, method, mode=MODE_SEPARATE, opts=opts)
        sim = fit_two_curves(pb, d1, d2, method, mode=MODE_COMMON_SIGMA, opts=opts)
        np.testing.assert_allclose(sep.theta_hat, sim.theta_hat, rtol=1e-8)

    def test_every_entry_point_takes_the_default_mode(self, pb, theta0):
        # "default": ML shares the scale, the others fit separately.
        d1, d2 = _noisy_pair(pb, theta0, 0.01, 0.06, seed=85)
        x1, x2, opts = d1.x, d2.x, FitOptions(start=theta0)
        for method, mode in resolve_modes(MODE_DEFAULT, ("ml", "ql")).items():
            res = fit_two_curves(pb, d1, d2, method, MODE_DEFAULT, opts)
            same = fit_two_curves(pb, d1, d2, method, mode, opts)
            assert res.mode == mode
            np.testing.assert_array_equal(res.theta_hat, same.theta_hat)
            assert res.sigma_hats == same.sigma_hats
            bundles = formulae(pb, (x1, x2), {method: theta0},
                               resolve_modes(MODE_DEFAULT, (method,)))[method].bundles
            assert len(bundles) == (1 if mode == MODE_COMMON_SIGMA else 2)
            assert gamma_bias_se(pb, x1, x2, theta0, 0.02, method, MODE_DEFAULT) == \
                gamma_bias_se(pb, x1, x2, theta0, 0.02, method, mode)

    def test_resolve_modes(self):
        assert resolve_modes(MODE_COMMON_SIGMA, ("ML", "dwls")) == {
            "ml": MODE_COMMON_SIGMA, "dwls": MODE_SEPARATE}
        assert resolve_modes(MODE_SEPARATE, ("dwls",)) == {"dwls": MODE_SEPARATE}
        with pytest.raises(ModeError, match="no scale to share"):
            resolve_modes(MODE_COMMON_SIGMA, ("dwls",))
        with pytest.raises(ValueError, match="unknown mode 'joint'"):
            resolve_modes("joint", ("ml",))

    def test_dwls_mode_error(self, pb, theta0):
        d1, d2 = _noisy_pair(pb, theta0, 0.02, 0.02, seed=82)
        with pytest.raises(ModeError):
            fit_two_curves(pb, d1, d2, "dwls", mode=MODE_COMMON_SIGMA)

    def test_ml_common_sigma_differs_on_asymmetric_noise(self, pb, theta0):
        d1, d2 = _noisy_pair(pb, theta0, 0.01, 0.06, seed=83)
        opts = FitOptions(start=theta0)
        sep = fit_two_curves(pb, d1, d2, "ml", mode=MODE_SEPARATE, opts=opts)
        com = fit_two_curves(pb, d1, d2, "ml", mode=MODE_COMMON_SIGMA, opts=opts)
        assert sep.converged and com.converged
        gap = np.max(np.abs(sep.theta_hat - com.theta_hat))
        assert gap > 10.0 * max(sep.tolerance, com.tolerance)
        assert len(sep.sigma_hats) == 2
        assert len(com.sigma_hats) == 1

    def test_joint_root_contract(self, pb, theta0):
        d1, d2 = _noisy_pair(pb, theta0, 0.02, 0.02, seed=84)
        res = fit_two_curves(pb, d1, d2, "ml", mode=MODE_COMMON_SIGMA,
                             opts=FitOptions(start=theta0))
        joint, idx = stacked_model(pb, d1.x, d2.x)
        stacked_data = Dataset(idx, np.concatenate([d1.y, d2.y]))
        r = equation_residual("ml", joint, stacked_data, res.theta_hat)
        assert np.max(np.abs(r)) <= res.tolerance


class TestAutoStart:
    def test_separable_start_cuts_iterations(self, pb, theta0):
        # The 32 two-curve datasets the benchmark draws for seed 7 at sigma
        # 0.03. From the heuristic start alone (1.05 max y and the medians)
        # the ql fits take 11.1 iterations on average, 7.2 of them in the
        # start's solve; from the separable one, 6.9.
        alpha, beta = theta0[:3], theta0[3:]
        Y1, Y2 = [], []
        for k in range(32):
            stream = replicate_stream(7, 0, k)
            Y1.append(generate_dataset(pb.curve1, DEFAULT_UNBLEACHED_DOSES, alpha, 0.03, stream).y)
            Y2.append(generate_dataset(pb.curve2, DEFAULT_BLEACHED_DOSES, beta, 0.03, stream).y)
        batch = fit_two_curves_methods(pb, DEFAULT_UNBLEACHED_DOSES, np.array(Y1),
                                       DEFAULT_BLEACHED_DOSES, np.array(Y2), ("ql",),
                                       opts=FitOptions(start="auto"))["ql"]
        assert batch.converged.all()
        assert np.mean(batch.iterations) <= 8.0
