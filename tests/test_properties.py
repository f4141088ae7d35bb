"""Invariances of the estimating equations, the start hint, the fits and
the dose root, checked on drawn examples."""

import warnings

import numpy as np
from hypothesis import assume, given, settings
from hypothesis.extra import numpy as hnp
from scipy.optimize import brentq
from hypothesis import strategies as st

from propfit import _newton, equivalent_dose
from propfit.equivalent_dose import MODE_COMMON_SIGMA, fit_two_curves_methods, solve_gamma_batch
from propfit.estimators import METHODS, equation_residual, fit_methods
from propfit.exceptions import MultipleRootWarning
from propfit.models import (
    Dataset,
    constant_model,
    exponential_decay_model,
    saturating_exponential_model,
    scaled_shape_model,
)
from propfit.simulation import (
    DEFAULT_BLEACHED_DOSES,
    DEFAULT_UNBLEACHED_DOSES,
    WARM_START_CAP,
    _guarded_starts,
    default_partial_bleach_design,
)
from conftest import PAPER_ALPHA

MODEL = saturating_exponential_model()
X = DEFAULT_UNBLEACHED_DOSES
DESIGN = default_partial_bleach_design()
PB, THETA0 = DESIGN.model, DESIGN.theta0


@given(k=st.integers(-64, 64),
       shape=st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3),
       noise=st.lists(st.floats(-0.5, 0.5), min_size=X.size, max_size=X.size))
def test_equation_residual_is_scale_equivariant(k, shape, noise):
    # y -> c y with theta1 -> c theta1 multiplies every mean by c. With c a
    # power of two that is exact in floating point, and the weights, scaled
    # by a power of c, stay exact too: G's entry for theta1 (its gradient is
    # f / theta1) scales by 1/c and the others do not move, bit for bit.
    theta = PAPER_ALPHA * np.array(shape)
    y = MODEL.eval(X, theta) * (1.0 + np.array(noise))
    c = 2.0 ** k
    for method in METHODS:
        G = equation_residual(method, MODEL, Dataset(X, y), theta)
        scaled = equation_residual(method, MODEL, Dataset(X, c * y), theta * [c, 1.0, 1.0])
        np.testing.assert_array_equal(scaled, G * [1.0 / c, 1.0, 1.0], err_msg=method)


def _hint_row(shape, noise, fallback):
    """A response row for the start hint: noisy means at ``PAPER_ALPHA *
    shape``, all positive (the separable branch), or with its first value
    negated (the fallback, with a positive largest value)."""
    y = MODEL.eval(X, PAPER_ALPHA * np.array(shape)) * (1.0 + np.array(noise))
    if fallback:
        y[0] = -y[0]
    return y


HINT_ROW = st.builds(_hint_row, st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3),
                     st.lists(st.floats(-0.3, 0.3), min_size=X.size, max_size=X.size),
                     st.booleans())


@given(k=st.integers(-64, 64), y=HINT_ROW)
def test_start_hint_is_power_of_two_equivariant(k, y):
    # Every sum, product and quotient of the separable hint, and the
    # fallback's 1.05 max(y) and median(y)/a1, scale exactly by a power of
    # two, so a1 follows y bit for bit and a2, a3 do not move.
    c = 2.0 ** k
    hint = MODEL.start_hint(X, y)
    # The fallback's a3 is the dose span, which is not on the separable grid.
    assert (hint[2] == np.ptp(X)) == (y[0] < 0)
    np.testing.assert_array_equal(MODEL.start_hint(X, c * y), hint * [c, 1.0, 1.0])


@given(rows=st.lists(st.builds(_hint_row, st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3),
                               st.lists(st.floats(-0.3, 0.3), min_size=X.size, max_size=X.size),
                               st.just(False)),
                     min_size=1, max_size=4))
def test_equation_vanishes_at_the_returned_root(rows):
    # Every response is positive, so dwls applies too. A row that did not
    # fail reports max|G| at its estimate: equation_residual's bits, since a
    # one-curve stack is unpadded. A converged row's is within its tolerance.
    Y = np.array(rows)
    fits = fit_methods(MODEL, X, Y, METHODS)
    for method, batch in fits.items():
        for r, y in enumerate(Y):
            if batch.errors[r] is not None:
                continue
            norm = np.max(np.abs(equation_residual(method, MODEL, Dataset(X, y),
                                                   batch.theta_hat[r])))
            assert norm == batch.residual_norm[r], method
            assert norm <= batch.tolerance[r] or not batch.converged[r], method


@given(rows=st.lists(HINT_ROW, min_size=1, max_size=6))
def test_start_hint_rows_do_not_depend_on_the_stack(rows):
    Y = np.array(rows)
    together = MODEL.start_hint(X, Y)
    assert together.shape == (len(rows), 3)
    for y, hint in zip(Y, together):
        np.testing.assert_array_equal(MODEL.start_hint(X, y), hint)
    np.testing.assert_array_equal(MODEL.start_hint(X, Y[::-1]), together[::-1])


@given(scales=st.lists(st.lists(st.floats(0.6, 1.6), min_size=6, max_size=6),
                       min_size=1, max_size=8))
def test_solve_gamma_batch_rows_do_not_depend_on_the_stack(scales):
    # Rows near the design's truth: most cross once, some twice or not at
    # all; each row's root or error is its own.
    theta = THETA0 * np.array(scales)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MultipleRootWarning)
        gammas, errors = solve_gamma_batch(PB, theta)
        for r in range(len(theta)):
            alone, alone_errors = solve_gamma_batch(PB, theta[r:r + 1])
            np.testing.assert_array_equal(gammas[r], alone[0])
            assert repr(errors[r]) == repr(alone_errors[0])


def _either_sign(low, high):
    return st.floats(low, high).flatmap(lambda v: st.sampled_from((v, -v)))


CURVE = st.tuples(_either_sign(1e4, 1e6), st.floats(-300.0, 300.0), _either_sign(20.0, 2000.0))


@st.composite
def _close_pair(draw):
    """Curve 1 drawn, and curve 2 built so that the gap turns at ``t`` with
    the value ``delta``: two roots close about ``t`` where ``delta`` has the
    sign of the gap far from it, else none. With equal rates the
    exponentials cancel and the gap is the constant ``delta``, so the rates
    differ."""
    a1, a2, a3 = draw(CURVE)
    b3 = draw(_either_sign(20.0, 2000.0))
    assume(abs(b3 - a3) > 1e-6 * abs(a3))
    t = draw(st.floats(-5000.0, -1.0))
    delta = draw(_either_sign(1e-6, 1e-2)) * abs(a1)
    with np.errstate(all="ignore"):
        e1 = np.exp(-(t + a2) / a3)
        slope = a1 * e1 / a3  # both curves' slope at t
        b1 = a1 * (1.0 - e1) + b3 * slope - delta
        b2 = -t - b3 * np.log(b3 * slope / b1)
    assume(np.isfinite(b1) and np.isfinite(b2))
    return (a1, a2, a3), (float(b1), float(b2), b3)


@given(curves=st.one_of(st.tuples(CURVE, CURVE), _close_pair()))
def test_root_count_matches_a_dense_grid(curves):
    # Two saturating exponentials of any signs: the gap's slope vanishes at
    # most once, at its closed-form turning point, so a dense grid through
    # that point brackets every root alone. Over the same finite range the
    # solver finds as many roots (0, 1 or, warning, more) and the same first
    # one going down from 0.
    theta = np.array(curves[0] + curves[1])
    a1, a2, a3, b1, b2, b3 = theta
    with np.errstate(all="ignore"):
        turn = (np.log(b1 * a3 / (a1 * b3)) + a2 / a3 - b2 / b3) / (1.0 / b3 - 1.0 / a3)
        f1, f2 = PB.curve1.eval_fn(turn, theta[:3])[0], PB.curve2.eval_fn(turn, theta[3:])[0]
        tangent = abs(f1 - f2) <= 1e-9 * (abs(f1) + abs(f2))
    # Pairs whose roots rounding decides are left out: curves whose
    # parameters agree to 1e-6, whose gap is near its rounding everywhere;
    # curves that meet tangentially, whose gap is near it at the turning
    # point; and curves with one asymptote below 0 (scales within 1e-6,
    # negative rates), whose gap is near it wherever both exponentials are
    # below eps.
    apart = np.abs(theta[:3] - theta[3:]) > 1e-6 * np.maximum(np.abs(theta[:3]), 1.0)
    assume(apart.any() and not tangent)
    assume(apart[0] or a3 > 0.0 or b3 > 0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gammas, errors = solve_gamma_batch(PB, theta[None, :])
    found = 0 if errors[0] is not None else 2 if caught else 1

    coarse = np.concatenate([[0.0], -np.exp2(np.arange(48))])
    if -2.0 ** 47 < turn < 0.0:
        coarse = np.sort(np.append(coarse, turn))[::-1]
    with np.errstate(all="ignore"):
        coarse = coarse[np.logical_and.accumulate(np.isfinite(_gap(coarse, theta)))]
        dense = np.concatenate([np.linspace(hi, lo, 17)[:-1] for hi, lo in
                                zip(coarse[:-1], coarse[1:])] + [coarse[-1:]])
        g = _gap(dense, theta)
    changes = np.flatnonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0.0)
    zeros = np.flatnonzero(g == 0.0)
    assert changes.size + zeros.size <= 2
    assert min(changes.size + zeros.size, 2) == found
    if not found:
        return
    if zeros.size and not (changes.size and changes[0] < zeros[0]):
        root = dense[zeros[0]]
    else:
        k = changes[0]
        root = brentq(lambda x: _gap(x, theta)[0], dense[k + 1], dense[k],
                      xtol=1e-14 * max(1.0, -dense[k + 1]))
    # Near a root the computed gap is noise of a few ulps of the curves, so
    # a root is known to that noise over the gap's slope.
    x = np.array([root])
    size = np.abs(PB.curve1.eval_fn(x, theta[:3])) + np.abs(PB.curve2.eval_fn(x, theta[3:]))
    slope = PB.curve1.dx_rows(x, theta[:3]) - PB.curve2.dx_rows(x, theta[3:])
    noise = 64 * np.finfo(float).eps * size[0] / abs(slope[0])
    assert abs(gammas[0] - root) <= 1e-9 * max(1.0, abs(root)) + noise


def _gap(x, theta):
    """The gap of the two curves at ``x``, with no domain or finiteness check."""
    return PB.curve1.eval_fn(x, theta[:3]) - PB.curve2.eval_fn(x, theta[3:])


def _pair(shape, noise1, noise2):
    """A dataset pair: noisy means of both curves at ``THETA0 * shape``."""
    theta = THETA0 * np.array(shape)
    return (PB.curve1.eval(X, theta[:3]) * (1.0 + np.array(noise1)),
            PB.curve2.eval(DEFAULT_BLEACHED_DOSES, theta[3:]) * (1.0 + np.array(noise2)))


PAIR = st.builds(_pair, st.lists(st.floats(0.8, 1.25), min_size=6, max_size=6),
                 st.lists(st.floats(-0.2, 0.2), min_size=X.size, max_size=X.size),
                 st.lists(st.floats(-0.2, 0.2), min_size=DEFAULT_BLEACHED_DOSES.size,
                          max_size=DEFAULT_BLEACHED_DOSES.size))


@settings(max_examples=40)
@given(pairs=st.lists(PAIR, min_size=1, max_size=3))
def test_common_sigma_pairs_do_not_depend_on_the_stack(pairs):
    # Every method in common-sigma mode (ML's rows coupled as solver pairs),
    # from each curve's hint: a pair's numbers and error are its own, alone,
    # in the stack and in the reversed stack.
    Y1, Y2 = (np.array(c) for c in zip(*pairs))

    def fits(rows):
        return fit_two_curves_methods(PB, X, Y1[rows], DEFAULT_BLEACHED_DOSES, Y2[rows],
                                      METHODS, MODE_COMMON_SIGMA)

    together, backwards = fits(slice(None)), fits(slice(None, None, -1))
    for r in range(len(pairs)):
        alone = fits(slice(r, r + 1))
        for method, batch in together.items():
            for other, i in ((alone[method], 0), (backwards[method], len(pairs) - 1 - r)):
                for name in ("theta_hat", "sigma_hats", "iterations", "converged",
                             "residual_norm", "tolerance"):
                    np.testing.assert_array_equal(getattr(batch, name)[r],
                                                  getattr(other, name)[i], err_msg=method)
                assert repr(batch.errors[r]) == repr(other.errors[i]), method


CONTRACTION_ROW = st.tuples(
    st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3),
    st.lists(st.floats(-1e3, 1e3), min_size=X.size, max_size=X.size),
    st.integers(1, X.size))


@given(rows=st.lists(CONTRACTION_ROW, min_size=1, max_size=4))
def test_contracted_hessian_matches_the_hessian_stack(rows):
    # Rows padded after their first ``live`` observations, as a solver stack
    # pads a short curve: pads repeat the last dose and weigh zero.
    live = np.array([n for _, _, n in rows])
    pad = np.arange(X.size) >= live[:, None]
    theta = PAPER_ALPHA * np.array([shape for shape, _, _ in rows])
    x = np.where(pad, X[live - 1, None], X)
    c = np.where(pad, 0.0, np.array([w for _, w, _ in rows]))
    H = MODEL.hess_rows(x, theta)
    want = np.einsum("ri,rijk->rjk", c, H)
    size = np.einsum("ri,rijk->rjk", np.abs(c), np.abs(H)).max(axis=(-2, -1))
    gap = np.abs(MODEL.whess_rows(x, theta, c) - want).max(axis=(-2, -1))
    assert np.all(gap <= 1e-13 * size), gap / size


# Each built-in model, with a reference parameter row and the covariate range
# its rows are drawn over.
ROW_MODELS = {
    "constant": (constant_model(), [2.0], 10.0),
    "exponential": (exponential_decay_model(), [10.0, 3.0], 8.0),
    "saturating_exponential": (MODEL, PAPER_ALPHA, 1000.0),
    "scaled_shape": (scaled_shape_model(lambda x: 1.0 + x), [4.0], 4.0),
}
# Entries a drawn stack may set to make its row fault: zero is the domain
# guard's fault for a rate or a scale.
ROW_POISON = st.sampled_from([0.0, np.nan, np.inf])


@given(name=st.sampled_from(sorted(ROW_MODELS)), rows=st.integers(1, 5), data=st.data())
def test_model_rows_do_not_depend_on_the_stack(name, rows, data):
    # Every per-row method on an (R, p) stack, each row with its own
    # covariates and weights, gives each row bit for bit what it gives alone.
    model, reference, span = ROW_MODELS[name]
    theta = np.asarray(reference) * data.draw(
        hnp.arrays(float, (rows, model.p), elements=st.floats(-2.0, 2.0)))
    for r, j, value in data.draw(st.lists(st.tuples(
            st.integers(0, rows - 1), st.integers(0, model.p - 1), ROW_POISON), max_size=2)):
        theta[r, j] = value
    x = data.draw(hnp.arrays(float, (rows, 6), elements=st.floats(-0.2 * span, span)))
    c = data.draw(hnp.arrays(float, (rows, 6), elements=st.floats(-1e3, 1e3)))
    with np.errstate(all="ignore"):
        f, fault = model.eval_rows(x, theta)
        stack = {"grad_rows": model.grad_rows(x, theta), "hess_rows": model.hess_rows(x, theta),
                 "dx_rows": model.dx_rows(x, theta), "whess_rows": model.whess_rows(x, theta, c)}
        assert fault.shape == (rows,)
        for r in range(rows):
            f_r, fault_r = model.eval_rows(x[r], theta[r])
            np.testing.assert_array_equal(f[r], f_r, strict=True)
            assert fault[r] == fault_r
            for method, got in stack.items():
                extra = (c[r],) if method == "whess_rows" else ()
                alone = getattr(model, method)(x[r], theta[r], *extra)
                np.testing.assert_array_equal(got[r], alone, strict=True, err_msg=method)


# The ops a stack applies pairwise, each with the values it applies it to.
PAIRWISE_OPS = ((np.add, np.dtype(float)), (np.add, np.dtype(int)), (np.maximum, np.dtype(float)),
                (np.logical_or, np.dtype(bool)), (np.logical_and, np.dtype(bool)))


@given(pairs=st.integers(0, 3), alone=st.integers(0, 2), width=st.integers(0, 3),
       op=st.sampled_from(PAIRWISE_OPS), data=st.data())
def test_pairwise_matches_its_repeat_definition(pairs, alone, width, op, data):
    # Both rows of a pair set to ``op`` of their two values, as ``np.repeat``
    # of the pairs' values defines it, bit for bit, on 1-D and 2-D values
    # (``width`` 0 is 1-D).
    op, dtype = op
    rows = 2 * pairs + alone
    v = data.draw(hnp.arrays(dtype, (rows, width) if width else (rows,)))
    stack = _newton._Data((MODEL,), np.zeros(rows, dtype=int), X, np.ones((rows, X.size)),
                          np.full(rows, X.size), None, None, pairs)
    want = v.copy()
    if pairs:
        two = 2 * pairs
        want[:two] = np.repeat(op(v[0:two:2], v[1:two:2]), 2, axis=0)
    got = stack.pairwise(op, v)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@given(p=st.integers(1, 6), rows=st.integers(1, 6), data=st.data())
def test_guarded_starts_shorten_each_row_alone(p, rows, data):
    # Steps within the cap, past it, on zero components of theta0, not
    # finite, and all zero. Each row starts at theta0 + t * step with
    # t = min(1, min_j cap |theta0_j| / |step_j|), the minimum taken over the
    # components past the cap, or at theta0 where the step is not finite,
    # whatever the other rows.
    theta0 = data.draw(hnp.arrays(float, p, elements=st.one_of(
        st.just(0.0), _either_sign(1e-3, 1e6))))
    steps = theta0 * data.draw(hnp.arrays(float, (rows, p), elements=st.floats(-2.0, 2.0)))
    for r, j, value in data.draw(st.lists(st.tuples(
            st.integers(0, rows - 1), st.integers(0, p - 1),
            st.sampled_from([np.nan, np.inf, -np.inf, 1.0])), max_size=3)):
        steps[r, j] = value
    for r in data.draw(st.lists(st.integers(0, rows - 1), max_size=2)):
        steps[r] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        starts = _guarded_starts(theta0, steps)
        for r in range(rows):
            np.testing.assert_array_equal(_guarded_starts(theta0, steps[r:r + 1])[0], starts[r],
                                          strict=True)
    reach = WARM_START_CAP * np.abs(theta0)
    for step, start in zip(steps, starts):
        if not np.all(np.isfinite(step)):
            np.testing.assert_array_equal(start, theta0, strict=True)
        elif np.all(np.abs(step) <= reach):
            np.testing.assert_array_equal(start, theta0 + step, strict=True)
        else:
            t = min(c / abs(s) for c, s in zip(reach, step) if abs(s) > c)
            assert 0.0 <= t < 1.0
            np.testing.assert_array_equal(start, theta0 + t * step)
    assert np.all(np.abs(starts - theta0) <= (reach + 4.0 * np.finfo(float).eps
                                              * np.abs(theta0)))
    nonzero = theta0 != 0.0
    np.testing.assert_array_equal(np.sign(starts[:, nonzero]),
                                  np.broadcast_to(np.sign(theta0[nonzero]), (rows, nonzero.sum())))
