"""Invariances of the estimating equations, the start hint, the fits and
the dose root, checked on drawn examples."""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from propfit import equivalent_dose
from propfit.equivalent_dose import MODE_COMMON_SIGMA, fit_two_curves_methods, solve_gamma_batch
from propfit.estimators import METHODS, equation_residual, fit_methods
from propfit.exceptions import MultipleRootWarning
from propfit.models import Dataset, saturating_exponential_model
from propfit.simulation import (
    DEFAULT_BLEACHED_DOSES,
    DEFAULT_UNBLEACHED_DOSES,
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
                       min_size=1, max_size=8),
       wide=st.booleans())
def test_solve_gamma_batch_rows_do_not_depend_on_the_stack(scales, wide):
    # Rows near the design's truth: most cross once, some twice or not at
    # all inside one range; each row's root or error is its own, from the
    # widening scan or from one scan of a wide range.
    theta = THETA0 * np.array(scales)
    if wide:
        lo, hi = np.full(len(theta), -5000.0), np.zeros(len(theta))
        together = equivalent_dose._scan(PB, theta, lo, hi)
        for r in range(len(theta)):
            alone = equivalent_dose._scan(PB, theta[r:r + 1], lo[r:r + 1], hi[r:r + 1])
            for part, one in zip(together, alone):
                np.testing.assert_array_equal(part[r], one[0])
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MultipleRootWarning)
            gammas, errors = solve_gamma_batch(PB, theta)
            for r in range(len(theta)):
                alone, alone_errors = solve_gamma_batch(PB, theta[r:r + 1])
                np.testing.assert_array_equal(gammas[r], alone[0])
                assert repr(errors[r]) == repr(alone_errors[0])


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
