"""Invariances of the estimating equations, checked on drawn examples."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from propfit.estimators import METHODS, equation_residual
from propfit.models import Dataset, saturating_exponential_model
from propfit.simulation import DEFAULT_UNBLEACHED_DOSES
from conftest import PAPER_ALPHA

MODEL = saturating_exponential_model()
X = DEFAULT_UNBLEACHED_DOSES


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
