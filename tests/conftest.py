import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from propfit.equivalent_dose import PartialBleachModel
from propfit.models import (
    Array,
    Dataset,
    ModelFunction,
    constant_model,
    exponential_decay_model,
    saturating_exponential_model,
)
from propfit.simulation import (
    DEFAULT_UNBLEACHED_DOSES,
    QNL84_ALPHA,
    QNL84_BETA2,
    QNL84_BETA3,
    QNL84_GAMMA,
)

PAPER_ALPHA = QNL84_ALPHA
PAPER_BETA2 = QNL84_BETA2
PAPER_BETA3 = QNL84_BETA3
PAPER_GAMMA = QNL84_GAMMA
# Curve 1 shifted 50 Gy to the left: a bleached curve that never crosses it.
APART_BETA = np.array([PAPER_ALPHA[0], PAPER_ALPHA[1] + 50.0, PAPER_ALPHA[2]])


@pytest.fixture
def const():
    return constant_model()


@pytest.fixture
def expo():
    return exponential_decay_model()


@pytest.fixture
def satexp():
    return saturating_exponential_model()


@pytest.fixture
def const_123(const):
    return Dataset(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]))


@pytest.fixture
def satexp_grid(satexp):
    """Noise-free unbleached-design dataset at the published parameter values."""
    x = DEFAULT_UNBLEACHED_DOSES
    return Dataset(x, np.asarray(satexp.eval(x, PAPER_ALPHA)))


def make_noisy(model, x, theta, sigma, seed):
    rng = np.random.default_rng(seed)
    f = np.asarray(model.eval(np.asarray(x, dtype=float), theta))
    return Dataset(np.asarray(x, dtype=float), f * (1.0 + sigma * rng.standard_normal(f.size)))


def relative_scale(model, data, theta, method):
    """The scale a ``method`` fit estimates at ``theta``, from its definition:
    ``sqrt(sum(((y - f)/f)^2) / d)`` with ``d = n`` for ``ml`` (its
    maximum-likelihood scale) and ``d = n - p`` for the other methods."""
    f = np.asarray(model.eval(data.x, theta), dtype=float)
    divisor = data.n if method == "ml" else data.n - model.p
    return float(np.sqrt(np.sum(((data.y - f) / f) ** 2) / divisor))


def curve_gap(model: PartialBleachModel, x, theta):
    """The curves' gap ``f1(x, alpha) - f2(x, beta)`` at one joint ``theta``;
    raises what either curve's ``eval`` raises."""
    alpha, beta = model.split(theta)
    return model.curve1.eval(x, alpha) - model.curve2.eval(x, beta)


def gap_slope(model: PartialBleachModel, x: float, theta) -> float:
    """The gap's derivative in the dose at one dose ``x`` and joint ``theta``."""
    alpha, beta = model.split(theta)
    x = np.array([x], dtype=float)
    return float((model.curve1.dx_rows(x, alpha) - model.curve2.dx_rows(x, beta))[0])


def stacked_model(model: PartialBleachModel, x1, x2) -> tuple[ModelFunction, Array]:
    """Fuse the two curves into one model over an observation-index covariate.

    Returns the joint six-parameter model and the index array ``0..n1+n2-1``
    to use as its covariate; the actual doses are baked into the closure.
    The stacked form makes a common-sigma fit an ordinary single-model fit:
    the reference the library's paired rows and joined Jacobian bundles are
    checked against. Its callables take ``theta (..., 6)`` like the curves'
    own, and only that index array as covariate: any other raises
    ``ValueError``.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    n1, n2 = x1.size, x2.size
    c1, c2 = model.curve1, model.curve2
    p1, p = c1.p, model.p
    full = np.arange(n1 + n2, dtype=float)

    def _blocks(ix, t, fn1, fn2, tail):
        if not np.array_equal(ix, full):
            raise ValueError(f"the stacked model's covariate is the index 0..{n1 + n2 - 1}")
        out = np.zeros(t.shape[:-1] + full.shape + tail)
        out[(..., slice(0, n1)) + (slice(0, p1),) * len(tail)] = fn1(x1, t[..., :p1])
        out[(..., slice(n1, None)) + (slice(p1, p),) * len(tail)] = fn2(x2, t[..., p1:])
        return out

    def guard(ix, t):
        ok1 = True if c1.domain_guard is None else c1.domain_guard(x1, t[..., :p1])
        ok2 = True if c2.domain_guard is None else c2.domain_guard(x2, t[..., p1:])
        return np.logical_and(ok1, ok2)

    joint = ModelFunction(
        name=f"{c1.name}+{c2.name}",
        p=p,
        param_names=model.param_names,
        eval_fn=lambda ix, t: _blocks(ix, t, c1.eval_fn, c2.eval_fn, ()),
        grad_fn=lambda ix, t: _blocks(ix, t, c1.grad_fn, c2.grad_fn, (p,)),
        hess_fn=lambda ix, t: _blocks(ix, t, c1.hess_fn, c2.hess_fn, (p, p)),
        domain_guard=guard,
    )
    return joint, full.copy()


# Property tests draw the same examples on every run, a bounded number of
# them, and keep no example database, so the suite is reproducible.
settings.register_profile("propfit", derandomize=True, database=None, max_examples=60,
                          deadline=None, print_blob=False)
settings.load_profile("propfit")
# Hypothesis still caches the constants it reads in the source under its
# storage directory, ``.hypothesis/`` where the suite runs unless set: use a
# temporary one, removed when the interpreter exits.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
