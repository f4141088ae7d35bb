import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from propfit.models import (
    Dataset,
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
