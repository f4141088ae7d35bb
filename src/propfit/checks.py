"""Self-check suite over bundled fixtures.

Runs the structural invariants that must hold for any correct build: the
hat-matrix trace, analytic-versus-numeric derivatives, the two algebraic
forms of the exact ML covariance, the information-identity assembly, the
scale-factorization structure, and the variance ordering. ``propfit check``
prints one line per check with the measured error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asymptotics import (
    check_theta1_factorization,
    cov_ml_exact,
    cov_ml_full,
    cov_ml_unreduced,
    cov_order2,
    ml_expected_information,
    ml_score_covariance,
)
from .jacobian import build_jacobian_bundle
from .models import (
    Dataset,
    ModelFunction,
    constant_model,
    exponential_decay_model,
    fd_check,
    saturating_exponential_model,
    scaled_shape_model,
)
from .simulation import DEFAULT_BLEACHED_DOSES, DEFAULT_UNBLEACHED_DOSES, QNL84_ALPHA


@dataclass(frozen=True)
class Fixture:
    name: str
    model: ModelFunction
    data: Dataset
    theta: np.ndarray


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"[{status}] {self.name}: error {self.measured:.3e} (tol {self.threshold:.1e}){extra}"


def _satexp_fixture(name, doses, theta) -> Fixture:
    model = saturating_exponential_model()
    x = np.asarray(doses, dtype=float)
    return Fixture(name, model, Dataset(x, np.asarray(model.eval(x, theta))), np.asarray(theta))


def builtin_fixtures() -> list[Fixture]:
    """The (model, data, theta) triples every invariant is checked on."""
    const = constant_model()
    expo = exponential_decay_model()
    shape = scaled_shape_model(lambda x: np.exp(-x / 3.0))
    beta = np.array([95717.802684, 192.547, 756.620])
    x_expo = np.linspace(0.5, 6.0, 9)
    x_shape = np.linspace(0.0, 5.0, 7)
    return [
        Fixture("constant", const, Dataset(np.arange(4.0), np.full(4, 2.0)), np.array([2.0])),
        Fixture("scaled_shape", shape,
                Dataset(x_shape, np.asarray(shape.eval(x_shape, np.array([3.0])))),
                np.array([3.0])),
        Fixture("exponential", expo,
                Dataset(x_expo, np.asarray(expo.eval(x_expo, np.array([2.0, 3.0])))),
                np.array([2.0, 3.0])),
        _satexp_fixture("satexp_unbleached", DEFAULT_UNBLEACHED_DOSES, QNL84_ALPHA),
        _satexp_fixture("satexp_bleached", DEFAULT_BLEACHED_DOSES, beta),
    ]


def _random_fixtures(count: int, seed: int = 1234) -> list[Fixture]:
    """Random well-conditioned fixtures for the algebraic identities."""
    rng = np.random.default_rng(seed)
    expo = exponential_decay_model()
    out = []
    for k in range(count):
        n = int(rng.integers(6, 14))
        x = np.sort(rng.uniform(0.3, 8.0, size=n))
        theta = np.array([rng.uniform(0.5, 5.0), rng.uniform(1.0, 6.0)])
        out.append(Fixture(f"random_exponential_{k}", expo,
                           Dataset(x, np.asarray(expo.eval(x, theta))), theta))
    return out


def run_checks() -> list[CheckResult]:
    fixtures = builtin_fixtures()
    bundles = [build_jacobian_bundle(fx.model, fx.data, fx.theta)
               for fx in fixtures + _random_fixtures(50)]
    results: list[CheckResult] = []

    # Hat-matrix trace and leverage range per fixture.
    for fx, bundle in zip(fixtures, bundles):
        err = abs(float(bundle.w1.sum()) - bundle.p)
        results.append(CheckResult(
            f"hat_trace[{fx.name}]", err < 1e-10, err, 1e-10,
            detail=f"sum w1 - p = {bundle.w1.sum() - bundle.p:+.3e}"))
        range_err = max(float(-bundle.w1.min()), float(bundle.w1.max() - 1.0), 0.0)
        results.append(CheckResult(
            f"leverage_range[{fx.name}]", range_err <= 1e-12, range_err, 1e-12))

    # Analytic derivatives against central differences.
    for fx in fixtures:
        if fx.model.grad_fn is None and fx.model.hess_fn is None:
            continue
        rep = fd_check(fx.model, fx.theta, fx.data.x)
        err = max(rep.grad_max_rel_err, rep.hess_max_rel_err)
        results.append(CheckResult(f"derivatives[{fx.name}]", rep.passed, err, rep.tol))

    # Exact ML covariance: reduced and unreduced forms, full-matrix block,
    # information identity, and the variance ordering.
    sigma = 0.05
    worst_forms = worst_block = worst_bartlett = 0.0
    worst_order = 0.0
    for bundle in bundles:
        exact = cov_ml_exact(bundle, sigma)
        unred = cov_ml_unreduced(bundle, sigma)
        scale = float(np.max(np.abs(exact)))
        worst_forms = max(worst_forms, float(np.max(np.abs(exact - unred))) / scale)

        full = cov_ml_full(bundle, sigma)
        p = bundle.p
        worst_block = max(worst_block, float(np.max(np.abs(full[:p, :p] - exact))) / scale)

        info = ml_expected_information(bundle, sigma)
        score = ml_score_covariance(bundle, sigma)
        worst_bartlett = max(
            worst_bartlett,
            float(np.max(np.abs(info - score))) / float(np.max(np.abs(info))))

        gap = cov_order2(bundle, sigma) - exact
        min_eig = float(np.linalg.eigvalsh(0.5 * (gap + gap.T))[0])
        worst_order = max(worst_order, max(-min_eig, 0.0) / scale)

    results.append(CheckResult("ml_cov_two_forms", worst_forms < 1e-10, worst_forms, 1e-10,
                               detail="includes 50 random fixtures"))
    results.append(CheckResult("ml_cov_full_block", worst_block < 1e-10, worst_block, 1e-10))
    results.append(CheckResult("information_identity", worst_bartlett < 1e-10,
                               worst_bartlett, 1e-10))
    results.append(CheckResult("variance_ordering_psd", worst_order < 1e-10, worst_order, 1e-10,
                               detail="order2 - ml_exact stays PSD"))

    # Scale-factor structure on the saturating exponential fixture.
    for fx, bundle in zip(fixtures, bundles):
        if fx.model.name != "saturating_exponential":
            continue
        fc = check_theta1_factorization(bundle, fx.theta[0])
        v_err = float(np.max(np.abs(fc.v - np.concatenate([[fx.theta[0]],
                                                           np.zeros(fx.model.p - 1)]))))
        rel = v_err / abs(float(fx.theta[0]))
        results.append(CheckResult(f"scale_factorization[{fx.name}]", fc.factorized, rel, 1e-8))
        results.append(CheckResult(f"ml_wls_shape_bias_match[{fx.name}]",
                                   fc.ml_wls_tail_gap < 1e-10, fc.ml_wls_tail_gap, 1e-10))

    return results


def render_checks(results: list[CheckResult]) -> str:
    lines = [r.line() for r in results]
    failed = sum(not r.passed for r in results)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
