"""Equivalent dose from two dose-response curves (partial bleach design).

An unbleached and a bleached curve are fitted to their own data sets; the
equivalent dose is |gamma| where the fitted curves intersect at negative
dose. The bleached scale beta1 below is constructed so the true curves
intersect exactly at gamma = -87.45, i.e. an equivalent dose of 87.45 Gray.

Shows: the intersection solve, its implicit-function gradient, delta-method
bias and standard error for each estimator, and the difference between
fitting the curves separately versus sharing one relative-error scale.
"""

import numpy as np

from propfit import (
    FitOptions,
    beta1_from_gamma,
    dose_derivatives_batch,
    fit_two_curves,
    gamma_bias_se,
    partial_bleach_model,
    solve_gamma,
)
from propfit.simulation import (
    DEFAULT_BLEACHED_DOSES,
    DEFAULT_UNBLEACHED_DOSES,
    generate_dataset,
    replicate_stream,
)

pb = partial_bleach_model()
alpha = np.array([142853.0, 123.182, 393.065])
beta2, beta3, gamma_true = 192.547, 756.620, -87.45
beta1 = beta1_from_gamma(alpha, beta2, beta3, gamma_true)
theta0 = np.concatenate([alpha, [beta1, beta2, beta3]])

print(f"constructed beta1 = {beta1:.1f} so the curves intersect at {gamma_true}")
print(f"solve_gamma recovers: {solve_gamma(pb, theta0):.4f}")

# The root's derivatives, for a stack of joint thetas; here a stack of one.
dose = dose_derivatives_batch(pb, theta0[None, :])[0]
print("d gamma / d theta =", np.array2string(dose.grad, precision=4, suppress_small=True))
print("(the intersection barely feels the two scales alpha1, beta1 --")
print(" that is why ML and WLS give nearly the same equivalent dose)")

print()
print("delta-method bias and SE of gamma_hat at sigma = 0.02:")
for method in ("ml", "ql", "wls", "dwls"):
    mode = "common-sigma" if method == "ml" else "separate"
    est = gamma_bias_se(pb, DEFAULT_UNBLEACHED_DOSES, DEFAULT_BLEACHED_DOSES,
                        theta0, 0.02, method, fit_mode=mode)
    print(f"  {method:>4}: dose {est.equivalent_dose:7.2f} Gy, "
          f"dose bias {est.equivalent_dose_bias:+.4f}, se {est.se:.3f}")

print()
print("one noisy experiment, separate vs common-sigma maximum likelihood:")
stream = replicate_stream(7, 0, 0)
d1 = generate_dataset(pb.curve1, DEFAULT_UNBLEACHED_DOSES, alpha, 0.02, stream)
d2 = generate_dataset(pb.curve2, DEFAULT_BLEACHED_DOSES, theta0[3:], 0.05, stream)
for mode in ("separate", "common-sigma"):
    res = fit_two_curves(pb, d1, d2, "ml", mode=mode, opts=FitOptions(start=theta0))
    gamma = solve_gamma(pb, res.theta_hat)
    sig = ", ".join(f"{s:.4f}" for s in res.sigma_hats)
    print(f"  {mode:>13}: dose {abs(gamma):7.2f} Gy, sigma_hat(s) = {sig}")
print("(with unequal noise on the two curves, sharing one sigma shifts the fit)")
