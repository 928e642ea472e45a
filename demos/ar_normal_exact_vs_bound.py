"""Scalar autoregressive normal chain: analytic bound vs exact TV vs simulation.

The chain X_n = X_{n-1}/2 + sqrt(3/4) Z_n admits an exact total-variation
formula between two copies started at known points, which makes it the
calibration case for everything else: the certificate must sit above the
exact curve, and the simulated histogram estimate must track the exact
curve within its reported error terms.
"""

import math

from tvbounds import bounds, models, tvlab
from tvbounds.stochastics import NoiseStream

A, SIGMA = 0.5, math.sqrt(0.75)
X0, X0P = 0.0, 1.0

model = models.ARNormal1D(A, SIGMA)
cert = bounds.ar_normal_1d_certificate(A, SIGMA, gap=abs(X0 - X0P))
print(f"certificate: C = {cert.c:.6f}, D = {cert.d}, bound(n) = C * D^(n-1) * {cert.gap}")
print(f"bound first drops below 0.01 at n = {bounds.iterations_to_epsilon(cert, 0.01)}")
first_exact = min(n for n in range(1, 20) if model.exact_tv(X0, X0P, n) < 0.01)
print(f"exact TV first drops below 0.01 at n = {first_exact}\n")

curve = tvlab.simulate_tv_curve(
    model, X0, X0P,
    n_max=10, n_paths=200_000, bin_width=0.01,
    stream=NoiseStream(7), certificate=cert,
)

print(f"{'n':>3} {'bound':>10} {'exact':>10} {'simulated':>10} {'mc se':>9} {'noise floor':>12}")
for r in curve.rows:
    print(f"{r.n:>3} {r.bound:>10.5f} {r.tv_exact:>10.5f} {r.tv_sim:>10.5f} {r.mc_se:>9.5f} {r.noise_floor:>12.5f}")

print(
    "\nThe simulated column sits on the plug-in estimator's noise floor once\n"
    "the true TV falls below it; the floor column quantifies exactly that."
)
