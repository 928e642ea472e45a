"""Bound certificates for the two Gibbs samplers.

Both samplers reduce to a scalar random-coefficient recursion
v_n = X_n Y_n v_{n-1} + Y_n whose contraction factor is the product of
two closed-form moments; the coalescing constant is a density height of
an inverse-gamma law.  The location model runs on the embedded tree
girth measurements, so every number here is reproducible offline.
"""

from tvbounds import bounds, data, models
from tvbounds.stochastics import NoiseStream

# ---- location model on the girth sample ----------------------------------
j, y_bar, s = data.location_stats(data.builtin_dataset("trees-girth"))
print(f"girth sample: J = {j}, mean = {y_bar:.4f}, S = {s:.4f}")

loc = models.LocationGibbsTau(j, s)
cert = loc.certificate(gap=18.12198)
print(f"contraction D = 1/J = {cert.d:.6f}")
print(f"coalescing constant (closed form)  K = {cert.c:.5f}")
print(f"coalescing constant (mode height)    = {cert.details['c_mode_height']:.5f}")
print("  (the two conventions differ by ((J+1)/S)^2; both are carried)")
print(f"iterations until the bound is < 0.01: {bounds.iterations_to_epsilon(cert, 0.01)}\n")

# drift condition for the stationary-gap bound
fit = bounds.location_drift_constants(j, s)
print(f"drift constants from moment matching: lambda = {fit.lam:.7f}, b = {fit.b:.4f}, h = {fit.h:.4f}")
quad = bounds.mc_location_drift_fit(loc, NoiseStream(11), n_draws=200_000)
print(f"Monte-Carlo quadratic-fit check of lambda: {quad:.7f} "
      f"({abs(quad - fit.lam) / fit.lam:.2%} off the closed form)\n")

# ---- regression model ------------------------------------------------------
k, p = 333, 4
m = models.RegressionGibbsSigma(k, p, 26123.0)
reg = m.certificate(gap=1000.0)
print(f"regression chain (k={k}, p={p}): D = p/(k+p-2) = {reg.d:.7f}")
print(f"bound at n = 3 with the recorded coefficient 68.16454: "
      f"{68.16454 * reg.d ** 2:.6f}  (< 0.01 from three sweeps on)")

# the full Gibbs pair is de-initialized by the scalar chain; one sweep from
# sigma^2 = 1, posterior mean 0 and inverse Gram matrix I, so beta = w:
rng = NoiseStream(3).generator()
w = rng.standard_normal(p)
g = rng.standard_gamma((k + p) / 2)
reduced = (sum(w**2) + 26123.0) / (2 * g)  # beta1 = w[0]
print(f"one full sweep from sigma^2 = 1: next sigma^2 = {reduced:.4f}, beta_1 draw = {w[0]:.4f}")
