"""The measurement tools behind every validation: shifted-density
integrals and the histogram TV estimator with its error anatomy.
"""

import math

import numpy as np

from tvbounds import tvlab

# ---- shifted-density integrals ----------------------------------------------
# integral of |f(x+D) - f(x)| by the trapezoid rule on [-50, 50] at step 1e-4,
# within 1e-9 of the closed forms below (every tail is below 1e-20 there)
GRID = np.linspace(-50.0, 50.0, 1_000_001)


def shifted_l1(f, delta):
    return float(np.trapezoid(np.abs(f(GRID + delta) - f(GRID)), GRID))


# For a strictly monotone f with codomain (a, b):  integral |f(x+D)-f(x)| = (b-a) D
logistic = lambda x: 1.0 / (1.0 + np.exp(-np.asarray(x)))
for delta in (0.1, 0.3, 1.0):
    v = shifted_l1(logistic, delta)
    print(f"monotone, codomain (0,1), shift {delta}: integral = {v:.8f} (exact {delta})")

# For a single-mode density with height K:  integral <= 2 K D
K = 1 / math.sqrt(2 * math.pi)
ndens = lambda x: np.exp(-np.asarray(x) ** 2 / 2) * K
for delta in (0.1, 0.5):
    v = shifted_l1(ndens, delta)
    print(f"normal density, shift {delta}: integral = {v:.6f} <= 2 K delta = {2 * K * delta:.6f}")
print()

# ---- histogram TV and its two error terms -----------------------------------
rng = np.random.default_rng(1)
n = 200_000
a = rng.standard_normal(n)
b = rng.standard_normal(n) + 1.0
est = tvlab.tv_histogram(a, b, 0.01)
exact = 0.38292492  # 1 - 2 Phi(-1/2)
print(f"TV(N(0,1), N(1,1)) at {n} samples, bin 0.01:")
print(f"  estimate    {est.estimate:.5f}   (exact {exact})")
print(f"  mc se       {est.mc_se:.5f}   (sampling noise of the statistic)")
print(f"  noise floor {est.noise_floor:.5f}   (estimator value if the laws were identical)")

same = tvlab.tv_histogram(rng.standard_normal(n), rng.standard_normal(n), 0.01)
print(f"\ntwo samples of the SAME law: estimate {same.estimate:.5f} vs floor {same.noise_floor:.5f}")
print(
    "The floor explains why a simulated TV curve flattens out instead of\n"
    "decaying to zero: past that level the plug-in estimator measures its\n"
    "own counting noise.  Soundness checks against analytic bounds must\n"
    "budget for it, and every estimate reports it."
)
