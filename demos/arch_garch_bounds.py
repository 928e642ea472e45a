"""Certificates for the three conditional-heteroscedastic families.

Multiplicative-noise chains couple through a log/scale argument instead
of the additive-shift argument, so their coalescing constants involve
the density height of log(Z) (LARCH) or the volatility floor (ARCH and
GARCH).  Each certificate is validated here against a short simulated
TV curve.
"""


from tvbounds import bounds, models, tvlab
from tvbounds.stochastics import ChiSquare, Normal, NoiseStream


def show_curve(name, model, cert, x0, x0p, n_max, **kw):
    curve = tvlab.simulate_tv_curve(
        model, x0, x0p, n_max=n_max, n_paths=100_000, bin_width=0.01,
        stream=NoiseStream(13), certificate=cert, **kw,
    )
    print(f"  {'n':>3} {'clamped bound':>14} {'simulated':>10} {'floor':>8}")
    for r in curve.rows:
        b = "" if r.bound_clamped is None else f"{r.bound_clamped:.5f}"
        print(f"  {r.n:>3} {b:>14} {r.tv_sim:>10.5f} {r.noise_floor:>8.5f}")
    print()


# ---- LARCH, simulated on the squared chain ---------------------------------
larch_model = models.LARCH(1.0, 0.5, ChiSquare(1))
larch = larch_model.certificate(gap=abs(0.01 - 1.21), m=1)
print(f"LARCH squared chain: C = {larch.c:.6f} (= 1/sqrt(8 pi e)), D = {larch.d}")
print(f"bound < 0.01 from n = {bounds.iterations_to_epsilon(larch, 0.01)}")
show_curve("larch", larch_model, larch, 0.01, 1.21, 6)

# ---- asymmetric ARCH --------------------------------------------------------
asym_model = models.AsymARCH(0.5, 3.0, 5.0, Normal(0.0, 1.0))
asym = asym_model.certificate(gap=5.0)
print(f"asymmetric ARCH: C = {asym.c}, Jensen D = {asym.d}, exact D = {asym.details['d_exact']:.6f}")
print(f"bound(n) = 0.5^n; < 0.01 from n = {bounds.iterations_to_epsilon(asym, 0.01)}")
show_curve("asym", asym_model, asym, 0.0, 5.0, 6)

# ---- GARCH(1,1) -------------------------------------------------------------
garch_model = models.GARCH(0.13, 0.1266, 0.7922, Normal(0.0, 1.0))
garch = garch_model.certificate(x0=0.1, x0p=-0.1, s20=0.0001, s20p=0.01)
print(f"GARCH(1,1): coefficient = {garch.details['coefficient']:.6f}, D = sqrt(0.9188) = {garch.d:.6f}")
print(f"bound < 0.01 from n = {bounds.iterations_to_epsilon(garch, 0.01)} "
      "(slow rate: the volatility memory is strong)")
show_curve(
    "garch", garch_model, garch,
    0.1, -0.1, 8, s20=0.0001, s20_prime=0.01,
)
print(
    "The GARCH bound starts at n = 2 (one iteration is spent turning the\n"
    "initial (x, sigma^2) pair into an expected gap), so row 1 has no bound."
)
