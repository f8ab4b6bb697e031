"""Tour of the spectral core: grid geometry, transforms, multipliers.

The box is [-12*pi*M, 12*pi*M)^d, so the frequency lattice has spacing
1/(12M) and every carrier used later sits exactly on a lattice point.
Run with: python3 demos/01_spectral_core.py
"""

import numpy as np

from hks.spectral import (
    Field,
    dealiased_product,
    half_spectrum,
    lp_norm,
    make_grid,
    transform,
)

g = make_grid(d=1, M=1, N=256)
print("grid: d=1, M=1, N=256")
print(f"  box length      {g.length:.6f}  (24*pi*M)")
print(f"  sample spacing  {g.spacing:.6f}")
print(f"  frequency step  {g.freq_step:.6f}  (1/(12M))")
print(f"  Nyquist         {g.nyquist:.6f}")

# A pure cosine lands on exactly two lattice coefficients of weight 1/2.
x = g.axis_coordinates()
xi17 = 17 * g.freq_step
f = Field(g, np.cos(xi17 * x))
F = transform(f)
k = g.axis_wavenumbers()
hot = np.flatnonzero(np.abs(F.coefficients) > 1e-12)
print("\ncos(17 * freq_step * x) in coefficient space:")
for idx in hot:
    print(f"  k={int(k[idx]):+d}  coeff={F.coefficients[idx]:.6f}")

# Plancherel with the rectangle-rule L2 norm.
lhs = lp_norm(f, 2.0) ** 2
rhs = g.length * float(np.sum(np.abs(F.coefficients) ** 2))
print(f"\nPlancherel: ||f||_2^2 = {lhs:.12f}, "
      f"length * sum|F|^2 = {rhs:.12f}")

# Diagonal multipliers are tables on the real-FFT half spectrum;
# (1 - Lap)^(-1) = 1/(1 + |xi|^2) inverts (1 - Lap) = 1 + |xi|^2.
hs = half_spectrum(g)
u = Field(g, np.cos(xi17 * x) + 0.3 * np.sin(5 * g.freq_step * x))
round_trip = hs.apply(hs.apply(u.values, 1.0 + hs.xi2), hs.helm_inv)
err = np.max(np.abs(round_trip - u.values))
print(f"\n(1-Lap)^(-1) (1-Lap) u == u up to {err:.3e}")

# The 2/3-rule product removes aliasing that a raw pointwise square
# would fold back into the retained band.
f20 = Field(g, np.cos(20 * g.freq_step * x))
sq = dealiased_product(f20, f20)
F_sq = transform(sq).coefficients
others = np.delete(np.abs(F_sq), [0, 40, 256 - 40])
print("\ncos(20k0 x)^2 through the dealiased product:")
print(f"  zero mode       {F_sq[0].real:.6f}  (the 1/2 of the identity)")
print(f"  k=+-40 coeff    {F_sq[40].real:.6f}  (the cos(40k0 x) half)")
print(f"  everything else below {np.max(others):.3e}")
