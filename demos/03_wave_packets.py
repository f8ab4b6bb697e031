"""Wave packets and the initial datum built from them.

Each packet rides a carrier at (17/12) 2^n under a fixed band-limited
envelope, so packet n lives entirely inside dyadic block n.  The datum
stacks packets with weights 2^{-n(s+2)}; the key invariant is that its
size is set by the top block alone, hence barely moves with n_max.

Run with: python3 demos/03_wave_packets.py
"""

import numpy as np

from hks.construction import (N_MIN_PACKET, carrier_frequency, make_bump, make_fn,
                              make_initial_data)
from hks.littlewood_paley import BesovParams, besov_norm, decompose, lp_block
from hks.spectral import lp_norm, make_grid

g = make_grid(d=1, M=1, N=8192)
bump = make_bump(1, g)
print("envelope (d=1):")
print(f"  Fourier profile is 1 on |xi| <= {bump.plateau_radius:g}, "
      f"0 beyond {bump.support_radius:g}")
print(f"  physical value at the origin: {bump.value_at_origin():.6f}")

# Packet 5: carrier 17/12 * 32 = 45.33, envelope half-width 0.5, so its
# spectrum stays inside the plateau of window 5 and meets no other block.
# The packet lives on the bump's grid, and each block is taken on the grid
# of the field it is given.
f5 = make_fn(5, bump)
print(f"\npacket n=5: carrier {carrier_frequency(5):.4f}, "
      f"L2 norm {lp_norm(f5, 2.0):.6f}")
print("  block content (L2 norm of each dyadic piece):")
for j in range(3, 8):
    print(f"    j={j}   {lp_norm(lp_block(f5, j), 2.0):.3e}")
defect = np.max(np.abs(lp_block(f5, 5).values - f5.values))
print(f"  block-5 projection changes the packet by at most {defect:.3e}")

# The datum: packets 3..n_max with geometric weights.
data = make_initial_data(s=2.0, n_max=6, bump=bump, grid=g)
print(f"\ninitial datum, s={data.s}, packets n={N_MIN_PACKET}..{data.n_max}:")
for n in range(N_MIN_PACKET, data.n_max + 1):
    print(f"  n={n}   weight 2^(-n(s+2)) = {data.amplitude(n):.3e}")

# Carriers are odd about the origin and the envelope peaks there, so the
# datum vanishes at the centre of the box while its derivative does not.
mid = g.N // 2
print("\nvalues at the origin (x = 0):")
print(f"  S0(0)  = {data.S0.values[mid]:.3e}   (max |S0| = "
      f"{np.max(np.abs(data.S0.values)):.3e})")
print(f"  u0(0)  = {data.u0.values[mid]:.3e}   (max |u0| = "
      f"{np.max(np.abs(data.u0.values)):.3e})")

# Norm of u0 across integrability exponents and truncation levels.  The
# sup over weighted blocks is achieved at the top packet, whose size is
# calibrated to be O(1) uniformly in n_max.
print("\n||u0|| in B^2_{p,inf} as the packet count grows:")
print("  n_max      p=1          p=2          p=inf")
for n_max in (4, 5, 6):
    d_n = make_initial_data(s=2.0, n_max=n_max, bump=bump, grid=g)
    norms = [besov_norm(d_n.u0, BesovParams(2.0, p)).value
             for p in (1.0, 2.0, np.inf)]
    print(f"  {n_max}      {norms[0]:11.6f}  {norms[1]:11.6f}  {norms[2]:11.6f}")

# Spectral mass never reaches the top of the lattice, so the norms above
# carry no truncation error.
print(f"\nresolved: mass beyond the covered band = "
      f"{decompose(data.u0).unresolved_fraction:.1e}")
