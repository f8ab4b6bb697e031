"""Dyadic frequency blocks: the partition, its reach, and Besov profiles.

Run with: python3 demos/02_dyadic_blocks.py
"""

import numpy as np

from hks.littlewood_paley import (
    BesovParams,
    besov_norm,
    decompose,
    lp_block,
    make_partition,
)
from hks.spectral import Field, band_limited_noise, half_spectrum, lp_norm, make_grid

g = make_grid(d=1, M=1, N=2048)
part = make_partition(g)
print(f"grid N={g.N}: j_max = {part.j_max}, "
      f"blocks cover |xi| <= {1.5 * 2**part.j_max:g} "
      f"(Nyquist {g.nyquist:g})")

# Window overlap structure: adjacent annuli overlap, but two blocks that
# are at least two octaves apart have disjoint supports, so the product
# vanishes on every lattice point, not just approximately.  The windows are
# radial and live on the real-FFT half spectrum, which holds every radius
# of the lattice.
w2, w3, w5 = (part.block_window(j) for j in (2, 3, 5))
print("\nwindow products on the half-spectrum lattice:")
print(f"  max |w2 * w3| = {np.max(w2 * w3):.4f}   (neighbours overlap)")
print(f"  max |w2 * w5| = {np.max(w2 * w5):.4f}   (two octaves apart: exact zero)")

# Partition of unity inside the covered band.  Sum the low cutoff and all
# annuli at each lattice frequency and look at the worst deviation from 1.
r = np.sqrt(half_spectrum(g).xi2)
total = part.block_window(-1).copy()
for j in range(part.j_max + 1):
    total = total + part.block_window(j)
covered = r <= 1.5 * 2**part.j_max
print(f"\npartition sum over {int(np.sum(covered))} covered half-spectrum points:")
print(f"  max |sum - 1| = {np.max(np.abs(total[covered] - 1.0)):.3e}")

# Decompose a noisy field and put it back together.
f = band_limited_noise(g, 300, seed=11)
dec = decompose(part, f)
err = np.max(np.abs(dec.reconstruct().values - f.values))
print(f"\ndecompose/reconstruct on band-limited noise (kmax=300):")
print(f"  {len(dec.blocks)} blocks, resolved={dec.resolved}, "
      f"unresolved fraction {dec.unresolved_fraction:.1e}")
print(f"  reconstruction error {err:.3e}  (max |f|: {np.max(np.abs(f.values)):.3f})")

# A two-tone field shows how blocks isolate scales: each cosine lands in
# the annulus containing its frequency and nowhere else.
x = g.axis_coordinates()
two = Field(g, np.cos(144 * g.freq_step * x) + 0.1 * np.cos(528 * g.freq_step * x))
print("\ntwo-tone field, L2 norm of each block:")
for j in range(-1, part.j_max + 1):
    nrm = lp_norm(lp_block(part, two, j), 2.0)
    tag = "  <- holds a tone" if nrm > 1e-8 else ""
    print(f"  j={j:2d}   {nrm:10.6f}{tag}")

# The Besov profile weights each block norm by 2^{s j}; with s = 2 the
# faint high tone dominates the norm despite its small amplitude.
res = besov_norm(part, two, BesovParams(s=2.0, p=2.0))
print(f"\nBesov profile, s=2, p=2 (norm = sup over blocks = {res.value:.3f}):")
for j, val in zip(res.js, res.profile):
    if val > 1e-6:
        print(f"  j={j:2d}   2^(2j) ||block||_2 = {val:.6f}")
