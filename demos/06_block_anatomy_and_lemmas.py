"""Anatomy of the lower bound, plus the supporting-lemma check suite.

The deviation at block j is driven by a main quadratic term J and
polluted by a commutator K.  Splitting J into its leading part J1 and
corrections J2, J3 shows J1 growing like 2^{3j} while everything else
stays subordinate; in one dimension K vanishes identically.  The origin
anchor ties the prefactor to a closed form.

Run with: python3 demos/06_block_anatomy_and_lemmas.py
"""

import numpy as np

from hks.construction import carrier_frequency, make_bump, make_initial_data
from hks.littlewood_paley import BesovParams
from hks.probe import FLATNESS_MAX, checks, fit_loglog, jk_sweep, lemma_suite
from hks.spectral import make_grid

g = make_grid(d=1, M=1, N=8192)
data = make_initial_data(s=2.0, n_max=6, bump=make_bump(1, g), grid=g)
params = BesovParams(s=2.0, p=2.0)

# rows for every packet block 3..n_max; commutator and fits on the window 4..6
sweep = jk_sweep(data, params, range(4, 7))
print("J/K split per block (d=1: the transverse pieces J3 and K vanish):")
print("  j      J            J1           J2           J3          K"
      "      J1/(c_j^2 J2)")
for r in sweep.rows:
    cj = carrier_frequency(r.j)
    print(f"  {r.j}   {r.J:.4e}   {r.J1:.4e}   {r.J2:.4e}   "
          f"{r.J3:.4e}   {r.K:.1f}    {r.J1 / (cj**2 * r.J2):.5f}")

slope = fit_loglog([2.0 ** r.j for r in sweep.rows],
                   [r.J1 for r in sweep.rows])
print(f"\n  J1 grows with slope {slope:.4f} in 2^j "
      f"(the 2^{{3j}} law behind the inflation rate)")
print("  three derivatives of a packet carried at c_j cost a factor "
      "c_j^2 over one,\n  so J1/(c_j^2 J2) sits at 1 up to the envelope "
      "bandwidth")

a = sweep.anchor
print("\norigin anchor for the prefactor:")
print(f"  measured  {a.measured:.12f}")
print(f"  closed form (17/12) phi(0)^2 sum 2^(-n(s+1)) = {a.formula:.12f}")
print(f"  relative error {a.rel_error:.2e}")
print(f"  c0 = {a.c0:.6f}, stays above c0 out to radius delta = {a.delta:.4f}")

print("\ncommutator sizes 2^{sj} ||[block_j, V.grad] u0||_2:")
for j, v in sweep.commutator:
    print(f"  j={j}   {v:.6f}")
(flat,) = [c for c in checks(sweep.summary) if c.name == "commutator_slope"]
print(f"  slope {flat.value:.4f} vs flatness bar {FLATNESS_MAX}: "
      f"bounded, passed={flat.passed}")

print("\nlemma suite on a fresh grid (N=2048, seeded noise):")
suite = lemma_suite(make_grid(d=1, M=1, N=2048))
width = max(len(c.name) for c in suite.checks)
for c in suite.checks:
    mark = "pass" if c.passed else "FAIL"
    print(f"  {c.name:<{width}}  {mark}  {c.detail}")
print(f"  all passed: {suite.passed}")
