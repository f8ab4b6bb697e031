"""Packet-based initial data for the short-time instability experiments.

The envelope is band-limited by construction: its 1-D Fourier profile
equals 1 on |xi| <= 4^{-d}, vanishes for |xi| >= 2^{-d}, and interpolates
in between with the same smooth step the dyadic partition uses.  A packet
rides the carrier sin(c_n x_1) with c_n = (17/12) 2^n.  Because c_n is an
exact lattice frequency (the box length is a multiple of 24 pi), the
sampled packet's discrete spectrum is the envelope profile translated to
+-c_n with no leakage whatsoever, so for n >= 3 each packet lies in
exactly one dyadic block.

Initial data:

    S0 = sum_{n=3}^{n_max} 2^{-n(s+2)} f_n,     u0 = (1 - Laplacian) S0,

S0 summed from the sampled packets and u0 synthesized from the packet
sum's exact half spectrum.  The first-order drift
v0 = div(u0 (1-u0) grad S0) is derived from them on its first read
(:attr:`InitialData.v0`), once, from whichever thread reads it first.  It
is evaluated with the same dealiased flux routine the time stepper uses,
so the solver's right-hand side at u0 equals -v0 to roundoff, not bit for
bit: v0 takes grad S from S0's sampled values, the right-hand side from
u0's half spectrum through (1 - Laplacian)^{-1}.

Construction costs what the periods and supports cost, and every array
is the one the N-point formulas give, bit for bit.  The carrier's
argument is an integer modulo N that repeats with period
P = N / gcd(k_c, N) (N / 2^n for odd M), so sin is evaluated on one
period, about N/4 points per datum across all packets, and each packet
is written in one pass as profile rows times that period.  The envelope's
smooth step is evaluated on its ramp only, O(M) lattice points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .littlewood_paley import make_partition, smooth_step
from .solver import transport_divergence
from .spectral import Field, Grid, _anchored_ifft, _check_same_grid, _once, half_spectrum

__all__ = [
    "Bump",
    "make_bump",
    "carrier_frequency",
    "make_fn",
    "InitialData",
    "make_initial_data",
]

N_MIN_PACKET = 3  # smallest packet index with exact one-block confinement
_MIN_SUPPORT_POINTS = 4  # lattice frequencies required across [0, 2^-d]


def carrier_frequency(n: int) -> float:
    """Carrier c_n = (17/12) 2^n of the n-th packet."""
    return 17.0 / 12.0 * 2.0**n


@dataclass(frozen=True)
class Bump:
    """Band-limited envelope, stored as matching 1-D profiles.

    ``hat`` holds the Fourier profile on the 1-D frequency axis in fft
    order; ``profile`` holds the physical samples on the 1-D coordinate
    axis.  The envelope is even, real, nonnegative in frequency, and its
    d-dimensional version is the tensor product of ``profile`` along each
    axis.  It is built for ``grid``, and its packets and envelope live there.
    """

    grid: Grid
    hat: np.ndarray
    profile: np.ndarray

    @property
    def plateau_radius(self) -> float:
        return 4.0 ** (-self.grid.d)

    @property
    def support_radius(self) -> float:
        return 2.0 ** (-self.grid.d)

    def value_at_origin(self) -> float:
        return float(self.profile[self.grid.N // 2])

    def envelope(self) -> Field:
        """Tensor-product envelope prod_i phi(x_i) on the full grid."""
        vals = self.profile
        for _ in range(self.grid.d - 1):
            vals = np.multiply.outer(vals, self.profile)
        return Field(self.grid, vals)


def _check_bump(d: int, grid: Grid) -> None:
    """The lattice test of :func:`make_bump`, in O(1): at least four lattice
    frequencies across the support [0, 2^-d], else an error that suggests
    raising M (coarser grids cannot resolve the transition region)."""
    support = 2.0 ** (-d)
    n_support = int(math.floor(support / grid.freq_step)) + 1
    if n_support < _MIN_SUPPORT_POINTS:
        raise ValueError(
            f"frequency step 1/(12M)={grid.freq_step:.4g} leaves only "
            f"{n_support} lattice points in [0, {support:.4g}]; raise M "
            f"(need M >= {math.ceil(3.0 / (12.0 * support))})"
        )


def make_bump(d: int, grid: Grid) -> Bump:
    """Envelope with Fourier profile 1 on [0, 4^-d], 0 beyond 2^-d.

    The grid must pass :func:`_check_bump`.  The profile is 0 or 1 off the
    ramp 4^-d < |xi| < 2^-d, which holds O(M) lattice points around the
    origin, so the radii are formed and the smooth step evaluated on those
    points only.
    """
    if d != grid.d:
        raise ValueError(f"dimension mismatch: d={d} vs grid.d={grid.d}")
    _check_bump(d, grid)
    support = 2.0 ** (-d)
    plateau = 4.0 ** (-d)
    # every |k| > reach has |k| / (12M) > support, even after rounding
    reach = min(math.ceil(support / grid.freq_step) + 1, grid.N // 2)
    k = np.arange(-reach, min(reach + 1, grid.N // 2))
    r = np.abs(k * grid.freq_step)  # as in HalfSpectrum.xi
    idx = k % grid.N  # fft order
    ramp = (r > plateau) & (r < support)
    hat = np.zeros(grid.N)
    hat[idx[r <= plateau]] = 1.0
    hat[idx[ramp]] = smooth_step((support - r[ramp]) / (support - plateau))
    return Bump(grid=grid, hat=hat, profile=_anchored_ifft(hat))


def _carrier_index(n: int, grid: Grid) -> int:
    """Lattice index k_c = c_n / freq_step = 17 * 2^n * M of the n-th carrier."""
    return 17 * (1 << n) * grid.M


def _carrier_period(n: int, grid: Grid) -> np.ndarray:
    """sin(c_n x) on the first P = N / gcd(k_c, N) points of the 1-D
    coordinate axis: one period of its samples.

    c_n x_j = 2 pi k_c (j - N/2) / N with the integer k_c = 17 * 2^n * M,
    so the argument is reduced modulo N in exact integer arithmetic,
    r_j = (j - N/2) k_c mod N, in place, before a single sin evaluation
    per point, also in place.  P k_c is a multiple of N, so r_{j+P} = r_j:
    equal integers give equal float arguments and equal sines, and the
    samples on the whole axis are this period repeated N / P times, bit
    for bit.  For odd M, P = N / 2^n.
    """
    kc = _carrier_index(n, grid)
    r = np.arange(grid.N // math.gcd(kc, grid.N), dtype=np.int64)
    r -= grid.N // 2
    r *= kc % grid.N
    r %= grid.N
    x = (2.0 * np.pi / grid.N) * r
    del r
    return np.sin(x, out=x)


def make_fn(n: int, bump: Bump) -> Field:
    """The n-th packet f_n = phi(x_1) sin(c_n x_1) phi(x_2) ... phi(x_d) on
    the bump's grid."""
    grid = bump.grid
    if n < N_MIN_PACKET:
        raise ValueError(f"packet index must be >= {N_MIN_PACKET}, got {n}")
    c = carrier_frequency(n)
    if c + bump.support_radius >= grid.nyquist:
        raise ValueError(
            f"carrier {c:.4g} + support {bump.support_radius:.4g} reaches the "
            f"Nyquist frequency {grid.nyquist:.4g}; raise N"
        )
    carrier = _carrier_period(n, grid)
    # one pass over the axis: every row of the profile meets one carrier period
    vals = (bump.profile.reshape(-1, carrier.size) * carrier).reshape(grid.N)
    for _ in range(grid.d - 1):
        vals = np.multiply.outer(vals, bump.profile)
    return Field(grid, vals)


@dataclass
class InitialData:
    """The constructed pair (S0, u0) and its parameters, with the drift v0
    and the transport coefficients derived on first read."""

    grid: Grid
    bump: Bump
    s: float
    n_max: int
    S0: Field
    u0: Field

    @property
    def v0(self) -> Field:
        """The drift ``transport_divergence(u0, S0)``, built on the first
        read, once, from any thread, and kept.  Read-only by convention,
        like u0 and S0."""
        return _once(self.__dict__, "_v0", lambda: transport_divergence(self.u0, self.S0))

    def packet(self, n: int) -> Field:
        return make_fn(n, self.bump)

    def amplitude(self, n: int) -> float:
        """Coefficient 2^{-n(s+2)} of packet n inside S0."""
        return 2.0 ** (-n * (self.s + 2.0))

    @property
    def coefficients(self) -> np.ndarray:
        """(1 - 2 u0) d_a S0 for every axis a, stacked on a first axis: the
        transport coefficients of the linearization, built like v0, and
        read-only."""
        return _once(self.__dict__, "_coefficients", self._build_coefficients)

    def _build_coefficients(self) -> np.ndarray:
        # the product is taken in place of grad S0, so that few full-grid
        # arrays are alive at once
        hs = half_spectrum(self.grid)
        w = hs.irfftn(hs.gradient(np.fft.rfftn(self.S0.values)))
        factor = 2.0 * self.u0.values
        np.subtract(1.0, factor, out=factor)
        w *= factor
        w.flags.writeable = False
        return w


def _packet_sum_half(s: float, n_max: int, bump: Bump, grid: Grid) -> np.ndarray:
    """Half-spectrum coefficients of S0 in the anchored convention of
    :func:`hks.spectral.transform`, written down exactly: the envelope
    profile ``bump.hat`` on every axis, translated to +-k_c along x_1.

    u0 is synthesized from these rather than from a forward transform of
    the sampled S0, whose roundoff, amplified by 1 + |xi|^2 (about 1e8 in
    block 13 at N = 2^20), would put a relative error of order 1e-6 into
    u0's top blocks.
    """
    k = np.flatnonzero(bump.hat)  # the envelope's support, fft order
    axis1 = np.zeros(grid.N, dtype=np.complex128)
    for n in range(N_MIN_PACKET, n_max + 1):
        kc = _carrier_index(n, grid)
        c = 2.0 ** (-n * (s + 2.0)) * bump.hat[k] / 2j
        axis1[(k + kc) % grid.N] += c
        axis1[(k - kc) % grid.N] -= c
    factors = [axis1] + [bump.hat] * (grid.d - 1)
    factors[-1] = factors[-1][: grid.N // 2 + 1]
    return functools.reduce(np.multiply, np.ix_(*factors))


def _check_n_max(n_max: int, grid: Grid) -> None:
    j_max = make_partition(grid).j_max
    if not N_MIN_PACKET <= n_max <= j_max:
        raise ValueError(f"n_max={n_max} outside [{N_MIN_PACKET}, j_max={j_max}] for N={grid.N}")


def make_initial_data(s: float, n_max: int, bump: Bump, grid: Grid) -> InitialData:
    """Assemble S0 and u0 = (1-Laplacian)S0; the drift v0 is built on its
    first read.

    The packet sum is truncated at n_max, which must not exceed the
    grid's top resolvable block, and the bump must be built for ``grid``.
    The probes check s against their own hypotheses (s > 1 + d/p and the
    like) when they are called.
    """
    _check_same_grid(bump.grid, grid)
    _check_n_max(n_max, grid)
    vals = np.zeros(grid.shape)
    for n in range(N_MIN_PACKET, n_max + 1):
        f = make_fn(n, bump).values
        f *= 2.0 ** (-n * (s + 2.0))
        vals += f
    S0 = Field(grid, vals)
    hs = half_spectrum(grid)
    u0_half = _packet_sum_half(s, n_max, bump, grid) * (1.0 + hs.xi2)
    # fftshift moves numpy's origin (index 0) to the anchored one (index N/2)
    u0 = Field(grid, np.fft.fftshift(hs.irfftn(u0_half)) * grid.N**grid.d)
    return InitialData(grid=grid, bump=bump, s=s, n_max=n_max, S0=S0, u0=u0)

