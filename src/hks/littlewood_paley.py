"""Dyadic frequency decomposition and Besov norms on the periodic lattice.

The low cutoff chi is radial, identically 1 on |xi| <= 3/4 and identically
0 on |xi| >= 4/3, built from the C^infinity step
h(t) = psi(t) / (psi(t) + psi(1-t)) with psi(t) = exp(-1/t) for t > 0.
The annulus window is the telescoping difference phi(xi) = chi(xi/2) - chi(xi),
supported in 3/4 <= |xi| <= 8/3 and identically 1 on 4/3 <= |xi| <= 3/2.
Block j applies phi(2^-j xi); block -1 applies chi.  Because h is exactly
0 and 1 outside the open transition interval, supports are exact and
windows two or more octaves apart multiply to exactly zero.
"""

from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .spectral import (Field, Grid, SpectralField, _check_same_grid, _half_power,
                       _tail_fraction, half_spectrum, lp_norm)

__all__ = [
    "smooth_step",
    "low_cutoff_profile",
    "annulus_profile",
    "DyadicPartition",
    "make_partition",
    "block_norms",
    "lp_block",
    "BlockDecomposition",
    "decompose",
    "BesovParams",
    "BesovNormResult",
    "besov_norm",
    "commutator",
]

# largest lattice set where the partition sums to exactly 1 is
# |xi| <= RESOLVED_FACTOR * 2**j_max
RESOLVED_FACTOR = 1.5
# largest unresolved coefficient mass fraction of a resolved field
_RESOLVED_TOL = 1e-12


def smooth_step(t: np.ndarray | float) -> np.ndarray:
    """C^infinity monotone step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.where(t > 0.0, t, 1.0)), 0.0)
        b = np.where(t < 1.0, np.exp(-1.0 / np.where(t < 1.0, 1.0 - t, 1.0)), 0.0)
    return a / (a + b)


def low_cutoff_profile(r: np.ndarray | float) -> np.ndarray:
    """chi as a function of the radius |xi|: 1 on [0, 3/4], 0 on [4/3, inf)."""
    r = np.asarray(r, dtype=np.float64)
    return smooth_step((4.0 / 3.0 - r) / (4.0 / 3.0 - 3.0 / 4.0))


def annulus_profile(r: np.ndarray | float) -> np.ndarray:
    """phi(r) = chi(r/2) - chi(r); nonnegative, supported in [3/4, 8/3]."""
    r = np.asarray(r, dtype=np.float64)
    return low_cutoff_profile(r / 2.0) - low_cutoff_profile(r)


@dataclass(frozen=True)
class DyadicPartition:
    """Block windows chi(xi), phi(2^-j xi) for j = 0..j_max on a grid.

    j_max is the largest j with (3/2)*2^j strictly below the grid Nyquist
    frequency, so the partition sums to 1 on every lattice point with
    |xi| <= (3/2)*2^j_max.  The windows live on the grid's real-FFT half
    spectrum and are built together at the first block request.  Each window
    is stored over its support only, as flat half-spectrum indices and values,
    so the tables of all blocks take about as much memory as two dense
    half-spectrum windows; ``_half_window`` expands one on demand.
    """

    grid: Grid
    j_max: int = field(init=False)

    def __post_init__(self) -> None:
        # (3/2) * 2^j < N/(24M)  <=>  36 * M * 2^j < N, exact in integers
        j = -1
        while 36 * self.grid.M * (1 << (j + 1)) < self.grid.N:
            j += 1
        if j < 0:
            raise ValueError(
                f"grid too coarse for any dyadic block (N={self.grid.N}, M={self.grid.M})"
            )
        object.__setattr__(self, "j_max", j)

    def _tables(self) -> tuple[tuple[tuple[np.ndarray, np.ndarray], ...], np.ndarray]:
        """Windows of blocks -1..j_max as (flat half-spectrum indices, values)
        over their nonzero support, and the modes beyond (3/2)*2^j_max, cached
        on the grid at the first block request.

        Block -1 is chi on |xi| < 4/3; window j >= 0 is evaluated only on the
        lattice points with 3/4 * 2^j < |xi| < 8/3 * 2^j, as
        chi(xi/2^(j+1)) - chi(xi/2^j).  Dividing by a power of two is exact,
        so each value is annulus_profile's bit for bit, and every window is
        exactly 0 off the points it keeps.
        """
        cache = self.grid._cache
        if "lp_tables" not in cache:
            r_half = np.sqrt(half_spectrum(self.grid).xi2)
            r = r_half.reshape(-1)
            idx = np.flatnonzero(r < 4.0 / 3.0)
            candidates = [(idx, low_cutoff_profile(r[idx]))]
            for j in range(self.j_max + 1):
                scale = float(2**j)
                idx = np.flatnonzero((r > 0.75 * scale) & (r < (8.0 / 3.0) * scale))
                candidates.append((idx, low_cutoff_profile(r[idx] / (2.0 * scale))
                                   - low_cutoff_profile(r[idx] / scale)))
            windows = tuple((idx[vals != 0.0], vals[vals != 0.0]) for idx, vals in candidates)
            cache["lp_tables"] = (windows, r_half > RESOLVED_FACTOR * 2**self.j_max)
        return cache["lp_tables"]

    def _half_window(self, j: int) -> np.ndarray:
        """Window of block j expanded onto the whole half spectrum."""
        if j < -1 or j > self.j_max:
            raise ValueError(f"block index {j} outside [-1, {self.j_max}]")
        windows, beyond = self._tables()
        idx, vals = windows[j + 1]
        w = np.zeros(beyond.shape)
        w.reshape(-1)[idx] = vals
        return w

    def _full_lattice(self, half: np.ndarray) -> np.ndarray:
        """A radial half-spectrum table mirrored onto the full fft-ordered lattice."""
        n = self.grid.N
        return np.concatenate([half, half[..., n // 2 - 1:0:-1]], axis=-1)

    def block_window(self, j: int) -> np.ndarray:
        """Window values on the lattice for block j (j = -1 is the low ball)."""
        return self._full_lattice(self._half_window(j))

    def resolved_mass_fraction(self, F: SpectralField) -> float:
        """l2 coefficient mass fraction beyond (3/2)*2^j_max."""
        return _tail_fraction(np.abs(F.coefficients) ** 2,
                              self._full_lattice(self._tables()[1]))


def make_partition(grid: Grid) -> DyadicPartition:
    """The dyadic partition of ``grid``: one object per grid while in use."""
    # Held weakly: a grid <-> partition cycle would keep the grid's cached
    # arrays alive until a full garbage collection.
    ref = grid._cache.get("partition")
    part = ref() if ref is not None else None
    if part is None:
        part = DyadicPartition(grid)
        grid._cache["partition"] = weakref.ref(part)
    return part


def _check_resolved(part: DyadicPartition, Fh: np.ndarray, message: str) -> tuple[bool, float]:
    """Resolvedness flag and unresolved mass fraction; warns when unresolved."""
    frac = _tail_fraction(_half_power(Fh), part._tables()[1])
    if frac > _RESOLVED_TOL:
        warnings.warn(message.format(frac), stacklevel=3)
    return frac <= _RESOLVED_TOL, frac


def _block_norms(part: DyadicPartition, Fh: np.ndarray, p: float) -> np.ndarray:
    g = part.grid
    windows = part._tables()[0]
    if p == 2:
        c2 = _half_power(Fh).reshape(-1)
        sums = np.array([np.sum(c2[idx] * (w * w)) for idx, w in windows])
        return np.sqrt(sums * (g.spacing ** g.d / g.N ** g.d))
    hs = half_spectrum(g)
    fh = Fh.reshape(-1)
    buf = np.zeros_like(Fh)  # one block at a time, zero off its support
    flat = buf.reshape(-1)
    norms = []
    for idx, w in windows:
        flat[idx] = fh[idx] * w
        norms.append(lp_norm(Field(g, hs.irfftn(buf)), p))
        flat[idx] = 0.0
    return np.array(norms)


def block_norms(part: DyadicPartition, f: Field, p: float) -> np.ndarray:
    """L^p norm of every block of f, index 0 holding block -1.

    One real FFT of f; at p = 2 Parseval gives the norms without any
    inverse transform, other p take one inverse real FFT per block.
    """
    return _block_norms(part, np.fft.rfftn(f.values), p)


def lp_block(part: DyadicPartition, f: Field, j: int) -> Field:
    """The j-th dyadic block of f as a physical field."""
    return Field(part.grid, half_spectrum(part.grid).apply(f.values, part._half_window(j)))


@dataclass
class BlockDecomposition:
    part: DyadicPartition
    blocks: list[Field]  # index 0 is block -1
    resolved: bool
    unresolved_fraction: float

    def block(self, j: int) -> Field:
        return self.blocks[j + 1]

    def reconstruct(self) -> Field:
        out = self.blocks[0]
        for b in self.blocks[1:]:
            out = out + b
        return out


def decompose(part: DyadicPartition, f: Field) -> BlockDecomposition:
    """All blocks j = -1..j_max of f, plus a resolvedness flag.

    When the unresolved coefficient mass fraction exceeds 1e-12 the block
    sum no longer reconstructs f and a warning is emitted.
    """
    g, hs = part.grid, half_spectrum(part.grid)
    Fh = np.fft.rfftn(f.values)
    blocks = [Field(g, hs.irfftn(Fh * part._half_window(j)))
              for j in range(-1, part.j_max + 1)]
    resolved, frac = _check_resolved(
        part, Fh, "field has {:.3e} of its spectral mass beyond the resolved band")
    return BlockDecomposition(part, blocks, resolved, frac)


@dataclass(frozen=True)
class BesovParams:
    """Besov space indices B^s_{p,r}; r = inf gives the sup over blocks."""

    s: float
    p: float
    r: float = math.inf

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError(f"p must be >= 1 or inf, got {self.p}")
        if self.r < 1:
            raise ValueError(f"r must be >= 1 or inf, got {self.r}")


@dataclass
class BesovNormResult:
    value: float
    js: np.ndarray  # block indices, -1..j_max
    profile: np.ndarray  # 2^{js} ||block_j f||_p per block
    resolved: bool

    def __float__(self) -> float:
        return self.value


def besov_norm(part: DyadicPartition, f: Field, params: BesovParams) -> BesovNormResult:
    """Dyadic Besov norm together with its per-block profile.

    profile[i] = 2^{s*j} * ||Delta_j f||_{L^p} for j = js[i]; the norm is the
    l^r aggregation of the profile (sup for r = inf).  Block -1 is always
    included.
    """
    Fh = np.fft.rfftn(f.values)
    resolved, _ = _check_resolved(
        part, Fh, "besov_norm on under-resolved field ({:.3e} mass beyond band)")
    js = np.arange(-1, part.j_max + 1)
    profile = 2.0 ** (params.s * js) * _block_norms(part, Fh, params.p)
    if params.r == math.inf:
        value = float(np.max(profile))
    else:
        value = float(np.sum(profile**params.r) ** (1.0 / params.r))
    return BesovNormResult(value, js, profile, resolved)


def commutator(
    part: DyadicPartition,
    js: Sequence[int],
    velocity: Sequence[Field],
    f: Field,
) -> list[Field]:
    """Block commutators [Delta_j, v . grad] f = Delta_j(v . grad f) - v . Delta_j grad f,
    one field for every j in js.

    All pointwise products are dealiased by the 2/3 rule.  grad f,
    v . grad f, their half spectra and the truncated velocity do not depend
    on j and are built once for all blocks.
    """
    return list(_commutator_blocks(part, js, velocity, f))


def _commutator_blocks(
    part: DyadicPartition,
    js: Sequence[int],
    velocity: Sequence[Field],
    f: Field,
) -> Iterator[Field]:
    """The blocks of :func:`commutator`, one at a time."""
    g = part.grid
    if len(velocity) != g.d:
        raise ValueError(f"velocity must have {g.d} components, got {len(velocity)}")
    for c in velocity:
        _check_same_grid(c.grid, g)
    hs = half_spectrum(g)
    v = [hs.truncate(c.values) for c in velocity]

    def advect(b) -> np.ndarray:
        """v . b with the truncate-multiply-truncate rule of dealiased_product."""
        total = hs.truncate(v[0] * hs.truncate(b[0]))
        for a in range(1, g.d):
            total = total + hs.truncate(v[a] * hs.truncate(b[a]))
        return total

    grad = hs.apply(f.values, hs.gradient_symbol())
    adv_half = np.fft.rfftn(advect(grad))
    grad_half = [np.fft.rfftn(c) for c in grad]
    del grad  # the blocks need only its half spectra
    for j in js:
        w = part._half_window(j)
        block_grad = [hs.irfftn(c * w) for c in grad_half]
        yield Field(g, hs.irfftn(adv_half * w) - advect(block_grad))
