"""Dyadic frequency decomposition and Besov norms on the periodic lattice.

The low cutoff chi is radial, identically 1 on |xi| <= 3/4 and identically
0 on |xi| >= 4/3, built from the C^infinity step
h(t) = psi(t) / (psi(t) + psi(1-t)) with psi(t) = exp(-1/t) for t > 0.
The annulus window is the telescoping difference phi(xi) = chi(xi/2) - chi(xi),
supported in 3/4 <= |xi| <= 8/3 and identically 1 on 4/3 <= |xi| <= 3/2.
Block j applies phi(2^-j xi); block -1 applies chi.  Because h is exactly
0 and 1 outside the open transition interval, supports are exact and
windows two or more octaves apart multiply to exactly zero.

A Besov sup over blocks needs the norm of every block only at p = 2, where
Parseval gives them all without an inverse transform.  At other p,
``block_sups`` transforms only the blocks whose norm can reach the sup, and
bounds the others from the half spectrum F of f and the window w of the
block (Bahouri, Chemin and Danchin, *Fourier Analysis and Nonlinear PDEs*,
2011, ch. 2):

* L^inf: the triangle inequality on the inverse sum,
  ||Delta_j f||_inf <= N^-d sum_k m_k w_k |F_k|, with m_k the full-lattice
  multiplicity of a half-spectrum mode (``spectral._multiplicities``);
* p > 2: ||g||_p <= ||g||_2^(2/p) ||g||_inf^(1 - 2/p), with the Parseval
  L^2 norm;
* 1 <= p < 2: Hoelder on the box of side L, ||g||_p <= L^(d(1/p - 1/2)) ||g||_2.

Each holds for the rectangle-rule sums of ``lp_norm`` exactly as for the
integrals.  The computed norms differ from the exact ones by the roundoff of
the inverse FFT, which is normwise stable (relative error O(eps log N^d)),
and of the sums in ``lp_norm``, about 1e-14 at N^d = 2^31; every bound is
multiplied by BOUND_MARGIN = 1 + 1e-9, far above that, so no computed norm
exceeds its bound and the sup is the max of the same products the full
profile gives.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .spectral import (Field, Grid, _check_same_grid, _half_power, _multiplicities, _once,
                       _tail_share, half_spectrum, lp_norm)

__all__ = [
    "smooth_step",
    "low_cutoff_profile",
    "annulus_profile",
    "DyadicPartition",
    "make_partition",
    "block_sups",
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
# relative margin on the coefficient bounds of block norms, far above the
# roundoff of an inverse FFT and of lp_norm (about 1e-14 at N^d = 2^31)
BOUND_MARGIN = 1.0 + 1e-9


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
    half-spectrum windows; ``block_window`` expands one into a dense
    half-spectrum window on demand.
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
        """The tables of :meth:`_build_tables`, built at the first block
        request from any thread and kept on the grid."""
        return _once(self.grid._cache, "lp_tables", self._build_tables)

    def _build_tables(self) -> tuple[tuple[tuple[np.ndarray, np.ndarray], ...], np.ndarray]:
        """Windows of blocks -1..j_max as (flat half-spectrum indices, values)
        over their nonzero support, and the modes beyond (3/2)*2^j_max.

        Block -1 is chi on |xi| < 4/3; window j >= 0 is evaluated only on the
        lattice points with 3/4 * 2^j < |xi| < 8/3 * 2^j, as
        chi(xi/2^(j+1)) - chi(xi/2^j).  Dividing by a power of two is exact,
        so each value is annulus_profile's bit for bit, and every window is
        exactly 0 off the points it keeps.
        """
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
        return windows, r_half > RESOLVED_FACTOR * 2**self.j_max

    def _window(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """The flat half-spectrum indices and values of block j's window."""
        if j < -1 or j > self.j_max:
            raise ValueError(f"block index {j} outside [-1, {self.j_max}]")
        return self._tables()[0][j + 1]

    def _windowed(self, F: np.ndarray, j: int) -> np.ndarray:
        """F times the window of block j, as a new array cut after the
        window's last nonzero mode along the last axis and filled on the
        window's support only; F is a half spectrum, or a stack of them on
        leading axes.  ``HalfSpectrum.irfftn`` zero-fills the modes cut off,
        so it transforms the values of F times the dense window."""
        idx, vals = self._window(j)
        row, col = np.divmod(idx, self.grid.N // 2 + 1)
        m = int(col.max()) + 1
        lead = F.shape[:F.ndim - self.grid.d]
        out = np.zeros(F.shape[:-1] + (m,), dtype=F.dtype)
        out.reshape(lead + (-1,))[..., row * m + col] = F.reshape(lead + (-1,))[..., idx] * vals
        return out

    def block(self, F: np.ndarray, j: int) -> np.ndarray:
        """Block j of the field whose half spectrum is F (a stack of fields
        for a stack of half spectra): the one block transform."""
        return half_spectrum(self.grid).irfftn(self._windowed(F, j))

    def block_window(self, j: int) -> np.ndarray:
        """The dense window of block j (j = -1 is the low ball) on the real-FFT
        half spectrum, shape ``grid.shape[:-1] + (N//2 + 1,)``: the window
        formula at ``sqrt(HalfSpectrum.xi2)``, for inspection."""
        idx, vals = self._window(j)
        window = np.zeros(self.grid.shape[:-1] + (self.grid.N // 2 + 1,))
        window.reshape(-1)[idx] = vals
        return window


def make_partition(grid: Grid) -> DyadicPartition:
    """The dyadic partition of ``grid``; its windows live on the grid.  The
    entry points that take a field build it from the field's grid."""
    return DyadicPartition(grid)


def _check_resolved(part: DyadicPartition, Fh: np.ndarray, message: str) -> tuple[bool, float]:
    """Resolvedness flag and unresolved mass fraction; warns when unresolved."""
    frac = _tail_share(Fh, part._tables()[1])
    if frac > _RESOLVED_TOL:
        warnings.warn(message.format(frac), stacklevel=3)
    return frac <= _RESOLVED_TOL, frac


def _block_norms(part: DyadicPartition, Fh: np.ndarray, p: float,
                 js: Sequence[int] | None = None) -> np.ndarray:
    """L^p norms of the blocks js (default -1..j_max, in that order) of the
    field whose half spectrum is Fh: Parseval over each window's support at
    p = 2, one inverse real FFT of the windowed spectrum per block otherwise."""
    g = part.grid
    windows = part._tables()[0]
    if js is None:
        js = range(-1, part.j_max + 1)
    if p == 2:
        c2 = _half_power(Fh).reshape(-1)
        sums = np.array([np.sum(c2[idx] * (w * w)) for idx, w in (windows[j + 1] for j in js)])
        return np.sqrt(sums * (g.spacing ** g.d / g.N ** g.d))
    return np.array([lp_norm(Field(g, part.block(Fh, j)), p) for j in js])


def _norm_bounds(part: DyadicPartition, Fh: np.ndarray, p: float) -> np.ndarray:
    """Upper bounds on the L^p norms of every block (index 0 holding block
    -1) of the field whose half spectrum is Fh, from the coefficients alone:
    the module docstring's three inequalities, times BOUND_MARGIN."""
    g = part.grid
    if p < 2:
        return BOUND_MARGIN * g.length ** (g.d * (1.0 / p - 0.5)) * _block_norms(part, Fh, 2.0)
    flat = _multiplicities(np.abs(Fh)).reshape(-1)
    sup = np.array([np.sum(flat[idx] * w) for idx, w in part._tables()[0]]) / g.N ** g.d
    if p == math.inf:
        return BOUND_MARGIN * sup
    l2 = _block_norms(part, Fh, 2.0)
    return BOUND_MARGIN * l2 ** (2.0 / p) * sup ** (1.0 - 2.0 / p)


def block_sups(f: Field, p: float, sigmas: Sequence[float],
               blocks: Sequence[int] = ()) -> tuple[list[float], np.ndarray]:
    """The weighted sups max_j 2^{sigma j} ||Delta_j f||_p, one per sigma of
    sigmas, and the L^p norms of the blocks ``blocks``, in their order.

    Each sup is the max of the products the full profile gives, so it equals
    ``np.max(2.0 ** (sigma * js) * _block_norms(part, rfftn(f), p))`` bit for
    bit, with ``part = make_partition(f.grid)`` and
    ``rfftn(f) = np.fft.rfftn(f.values)``.  One real FFT of f; at
    p = 2 the whole Parseval profile.  At other p the named blocks are
    transformed first; then, per sigma, the blocks in descending order of
    2^{sigma j} times their coefficient bound (``_norm_bounds``), until the
    next bound is at most the largest product in hand.  No block is
    transformed twice.
    """
    part = make_partition(f.grid)
    js = np.arange(-1, part.j_max + 1)
    named = [int(j) for j in blocks]
    if any(not -1 <= j <= part.j_max for j in named):
        raise ValueError(f"block index outside [-1, {part.j_max}]: {named}")
    Fh = np.fft.rfftn(f.values)
    if p == 2:
        norms, done = _block_norms(part, Fh, p), np.ones(js.size, dtype=bool)
    else:
        norms, done = np.zeros(js.size), np.zeros(js.size, dtype=bool)

        def transform(new) -> None:
            new = [j for j in dict.fromkeys(new) if not done[j + 1]]
            slots = np.array(new, dtype=int) + 1
            norms[slots] = _block_norms(part, Fh, p, new)
            done[slots] = True

        transform(named)
        bounds = _norm_bounds(part, Fh, p)
        for sigma in sigmas:
            weights = 2.0 ** (sigma * js)
            best = np.max(weights[done] * norms[done], initial=-math.inf)
            reach = weights * bounds
            for i in np.argsort(reach)[::-1]:
                if reach[i] <= best:
                    break
                if not done[i]:
                    transform([js[i]])
                    best = max(best, weights[i] * norms[i])
    sups = [float(np.max((2.0 ** (sigma * js) * norms)[done])) for sigma in sigmas]
    return sups, norms[np.array(named, dtype=int) + 1]


def lp_block(f: Field, j: int) -> Field:
    """The j-th dyadic block of f as a physical field."""
    return Field(f.grid, make_partition(f.grid).block(np.fft.rfftn(f.values), j))


@dataclass
class BlockDecomposition:
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


def decompose(f: Field) -> BlockDecomposition:
    """All blocks j = -1..j_max of f, plus a resolvedness flag.

    When the unresolved coefficient mass fraction exceeds 1e-12 the block
    sum no longer reconstructs f and a warning is emitted.
    """
    part, Fh = make_partition(f.grid), np.fft.rfftn(f.values)
    blocks = [Field(f.grid, part.block(Fh, j)) for j in range(-1, part.j_max + 1)]
    resolved, frac = _check_resolved(
        part, Fh, "field has {:.3e} of its spectral mass beyond the resolved band")
    return BlockDecomposition(blocks, resolved, frac)


@dataclass(frozen=True)
class BesovParams:
    """Besov space indices B^s_{p,r}; r = inf gives the sup over blocks."""

    s: float
    p: float
    r: float = math.inf

    def __post_init__(self) -> None:
        if not math.isfinite(self.s):
            raise ValueError(f"s must be finite, got {self.s}")
        if not self.p >= 1:  # also rejects nan
            raise ValueError(f"p must be >= 1 or inf, got {self.p}")
        if not self.r >= 1:
            raise ValueError(f"r must be >= 1 or inf, got {self.r}")


@dataclass
class BesovNormResult:
    value: float
    js: np.ndarray  # block indices, -1..j_max
    profile: np.ndarray  # 2^{js} ||block_j f||_p per block
    resolved: bool

    def __float__(self) -> float:
        return self.value


def besov_norm(f: Field, params: BesovParams) -> BesovNormResult:
    """Dyadic Besov norm together with its per-block profile.

    profile[i] = 2^{s*j} * ||Delta_j f||_{L^p} for j = js[i]; the norm is the
    l^r aggregation of the profile (sup for r = inf).  Block -1 is always
    included.
    """
    part, Fh = make_partition(f.grid), np.fft.rfftn(f.values)
    resolved, _ = _check_resolved(
        part, Fh, "besov_norm on under-resolved field ({:.3e} mass beyond band)")
    js = np.arange(-1, part.j_max + 1)
    profile = 2.0 ** (params.s * js) * _block_norms(part, Fh, params.p)
    if params.r == math.inf:
        value = float(np.max(profile))
    else:
        value = float(np.sum(profile**params.r) ** (1.0 / params.r))
    return BesovNormResult(value, js, profile, resolved)


def commutator(js: Sequence[int], velocity: Sequence[Field], f: Field) -> list[Field]:
    """Block commutators [Delta_j, v . grad] f = Delta_j(v . grad f) - v . Delta_j grad f,
    one field for every j in js.

    All pointwise products are dealiased by the 2/3 rule.  grad f,
    v . grad f, their half spectra and the truncated velocity do not depend
    on j and are built once for all blocks.  The velocity must live on f's
    grid.
    """
    grad_f_half = half_spectrum(f.grid).gradient(np.fft.rfftn(f.values))
    block = _commutator_block(make_partition(f.grid), velocity, grad_f_half)
    return [block(j) for j in js]


def _commutator_block(
    part: DyadicPartition,
    velocity: Sequence[Field],
    grad_f_half: np.ndarray,
) -> Callable[[int], Field]:
    """The set-up of :func:`commutator` from the half spectra of grad f
    (``HalfSpectrum.gradient`` of f's rfftn, which the caller may share; it
    is only read), and the function that gives its block at one j.  The
    function only reads the set-up, so blocks can be computed on several
    threads at once."""
    g = part.grid
    if len(velocity) != g.d:
        raise ValueError(f"velocity must have {g.d} components, got {len(velocity)}")
    for c in velocity:
        _check_same_grid(c.grid, g)
    hs = half_spectrum(g)
    v = [hs.truncate(c.values) for c in velocity]

    def advect(b: list) -> np.ndarray:
        """v . b for truncated fields b, by the multiply-truncate half of the
        rule of dealiased_product.  It empties the list b, so each field is
        freed once multiplied and each product once transformed."""
        total = hs.truncate(b.pop(0) * v[0])
        for a in range(1, g.d):
            total += hs.truncate(b.pop(0) * v[a])
        return total

    grad_half = [np.fft.rfftn(c) for c in hs.irfftn(grad_f_half)]
    # the blocks need only the half spectrum of the advection
    adv_half = np.fft.rfftn(advect([hs.irfftn(hs.kept(c)) for c in grad_half]))

    def block(j: int) -> Field:
        # each Delta_j d_a f is truncated from its values, not from its
        # windowed spectrum: 2d FFTs per block that keep the values' bits
        adv = advect([hs.truncate(part.block(c, j)) for c in grad_half])
        out = part.block(adv_half, j)
        out -= adv
        return Field(g, out)

    return block
