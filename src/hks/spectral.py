"""Periodic spectral core: grid, transforms, multipliers, Lebesgue norms.

The computational domain is the torus [-12*pi*M, 12*pi*M)^d sampled at N
points per axis, so the frequency lattice is {k / (12 M) : k integer}.
With that choice every carrier frequency of the form (17/12) * 2**n * M
sits exactly on a lattice point, which is what the packet construction
in :mod:`hks.construction` relies on.

Transform convention: the forward transform carries the e^{-i x.xi} sign
and is mean-preserving, i.e. the coefficient at frequency zero equals the
arithmetic mean of the field.  The inverse is a plain coefficient sum,
f(x) = sum_xi F(xi) e^{i x.xi}.  A continuum pair (with inverse carrying
(2*pi)^{-d}) maps onto this normalization by F_disc(xi) ~ fhat(xi) / |box|;
we never compare absolute continuum constants, only lattice quantities.

The anchor at x = -12*pi*M puts the spatial origin at index N/2, so the
pair is numpy's fftn/ifftn with the samples rotated by ifftshift/fftshift.

Real fields live on the real-FFT half spectrum: one :class:`HalfSpectrum`
per grid holds the tables, and :meth:`HalfSpectrum.apply` applies a
diagonal multiplier to a real field (rfftn, multiply, irfftn).  Every
package routine that differentiates, smooths, truncates or blocks a real
field goes through it; the anchor is irrelevant there, since a diagonal
multiplier commutes with the rotation.  Frequency tables and dyadic
windows exist only there.  Only band_limited_noise builds a field on the
full lattice (the envelope profile and the lemma suite's matched noise take
the inverse of one axis, ``_anchored_ifft``); the complex pair
(:func:`transform`, :func:`inverse_transform`) is public API that no
package code path calls.

Dealiasing has one rule, Orszag's 2/3 truncation: a mode is kept when
every |k_a| is at most floor(2/3 * N/2) (:func:`dealias_cutoff_index`),
and each grid's half spectrum holds the one keep mask.  A truncation cuts
the last axis at the cutoff (:meth:`HalfSpectrum.kept`) and lets the
inverse transform zero-fill the rest; :meth:`HalfSpectrum.truncate` is
the one truncation of a field.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field
from typing import Callable, TypeVar

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "SpectralField",
    "make_grid",
    "transform",
    "inverse_transform",
    "lp_norm",
    "dealias_cutoff_index",
    "HalfSpectrum",
    "half_spectrum",
    "dealiased_product",
    "band_limited_noise",
]

_MAX_SAMPLES_LOG2 = 31  # reject grids with more than 2**31 samples

_T = TypeVar("_T")


def _once(cache: dict, key: str, build: Callable[[], _T]) -> _T:
    """``cache[key]``, set to ``build()`` by the first caller of key from any
    thread.  Later callers of key wait for that build; callers of any other
    key never do, so a build may read other keys, on any thread.  The lock of
    key stays in cache beside it, under ``key + ".lock"``, so after a failed
    build the callers of key still build it one at a time."""
    if key not in cache:
        with cache.setdefault(key + ".lock", threading.Lock()):  # setdefault is atomic
            if key not in cache:
                cache[key] = build()
    return cache[key]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-12*pi*M, 12*pi*M)^d.

    Parameters
    ----------
    d : int
        Space dimension, 1 to 3.
    M : int
        Box scale; the half-length is 12*pi*M and the frequency lattice
        step is 1/(12*M).
    N : int
        Points per axis; a power of two, at least 16.
    """

    d: int
    M: int
    N: int
    # derived, filled in __post_init__
    length: float = field(init=False, repr=False)
    spacing: float = field(init=False, repr=False)
    nyquist: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.d not in (1, 2, 3):
            raise ValueError(f"d must be 1, 2 or 3, got {self.d}")
        if self.M < 1 or int(self.M) != self.M:
            raise ValueError(f"M must be a positive integer, got {self.M}")
        n = self.N
        if n < 16 or (n & (n - 1)) != 0:
            raise ValueError(f"N must be a power of two >= 16, got {n}")
        if self.d * math.log2(n) > _MAX_SAMPLES_LOG2:
            raise ValueError(f"grid too large: N**d exceeds 2**{_MAX_SAMPLES_LOG2}")
        object.__setattr__(self, "length", 24.0 * math.pi * self.M)
        object.__setattr__(self, "spacing", 24.0 * math.pi * self.M / n)
        object.__setattr__(self, "nyquist", n / (24.0 * self.M))
        object.__setattr__(self, "_cache", {})

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.d

    @property
    def freq_step(self) -> float:
        return 1.0 / (12.0 * self.M)

    def axis_coordinates(self) -> np.ndarray:
        """Physical coordinates along one axis, x_i = -12*pi*M + i*spacing."""
        return -12.0 * math.pi * self.M + self.spacing * np.arange(self.N)

    def axis_wavenumbers(self) -> np.ndarray:
        """Signed integer lattice indices along one axis, fft order."""
        return np.fft.fftfreq(self.N, d=1.0 / self.N)

    def origin_index(self) -> tuple[int, ...]:
        """Grid index of the physical point x = 0."""
        return (self.N // 2,) * self.d


def make_grid(d: int, M: int, N: int) -> Grid:
    return Grid(d=d, M=M, N=N)


@dataclass
class Field:
    """Real scalar field sampled on a :class:`Grid`."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        self.values = v

    def __add__(self, other: "Field") -> "Field":
        _check_same_grid(self.grid, other.grid)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        _check_same_grid(self.grid, other.grid)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "Field":
        return Field(self.grid, self.values * float(c))

    __rmul__ = __mul__


@dataclass
class SpectralField:
    """Fourier coefficients of a field, fft-ordered on the frequency lattice."""

    grid: Grid
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coefficients, dtype=np.complex128)
        if c.shape != self.grid.shape:
            raise ValueError(f"coefficients shape {c.shape} != grid shape {self.grid.shape}")
        self.coefficients = c


def _check_same_grid(a: Grid, b: Grid) -> None:
    """The package's one same-grid rule: a and b have one geometry."""
    if a is not b and (a.d, a.M, a.N) != (b.d, b.M, b.N):
        raise ValueError(f"different grids: {a} and {b}")


def _anchored_ifft(c: np.ndarray) -> np.ndarray:
    """The real samples of sum_k c_k e^{i x xi_k} on one axis of c.size
    points: :func:`inverse_transform` in one dimension, on a bare array."""
    return np.ascontiguousarray((np.fft.fftshift(np.fft.ifft(c)) * c.size).real)


def transform(f: Field) -> SpectralField:
    """Forward transform, F(xi_k) = N^{-d} sum_x f(x) e^{-i x.xi_k}.

    The coefficient at frequency zero equals mean(f).
    """
    g = f.grid
    return SpectralField(g, np.fft.fftn(np.fft.ifftshift(f.values)) / g.N**g.d)


def inverse_transform(F: SpectralField) -> Field:
    """Inverse transform, f(x) = sum_k F(xi_k) e^{i x.xi_k}.

    The imaginary residue is discarded; for coefficient sets with Hermitian
    symmetry (every transform of a real field) it is at roundoff level.
    """
    g = F.grid
    vals = np.fft.fftshift(np.fft.ifftn(F.coefficients)) * g.N**g.d
    return Field(g, np.ascontiguousarray(vals.real))


def lp_norm(f: Field, p: float) -> float:
    """Discrete L^p norm with rectangle-rule quadrature weight spacing**d.

    p may be any real >= 1 or math.inf.  When the plain sum of |f|^p
    overflows or underflows (a large p), |f| is rescaled by max|f| first.
    f is left as it is; the one temporary holds |f| and then |f|^p.
    """
    if p == math.inf:
        return float(max(np.max(f.values), -np.min(f.values)))  # no |f| temporary
    if not p >= 1:  # also rejects nan
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    w, scale = f.grid.spacing ** f.grid.d, 1.0
    with np.errstate(over="ignore", under="ignore"):
        a = np.abs(f.values)  # the one temporary
        a **= p
        total = np.sum(a) * w
        if not (np.isfinite(total) and total >= np.finfo(np.float64).tiny):
            scale = lp_norm(f, math.inf) or 1.0  # 1 on f = 0, whose sum is 0 anyway
            total = np.sum((np.abs(f.values) / scale) ** p) * w
    return float(scale * total ** (1.0 / p))


# ---------------------------------------------------------------------------
# half-spectrum tables and dealiasing (shared by the solver, the block layer
# and the commutator)

def dealias_cutoff_index(grid: Grid) -> int:
    """Largest retained |k| per axis under the 2/3 rule (Orszag 1971)."""
    return int(math.floor(2.0 / 3.0 * (grid.N // 2)))


class HalfSpectrum:
    """Frequency tables on the ``rfftn`` half spectrum (last axis k = 0..N/2).

    ``k`` and ``xi = k/(12 M)`` are broadcast-ready per axis, ``xi2`` is
    |xi|^2 and ``helm_inv`` is 1/(1+|xi|^2); every multiplier of the
    package (derivatives, Laplacian, Helmholtz, dealias mask, dyadic
    windows) is a product of these tables.  :func:`half_spectrum` holds the
    one table of each grid; the table keeps no reference to the grid, so the
    grid's cache forms no reference cycle.
    """

    def __init__(self, grid: Grid) -> None:
        k_half = np.arange(grid.N // 2 + 1, dtype=np.float64)
        axes = [grid.axis_wavenumbers() for _ in range(grid.d - 1)] + [k_half]
        self.shape, self._cutoff = grid.shape, dealias_cutoff_index(grid)
        self.k = tuple(np.meshgrid(*axes, indexing="ij", sparse=True))
        self.xi = tuple(k * grid.freq_step for k in self.k)
        self.xi2 = sum(xi**2 for xi in self.xi)
        self.helm_inv = 1.0 / (1.0 + self.xi2)

    @property
    def keep(self) -> np.ndarray:
        """1 on modes with every |k_a| at or below the dealias cutoff, else 0;
        built on the first read."""
        return _once(self.__dict__, "_keep", lambda: functools.reduce(
            np.logical_and, [np.abs(k) <= self._cutoff for k in self.k]).astype(np.float64))

    def kept(self, F: np.ndarray) -> np.ndarray:
        """The modes of the half spectrum F that the dealias rule keeps, in
        the form :meth:`irfftn` takes: F cut after the cutoff on the last
        axis (a view at d = 1), times the keep mask on the other axes at
        d >= 2.  ``irfftn(kept(F))`` is the field of ``F * keep``: the
        transform zero-fills the modes cut off, where the product is zero."""
        c = self._cutoff + 1
        return F[..., :c] if len(self.shape) == 1 else F[..., :c] * self.keep[..., :c]

    @property
    def masked_xi(self) -> tuple[np.ndarray, ...]:
        """The d dense tables xi_a * keep: each axis frequency with the modes
        above the dealias cutoff zeroed; built on the first read."""
        return _once(self.__dict__, "_masked_xi", lambda: tuple(xi * self.keep for xi in self.xi))

    def differentiate(self, F: np.ndarray, axis: int) -> np.ndarray:
        """Multiply the half spectrum F by the symbol i*xi_axis in place and
        return it.  The real table is applied first and 1j after it, which
        gives the values of the complex product without a dense complex
        symbol."""
        F *= self.xi[axis]
        F *= 1j
        return F

    def gradient(self, F: np.ndarray) -> np.ndarray:
        """The half spectra of the d partial derivatives of the field whose
        half spectrum is F, stacked on a first axis."""
        out = np.empty((len(self.xi),) + F.shape, dtype=np.complex128)
        for a in range(len(self.xi)):
            out[a] = F
            self.differentiate(out[a], a)
        return out

    def irfftn(self, coeffs: np.ndarray) -> np.ndarray:
        """Real field on the grid from its half-spectrum coefficients; leading
        axes beyond the grid's d give a stack of fields.  A last axis shorter
        than N/2 + 1 holds the lowest modes, and the transform zero-fills the
        rest without a padded copy."""
        d = len(self.shape)
        return np.fft.irfftn(coeffs, s=self.shape, axes=range(-d, 0))

    def apply(self, values: np.ndarray, symbol: np.ndarray) -> np.ndarray:
        """The multiplier ``symbol``, sampled on the half spectrum, applied to
        the real field ``values``: one rfftn, a product, one irfftn.  A
        symbol with a leading stack axis gives one field per symbol."""
        return self.irfftn(np.fft.rfftn(values) * symbol)

    def truncate(self, values: np.ndarray) -> np.ndarray:
        """Zero every mode of ``values`` with an axis index above the cutoff.
        A temporary ``values`` (``truncate(a * b)``) is freed before the
        inverse transform on CPython >= 3.11 only."""
        F = np.fft.rfftn(values)
        del values
        return self.irfftn(self.kept(F))


def _multiplicities(a: np.ndarray) -> np.ndarray:
    """The half-spectrum array a weighted in place by each mode's full-lattice
    multiplicity: 1 on the zero and Nyquist planes of the last axis, else 2."""
    a[..., 1:-1] *= 2.0
    return a


def _half_power(Fh: np.ndarray) -> np.ndarray:
    """|F|^2 on the half spectrum, weighted by the modes' multiplicities."""
    return _multiplicities(Fh.real**2 + Fh.imag**2)


def _tail_share(Fh: np.ndarray, beyond: np.ndarray) -> float:
    """Share of the L2 mass of the field whose half spectrum is Fh on the
    modes where the half-spectrum mask ``beyond`` holds."""
    c2 = _half_power(Fh)
    total = float(np.sum(c2))
    if total == 0.0:
        return 0.0
    return float(np.sum(c2[beyond]) / total)


def half_spectrum(grid: Grid) -> HalfSpectrum:
    """The half-spectrum tables of ``grid``, built on the first call from any
    thread and kept on the grid."""
    return _once(grid._cache, "half", lambda: HalfSpectrum(grid))


def dealiased_product(a: Field, b: Field) -> Field:
    """Product computed by the truncate-multiply-truncate rule.

    Both factors are band-limited to the cutoff, multiplied pointwise, and
    the result is truncated again, so quadratic interactions of retained
    modes never alias back into the retained band.
    """
    _check_same_grid(a.grid, b.grid)
    hs = half_spectrum(a.grid)
    prod = hs.truncate(a.values) * hs.truncate(b.values)
    return Field(a.grid, hs.truncate(prod))


def band_limited_noise(grid: Grid, kmax: int, seed: int, kmin: int = 0) -> Field:
    """Real random field with spectrum confined to kmin <= max_a|k_a| <= kmax.

    Deterministic for fixed (grid, kmax, kmin, seed); used by the lemma
    checks and the property tests.
    """
    if not 0 <= kmin <= kmax < grid.N // 2:
        raise ValueError(f"need 0 <= kmin <= kmax < N/2 = {grid.N // 2} (the Nyquist "
                         f"index), got kmin={kmin}, kmax={kmax}")
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    kinf = functools.reduce(np.maximum, np.ix_(*[np.abs(grid.axis_wavenumbers())] * grid.d))
    coeff *= (kinf <= kmax) & (kinf >= kmin)
    vals = np.fft.ifftn(coeff).real
    vals /= max(np.max(np.abs(vals)), 1e-300)
    return Field(grid, vals)
