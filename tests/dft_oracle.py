"""Slow direct-summation reference implementations for the test suite.

Everything here is rebuilt from the documented interface contracts alone:
explicit DFT matrices instead of FFTs, scalar window formulas instead of
cached lattice masks, Python loops where the library vectorizes.  O(N^2)
per axis, so callers keep N small.  These functions cross-check the fast
paths; they never define expected values by calling into the package.
"""

import math

import numpy as np

_CHUNK = 512  # rows of the DFT matrix materialized at a time


def axis_coordinates(M, N):
    """x_i = -12 pi M + i * (24 pi M / N)."""
    return -12.0 * math.pi * M + (24.0 * math.pi * M / N) * np.arange(N)


def axis_wavenumbers(N):
    """Signed integer indices 0, 1, ..., N/2-1, -N/2, ..., -1."""
    k = np.arange(N)
    return np.where(k < N // 2, k, k - N)


def axis_frequencies(M, N):
    return axis_wavenumbers(N) / (12.0 * M)


def _apply_axis_matrix(values, row_fn, N):
    """Apply the NxN matrix whose row block is row_fn(lo, hi) along axis 0."""
    out = np.empty(values.shape, dtype=np.complex128)
    for lo in range(0, N, _CHUNK):
        hi = min(lo + _CHUNK, N)
        out[lo:hi] = np.tensordot(row_fn(lo, hi), values, axes=(1, 0))
    return out


def slow_transform(values, M):
    """F(xi_k) = N^{-d} sum_x f(x) exp(-i x . xi_k), coefficients fft-ordered."""
    values = np.asarray(values, dtype=np.complex128)
    N = values.shape[0]
    x = axis_coordinates(M, N)
    xi = axis_frequencies(M, N)
    out = values
    for axis in range(values.ndim):
        out = np.moveaxis(out, axis, 0)
        out = _apply_axis_matrix(
            out, lambda lo, hi: np.exp(-1j * np.outer(xi[lo:hi], x)) / N, N)
        out = np.moveaxis(out, 0, axis)
    return out


def slow_inverse(coeffs, M, d=None):
    """f(x) = sum_k F(xi_k) exp(i x . xi_k), real part, over the first d
    axes (all by default); further axes stack spectra, each matrix row block
    built once for all of them."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    N = coeffs.shape[0]
    x = axis_coordinates(M, N)
    xi = axis_frequencies(M, N)
    out = coeffs
    for axis in range(d or coeffs.ndim):
        out = np.moveaxis(out, axis, 0)
        out = _apply_axis_matrix(
            out, lambda lo, hi: np.exp(1j * np.outer(x[lo:hi], xi)), N)
        out = np.moveaxis(out, 0, axis)
    return out.real


# -- window formulas, restated from the documented cutoff contract ----------


def step(t):
    t = np.asarray(t, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.where(t > 0.0, t, 1.0)), 0.0)
        b = np.where(t < 1.0, np.exp(-1.0 / np.where(t < 1.0, 1.0 - t, 1.0)), 0.0)
    return a / (a + b)


def chi(r):
    return step((4.0 / 3.0 - np.asarray(r, dtype=np.float64)) / (4.0 / 3.0 - 0.75))


def phi(r):
    r = np.asarray(r, dtype=np.float64)
    return chi(r / 2.0) - chi(r)


def j_max(M, N):
    """Largest j with 36 * M * 2^j < N."""
    j = -1
    while 36 * M * (1 << (j + 1)) < N:
        j += 1
    return j


def radius(d, M, N):
    """|xi| on the full lattice, fft-ordered along every axis."""
    xi = axis_frequencies(M, N)
    r2 = np.zeros((N,) * d)
    for a in range(d):
        shp = [1] * d
        shp[a] = N
        r2 = r2 + xi.reshape(shp) ** 2
    return np.sqrt(r2)


def block_mask(d, M, N, j):
    r = radius(d, M, N)
    return chi(r) if j == -1 else phi(r / 2.0**j)


def slow_block(values, M, j):
    values = np.asarray(values, dtype=np.float64)
    d, N = values.ndim, values.shape[0]
    F = slow_transform(values, M)
    return slow_inverse(F * block_mask(d, M, N, j), M)


def slow_lp(values, M, p):
    values = np.asarray(values, dtype=np.float64)
    if p == math.inf:
        return float(np.max(np.abs(values)))
    w = (24.0 * math.pi * M / values.shape[0]) ** values.ndim
    return float((np.sum(np.abs(values) ** p) * w) ** (1.0 / p))


def slow_besov_profile(values, M, s, p):
    """2^{js} ||block_j||_p for j = -1 .. j_max, one slow transform total."""
    values = np.asarray(values, dtype=np.float64)
    d, N = values.ndim, values.shape[0]
    F = slow_transform(values, M)
    out = []
    for j in range(-1, j_max(M, N) + 1):
        blk = slow_inverse(F * block_mask(d, M, N, j), M)
        out.append(2.0 ** (s * j) * slow_lp(blk, M, p))
    return np.array(out)


# -- dealiased products and the block commutator ----------------------------


def _keep_mask(d, N, fraction):
    kc = int(math.floor(fraction * (N // 2)))
    k = np.abs(axis_wavenumbers(N))
    keep = np.ones((N,) * d)
    for a in range(d):
        shp = [1] * d
        shp[a] = N
        keep = keep * (k <= kc).astype(np.float64).reshape(shp)
    return keep


def slow_dealias(values, M, fraction=2.0 / 3.0):
    values = np.asarray(values, dtype=np.float64)
    d, N = values.ndim, values.shape[0]
    F = slow_transform(values, M) * _keep_mask(d, N, fraction)
    return slow_inverse(F, M)


def slow_product(a, b, M, fraction=2.0 / 3.0):
    """Truncate both factors, multiply pointwise, truncate the result."""
    return slow_dealias(slow_dealias(a, M, fraction) * slow_dealias(b, M, fraction),
                        M, fraction)


def slow_gradient(values, M):
    values = np.asarray(values, dtype=np.float64)
    d, N = values.ndim, values.shape[0]
    xi = axis_frequencies(M, N)
    F = slow_transform(values, M)
    out = []
    for a in range(d):
        shp = [1] * d
        shp[a] = N
        out.append(slow_inverse(F * (1j * xi.reshape(shp)), M))
    return out


def slow_commutator(velocity, f, M, j, fraction=2.0 / 3.0):
    """[block_j, v . grad] f with dealiased products, direct summation."""
    f = np.asarray(f, dtype=np.float64)
    grad = slow_gradient(f, M)
    adv = sum(slow_product(v, g, M, fraction) for v, g in zip(velocity, grad))
    first = slow_block(adv, M, j)
    second = sum(slow_product(v, slow_block(g, M, j), M, fraction)
                 for v, g in zip(velocity, grad))
    return first - second


# -- the transport model's right-hand side and one RK4 step ------------------


def slow_rhs(u, M, eps=0.0, fraction=2.0 / 3.0):
    """-sum_a d_a trunc(trunc(d_a S) trunc(g)) + eps Laplacian(u), with
    S = (1 - Laplacian)^{-1} u and g = trunc(u) - trunc(trunc(u)^2)."""
    u = np.asarray(u, dtype=np.float64)
    d, N = u.ndim, u.shape[0]
    xi2 = radius(d, M, N) ** 2
    U = slow_transform(u, M)
    S = slow_inverse(U / (1.0 + xi2), M)
    g = slow_dealias(u, M, fraction) - slow_product(u, u, M, fraction)
    out = -sum(slow_gradient(slow_product(dS, g, M, fraction), M)[a]
               for a, dS in enumerate(slow_gradient(S, M)))
    if eps > 0.0:
        out = out + eps * slow_inverse(-xi2 * U, M)
    return out


def slow_rk4_step(u, dt, M):
    """One classical RK4 step of size dt of :func:`slow_rhs` with eps = 0."""
    u = np.asarray(u, dtype=np.float64)
    k1 = slow_rhs(u, M)
    k2 = slow_rhs(u + 0.5 * dt * k1, M)
    k3 = slow_rhs(u + 0.5 * dt * k2, M)
    k4 = slow_rhs(u + dt * k3, M)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
