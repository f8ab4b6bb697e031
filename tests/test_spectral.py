import math
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dft_oracle as oracle
from conftest import derivative
from hks.spectral import (
    Field,
    SpectralField,
    _once,
    band_limited_noise,
    dealias_cutoff_index,
    dealiased_product,
    half_spectrum,
    inverse_transform,
    lp_norm,
    make_grid,
    transform,
)


def lattice_mode(grid, k, kind=np.cos):
    x = grid.axis_coordinates()
    return Field(grid, kind(k * grid.freq_step * x))


class TestOnce:
    def test_failed_build_leaves_no_lock_and_builds_again(self):
        cache, builds = {}, []

        def failing():
            builds.append("failed")
            raise MemoryError("no room for the table")

        with pytest.raises(MemoryError):
            _once(cache, "table", failing)
        assert "table" not in cache and not cache["table.lock"].locked()
        assert _once(cache, "table", lambda: builds.append("built") or 7) == 7
        assert builds == ["failed", "built"] and cache["table"] == 7

    def test_build_after_a_failure_runs_alone(self):
        # a failing build, a caller waiting for it, and a late caller that
        # arrives while the waiter builds: two builds, never two at once
        cache, builds, running, peak = {}, [], [0], [0]
        count = threading.Lock()

        def call(name, value, out):
            started, go = threading.Event(), threading.Event()

            def build():
                with count:
                    builds.append(name)
                    running[0] += 1
                    peak[0] = max(peak[0], running[0])
                started.set()
                go.wait(10.0)
                with count:
                    running[0] -= 1
                if value is None:
                    raise MemoryError("no room for the table")
                return value

            def run():
                try:
                    out.append(_once(cache, "table", build))
                except MemoryError:
                    out.append(None)

            thread = threading.Thread(target=run)
            thread.start()
            return thread, started, go

        failed, waited, late = [], [], []
        first, first_started, first_go = call("failing", None, failed)
        assert first_started.wait(10.0)
        waiter, waiter_started, waiter_go = call("waiter", 1, waited)
        time.sleep(0.2)  # the waiter reaches the key's lock
        first_go.set()
        first.join(10.0)
        assert waiter_started.wait(10.0)
        third, third_started, third_go = call("late", 2, late)
        third_go.set()
        third_started.wait(0.2)  # a second build would start now
        waiter_go.set()
        waiter.join(10.0)
        third.join(10.0)
        assert builds == ["failing", "waiter"] and peak[0] == 1
        assert (failed, waited, late) == ([None], [1], [1]) and cache["table"] == 1


class TestGrid:
    def test_derived_quantities(self):
        g = make_grid(1, 2, 64)
        assert g.length == pytest.approx(48.0 * math.pi)
        assert g.spacing == pytest.approx(48.0 * math.pi / 64)
        assert g.nyquist == pytest.approx(64 / 48.0)
        assert g.freq_step == pytest.approx(1.0 / 24.0)
        assert g.shape == (64,)

    def test_axis_coordinates(self):
        g = make_grid(1, 1, 64)
        x = g.axis_coordinates()
        assert x[0] == pytest.approx(-12.0 * math.pi)
        assert x[g.origin_index()[0]] == pytest.approx(0.0, abs=1e-13)
        assert x[-1] == pytest.approx(12.0 * math.pi - g.spacing)

    def test_wavenumbers_match_oracle(self):
        g = make_grid(1, 1, 64)
        assert np.array_equal(g.axis_wavenumbers(), oracle.axis_wavenumbers(64))

    @pytest.mark.parametrize("d,M,N", [(4, 1, 64), (0, 1, 64), (1, 0, 64),
                                       (1, -2, 64), (1, 1, 100), (1, 1, 8),
                                       (3, 1, 2048), (2, 1, 65536)])
    def test_rejects_bad_geometry(self, d, M, N):
        with pytest.raises(ValueError):
            make_grid(d, M, N)


class TestField:
    def test_shape_mismatch(self):
        g = make_grid(1, 1, 64)
        with pytest.raises(ValueError, match="shape"):
            Field(g, np.zeros(32))

    def test_nonfinite_rejected(self):
        g = make_grid(1, 1, 64)
        vals = np.zeros(64)
        vals[3] = np.inf
        with pytest.raises(ValueError, match="finite"):
            Field(g, vals)

    def test_arithmetic(self):
        g = make_grid(1, 1, 64)
        a = Field(g, np.arange(64.0))
        b = Field(g, np.ones(64))
        assert np.array_equal((a + b).values, np.arange(64.0) + 1)
        assert np.array_equal((a - b).values, np.arange(64.0) - 1)
        assert np.array_equal((2.0 * a).values, 2.0 * np.arange(64.0))

    def test_cross_grid_rejected(self):
        a = Field(make_grid(1, 1, 64), np.zeros(64))
        b = Field(make_grid(1, 2, 64), np.zeros(64))
        with pytest.raises(ValueError, match="different grids"):
            a + b


class TestTransform:
    def test_cosine_coefficients(self):
        g = make_grid(1, 1, 128)
        F = transform(lattice_mode(g, 17, np.cos)).coefficients
        assert F[17] == pytest.approx(0.5, abs=1e-14)
        assert F[-17] == pytest.approx(0.5, abs=1e-14)
        F[17] = F[-17] = 0.0
        assert np.max(np.abs(F)) <= 1e-14

    def test_sine_coefficients(self):
        g = make_grid(1, 1, 128)
        F = transform(lattice_mode(g, 5, np.sin)).coefficients
        assert F[5] == pytest.approx(-0.5j, abs=1e-14)
        assert F[-5] == pytest.approx(0.5j, abs=1e-14)

    def test_zero_mode_is_mean(self):
        g = make_grid(1, 1, 64)
        rng = np.random.default_rng(0)
        f = Field(g, rng.standard_normal(64))
        assert transform(f).coefficients[0] == pytest.approx(
            np.mean(f.values), abs=1e-15)

    @pytest.mark.parametrize("d,N", [(1, 64), (2, 32)])
    def test_matches_slow_dft(self, d, N):
        g = make_grid(d, 1, N)
        rng = np.random.default_rng(7)
        f = Field(g, rng.standard_normal(g.shape))
        fast = transform(f).coefficients
        slow = oracle.slow_transform(f.values, 1)
        assert np.max(np.abs(fast - slow)) <= 1e-13

    @pytest.mark.parametrize("d,N", [(1, 64), (2, 32)])
    def test_roundtrip(self, d, N):
        g = make_grid(d, 1, N)
        rng = np.random.default_rng(8)
        f = Field(g, rng.standard_normal(g.shape))
        back = inverse_transform(transform(f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-13

    def test_inverse_matches_slow_sum(self):
        g = make_grid(1, 1, 64)
        rng = np.random.default_rng(9)
        coeff = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        coeff = (coeff + np.conj(coeff[::-1].take(range(-1, 63)))) / 2  # Hermitian
        coeff[0] = coeff[0].real
        fast = inverse_transform(SpectralField(g, coeff)).values
        slow = oracle.slow_inverse(coeff, 1)
        assert np.max(np.abs(fast - slow)) <= 1e-12

    def test_parseval(self):
        g = make_grid(1, 1, 256)
        f = band_limited_noise(g, 100, seed=3)
        F = transform(f).coefficients
        lhs = lp_norm(f, 2.0) ** 2
        rhs = g.length * float(np.sum(np.abs(F) ** 2))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_linearity(self):
        g = make_grid(1, 1, 64)
        rng = np.random.default_rng(10)
        a = Field(g, rng.standard_normal(64))
        b = Field(g, rng.standard_normal(64))
        lhs = transform(a + 2.0 * b).coefficients
        rhs = transform(a).coefficients + 2.0 * transform(b).coefficients
        assert np.max(np.abs(lhs - rhs)) <= 1e-14


class TestLpNorm:
    def test_constant(self):
        g = make_grid(1, 1, 64)
        f = Field(g, np.full(64, 3.0))
        assert lp_norm(f, 1.0) == pytest.approx(3.0 * 24.0 * math.pi)
        assert lp_norm(f, 2.0) == pytest.approx(3.0 * math.sqrt(24.0 * math.pi))
        assert lp_norm(f, math.inf) == 3.0

    def test_cosine_l2(self):
        g = make_grid(1, 1, 256)
        f = lattice_mode(g, 12, np.cos)  # frequency 1 exactly
        assert lp_norm(f, 2.0) == pytest.approx(math.sqrt(12.0 * math.pi))

    def test_matches_oracle(self):
        g = make_grid(2, 1, 32)
        rng = np.random.default_rng(11)
        f = Field(g, rng.standard_normal(g.shape))
        for p in (1.0, 2.0, 3.5, math.inf):
            assert lp_norm(f, p) == pytest.approx(
                oracle.slow_lp(f.values, 1, p), rel=1e-13)

    @pytest.mark.parametrize("c,p", [(3.0, 700.0), (3.0, 1e4), (0.1, 400.0), (0.1, 1e5),
                                     (1e-200, 3.0), (1e200, 3.0), (0.0, 1e4)])
    def test_large_and_small_power_sums(self, c, p):
        # |f|^p overflows or underflows; the norm is still c * |box|^(1/p)
        g = make_grid(1, 1, 256)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = lp_norm(Field(g, np.full(256, c)), p)
        assert value == pytest.approx(c * g.length ** (1.0 / p), rel=1e-13)

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    def test_plain_formula_bit_for_bit(self, p):
        g = make_grid(2, 1, 32)
        v = np.random.default_rng(5).standard_normal(g.shape)
        plain = float((np.sum(np.abs(v) ** p) * g.spacing**2) ** (1.0 / p))
        assert lp_norm(Field(g, v), p) == plain

    def test_rejects_p_below_one(self):
        g = make_grid(1, 1, 64)
        for p in (0.5, float("nan")):
            with pytest.raises(ValueError, match="p must be >= 1 or inf"):
                lp_norm(Field(g, np.ones(64)), p)


class TestMultipliers:
    def test_derivative_of_cosine(self):
        g = make_grid(1, 1, 256)
        xi0 = 17 * g.freq_step
        out = derivative(lattice_mode(g, 17, np.cos), 0)
        expected = -xi0 * lattice_mode(g, 17, np.sin).values
        assert np.max(np.abs(out - expected)) <= 1e-13

    def test_laplacian_eigenvalue(self):
        g = make_grid(1, 1, 256)
        hs = half_spectrum(g)
        xi0 = 24 * g.freq_step
        f = lattice_mode(g, 24, np.cos)
        out = hs.apply(f.values, -hs.xi2)
        assert np.max(np.abs(out + xi0**2 * f.values)) <= 1e-12

    def test_helmholtz_inverts_one_minus_laplacian(self):
        g = make_grid(1, 1, 256)
        hs = half_spectrum(g)
        f = band_limited_noise(g, 100, seed=4)
        back = hs.apply(hs.apply(f.values, 1.0 + hs.xi2), hs.helm_inv)
        assert np.max(np.abs(back - f.values)) <= 1e-12


@st.composite
def noise_fields(draw):
    """Band-limited noise on a random small grid.  The Nyquist modes stay
    empty: an odd symbol such as i*xi_a leaves them non-Hermitian, and the
    two paths discard that residue differently."""
    d = draw(st.sampled_from((1, 2, 3)))
    M = draw(st.integers(1, 3))
    N = 2 ** draw(st.integers(4, {1: 10, 2: 7, 3: 5}[d]))
    g = make_grid(d, M, N)
    kmax = draw(st.integers(1, N // 2 - 1))
    return band_limited_noise(g, kmax, seed=draw(st.integers(0, 2**16)))


class TestHalfSpectrumPath:
    @settings(max_examples=40, deadline=None)
    @given(f=noise_fields())
    def test_multipliers_match_complex_pair(self, f):
        """Each half-spectrum multiplier against its symbol on the full
        lattice, applied through the complex transform pair."""
        g = f.grid
        hs = half_spectrum(g)
        axes = np.ix_(*[g.axis_wavenumbers() * g.freq_step] * g.d)
        norm2 = sum(a**2 for a in axes)
        cases = [(f"d/dx{a + 1}", 1j * axes[a], derivative(f, a)) for a in range(g.d)]
        cases += [
            ("laplacian", -norm2, hs.apply(f.values, -hs.xi2)),
            ("helmholtz_inverse", 1.0 / (1.0 + norm2), hs.apply(f.values, hs.helm_inv)),
            ("one_minus_laplacian", 1.0 + norm2, hs.apply(f.values, 1.0 + hs.xi2)),
        ]
        F = transform(f).coefficients
        for name, symbol, half in cases:
            full = inverse_transform(SpectralField(g, F * symbol)).values
            scale = 1.0 + np.max(np.abs(symbol))
            assert np.max(np.abs(half - full)) <= 1e-12 * scale, name

    @settings(max_examples=40, deadline=None)
    @given(f=noise_fields())
    def test_gradient_symbol_stacks_derivatives(self, f):
        """``HalfSpectrum.gradient`` applies the symbols i*xi_a of the d
        partial derivatives, stacked on a first axis."""
        hs = half_spectrum(f.grid)
        grad = hs.irfftn(hs.gradient(np.fft.rfftn(f.values)))
        assert grad.shape == (f.grid.d,) + f.grid.shape
        for a in range(f.grid.d):
            assert np.array_equal(grad[a], derivative(f, a))

    @settings(max_examples=40, deadline=None)
    @given(f=noise_fields())
    def test_transform_round_trip(self, f):
        back = inverse_transform(transform(f)).values
        assert np.max(np.abs(back - f.values)) <= 1e-13


class TestDealiasing:
    def test_cutoff_index(self):
        g = make_grid(1, 1, 64)
        assert dealias_cutoff_index(g) == 21

    def test_field_truncation(self):
        g = make_grid(1, 1, 64)
        low, high = lattice_mode(g, 10), lattice_mode(g, 30)
        hs = half_spectrum(g)
        kept = hs.truncate(low.values)
        assert np.max(np.abs(kept - low.values)) <= 1e-14
        gone = hs.truncate(high.values)
        assert np.max(np.abs(gone)) <= 1e-12

    @pytest.mark.parametrize("d, N", [(1, 256), (2, 32), (3, 16)])
    def test_truncation_equals_mask_product(self, d, N):
        # the cut at the cutoff gives the field of the product with the keep
        # mask bit for bit, on noise up to the Nyquist modes
        g = make_grid(d, 1, N)
        hs = half_spectrum(g)
        v = np.random.default_rng(8).standard_normal(g.shape)
        ref = np.fft.irfftn(np.fft.rfftn(v) * hs.keep, s=g.shape, axes=range(d))
        assert hs.truncate(v).tobytes() == ref.tobytes()

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="below 3.11 the caller's stack keeps the argument alive")
    def test_truncation_frees_a_temporary_argument(self):
        # the argument is freed once transformed, so the peak is the half
        # spectrum and the result, 2 arrays of N floats; the argument alive
        # beside them would make 3
        g = make_grid(1, 1, 1 << 16)
        hs = half_spectrum(g)
        hs.truncate(np.ones(g.N))  # warm the tables and the FFT plan
        tracemalloc.start()
        try:
            hs.truncate(np.ones(g.N))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * g.N

    def test_product_without_truncation_is_pointwise(self):
        g = make_grid(1, 1, 128)
        kc = dealias_cutoff_index(g)
        a = band_limited_noise(g, kc // 2, seed=6)
        b = band_limited_noise(g, kc // 2, seed=7)
        out = dealiased_product(a, b)
        assert np.max(np.abs(out.values - a.values * b.values)) <= 1e-13

    def test_product_removes_aliased_mode(self):
        # cos(20 theta)^2 = 1/2 + cos(40 theta)/2; on N=64 the second term
        # aliases onto |k|=24 > cutoff 21, so the rule must leave exactly 1/2.
        g = make_grid(1, 1, 64)
        f = lattice_mode(g, 20)
        plain = f.values * f.values
        out = dealiased_product(f, f)
        assert np.max(np.abs(out.values - 0.5)) <= 1e-14
        assert np.max(np.abs(plain - 0.5)) > 0.4  # the alias was really there

    def test_matches_oracle(self):
        g = make_grid(1, 1, 64)
        rng = np.random.default_rng(12)
        a = Field(g, rng.standard_normal(64))
        b = Field(g, rng.standard_normal(64))
        out = dealiased_product(a, b)
        slow = oracle.slow_product(a.values, b.values, 1)
        assert np.max(np.abs(out.values - slow)) <= 1e-12


class TestBandLimitedNoise:
    def test_deterministic(self):
        g = make_grid(1, 1, 128)
        a = band_limited_noise(g, 30, seed=42)
        b = band_limited_noise(g, 30, seed=42)
        assert np.array_equal(a.values, b.values)

    def test_support(self):
        g = make_grid(1, 1, 128)
        f = band_limited_noise(g, 20, seed=1, kmin=5)
        F = transform(f).coefficients
        k = np.abs(g.axis_wavenumbers())
        assert np.max(np.abs(F[(k > 20) | (k < 5)])) <= 1e-15

    def test_normalized(self):
        g = make_grid(1, 1, 128)
        f = band_limited_noise(g, 20, seed=2)
        assert np.max(np.abs(f.values)) == pytest.approx(1.0)

    def test_kmax_guard(self):
        # an empty band (kmin > kmax) would give an all-zero field, not a
        # normalised one
        g = make_grid(1, 1, 128)
        for kmin, kmax in ((0, 64), (10, 5), (-1, 5)):
            with pytest.raises(ValueError, match="Nyquist"):
                band_limited_noise(g, kmax, seed=1, kmin=kmin)
