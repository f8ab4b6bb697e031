import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dft_oracle as oracle
from hks.spectral import (
    Field,
    MultiplierSymbol,
    SpectralField,
    apply_multiplier,
    band_limited_noise,
    dealias_cutoff_index,
    dealias_field,
    dealiased_product,
    derivative,
    half_spectrum,
    helmholtz_inverse,
    inverse_transform,
    laplacian,
    lp_norm,
    make_grid,
    one_minus_laplacian,
    transform,
)


def lattice_mode(grid, k, kind=np.cos):
    x = grid.axis_coordinates()
    return Field(grid, kind(k * grid.freq_step * x))


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
        assert np.array_equal(a.pointwise(b).values, a.values)

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

    def test_rejects_p_below_one(self):
        g = make_grid(1, 1, 64)
        with pytest.raises(ValueError):
            lp_norm(Field(g, np.ones(64)), 0.5)


class TestMultipliers:
    def test_derivative_of_cosine(self):
        g = make_grid(1, 1, 256)
        xi0 = 17 * g.freq_step
        out = inverse_transform(apply_multiplier(
            derivative(0), transform(lattice_mode(g, 17, np.cos))))
        expected = -xi0 * lattice_mode(g, 17, np.sin).values
        assert np.max(np.abs(out.values - expected)) <= 1e-13

    def test_laplacian_eigenvalue(self):
        g = make_grid(1, 1, 256)
        xi0 = 24 * g.freq_step
        f = lattice_mode(g, 24, np.cos)
        out = inverse_transform(apply_multiplier(laplacian(), transform(f)))
        assert np.max(np.abs(out.values + xi0**2 * f.values)) <= 1e-12

    def test_helmholtz_inverts_one_minus_laplacian(self):
        g = make_grid(1, 1, 256)
        f = band_limited_noise(g, 100, seed=4)
        F = transform(f)
        back = inverse_transform(apply_multiplier(
            helmholtz_inverse(), apply_multiplier(one_minus_laplacian(), F)))
        assert np.max(np.abs(back.values - f.values)) <= 1e-12

    def test_symbol_product_equals_composition(self):
        g = make_grid(1, 1, 128)
        f = band_limited_noise(g, 50, seed=5)
        combined = derivative(0) * helmholtz_inverse()
        lhs = apply_multiplier(combined, transform(f)).coefficients
        rhs = apply_multiplier(derivative(0), apply_multiplier(
            helmholtz_inverse(), transform(f))).coefficients
        assert np.max(np.abs(lhs - rhs)) <= 1e-15

    def test_axis_out_of_range(self):
        g = make_grid(1, 1, 64)
        with pytest.raises(ValueError, match="axis"):
            apply_multiplier(derivative(1), transform(Field(g, np.zeros(64))))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_symbol_rejected(self):
        g = make_grid(1, 1, 64)
        bad = MultiplierSymbol("inv", lambda axes: 1.0 / axes[0])
        with pytest.raises(ValueError, match="finite"):
            apply_multiplier(bad, transform(Field(g, np.zeros(64))))


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
        g = f.grid
        hs = half_spectrum(g)
        symbols = [derivative(a) for a in range(g.d)]
        symbols += [laplacian(), helmholtz_inverse(), one_minus_laplacian()]
        for sym in symbols:
            full = inverse_transform(apply_multiplier(sym, transform(f))).values
            half = hs.apply(f.values, sym.fn(hs.xi))
            scale = 1.0 + np.max(np.abs(sym.evaluate(g)))
            assert np.max(np.abs(half - full)) <= 1e-12 * scale, sym.name

    @settings(max_examples=40, deadline=None)
    @given(f=noise_fields())
    def test_gradient_symbol_stacks_derivatives(self, f):
        hs = half_spectrum(f.grid)
        grad = hs.apply(f.values, hs.gradient_symbol())
        assert grad.shape == (f.grid.d,) + f.grid.shape
        for a in range(f.grid.d):
            assert np.array_equal(grad[a], hs.apply(f.values, derivative(a).fn(hs.xi)))

    @settings(max_examples=40, deadline=None)
    @given(f=noise_fields())
    def test_transform_round_trip(self, f):
        back = inverse_transform(transform(f)).values
        assert np.max(np.abs(back - f.values)) <= 1e-13


class TestDealiasing:
    def test_cutoff_index(self):
        g = make_grid(1, 1, 64)
        assert dealias_cutoff_index(g) == 21
        assert dealias_cutoff_index(g, 0.5) == 16

    def test_field_truncation(self):
        g = make_grid(1, 1, 64)
        low, high = lattice_mode(g, 10), lattice_mode(g, 30)
        kept = dealias_field(low)
        assert np.max(np.abs(kept.values - low.values)) <= 1e-14
        gone = dealias_field(high)
        assert np.max(np.abs(gone.values)) <= 1e-12

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
        g = make_grid(1, 1, 128)
        with pytest.raises(ValueError, match="Nyquist"):
            band_limited_noise(g, 64, seed=0)
