import math
import sys
import threading
import time

import numpy as np
import pytest

import dft_oracle as oracle
from conftest import build_data, derivative
from hks import construction, probe
from hks.construction import (
    Bump,
    _packet_sum_half,
    carrier_frequency,
    make_bump,
    make_fn,
    make_initial_data,
)
from hks.littlewood_paley import BesovParams, besov_norm, lp_block, make_partition, smooth_step
from hks.solver import transport_divergence
from hks.spectral import (
    Field,
    SpectralField,
    dealiased_product,
    half_spectrum,
    inverse_transform,
    lp_norm,
    make_grid,
    transform,
)


def radii(grid):
    """|xi| along one axis, fft-ordered."""
    return np.abs(grid.axis_wavenumbers() * grid.freq_step)


def one_minus_laplacian(f):
    """(1 - Laplacian) f through the full-lattice complex transform pair."""
    g = f.grid
    coeffs = transform(f).coefficients * (1.0 + oracle.radius2(g.d, g.M, g.N))
    return inverse_transform(SpectralField(g, coeffs))


def reflected(values):
    """values at -x, using the periodic wrap of the sample lattice."""
    idx = (-np.arange(values.shape[0])) % values.shape[0]
    return values[idx]


def reference_bump(d, grid):
    """The envelope from the N-point formula on the whole frequency axis."""
    support, plateau = 2.0 ** (-d), 4.0 ** (-d)
    line = make_grid(1, grid.M, grid.N)
    r = radii(line)
    hat = np.where(r <= plateau, 1.0, np.where(
        r >= support, 0.0, smooth_step((support - r) / (support - plateau))))
    profile = inverse_transform(SpectralField(line, hat.astype(np.complex128))).values
    return Bump(grid=grid, hat=hat, profile=profile)


def reference_carrier(n, grid):
    """sin(c_n x_1) from the N-point formula: one sin per point of the axis."""
    kc = 17 * 2**n * grid.M
    r = (np.arange(grid.N, dtype=np.int64) - grid.N // 2) * (kc % grid.N) % grid.N
    return np.sin((2.0 * np.pi / grid.N) * r)


def reference_packet(n, bump, grid):
    vals = reference_carrier(n, grid) * bump.profile
    for _ in range(grid.d - 1):
        vals = np.multiply.outer(vals, bump.profile)
    return vals


def admissible_packets(grid):
    """Every n >= 3 whose carrier band stays below the Nyquist frequency."""
    n = 3
    while carrier_frequency(n) + 2.0 ** (-grid.d) < grid.nyquist:
        yield n
        n += 1


class TestAgainstFullAxisFormulas:
    """The period-wise carrier and the ramp-only bump reproduce the N-point
    formulas bit for bit."""

    @pytest.mark.parametrize("d,log2n", [(1, k) for k in range(5, 17)]
                             + [(2, k) for k in range(5, 10)])
    @pytest.mark.parametrize("M", [1, 2, 3])
    def test_packets(self, d, log2n, M):
        g = make_grid(d, M, 2**log2n)
        bump = make_bump(d, g)
        for n in admissible_packets(g):
            assert make_fn(n, bump).values.tobytes() == \
                reference_packet(n, bump, g).tobytes(), n

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("M", [1, 2, 3])
    def test_bumps(self, d, M):
        for log2n in range(5, min(16, 31 // d) + 1):  # N^d <= 2^31
            g = make_grid(d, M, 2**log2n)
            if 2.0 ** (-d) / g.freq_step < 3.0:
                with pytest.raises(ValueError, match="raise M"):
                    make_bump(d, g)
                continue
            bump, ref = make_bump(d, g), reference_bump(d, g)
            assert bump.hat.tobytes() == ref.hat.tobytes(), log2n
            assert bump.profile.tobytes() == ref.profile.tobytes(), log2n

    @pytest.mark.parametrize("seed", [1, 42])
    @pytest.mark.parametrize("log2n", [9, 12, 14])
    def test_matched_noise(self, log2n, seed):
        g = make_grid(1, 1, 2**log2n)
        for kmax in (8, 50, g.N // 8):
            rng = np.random.default_rng(seed)
            coeffs = np.zeros(g.N, dtype=np.complex128)
            for k in range(1, kmax + 1):
                coeffs[k] = (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(kmax)
                coeffs[-k] = np.conj(coeffs[k])
            ref = inverse_transform(SpectralField(g, coeffs)).values
            assert probe._matched_noise(g, kmax, seed).values.tobytes() == ref.tobytes(), kmax

    def test_datum(self):
        g = make_grid(1, 1, 65536)
        s, n_max = 2.0, 10
        data = make_initial_data(s, n_max, make_bump(1, g), g)
        ref = reference_bump(1, g)
        S0 = np.zeros(g.shape)
        for n in range(3, n_max + 1):
            S0 += 2.0 ** (-n * (s + 2.0)) * reference_packet(n, ref, g)
        hs = half_spectrum(g)
        u0_half = _packet_sum_half(s, n_max, ref, g) * (1.0 + hs.xi2)
        u0 = np.fft.fftshift(hs.irfftn(u0_half)) * g.N
        v0 = transport_divergence(Field(g, u0), Field(g, S0)).values
        assert data.S0.values.tobytes() == S0.tobytes()
        assert data.u0.values.tobytes() == u0.tobytes()
        assert data.v0.values.tobytes() == v0.tobytes()


class TestConstructionWork:
    @pytest.mark.parametrize("M,N,n_max", [(1, 16384, 8), (2, 16384, 7), (3, 8192, 6)])
    def test_sin_evaluates_one_carrier_period_per_packet(self, M, N, n_max, monkeypatch):
        g = make_grid(1, M, N)
        bump = make_bump(1, g)
        sizes, sin = [], np.sin

        def counted(x, *args, **kwargs):
            sizes.append(np.size(x))
            return sin(x, *args, **kwargs)

        monkeypatch.setattr(np, "sin", counted)
        make_initial_data(2.0, n_max, bump, g)
        assert sum(sizes) == sum(N // math.gcd(17 * 2**n * M, N)
                                 for n in range(3, n_max + 1))

    @pytest.mark.parametrize("d,M,ramp", [(1, 1, 4), (1, 3, 16), (2, 1, 4), (3, 2, 4)])
    def test_smooth_step_sees_only_the_ramp(self, d, M, ramp, monkeypatch):
        g = make_grid(d, M, 64)
        seen = []

        def counted(t):
            seen.append(np.asarray(t))
            return smooth_step(t)

        monkeypatch.setattr("hks.construction.smooth_step", counted)
        make_bump(d, g)
        r = radii(make_grid(1, M, 64))
        assert np.count_nonzero((r > 4.0 ** (-d)) & (r < 2.0 ** (-d))) == ramp
        assert len(seen) == 1 and seen[0].size == ramp
        assert np.all((seen[0] > 0.0) & (seen[0] < 1.0))


class TestCarrier:
    def test_values(self):
        assert carrier_frequency(3) == pytest.approx(34.0 / 3.0)
        assert carrier_frequency(5) == 17.0 / 12.0 * 32.0
        assert carrier_frequency(6) == 2.0 * carrier_frequency(5)


class TestBump:
    def test_hat_plateau_and_support(self):
        g = make_grid(1, 1, 512)
        bump = make_bump(1, g)
        r = radii(g)
        assert np.all(bump.hat[r <= 0.25] == 1.0)
        assert np.all(bump.hat[r >= 0.5] == 0.0)
        mid = bump.hat[(r > 0.25) & (r < 0.5)]
        assert np.all((mid > 0.0) & (mid < 1.0))

    def test_profile_even_and_peaked_at_origin(self):
        g = make_grid(1, 1, 512)
        bump = make_bump(1, g)
        assert np.max(np.abs(reflected(bump.profile) - bump.profile)) <= 1e-14
        assert bump.value_at_origin() == pytest.approx(np.max(bump.profile))
        assert bump.value_at_origin() > 0.0

    def test_radii_properties(self):
        g2 = make_grid(2, 1, 64)
        bump = make_bump(2, g2)
        assert bump.plateau_radius == 0.0625
        assert bump.support_radius == 0.25

    def test_envelope_is_tensor_product(self):
        g2 = make_grid(2, 1, 64)
        bump = make_bump(2, g2)
        env = bump.envelope()
        assert np.max(np.abs(env.values - np.outer(bump.profile,
                                                   bump.profile))) == 0.0

    def test_too_coarse_frequency_lattice(self):
        with pytest.raises(ValueError, match="raise M"):
            make_bump(3, make_grid(3, 1, 32))
        make_bump(3, make_grid(3, 2, 32))  # M=2 resolves the transition

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            make_bump(2, make_grid(1, 1, 512))

    def test_grid_mismatch_on_use(self):
        bump = make_bump(1, make_grid(1, 1, 512))
        with pytest.raises(ValueError, match="different grids"):
            make_initial_data(2.0, 4, bump, make_grid(1, 1, 1024))


class TestPacket:
    def test_origin_zero_and_odd(self):
        g = make_grid(1, 1, 1024)
        f = make_fn(4, make_bump(1, g))
        assert abs(f.values[g.origin_index()]) <= 1e-15
        assert np.max(np.abs(reflected(f.values) + f.values)) <= 1e-13

    def test_index_floor(self):
        g = make_grid(1, 1, 1024)
        with pytest.raises(ValueError, match=">= 3"):
            make_fn(2, make_bump(1, g))

    def test_nyquist_guard(self):
        g = make_grid(1, 1, 1024)  # nyquist 42.67, c_5 = 45.3 does not fit
        with pytest.raises(ValueError, match="Nyquist"):
            make_fn(5, make_bump(1, g))

    def test_spectrum_confined_to_carrier_band(self):
        g = make_grid(1, 1, 4096)
        f = make_fn(5, make_bump(1, g))
        F = transform(f).coefficients
        r = radii(g)
        outside = np.abs(r - carrier_frequency(5)) > 0.5
        assert np.max(np.abs(F[outside])) <= 1e-15

    def test_one_block_dichotomy(self):
        g = make_grid(1, 1, 8192)
        bump = make_bump(1, g)
        part = make_partition(g)
        for n in range(3, 8):
            f = make_fn(n, bump)
            scale = lp_norm(f, 2.0)
            for j in range(-1, part.j_max + 1):
                blk = lp_block(f, j)
                target = f.values if j == n else 0.0
                err = lp_norm(Field(g, blk.values - target), 2.0)
                assert err <= 1e-12 * scale, (n, j)

    def test_besov_norm_is_weighted_lp(self):
        g = make_grid(1, 1, 4096)
        f = make_fn(4, make_bump(1, g))
        for p in (2.0, math.inf):
            val = besov_norm(f, BesovParams(2.0, p)).value
            assert val == pytest.approx(2.0 ** (2.0 * 4) * lp_norm(f, p),
                                        rel=1e-12)

    def test_blocks_against_slow_dft(self):
        # Direct-summation check that the packet pair splits block by block.
        g = make_grid(1, 1, 4096)
        bump = make_bump(1, g)
        f4, f6 = make_fn(4, bump), make_fn(6, bump)
        f = f4 + f6
        scale = np.max(np.abs(f.values))
        F = oracle.slow_transform(f.values, 1)
        cases = ((3, None), (4, f4), (5, None), (6, f6))
        slows = oracle.slow_inverse(
            np.stack([F * oracle.block_mask(1, 1, 4096, j) for j, _ in cases], axis=-1), 1, d=1)
        for (j, expected), slow in zip(cases, slows.T):
            fast = lp_block(f, j).values
            assert np.max(np.abs(fast - slow)) <= 1e-12 * scale
            target = expected.values if expected is not None else 0.0
            assert np.max(np.abs(slow - target)) <= 1e-12 * scale


class TestInitialData:
    def test_n_max_validation(self):
        g = make_grid(1, 1, 8192)  # j_max = 7
        bump = make_bump(1, g)
        with pytest.raises(ValueError, match="n_max"):
            make_initial_data(2.0, 8, bump, g)
        with pytest.raises(ValueError, match="n_max"):
            make_initial_data(2.0, 2, bump, g)

    def test_amplitudes(self, data_8192_6):
        assert data_8192_6.amplitude(4) == 2.0 ** (-4 * 4)
        assert data_8192_6.n_max == 6

    def test_S0_is_packet_sum(self, data_8192_6):
        d = data_8192_6
        acc = np.zeros(d.grid.shape)
        for n in range(3, 7):
            acc += d.amplitude(n) * d.packet(n).values
        assert np.array_equal(acc, d.S0.values)

    def test_packet_sum_extends_bitwise(self):
        d5 = build_data(1, 1, 4096, 5)
        d6 = build_data(1, 1, 4096, 6)
        extended = d5.S0.values + d6.amplitude(6) * d6.packet(6).values
        assert np.array_equal(extended, d6.S0.values)

    def test_u0_is_one_minus_laplacian_of_S0(self, data_8192_6):
        d = data_8192_6
        lhs = transform(d.u0).coefficients
        xi2 = oracle.radius2(d.grid.d, d.grid.M, d.grid.N)
        rhs = (1.0 + xi2) * transform(d.S0).coefficients
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_block_identities(self, data_8192_6):
        d = data_8192_6
        for j in range(3, 7):
            blk_S = lp_block(d.S0, j)
            target = d.amplitude(j) * d.packet(j).values
            assert np.max(np.abs(blk_S.values - target)) <= 1e-13
            blk_u = lp_block(d.u0, j)
            helm = one_minus_laplacian(d.packet(j))
            assert np.max(np.abs(blk_u.values - d.amplitude(j) * helm.values)) \
                <= 1e-10

    def test_top_blocks_of_u0_carry_no_amplified_roundoff(self):
        # The top blocks of u0 are ~1e-6 of max|u0| here; roundoff of the low
        # packets amplified by 1 + |xi|^2 would show at 1e-7 relative.
        d = build_data(1, 1, 65536, 10)
        for j in (9, 10):
            blk = lp_block(d.u0, j).values
            target = d.amplitude(j) * one_minus_laplacian(d.packet(j)).values
            assert np.max(np.abs(blk - target)) <= 1e-10 * np.max(np.abs(target))

    def test_odd_symmetry_and_origin_values(self, data_8192_6):
        d = data_8192_6
        for f in (d.S0, d.u0):
            scale = np.max(np.abs(f.values))
            assert np.max(np.abs(reflected(f.values) + f.values)) <= 1e-12 * scale
            assert abs(f.values[d.grid.origin_index()]) <= 1e-10 * scale


def expanded_v0(data):
    """The drift in expanded form (1-2u0) grad S0 . grad u0 + u0(1-u0) Lap S0.

    Agrees with the conservative form ``data.v0``, which is
    ``transport_divergence(data.u0, data.S0)``, to roundoff once the grid
    retains every pairwise product of packet frequencies below the dealias
    cutoff; on coarser grids the two differ by the truncation the products
    suffer.
    """
    g, hs = data.grid, half_spectrum(data.grid)
    u0, S0 = data.u0, data.S0
    dS = hs.irfftn(hs.gradient(np.fft.rfftn(S0.values)))
    du = hs.irfftn(hs.gradient(np.fft.rfftn(u0.values)))
    grad_dot = None
    for a in range(g.d):
        term = dealiased_product(Field(g, dS[a]), Field(g, du[a]))
        grad_dot = term if grad_dot is None else grad_dot + term
    lap_S = Field(g, hs.apply(S0.values, -hs.xi2))
    u_lap = dealiased_product(u0, lap_S)
    u2 = dealiased_product(u0, u0)
    u2_lap = dealiased_product(u2, lap_S)
    u_grad = dealiased_product(u0, grad_dot)
    vals = grad_dot.values - 2.0 * u_grad.values + u_lap.values - u2_lap.values
    return Field(g, vals)


class TestDrift:
    def test_mean_zero(self, data_8192_6):
        d = data_8192_6
        assert abs(np.mean(d.v0.values)) <= 1e-15 * np.max(np.abs(d.v0.values))

    def test_make_v0_reproduces_stored(self, data_8192_6):
        d = data_8192_6
        assert np.array_equal(transport_divergence(d.u0, d.S0).values, d.v0.values)

    @pytest.mark.parametrize("d,N,n_max", [(1, 8192, 6), (2, 1024, 4)])
    def test_built_on_first_read_only(self, d, N, n_max, fft_counts):
        # the datum takes one inverse transform, u0's synthesis, and none of
        # v0's; the first read takes exactly transport_divergence's, the
        # second none, and the drift is transport_divergence's bit for bit
        grid = make_grid(d, 1, N)
        bump = make_bump(d, grid)
        fft_counts.clear()
        data = make_initial_data(2.0, n_max, bump, grid)
        assert fft_counts == {"irfftn": 1}
        fft_counts.clear()
        expected = transport_divergence(data.u0, data.S0)
        direct = dict(fft_counts)
        fft_counts.clear()
        v0 = data.v0
        assert fft_counts == direct
        fft_counts.clear()
        assert data.v0 is v0
        assert sum(fft_counts.values()) == 0
        assert v0.values.tobytes() == expected.values.tobytes()

    @pytest.mark.parametrize("table,build", [("v0", "transport_divergence"),
                                             ("coefficients", "half_spectrum")],
                             ids=["v0", "coefficients"])
    def test_first_read_from_many_threads_builds_once(self, monkeypatch, table, build):
        # eight threads first-read the table behind a barrier; a slow build
        # (the one call of ``build`` in it) widens the race, and the count
        # shows whether the table was built twice
        data = build_data(1, 1, 2048, 5)
        calls, lock = [], threading.Lock()
        fast = getattr(construction, build)

        def slow_build(*args):
            with lock:
                calls.append(1)
            time.sleep(0.002)
            return fast(*args)

        monkeypatch.setattr(construction, build, slow_build)
        barrier, results = threading.Barrier(8), []

        def first_read():
            barrier.wait(timeout=60)
            results.append(getattr(data, table))

        threads = [threading.Thread(target=first_read) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 8 and all(v is results[0] for v in results)
        assert calls == [1]

    def test_two_forms_agree_when_resolved(self):
        d = build_data(1, 1, 32768, 8)
        alt = expanded_v0(d)
        rel = (lp_norm(Field(d.grid, alt.values - d.v0.values), 2.0)
               / lp_norm(d.v0, 2.0))
        assert rel <= 1e-10

    def test_parity_split(self, data_8192_6):
        # The flux piece u0 * dS0 is odd, so its divergence is even; the
        # cubic piece u0^2 * dS0 is even, so its divergence is odd.  The
        # full drift is the difference and has no parity of its own.
        d = data_8192_6
        g = d.grid
        dS = Field(g, derivative(d.S0, 0))
        flux_quad = dealiased_product(d.u0, dS)
        u2 = dealiased_product(d.u0, d.u0)
        flux_cub = dealiased_product(u2, dS)
        v_quad = Field(g, derivative(flux_quad, 0))
        v_cub = Field(g, derivative(flux_cub, 0))
        # roundoff floor is set by the larger intermediate fields, not by
        # the small cubic output, so both checks scale with the quad part
        sq = np.max(np.abs(v_quad.values))
        assert np.max(np.abs(reflected(v_quad.values) - v_quad.values)) \
            <= 1e-12 * sq
        assert np.max(np.abs(reflected(v_cub.values) + v_cub.values)) \
            <= 1e-12 * sq
        recombined = v_quad.values - v_cub.values
        assert np.max(np.abs(recombined - d.v0.values)) <= 1e-12 * sq
