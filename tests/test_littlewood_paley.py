import math
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dft_oracle as oracle
from conftest import build_data, dense_block_norms
from hks import littlewood_paley as lpmod
from hks.littlewood_paley import (
    BOUND_MARGIN,
    BesovParams,
    _norm_bounds,
    annulus_profile,
    besov_norm,
    block_norms,
    block_sups,
    commutator,
    decompose,
    low_cutoff_profile,
    lp_block,
    make_partition,
    smooth_step,
)
from hks.spectral import (
    Field,
    SpectralField,
    band_limited_noise,
    half_spectrum,
    inverse_transform,
    lp_norm,
    make_grid,
    transform,
)


class TestProfiles:
    def test_step_endpoints_exact(self):
        t = np.array([-1.0, 0.0, 1.0, 2.0])
        assert np.array_equal(smooth_step(t), [0.0, 0.0, 1.0, 1.0])

    def test_step_monotone_and_symmetric(self):
        t = np.linspace(-0.5, 1.5, 401)
        v = smooth_step(t)
        assert np.all(np.diff(v) >= 0.0)
        assert np.max(np.abs(v + smooth_step(1.0 - t) - 1.0)) <= 1e-15

    def test_low_cutoff_plateaus(self):
        r = np.array([0.0, 0.5, 0.75, 4.0 / 3.0, 2.0])
        v = low_cutoff_profile(r)
        assert np.array_equal(v[:3], [1.0, 1.0, 1.0])
        assert np.array_equal(v[3:], [0.0, 0.0])
        mid = low_cutoff_profile(np.array([1.0]))[0]
        assert 0.0 < mid < 1.0

    def test_annulus_exact_values(self):
        assert annulus_profile(1.4) == 1.0
        assert annulus_profile(1.5) == 1.0
        assert annulus_profile(4.0 / 3.0) == 1.0
        assert annulus_profile(0.5) == 0.0
        assert annulus_profile(0.75) == 0.0
        assert annulus_profile(8.0 / 3.0) == 0.0
        assert annulus_profile(2.7) == 0.0

    def test_profiles_match_oracle(self):
        r = np.linspace(0.0, 3.0, 301)
        assert np.max(np.abs(low_cutoff_profile(r) - oracle.chi(r))) == 0.0
        assert np.max(np.abs(annulus_profile(r) - oracle.phi(r))) == 0.0


class TestPartition:
    @pytest.mark.parametrize("N,M,expected", [(512, 1, 3), (1024, 1, 4),
                                              (2048, 1, 5), (16384, 1, 8),
                                              (1024, 2, 3)])
    def test_j_max_law(self, N, M, expected):
        part = make_partition(make_grid(1, M, N))
        assert part.j_max == expected
        assert part.j_max == oracle.j_max(M, N)

    def test_too_coarse(self):
        with pytest.raises(ValueError, match="too coarse"):
            make_partition(make_grid(1, 1, 16))

    def test_block_index_range(self):
        part = make_partition(make_grid(1, 1, 512))
        with pytest.raises(ValueError):
            part.block_window(-2)
        with pytest.raises(ValueError):
            part.block_window(part.j_max + 1)

    def test_sums_to_one_on_covered_lattice(self):
        g = make_grid(1, 1, 512)
        part = make_partition(g)
        r = np.sqrt(half_spectrum(g).xi2)
        total = part.block_window(-1).copy()
        for j in range(part.j_max + 1):
            total = total + part.block_window(j)
        covered = r <= 1.5 * 2.0**part.j_max
        assert np.max(np.abs(total[covered] - 1.0)) <= 1e-12

    def test_windows_two_octaves_apart_vanish(self):
        part = make_partition(make_grid(1, 1, 1024))
        for j in range(-1, part.j_max + 1):
            for i in range(j + 2, part.j_max + 1):
                assert np.max(part.block_window(j) * part.block_window(i)) == 0.0


class TestBlocks:
    def test_single_carrier_mode(self):
        # |xi| = 17/12 lies in the plateau of block 0 and nowhere else.
        g = make_grid(1, 1, 512)
        part = make_partition(g)
        x = g.axis_coordinates()
        f = Field(g, np.cos(17.0 * g.freq_step * x))
        b0 = lp_block(part, f, 0)
        assert np.max(np.abs(b0.values - f.values)) <= 1e-13
        for j in (-1, 1, 2, 3):
            assert np.max(np.abs(lp_block(part, f, j).values)) <= 1e-13

    def test_block_matches_oracle(self):
        g = make_grid(1, 1, 256)
        part = make_partition(g)
        f = band_limited_noise(g, 30, seed=21)
        for j in range(-1, part.j_max + 1):
            fast = lp_block(part, f, j).values
            slow = oracle.slow_block(f.values, 1, j)
            assert np.max(np.abs(fast - slow)) <= 1e-12

    def test_decompose_reconstructs(self):
        g = make_grid(1, 1, 512)
        part = make_partition(g)
        f = band_limited_noise(g, 140, seed=22)  # inside 1.5 * 2^3 = 12, k <= 144
        dec = decompose(part, f)
        assert dec.resolved
        assert dec.unresolved_fraction <= 1e-12
        err = np.max(np.abs(dec.reconstruct().values - f.values))
        assert err <= 1e-12

    def test_decompose_warns_when_unresolved(self):
        g = make_grid(1, 1, 512)
        part = make_partition(g)
        x = g.axis_coordinates()
        f = Field(g, np.cos(200.0 * g.freq_step * x))  # beyond k = 144
        with pytest.warns(UserWarning, match="resolved"):
            dec = decompose(part, f)
        assert not dec.resolved

    @pytest.mark.filterwarnings("ignore:field has")
    @pytest.mark.parametrize("d,N", [(1, 512), (2, 64)])
    def test_unresolved_fraction_is_full_lattice_tail_share(self, d, N):
        """The half-spectrum tail share equals the share of |F|^2 beyond
        (3/2) 2^j_max summed over the full lattice."""
        g = make_grid(d, 1, N)
        part = make_partition(g)
        f = white_noise(g, 9)
        c2 = np.abs(transform(f).coefficients) ** 2
        beyond = oracle.radius(d, 1, N) > 1.5 * 2.0**part.j_max
        share = decompose(part, f).unresolved_fraction
        assert 0.0 < share < 1.0
        assert share == pytest.approx(np.sum(c2[beyond]) / np.sum(c2), rel=1e-12)

    def test_two_octave_orthogonality_of_blocks(self):
        g = make_grid(1, 1, 512)
        part = make_partition(g)
        f = band_limited_noise(g, 140, seed=23)
        for j in range(-1, part.j_max + 1):
            bj = lp_block(part, f, j)
            for i in range(-1, part.j_max + 1):
                if abs(i - j) >= 2:
                    assert lp_norm(lp_block(part, bj, i), 2.0) <= 1e-13


class TestBesovNorm:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            BesovParams(2.0, 0.5)
        with pytest.raises(ValueError):
            BesovParams(2.0, 2.0, 0.5)

    @pytest.mark.parametrize("s,p,r,message", [
        (2.0, math.nan, math.inf, "p must be >= 1 or inf, got nan"),
        (2.0, 2.0, math.nan, "r must be >= 1 or inf, got nan"),
        (math.nan, 2.0, math.inf, "s must be finite, got nan"),
        (math.inf, 2.0, math.inf, "s must be finite, got inf"),
        (-math.inf, 2.0, math.inf, "s must be finite, got -inf"),
    ])
    def test_params_reject_nan_and_non_finite_s(self, s, p, r, message):
        with pytest.raises(ValueError, match=message):
            BesovParams(s, p, r)

    def test_single_block_field(self):
        g = make_grid(1, 1, 512)
        part = make_partition(g)
        x = g.axis_coordinates()
        f = Field(g, np.cos(17.0 * 4.0 * g.freq_step * x))  # block 2 plateau
        for p in (2.0, math.inf):
            res = besov_norm(part, f, BesovParams(1.5, p))
            assert res.value == pytest.approx(2.0 ** (1.5 * 2) * lp_norm(f, p),
                                              rel=1e-12)

    def test_profile_matches_oracle(self):
        g = make_grid(1, 1, 256)
        part = make_partition(g)
        f = band_limited_noise(g, 30, seed=24)
        for p in (2.0, math.inf):
            res = besov_norm(part, f, BesovParams(2.0, p))
            slow = oracle.slow_besov_profile(f.values, 1, 2.0, p)
            assert np.max(np.abs(res.profile - slow)) <= 1e-10
            assert res.value == pytest.approx(float(np.max(slow)), rel=1e-10)

    def test_finite_r_aggregation(self):
        g = make_grid(1, 1, 256)
        part = make_partition(g)
        f = band_limited_noise(g, 30, seed=25)
        res_inf = besov_norm(part, f, BesovParams(1.0, 2.0))
        res_2 = besov_norm(part, f, BesovParams(1.0, 2.0, 2.0))
        manual = float(np.sqrt(np.sum(res_inf.profile**2)))
        assert res_2.value == pytest.approx(manual, rel=1e-12)
        assert res_2.value >= res_inf.value

    def test_homogeneity(self):
        g = make_grid(1, 1, 256)
        part = make_partition(g)
        f = band_limited_noise(g, 30, seed=26)
        a = besov_norm(part, f, BesovParams(2.0, 2.0))
        b = besov_norm(part, 3.0 * f, BesovParams(2.0, 2.0))
        assert b.value == pytest.approx(3.0 * a.value, rel=1e-12)
        assert np.allclose(b.profile, 3.0 * a.profile, rtol=1e-12)

    def test_float_conversion(self):
        g = make_grid(1, 1, 256)
        part = make_partition(g)
        f = band_limited_noise(g, 30, seed=27)
        res = besov_norm(part, f, BesovParams(2.0, 2.0))
        assert float(res) == res.value


class TestCommutator:
    def test_velocity_arity(self):
        g = make_grid(1, 1, 256)
        part = make_partition(g)
        f = band_limited_noise(g, 30, seed=28)
        with pytest.raises(ValueError, match="components"):
            commutator(part, [1], [f, f], f)

    def test_constant_velocity_commutes(self):
        g = make_grid(1, 1, 256)
        part = make_partition(g)
        f = band_limited_noise(g, 30, seed=29)
        v = Field(g, np.full(g.shape, 0.7))
        (out,) = commutator(part, [1], [v], f)
        assert np.max(np.abs(out.values)) <= 1e-13

    def test_matches_oracle(self):
        g = make_grid(1, 1, 128)
        v = band_limited_noise(g, 40, seed=30)
        f = band_limited_noise(g, 40, seed=31)
        part = make_partition(g)
        fast = commutator(part, [1], [v], f)[0].values
        slow = oracle.slow_commutator([v.values], f.values, 1, 1)
        assert np.max(np.abs(fast - slow)) <= 1e-11

    @pytest.mark.parametrize("d, N", [(1, 256), (2, 64)])
    def test_block_list_equals_single_blocks(self, d, N):
        g = make_grid(d, 1, N)
        part = make_partition(g)
        v = [band_limited_noise(g, N // 4, seed=32 + a) for a in range(d)]
        f = band_limited_noise(g, N // 4, seed=35)
        js = list(range(-1, part.j_max + 1))
        for j, c in zip(js, commutator(part, js, v, f)):
            assert np.array_equal(c.values, commutator(part, [j], v, f)[0].values)

    @pytest.mark.parametrize("d, N", [(1, 256), (2, 64)])
    def test_fft_count_per_block(self, d, N, fft_counts):
        # each block takes 1 + d inverse transforms of the shared half
        # spectra and 4d for the dealiased advection of Delta_j grad f
        g = make_grid(d, 1, N)
        part = make_partition(g)
        v = [band_limited_noise(g, N // 4, seed=32 + a) for a in range(d)]
        f = band_limited_noise(g, N // 4, seed=35)
        fft_counts.clear()
        commutator(part, [-1], v, f)
        one = sum(fft_counts.values())
        fft_counts.clear()
        commutator(part, [-1, 0], v, f)
        assert sum(fft_counts.values()) - one == 1 + 5 * d


# Random grids small enough for a few hundred block transforms: every
# dimension, box scales 1-3, and N from the coarsest grid with a block.
_LOG2_N = {1: (7, 12), 2: (7, 8), 3: (6, 6)}


@st.composite
def grids(draw):
    d = draw(st.sampled_from((1, 2, 3)))
    M = draw(st.integers(1, 3))
    N = 2 ** draw(st.integers(*_LOG2_N[d]))
    assume(36 * M < N)  # at least block 0
    return make_grid(d, M, N)


def white_noise(g, seed):
    # Every lattice mode is excited, the zero and Nyquist planes included,
    # so all three half-spectrum Parseval weights are exercised.
    return Field(g, np.random.default_rng(seed).standard_normal(g.shape))


class TestHalfSpectrumBlocks:
    def test_first_use_from_many_threads_builds_once(self, monkeypatch):
        # eight threads race on a fresh grid; a slow window profile widens
        # the race, and the count shows whether the windows were built twice
        g = make_grid(2, 1, 128)
        calls, lock = [], threading.Lock()

        def slow_profile(r):
            with lock:
                calls.append(1)
            time.sleep(0.002)
            return low_cutoff_profile(r)

        monkeypatch.setattr(lpmod, "low_cutoff_profile", slow_profile)
        barrier, results = threading.Barrier(8), []

        def first_use():
            barrier.wait(timeout=60)
            results.append((half_spectrum(g), make_partition(g)._tables()))

        threads = [threading.Thread(target=first_use) for _ in range(8)]
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
        assert len(results) == 8
        assert len({id(hs) for hs, _ in results}) == 1
        assert len({id(tables) for _, tables in results}) == 1
        j_max = make_partition(g).j_max
        assert len(calls) == 1 + 2 * (j_max + 1)  # chi, then two per annulus

    def test_grid_does_not_keep_partition_alive(self):
        # No grid <-> partition cycle: dropping the last reference frees it.
        g = make_grid(1, 1, 512)
        ref = weakref.ref(make_partition(g))
        assert ref() is None

    def test_windows_built_at_first_block_request(self):
        g = make_grid(1, 1, 512)
        part = make_partition(g)
        assert "lp_tables" not in g._cache
        lp_block(part, band_limited_noise(g, 30, seed=1), 0)
        assert "lp_tables" in g._cache

    @pytest.mark.parametrize("d,N", [(1, 1024), (2, 256), (3, 128)])
    def test_block_window_is_the_window_formula(self, d, N):
        g = make_grid(d, 1, N)
        part = make_partition(g)
        # the support-only tables expanded onto the half spectrum
        r = np.sqrt(half_spectrum(g).xi2)
        assert part.block_window(-1).shape == g.shape[:-1] + (N // 2 + 1,)
        assert np.array_equal(part.block_window(-1), low_cutoff_profile(r))
        for j in range(part.j_max + 1):
            assert np.array_equal(part.block_window(j), annulus_profile(r / 2.0**j))

    @pytest.mark.parametrize("d,N", [(1, 1024), (2, 256), (3, 64)])
    def test_windowed_spectra_transform_as_dense_windows(self, d, N):
        # cut after the window's last mode and filled on its support, a
        # block's spectrum (also a stack of two) gives the dense window's
        # field, and so does the block transform
        g = make_grid(d, 1, N)
        part, hs = make_partition(g), half_spectrum(g)
        F = np.fft.rfftn(np.stack([white_noise(g, 7).values, white_noise(g, 8).values]),
                         axes=range(-d, 0))
        for j in range(-1, part.j_max + 1):
            cut = part._windowed(F, j)
            assert cut.shape[:-1] == F.shape[:-1] and cut.shape[-1] <= F.shape[-1]
            w = part.block_window(j)
            assert np.array_equal(hs.irfftn(cut), hs.irfftn(F * w))
            assert np.array_equal(hs.irfftn(part._windowed(F[0], j)), hs.irfftn(F[0] * w))
            assert np.array_equal(part.block(F, j), hs.irfftn(F * w))
            assert np.array_equal(part.block(F[0], j), hs.irfftn(F[0] * w))
        with pytest.raises(ValueError, match="outside"):
            part._windowed(F, part.j_max + 1)

    @pytest.mark.parametrize("d,N", [(1, 1 << 16), (1, 1024), (2, 256), (3, 128)])
    def test_tables_hold_only_window_supports(self, d, N):
        g = make_grid(d, 1, N)
        part = make_partition(g)
        windows, beyond = part._tables()
        total = beyond.nbytes + sum(idx.nbytes + w.nbytes for idx, w in windows)
        half_array = np.fft.rfftn(np.zeros(g.shape)).nbytes
        assert total <= 3 * half_array
        assert all(np.all(w != 0.0) for _, w in windows)

    @settings(max_examples=25, deadline=None)
    @given(g=grids())
    def test_half_windows_sum_to_one(self, g):
        part = make_partition(g)
        windows = [part.block_window(j) for j in range(-1, part.j_max + 1)]
        beyond = part._tables()[1]
        r = np.sqrt(half_spectrum(g).xi2)
        total = sum(windows)
        covered = np.broadcast_to(r <= 1.5 * 2.0**part.j_max, total.shape)
        assert np.array_equal(beyond, ~covered)
        assert np.max(np.abs(total[covered] - 1.0)) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(g=grids(), p=st.sampled_from((1.0, 2.0, 3.0, math.inf)),
           seed=st.integers(0, 2**16))
    def test_block_norms_match_per_block_norms(self, g, p, seed):
        part = make_partition(g)
        f = white_noise(g, seed)
        fast = block_norms(part, f, p)
        per_block = [lp_norm(lp_block(part, f, j), p) for j in range(-1, part.j_max + 1)]
        # the same blocks through the full-lattice complex transform pair and
        # the oracle's full-lattice windows
        F = transform(f).coefficients
        masks = [oracle.block_mask(g.d, g.M, g.N, j) for j in range(-1, part.j_max + 1)]
        full = [lp_norm(inverse_transform(SpectralField(g, F * w)), p) for w in masks]
        assert fast.shape == (part.j_max + 2,)
        assert np.allclose(fast, per_block, rtol=1e-12, atol=0.0)
        assert np.allclose(fast, full, rtol=1e-12, atol=0.0)

    @settings(max_examples=25, deadline=None)
    @given(g=grids(), p=st.sampled_from((1.0, 2.0, 3.0, math.inf)),
           seed=st.integers(0, 2**16))
    def test_block_norms_match_dense_windows(self, g, p, seed):
        part = make_partition(g)
        f = white_noise(g, seed)
        fast, ref = block_norms(part, f, p), dense_block_norms(part, f, p)
        if p == 2:  # Parseval sums over the support: another summation order
            assert np.allclose(fast, ref, rtol=1e-13, atol=0.0)
        else:
            assert np.array_equal(fast, ref)

    @settings(max_examples=15, deadline=None)
    @given(g=grids(), seed=st.integers(0, 2**16))
    def test_besov_profile_is_weighted_block_norms(self, g, seed):
        part = make_partition(g)
        f = white_noise(g, seed)
        with pytest.warns(UserWarning, match="under-resolved"):
            res = besov_norm(part, f, BesovParams(1.5, 2.0))
        assert not res.resolved
        assert np.array_equal(res.js, np.arange(-1, part.j_max + 1))
        expected = 2.0 ** (1.5 * res.js) * block_norms(part, f, 2.0)
        assert np.array_equal(res.profile, expected)


def single_mode(g, k):
    """cos(xi . x) for the lattice mode k; its value at the origin is 1, so
    the L^inf bound of the block it lies in is attained."""
    xi = np.asarray(k) * g.freq_step
    x = np.ix_(*[g.axis_coordinates()] * g.d)
    return Field(g, np.cos(sum(a * b for a, b in zip(xi, x))))


@pytest.fixture(scope="module")
def sup_fields():
    """Band-limited noise, the packet datum and single modes, in d = 1, 2, 3."""
    fields = []
    for d, N in ((1, 4096), (2, 256), (3, 64)):
        g = make_grid(d, 1, N)
        fields.append(band_limited_noise(g, N // 3, seed=d))
        j_top = make_partition(g).j_max
        for j in range(-1, j_top + 1):
            # a plateau mode of block j and one in its transition band
            for r in (1.4, 1.0) if j >= 0 else (0.5, 1.0):
                k = max(1, int(round(r * 2.0 ** max(j, 0) / g.freq_step)))
                fields.append(single_mode(g, [k] + [0] * (d - 1)))
    fields.append(build_data(1, 1, 4096, 6).u0)
    fields.append(build_data(2, 1, 512, 3).u0)
    return fields


SUP_PS = (1.0, 1.5, 3.0, 4.0, math.inf)


class TestBlockSups:
    def test_profiles_reject_nan_p(self):
        g = make_grid(1, 1, 512)
        part, f = make_partition(g), band_limited_noise(g, 100, seed=3)
        with pytest.raises(ValueError, match="p must be >= 1 or inf"):
            block_norms(part, f, math.nan)
        with pytest.raises(ValueError, match="p must be >= 1 or inf"):
            block_sups(part, f, math.nan, [2.0])

    @pytest.mark.parametrize("p", SUP_PS)
    def test_block_norms_within_their_bounds(self, p, sup_fields):
        for f in sup_fields:
            part = make_partition(f.grid)
            bounds = _norm_bounds(part, np.fft.rfftn(f.values), p)
            assert np.all(block_norms(part, f, p) <= bounds)

    @pytest.mark.parametrize("d,N", [(1, 4096), (2, 256), (3, 64)])
    def test_sup_bound_is_attained_by_a_single_mode(self, d, N):
        # the block holding cos(xi . x) has L^inf norm w(xi), which the
        # triangle inequality gives exactly: only the margin and the
        # transform's roundoff on the other modes lie between
        g = make_grid(d, 1, N)
        part = make_partition(g)
        f = single_mode(g, [int(round(1.4 * 2.0**part.j_max / g.freq_step))] + [0] * (d - 1))
        norms = block_norms(part, f, math.inf)
        bounds = _norm_bounds(part, np.fft.rfftn(f.values), math.inf)
        top = part.j_max + 1
        assert norms[top] == pytest.approx(1.0, rel=1e-12)
        assert norms[top] <= bounds[top] <= BOUND_MARGIN * norms[top] * (1.0 + 1e-10)

    @pytest.mark.parametrize("p", SUP_PS + (2.0,))
    def test_sups_equal_full_profile_maxima(self, p, sup_fields):
        for f in sup_fields:
            part = make_partition(f.grid)
            full = block_norms(part, f, p)
            js = np.arange(-1, part.j_max + 1)
            named = [part.j_max, -1, part.j_max]
            for s in (2.0, 1.5, 2.7):
                sigmas = (s, s - 1, s - 2)
                sups, norms = block_sups(part, f, p, sigmas, named)
                assert sups == [float(np.max(2.0 ** (sigma * js) * full)) for sigma in sigmas]
                assert np.array_equal(norms, full[np.array(named) + 1])

    @settings(max_examples=25, deadline=None)
    @given(g=grids(), p=st.sampled_from(SUP_PS + (2.0,)),
           s=st.sampled_from((2.0, 1.5, 2.7)), seed=st.integers(0, 2**16))
    def test_sups_equal_full_profile_maxima_on_white_noise(self, g, p, s, seed):
        part = make_partition(g)
        f = white_noise(g, seed)
        full = block_norms(part, f, p)
        js = np.arange(-1, part.j_max + 1)
        sups, norms = block_sups(part, f, p, (s, s - 1, s - 2), [0])
        assert sups == [float(np.max(2.0 ** (sigma * js) * full)) for sigma in (s, s - 1, s - 2)]
        assert np.array_equal(norms, full[1:2])

    def test_transforms_only_blocks_that_can_hold_the_sup(self, fft_counts):
        # the packet datum's B^2_{inf,inf} sup sits in its top block, and no
        # other block's bound reaches it
        f = build_data(1, 1, 4096, 6).u0
        part = make_partition(f.grid)
        fft_counts.clear()
        (sup,), norms = block_sups(part, f, math.inf, (2.0,))
        assert fft_counts == {"rfftn": 1, "irfftn": 1} and norms.size == 0
        js = np.arange(-1, part.j_max + 1)
        assert sup == float(np.max(2.0 ** (2.0 * js) * block_norms(part, f, math.inf)))

    def test_rejects_blocks_outside_the_partition(self, sup_fields):
        f = sup_fields[0]
        part = make_partition(f.grid)
        for j in (-2, part.j_max + 1):
            with pytest.raises(ValueError, match="outside"):
                block_sups(part, f, math.inf, (2.0,), [j])
