import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_data
from hks import solver
from hks.solver import BlowUpError, SolverConfig, evolve, rhs, solve_S, transport_divergence
from hks.spectral import Field, band_limited_noise, half_spectrum, lp_norm, make_grid


class TestSolveS:
    def test_eigenfunction(self):
        g = make_grid(1, 1, 512)
        x = g.axis_coordinates()
        xi0 = 24 * g.freq_step
        u = Field(g, np.cos(xi0 * x))
        S = solve_S(u)
        assert np.max(np.abs(S.values - u.values / (1.0 + xi0**2))) <= 1e-14

    def test_residual(self):
        g = make_grid(1, 1, 512)
        u = band_limited_noise(g, 100, seed=40)
        S = solve_S(u)
        back = np.fft.ifft(np.fft.fft(S.values)
                           * (1.0 + (np.fft.fftfreq(512, 1 / 512) / 12.0) ** 2)).real
        assert np.max(np.abs(back - u.values)) <= 1e-12


class TestRhs:
    def test_constant_state_gives_zero(self):
        g = make_grid(1, 1, 256)
        out = rhs(Field(g, np.full(g.shape, 0.3)), SolverConfig(t_final=1.0))
        assert np.max(np.abs(out.values)) <= 1e-15

    def test_mean_free(self):
        g = make_grid(1, 1, 512)
        u = band_limited_noise(g, 100, seed=41)
        out = rhs(u, SolverConfig(t_final=1.0))
        assert abs(np.mean(out.values)) <= 1e-15 * np.max(np.abs(out.values))

    def test_matches_minus_drift_on_initial_data(self, data_8192_6):
        d = data_8192_6
        out = rhs(d.u0, SolverConfig(t_final=1.0))
        rel = (lp_norm(Field(d.grid, out.values + d.v0.values), 2.0)
               / lp_norm(d.v0, 2.0))
        assert rel <= 1e-10

    def test_transport_divergence_consistency(self, data_8192_6):
        d = data_8192_6
        recomputed = transport_divergence(d.u0, solve_S(d.u0))
        assert np.max(np.abs(recomputed.values - d.v0.values)) \
            <= 1e-12 * np.max(np.abs(d.v0.values))

    def test_viscous_term(self):
        # differencing the eps and eps=0 sides isolates eps * Laplacian(u)
        g = make_grid(1, 1, 512)
        x = g.axis_coordinates()
        xi0 = 24 * g.freq_step
        u = Field(g, np.cos(xi0 * x))
        visc = (rhs(u, SolverConfig(t_final=1.0, eps=1.0)).values
                - rhs(u, SolverConfig(t_final=1.0)).values)
        assert np.max(np.abs(visc + xi0**2 * u.values)) <= 1e-11


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(t_final=0.0),
        dict(t_final=-1.0),
        dict(t_final=1.0, dt=0.0),
        dict(t_final=1.0, cfl=0.0),
        dict(t_final=1.0, cfl=1.5),
        dict(t_final=1.0, eps=-1e-6),
        dict(t_final=1.0, snapshot_times=(2.0,)),
        dict(t_final=1.0, snapshot_times=(-0.5,)),
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_accepts_boundary(self):
        cfg = SolverConfig(t_final=1.0, cfl=1.0, snapshot_times=(1.0, 0.5))
        assert cfg.snapshot_times == (1.0, 0.5)


class TestEvolve:
    def test_constant_state_exactly_steady(self):
        g = make_grid(1, 1, 256)
        u0 = Field(g, np.full(g.shape, 0.25))
        traj = evolve(u0, SolverConfig(t_final=0.5, dt=0.1))
        assert np.array_equal(traj.states[-1].values, u0.values)
        assert all(st["max_abs"] == 0.25 for st in traj.steps)

    def test_mass_conserved(self):
        g = make_grid(1, 1, 512)
        noise = band_limited_noise(g, 60, seed=42)
        u0 = Field(g, 0.1 * noise.values + 0.2)  # nonzero mean
        traj = evolve(u0, SolverConfig(t_final=0.5, cfl=0.4))
        m0 = np.mean(u0.values)
        for st in traj.steps:
            assert abs(st["mean"] - m0) <= 1e-12 * abs(m0)

    def test_snapshots_hit_exactly(self):
        g = make_grid(1, 1, 256)
        u0 = Field(g, 0.05 * band_limited_noise(g, 40, seed=43).values)
        cfg = SolverConfig(t_final=0.4, cfl=0.4, snapshot_times=(0.1, 0.25))
        traj = evolve(u0, cfg)
        assert traj.times == [0.0, 0.1, 0.25, 0.4]
        assert np.array_equal(traj.state_at(0.0).values, u0.values)
        traj.state_at(0.25)
        with pytest.raises(KeyError):
            traj.state_at(0.3)

    def test_rk4_self_convergence_order(self, data_2048_5):
        sols = {}
        for dt in (0.016, 0.008, 0.004):
            traj = evolve(data_2048_5.u0, SolverConfig(t_final=0.08, dt=dt))
            sols[dt] = traj.states[-1]
        g = data_2048_5.grid
        e1 = lp_norm(Field(g, sols[0.016].values - sols[0.008].values), 2.0)
        e2 = lp_norm(Field(g, sols[0.008].values - sols[0.004].values), 2.0)
        assert e2 > 1e-14  # above the roundoff floor, the fit means something
        order = math.log2(e1 / e2)
        assert 3.5 <= order <= 4.5

    def test_taylor_remainder_is_second_order_small(self, data_8192_6):
        d = data_8192_6
        t = 1e-3
        u_t = evolve(d.u0, SolverConfig(t_final=t, cfl=0.4)).states[-1]
        dev = lp_norm(Field(d.grid, u_t.values - d.u0.values), 2.0)
        rem = lp_norm(Field(d.grid, u_t.values - d.u0.values
                            + t * d.v0.values), 2.0)
        assert rem <= 0.01 * dev

    def test_viscosity_consistency(self, data_8192_6):
        # || u_eps(t) - u_0(t) ||_2 <= eps * t * sup ||Lap u|| style bound,
        # checked in the integrated form diff <= eps * ||u0||_2 at t = 1e-3.
        d = data_8192_6
        cfg0 = SolverConfig(t_final=1e-3, dt=2e-4)
        cfg1 = SolverConfig(t_final=1e-3, dt=2e-4, eps=1e-4)
        u_a = evolve(d.u0, cfg0).states[-1]
        u_b = evolve(d.u0, cfg1).states[-1]
        diff = lp_norm(Field(d.grid, u_a.values - u_b.values), 2.0)
        assert diff <= 1e-4 * lp_norm(d.u0, 2.0)

    def test_resolution_refinement(self):
        # Coarse and fine runs agree on the modes the coarse grid keeps.
        d_c = build_data(1, 1, 4096, 5)
        d_f = build_data(1, 1, 8192, 5)
        u_c = evolve(d_c.u0, SolverConfig(t_final=1e-3, dt=2e-4)).states[-1]
        u_f = evolve(d_f.u0, SolverConfig(t_final=1e-3, dt=2e-4)).states[-1]
        kc = int(math.floor(2.0 / 3.0 * (4096 // 2)))
        Fc = np.fft.fft(u_c.values)[: kc + 1] / 4096
        Ff = np.fft.fft(u_f.values)[: kc + 1] / 8192
        num = float(np.sqrt(np.sum(np.abs(Fc - Ff) ** 2)))
        den = float(np.sqrt(np.sum(np.abs(Ff) ** 2)))
        assert num / den <= 1e-8

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_guard(self):
        g = make_grid(1, 1, 256)
        u0 = band_limited_noise(g, 60, seed=44)
        with pytest.raises(BlowUpError):
            evolve(u0, SolverConfig(t_final=10.0, dt=10.0))

    def test_cfl_step_law(self):
        g = make_grid(1, 1, 256)
        u0 = Field(g, 0.05 * band_limited_noise(g, 40, seed=45).values)
        # probe run: one clipped step whose record carries the speed at u0
        probe_traj = evolve(u0, SolverConfig(t_final=1e-9, cfl=0.3))
        speed = probe_traj.steps[0]["max_speed"]
        expected = 0.3 * g.spacing / speed
        # horizon longer than one CFL step, so the first step is unclipped
        traj = evolve(u0, SolverConfig(t_final=2.5 * expected, cfl=0.3))
        first = traj.steps[0]
        assert first["dt"] == pytest.approx(expected, rel=1e-12)
        assert first["dt"] < 2.5 * expected
        assert set(first) == {"t", "dt", "mean", "max_abs", "max_speed"}

    def test_max_speed_is_taken_before_the_step(self):
        g = make_grid(1, 1, 256)
        u0 = Field(g, 0.05 * band_limited_noise(g, 40, seed=45).values)
        cfl = evolve(u0, SolverConfig(t_final=0.5, cfl=0.3)).steps[0]
        fixed = evolve(u0, SolverConfig(t_final=0.5, dt=0.5)).steps[0]
        assert fixed["max_speed"] == cfl["max_speed"]

    @pytest.mark.parametrize("d, N", [(1, 256), (2, 32)])
    def test_fft_budget_per_step(self, d, N, fft_counts):
        # one forward transform of u0; per step 4 RHS evaluations of 3 + 2d
        # real FFTs and one inverse transform of the new state
        g = make_grid(d, 1, N)
        u0 = Field(g, 0.2 + 0.05 * band_limited_noise(g, N // 8, seed=46).values)
        fft_counts.clear()
        traj = evolve(u0, SolverConfig(t_final=0.3, dt=0.1))
        steps = len(traj.steps)
        assert steps == 3
        assert sum(fft_counts.values()) == 1 + steps * (4 * (3 + 2 * d) + 1)


_LOG2_N = {1: (4, 8), 2: (4, 6), 3: (4, 5)}


@st.composite
def evolve_cases(draw):
    d = draw(st.sampled_from((1, 2, 3)))
    g = make_grid(d, draw(st.integers(1, 3)), 2 ** draw(st.integers(*_LOG2_N[d])))
    # noise up to just below Nyquist, so modes above the cutoff are excited
    noise = band_limited_noise(g, g.N // 2 - 1, seed=draw(st.integers(0, 2**16)))
    u0 = Field(g, draw(st.floats(0.1, 0.5)) + 0.1 * noise.values)
    dt = draw(st.sampled_from((None, 0.004)))
    return u0, SolverConfig(t_final=0.02, dt=dt, cfl=0.4, snapshot_times=(0.01,))


class TestMeanConservation:
    @settings(max_examples=30, deadline=None)
    @given(case=evolve_cases())
    def test_zero_mode_exact_and_mean_conserved(self, case):
        u0, cfg = case
        zero_modes = []
        stage = solver._rhs_half

        def spy(uh, *args, with_speed=False):
            if with_speed:  # stage 1 sees the state at the start of a step
                zero_modes.append(uh.flat[0])
            return stage(uh, *args, with_speed=with_speed)

        with mock.patch.object(solver, "_rhs_half", spy):
            traj = evolve(u0, cfg)
        assert len(zero_modes) == len(traj.steps) >= 2
        z0 = np.fft.rfftn(u0.values).flat[0]
        assert all(z == z0 for z in zero_modes)
        m0 = float(np.mean(u0.values))
        for st_ in traj.steps:
            assert abs(st_["mean"] - m0) <= 1e-12 * abs(m0)


class TestDealiasedFlux:
    @settings(max_examples=15, deadline=None)
    @given(case=evolve_cases())
    def test_no_flux_above_the_dealias_cutoff(self, case):
        # every RHS evaluation is exactly zero on the modes the solver
        # carries unevolved
        u0, cfg = case
        above = half_spectrum(u0.grid).keep == 0.0
        peaks = []
        stage = solver._rhs_half

        def spy(*args, **kwargs):
            k, speed = stage(*args, **kwargs)
            peaks.append(float(np.max(np.abs(k[above]))))
            return k, speed

        with mock.patch.object(solver, "_rhs_half", spy):
            evolve(u0, cfg)
        assert peaks and max(peaks) == 0.0
