import json
import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dft_oracle as oracle
from conftest import build_data
from hks import ksf, solver
from hks.cli import dispatch
from hks.solver import BlowUpError, SolverConfig, Trajectory, evolve, rhs, transport_divergence
from hks.spectral import Field, band_limited_noise, half_spectrum, lp_norm, make_grid


def solve_S(u):
    """Chemoattractant from density: S = (1 - Laplacian)^{-1} u."""
    hs = half_spectrum(u.grid)
    return Field(u.grid, hs.apply(u.values, hs.helm_inv))


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
        dict(t_final=1.0, dt=math.inf),
        dict(t_final=1.0, cfl=0.0),
        dict(t_final=1.0, cfl=1.5),
        dict(t_final=1.0, eps=-1e-6),
        dict(t_final=1.0, snapshot_times=(2.0,)),
        dict(t_final=1e-17, snapshot_times=(9e-16,)),  # the slack is relative
        dict(t_final=1.0, snapshot_times=(-0.5,)),
        dict(t_final=math.inf),
        dict(t_final=1.0, snapshot_times=(math.nan,)),
        dict(t_final=1.0, eps=math.nan),
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
        assert np.array_equal(traj.states[traj.times.index(0.0)].values, u0.values)

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("t_final, dt, snapshots, accepted", [
        (10.0, 10.0, (), ()),  # test_cli's test_blow_up_exits_one: the first step trips
        (20.0, 4.0, (1.0,), (1.0, 5.0)),
    ])
    def test_blow_up_carries_the_trajectory(self, t_final, dt, snapshots, accepted,
                                            tmp_path, capsys):
        g = make_grid(1, 1, 256)
        u0 = band_limited_noise(g, 60, seed=44)
        with pytest.raises(BlowUpError) as info:
            evolve(u0, SolverConfig(t_final=t_final, dt=dt, snapshot_times=snapshots))
        traj = info.value.trajectory
        assert [st["t"] for st in traj.steps] == list(accepted)
        assert traj.times == [0.0, *snapshots]
        if accepted:  # the steps and states of the run that stops at the last accepted step
            ref = evolve(u0, SolverConfig(t_final=accepted[-1], dt=dt, snapshot_times=snapshots))
            assert traj.steps == ref.steps
            for a, b in zip(traj.states, ref.states):
                assert np.array_equal(a.values, b.values)
        # the aborted CLI run records the share the error carries
        path, edir = tmp_path / "u.ksf", tmp_path / "e"
        ksf.write_field(path, u0)
        times = ["--snapshots", ",".join(map(str, snapshots))] if snapshots else []
        assert dispatch(["evolve", "--in", str(path), "--t", str(t_final), "--dt", str(dt),
                         *times, "--outdir", str(edir)]) == 1
        capsys.readouterr()
        manifest = json.loads((edir / "manifest.json").read_text())
        assert manifest["config"]["unevolved_share"] == traj.unevolved_share

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

    @pytest.mark.parametrize("d, N", [(1, 256), (2, 32)])
    def test_fft_budget_per_thread(self, d, N, fft_threads):
        # the calling thread transforms u0 and runs each stage's chain: the
        # dealiased state, u * u, its truncation and the d flux transforms;
        # the helper runs each stage's d grad S transforms and each step's
        # inverse transform of the new state
        g = make_grid(d, 1, N)
        u0 = Field(g, 0.2 + 0.05 * band_limited_noise(g, N // 8, seed=46).values)
        fft_threads.clear()
        traj = evolve(u0, SolverConfig(t_final=0.3, dt=0.1))
        steps = len(traj.steps)
        assert steps == 3
        caller = threading.current_thread().name
        helper = [name for name in fft_threads if name != caller]
        assert len(helper) == 1 and helper[0].startswith("hks-flux")
        assert fft_threads[caller] == 1 + steps * 4 * (3 + d)
        assert fft_threads[helper[0]] == steps * (4 * d + 1)


class TestForkLane:
    # the forks fall on different lane steps in each case: under CFL the
    # d = 2 lane's steps are about 1.2, 1.4 and 1.6 long
    @pytest.mark.parametrize("d, N, n_max, dt, ts", [
        (1, 16384, 8, 0.01, (0.015625, 0.03125, 0.0625)),
        (2, 512, 3, None, (0.5, 2.0, 4.0)),
        (2, 512, 3, 1.0, (0.5, 1.5, 2.5)),
    ], ids=["d1-dt", "d2-cfl", "d2-dt"])
    def test_forks_equal_independent_evolves(self, d, N, n_max, dt, ts):
        data = build_data(d, 1, N, n_max)
        finals = {t: evolve(data.u0, SolverConfig(t_final=t, dt=dt)) for t in ts}
        assert len({len(traj.steps) for traj in finals.values()}) == len(ts)
        cfg = SolverConfig(t_final=max(ts), dt=dt, snapshot_times=ts)
        lane = Trajectory(data.grid, [], [], [])
        forked = [(t, state().values) for t, state in solver._lane(data.u0, cfg, lane, fork=True)]
        assert [t for t, _ in forked] == sorted(ts)
        for t, u in forked:
            assert np.array_equal(u, finals[t].states[-1].values)
        # the lane takes the full steps of the run to the largest time and
        # forks its clipped last one
        assert lane.steps == finals[max(ts)].steps[:-1]
        assert lane.unevolved_share == finals[max(ts)].unevolved_share


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


def serial_div_flux_half(uh, S_half, hs, with_speed=False):
    """The flux kernel as one serial loop on the calling thread: the
    reference the helper-thread kernel must equal bit for bit."""
    ud = hs.irfftn(uh * hs.keep)
    g = ud - hs.truncate(ud * ud)
    out = None
    g2 = np.zeros(hs.shape) if with_speed else None
    for xka in hs.masked_xi:
        F = S_half * xka
        F *= 1j
        ds = hs.irfftn(F)
        if with_speed:
            g2 += ds * ds
        ds *= g
        F = np.fft.rfftn(ds)
        F *= xka
        F *= 1j
        out = F if out is None else out + F
    speed = None
    if with_speed:
        speed = float(np.max(np.abs(1.0 - 2.0 * ud) * np.sqrt(g2)))
    return out, speed


def serial_advance(uh, acc, dt, hs, eps):
    """solver._advance with the stage weights applied as 2.0 * k and c * dt,
    the form the exact power-of-two scalings replace."""
    k = acc * (0.5 * dt)
    k += uh
    k, _ = solver._rhs_half(k, eps, hs)
    acc += 2.0 * k
    k *= 0.5 * dt
    k += uh
    k, _ = solver._rhs_half(k, eps, hs)
    acc += 2.0 * k
    k *= dt
    k += uh
    k, _ = solver._rhs_half(k, eps, hs)
    acc += k
    acc *= dt / 6.0
    acc += uh
    return acc


def serial_check_state(uh, t, hs, max0):
    """solver._check_state without the guard."""
    u = hs.irfftn(uh)
    return u, float(np.max(np.abs(u)))


def noisy_state(d, N, seed=47):
    g = make_grid(d, 1, N)
    # noise up to just below Nyquist, so the truncations act
    return Field(g, 0.3 + 0.1 * band_limited_noise(g, N // 2 - 1, seed=seed).values)


_GEOMETRIES = [(1, 256), (2, 32), (3, 16)]


class TestHelperFlux:
    @pytest.mark.parametrize("d, N", _GEOMETRIES)
    def test_flux_and_speed_equal_serial_loop(self, d, N):
        u = noisy_state(d, N)
        hs = half_spectrum(u.grid)
        uh = np.fft.rfftn(u.values)
        for with_speed in (False, True):
            out, speed = solver._div_flux_half(uh, hs, with_speed)
            ref, ref_speed = serial_div_flux_half(uh, uh * hs.helm_inv, hs, with_speed)
            assert out.tobytes() == ref.tobytes()
            assert np.float64(speed).tobytes() == np.float64(ref_speed).tobytes()
        S = solve_S(u).values
        out, _ = solver._div_flux_half(uh, hs, S_half=np.fft.rfftn(S))
        assert out.tobytes() == serial_div_flux_half(uh, np.fft.rfftn(S), hs)[0].tobytes()

    @pytest.mark.parametrize("d, N", _GEOMETRIES)
    @pytest.mark.parametrize("dt", [None, 0.004])
    def test_evolve_equals_serial_kernel(self, d, N, dt, monkeypatch):
        u0 = noisy_state(d, N, seed=48)
        cfg = SolverConfig(t_final=0.02, dt=dt, snapshot_times=(0.01,))
        traj = evolve(u0, cfg)
        monkeypatch.setattr(solver, "_div_flux_half",
                            lambda uh, hs, with_speed=False, S_half=None: serial_div_flux_half(
                                uh, uh * hs.helm_inv if S_half is None else S_half, hs,
                                with_speed))
        calls = []

        def spied(fn):
            def run(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return run

        monkeypatch.setattr(solver, "_advance", spied(serial_advance))
        monkeypatch.setattr(solver, "_check_state", spied(serial_check_state))
        ref = evolve(u0, cfg)
        # the serial step routines took every step of the lane
        assert sorted(calls) == sorted(["serial_advance", "serial_check_state"] * len(ref.steps))
        assert traj.times == ref.times
        assert [s.values.tobytes() for s in traj.states] \
            == [s.values.tobytes() for s in ref.states]
        assert traj.steps == ref.steps and len(traj.steps) >= 2

    def test_non_finite_state_names_dealias(self):
        u = noisy_state(1, 256)
        hs = half_spectrum(u.grid)
        uh = np.fft.rfftn(u.values)
        uh[3] = np.nan
        with pytest.raises(BlowUpError, match=r"stage 'dealias\(u\)'"):
            solver._div_flux_half(uh, hs, with_speed=True)

    def test_non_finite_gradient_raises_from_helper(self):
        u = noisy_state(2, 32)
        hs = half_spectrum(u.grid)
        S = u.values.copy()
        S[1, 2] = np.nan
        with pytest.raises(BlowUpError, match=r"stage 'grad_S\[0\]'"):
            solver._div_flux_half(np.fft.rfftn(u.values), hs, S_half=np.fft.rfftn(S))

    def test_helper_error_reraises_in_caller_in_axis_order(self, monkeypatch):
        u = noisy_state(2, 32)
        hs = half_spectrum(u.grid)
        uh = np.fft.rfftn(u.values)
        expected, _ = solver._div_flux_half(uh, hs)
        grad_S, ran = solver._grad_S, []

        def failing(uh, S_half, hs, a, square):
            ran.append(a)
            raise ValueError(f"axis {a} failed")

        monkeypatch.setattr(solver, "_grad_S", failing)
        with pytest.raises(ValueError, match="axis 0 failed"):
            solver._div_flux_half(uh, hs)
        assert ran in ([0], [0, 1])  # axis 1 either ran or was cancelled
        # the helper keeps serving once the failed call has returned
        monkeypatch.setattr(solver, "_grad_S", grad_S)
        assert solver._div_flux_half(uh, hs)[0].tobytes() == expected.tobytes()

    def test_threads_sharing_the_helper_get_serial_values(self, monkeypatch):
        # more callers than cores race for the helper, its creation included,
        # with a short switch interval; each gets its own serial values
        monkeypatch.setattr(solver, "_HELPER", None)
        states = [noisy_state(2, 32, seed=60 + i) for i in range(4)]
        hs = half_spectrum(states[0].grid)
        spectra = [np.fft.rfftn(u.values) for u in states]
        expected = [serial_div_flux_half(uh, uh * hs.helm_inv, hs, True) for uh in spectra]
        results, errors = {}, []

        def run(i):
            try:
                for _ in range(20):
                    out, speed = solver._div_flux_half(spectra[i], hs, True)
                    results.setdefault(i, []).append((out.tobytes(), speed))
            except BaseException as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        solver._HELPER.shutdown()  # the helper this test created
        assert not errors
        for i, (out, speed) in enumerate(expected):
            assert results[i] == [(out.tobytes(), speed)] * 20


def max_rel_gap(fast, slow):
    return float(np.max(np.abs(fast - slow)) / np.max(np.abs(slow)))


class TestDirectSummationOracle:
    # the solver against dft_oracle's direct-summation model, which shares
    # no code with it; each bound is about 10x the gap measured when it was
    # set (in the comment), and the gap grows with N through the slow sums'
    # roundoff, so N is pinned per case
    @pytest.mark.parametrize("d, N, eps, bound", [
        (1, 64, 0.0, 2e-12),    # 1.9e-13
        (1, 256, 0.0, 3e-11),   # 2.9e-12
        (2, 32, 0.0, 5e-13),    # 4.2e-14
        (1, 64, 0.5, 5e-13),    # 4.0e-14; the viscous term dominates
    ])
    def test_rhs(self, d, N, eps, bound):
        u = noisy_state(d, N)
        fast = rhs(u, SolverConfig(t_final=1.0, eps=eps)).values
        assert max_rel_gap(fast, oracle.slow_rhs(u.values, 1, eps)) <= bound

    @pytest.mark.parametrize("d, N, bound", [
        (1, 64, 6e-12),   # 6.2e-13
        (2, 32, 1.5e-11),  # 1.3e-12
    ])
    def test_fixed_dt_rk4_step(self, d, N, bound):
        # the step's increment, below 1e-3 of the state, whose roundoff
        # over it sets the gap
        u, dt = noisy_state(d, N), 0.05
        fast = evolve(u, SolverConfig(t_final=dt, dt=dt)).states[-1].values
        slow = oracle.slow_rk4_step(u.values, dt, 1)
        assert max_rel_gap(fast - u.values, slow - u.values) <= bound

    @pytest.mark.parametrize("d, N, bound", [
        (1, 64, 2.5e-12),  # 2.5e-13
        (2, 32, 6e-13),    # 5.6e-14
    ])
    def test_w0(self, d, N, bound):
        # w0 = DF(u)[F(u)] as the central difference D(h) of rhs along
        # w = rhs(u), extrapolated as (4 D(h/2) - D(h)) / 3: the dealiased F
        # is cubic, so the extrapolation is exact up to roundoff, which
        # shrinks as h grows (h = 1 moves u by about 5e-3)
        u, cfg, h = noisy_state(d, N), SolverConfig(t_final=1.0), 1.0
        w = rhs(u, cfg).values

        def central(h):
            return (rhs(Field(u.grid, u.values + h * w), cfg).values
                    - rhs(Field(u.grid, u.values - h * w), cfg).values) / (2.0 * h)

        fast = (4.0 * central(h / 2.0) - central(h)) / 3.0
        assert max_rel_gap(fast, oracle.slow_w0(u.values, 1)) <= bound


class TestSingleModeOracle:
    # u0 = c + delta prod_a cos(x_a / M) over a constant c: the mode grows
    # as delta exp(lambda t), lambda = c(1-c)|xi|^2/(1+|xi|^2) - eps|xi|^2,
    # up to a relative O(delta^2) from the nonlinearity (about 3e-12 here),
    # so over many steps the gap is RK4's; each bound is about 10x the gap
    # measured when it was set (in the comment)
    C, DELTA, T = 0.3, 1e-6, 8.0

    def mode_gap(self, d, M, N, dt, eps=0.0):
        g = make_grid(d, M, N)
        mode = math.prod(np.ix_(*[np.cos(g.axis_coordinates() / M)] * d))
        u0 = Field(g, self.C + self.DELTA * mode)
        u_T = evolve(u0, SolverConfig(t_final=self.T, dt=dt, eps=eps)).states[-1].values
        amplitude = np.sum((u_T - np.mean(u_T)) * mode) / np.sum(mode * mode)
        xi2 = d / M ** 2
        lam = self.C * (1 - self.C) * xi2 / (1 + xi2) - eps * xi2
        exact = self.DELTA * math.exp(lam * self.T)
        return abs(amplitude - exact) / exact

    def test_fourth_order_over_many_steps(self):
        gaps = [self.mode_gap(1, 1, 256, dt) for dt in (0.5, 0.25, 0.125)]
        assert gaps[0] <= 5e-7  # 5.09e-8
        assert gaps[1] <= 3.3e-8  # 3.25e-9
        assert gaps[2] <= 2e-9  # 2.07e-10
        assert math.log2(gaps[0] / gaps[1]) >= 3.5  # 3.97
        assert math.log2(gaps[1] / gaps[2]) >= 3.5  # 3.97

    @pytest.mark.parametrize("d, M, N, eps, bound", [
        (2, 2, 64, 0.0, 4.3e-9),  # 4.31e-10
        (1, 1, 256, 1e-3, 3.1e-8),  # 3.10e-9
    ])
    def test_mode_growth(self, d, M, N, eps, bound):
        assert self.mode_gap(d, M, N, 0.25, eps) <= bound


class TestStepBudget:
    # the budget bounds a CFL lane, whose state sets dt; a fixed dt sets the
    # step count up front
    @pytest.mark.parametrize("fork", [False, True])
    def test_cfl_lane_over_budget_fails_before_stepping(self, monkeypatch, fork):
        g = make_grid(1, 1, 256)
        u0 = Field(g, 0.05 * band_limited_noise(g, 40, seed=45).values)
        # the first CFL step, from the speed at u0 of a one-step probe run
        speed = evolve(u0, SolverConfig(t_final=1e-9, cfl=0.3)).steps[0]["max_speed"]
        dt0 = 0.3 * g.spacing / speed
        # 3.5 first steps to the last time fit a budget of 4; 4.5 do not
        monkeypatch.setattr(solver, "MAX_LANE_STEPS", 4)
        traj = Trajectory(g, [], [], [])
        cfg = SolverConfig(t_final=3.5 * dt0, cfl=0.3)
        assert [t for t, _ in solver._lane(u0, cfg, traj, fork)] == [3.5 * dt0]
        assert traj.steps
        traj = Trajectory(g, [], [], [])
        with pytest.raises(BlowUpError, match="budget of 4 steps"):
            next(solver._lane(u0, SolverConfig(t_final=4.5 * dt0, cfl=0.3), traj, fork))
        assert traj.steps == []

    def test_fixed_dt_lane_is_not_bounded(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_LANE_STEPS", 4)
        traj = evolve(noisy_state(1, 64), SolverConfig(t_final=0.5, dt=0.1))
        assert traj.times == [0.0, 0.5] and len(traj.steps) == 5


class TestDeferredStateCheck:
    # the lane checks a step's state on the helper while it evaluates the
    # next step's first stage; it must yield, log and raise what a lane that
    # checks each state at once does
    CASES = {
        # steps end at 0.1, 0.2 (clipped onto 0.2), 0.3, 0.35 (clipped), ...
        "clip": dict(fork=False, cfg=SolverConfig(t_final=0.6, dt=0.1,
                                                  snapshot_times=(0.2, 0.35))),
        # forks 0.15 on step 1, 0.25 on step 2 and 0.45 on step 4, which the
        # lane does not take
        "fork": dict(fork=True, cfg=SolverConfig(t_final=0.45, dt=0.1,
                                                 snapshot_times=(0.15, 0.25))),
    }

    @staticmethod
    def run_lane(u0, cfg, fork):
        """The lane's yielded times, each with the number of steps logged
        when it came, and the lane's trajectory; forks are not evaluated."""
        traj = Trajectory(u0.grid, [], [], [])
        out = []
        for t, _ in solver._lane(u0, cfg, traj, fork=fork):
            out.append((t, len(traj.steps)))
        return out, traj

    @staticmethod
    def patched_step(monkeypatch, n, spoil):
        """Make the lane's step n (from 0) end in a state ``spoil`` changes;
        returns the list that gets a copy of that state's half spectrum."""
        advance, spoiled, calls = solver._advance, [], []

        def patched(*args):
            acc = advance(*args)
            if len(calls) == n:
                spoil(acc)
                spoiled.append(acc.copy())
            calls.append(n)
            return acc

        monkeypatch.setattr(solver, "_advance", patched)
        return spoiled

    @pytest.mark.parametrize("mode", sorted(CASES))
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_tripped_guard(self, mode, n, monkeypatch):
        g = make_grid(1, 1, 256)
        u0 = Field(g, 0.2 + 0.05 * band_limited_noise(g, 40, seed=49).values)
        fork, cfg = self.CASES[mode]["fork"], self.CASES[mode]["cfg"]
        ref_yields, ref = self.run_lane(u0, cfg, fork)
        assert len(ref.steps) > n

        def scale(acc):
            acc *= 100.0

        spoiled = self.patched_step(monkeypatch, n, scale)
        traj, got = Trajectory(g, [], [], []), []
        with pytest.raises(BlowUpError) as exc:
            for t, _ in solver._lane(u0, cfg, traj, fork=fork):
                got.append(t)
        # the message of a guard checked at once, after step n
        hs = half_spectrum(g)
        amax = float(np.max(np.abs(hs.irfftn(spoiled[0]))))
        max0 = float(np.max(np.abs(u0.values)))
        assert str(exc.value) == (f"blow-up guard tripped at t={ref.steps[n]['t']:.6g}: "
                                  f"max|u|={amax:.3g} exceeds 10 x initial scale {max0:.3g}")
        # a fork of step n still comes out, the clipped state of step n does not
        assert got == [t for t, logged in ref_yields if logged <= n]
        assert traj.steps == ref.steps[:n]

    @pytest.mark.parametrize("where", ["above", "below"])
    def test_non_finite_mode_fails_its_step(self, where, monkeypatch):
        # a NaN above the dealias cutoff is cut from every stage, so the
        # state check of its step catches it; one below it would also fail
        # the next step's first stage, and the state check's error wins
        g = make_grid(1, 1, 256)
        u0 = Field(g, 0.2 + 0.05 * band_limited_noise(g, 40, seed=49).values)
        cfg = SolverConfig(t_final=0.6, dt=0.1)
        ref = evolve(u0, cfg)
        mode = g.N // 2 if where == "above" else 3

        def poison(acc):
            acc[mode] = np.nan

        self.patched_step(monkeypatch, 1, poison)
        with pytest.raises(BlowUpError, match=r"^non-finite state at t=") as exc:
            evolve(u0, cfg)
        assert str(exc.value) == f"non-finite state at t={ref.steps[1]['t']:.6g}"
        if where == "below":
            assert "dealias(u)" in str(exc.value.__context__)
