"""Measurement layer: fits, sweeps, block anatomy, lemma checks, calibration.

Frozen numbers in this module were produced by the code under test on the
stated configurations and then pinned; they guard against behavioral drift,
while the band assertions encode the a-priori expectations.
"""

import functools
import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np
import pytest

from conftest import (UNDER_RESOLVED_V0, _count_ffts, build_data, dense_block_norms,
                      dense_gradient_symbol, v0_warning)
from hks import construction, probe, solver
from hks import littlewood_paley as lpmod
from hks.cli import dispatch
from hks.construction import carrier_frequency
from hks.littlewood_paley import BesovParams, besov_norm, lp_block, make_partition
from hks.solver import BlowUpError, SolverConfig, Trajectory, evolve, transport_divergence
from hks.spectral import Field, half_spectrum, lp_norm, make_grid


def serial_norm(values, g, p):
    """L^p norm of a field with the quadrature of spectral.lp_norm, finite p."""
    return float((np.sum(np.abs(values) ** p) * g.spacing ** g.d) ** (1.0 / p))


def serial_jk_rows(data, params, js):
    """Anatomy rows one after another, through dense half-spectrum windows
    and the dense complex gradient symbol."""
    g, hs = data.grid, half_spectrum(data.grid)
    s, p = params.s, params.p
    part = make_partition(g)
    w = data.coefficients
    grad = dense_gradient_symbol(hs)
    du_half = np.fft.rfftn(data.u0.values) * grad
    d1 = grad[0]
    rows = []
    for j in js:
        scale = 2.0 ** (j * s)
        blocks = hs.irfftn(du_half * part.block_window(j))
        J = scale * serial_norm(w[0] * blocks[0], g, p)
        K = 0.0
        for a in range(1, g.d):
            K += scale * serial_norm(w[a] * blocks[a], g, p)
        F1 = np.fft.rfftn(data.packet(j).values) * d1
        J1 = serial_norm(w[0] * hs.irfftn(F1 * d1 * d1), g, p)
        J2 = serial_norm(w[0] * hs.irfftn(F1), g, p)
        J3 = 0.0
        if g.d > 1:
            trans = sum(F1 * da * da for da in grad[1:])
            J3 = serial_norm(w[0] * hs.irfftn(trans), g, p)
        rows.append(probe.JKRow(j=j, J=J, J1=J1, J2=J2, J3=J3, K=K))
    return rows


def serial_commutator_values(data, params, js):
    """2^{js} ||[Delta_j, V . grad] u0||_p one block after another, through
    dense windows, the dense gradient symbol and out-of-place products."""
    g, hs = data.grid, half_spectrum(data.grid)
    part = make_partition(g)
    v = [hs.apply(c, hs.keep) for c in data.coefficients]

    def advect(b):
        total = hs.apply(v[0] * hs.apply(b[0], hs.keep), hs.keep)
        for a in range(1, g.d):
            total = total + hs.apply(v[a] * hs.apply(b[a], hs.keep), hs.keep)
        return total

    grad = hs.apply(data.u0.values, dense_gradient_symbol(hs))
    adv_half = np.fft.rfftn(advect(grad))
    grad_half = [np.fft.rfftn(c) for c in grad]
    values = []
    for j in js:
        w = part.block_window(j)
        block = hs.irfftn(adv_half * w) - advect([hs.irfftn(c * w) for c in grad_half])
        values.append(2.0 ** (j * params.s) * serial_norm(block, g, params.p))
    return values


# The geometries of the anatomy tests, and the window of their sweeps: every
# block from -1 to n_max, so that the commutator values cover the partition's
# low blocks as well as the packets'.
ANATOMY = [(1, 16384, 8), (2, 1024, 4)]
P2 = BesovParams(2.0, 2.0)


def anatomy_window(n_max):
    return range(-1, n_max + 1)


class Anatomy(NamedTuple):
    data: construction.InitialData
    sweep: probe.JKSweep
    ffts: dict  # rfftn and irfftn calls of the sweep, by function
    threads: tuple  # threading.active_count() before and after the sweep


class SerialAnatomy(NamedTuple):
    rows: list  # serial_jk_rows of the blocks 3..n_max
    commutator: list  # serial_commutator_values over the window
    v0_profile: lpmod.BesovNormResult  # of transport_divergence, not data.v0
    v0_ffts: dict  # rfftn and irfftn calls of that profile alone, by function
    anchor: probe.AnchorReport


@pytest.fixture(scope="module")
def anatomy():
    """The jk sweep of a geometry (d, N, n_max) over its window, run once per
    module and geometry, with its FFT calls and the thread count around it.
    The datum's coefficients are built before the count, and the solver's
    persistent thread is started before the threads are counted."""
    @functools.cache
    def run(d, N, n_max):
        data = build_data(d, 1, N, n_max)
        data.coefficients  # built once per datum, outside the count
        solver._helper().submit(int).result()
        with pytest.MonkeyPatch.context() as mp, v0_warning(d):
            ffts = _count_ffts(mp, lambda name: name)
            before = threading.active_count()
            sweep = probe.jk_sweep(data, P2, anatomy_window(n_max))
            threads = before, threading.active_count()
        return Anatomy(data, sweep, dict(ffts), threads)
    return run


@pytest.fixture(scope="module")
def serial(anatomy):
    """The serial references of a geometry's anatomy on the same datum, run
    once per module and geometry: the rows, the commutator values, v0's
    profile from its own transport_divergence, whose FFTs are counted alone,
    and the anchor.  The rows and the commutator values of blocks -1 and 0
    run on a thread beside the values of blocks 1..n_max; a block's value
    does not depend on the other blocks asked for."""
    @functools.cache
    def run(d, N, n_max):
        data = anatomy(d, N, n_max).data
        with ThreadPoolExecutor(max_workers=1) as pool:
            rows = pool.submit(serial_jk_rows, data, P2, range(3, n_max + 1))
            low = pool.submit(serial_commutator_values, data, P2, range(-1, 1))
            high = serial_commutator_values(data, P2, range(1, n_max + 1))
            rows, commutator = rows.result(), low.result() + high
        with pytest.MonkeyPatch.context() as mp, v0_warning(d):
            ffts = _count_ffts(mp, lambda name: name)
            profile = besov_norm(make_partition(data.grid),
                                 transport_divergence(data.u0, data.S0), P2)
        return SerialAnatomy(rows, commutator, profile, dict(ffts), probe.c0_anchor(data))
    return run


class TestFitLoglog:
    def test_exact_slope(self):
        xs = [1.0, 2.0, 4.0, 8.0]
        ys = [x**3 for x in xs]
        assert probe.fit_loglog(xs, ys) == pytest.approx(3.0, rel=1e-12)

    def test_negative_slope(self):
        xs = [1.0, 2.0, 4.0]
        ys = [2.0 / x for x in xs]
        assert probe.fit_loglog(xs, ys) == pytest.approx(-1.0, rel=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least two"):
            probe.fit_loglog([1.0], [2.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="at least two"):
            probe.fit_loglog([1.0, 2.0, 4.0], [1.0, 2.0])

    def test_nonpositive_data(self):
        with pytest.raises(ValueError, match="positive"):
            probe.fit_loglog([0.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="positive"):
            probe.fit_loglog([1.0, 2.0], [1.0, -2.0])


class TestHField:
    def test_unchanged_state_gives_t_v0(self, data_2048_5):
        d = data_2048_5
        h = probe.h_field(d.u0, d.u0, d.v0, 0.25)
        assert np.array_equal(h.values, 0.25 * d.v0.values)

    def test_linear_motion_cancels(self, data_2048_5):
        # (u0 - t v0) - u0 + t v0: zero up to the subtraction roundoff
        d = data_2048_5
        u_t = Field(d.grid, d.u0.values - 0.125 * d.v0.values)
        h = probe.h_field(u_t, d.u0, d.v0, 0.125)
        assert np.max(np.abs(h.values)) <= 1e-14 * np.max(np.abs(d.u0.values))

    def test_grid_mismatch(self, data_2048_5):
        d = data_2048_5
        other = make_grid(1, 1, 4096)
        stranger = Field(other, np.zeros(other.shape))
        with pytest.raises(ValueError, match="different grids"):
            probe.h_field(stranger, d.u0, d.v0, 0.1)
        with pytest.raises(ValueError, match="different grids"):
            probe.h_field(d.u0, d.u0, stranger, 0.1)

    def test_v0_on_other_box_with_same_shape(self, data_2048_5):
        # Same N, different M: the shapes agree but the geometry does not.
        d = data_2048_5
        other = make_grid(1, 2, d.grid.N)
        stranger = Field(other, np.zeros(other.shape))
        with pytest.raises(ValueError, match="different grids"):
            probe.h_field(d.u0, d.u0, stranger, 0.1)


class TestRateSweep:
    def test_too_few_times(self, data_2048_5):
        with pytest.raises(ValueError, match="four output times"):
            probe.rate_sweep(data_2048_5, BesovParams(2.0, 2.0),
                             [1e-3, 2e-3, 1e-2])

    def test_nonpositive_time(self, data_2048_5):
        with pytest.raises(ValueError, match="positive"):
            probe.rate_sweep(data_2048_5, BesovParams(2.0, 2.0),
                             [0.0, 1e-3, 2e-3, 1e-2])

    def test_narrow_ladder(self, data_2048_5):
        with pytest.raises(ValueError, match="decade"):
            probe.rate_sweep(data_2048_5, BesovParams(2.0, 2.0),
                             [1e-3, 2e-3, 4e-3, 8e-3])

    def test_integrability_hypothesis(self, data_2048_5):
        # s - 1 > d/p fails at s=2, p=1, d=1
        with pytest.raises(ValueError, match="s - 1 > d/p"):
            probe.rate_sweep(data_2048_5, BesovParams(2.0, 1.0),
                             [1e-4, 1e-3, 5e-3, 1e-2])

    def test_slopes_in_band(self, data_8192_6):
        sweep = probe.rate_sweep(data_8192_6, BesovParams(2.0, 2.0),
                                 np.geomspace(1e-4, 1e-2, 4))
        # measured 0.99993 and 1.99968 on this configuration
        assert sweep.slope_dev_s1 == pytest.approx(1.0, abs=0.05)
        assert sweep.slope_h_s2 == pytest.approx(2.0, abs=0.1)
        assert sweep.passed
        devs = [r.dev_s1 for r in sweep.records]
        assert devs == sorted(devs)
        assert all(r.h_s2 < r.dev_s2 for r in sweep.records)

    @pytest.mark.parametrize("p", [math.inf, 3.0, 1.5, 1.0])
    def test_records_match_sequential_reference(self, data_2048_5, p):
        # one evolve, then every snapshot through dense windows, in order;
        # p = 1 needs s - 1 > d/p = 1
        d, s, times = data_2048_5, 2.0 if p > 1 else 2.5, [1e-4, 5e-4, 2e-3, 1e-2]
        sweep = probe.rate_sweep(d, BesovParams(s, p), times)
        traj = evolve(d.u0, SolverConfig(t_final=times[-1], snapshot_times=tuple(times)))
        part = make_partition(d.grid)
        js = np.arange(-1, part.j_max + 1)

        def sup(norms, weight):
            return float(np.max(2.0 ** (weight * js) * norms))

        expected = []
        for t in times:
            u_t = traj.state_at(t)
            dn = dense_block_norms(part, u_t - d.u0, p)
            hn = dense_block_norms(part, probe.h_field(u_t, d.u0, d.v0, t), p)
            expected.append(probe.RateRecord(t, sup(dn, s), sup(dn, s - 1),
                                             sup(dn, s - 2), sup(hn, s - 2)))
        assert sweep.records == expected

    def test_fft_count_at_p_inf(self, fft_counts):
        # the lane's FFTs (those of the evolve it equals), one rfftn per
        # profile, and per record the inverse transforms of the blocks that
        # can hold a sup: 8, 5, 4 of the deviation (sigma = s, s-1, s-2) and
        # 5 of the remainder, where a full profile takes j_max + 2 = 10 each
        data = build_data(1, 1, 16384, 8)
        data.v0  # built on first read, outside the count
        times = [float(t) for t in np.geomspace(1e-4, 1e-2, 5)]
        fft_counts.clear()
        evolve(data.u0, SolverConfig(t_final=times[-1], snapshot_times=tuple(times)))
        lane = dict(fft_counts)
        fft_counts.clear()
        probe.rate_sweep(data, BesovParams(2.0, math.inf), times)
        assert fft_counts == {"rfftn": lane["rfftn"] + 2 * len(times),
                              "irfftn": lane["irfftn"] + 4 * len(times)}

    def test_blow_up_mid_sweep_propagates(self, data_2048_5, monkeypatch):
        lane = probe._lane

        def two_then_blow_up(*args, **kwargs):
            states = lane(*args, **kwargs)
            yield next(states)
            yield next(states)
            raise BlowUpError("guard tripped")

        monkeypatch.setattr(probe, "_lane", two_then_blow_up)
        before = threading.active_count()
        with pytest.raises(BlowUpError, match="guard tripped"):
            probe.rate_sweep(data_2048_5, BesovParams(2.0, 2.0),
                             [1e-4, 5e-4, 2e-3, 1e-2])
        assert threading.active_count() == before


class TestInflationSweep:
    def test_range_validation(self, data_8192_6):
        P = BesovParams(2.0, 2.0)
        with pytest.raises(ValueError, match="empty"):
            probe.inflation_sweep(data_8192_6, P, 1.0, [])
        with pytest.raises(ValueError, match=r"\[5, n_max-1\]"):
            probe.inflation_sweep(data_8192_6, P, 1.0, [4, 5])
        with pytest.raises(ValueError, match=r"\[5, n_max-1\]"):
            probe.inflation_sweep(data_8192_6, P, 1.0, [5, 6])
        with pytest.raises(ValueError, match="duplicate"):
            probe.inflation_sweep(data_8192_6, P, 1.0, [5, 5])
        with pytest.raises(ValueError, match="eps0 must be positive"):
            probe.validate_inflation_sweep(P, 1, 6, math.inf, [5])

    def test_amplitude_validation(self, data_8192_6):
        with pytest.raises(ValueError, match="eps0"):
            probe.inflation_sweep(data_8192_6, BesovParams(2.0, 2.0), 0.0, [5])

    def test_smoothness_hypothesis(self, data_8192_6):
        # s > 1 + d/p fails at s=1.5, p=2, d=1
        with pytest.raises(ValueError, match="s > 1 \\+ d/p"):
            probe.inflation_sweep(data_8192_6, BesovParams(1.5, 2.0), 1.0, [5])

    def test_frozen_single_block(self, data_8192_6):
        sweep = probe.inflation_sweep(data_8192_6, BesovParams(2.0, 2.0),
                                      2.0, [5])
        assert sweep.min_dev == pytest.approx(3.8194573043636595, rel=1e-9)
        assert sweep.u0_norm == pytest.approx(36.034539911043744, rel=1e-9)
        assert sweep.kappa == pytest.approx(1.0254355290936037, rel=1e-9)
        assert sweep.ratio == 1.0
        assert sweep.max_dev == sweep.min_dev
        judged = {c.name: c for c in probe.checks(sweep.summary)}
        assert judged["ratio"].passed and judged["min_dev"].passed
        assert sweep.passed

    def test_record_consistency(self, data_8192_6):
        sweep = probe.inflation_sweep(data_8192_6, BesovParams(2.0, 2.0),
                                      2.0, [5])
        (rec,) = sweep.records
        assert rec.j == 5 and rec.t == 2.0 * 2.0**-5
        slack = 1e-10 * rec.dev_s
        assert rec.block_j <= rec.dev_s + slack
        assert rec.block_j >= rec.tv0_block_j - rec.h_block_j - slack
        assert rec.h_block_j < 0.1 * rec.block_j

    def test_halving_eps0_halves_deviation(self, data_8192_6):
        # dev is Taylor-dominated by t * v0 here, so it tracks eps0 linearly
        hi = probe.inflation_sweep(data_8192_6, BesovParams(2.0, 2.0), 2.0, [5])
        lo = probe.inflation_sweep(data_8192_6, BesovParams(2.0, 2.0), 1.0, [5])
        assert lo.min_dev == pytest.approx(1.9185630832384133, rel=1e-9)
        assert lo.min_dev / hi.min_dev == pytest.approx(0.5, abs=0.05)

    def test_deviation_localizes_at_swept_block(self, data_8192_6):
        # independent reconstruction of the j=5 row: the weighted block
        # profile of u(t_5) - u0 must peak exactly at block 5
        d = data_8192_6
        part = make_partition(d.grid)
        traj = evolve(d.u0, SolverConfig(t_final=2.0 * 2.0**-5, cfl=0.4))
        diff = Field(d.grid, traj.states[-1].values - d.u0.values)
        profile = {j: 2.0 ** (2.0 * j) * lp_norm(lp_block(part, diff, j), 2.0)
                   for j in range(-1, part.j_max + 1)}
        assert max(profile, key=profile.get) == 5
        sweep = probe.inflation_sweep(d, BesovParams(2.0, 2.0), 2.0, [5])
        assert sweep.records[0].dev_s == pytest.approx(profile[5], rel=1e-12)

    def test_forked_records_equal_single_block_runs(self):
        # one trajectory forks t_7 and t_6 on its first step and t_5 on its
        # second; every fork is its own evolve's final state, bit for bit,
        # and every record is its block's sweep run alone
        data = build_data(1, 1, 16384, 8)
        P, js = BesovParams(2.0, 2.0), (5, 6, 7)
        ts = [2.0 * 2.0**-j for j in js]
        finals = {t: evolve(data.u0, SolverConfig(t_final=t, cfl=0.4)) for t in ts}
        assert len({len(traj.steps) for traj in finals.values()}) > 1
        cfg = SolverConfig(t_final=max(ts), cfl=0.4, snapshot_times=tuple(ts))
        lane = solver._lane(data.u0, cfg, Trajectory(data.grid, [], [], []), fork=True)
        forked = [(t, state().values) for t, state in lane]
        assert [t for t, _ in forked] == sorted(ts)
        for t, u in forked:
            assert np.array_equal(u, finals[t].states[-1].values)
        swept = probe.inflation_sweep(data, P, 2.0, js).records
        alone = [probe.inflation_sweep(data, P, 2.0, [j]).records[0] for j in js]
        assert swept == alone

    @pytest.mark.parametrize("where, failed, kept", [("lane", 5, (6, 7)),
                                                      ("fork", 6, (5, 7))])
    def test_blow_up_fails_the_blocks_it_reaches(self, monkeypatch, where, failed, kept):
        # lane: the guard trips on the lane's first full step, past t_6, so
        # the forks at t_7 and t_6 are measured and block 5 is never forked;
        # fork: it trips in the fork at t_6 only
        data = build_data(1, 1, 16384, 8)
        P, t6 = BesovParams(2.0, 2.0), 2.0 * 2.0**-6
        alone = [probe.inflation_sweep(data, P, 2.0, [j]).records[0] for j in kept]
        check = solver._check_state  # of the lane's steps and of the forks'

        def guard(uh, t, *rest):
            out = check(uh, t, *rest)
            if (t > t6) if where == "lane" else (t == t6):
                raise BlowUpError(f"blow-up guard tripped at t={t:.6g}")
            return out

        monkeypatch.setattr(solver, "_check_state", guard)
        before = threading.active_count()
        with pytest.raises(probe.InflationError,
                           match=f"block {failed} .*guard tripped") as exc:
            probe.inflation_sweep(data, P, 2.0, [5, 6, 7])
        assert exc.value.records == alone
        assert threading.active_count() == before

    def test_fft_count(self, fft_counts):
        # one rfftn of u0; per full lane step 4 RHS evaluations of 5 real
        # FFTs and one inverse transform; the first stage of the last lane
        # step; per block a forked step (3 RHS evaluations and one inverse
        # transform) and 3 profiles of one rfftn each; 2 profiles of the data
        data = build_data(1, 1, 16384, 8)
        data.v0  # built on first read, outside the count
        js = (5, 6, 7)
        lane = len(evolve(data.u0, SolverConfig(t_final=2.0 * 2.0**-5, cfl=0.4)).steps)
        fft_counts.clear()
        probe.inflation_sweep(data, BesovParams(2.0, 2.0), 2.0, js)
        assert sum(fft_counts.values()) == (1 + (lane - 1) * 21 + 5
                                            + len(js) * (16 + 3) + 2)

    def test_records_match_dense_reference_at_p_inf(self):
        # every record, u0_norm and kappa from independent evolves and
        # dense-window profiles of every block
        data, s, p = build_data(1, 1, 16384, 8), 2.0, math.inf
        js, eps0 = (5, 6, 7), 2.0
        sweep = probe.inflation_sweep(data, BesovParams(s, p), eps0, js)
        part = make_partition(data.grid)
        ks = np.arange(-1, part.j_max + 1)

        def sup(norms, weight):
            return float(np.max(2.0 ** (weight * ks) * norms))

        v0n = dense_block_norms(part, data.v0, p)
        u0_norm = sup(dense_block_norms(part, data.u0, p), s)
        expected, u_sups = [], []
        for j in js:
            t = eps0 * 2.0**-j
            u_t = evolve(data.u0, SolverConfig(t_final=t, cfl=0.4)).states[-1]
            dn = dense_block_norms(part, u_t - data.u0, p)
            hn = dense_block_norms(part, probe.h_field(u_t, data.u0, data.v0, t), p)
            w = 2.0 ** (j * s)
            expected.append(probe.InflationRecord(
                j, t, sup(dn, s), sup(dn, s - 1), sup(dn, s - 2), sup(hn, s - 2),
                w * dn[j + 1], w * t * v0n[j + 1], w * hn[j + 1]))
            u_sups.append(sup(dense_block_norms(part, u_t, p), s))
        assert sweep.records == expected
        assert sweep.u0_norm == u0_norm
        assert sweep.kappa == max(u_sups) / u0_norm

    def test_error_carries_partial_records(self):
        exc = probe.InflationError("boom", records=[1, 2, 3])
        assert isinstance(exc, RuntimeError)
        assert exc.records == [1, 2, 3]


class TestSharedFluxHelper:
    # the lane and the forks measured on the outcomes worker submit to the
    # solver's one helper thread; its tasks never wait, so both finish

    @staticmethod
    def finishes(fn):
        done = []
        runner = threading.Thread(target=lambda: done.append(fn()), daemon=True)
        runner.start()
        runner.join(timeout=120)
        assert not runner.is_alive(), "deadlocked on the flux helper"
        return done[0]

    def test_block_outcomes(self, monkeypatch):
        data = build_data(1, 1, 4096, 6)
        helper, submitters = solver._helper, set()

        def spied():
            submitters.add(threading.current_thread().name)
            return helper()

        monkeypatch.setattr(solver, "_helper", spied)
        out = self.finishes(lambda: probe._block_outcomes(
            data, 2.0, [3, 4, 5], 0.4, lambda j, t, u_t: float(np.max(u_t.values))))
        assert sorted(out) == [3, 4, 5]
        assert all(isinstance(v, float) for v in out.values())
        assert len(submitters) == 2  # the lane's thread and the outcomes worker

    def test_rate_sweep(self, data_2048_5):
        sweep = self.finishes(lambda: probe.rate_sweep(
            data_2048_5, BesovParams(2.0, 2.0), [1e-4, 5e-4, 2e-3, 1e-2]))
        assert len(sweep.records) == 4


class TestBlockAnatomy:
    def test_index_validation(self, data_8192_6):
        # the window must hold two of the anatomy rows 3..n_max
        g = data_8192_6.grid
        for window in ([2, 3], [6, 7], []):
            with pytest.raises(ValueError, match="fewer than two blocks"):
                probe.validate_jk(g, 6, window)
        with pytest.raises(ValueError, match="fewer than two blocks"):
            probe.jk_sweep(data_8192_6, BesovParams(2.0, 2.0), [6, 7])
        assert probe.validate_jk(g, 6, range(6, 3, -1)) == [4, 5, 6]

    def test_one_dimensional_rows(self, data_8192_6):
        with v0_warning():
            rows = {r.j: r for r in probe.jk_sweep(data_8192_6, P2, range(4, 7)).rows}
        for j in (4, 5, 6):
            row = rows[j]
            assert row.K == 0.0
            assert row.J3 == 0.0
            # the pure third derivative dominates by the carrier squared
            cj = carrier_frequency(j)
            assert row.J1 / (cj**2 * row.J2) == pytest.approx(1.0, abs=0.01)
            amp = data_8192_6.amplitude(j)
            lower = 2.0 ** (2.0 * j) * amp * (row.J1 - row.J2 - row.J3)
            assert row.J >= lower - 1e-10 * row.J
            assert row.J > 0.5 * lower

    def test_report_default_range(self, data_2048_5):
        # the rows are always 3..n_max, whatever the window
        with v0_warning():
            sweep = probe.jk_sweep(data_2048_5, P2, range(4, 6))
        assert [row.j for row in sweep.rows] == [3, 4, 5]
        assert [j for j, _ in sweep.commutator] == [4, 5]
        assert sweep.anchor == probe.c0_anchor(data_2048_5)
        assert sweep.summary["c0"] == sweep.anchor.c0
        assert sweep.summary["delta"] == sweep.anchor.delta

    @pytest.mark.parametrize("d,N,n_max", [(1, 2048, 5), (2, 1024, 4)])
    def test_report_rows_are_single_rows(self, d, N, n_max, anatomy):
        data, sweep = anatomy(d, N, n_max)[:2]
        hs = half_spectrum(data.grid)
        row = probe._jk_row(data, P2, hs.gradient(np.fft.rfftn(data.u0.values)))
        assert sweep.rows == [row(j) for j in range(3, n_max + 1)]
        if d > 1:
            assert all(r.K > 0.0 and r.J3 > 0.0 for r in sweep.rows)

    @UNDER_RESOLVED_V0
    def test_first_failing_block_is_reported(self, monkeypatch):
        # blocks 6 and 9 violate the split; block 6 is slowed down so that
        # block 9 fails first in time, and block 6 is still the one raised
        data = build_data(1, 1, 32768, 9)
        amplitude = data.amplitude

        def inflated(n):
            if n == 6:
                time.sleep(0.2)
            return 1e6 * amplitude(n) if n in (6, 9) else amplitude(n)

        monkeypatch.setattr(data, "amplitude", inflated)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="split violated at block 6$"):
            probe.jk_sweep(data, BesovParams(2.0, 2.0), range(5, 9))
        assert threading.active_count() == before

    @pytest.mark.parametrize("d,N,n_max", ANATOMY)
    def test_fft_count(self, d, N, n_max, anatomy, serial):
        # the rows: one rfftn of u0, shared with the commutator set-up, and
        # per row one inverse transform of the blocks, one rfftn of the
        # packet and d + 1 inverse transforms for J1, J2, J3; the commutator:
        # 3d + 1 rfftn and 3d + 1 irfftn of set-up (truncated velocity 2d,
        # grad u0 1, its half spectra d, their truncation d, the advection 2d
        # and its half spectrum 1), and per block 2d rfftn and 3d + 1 irfftn
        # (the windowed gradient d, its truncation 2d, the windowed advection
        # 1 and the advection 2d); v0's build and profile, counted alone
        v0 = serial(d, N, n_max).v0_ffts
        rows, js = n_max - 2, anatomy_window(n_max)
        assert anatomy(d, N, n_max).ffts == {
            "rfftn": 1 + rows + (3 * d + 1) + 2 * d * len(js) + v0["rfftn"],
            "irfftn": (d + 2) * rows + (3 * d + 1) + (3 * d + 1) * len(js) + v0["irfftn"]}

    def test_anchor_closed_form(self, data_8192_6):
        anchor = probe.c0_anchor(data_8192_6)
        assert anchor.rel_error <= 1e-10
        assert anchor.c0 == 0.5 * anchor.measured
        assert 0.0 < anchor.delta < data_8192_6.grid.length / 2

    def test_anchor_small_grid(self, data_2048_5):
        anchor = probe.c0_anchor(data_2048_5)
        assert anchor.rel_error <= 1e-10
        assert anchor.delta > 0.0


class TestCommutatorCheck:
    def test_range_validation(self, data_2048_5):
        g = data_2048_5.grid
        j_max = make_partition(g).j_max
        for window in ([4, j_max + 1], [-2, 4]):
            with pytest.raises(ValueError, match="outside the partition"):
                probe.validate_jk(g, 5, window)
        with pytest.raises(ValueError, match="outside the partition"):
            probe.jk_sweep(data_2048_5, BesovParams(2.0, 2.0), [4, j_max + 1])

    @UNDER_RESOLVED_V0
    def test_failing_block_is_raised(self, data_8192_6, monkeypatch):
        setup = lpmod._commutator_block

        def failing_block(*args):
            block = setup(*args)

            def fn(j):
                if j == 5:
                    raise RuntimeError("block 5 failed")
                return block(j)
            return fn

        monkeypatch.setattr(lpmod, "_commutator_block", failing_block)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="block 5 failed"):
            probe.jk_sweep(data_8192_6, BesovParams(2.0, 2.0), range(3, 7))
        assert threading.active_count() == before

    def test_flat_across_blocks(self, data_8192_6):
        with v0_warning():
            sweep = probe.jk_sweep(data_8192_6, P2, [4, 5, 6])
        assert [j for j, _ in sweep.commutator] == [4, 5, 6]
        assert all(v > 0 for _, v in sweep.commutator)
        assert sweep.summary["commutator_slope"] <= probe.FLATNESS_MAX
        (flatness,) = [c for c in probe.checks(sweep.summary)
                       if c.name == "commutator_slope"]
        assert flatness.passed


class TestAnatomySchedule:
    # probe.jk_sweep runs the work of `hks probe jk` as one schedule on a
    # two-worker pool: rows, anchor, commutator blocks and the v0 profile

    @pytest.mark.parametrize("d,N,n_max", ANATOMY)
    def test_equals_serial_loop(self, d, N, n_max, anatomy, serial):
        # two threads, support-filled windows and in-place products give the
        # serial loop's numbers exactly, and the pool's threads are joined
        run, ref = anatomy(d, N, n_max), serial(d, N, n_max)
        sweep, (before, after) = run.sweep, run.threads
        assert after == before
        assert sweep.rows == ref.rows
        if d > 1:
            assert all(r.K > 0.0 and r.J3 > 0.0 for r in sweep.rows)
        assert [j for j, _ in sweep.commutator] == list(anatomy_window(n_max))
        assert [q for _, q in sweep.commutator] == ref.commutator
        profile, expected = sweep.v0_profile, ref.v0_profile
        assert profile.value == expected.value and profile.resolved == expected.resolved
        assert profile.profile.tobytes() == expected.profile.tobytes()
        assert sweep.anchor == ref.anchor

    @UNDER_RESOLVED_V0
    @pytest.mark.parametrize("d,N,n_max", ANATOMY)
    def test_one_rfftn_fewer_than_the_serial_calls(self, d, N, n_max, anatomy, fft_counts):
        # the rows and the commutator set-up share the half spectra of
        # grad u0, which the serial parts each take
        run = anatomy(d, N, n_max)
        data = run.data  # its coefficients, built before either count
        g, hs = data.grid, half_spectrum(data.grid)
        part = make_partition(g)

        def rows_and_v0():
            row = probe._jk_row(data, P2, hs.gradient(np.fft.rfftn(data.u0.values)))
            for j in range(3, n_max + 1):
                row(j)
            besov_norm(part, transport_divergence(data.u0, data.S0), P2)

        fft_counts.clear()
        # the rows, the commutator blocks and v0's build and profile, each
        # part from its own half spectra of grad u0; the rows and v0 run on a
        # thread beside the blocks, which moves no count
        with ThreadPoolExecutor(max_workers=1) as pool:
            side = pool.submit(rows_and_v0)
            block = lpmod._commutator_block(part, [Field(g, c) for c in data.coefficients],
                                            hs.gradient(np.fft.rfftn(data.u0.values)))
            for j in anatomy_window(n_max):
                block(j)
            side.result()
        assert run.ffts == {"rfftn": fft_counts["rfftn"] - 1, "irfftn": fft_counts["irfftn"]}

    @UNDER_RESOLVED_V0
    def test_first_failing_item_in_serial_order_raises(self, monkeypatch):
        # row 6 violates the split after a delay, block 5 and the anchor
        # fail at once and the v0 build first of all; row 6 comes first in a
        # serial run, then the anchor, then the blocks, then v0
        data = build_data(1, 1, 16384, 8)
        amplitude, setup, c0_anchor = data.amplitude, lpmod._commutator_block, probe.c0_anchor
        failed = []

        def inflated(n):
            if n == 6:
                time.sleep(0.2)
                return 1e6 * amplitude(n)
            return amplitude(n)

        def failing_setup(*args):
            block = setup(*args)

            def fn(j):
                if j == 5:
                    failed.append(j)
                    raise RuntimeError("block 5 failed")
                return block(j)
            return fn

        def failing_v0(u, S):
            failed.append("v0")
            raise BlowUpError("v0 failed")

        def failing_anchor(data):
            failed.append("anchor")
            raise RuntimeError("anchor failed")

        monkeypatch.setattr(data, "amplitude", inflated)
        monkeypatch.setattr(lpmod, "_commutator_block", failing_setup)
        monkeypatch.setattr(construction, "transport_divergence", failing_v0)
        monkeypatch.setattr(probe, "c0_anchor", failing_anchor)
        solver._helper().submit(int).result()
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="split violated at block 6$"):
            probe.jk_sweep(data, BesovParams(2.0, 2.0), range(4, 8))
        assert threading.active_count() == before
        assert failed == ["v0", 5, "anchor"]
        # without the failing row, the anchor's error comes before the
        # block's and v0's
        monkeypatch.setattr(data, "amplitude", amplitude)
        with pytest.raises(RuntimeError, match="anchor failed"):
            probe.jk_sweep(data, BesovParams(2.0, 2.0), range(4, 8))
        assert threading.active_count() == before
        # without the failing anchor, the block's error comes before v0's
        monkeypatch.setattr(probe, "c0_anchor", c0_anchor)
        with pytest.raises(RuntimeError, match="block 5 failed"):
            probe.jk_sweep(data, BesovParams(2.0, 2.0), range(4, 8))
        assert threading.active_count() == before

    def test_v0_blow_up_fails_the_command(self, tmp_path, capsys, monkeypatch):
        def failing_v0(u, S):
            raise BlowUpError("non-finite values produced at stage 'divergence'")

        monkeypatch.setattr(construction, "transport_divergence", failing_v0)
        solver._helper().submit(int).result()
        before = threading.active_count()
        rc = dispatch(["probe", "jk", "--n", "2048", "--nmax", "5", "--jmin", "4",
                       "--jmax", "5", "--outdir", str(tmp_path / "jk")])
        assert rc == 1
        assert "error: non-finite values produced at stage 'divergence'" in capsys.readouterr().err
        assert threading.active_count() == before
        # the store holds the error and the configuration, and no tables
        out = tmp_path / "jk"
        assert sorted(f.name for f in out.iterdir()) == ["manifest.json", "summary.json"]
        assert json.loads((out / "summary.json").read_text()) == {
            "error": "non-finite values produced at stage 'divergence'", "pass": False}
        assert json.loads((out / "manifest.json").read_text())["config"]["jmin"] == 4


class TestLemmaSuite:
    NAMES_1D = ["partition_sum", "annulus_support", "almost_orthogonality",
                "reconstruction", "bernstein_two_sided", "multiplier_order_p2",
                "embedding_factor", "commutator_stability"]

    def test_one_dimensional(self, fft_counts):
        report = probe.lemma_suite(make_grid(1, 1, 2048))
        assert [c.name for c in report.checks] == self.NAMES_1D
        for check in report.checks:
            assert check.passed, f"{check.name}: {check.detail}"
        assert report.passed
        # f is decomposed once for the orthogonality, reconstruction and
        # multiplier lemmas, and each Bernstein block is built once for both p
        assert fft_counts == {"rfftn": 89, "irfftn": 107}

    def test_two_dimensional(self):
        # no cross-resolution commutator check away from d=1
        report = probe.lemma_suite(make_grid(2, 1, 256))
        assert [c.name for c in report.checks] == self.NAMES_1D[:-1]
        for check in report.checks:
            assert check.passed, f"{check.name}: {check.detail}"
        assert report.passed

    def test_verdicts_are_checks_against_named_bands(self):
        report = probe.lemma_suite(make_grid(1, 1, 2048))
        lemmas = {lemma.name: lemma for lemma in report.checks}
        for lemma in report.checks:
            assert lemma.checks and all(isinstance(c, probe.Check) for c in lemma.checks)
            assert lemma.passed is all(c.passed for c in lemma.checks)
        assert [(c.value, c.lo, c.hi) for c in lemmas["annulus_support"].checks] == [
            (v, v, v) for _, v in probe.ANNULUS_SUPPORT_VALUES]
        assert lemmas["partition_sum"].checks[0].hi == probe.LEMMA_ROUNDOFF
        resolved = lemmas["reconstruction"].checks[0]
        assert (resolved.value, resolved.lo, resolved.hi) == (True, True, True)
        for name in ("bernstein_two_sided", "commutator_stability"):
            assert [c.hi for c in lemmas[name].checks] == [probe.LEMMA_SPREAD_MAX] * len(
                lemmas[name].checks)
        assert len(lemmas["multiplier_order_p2"].checks) == make_partition(
            make_grid(1, 1, 2048)).j_max + 1
        assert len(lemmas["embedding_factor"].checks) == 2

    @pytest.mark.parametrize("constant,value,failing", [
        ("LEMMA_ROUNDOFF", -1.0, ["partition_sum", "almost_orthogonality", "reconstruction",
                                  "multiplier_order_p2", "embedding_factor"]),
        ("LEMMA_SPREAD_MAX", 0.5, ["bernstein_two_sided", "commutator_stability"]),
        ("ANNULUS_SUPPORT_VALUES", ((1.4, 0.0), (0.5, 0.0), (1.5, 1.0), (2.7, 0.0)),
         ["annulus_support"]),
    ])
    def test_bands_read_the_named_constants(self, monkeypatch, constant, value, failing):
        # every lemma band reads its constant when the suite runs: moving
        # one fails exactly the lemmas that use it
        monkeypatch.setattr(probe, constant, value)
        report = probe.lemma_suite(make_grid(1, 1, 512))
        assert [c.name for c in report.checks if not c.passed] == failing
        assert not report.passed


class TestCalibration:
    def test_empty_range(self, data_8192_6):
        with pytest.raises(ValueError, match="empty"):
            probe.calibrate_eps0(data_8192_6, BesovParams(2.0, 2.0), [])

    @pytest.mark.parametrize("start", [0.0, -1.0])
    def test_rejects_nonpositive_start(self, data_2048_5, monkeypatch, start):
        def no_evolve(*args, **kwargs):
            raise AssertionError("evolve called before start was validated")

        monkeypatch.setattr(probe, "_lane", no_evolve)
        with pytest.raises(ValueError, match="eps0 must be positive"):
            probe.calibrate_eps0(data_2048_5, BesovParams(2.0, 2.0), [4], start=start)

    @pytest.mark.parametrize("js", [[2, 4], [4, 6]])
    def test_rejects_blocks_without_packet(self, data_2048_5, monkeypatch, js):
        def no_evolve(*args, **kwargs):
            raise AssertionError("evolve called before the range was validated")

        monkeypatch.setattr(probe, "_lane", no_evolve)
        with pytest.raises(ValueError, match=r"\[3, n_max\] = \[3, 5\]"):
            probe.calibrate_eps0(data_2048_5, BesovParams(2.0, 2.0), js)

    def test_attempts_match_independent_evolves(self, data_2048_5):
        # each attempt's pair of probes comes from one trajectory; the
        # h-ratios are those of two independent evolves, read from
        # dense-window profiles of every block (the B^{s-2} = B^0 weights
        # are 1)
        d, js = data_2048_5, [4, 5]
        part = make_partition(d.grid)
        for p in (2.0, math.inf):
            result = probe.calibrate_eps0(d, BesovParams(2.0, p), js, start=50.0)
            for att in result.attempts:
                for j in js:
                    t = att["eps0"] * 2.0**-j
                    u_t = evolve(d.u0, SolverConfig(t_final=t, cfl=0.4)).states[-1]
                    dn = dense_block_norms(part, u_t - d.u0, p)
                    hn = dense_block_norms(part, probe.h_field(u_t, d.u0, d.v0, t), p)
                    ratio = np.max(hn) / np.max(dn)
                    assert att[f"j{j}"] == f"h-ratio {ratio:.4f}"
            assert list(result.attempts[0]) == ["eps0", "passed", "j4", "j5"]

    @pytest.mark.parametrize("where", ["lane", "fork"])
    def test_blow_up_fails_the_blocks_it_reaches(self, monkeypatch, where):
        # one attempt at eps0 = 2 probes j = 5 and j = 7; the lane forks t_7
        # on its first step and t_5 on its second.  lane: the guard trips on
        # the lane's first full step, past t_7, so block 5 is never forked;
        # fork: it trips in the fork at t_7 only
        data = build_data(1, 1, 16384, 8)
        P, t7 = BesovParams(2.0, 2.0), 2.0 * 2.0**-7
        monkeypatch.setattr(probe, "CALIBRATION_MAX_HALVINGS", 0)
        (clean,) = probe.calibrate_eps0(data, P, [5, 6, 7], start=2.0).attempts
        check = solver._check_state  # of the lane's steps and of the forks'

        def guard(uh, t, *rest):
            out = check(uh, t, *rest)
            if (t > t7) if where == "lane" else (t == t7):
                raise BlowUpError(f"blow-up guard tripped at t={t:.6g}")
            return out

        monkeypatch.setattr(solver, "_check_state", guard)
        before = threading.active_count()
        result = probe.calibrate_eps0(data, P, [5, 6, 7], start=2.0)
        assert threading.active_count() == before
        assert not result.passed
        (att,) = result.attempts
        assert att["j5" if where == "lane" else "j7"].startswith("blow-up: blow-up guard")
        if where == "lane":
            assert list(att) == ["eps0", "passed", "j5"]
        else:
            assert list(att) == ["eps0", "passed", "j5", "j7"]
            assert att["j5"] == clean["j5"] and att["j5"].startswith("h-ratio")

    def test_step_budget_fails_each_attempt(self, data_2048_5, monkeypatch):
        # at eps0 = 1e9 and 5e8 the lane would need far more CFL steps than
        # its budget to reach t_4; each attempt fails before its first step
        monkeypatch.setattr(probe, "CALIBRATION_MAX_HALVINGS", 1)
        start = time.perf_counter()
        result = probe.calibrate_eps0(data_2048_5, BesovParams(2.0, 2.0), [4, 5], start=1e9)
        assert time.perf_counter() - start < 2.0
        assert not result.passed and result.eps0 == 5e8
        assert [att["eps0"] for att in result.attempts] == [1e9, 5e8]
        for att in result.attempts:
            assert list(att) == ["eps0", "passed", "j4"]
            assert f"budget of {solver.MAX_LANE_STEPS} steps" in att["j4"]

    def test_h_ratio_transforms_only_the_s2_blocks(self, monkeypatch):
        # the h-ratio reads only the B^{s-2} sups, so calibration asks
        # block_sups for sigma = s - 2 alone: 22 blocks transformed over the
        # five attempts, where the full rate records take 48 for the same
        # ratios
        data, P = build_data(1, 1, 16384, 8), BesovParams(2.0, math.inf)
        part = make_partition(data.grid)
        transformed = {"calibration": 0, "records": 0}
        block_norms, block_outcomes = lpmod._block_norms, probe._block_outcomes
        where = threading.local()

        def counted(part, Fh, p, js=None):
            if p != 2:
                transformed[where.name] += part.j_max + 2 if js is None else len(js)
            return block_norms(part, Fh, p, js)

        def checked(data, eps0, js, cfl, measure):
            def both(j, t, u_t):
                where.name = "calibration"
                ratio = measure(j, t, Field(u_t.grid, u_t.values.copy()))
                where.name = "records"
                rate = probe._rate_record(part, data, u_t, t, P)[0]
                assert ratio == rate.h_s2 / max(rate.dev_s2, 1e-300)
                return ratio
            return block_outcomes(data, eps0, js, cfl, both)

        monkeypatch.setattr(lpmod, "_block_norms", counted)
        monkeypatch.setattr(probe, "_block_outcomes", checked)
        result = probe.calibrate_eps0(data, P, [5, 7], start=100.0)
        assert [a["passed"] for a in result.attempts] == [False] * 4 + [True]
        assert transformed == {"calibration": 22, "records": 48}

    def test_taylor_bound_is_strict(self, data_2048_5, monkeypatch):
        # the Taylor check passes a ratio below TAYLOR_H_RATIO_MAX and fails
        # one equal to it: the band is [-inf, nextafter(max, 0)]
        def outcomes(ratio):
            return lambda data, eps0, js, cfl, measure: {j: ratio for j in js}

        monkeypatch.setattr(probe, "CALIBRATION_MAX_HALVINGS", 0)
        below = math.nextafter(probe.TAYLOR_H_RATIO_MAX, 0.0)
        for ratio, passed in ((probe.TAYLOR_H_RATIO_MAX, False), (below, True)):
            monkeypatch.setattr(probe, "_block_outcomes", outcomes(ratio))
            result = probe.calibrate_eps0(data_2048_5, BesovParams(2.0, 2.0), [4, 5])
            assert result.passed is passed
            assert result.attempts == [{"eps0": probe.DEFAULT_EPS0, "passed": passed,
                                        "j4": "h-ratio 0.2000", "j5": "h-ratio 0.2000"}]

    def test_default_start_passes_immediately(self, data_8192_6):
        result = probe.calibrate_eps0(data_8192_6, BesovParams(2.0, 2.0), [5])
        assert result.passed
        assert result.eps0 == probe.DEFAULT_EPS0
        assert len(result.attempts) == 1
        assert result.attempts[0]["passed"] is True
        assert "j5" in result.attempts[0]

    def test_halving_search(self, data_2048_5):
        # start far above the Taylor-safe region and let the search descend
        result = probe.calibrate_eps0(data_2048_5, BesovParams(2.0, 2.0), [4],
                                      start=50.0)
        assert result.passed
        assert result.eps0 == 50.0 * 0.5**3
        assert len(result.attempts) == 4
        assert [a["passed"] for a in result.attempts] == [False, False, False,
                                                          True]
        assert [a["eps0"] for a in result.attempts] == [50.0, 25.0, 12.5, 6.25]

    def test_exhausted_search_reports_the_last_eps0_tried(self, data_2048_5, monkeypatch):
        # every attempt fails: the result holds the smallest eps0 tried, not
        # one more halving of it
        monkeypatch.setattr(probe, "CALIBRATION_MAX_HALVINGS", 1)
        monkeypatch.setattr(probe, "_block_outcomes",
                            lambda data, eps0, js, cfl, measure: {j: 1.0 for j in js})
        result = probe.calibrate_eps0(data_2048_5, BesovParams(2.0, 2.0), [4, 5], start=40.0)
        assert [a["eps0"] for a in result.attempts] == [40.0, 20.0]
        assert result.eps0 == 40.0 / 2
        assert result.passed is False
