"""Acceptance suite: eleven criteria, one test per criterion.

``pytest -v tests/test_acceptance.py`` prints one pass/fail line per
criterion; add ``-s`` for the measured numbers behind each verdict.
Geometries are fixed here on purpose: the slope bands and thresholds are
claims about specific configurations, and every tolerance appears
literally in the assertions.

The heavy check is criterion 6 (N = 2**20, one lane and four forks);
``conftest.py`` runs its sweep, :func:`flagship_sweep`, in a subprocess
beside the rest of the suite, and its test runs last.
"""

import json

import numpy as np
import pytest

import dft_oracle as oracle
from conftest import UNDER_RESOLVED_V0, build_data
from hks import probe
from hks.cli import dispatch
from hks.littlewood_paley import (
    BesovParams,
    annulus_profile,
    besov_norm,
    decompose,
    low_cutoff_profile,
    lp_block,
    make_partition,
)
from hks.solver import SolverConfig, evolve, rhs
from hks.spectral import (
    Field,
    SpectralField,
    band_limited_noise,
    inverse_transform,
    lp_norm,
    make_grid,
    transform,
)

P_GRID = (1.0, 2.0, float("inf"))


@pytest.fixture(scope="module")
def base_data():
    # workhorse geometry: d=1, M=1, N=16384, packets 3..8
    return build_data(1, 1, 16384, 8)


@pytest.fixture(scope="module")
def family65k():
    # same construction at three truncation depths on one fine grid
    return {nmax: build_data(1, 1, 65536, nmax) for nmax in (6, 8, 10)}


@pytest.fixture(scope="module")
def sweeps32k():
    data = build_data(1, 1, 32768, 8)
    times = [float(t) for t in np.geomspace(1e-4, 1e-2, 5)]
    return {p: probe.rate_sweep(data, BesovParams(2.0, p), times)
            for p in (2.0, float("inf"))}


@pytest.fixture(scope="module")
def data2d():
    return build_data(2, 1, 2048, 5)


def flagship_sweep():
    # criterion 6's sweep, which conftest.py runs in a subprocess
    data = build_data(1, 1, 2**20, 13)
    return probe.inflation_sweep(data, BesovParams(2.0, 2.0), 2.0,
                                 range(5, 9), cfl=0.4)


def test_criterion_01_partition_identities(base_data):
    g = base_data.grid
    part = make_partition(g)

    # (a) the profiles sum to one on every covered lattice radius
    kcap = int(np.floor(1.5 * 2.0**part.j_max / g.freq_step))
    xi = np.arange(kcap + 1) * g.freq_step
    total = low_cutoff_profile(xi)
    for j in range(part.j_max + 1):
        total = total + annulus_profile(xi / 2.0**j)
    residual = float(np.max(np.abs(total - 1.0)))
    print(f"criterion 1: partition residual {residual:.3e} (<= 1e-12)")
    assert residual <= 1e-12

    # (b) windows two octaves apart annihilate each other
    f = band_limited_noise(g, kcap, seed=1)
    scale = lp_norm(f, 2.0)
    worst_window, worst_mass = 0.0, 0.0
    for i in range(-1, part.j_max + 1):
        for j in range(i + 2, part.j_max + 1):
            prod = part.block_window(i) * part.block_window(j)
            worst_window = max(worst_window, float(np.max(np.abs(prod))))
            worst_mass = max(
                worst_mass,
                lp_norm(lp_block(part, lp_block(part, f, j), i), 2.0))
    print(f"criterion 1: window product sup {worst_window!r}, "
          f"cross-block mass {worst_mass:.3e} (<= 1e-12 rel)")
    assert worst_window == 0.0
    assert worst_mass <= 1e-12 * scale

    # (c) the blocks of a resolved field sum back to the field
    dec = decompose(part, f)
    err = float(np.max(np.abs(dec.reconstruct().values - f.values)))
    fmax = float(np.max(np.abs(f.values)))
    print(f"criterion 1: reconstruction error {err:.3e} (<= 1e-12 rel)")
    assert dec.resolved
    assert err <= 1e-12 * fmax


def test_criterion_02_packet_block_dichotomy(base_data):
    part = make_partition(base_data.grid)
    for n in range(4, 9):
        f = base_data.packet(n)
        norm = lp_norm(f, 2.0)
        own = lp_norm(Field(f.grid, lp_block(part, f, n).values - f.values),
                      2.0)
        foreign = max(lp_norm(lp_block(part, f, j), 2.0)
                      for j in range(-1, part.j_max + 1) if j != n)
        print(f"criterion 2: n={n} own-block defect {own / norm:.3e}, "
              f"foreign-block mass {foreign / norm:.3e} (<= 1e-10)")
        assert own <= 1e-10 * norm
        assert foreign <= 1e-10 * norm


def test_criterion_03_norm_independence(family65k):
    for p in P_GRID:
        norms = []
        for nmax, data in sorted(family65k.items()):
            part = make_partition(data.grid)
            norms.append(float(besov_norm(part, data.u0,
                                          BesovParams(2.0, p))))
        spread = (max(norms) - min(norms)) / min(norms)
        print(f"criterion 3: p={p} norms {norms} spread {spread:.3e} (< 1%)")
        assert spread < 0.01
    # regression pins for the three integrabilities at n_max=10
    part = make_partition(family65k[10].grid)
    u0 = family65k[10].u0
    assert float(besov_norm(part, u0, BesovParams(2.0, 1.0))) == pytest.approx(
        154.38375687, rel=1e-6)
    assert float(besov_norm(part, u0, BesovParams(2.0, 2.0))) == pytest.approx(
        36.034539911043744, rel=1e-9)
    assert float(besov_norm(part, u0, BesovParams(2.0, float("inf")))
                 ) == pytest.approx(18.20130522, rel=1e-6)

    # odd symmetry pins every constructed field to zero at the origin
    data = family65k[10]
    g = data.grid
    o = g.origin_index()
    lap_S = inverse_transform(SpectralField(
        g, transform(data.S0).coefficients * -oracle.radius2(g.d, g.M, g.N)))
    for name, field in (("S0", data.S0), ("u0", data.u0), ("lap_S0", lap_S)):
        value = abs(float(field.values[o]))
        scale = float(np.max(np.abs(field.values)))
        print(f"criterion 3: |{name}(0)| = {value:.3e}, scale {scale:.3e}")
        assert value <= 1e-10 * scale


def test_criterion_04_first_order_rate(sweeps32k):
    for p, sweep in sweeps32k.items():
        print(f"criterion 4: p={p} slope_dev_s1 = {sweep.slope_dev_s1:.6f} "
              f"in [0.8, 1.2]")
        assert 0.8 <= sweep.slope_dev_s1 <= 1.2


def test_criterion_05_remainder_rate(sweeps32k):
    for p, sweep in sweeps32k.items():
        print(f"criterion 5: p={p} slope_h_s2 = {sweep.slope_h_s2:.6f} "
              f"in [1.7, 2.3]")
        assert 1.7 <= sweep.slope_h_s2 <= 2.3


def test_criterion_06_inflation_signature(inflation_full):
    sweep = inflation_full  # flagship_sweep, run in conftest's subprocess
    floor = 0.01 * sweep.u0_norm
    print(f"criterion 6: eps0=2.0, j in 5..8, N=2^20, n_max=13")
    for rec in sweep.records:
        print(f"criterion 6: j={rec.j} t={rec.t:.6g} dev_s={rec.dev_s:.6g}")
    print(f"criterion 6: min/max = {sweep.min_dev:.6g}/{sweep.max_dev:.6g}, "
          f"ratio = {sweep.ratio:.4f} (>= 0.25), floor {floor:.4g}")
    assert [rec.j for rec in sweep.records] == [5, 6, 7, 8]
    assert sweep.ratio >= 0.25
    assert sweep.min_dev >= floor
    assert sweep.passed


@UNDER_RESOLVED_V0
def test_criterion_07_block_anatomy(base_data, family65k, data2d):
    # forcing profile: one dyadic doubling per block on the deep family
    deep = family65k[10]
    part10 = make_partition(deep.grid)
    for p in P_GRID:
        prof = besov_norm(part10, deep.v0, BesovParams(2.0, p))
        window = [(j, float(v)) for j, v in zip(prof.js, prof.profile)
                  if 6 <= j <= 10]
        slope = probe.fit_loglog([2.0**j for j, _ in window],
                                 [v for _, v in window])
        print(f"criterion 7: p={p} v0 slope = {slope:.4f} in [0.7, 1.3]")
        assert 0.7 <= slope <= 1.3

    # bulk term growth and commutator flatness on the workhorse grid
    for p in P_GRID:
        sweep = probe.jk_sweep(base_data, BesovParams(2.0, p), range(5, 9))
        rows = [r for r in sweep.rows if 5 <= r.j <= 8]
        slope_j1 = sweep.summary["slope_j1"]  # fitted over the rows 5..8
        cc_slope = sweep.summary["commutator_slope"]
        print(f"criterion 7: p={p} J1 slope = {slope_j1:.4f} in [2.7, 3.3], "
              f"commutator slope = {cc_slope:.4f} (<= 0.3)")
        assert 2.7 <= slope_j1 <= 3.3
        assert cc_slope <= 0.3
        assert all(r.K == 0.0 for r in rows)  # no transverse term in d=1

    # transverse term stays flat on the two-dimensional smoke geometry
    sweep2 = probe.jk_sweep(data2d, BesovParams(2.0, 2.0), range(3, 6))
    rows2 = sweep2.rows  # blocks 3..5
    k_slope = sweep2.summary["k_slope"]
    print(f"criterion 7: d=2 K slope = {k_slope:.4f} (<= 0.3)")
    assert all(r.K > 0.0 for r in rows2)
    assert k_slope <= 0.3


def test_criterion_08_origin_anchor(base_data, data2d):
    for label, data in (("d=1", base_data), ("d=2", data2d)):
        anchor = probe.c0_anchor(data)
        print(f"criterion 8: {label} measured {anchor.measured:.12g}, "
              f"formula {anchor.formula:.12g}, rel {anchor.rel_error:.3e} "
              f"(<= 1e-2), delta {anchor.delta:.6g}")
        assert anchor.rel_error <= 0.01
        assert anchor.delta > 0.0


def test_criterion_09_solver_integrity(base_data, data_2048_5):
    # constants are exact steady states
    g = make_grid(1, 1, 256)
    steady = evolve(Field(g, np.full(g.shape, 0.3)),
                    SolverConfig(t_final=0.5, dt=0.1))
    assert all(np.array_equal(st.values, steady.states[0].values)
               for st in steady.states)
    print("criterion 9: constant state exactly steady over 5 steps")

    # mass conservation with a nonzero mean
    shifted = Field(data_2048_5.grid, data_2048_5.u0.values + 0.25)
    traj = evolve(shifted, SolverConfig(t_final=0.01, dt=2e-3))
    m0 = float(np.mean(shifted.values))
    m1 = float(np.mean(traj.states[-1].values))
    print(f"criterion 9: mean drift {abs(m1 - m0) / abs(m0):.3e} (<= 1e-12)")
    assert abs(m1 - m0) <= 1e-12 * abs(m0)

    # Richardson order of the time stepper
    finals = [evolve(data_2048_5.u0,
                     SolverConfig(t_final=0.08, dt=dt)).states[-1]
              for dt in (0.016, 0.008, 0.004)]
    e1 = lp_norm(Field(data_2048_5.grid,
                       finals[0].values - finals[1].values), 2.0)
    e2 = lp_norm(Field(data_2048_5.grid,
                       finals[1].values - finals[2].values), 2.0)
    order = float(np.log2(e1 / e2))
    print(f"criterion 9: RK4 Richardson order {order:.4f} (>= 3.5)")
    assert e2 > 1e-14  # above roundoff, the order estimate is meaningful
    assert order >= 3.5

    # the stored drift is exactly the negated right-hand side at t=0
    out = rhs(base_data.u0, SolverConfig(t_final=1.0))
    defect = lp_norm(Field(base_data.grid,
                           out.values + base_data.v0.values), 2.0)
    rel = defect / lp_norm(base_data.v0, 2.0)
    print(f"criterion 9: rhs(u0) + v0 relative defect {rel:.3e} (<= 1e-10)")
    assert rel <= 1e-10


def test_criterion_10_toolbox_constants(base_data):
    report = probe.lemma_suite(base_data.grid)
    for check in report.checks:
        print(f"criterion 10: {check.name}: "
              f"{'pass' if check.passed else 'FAIL'} ({check.detail})")
    names = [c.name for c in report.checks]
    for required in ("bernstein_two_sided", "multiplier_order_p2",
                     "commutator_stability"):
        assert required in names
    assert all(c.passed for c in report.checks)
    assert report.passed


def test_criterion_11_reproducible_stores(tmp_path):
    argv = ["probe", "rates", "--n", "4096", "--nmax", "5",
            "--times", "1e-4,2e-4,5e-4,1e-3"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert dispatch(argv + ["--outdir", str(a)]) == 0
    assert dispatch(argv + ["--outdir", str(b)]) == 0
    for name in ("tables/rates.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    assert ma["config"] == mb["config"]
    assert ma["outputs"] == mb["outputs"]
    print("criterion 11: repeated runs byte-identical "
          "(rates.csv, summary.json) with equal manifests")
