"""Measurement layer: rates, inflation signature, block anatomy, lemma checks.

Everything here turns an analytic claim into a number with a frozen
tolerance band: every verdict is a :class:`Check` against a band named by
a module constant.  ``checks`` maps the ``summary.json`` scalars of
``rates``, ``inflation`` and ``jk`` to their bands, from the summary
alone; each lemma of ``lemma_suite`` and each attempt of ``calibrate_eps0``
passes when all of its own Checks pass.  Every result carries its
``summary`` and ``passed``.

* ``rate_sweep``     first-order deviation rate and second-order remainder
* ``inflation_sweep`` the non-vanishing-deviation signature along t_j = eps0*2^-j
* ``jk_sweep``       per-block lower-bound anatomy (J, J1, J2, J3, K), origin
  anchor, commutator flatness and the forcing profile of v0
* ``c0_anchor``      closed-form origin value and the half-height radius delta
* ``lemma_suite``    the harmonic-analysis toolbox on pseudo-random fields
* ``calibrate_eps0`` halving search for a Taylor-safe sweep amplitude

Sweeps are deterministic for a fixed configuration.  Each runs one solver
lane and measures its states on a worker thread while the lane steps on
(``_lane_outcomes``).  The rate sweep's lane steps onto every output time;
the inflation sweep and the calibration search fork the last step of
every t_j off one lane to the largest t_j, which gives each u(t_j) bit for
bit as an independent evolve to t_j would (``_block_outcomes``).  Every
Besov sup and named block norm of the sweeps comes from
``littlewood_paley.block_sups``, which at p != 2 transforms only the blocks
that can hold a sup.  ``jk_sweep`` runs all of its parts as one schedule on
a two-worker pool, with the numbers of a serial loop.  The validators
``validate_rate_sweep``, ``validate_inflation_sweep``, ``validate_jk``,
``validate_lemmas`` and ``validate_calibration`` hold the argument checks
of the five probes, so the CLI rejects bad input before it creates a store
or builds data.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import littlewood_paley as lpmod
from . import spectral as sp
from .construction import N_MIN_PACKET, InitialData
from .littlewood_paley import BesovParams, block_sups, make_partition
# evolve is not called here; it stays bound as hks.probe.evolve for tools
# that patch the package's names, such as the benchmark's tracer.
from .solver import BlowUpError, SolverConfig, Trajectory, _lane, evolve  # noqa: F401

# Frozen tolerance bands of the acceptance suite.  Slope bands are a priori
# (+-0.2 on the first-order rate, +-0.3 on the others); the inflation
# thresholds realize "uniformly positive deviation" at finite j; the c0
# anchor must match its closed form to ANCHOR_REL_MAX relative.
RATE1_BAND = (0.8, 1.2)
RATE2_BAND = (1.7, 2.3)
J1_SLOPE_BAND = (2.7, 3.3)
V0_SLOPE_BAND = (0.7, 1.3)
FLATNESS_MAX = 0.3
INFLATION_MIN_RATIO = 0.25
INFLATION_FLOOR_FRACTION = 0.01
ANCHOR_REL_MAX = 0.01
TAYLOR_H_RATIO_MAX = 0.2  # strict: a ratio equal to it fails
DEFAULT_EPS0 = 0.05
CALIBRATION_MAX_HALVINGS = 20

TABLE_HEADER = ("j", "t", "dev_s", "dev_s1", "dev_s2", "h_s2",
                "block_j", "tv0_block_j")


@dataclass(frozen=True)
class Check:
    """A measured number against its frozen band [lo, hi]; a one-sided band
    has an infinite end."""

    name: str
    value: float
    lo: float
    hi: float

    @property
    def passed(self) -> bool:
        return self.lo <= self.value <= self.hi

    def __str__(self) -> str:
        return (f"{self.name} = {self.value:.6g}, band [{self.lo:.6g}, {self.hi:.6g}]: "
                f"{'PASS' if self.passed else 'FAIL'}")


def checks(summary: dict) -> list[Check]:
    """The band checks of a ``rates``, ``inflation`` or ``jk`` summary.

    Keys the summary lacks give no check, so a summary is judged from its
    own keys alone.  A jk summary carries ``k_zero`` only at d = 1, where
    the dyadic growth band of the forcing profile (``v0_slope``) and the
    vanishing transverse term K are the statements; at d >= 2 it carries
    ``k_slope``, the flatness of K, instead.
    """
    bands = [("slope_dev_s1", *RATE1_BAND),
             ("slope_h_s2", *RATE2_BAND),
             ("slope_j1", *J1_SLOPE_BAND)]
    if "k_zero" in summary:
        bands.append(("v0_slope", *V0_SLOPE_BAND))
    bands += [("k_zero", True, True),
              ("k_slope", -math.inf, FLATNESS_MAX),
              ("commutator_slope", -math.inf, FLATNESS_MAX),
              ("ratio", INFLATION_MIN_RATIO, math.inf)]
    if "u0_norm" in summary:
        bands.append(("min_dev", INFLATION_FLOOR_FRACTION * summary["u0_norm"], math.inf))
    bands.append(("anchor_rel_error", -math.inf, ANCHOR_REL_MAX))
    return [Check(name, summary[name], lo, hi) for name, lo, hi in bands if name in summary]


def fit_loglog(xs, ys) -> float:
    """Least-squares slope of log2(ys) against log2(xs)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.size != ys.size or xs.size < 2:
        raise ValueError("need at least two matching samples to fit a slope")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit requires positive data")
    return float(np.polyfit(np.log2(xs), np.log2(ys), 1)[0])


def h_field(u_t: sp.Field, u0: sp.Field, v0: sp.Field, t: float) -> sp.Field:
    """Second-order remainder u(t) - u0 + t*v0 of the short-time expansion."""
    sp._check_same_grid(u_t.grid, u0.grid)
    sp._check_same_grid(v0.grid, u0.grid)
    return sp.Field(u0.grid, u_t.values - u0.values + t * v0.values)


def _lane_outcomes(lane, times, measure) -> list:
    """Per t of ``times``: ``measure(t, state())`` over the ``(t, state)``
    stream of a solver lane, on one worker thread while the lane steps on,
    or the RuntimeError that failed it; a BlowUpError of the lane fails every
    time not yet yielded, once the measurements already started finish."""
    futures, lane_error = {}, None
    with ThreadPoolExecutor(max_workers=1) as pool:
        try:
            for t, state in lane:
                futures[t] = pool.submit(lambda t, state: measure(t, state()), t, state)
        except BlowUpError as exc:
            lane_error = exc
    outcomes = []
    for t in times:
        try:
            outcomes.append(futures[t].result() if t in futures else lane_error)
        except RuntimeError as exc:
            outcomes.append(exc)
    return outcomes


# ---------------------------------------------------------------------------
# Rates


@dataclass(frozen=True)
class RateRecord:
    t: float
    dev_s: float
    dev_s1: float
    dev_s2: float
    h_s2: float


def _deviation_sups(part: lpmod.DyadicPartition, data: InitialData, u_t: sp.Field,
                    t: float, params: BesovParams, sigmas,
                    blocks: tuple = ()) -> tuple[list, float, np.ndarray, np.ndarray]:
    """The sups of the deviation u(t) - u0 at ``sigmas``, the B^{s-2} sup of
    the remainder h = u(t) - u0 + t*v0, and the L^p norms of the blocks
    ``blocks`` of each.  The deviation is built in place of u_t's values,
    which this consumes, and h in place of the deviation with the
    arithmetic of :func:`h_field`, once the deviation's spectrum is taken."""
    diff = np.subtract(u_t.values, data.u0.values, out=u_t.values)
    dev, dn = block_sups(part, sp.Field(data.grid, diff), params.p, sigmas, blocks)
    diff += t * data.v0.values
    (h_s2,), hn = block_sups(part, sp.Field(data.grid, diff), params.p, (params.s - 2,), blocks)
    return dev, h_s2, dn, hn


def _rate_record(part: lpmod.DyadicPartition, data: InitialData, u_t: sp.Field,
                 t: float, params: BesovParams,
                 blocks: tuple = ()) -> tuple[RateRecord, np.ndarray, np.ndarray]:
    """The rate record of u(t), which consumes u_t, with the L^p norms of
    the blocks ``blocks`` of the deviation and of the remainder
    (:func:`_deviation_sups`)."""
    s = params.s
    (dev_s, dev_s1, dev_s2), h_s2, dn, hn = _deviation_sups(part, data, u_t, t, params,
                                                            (s, s - 1, s - 2), blocks)
    return RateRecord(t=t, dev_s=dev_s, dev_s1=dev_s1, dev_s2=dev_s2, h_s2=h_s2), dn, hn


@dataclass(frozen=True)
class RateSweep:
    records: list
    slope_dev_s1: float
    slope_h_s2: float

    @property
    def summary(self) -> dict:
        return {"slope_dev_s1": self.slope_dev_s1, "slope_h_s2": self.slope_h_s2}

    @property
    def passed(self) -> bool:
        return all(c.passed for c in checks(self.summary))


def validate_rate_sweep(params: BesovParams, d: int, times) -> list:
    """The output times of a rate sweep in dimension d, sorted; a
    ValueError for a ladder or indices the sweep rejects."""
    times = sorted(float(t) for t in times)
    if len(times) < 4:
        raise ValueError("need at least four output times for the slope fits")
    if not all(0 < t < math.inf for t in times):
        raise ValueError("output times must be positive and finite")
    if len(set(times)) != len(times):
        raise ValueError("duplicate output times")
    if times[-1] < 10 * times[0]:
        raise ValueError("output times must span at least a decade")
    s, p = params.s, params.p
    if not s - 1 > d / p:
        raise ValueError(f"rate sweep requires s - 1 > d/p; "
                         f"got s={s}, p={p}, d={d}")
    return times


def rate_sweep(data: InitialData, params: BesovParams, times,
               cfl: float = 0.4) -> RateSweep:
    """Deviation and remainder norms along a ladder of output times.

    The ladder must span at least a decade and carry at least four points
    so the fitted slopes are meaningful.  The first-order rate lives in
    B^{s-1}, which is only a norm statement for s - 1 > d/p.  Snapshots are
    measured as the solver steps onto them and dropped once measured; the
    first error propagates after the measurements already started finish.
    """
    times = validate_rate_sweep(params, data.grid.d, times)
    part = make_partition(data.grid)
    data.v0  # built here, before the lane and its worker start
    cfg = SolverConfig(t_final=times[-1], cfl=cfl, snapshot_times=tuple(times))

    records = _lane_outcomes(_lane(data.u0, cfg, Trajectory(data.grid, [], [], [])), times,
                             lambda t, u_t: _rate_record(part, data, u_t, t, params)[0])
    for rec in records:
        if isinstance(rec, RuntimeError):
            raise rec
    ts = [r.t for r in records]
    return RateSweep(
        records=records,
        slope_dev_s1=fit_loglog(ts, [r.dev_s1 for r in records]),
        slope_h_s2=fit_loglog(ts, [r.h_s2 for r in records]),
    )


# ---------------------------------------------------------------------------
# Inflation signature


@dataclass(frozen=True)
class InflationRecord:
    j: int
    t: float
    dev_s: float
    dev_s1: float
    dev_s2: float
    h_s2: float
    block_j: float
    tv0_block_j: float
    h_block_j: float


@dataclass(frozen=True)
class InflationSweep:
    records: list
    eps0: float
    u0_norm: float
    min_dev: float
    max_dev: float
    ratio: float
    kappa: float

    @property
    def summary(self) -> dict:
        return {"eps0": self.eps0, "u0_norm": self.u0_norm, "min_dev": self.min_dev,
                "max_dev": self.max_dev, "ratio": self.ratio, "kappa": self.kappa}

    @property
    def passed(self) -> bool:
        return all(c.passed for c in checks(self.summary))


class InflationError(RuntimeError):
    """An evolve inside the sweep failed; carries the completed records."""

    def __init__(self, message: str, records: list):
        super().__init__(message)
        self.records = records


def _block_outcomes(data: InitialData, eps0: float, js, cfl: float, measure) -> dict:
    """Per block j of js, in the order of js: ``measure(j, t_j, u(t_j))`` at
    t_j = eps0 * 2^-j, or the RuntimeError (a BlowUpError is one) that
    failed the block.

    One CFL lane runs to the largest t_j and forks, at each t_j, the clipped
    last step of the independent evolve to t_j, so every u(t_j) is that
    evolve's final state bit for bit.  A failed fork or measurement fails its
    block only; a BlowUpError of the lane fails every block not yet forked,
    as it fails the independent evolves that would reach that step.
    """
    times = {eps0 * 2.0 ** (-j): j for j in js}
    cfg = SolverConfig(t_final=max(times), cfl=cfl, snapshot_times=tuple(times))
    lane = _lane(data.u0, cfg, Trajectory(data.grid, [], [], []), fork=True)
    outcomes = _lane_outcomes(lane, times, lambda t, u_t: measure(times[t], t, u_t))
    return dict(zip(times.values(), outcomes))


def _blocks(j_range, eps0: float) -> list:
    """The blocks of j_range, sorted, once they and eps0 pass the sweeps' checks."""
    js = sorted(int(j) for j in j_range)
    if not js:
        raise ValueError("empty block range")
    if not 0 < eps0 < math.inf:
        raise ValueError(f"eps0 must be positive and finite, got {eps0}")
    return js


def validate_inflation_sweep(params: BesovParams, d: int, n_max: int,
                             eps0: float, j_range) -> list:
    """The blocks of an inflation sweep in dimension d on a datum with top
    packet n_max, sorted; a ValueError for arguments the sweep rejects."""
    js = _blocks(j_range, eps0)
    if js[0] < 5 or js[-1] > n_max - 1:
        raise ValueError(f"block range must lie in [5, n_max-1] = "
                         f"[5, {n_max - 1}]")
    if len(set(js)) != len(js):
        raise ValueError("duplicate block indices")
    s, p = params.s, params.p
    if not s > 1 + d / p:
        raise ValueError(f"inflation sweep requires s > 1 + d/p; "
                         f"got s={s}, p={p}, d={d}")
    return js


def inflation_sweep(data: InitialData, params: BesovParams, eps0: float,
                    j_range, cfl: float = 0.4) -> InflationSweep:
    """Evolve to t_j = eps0 * 2^-j for each j and measure the deviation.

    The signature of the discontinuity at t = 0 is that dev_s stays
    uniformly positive while t_j drops geometrically.  Every u(t_j) is
    forked off one solver lane and measured on a worker thread as
    :func:`_block_outcomes` describes, and the records come out in
    ascending j.  InflationError names the smallest failing j and carries
    the records of the blocks that completed.
    """
    js = validate_inflation_sweep(params, data.grid.d, data.n_max, eps0, j_range)
    s, p = params.s, params.p
    part = make_partition(data.grid)
    v0_norms = dict(zip(js, block_sups(part, data.v0, p, (), js)[1]))
    (u0_norm,), _ = block_sups(part, data.u0, p, (s,))

    def record(j: int, t_j: float, u_t: sp.Field) -> tuple[InflationRecord, float]:
        (u_norm,), _ = block_sups(part, u_t, p, (s,))  # before the record consumes u_t
        rate, (dn_j,), (hn_j,) = _rate_record(part, data, u_t, t_j, params, (j,))
        w = 2.0 ** (j * s)
        rec = InflationRecord(j=j, **vars(rate), block_j=w * dn_j,
                              tv0_block_j=w * t_j * v0_norms[j], h_block_j=w * hn_j)
        # Triangle chain, each side computed independently.
        slack = 1e-10 * max(1.0, rec.dev_s)
        if rec.dev_s < rec.block_j - slack:
            raise RuntimeError(f"block {j} exceeds the Besov sup")
        if rec.block_j < rec.tv0_block_j - rec.h_block_j - slack:
            raise RuntimeError(f"triangle inequality failed at block {j}")
        return rec, u_norm

    outcomes = _block_outcomes(data, eps0, js, cfl, record)
    failed = [j for j in js if isinstance(outcomes[j], RuntimeError)]
    done = [outcomes[j] for j in js if j not in failed]
    records = [rec for rec, _ in done]
    if failed:
        j_bad = failed[0]
        raise InflationError(
            f"evolve for block {j_bad} (t={eps0 * 2.0 ** (-j_bad)}) "
            f"failed: {outcomes[j_bad]}", records) from outcomes[j_bad]

    devs = np.array([r.dev_s for r in records])
    return InflationSweep(
        records=records,
        eps0=eps0,
        u0_norm=u0_norm,
        min_dev=float(devs.min()),
        max_dev=float(devs.max()),
        ratio=float(devs.min() / devs.max()),
        kappa=float(max(un_s for _, un_s in done) / u0_norm),
    )


# ---------------------------------------------------------------------------
# Block anatomy


@dataclass(frozen=True)
class JKRow:
    j: int
    J: float
    J1: float
    J2: float
    J3: float
    K: float


@dataclass(frozen=True)
class AnchorReport:
    measured: float
    formula: float
    rel_error: float
    c0: float
    delta: float


@dataclass(frozen=True)
class JKSweep:
    rows: list  # JKRow per block 3..n_max
    anchor: AnchorReport
    commutator: list  # (j, 2^{js} ||[Delta_j, V . grad] u0||_p) per window block
    v0_profile: lpmod.BesovNormResult
    summary: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in checks(self.summary))


def _jk_row(data: InitialData, params: BesovParams, du_half: np.ndarray):
    """The function that gives the anatomy row at one block j from du_half,
    the half spectra of grad u0 (``HalfSpectrum.gradient`` of u0's rfftn),
    which it only reads.  A row costs one rfftn of its packet plus inverse
    transforms."""
    g, hs = data.grid, sp.half_spectrum(data.grid)
    s, p = params.s, params.p
    part = make_partition(g)
    w = data.coefficients

    def weighted_norm(values: np.ndarray) -> float:
        """L^p norm of w_1 * values, formed in place of values."""
        values *= w[0]
        return sp.lp_norm(sp.Field(g, values), p)

    def second(F: np.ndarray, a: int) -> np.ndarray:
        """F times (i xi_a)^2, in a new array."""
        return hs.differentiate(hs.differentiate(F.copy(), a), a)

    def row(j: int) -> JKRow:
        scale = 2.0 ** (j * s)
        blocks = part.block(du_half, j)  # Delta_j d_a u0
        J = scale * weighted_norm(blocks[0])
        K = 0.0
        for a in range(1, g.d):
            blocks[a] *= w[a]
            K += scale * sp.lp_norm(sp.Field(g, blocks[a]), p)
        del blocks

        F1 = hs.differentiate(np.fft.rfftn(data.packet(j).values), 0)
        J2 = weighted_norm(hs.irfftn(F1))
        J3 = 0.0
        if g.d > 1:
            trans = second(F1, 1)
            for a in range(2, g.d):
                trans += second(F1, a)
            J3 = weighted_norm(hs.irfftn(trans))
            del trans
        J1 = weighted_norm(hs.irfftn(hs.differentiate(hs.differentiate(F1, 0), 0)))

        lower = scale * data.amplitude(j) * (J1 - J2 - J3)
        if J < lower - 1e-10 * max(1.0, J):
            raise RuntimeError(f"lower-bound split violated at block {j}")
        return JKRow(j=j, J=J, J1=J1, J2=J2, J3=J3, K=K)

    return row


# The commutator set-up enters the pool's queue this many rows before the
# end of the rows, so that it runs beside the last row.  Chosen by
# measurement of ``probe jk`` at N = 2^20 on 2 cores: 3 rows ran as fast,
# 2 to 5 raised the traced numpy peak by 8 MB, and 0 was about 9% slower.
_SETUP_LEAD = 1


def validate_jk(grid: sp.Grid, n_max: int, j_range) -> list:
    """The blocks of the slope-fit window of a jk sweep on a datum with top
    packet n_max, sorted; a ValueError for a window that holds fewer than
    two of the anatomy rows 3..n_max, or that leaves the partition."""
    js = sorted(int(j) for j in j_range)
    if not js or min(js[-1], n_max) - max(js[0], 3) < 1:
        raise ValueError("slope-fit window holds fewer than two blocks")
    if js[0] < -1 or js[-1] > make_partition(grid).j_max:
        raise ValueError("block range outside the partition")
    return js


def jk_sweep(data: InitialData, params: BesovParams, j_range) -> JKSweep:
    """The block anatomy of the lower bound, judged on the window j_range.

    One row per block j = 3..n_max: J pairs the transport coefficient with
    the j-th block of d_x1 u0; its bulk J1 comes from the pure third
    x1-derivative of the packet, J2 and J3 are the first-derivative and
    transverse corrections, and K collects the transverse blocks.  The
    exact pointwise identity behind the split gives
    J >= 2^{-2j} (J1 - J2 - J3), which is asserted as computed.  Beside the
    rows come the origin anchor (:func:`c0_anchor`), the commutator values
    2^{js} ||[Delta_j, V . grad] u0||_p of the window's blocks for the
    transport coefficient V = (1 - 2 u0) grad S0, and the Besov profile of
    the drift v0.  The summary fits J1 (and K at d >= 2) over the rows in
    the window, the commutator values, and v0's profile over the window.

    The work runs as one schedule on a two-worker pool scoped to the call.
    The pool's queue holds v0's build (:attr:`InitialData.v0`) and profile,
    the rows with the commutator set-up entered _SETUP_LEAD rows before
    their end, the commutator blocks (each waits for the set-up, already
    started), and the anchor last.  The calling thread only takes the half
    spectra of grad u0, which the rows and the set-up share, and collects.
    Every number is that of a serial loop.  The first failing item in the
    order of a serial run (rows, anchor, set-up and blocks, v0) raises, and
    the items not yet started are cancelled.  The pool's threads are joined
    before the call returns, and the gradient spectra are freed once the
    last row and the set-up have read them.
    """
    js = validate_jk(data.grid, data.n_max, j_range)
    g, s, p = data.grid, params.s, params.p
    part = make_partition(g)
    row_js = range(3, data.n_max + 1)
    profile = setup = origin = None
    rows, blocks = [], []

    def value(j: int) -> float:
        return 2.0 ** (j * s) * sp.lp_norm(setup.result()(j), p)

    with ThreadPoolExecutor(max_workers=2) as pool:
        try:
            profile = pool.submit(lambda: lpmod.besov_norm(part, data.v0, params))
            vel = [sp.Field(g, c) for c in data.coefficients]  # built before any worker
            du_half = sp.half_spectrum(g).gradient(np.fft.rfftn(data.u0.values))
            row = _jk_row(data, params, du_half)
            lead = max(len(row_js) - _SETUP_LEAD, 0)
            rows = [pool.submit(row, j) for j in row_js[:lead]]
            setup = pool.submit(lpmod._commutator_block, part, vel, du_half)
            rows += [pool.submit(row, j) for j in row_js[lead:]]
            del du_half, row  # the tasks hold them while they need them
            blocks = [pool.submit(value, j) for j in js]
            origin = pool.submit(c0_anchor, data)
            done = ([f.result() for f in rows], origin.result(),
                    [f.result() for f in blocks], profile.result())
        finally:
            for f in (profile, setup, *rows, *blocks, origin):
                if f is not None:
                    f.cancel()
    jk_rows, anchor, values, v0_norm = done

    lo, hi = js[0], js[-1]
    window = [r for r in jk_rows if lo <= r.j <= hi]
    xs = [2.0 ** r.j for r in window]
    summary = {"slope_j1": fit_loglog(xs, [r.J1 for r in window]),
               "commutator_slope": fit_loglog([2.0 ** j for j in js], values)}
    # Packet-pair interference dents the profile below j=6; the asymptotic
    # doubling starts above, so the fit window is clipped when possible.
    v0_lo = max(lo, 6) if hi >= 6 + 1 else lo
    fit = (v0_lo <= v0_norm.js) & (v0_norm.js <= hi)
    summary["v0_slope"] = fit_loglog(2.0 ** v0_norm.js[fit], v0_norm.profile[fit])
    summary.update(anchor_rel_error=anchor.rel_error, c0=anchor.c0, delta=anchor.delta)
    if g.d == 1:
        summary["k_zero"] = all(r.K == 0.0 for r in jk_rows)
    else:
        summary["k_slope"] = fit_loglog(xs, [r.K for r in window])
    return JKSweep(rows=jk_rows, anchor=anchor, commutator=list(zip(js, values)),
                   v0_profile=v0_norm, summary=summary)


def c0_anchor(data: InitialData) -> AnchorReport:
    """Origin value of the coefficient-times-envelope function.

    The closed form is (17/12) phi(0)^{2d} sum_n 2^{-n(s+1)} with phi the
    one-dimensional envelope profile; c0 is half the measured value, and
    delta is the radius up to which the function stays above half its
    origin value on the lattice.  Each full-grid array is formed in place
    of the one before it where it can be, so that few are alive at once.
    """
    g = data.grid
    anchor = data.coefficients[0] * data.bump.envelope(g).values
    np.abs(anchor, out=anchor)
    measured = float(anchor[g.origin_index()])
    phi0 = float(data.bump.value_at_origin())
    formula = (17.0 / 12.0) * phi0 ** (2 * g.d) * sum(
        2.0 ** (-n * (data.s + 1.0)) for n in range(data.n_min, data.n_max + 1))
    below = anchor < 0.5 * measured
    del anchor
    radius = functools.reduce(np.add, (a * a for a in np.ix_(*[g.axis_coordinates()] * g.d)))
    np.sqrt(radius, out=radius)
    delta = float(np.min(radius, where=below, initial=np.inf) if np.any(below)
                  else np.max(radius))
    return AnchorReport(
        measured=measured,
        formula=formula,
        rel_error=abs(measured - formula) / formula,
        c0=0.5 * measured,
        delta=delta,
    )


# ---------------------------------------------------------------------------
# Lemma suite

# Bands of the lemma suite, and the exact annulus profile values it checks.
LEMMA_ROUNDOFF = 1e-12
LEMMA_SPREAD_MAX = 4.0
ANNULUS_SUPPORT_VALUES = ((1.4, 1.0), (0.5, 0.0), (1.5, 1.0), (2.7, 0.0))


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    checks: list  # the lemma's band Checks
    detail: str

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class LemmaSuiteReport:
    checks: list  # LemmaCheck per lemma

    @property
    def summary(self) -> dict:
        return {}

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _matched_noise(grid: sp.Grid, kmax: int, seed: int) -> sp.Field:
    """Band-limited noise drawn in a canonical mode order.

    Coefficients attach to lattice modes, not to array slots, so the same
    (kmax, seed) produces the same trigonometric polynomial on every grid
    that resolves it.  Needed for cross-resolution stability checks.
    """
    if kmax >= grid.N // 2:
        raise ValueError("kmax must stay below the Nyquist index")
    if grid.d != 1:
        raise ValueError("matched noise is one-dimensional")
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(grid.N, dtype=np.complex128)
    for k in range(1, kmax + 1):
        c = (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(kmax)
        coeffs[k] = c
        coeffs[-k] = np.conj(c)
    return sp.inverse_transform(sp.SpectralField(grid, coeffs))


def _commutator_ratio(grid: sp.Grid, seed: int, kmax: int, s: float) -> float:
    """Measured constant of the commutator estimate on a matched family."""
    part = make_partition(grid)
    v = _matched_noise(grid, kmax, seed)
    f = _matched_noise(grid, kmax, seed + 1)
    js = range(0, part.j_max + 1)
    num = max(2.0 ** (j * s) * sp.lp_norm(c, 2.0)
              for j, c in zip(js, lpmod.commutator(part, js, [v], f)))
    hs = sp.half_spectrum(grid)
    dv = sp.Field(grid, hs.irfftn(hs.differentiate(np.fft.rfftn(v.values), 0)))
    df = sp.Field(grid, hs.irfftn(hs.differentiate(np.fft.rfftn(f.values), 0)))
    fb = lpmod.besov_norm(part, f, BesovParams(s, 2.0)).value
    dvb = lpmod.besov_norm(part, dv, BesovParams(s - 1.0, 2.0)).value
    den = (np.max(np.abs(dv.values)) * fb + np.max(np.abs(df.values)) * dvb)
    return num / den


def validate_lemmas(grid: sp.Grid, seed: int) -> None:
    """A ValueError for a negative seed, which numpy rejects, or for a grid
    whose partition stops below block 2, the first Bernstein block."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if (j_max := make_partition(grid).j_max) < 2:
        raise ValueError(f"lemma suite needs blocks up to j=2; the partition stops "
                         f"at j_max={j_max}")


def lemma_suite(grid: sp.Grid, seed: int = 42) -> LemmaSuiteReport:
    """Run the harmonic-analysis toolbox checks on one grid.

    Covers the partition identity, block supports, almost orthogonality,
    reconstruction, two-sided Bernstein constants, the p=2 multiplier
    bound for (1-Laplacian)^{-1}, the embedding factor, and stability of
    the measured commutator constant across a halved resolution.
    """
    validate_lemmas(grid, seed)
    part = make_partition(grid)
    hs = sp.half_spectrum(grid)
    rng = np.random.default_rng(seed)
    lemmas = []

    # Partition of unity at random lattice frequencies within coverage.
    # Per-axis indices are drawn from a box inscribed in the covered ball,
    # hence the sqrt(d): the identity only holds for |xi| <= 1.5 * 2^j_max.
    # The noise below is masked on the same per-axis index.
    kcap = int(np.floor(lpmod.RESOLVED_FACTOR * 2.0 ** part.j_max
                        / (grid.freq_step * np.sqrt(grid.d))))
    ks = rng.integers(-kcap, kcap + 1, size=(200, grid.d))
    xi = np.sqrt(np.sum((ks * grid.freq_step) ** 2, axis=1))
    total = lpmod.low_cutoff_profile(xi)
    for j in range(part.j_max + 1):
        total = total + lpmod.annulus_profile(xi / 2.0 ** j)
    resid = float(np.max(np.abs(total - 1.0)))
    lemmas.append(LemmaCheck("partition_sum",
                             [Check("residual", resid, -math.inf, LEMMA_ROUNDOFF)],
                             f"max residual {resid:.3e}"))

    # Support conditions of the annulus profile.
    bands = [Check(f"phi({r})", lpmod.annulus_profile(np.array([r]))[0], v, v)
             for r, v in ANNULUS_SUPPORT_VALUES]
    lemmas.append(LemmaCheck("annulus_support", bands,
                             f"phi(1.4)={bands[0].value} phi(0.5)={bands[1].value}"))

    f = sp.band_limited_noise(grid, min(kcap, grid.N // 2 - 1), seed=seed + 1)

    # Almost orthogonality on a generic field.
    dec = lpmod.decompose(part, f)
    worst = 0.0
    scale = sp.lp_norm(f, 2.0)
    for j in range(-1, part.j_max + 1):
        bj = dec.block(j)
        for i in range(-1, part.j_max + 1):
            if abs(i - j) >= 2:
                worst = max(worst, sp.lp_norm(lpmod.lp_block(part, bj, i), 2.0))
    lemmas.append(LemmaCheck("almost_orthogonality",
                             [Check("cross_mass", worst, -math.inf, LEMMA_ROUNDOFF * scale)],
                             f"max cross-block mass {worst:.3e}"))

    # Reconstruction of a resolved field.
    err = np.max(np.abs(dec.reconstruct().values - f.values))
    fmax = np.max(np.abs(f.values))
    lemmas.append(LemmaCheck("reconstruction",
                             [Check("resolved", dec.resolved, True, True),
                              Check("error", err, -math.inf, LEMMA_ROUNDOFF * fmax)],
                             f"max error {err:.3e}, resolved {dec.resolved}"))

    # Two-sided Bernstein constants on annulus-supported noise, both p of
    # each block at once.
    ps, ratios = (2.0, np.inf), []
    for j in range(2, part.j_max + 1):
        hi = int(np.floor(1.5 * 2.0 ** j / grid.freq_step))
        lo = int(np.ceil(0.75 * 2.0 ** j / grid.freq_step))
        fj = lpmod.lp_block(
            part, sp.band_limited_noise(grid, hi, seed=seed + 10 + j, kmin=lo), j)
        grad = sp.Field(grid, hs.irfftn(hs.differentiate(np.fft.rfftn(fj.values), 0)))
        ratios.append([sp.lp_norm(grad, p) / (2.0 ** j * sp.lp_norm(fj, p)) for p in ps])
    bands = [Check(f"spread p={p}", max(r) / min(r), -math.inf, LEMMA_SPREAD_MAX)
             for p, r in zip(ps, zip(*ratios))]
    lemmas.append(LemmaCheck(
        "bernstein_two_sided", bands,
        f"spread p=2: {bands[0].value:.2f}, p=inf: {bands[1].value:.2f}"))

    # p=2 multiplier bound for the Helmholtz inverse, per block.
    bands, worst_excess = [], 0.0
    for j in range(0, part.j_max + 1):
        bj = dec.block(j)
        sm = sp.Field(grid, hs.apply(bj.values, hs.helm_inv))
        bound = sp.lp_norm(bj, 2.0) / (1.0 + (0.75 * 2.0 ** j) ** 2)
        lhs = sp.lp_norm(sm, 2.0)
        worst_excess = max(worst_excess, lhs / bound if bound else 0.0)
        bands.append(Check(f"block_{j}", lhs, -math.inf, bound * (1.0 + LEMMA_ROUNDOFF)))
    lemmas.append(LemmaCheck("multiplier_order_p2", bands,
                             f"worst lhs/bound {worst_excess:.6f}"))

    # Embedding factor between smoothness indices.
    bands = []
    for s_hi, s_lo in ((2.0, 1.0), (1.5, 0.25)):
        hi_n = lpmod.besov_norm(part, f, BesovParams(s_hi, 2.0)).value
        lo_n = lpmod.besov_norm(part, f, BesovParams(s_lo, 2.0)).value
        bands.append(Check(f"B^{s_lo}", lo_n, -math.inf,
                           2.0 ** (s_hi - s_lo) * hi_n * (1 + LEMMA_ROUNDOFF)))
    lemmas.append(LemmaCheck("embedding_factor", bands, "factor 2^(s-t)"))

    # Commutator constant stability across N versus N/2.
    if grid.d == 1 and grid.N >= 512:
        half = sp.make_grid(grid.d, grid.M, grid.N // 2)
        kfam = min(grid.N // 8, half.N // 4)
        r_full = _commutator_ratio(grid, seed + 30, kfam, s=2.0)
        r_half = _commutator_ratio(half, seed + 30, kfam, s=2.0)
        spread = max(r_full, r_half) / min(r_full, r_half)
        lemmas.append(LemmaCheck("commutator_stability",
                                 [Check("spread", spread, -math.inf, LEMMA_SPREAD_MAX)],
                                 f"constants {r_full:.4f} vs {r_half:.4f}"))
    return LemmaSuiteReport(checks=lemmas)


# ---------------------------------------------------------------------------
# Calibration


@dataclass(frozen=True)
class CalibrationResult:
    eps0: float
    attempts: list
    passed: bool

    @property
    def summary(self) -> dict:
        return {"eps0": self.eps0, "attempts": self.attempts}


def validate_calibration(n_max: int, start: float, j_range) -> list:
    """The blocks of a calibration on a datum with top packet n_max,
    sorted; a ValueError for arguments the search rejects."""
    js = _blocks(j_range, start)
    if js[0] < N_MIN_PACKET or js[-1] > n_max:
        raise ValueError(f"block range must lie in [{N_MIN_PACKET}, n_max] = "
                         f"[{N_MIN_PACKET}, {n_max}]")
    return js


def calibrate_eps0(data: InitialData, params: BesovParams, j_range,
                   start: float = DEFAULT_EPS0, cfl: float = 0.4) -> CalibrationResult:
    """Halve eps0 until the blow-up guard and the Taylor check both pass,
    at most CALIBRATION_MAX_HALVINGS times.

    The Taylor check requires the remainder-to-deviation ratio in the
    B^{s-2} norm to stay below 0.2 at the extreme sweep times; the guard
    is the solver's own.  Only the endpoints of j_range are probed, the
    largest t being the binding one; both are forked off one solver lane
    per attempt and measured on the worker thread, each bit for bit as its
    own evolve.  Blocks outside [N_MIN_PACKET, n_max] carry no packet and
    are rejected.  The result's eps0 is the last one tried: the first that
    passed, or, when every attempt failed, the smallest.
    """
    js = validate_calibration(data.n_max, start, j_range)
    part = make_partition(data.grid)
    data.v0  # built here, before the lanes and their workers start
    probe_js = (js[0], js[-1]) if len(js) > 1 else (js[0],)

    def h_ratio(j: int, t_j: float, u_t: sp.Field) -> float:
        # the ratio reads only the B^{s-2} sups of the rate record
        (dev_s2,), h_s2, _, _ = _deviation_sups(part, data, u_t, t_j, params, (params.s - 2,))
        return h_s2 / max(dev_s2, 1e-300)

    ratio_max = math.nextafter(TAYLOR_H_RATIO_MAX, 0.0)  # the strict bound as a band
    eps0 = float(start)
    attempts = []
    for _ in range(CALIBRATION_MAX_HALVINGS + 1):
        bands, detail = [], {}
        for j, ratio in _block_outcomes(data, eps0, probe_js, cfl, h_ratio).items():
            if isinstance(ratio, RuntimeError):
                bands.append(Check(f"j{j} evolved", False, True, True))
                detail[f"j{j}"] = f"blow-up: {ratio}"
                break
            bands.append(Check(f"j{j} h-ratio", ratio, -math.inf, ratio_max))
            detail[f"j{j}"] = f"h-ratio {ratio:.4f}"
        attempts.append({"eps0": eps0, "passed": all(c.passed for c in bands), **detail})
        if attempts[-1]["passed"]:
            break
        eps0 *= 0.5
    return CalibrationResult(eps0=attempts[-1]["eps0"], attempts=attempts,
                             passed=attempts[-1]["passed"])
