"""Command-line interface.

Exit codes: 0 success, 1 check failure (a measured quantity missed its
band, a lemma check failed, or an evolve aborted), 2 usage error (bad
flags, missing files, refusing to overwrite without --force).

Every run that writes an output directory also writes manifest.json with
the resolved configuration; re-running the same command reproduces every
CSV byte for byte.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import ksf, probe
from .construction import _check_bump, _check_n_max, make_bump, make_initial_data
from .littlewood_paley import BesovParams, besov_norm, make_partition
from .probe import InflationError
from .report import render_report
from .solver import BlowUpError, SolverConfig, Trajectory, _lane
from .spectral import make_grid
from .store import ResultStore, StoreExistsError


def _parse_extended(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return float("inf")
    value = float(text)
    if not value >= 1:  # also rejects nan
        raise argparse.ArgumentTypeError("integrability index must be >= 1 or inf")
    return value


def _parse_times(text: str):
    try:
        times = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad time list: {text}") from exc
    if not times:
        raise argparse.ArgumentTypeError("empty time list")
    return times


def _global_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--seed", type=int, default=42,
                        help="seed for pseudo-random families (default 42)")
    return parent


def _add_geometry(p, nmax_default=8):
    p.add_argument("--d", type=int, default=1, help="space dimension")
    p.add_argument("--m", type=int, default=1, help="box scale M")
    p.add_argument("--n", type=int, default=16384, help="lattice points per axis")
    p.add_argument("--s", type=float, default=2.0, help="smoothness index")
    p.add_argument("--nmax", type=int, default=nmax_default,
                   help="top packet index of the initial datum")


def _add_lemmas(p):
    p.set_defaults(run=_cmd_lemmas)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=16384)
    p.add_argument("--outdir", default=None, help="optional result store")
    p.add_argument("--force", action="store_true")


def _add_outdir(p):
    p.add_argument("--outdir", required=True, help="result store directory")
    p.add_argument("--force", action="store_true",
                   help="reuse a non-empty output directory")


def build_parser() -> argparse.ArgumentParser:
    g = _global_parent()
    parser = argparse.ArgumentParser(
        prog="hks",
        description="Spectral toolkit for a hyperbolic chemotaxis model: "
                    "dyadic-block norms, packet initial data, short-time "
                    "evolution, and norm-inflation probes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", parents=[g],
                       help="build the packet initial datum and store u0, S0, v0")
    p.set_defaults(run=_cmd_construct)
    _add_geometry(p)
    _add_outdir(p)

    p = sub.add_parser("norms", parents=[g],
                       help="Besov norm and block profile of a stored field")
    p.set_defaults(run=_cmd_norms)
    p.add_argument("--in", dest="infile", required=True, help="KSF1 input field")
    p.add_argument("--s", type=float, default=2.0)
    p.add_argument("--p", type=_parse_extended, default=2.0)
    p.add_argument("--r", type=_parse_extended, default=float("inf"))

    p = sub.add_parser("evolve", parents=[g],
                       help="integrate the model from a stored field")
    p.set_defaults(run=_cmd_evolve)
    p.add_argument("--in", dest="infile", required=True, help="KSF1 input field")
    p.add_argument("--t", type=float, required=True, help="final time")
    p.add_argument("--dt", type=float, default=None, help="fixed time step")
    p.add_argument("--cfl", type=float, default=0.4, help="Courant factor")
    p.add_argument("--eps", type=float, default=0.0, help="viscosity epsilon")
    p.add_argument("--snapshots", type=_parse_times, default=None,
                   help="comma-separated output times")
    _add_outdir(p)

    p = sub.add_parser("probe", parents=[g], help="measurement sweeps")
    psub = p.add_subparsers(dest="probe_command", required=True)

    pr = psub.add_parser("rates", parents=[g],
                         help="first- and second-order deviation rates")
    pr.set_defaults(run=_cmd_probe_rates)
    _add_geometry(pr)
    pr.add_argument("--p", type=_parse_extended, default=2.0)
    pr.add_argument("--times", type=_parse_times, default=None,
                    help="comma-separated output times (default: log ladder "
                         "in [1e-4, 1e-2])")
    pr.add_argument("--cfl", type=float, default=0.4)
    _add_outdir(pr)

    pi = psub.add_parser("inflation", parents=[g],
                         help="deviation along t_j = eps0 * 2^-j")
    pi.set_defaults(run=_cmd_probe_inflation)
    _add_geometry(pi, nmax_default=9)
    pi.add_argument("--p", type=_parse_extended, default=2.0)
    pi.add_argument("--eps0", type=float, default=probe.DEFAULT_EPS0)
    pi.add_argument("--jmin", type=int, default=5)
    pi.add_argument("--jmax", type=int, default=8)
    pi.add_argument("--cfl", type=float, default=0.4)
    _add_outdir(pi)

    pj = psub.add_parser("jk", parents=[g],
                         help="per-block lower-bound anatomy and anchors")
    pj.set_defaults(run=_cmd_probe_jk)
    _add_geometry(pj)
    pj.add_argument("--p", type=_parse_extended, default=2.0)
    pj.add_argument("--jmin", type=int, default=5,
                    help="lower end of the slope-fit window")
    pj.add_argument("--jmax", type=int, default=8,
                    help="upper end of the slope-fit window")
    _add_outdir(pj)

    pl = psub.add_parser("lemmas", parents=[g],
                         help="harmonic-analysis toolbox checks")
    _add_lemmas(pl)

    pc = psub.add_parser("calibrate", parents=[g],
                         help="halve eps0 until guard and Taylor check pass")
    pc.set_defaults(run=_cmd_probe_calibrate)
    _add_geometry(pc, nmax_default=9)
    pc.add_argument("--p", type=_parse_extended, default=2.0)
    pc.add_argument("--eps0", type=float, default=probe.DEFAULT_EPS0,
                    help="starting value of the halving search")
    pc.add_argument("--jmin", type=int, default=5)
    pc.add_argument("--jmax", type=int, default=8)
    pc.add_argument("--cfl", type=float, default=0.4)
    _add_outdir(pc)

    p = sub.add_parser("lemmas", parents=[g],
                       help="alias for probe lemmas on the default grid")
    _add_lemmas(p)

    p = sub.add_parser("report", parents=[g],
                       help="render report.md from a result store")
    p.set_defaults(run=_cmd_report)
    p.add_argument("--store", required=True, help="result store directory")
    return parser


# ---------------------------------------------------------------------------


def _build_data(args):
    grid = make_grid(args.d, args.m, args.n)
    bump = make_bump(args.d, grid)
    return make_initial_data(args.s, args.nmax, bump, grid)


def _check_flags(args) -> None:
    """A finite --s, and the grid's, make_bump's (--m against --d),
    make_initial_data's (--nmax) and the solver's (--cfl) checks, none of
    which builds an array."""
    if not math.isfinite(args.s):
        raise ValueError(f"s must be finite, got {args.s}")
    grid = make_grid(args.d, args.m, args.n)
    _check_bump(args.d, grid)
    _check_n_max(args.nmax, grid)
    if "cfl" in args:
        SolverConfig(t_final=1.0, cfl=args.cfl)


def _geometry_config(args, **extra):
    cfg = {"d": args.d, "m": args.m, "n": args.n, "s": args.s,
           "nmax": args.nmax}
    cfg.update(extra)
    return cfg


def _pval(p: float):
    return "inf" if p == float("inf") else p


def _cmd_construct(args, argv) -> int:
    store = ResultStore.create(args.outdir, force=args.force)
    data = _build_data(args)
    store.write_field("u0", data.u0)
    store.write_field("S0", data.S0)
    store.write_field("v0", data.v0)
    store.write_manifest(argv, _geometry_config(args))
    print(f"constructed initial datum: d={args.d} M={args.m} N={args.n} "
          f"s={args.s} n_max={args.nmax}")
    print(f"max|u0| = {float(np.max(np.abs(data.u0.values)))!r}")
    print(f"store: {store.root}")
    return 0


def _cmd_norms(args, argv) -> int:
    field = ksf.read_field(args.infile)
    part = make_partition(field.grid)
    result = besov_norm(part, field, BesovParams(args.s, args.p, args.r))
    print(f"besov_norm s={args.s} p={_pval(args.p)} r={_pval(args.r)}: "
          f"{float(result)!r}")
    print(f"resolved: {result.resolved}")
    print("j,profile")
    for j, value in zip(result.js, result.profile):
        print(f"{j},{float(value)!r}")
    return 0


def _cmd_evolve(args, argv) -> int:
    u0 = ksf.read_field(args.infile)
    snapshots = tuple(args.snapshots) if args.snapshots else ()
    cfg = SolverConfig(t_final=args.t, dt=args.dt, cfl=args.cfl,
                       eps=args.eps, snapshot_times=snapshots)
    store = ResultStore.create(args.outdir, force=args.force)
    config = {"infile": args.infile, "t": args.t, "dt": args.dt,
              "cfl": args.cfl, "eps": args.eps,
              "snapshots": list(snapshots)}
    traj = Trajectory(u0.grid, [], [], [])  # gets the share before any step
    try:
        snapshots = [(0.0, u0), *((t, state()) for t, state in _lane(u0, cfg, traj))]
    except BlowUpError as exc:
        config["unevolved_share"] = traj.unevolved_share
        store.write_manifest(argv, config)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for idx, (_, state) in enumerate(snapshots):
        store.write_field(f"u_{idx:03d}", state)
    store.write_table(
        "diagnostics",
        ("step", "t", "dt", "mean", "max_abs", "max_speed"),
        [(i, st["t"], st["dt"], st["mean"], st["max_abs"], st["max_speed"])
         for i, st in enumerate(traj.steps)])
    config["times"] = [float(t) for t, _ in snapshots]
    config["unevolved_share"] = traj.unevolved_share
    store.write_manifest(argv, config)
    print(f"evolved to t={args.t}: {len(traj.steps)} steps, "
          f"{len(snapshots)} states")
    print(f"unevolved share of u0's L2 mass above the dealias cutoff: "
          f"{traj.unevolved_share!r}")
    print(f"store: {store.root}")
    return 0


def _judge(store, summary: dict, d: int) -> int:
    """Write summary with its pass flag, print one line per band check and
    return the exit code, all from the one list of probe.checks."""
    judged = probe.checks(summary, d)
    passed = all(c.passed for c in judged)
    store.write_summary({**summary, "pass": passed})
    for c in judged:
        print(c)
    return 0 if passed else 1


def _table_rows(records):
    """Rows of a rates or inflation table; a column a record lacks is empty."""
    return [tuple(getattr(r, name, None) for name in probe.TABLE_HEADER) for r in records]


def _cmd_probe_rates(args, argv) -> int:
    times = args.times if args.times else [
        float(t) for t in np.geomspace(1e-4, 1e-2, 5)]
    params = BesovParams(args.s, args.p)
    probe.validate_rate_sweep(params, args.d, times)  # before store and data
    store = ResultStore.create(args.outdir, force=args.force)
    data = _build_data(args)
    sweep = probe.rate_sweep(data, params, times, cfl=args.cfl)
    store.write_table("rates", probe.TABLE_HEADER, _table_rows(sweep.records))
    rc = _judge(store, sweep.summary, args.d)
    store.write_manifest(argv, _geometry_config(
        args, p=_pval(args.p), times=times, cfl=args.cfl))
    print(f"store: {store.root}")
    return rc


def _cmd_probe_inflation(args, argv) -> int:
    params, js = BesovParams(args.s, args.p), range(args.jmin, args.jmax + 1)
    probe.validate_inflation_sweep(params, args.d, args.nmax, args.eps0,
                                   js)  # before store and data
    store = ResultStore.create(args.outdir, force=args.force)
    data = _build_data(args)
    config = _geometry_config(args, p=_pval(args.p), eps0=args.eps0,
                              jmin=args.jmin, jmax=args.jmax, cfl=args.cfl)
    try:
        sweep = probe.inflation_sweep(data, params, args.eps0, js, cfl=args.cfl)
    except InflationError as exc:
        store.write_table("inflation", probe.TABLE_HEADER, _table_rows(exc.records))
        store.write_summary({"pass": False, "error": str(exc)})
        store.write_manifest(argv, config)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    store.write_table("inflation", probe.TABLE_HEADER, _table_rows(sweep.records))
    rc = _judge(store, sweep.summary, args.d)
    store.write_manifest(argv, config)
    print(f"max_dev = {sweep.max_dev!r}  kappa = {sweep.kappa!r}")
    print(f"store: {store.root}")
    return rc


def _cmd_probe_jk(args, argv) -> int:
    # the anatomy rows are j = 3..nmax; the fit uses those inside the window
    if min(args.jmax, args.nmax) - max(args.jmin, 3) < 1:
        raise ValueError("slope-fit window holds fewer than two blocks")
    # the commutator blocks jmin..jmax must exist on the grid; checked
    # before the store and the data exist (building the partition is cheap)
    if args.jmin < -1 or args.jmax > make_partition(make_grid(args.d, args.m, args.n)).j_max:
        raise ValueError("block range outside the partition")
    store = ResultStore.create(args.outdir, force=args.force)
    data = _build_data(args)
    params = BesovParams(args.s, args.p)
    # the rows, the anchor, the commutator blocks and v0's profile, as one
    # schedule on two threads
    block_js = list(range(args.jmin, args.jmax + 1))
    rows, anchor, values, v0_norm = probe._anatomy(
        data, params, range(3, args.nmax + 1), block_js, anchor=True, v0=True)
    rep = probe.JKReport(rows=rows, anchor=anchor)
    window = [r for r in rep.rows if args.jmin <= r.j <= args.jmax]
    slope_j1 = probe.fit_loglog([2.0 ** r.j for r in window],
                                [r.J1 for r in window])
    cc = probe._commutator_report(block_js, values)
    v0_rows = [(int(j), float(v)) for j, v in zip(v0_norm.js, v0_norm.profile)]
    # Packet-pair interference dents the profile below j=6; the asymptotic
    # doubling starts above, so the fit window is clipped when possible.
    v0_lo = max(args.jmin, 6) if args.jmax >= 6 + 1 else args.jmin
    in_window = [(j, v) for j, v in v0_rows if v0_lo <= j <= args.jmax]
    v0_slope = probe.fit_loglog([2.0 ** j for j, _ in in_window],
                                [v for _, v in in_window])

    store.write_table("jk", ("j", "J", "J1", "J2", "J3", "K"),
                      [(r.j, r.J, r.J1, r.J2, r.J3, r.K) for r in rep.rows])
    store.write_table("commutator", ("j", "q"),
                      list(zip(cc.js, cc.values)))
    store.write_table("v0_profile", ("j", "value"), v0_rows)

    if data.grid.d == 1:
        k_info = {"k_zero": all(r.K == 0.0 for r in rep.rows)}
    else:
        k_info = {"k_slope": probe.fit_loglog([2.0 ** r.j for r in window],
                                              [r.K for r in window])}
    rc = _judge(store, {
        "slope_j1": slope_j1,
        "v0_slope": v0_slope,
        "commutator_slope": cc.slope,
        "anchor_rel_error": rep.anchor.rel_error,
        "c0": rep.c0,
        "delta": rep.delta,
        **k_info,
    }, data.grid.d)
    store.write_manifest(argv, _geometry_config(
        args, p=_pval(args.p), jmin=args.jmin, jmax=args.jmax))
    print(f"c0 = {rep.c0!r}  delta = {rep.delta!r}")
    print(f"store: {store.root}")
    return rc


def _cmd_lemmas(args, argv) -> int:
    grid = make_grid(args.d, args.m, args.n)
    rep = probe.lemma_suite(grid, seed=args.seed)
    print("check,passed,detail")
    for c in rep.checks:
        print(f"{c.name},{'pass' if c.passed else 'FAIL'},{c.detail}")
    if args.outdir:
        store = ResultStore.create(args.outdir, force=args.force)
        store.write_table("lemmas", ("name", "passed", "detail"),
                          [(c.name, c.passed, c.detail) for c in rep.checks])
        store.write_summary({"pass": rep.passed})
        store.write_manifest(argv, {
            "d": args.d, "m": args.m, "n": args.n, "seed": args.seed})
        print(f"store: {store.root}")
    return 0 if rep.passed else 1


def _cmd_probe_calibrate(args, argv) -> int:
    js = range(args.jmin, args.jmax + 1)
    probe.validate_calibration(args.nmax, args.eps0, js)  # before store and data
    store = ResultStore.create(args.outdir, force=args.force)
    data = _build_data(args)
    result = probe.calibrate_eps0(data, BesovParams(args.s, args.p), js,
                                  start=args.eps0, cfl=args.cfl)
    store.write_summary({
        "eps0": result.eps0,
        "attempts": result.attempts,
        "pass": result.passed,
    })
    store.write_manifest(argv, _geometry_config(
        args, p=_pval(args.p), eps0_start=args.eps0, jmin=args.jmin,
        jmax=args.jmax, cfl=args.cfl))
    for att in result.attempts:
        print(f"eps0 = {att['eps0']!r}: "
              f"{'pass' if att['passed'] else 'fail'}")
    print(f"calibrated eps0 = {result.eps0!r}")
    print(f"store: {store.root}")
    return 0 if result.passed else 1


def _cmd_report(args, argv) -> int:
    store = ResultStore(args.store)
    if not store.root.is_dir():
        missing = NotADirectoryError if store.root.exists() else FileNotFoundError
        raise missing(0, "", args.store)
    text = render_report(store)
    store.write_report(text)
    print(text)
    return 0


def dispatch(argv) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "nmax" in args:  # the commands that build the datum
            _check_flags(args)
        return args.run(args, argv)
    except FileNotFoundError as exc:
        name = getattr(exc, "filename", None) or exc
        print(f"error: file not found: {name}", file=sys.stderr)
        return 2
    except NotADirectoryError as exc:  # a store path names a file, or a path under one
        print(f"error: {exc.filename} is not a directory", file=sys.stderr)
        return 2
    except (StoreExistsError, ValueError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
