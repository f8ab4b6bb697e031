"""Command-line interface.

Exit codes: 0 success, 1 check failure (a measured quantity missed its
band, a lemma check failed, or an evolve aborted), 2 usage error (bad
flags, missing files, refusing to overwrite without --force).

Every run that writes an output directory also writes manifest.json with
the resolved configuration; re-running the same command reproduces every
CSV byte for byte.  One runner, ``_run``, writes every store and decides
its exit code; a handler runs its validator and names its call, manifest
config, fields, tables and own stdout lines.  Every store, a failed run's
included, gets summary.json and manifest.json: a run that fails with an
error records it in the summary with ``"pass": false``.
"""

from __future__ import annotations

import argparse
import math
import sys
from types import SimpleNamespace

import numpy as np

from . import ksf, probe
from .construction import _check_bump, _check_n_max, make_bump, make_initial_data
from .littlewood_paley import BesovParams, besov_norm, make_partition
from .probe import InflationError
from .report import render_report
from .solver import BlowUpError, SolverConfig, evolve
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


def _add_lemmas(sub, parent, help: str):
    p = sub.add_parser("lemmas", parents=[parent], help=help)
    p.set_defaults(run=_cmd_lemmas)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=16384)
    p.add_argument("--outdir", default=None, help="optional result store")
    p.add_argument("--force", action="store_true")


def _add_probe(psub, parent, name: str, run, help: str, nmax_default=8):
    """A probe subcommand on the packet datum, with its geometry and --p."""
    p = psub.add_parser(name, parents=[parent], help=help)
    p.set_defaults(run=run)
    _add_geometry(p, nmax_default)
    p.add_argument("--p", type=_parse_extended, default=2.0)
    return p


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

    pr = _add_probe(psub, g, "rates", _cmd_probe_rates,
                    "first- and second-order deviation rates")
    pr.add_argument("--times", type=_parse_times, default=None,
                    help="comma-separated output times (default: log ladder "
                         "in [1e-4, 1e-2])")
    pr.add_argument("--cfl", type=float, default=0.4)
    _add_outdir(pr)

    pi = _add_probe(psub, g, "inflation", _cmd_probe_inflation,
                    "deviation along t_j = eps0 * 2^-j", nmax_default=9)
    pi.add_argument("--eps0", type=float, default=probe.DEFAULT_EPS0)
    pi.add_argument("--jmin", type=int, default=5)
    pi.add_argument("--jmax", type=int, default=8)
    pi.add_argument("--cfl", type=float, default=0.4)
    _add_outdir(pi)

    pj = _add_probe(psub, g, "jk", _cmd_probe_jk,
                    "per-block lower-bound anatomy and anchors")
    pj.add_argument("--jmin", type=int, default=5,
                    help="lower end of the slope-fit window")
    pj.add_argument("--jmax", type=int, default=8,
                    help="upper end of the slope-fit window")
    _add_outdir(pj)

    _add_lemmas(psub, g, "harmonic-analysis toolbox checks")

    pc = _add_probe(psub, g, "calibrate", _cmd_probe_calibrate,
                    "halve eps0 until guard and Taylor check pass", nmax_default=9)
    pc.add_argument("--eps0", type=float, default=probe.DEFAULT_EPS0,
                    help="starting value of the halving search")
    pc.add_argument("--jmin", type=int, default=5)
    pc.add_argument("--jmax", type=int, default=8)
    pc.add_argument("--cfl", type=float, default=0.4)
    _add_outdir(pc)

    _add_lemmas(sub, g, "alias for probe lemmas on the default grid")

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
    return {"d": args.d, "m": args.m, "n": args.n, "s": args.s, "nmax": args.nmax, **extra}


def _pval(p: float):
    return "inf" if p == float("inf") else p


def _run(args, argv, run, config: dict, tables=lambda result: {},
         lines=lambda result: (), fields=lambda result: {}) -> int:
    """Create the store (optional for the lemmas), ``run()`` the command,
    write ``fields(result)`` ({name: Field}), ``tables(result)`` ({name:
    (header, rows)}) and the summary with its pass flag, print the band
    checks and ``lines(result)``, write the manifest and print the store.
    A BlowUpError is a failed run that writes the summary of its error and
    the manifest, and no fields or tables; an InflationError also writes
    the tables of its completed blocks."""
    store = ResultStore.create(args.outdir, force=args.force) if args.outdir else None
    try:
        result = run()
        summary, passed = result.summary, result.passed
    except (InflationError, BlowUpError) as exc:
        result, summary, passed = exc, {"error": str(exc)}, False
    if store:
        if not isinstance(result, BlowUpError):
            for name, field in fields(result).items():
                store.write_field(name, field)
            for name, (header, rows) in tables(result).items():
                store.write_table(name, header, rows)
        store.write_summary({**summary, "pass": passed})
    if isinstance(result, RuntimeError):
        store.write_manifest(argv, config)
        print(f"error: {result}", file=sys.stderr)
        return 1
    for line in (*probe.checks(summary), *lines(result)):
        print(line)
    if store:
        store.write_manifest(argv, config)
        print(f"store: {store.root}")
    return 0 if passed else 1


def _cmd_construct(args, argv) -> int:
    def run():
        data = _build_data(args)
        return SimpleNamespace(data=data, passed=True,
                               summary={"max_abs_u0": float(np.max(np.abs(data.u0.values)))})
    return _run(
        args, argv, run, _geometry_config(args),
        lines=lambda result: [f"constructed initial datum: d={args.d} M={args.m} N={args.n} "
                              f"s={args.s} n_max={args.nmax}",
                              f"max|u0| = {result.summary['max_abs_u0']!r}"],
        fields=lambda result: {name: getattr(result.data, name) for name in ("u0", "S0", "v0")})


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
    config = {"infile": args.infile, "t": args.t, "dt": args.dt,
              "cfl": args.cfl, "eps": args.eps, "snapshots": list(snapshots)}

    def run():
        try:
            traj = evolve(u0, cfg)
        except BlowUpError as exc:  # so that an aborted run's manifest records the share too
            config["unevolved_share"] = exc.trajectory.unevolved_share
            raise
        config["unevolved_share"] = traj.unevolved_share
        config["times"] = [float(t) for t in traj.times]
        return SimpleNamespace(traj=traj, passed=True, summary={
            "steps": len(traj.steps), "t_final": args.t, "unevolved_share": traj.unevolved_share})

    header = ("step", "t", "dt", "mean", "max_abs", "max_speed")
    return _run(
        args, argv, run, config,
        lambda res: {"diagnostics": (header, [(i, *map(st.get, header[1:]))
                                              for i, st in enumerate(res.traj.steps)])},
        lambda res: [f"evolved to t={args.t}: {len(res.traj.steps)} steps, "
                     f"{len(res.traj.states)} states",
                     f"unevolved share of u0's L2 mass above the dealias cutoff: "
                     f"{res.traj.unevolved_share!r}"],
        lambda res: {f"u_{i:03d}": state for i, state in enumerate(res.traj.states)})


def _records_table(name: str):
    # also the completed records an InflationError carries
    return lambda result: {name: (probe.TABLE_HEADER, [
        tuple(getattr(r, col, None) for col in probe.TABLE_HEADER) for r in result.records])}


def _cmd_probe_rates(args, argv) -> int:
    times = args.times or [float(t) for t in np.geomspace(1e-4, 1e-2, 5)]
    params = BesovParams(args.s, args.p)
    probe.validate_rate_sweep(params, args.d, times)
    return _run(
        args, argv, lambda: probe.rate_sweep(_build_data(args), params, times, cfl=args.cfl),
        _geometry_config(args, p=_pval(args.p), times=times, cfl=args.cfl),
        _records_table("rates"))


def _cmd_probe_inflation(args, argv) -> int:
    params, js = BesovParams(args.s, args.p), range(args.jmin, args.jmax + 1)
    probe.validate_inflation_sweep(params, args.d, args.nmax, args.eps0, js)
    return _run(
        args, argv,
        lambda: probe.inflation_sweep(_build_data(args), params, args.eps0, js, cfl=args.cfl),
        _geometry_config(args, p=_pval(args.p), eps0=args.eps0, jmin=args.jmin,
                         jmax=args.jmax, cfl=args.cfl),
        _records_table("inflation"),
        lambda sweep: [f"max_dev = {sweep.max_dev!r}  kappa = {sweep.kappa!r}"])


def _cmd_probe_jk(args, argv) -> int:
    js = range(args.jmin, args.jmax + 1)
    probe.validate_jk(make_grid(args.d, args.m, args.n), args.nmax, js)
    return _run(
        args, argv, lambda: probe.jk_sweep(_build_data(args), BesovParams(args.s, args.p), js),
        _geometry_config(args, p=_pval(args.p), jmin=args.jmin, jmax=args.jmax),
        lambda sweep: {
            "jk": (("j", "J", "J1", "J2", "J3", "K"),
                   [(r.j, r.J, r.J1, r.J2, r.J3, r.K) for r in sweep.rows]),
            "commutator": (("j", "q"), sweep.commutator),
            "v0_profile": (("j", "value"), zip(sweep.v0_profile.js, sweep.v0_profile.profile))},
        lambda sweep: [f"c0 = {sweep.anchor.c0!r}  delta = {sweep.anchor.delta!r}"])


def _cmd_lemmas(args, argv) -> int:
    grid = make_grid(args.d, args.m, args.n)
    probe.validate_lemmas(grid, args.seed)
    return _run(
        args, argv, lambda: probe.lemma_suite(grid, seed=args.seed),
        {"d": args.d, "m": args.m, "n": args.n, "seed": args.seed},
        lambda rep: {"lemmas": (("name", "passed", "detail"),
                                [(c.name, c.passed, c.detail) for c in rep.checks])},
        lambda rep: ["check,passed,detail", *(
            f"{c.name},{'pass' if c.passed else 'FAIL'},{c.detail}" for c in rep.checks)])


def _cmd_probe_calibrate(args, argv) -> int:
    js = range(args.jmin, args.jmax + 1)
    probe.validate_calibration(args.nmax, args.eps0, js)
    return _run(
        args, argv,
        lambda: probe.calibrate_eps0(_build_data(args), BesovParams(args.s, args.p), js,
                                     start=args.eps0, cfl=args.cfl),
        _geometry_config(args, p=_pval(args.p), eps0_start=args.eps0, jmin=args.jmin,
                         jmax=args.jmax, cfl=args.cfl),
        lines=lambda result: [
            *(f"eps0 = {a['eps0']!r}: pass" if a["passed"] else
              f"eps0 = {a['eps0']!r}: fail ("
              + "; ".join(f"{k} {v}" for k, v in a.items() if k not in ("eps0", "passed")) + ")"
              for a in result.attempts),
            f"calibrated eps0 = {result.eps0!r}"])


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


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
