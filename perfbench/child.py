"""One benchmark sample, run in a fresh Python process by run.py.

Times the set-up (``import hks`` plus building the workload's initial
data), frees it, then runs the workload's command once in-process
through ``hks.cli.dispatch`` into a fresh store and writes the timings
as JSON.  With ``--spans`` the tracer is installed after set-up and the
recorded spans are written to that file when the command ends.

    python3 perfbench/child.py --workload NAME --seed N --src DIR \
        --store DIR --out FILE [--spans FILE]
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--store", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    geo = wl["geometry"]

    t0 = time.perf_counter()
    import hks
    import hks.cli
    from hks.construction import make_bump, make_initial_data
    from hks.spectral import make_grid
    grid = make_grid(geo["d"], geo["m"], geo["n"])
    data = make_initial_data(geo["s"], geo["nmax"], make_bump(geo["d"], grid), grid)
    setup_s = time.perf_counter() - t0
    del grid, data
    gc.collect()

    src = Path(args.src).resolve()
    if src not in Path(hks.__file__).resolve().parents:
        print(f"error: imported hks from {hks.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if args.spans:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    argv = wl["argv"] + ["--seed", str(args.seed), "--outdir", args.store]
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t1 = time.perf_counter()
    code = hks.cli.dispatch(argv)
    run_s = time.perf_counter() - t1
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.spans)

    Path(args.out).write_text(json.dumps({
        "exit_code": code,
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
