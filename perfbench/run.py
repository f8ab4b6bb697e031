"""Benchmark of the hks CLI: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``./src``.  With ``--trace 0`` the benchmark runs the workload's command
again and again, each time in a fresh Python process (perfbench/child.py)
into a fresh store, one at a time (closed loop, one client), until about
``S`` seconds are used, and reports the medians of the end-to-end
metrics.  With ``--trace 1`` it runs the command once untraced and once
under the span tracer and reports the per-layer metrics and the tracing
overhead.  Every run's ``summary.json`` is checked against the reference
values in workloads.py.

Progress and the environment record go to stdout; the last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record of the run (samples, quartiles,
environment, per-layer table) is written under ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metrics
from workloads import WORKLOADS, check_summary, largest_array_bytes

HERE = Path(__file__).resolve().parent
HARD_LIMIT_S = 165.0  # the whole invocation must end well within 180 s

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# Per-layer metrics a traced run adds to tracer.layer_metrics.
TRACE_METRICS = ("store.bytes_written", "trace.run_s", "trace.untraced_run_s",
                 "trace.overhead_s")


def _cache_sizes() -> dict:
    sizes = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((idx / "level").read_text())
            kind = (idx / "type").read_text().strip()
            text = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        sizes[f"l{level}_bytes"] = int(text.rstrip("KMG")) * scale
    return sizes


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(geometry: dict) -> dict:
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        **_cache_sizes(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "largest_array_bytes": largest_array_bytes(geometry),
    }
    for level in ("l2", "l3"):
        if env.get(f"{level}_bytes"):
            env[f"largest_array_over_{level}"] = (
                env["largest_array_bytes"] / env[f"{level}_bytes"])
    return env


class Runner:
    """Runs samples of one workload into a private work directory."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / ".perfbench" / "work" / f"{workload}-{seed}-{os.getpid()}"
        self.start = time.perf_counter()
        self.count = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def sample(self, traced: bool = False) -> dict:
        """One fresh-process run of the command, with its output check."""
        self.count += 1
        run_dir = self.work / f"sample-{self.count}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        store, out = run_dir / "store", run_dir / "sample.json"
        spans = run_dir / "spans.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--src", str(self.root / "src"),
               "--store", str(store), "--out", str(out)]
        if traced:
            cmd += ["--spans", str(spans)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        t0 = time.perf_counter()
        result = {"traced": traced, "errors": []}
        try:
            with open(run_dir / "log.txt", "w") as log:
                proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      env=env, cwd=self.root,
                                      timeout=max(1.0, HARD_LIMIT_S - self.elapsed()))
            result["child_exit"] = proc.returncode
        except subprocess.TimeoutExpired:
            result["errors"].append("timed out")
        result["wall_s"] = time.perf_counter() - t0
        if out.is_file():
            result.update(json.loads(out.read_text()))
        if result.get("child_exit") != 0 or "run_s" not in result:
            tail = (run_dir / "log.txt").read_text()[-2000:]
            result["errors"].append(f"sample process failed: {tail}")
        elif result["exit_code"] != 0:
            result["errors"].append(f"command exited {result['exit_code']}")
        summary_path = store / "summary.json"
        summary_text = summary_path.read_text() if summary_path.is_file() else None
        result["summary_text"] = summary_text
        if "run_s" in result:
            summary = json.loads(summary_text) if summary_text else None
            result["errors"] += check_summary(
                WORKLOADS[self.workload]["reference"], summary)
        if traced and spans.is_file():
            result["layers"] = layer_metrics(json.loads(spans.read_text()))
            # manifest.json echoes the invocation (store path, seed), so its
            # size depends on where and with which seed the benchmark runs.
            result["layers"]["store.bytes_written"] = sum(
                p.stat().st_size for p in store.rglob("*")
                if p.is_file() and p.name != "manifest.json")
        shutil.rmtree(run_dir, ignore_errors=True)
        return result

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _stats(values) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                  if len(values) > 1 else (values[0],) * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def run_untraced(runner: Runner, seconds: float) -> tuple[list, dict]:
    """Closed loop: start the next sample when the last ends, and stop
    when a typical sample would end past ``seconds``."""
    samples = []
    while True:
        samples.append(runner.sample())
        typical = statistics.median(s["wall_s"] for s in samples)
        longest = max(s["wall_s"] for s in samples)
        elapsed = runner.elapsed()
        if (elapsed + typical > seconds
                or elapsed + 1.5 * longest > HARD_LIMIT_S
                or "run_s" not in samples[-1]):
            break
    timed = [s for s in samples if "run_s" in s]
    stats = {name: _stats([s[name] for s in timed]) for name in END_TO_END_UNITS} if timed else {}
    return samples, stats


def run_traced(runner: Runner) -> tuple[list, dict]:
    """One untraced and one traced sample; per-layer metrics plus overhead."""
    plain = runner.sample()
    samples = [plain]
    if "run_s" in plain:
        samples.append(runner.sample(traced=True))
    traced = samples[-1]
    if "layers" not in traced or "run_s" not in plain:
        return samples, {}
    if traced["summary_text"] != plain["summary_text"]:
        traced["errors"].append("traced summary.json differs from the untraced one")
    layers = dict(traced["layers"])
    layers["trace.run_s"] = traced["run_s"]
    layers["trace.untraced_run_s"] = plain["run_s"]
    layers["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
    return samples, layers


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True,
                    help="recorded and passed to the command as --seed; "
                         "the workloads take no random input")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "hks" / "cli.py").is_file():
        print(f"error: no hks sources under {root / 'src'}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    env = environment(wl["geometry"])
    print("environment " + json.dumps(env, sort_keys=True), flush=True)
    runner = Runner(root, args.workload, args.seed)
    try:
        if args.trace:
            samples, table = run_traced(runner)
            metrics = {name: {"value": value, "unit": layer_unit(name)}
                       for name, value in sorted(table.items())}
        else:
            samples, table = run_untraced(runner, args.seconds)
            metrics = {name: {"value": table[name]["median"], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items() if name in table}
    finally:
        runner.close()

    failed = sum(1 for s in samples if s["errors"])
    for s in samples:
        for err in s["errors"]:
            print(f"FAILED {'traced ' if s['traced'] else ''}sample: {err}",
                  file=sys.stderr)
    for name, m in metrics.items():
        extra = ""
        if not args.trace:
            st = table[name]
            extra = f"  (median of {st['n']}; q1 {st['q1']:.6g}, q3 {st['q3']:.6g})"
        print(f"{name} = {m['value']:.6g} {m['unit']}{extra}")
    print(f"failed_frac = {failed / len(samples):.6g} ({failed} of {len(samples)})")

    record = {"workload": args.workload, "command": ["hks"] + wl["argv"],
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "attempted": len(samples), "failed": failed,
              "failed_frac": failed / len(samples),
              "samples": [{k: v for k, v in s.items() if k != "summary_text"}
                          for s in samples],
              "metrics": table}
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    if not metrics:
        print("error: no sample completed; nothing to report", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_bytes", ".bytes_written")):
        return "bytes"
    if name.endswith("ffts_per_step"):
        return "1/step"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
