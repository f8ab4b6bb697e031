"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import (END, ID, NAME, PARENT, START, THREAD, Tracer,  # noqa: E402
                    covered_length, layer_metrics, self_times)
from workloads import WORKLOADS, check_summary  # noqa: E402


def span(sid, parent, start, end, name="x", layer="probe", thread=1):
    return [sid, name, layer, thread, parent, start, end, None]


# -- self-time arithmetic ----------------------------------------------------


def test_covered_length_merges_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1, 4), (3, 6), (8, 12)], 0.0, 10.0) == 7.0
    assert covered_length([(-5, 2), (9, 20)], 0.0, 10.0) == 3.0


def test_self_time_nested():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 0, 5.0, 6.0),
        span(3, 1, 2.0, 3.0),   # grandchild: counts against span 1 only
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert st[1] == pytest.approx(3.0 - 1.0)
    assert st[2] == pytest.approx(1.0)
    assert st[3] == pytest.approx(1.0)


def test_self_time_threaded_children_overlap_once():
    # A parent waiting on a two-thread pool: children on threads 2 and 3
    # overlap on [3, 6]; only the union [2, 9] is subtracted.
    spans = [
        span(0, None, 0.0, 10.0, thread=1),
        span(1, 0, 2.0, 6.0, thread=2),
        span(2, 0, 3.0, 9.0, thread=3),
        span(3, 2, 4.0, 5.0, thread=3),
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(3.0)
    assert st[1] == pytest.approx(4.0)
    assert st[2] == pytest.approx(5.0)
    assert sum(st.values()) == pytest.approx(3.0 + 4.0 + 5.0 + 1.0)


def test_tracer_stacks_per_thread_and_adopts_pool_tasks():
    tracer = Tracer()
    # Both workers wait for each other, so their thread ids are distinct.
    barrier = threading.Barrier(2, timeout=10)
    inner = tracer.wrap(lambda wait: wait and barrier.wait(), "solver.evolve", "solver")

    def outer():
        workers = [threading.Thread(target=inner, args=(True,)) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
            assert not w.is_alive()
        inner(False)

    tracer.wrap(outer, "probe.sweep", "probe")()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s[NAME], []).append(s)
    (root,) = by_name["probe.sweep"]
    children = by_name["solver.evolve"]
    assert len(children) == 3
    assert all(c[PARENT] == root[ID] for c in children)
    assert len({c[THREAD] for c in children}) == 3
    assert all(root[START] <= c[START] <= c[END] <= root[END] for c in children)


def test_install_wraps_rebound_names_and_uninstall_restores():
    import numpy as np

    import hks.probe
    import hks.solver
    import hks.spectral

    original_evolve, original_fftn = hks.solver.evolve, np.fft.fftn
    tracer = Tracer()
    tracer.install()
    try:
        assert hks.probe.evolve is hks.solver.evolve is not original_evolve
        assert np.fft.fftn is not original_fftn
        g = hks.spectral.make_grid(1, 1, 64)
        f = hks.spectral.Field(g, np.cos(g.axis_coordinates()))
        hks.spectral.inverse_transform(hks.spectral.transform(f))
    finally:
        tracer.uninstall()
    assert hks.solver.evolve is original_evolve and hks.probe.evolve is original_evolve
    assert np.fft.fftn is original_fftn
    m = layer_metrics(tracer.spans)
    assert m["spectral.transform_calls"] == 2
    assert m["spectral.fft_calls.complex"] == 2
    # fftn: float64 in, complex128 out; ifftn: complex128 in and out.
    assert m["spectral.fft_bytes"] == (64 * 8 + 64 * 16) + 2 * 64 * 16


def test_benchmark_json_names_every_reported_metric():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == [HERE.name]
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    reported = set(layer_metrics([])) | set(run.TRACE_METRICS)
    assert {m["name"] for m in spec["per_layer"]} == reported
    for m in spec["per_layer"]:
        assert run.layer_unit(m["name"]) == m["unit"], m["name"]


# -- output check ------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_output_check_accepts_reference_and_small_drift(name):
    ref = WORKLOADS[name]["reference"]
    assert check_summary(ref, dict(ref)) == []
    drifted = {k: v * (1 + 2e-8) if type(v) is float else v for k, v in ref.items()}
    assert check_summary(ref, drifted) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_output_check_rejects_perturbed_summary(name):
    ref = WORKLOADS[name]["reference"]
    for key, value in ref.items():
        bad = dict(ref)
        if isinstance(value, bool):
            bad[key] = not value
        else:
            bad[key] = value * (1 + 1e-4) + 1e-6
        assert check_summary(ref, bad), key
    missing = dict(ref)
    missing.pop("pass")
    assert check_summary(ref, missing)
    assert check_summary(ref, {**ref, "error": "x"})
    assert check_summary(ref, None)
