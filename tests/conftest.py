import contextlib
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))  # for dft_oracle

from hks import probe
from hks.construction import make_bump, make_initial_data
from hks.littlewood_paley import annulus_profile, low_cutoff_profile
from hks.spectral import Field, half_spectrum, lp_norm, make_grid


def build_data(d, M, N, n_max, s=2.0):
    grid = make_grid(d, M, N)
    return make_initial_data(s, n_max, make_bump(d, grid), grid)


# Criterion 6's sweep (test_acceptance.flagship_sweep) takes about half of
# the suite's time on about 1.4 cores, so once collection has selected the
# test that asks for it (through the fixture inflation_full) it runs in a
# subprocess beside the rest of the suite, under the suite's warning
# filters, and that test runs last.
_flagship = None  # the subprocess and its stdout and stderr files


def _flagship_child():
    """The subprocess's body: flagship_sweep's records and summary printed
    as JSON, whose float reprs round-trip exactly.  It exits as soon as its
    stdin closes, which the suite's process does when it ends or dies."""
    def exit_at_eof():
        while os.read(0, 4096):  # the raw fd: no lock for shutdown to wait on
            pass
        os._exit(1)
    threading.Thread(target=exit_at_eof, daemon=True).start()
    from test_acceptance import flagship_sweep
    sweep = flagship_sweep()
    json.dump({"records": [dataclasses.asdict(r) for r in sweep.records],
               "summary": sweep.summary}, sys.stdout)


def warning_options(config):
    """The filters pytest applies to a test (ini, then -W), as python -W
    options for a subprocess."""
    filters = config.getini("filterwarnings") + (config.known_args_namespace.pythonwarnings or [])
    return [f"-W{f}" for f in filters]


@pytest.hookimpl(trylast=True)  # after -k and --deselect
def pytest_collection_modifyitems(config, items):
    global _flagship
    flagship = [item for item in items if "inflation_full" in getattr(item, "fixturenames", ())]
    if not flagship:
        return
    items[:] = [item for item in items if item not in flagship] + flagship
    if config.option.collectonly:
        return
    code = "import json, sys; sys.path[:] = json.loads(sys.argv[1]); " \
           "import conftest; conftest._flagship_child()"
    out, err = tempfile.TemporaryFile(), tempfile.TemporaryFile()
    _flagship = (subprocess.Popen([sys.executable, *warning_options(config), "-c", code,
                                   json.dumps(sys.path)],
                                  stdin=subprocess.PIPE, stdout=out, stderr=err), out, err)


@pytest.fixture
def inflation_full():
    """Criterion 6's InflationSweep, rebuilt from the subprocess's JSON;
    fails with the subprocess's stderr if it failed."""
    proc, out, err = _flagship
    if proc.wait() != 0:
        err.seek(0)
        pytest.fail(f"criterion 6's sweep exited with {proc.returncode}:\n"
                    f"{err.read().decode(errors='replace')}", pytrace=False)
    out.seek(0)
    result = json.load(out)
    return probe.InflationSweep(
        records=[probe.InflationRecord(**rec) for rec in result["records"]],
        **result["summary"])


def pytest_sessionfinish():
    if _flagship is not None:
        proc, out, err = _flagship
        proc.stdin.close()  # the subprocess exits at once if it still runs
        proc.wait()
        out.close()
        err.close()


# besov_norm reports the drift v0 of the one-dimensional jk geometries of the
# suite as under-resolved; a test that runs such a profile asserts or ignores
# that warning by its message, and any other UserWarning fails it
UNDER_RESOLVED_V0 = pytest.mark.filterwarnings("ignore:besov_norm on under-resolved")


def v0_warning(d=1):
    """The under-resolved v0 warning, asserted at d = 1."""
    if d == 1:
        return pytest.warns(UserWarning, match="under-resolved")
    return contextlib.nullcontext()


def derivative(f, axis):
    """The derivative of the real field f along ``axis``, on its half spectrum."""
    hs = half_spectrum(f.grid)
    return hs.irfftn(hs.differentiate(np.fft.rfftn(f.values), axis))


def dense_gradient_symbol(hs):
    """The symbols i*xi_a of the d partial derivatives on the half spectrum,
    as one dense complex array stacked on a first axis."""
    return np.stack(np.broadcast_arrays(*(1j * xi for xi in hs.xi)))


def dense_block_norms(part, f, p):
    """Reference block norms through dense half-spectrum windows built from
    the window formulas: Parseval over the whole half spectrum at p = 2,
    one inverse FFT of the windowed spectrum per block at other p."""
    g = part.grid
    r = np.sqrt(half_spectrum(g).xi2)
    windows = [low_cutoff_profile(r)] + [annulus_profile(r / 2.0**j)
                                         for j in range(part.j_max + 1)]
    Fh = np.fft.rfftn(f.values)
    if p == 2:
        c2 = np.abs(Fh) ** 2
        c2[..., 1:-1] *= 2.0
        return np.sqrt(np.array([np.sum(c2 * (w * w)) for w in windows])
                       * (g.spacing ** g.d / g.N ** g.d))
    axes = range(-g.d, 0)
    return np.array([lp_norm(Field(g, np.fft.irfftn(Fh * w, s=g.shape, axes=axes)), p)
                     for w in windows])


@pytest.fixture(scope="session")
def grid256():
    return make_grid(1, 1, 256)


@pytest.fixture(scope="session")
def data_2048_5():
    return build_data(1, 1, 2048, 5)


@pytest.fixture(scope="session")
def data_8192_6():
    return build_data(1, 1, 8192, 6)


def _count_ffts(monkeypatch, key):
    """Counter of the numpy.fft.rfftn and irfftn calls made from now on, on
    any thread, under ``key(function name)``."""
    counts, lock = Counter(), threading.Lock()
    for name in ("rfftn", "irfftn"):
        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            with lock:
                counts[key(_name)] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return counts


@pytest.fixture
def fft_counts(monkeypatch):
    """Counter of the numpy.fft.rfftn and irfftn calls made during the test,
    on any thread, by function name."""
    return _count_ffts(monkeypatch, lambda name: name)


@pytest.fixture
def fft_threads(monkeypatch):
    """Counter of the numpy.fft.rfftn and irfftn calls made during the test,
    by the name of the thread that made them."""
    return _count_ffts(monkeypatch, lambda name: threading.current_thread().name)
