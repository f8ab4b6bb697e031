import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))  # for dft_oracle

from hks.construction import make_bump, make_initial_data
from hks.littlewood_paley import annulus_profile, low_cutoff_profile
from hks.spectral import Field, half_spectrum, lp_norm, make_grid


def build_data(d, M, N, n_max, s=2.0):
    grid = make_grid(d, M, N)
    return make_initial_data(s, n_max, make_bump(d, grid), grid)


def derivative(f, axis):
    """The derivative of the real field f along ``axis``, on its half spectrum."""
    hs = half_spectrum(f.grid)
    return hs.irfftn(hs.differentiate(np.fft.rfftn(f.values), axis))


def dense_half_window(part, j):
    """The window of block j on the whole real-FFT half spectrum."""
    return part.block_window(j)[..., :part.grid.N // 2 + 1]


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
