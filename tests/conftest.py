import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))  # for dft_oracle

from hks.construction import make_bump, make_initial_data
from hks.spectral import make_grid


def build_data(d, M, N, n_max, s=2.0):
    grid = make_grid(d, M, N)
    return make_initial_data(s, n_max, make_bump(d, grid), grid)


@pytest.fixture(scope="session")
def grid256():
    return make_grid(1, 1, 256)


@pytest.fixture(scope="session")
def data_2048_5():
    return build_data(1, 1, 2048, 5)


@pytest.fixture(scope="session")
def data_8192_6():
    return build_data(1, 1, 8192, 6)


@pytest.fixture
def fft_counts(monkeypatch):
    """Counter of the numpy.fft.rfftn and irfftn calls made during the test."""
    counts = Counter()
    for name in ("rfftn", "irfftn"):
        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return counts
