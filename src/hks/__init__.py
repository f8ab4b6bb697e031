"""Spectral toolkit for a hyperbolic chemotaxis model.

The package builds dyadic frequency tools on a periodic box, a family of
frequency-packet initial data, a dealiased pseudo-spectral integrator,
and the measurement sweeps that exhibit the model's norm-inflation
signature at short times.
"""

from . import _alloc  # noqa: F401  (sets the allocator policy first)
from .construction import (Bump, InitialData, carrier_frequency, expanded_v0,
                           make_bump, make_initial_data)
from .ksf import read_field, write_field
from .littlewood_paley import (BesovParams, BlockDecomposition,
                               DyadicPartition, besov_norm, block_norms, commutator,
                               decompose, lp_block, make_partition)
from .probe import (InflationError, calibrate_eps0, commutator_check,
                    c0_anchor, fit_loglog, h_field, inflation_sweep,
                    jk_decomposition, jk_report, lemma_suite, rate_sweep)
from .solver import (BlowUpError, SolverConfig, Trajectory, evolve, rhs,
                     solve_S, transport_divergence)
from .spectral import (Field, Grid, SpectralField, band_limited_noise,
                       dealiased_product, inverse_transform, lp_norm, make_grid,
                       transform)
from .store import ResultStore

__version__ = "0.1.0"

__all__ = [
    "BesovParams", "BlockDecomposition", "BlowUpError", "Bump",
    "DyadicPartition", "Field", "Grid", "InflationError", "InitialData",
    "ResultStore", "SolverConfig", "SpectralField", "Trajectory",
    "band_limited_noise", "besov_norm", "block_norms", "c0_anchor",
    "calibrate_eps0", "carrier_frequency", "commutator", "commutator_check",
    "dealiased_product", "decompose", "evolve", "expanded_v0", "fit_loglog",
    "h_field", "inflation_sweep", "inverse_transform", "jk_decomposition",
    "jk_report", "lemma_suite", "lp_block", "lp_norm", "make_bump",
    "make_grid", "make_initial_data", "make_partition", "rate_sweep",
    "read_field", "rhs", "solve_S", "transform", "transport_divergence",
    "write_field",
]
