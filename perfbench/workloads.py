"""Benchmark workloads, their reference outputs, and the output check.

Each workload is one ``hks`` CLI command with fixed geometry flags;
everything else is the command's default.  The three commands are
deterministic and take no random input: ``--seed`` is passed through to
the command and recorded, but it changes no input.  Why each workload is
here is written up in README.md beside this file.

The reference values are the ``summary.json`` scalars written by each
command at the commit that introduced this benchmark.
"""

from __future__ import annotations

import math

# Relative tolerance of the output check.  The planned one-trajectory
# solver moves inflation records by up to 2e-8 relative; 1e-6 allows that
# with a 50x margin while still catching any change of the measured
# physics.  The absolute floor covers scalars that are themselves
# round-off quantities (anchor_rel_error is about 3e-10).
REL_TOL = 1e-6
ABS_TOL = 1e-8

WORKLOADS = {
    "inflation": {
        "argv": ["probe", "inflation", "--n", "262144", "--nmax", "12",
                 "--jmin", "5", "--jmax", "8", "--eps0", "2.0"],
        "geometry": {"d": 1, "m": 1, "n": 262144, "s": 2.0, "nmax": 12},
        "reference": {
            "eps0": 2.0,
            "kappa": 1.0254353884636631,
            "max_dev": 52.362101223618744,
            "min_dev": 23.88548154737381,
            "pass": True,
            "ratio": 0.4561597221885338,
            "u0_norm": 36.03453991104376,
        },
    },
    "rates_inf": {
        "argv": ["probe", "rates", "--n", "524288", "--nmax", "8",
                 "--p", "inf"],
        "geometry": {"d": 1, "m": 1, "n": 524288, "s": 2.0, "nmax": 8},
        "reference": {
            "pass": True,
            "slope_dev_s1": 1.0000417810891684,
            "slope_h_s2": 1.999655637421981,
        },
    },
    "anatomy": {
        "argv": ["probe", "jk", "--n", "1048576", "--nmax", "13"],
        "geometry": {"d": 1, "m": 1, "n": 1048576, "s": 2.0, "nmax": 13},
        "reference": {
            "anchor_rel_error": 3.1518911038432925e-10,
            "c0": 0.12806919645402828,
            "commutator_slope": -0.9698879086197006,
            "delta": 0.04163319732121096,
            "k_zero": True,
            "pass": True,
            "slope_j1": 3.000503513645742,
            "v0_slope": 0.9111024770270489,
        },
    },
}


def check_summary(reference: dict, summary) -> list[str]:
    """Mismatches between a command's ``summary.json`` and its reference.

    Booleans and strings must match exactly, numbers within REL_TOL
    (with the ABS_TOL floor).  An empty list means the output is correct.
    """
    if not isinstance(summary, dict):
        return ["summary.json missing or not an object"]
    errors = []
    for key in sorted(set(reference) | set(summary)):
        if key not in summary:
            errors.append(f"{key}: missing")
        elif key not in reference:
            errors.append(f"{key}: unexpected")
        else:
            want, got = reference[key], summary[key]
            if isinstance(want, bool) or not isinstance(want, (int, float)):
                ok = type(got) is type(want) and got == want
            else:
                ok = (isinstance(got, (int, float)) and not isinstance(got, bool)
                      and math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL))
            if not ok:
                errors.append(f"{key}: got {got!r}, want {want!r}")
    return errors


def largest_array_bytes(geometry: dict) -> int:
    """Bytes of one complex128 array on the full lattice, the largest a
    command allocates (the Field-level transform output)."""
    return 16 * geometry["n"] ** geometry["d"]
