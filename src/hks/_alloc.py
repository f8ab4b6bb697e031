"""The process's glibc allocator policy, set once when ``hks`` is imported.

The solver and the block profiles allocate and free arrays of 2-16 MiB at
every transform.  Under glibc's defaults, freed blocks at the top of the
heap are given back and faulted in again, zeroed, at the next allocation,
and the flux kernel's helper thread (``solver._helper``) allocates from an
arena of its own.  The policy:

* ``M_ARENA_MAX = 1``: every thread allocates from the main arena.  With
  the helper's own arena, ``probe rates --p inf`` at N = 2^19 peaked
  10-16 MB higher.
* ``M_MMAP_THRESHOLD = 32 MiB``: the commands' fields and half spectra
  (8 MiB each at N = 2^20) come from the heap; under the default
  threshold they would be mapped and faulted in afresh at every
  transform.  Without the policy, ``probe jk --n 1048576 --nmax 13``
  peaked 55 MB higher (220.6 -> 276.2 MB, higher in 6 of 6 alternating
  pairs); the inflation and rate sweeps at N = 2^18 and 2^19 peaked
  about 3 MB lower.
* ``M_TRIM_THRESHOLD = 64 MiB``: up to that much free heap top is kept for
  reuse, and more is given back, which holds the commands' peak memory.

Importing ``hks`` runs this module first, so the allocations made while the
initial data is built follow the policy too.  Where glibc or ``mallopt`` is
absent it does nothing.
"""

from __future__ import annotations

import ctypes

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8

_POLICY = ((_M_ARENA_MAX, 1),
           (_M_MMAP_THRESHOLD, 32 << 20),
           (_M_TRIM_THRESHOLD, 64 << 20))


def _set_malloc_policy() -> None:
    """Apply ``_POLICY`` through glibc's ``mallopt``; a no-op without it."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in _POLICY:
        mallopt(param, value)


_set_malloc_policy()
