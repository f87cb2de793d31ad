"""repro.kernel — the optional vectorised (numpy) evaluation tier.

Compiles the existing :class:`~repro.engine.plans.CountPlan` / WL /
bitset abstractions onto ndarray kernels when numpy is importable:

* :mod:`repro.kernel.dp_numpy` — the DP instruction tape as batched
  packed-code array steps;
* :mod:`repro.kernel.wl_numpy` — colour refinement as counting-sort
  signature passes;
* :mod:`repro.kernel.bitset_numpy` — candidate pools as packed
  ``uint64`` bitset matrices.

:mod:`repro.kernel.backend` owns detection, the per-layer cost model,
forced-selection overrides (``REPRO_KERNEL`` / :func:`force_backend`),
and the ``repro_backend_selected_total`` /
``repro_kernel_fallback_total`` metric families.  numpy is **never**
imported unless available; every consumer keeps its pure-Python path as
the differential-testing oracle and falls back to it whenever a
vectorised step could leave int64 (results are exact either way).

This package never imports numpy at module load.  It imports the DP tape
opcodes from :mod:`repro.homs.treewidth_dp`; nothing in :mod:`repro.homs`
imports this package at module load, so there is no import cycle.
"""

from repro.kernel.dp_numpy import packable as dp_packable
from repro.kernel.backend import (
    KernelUnsupported,
    force_backend,
    kernel_report,
    note_fallback,
    note_selected,
    numpy_available,
    numpy_or_none,
    resolve,
    select,
    would_select,
)

__all__ = [
    "KernelUnsupported",
    "dp_packable",
    "force_backend",
    "kernel_report",
    "note_fallback",
    "note_selected",
    "numpy_available",
    "numpy_or_none",
    "resolve",
    "select",
    "would_select",
]
