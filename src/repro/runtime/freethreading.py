"""Free-threaded CPython (PEP 703) readiness audit of :mod:`repro.runtime`.

The process engine exists because CPython's GIL serialises the Python
glue between BLAS calls.  PEP 703 builds (`python3.13t+`) remove the GIL,
which would let the *thread* engine parallelise for real — no pickling,
no shared-memory choreography.  This module answers two questions:

* *Are we running free-threaded right now?* — :func:`gil_enabled` /
  :func:`free_threaded_build`, recorded into the parallel benchmark
  metadata so committed reports say which regime they measured, and used
  by :func:`repro.runtime.procexec.make_engine` ("auto" prefers threads
  when the GIL is off).

* *What would break?* — :data:`GIL_AUDIT`, a reviewed inventory of the
  module-level mutable state in the runtime that currently leans on the
  GIL's implicit serialisation.  Each entry carries a risk verdict:
  ``safe`` (immutable after import, or confined by an explicit guard),
  ``guarded`` (mutable, but single-writer by documented contract), or
  ``needs-work`` (a real free-threading hazard).
"""

from __future__ import annotations

import sys
import sysconfig
from typing import Dict, List


def free_threaded_build() -> bool:
    """True when this interpreter was compiled with ``--disable-gil``."""
    return bool(sysconfig.get_config_var("Py_GIL_DISABLED"))


def gil_enabled() -> bool:
    """Is the GIL actually enabled at runtime?

    Free-threaded builds can re-enable the GIL (``PYTHON_GIL=1``, or
    automatically when an incompatible extension loads), so this checks
    :func:`sys._is_gil_enabled` where it exists; non-free-threaded builds
    are always ``True``.
    """
    probe = getattr(sys, "_is_gil_enabled", None)
    if probe is None:
        return True
    return bool(probe())


#: Module-level mutable state in and around ``repro.runtime`` that assumes
#: the GIL, with a per-item verdict.  Reviewed for the process-engine PR;
#: revisit whenever a new module-global appears.
GIL_AUDIT = (
    {
        "module": "repro.testing.faults",
        "symbol": "_PLAN",
        "risk": "guarded",
        "note": (
            "Process-global injected FaultPlan; written only by inject() "
            "between runs, rule visit counters take an explicit lock. "
            "Concurrent inject() from two threads is already rejected "
            "(non-reentrant), so no new hazard without the GIL."
        ),
    },
    {
        "module": "repro.runtime.threads",
        "symbol": "blas_thread_limit scope ledger + measured counts",
        "risk": "guarded",
        "note": (
            "The BLAS pools and the env-var fallback are process-wide; "
            "every scope registers with one ledger under a module lock, "
            "which applies the smallest open limit and restores the "
            "pre-scope state only when the last scope exits, so "
            "overlapping scopes on different threads (engines, pipeline "
            "stages) never restore a sibling's limit. The measured-count "
            "cache takes its own lock. Forked children reset the ledger."
        ),
    },
    {
        "module": "repro.runtime.workspace",
        "symbol": "Workspace buffers",
        "risk": "safe",
        "note": (
            "Arenas are pinned to their owning thread by an explicit "
            "guard (WorkspaceThreadError), which is exactly the "
            "free-threading discipline already."
        ),
    },
    {
        "module": "repro.runtime.executor",
        "symbol": "ParallelGradientEngine._acc/_rr/n_steps",
        "risk": "guarded",
        "note": (
            "Coordinator-side accumulators and the round-robin counter "
            "are mutated only by the single coordinator thread (documented "
            "engine contract); worker threads touch only slot-private "
            "state. Unchanged by GIL removal while that contract holds."
        ),
    },
    {
        "module": "repro.runtime.procexec",
        "symbol": "ProcessGradientEngine pipes/arena + _process_engine_probe",
        "risk": "safe",
        "note": (
            "Worker state is process-private by construction; coordinator "
            "pipes and the shared-memory arena are single-coordinator like "
            "the thread engine. The availability probe is an idempotent "
            "write of a constant."
        ),
    },
    {
        "module": "repro.testing.faults",
        "symbol": "fault-site registry",
        "risk": "safe",
        "note": (
            "Populated at import time by register_fault_site and "
            "effectively read-only afterwards."
        ),
    },
)


def free_threading_report() -> Dict:
    """Structured audit snapshot (also embedded in bench metadata)."""
    counts: Dict[str, int] = {}
    for entry in GIL_AUDIT:
        counts[entry["risk"]] = counts.get(entry["risk"], 0) + 1
    return {
        "python": sys.version.split()[0],
        "free_threaded_build": free_threaded_build(),
        "gil_enabled": gil_enabled(),
        "risk_counts": counts,
        "audit": [dict(entry) for entry in GIL_AUDIT],
    }


def audit_rows() -> List[Dict]:
    """The audit as report-style rows (for tables/CLI printing)."""
    return [dict(entry) for entry in GIL_AUDIT]
