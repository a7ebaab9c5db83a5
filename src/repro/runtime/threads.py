"""BLAS thread-pool budgeting for the parallel executor (paper §IV.B).

The paper runs 240 hardware threads but is careful about *who* owns them:
OpenMP worker threads at the outer level, MKL's internal pool inside each
GEMM.  When both levels fan out independently the core count is
oversubscribed (W workers × N BLAS threads) and throughput collapses to
context-switch noise.  This module is the referee: it caps the BLAS pools
so ``workers × blas_threads ≈ cores``.

Two mechanisms, best one wins:

* `threadpoolctl <https://github.com/joblib/threadpoolctl>`_ when
  importable — talks to the already-loaded OpenBLAS/MKL/BLIS runtimes
  directly, so limits apply immediately and can be restored;
* environment variables (``OMP_NUM_THREADS`` & friends) otherwise —
  honoured only by BLAS runtimes *not yet initialised*, so processes that
  want the fallback to bite must set limits before the first ``import
  numpy`` (``python -m repro bench parallel`` measures in such a
  pinned child interpreter).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.errors import ConfigurationError

try:  # pragma: no cover - depends on the host environment
    from threadpoolctl import threadpool_limits as _threadpool_limits

    HAVE_THREADPOOLCTL = True
except ImportError:  # pragma: no cover
    _threadpool_limits = None
    HAVE_THREADPOOLCTL = False

#: Environment knobs recognised by the common BLAS/OpenMP runtimes.
BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def available_cores() -> int:
    """Cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def recommended_blas_threads(n_workers: int, total_cores: Optional[int] = None) -> int:
    """BLAS threads per worker so ``workers × blas ≤ cores`` (min 1).

    This is the paper's thread-budget split: the outer data-parallel level
    gets first claim on cores, the inner GEMM pool divides the remainder.
    """
    if n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
    total = available_cores() if total_cores is None else int(total_cores)
    return max(1, total // n_workers)


@contextmanager
def blas_thread_limit(limit: Optional[int]) -> Iterator[None]:
    """Cap the process-wide BLAS pools at ``limit`` threads inside the block.

    ``None`` is a no-op (leave the runtime's own default in place).  With
    threadpoolctl the cap applies to already-initialised pools and is
    restored on exit; the environment-variable fallback is best-effort
    (it only steers pools created after the variables are set) but is
    likewise restored.
    """
    if limit is None:
        yield
        return
    limit = int(limit)
    if limit < 1:
        raise ConfigurationError(f"BLAS thread limit must be >= 1, got {limit}")
    if HAVE_THREADPOOLCTL:
        with _threadpool_limits(limits=limit):
            yield
        return
    saved = {var: os.environ.get(var) for var in BLAS_ENV_VARS}
    for var in BLAS_ENV_VARS:
        os.environ[var] = str(limit)
    try:
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
