"""BLAS thread-pool budgeting for the parallel executor (paper §IV.B).

The paper runs 240 hardware threads but is careful about *who* owns them:
OpenMP worker threads at the outer level, MKL's internal pool inside each
GEMM.  When both levels fan out independently the core count is
oversubscribed (W workers × N BLAS threads) and throughput collapses to
context-switch noise.  This module is the referee: it caps the BLAS pools
so ``workers × blas_threads ≈ cores``.

Three mechanisms, best one wins:

* `threadpoolctl <https://github.com/joblib/threadpoolctl>`_ when
  importable — talks to the already-loaded OpenBLAS/MKL/BLIS runtimes
  directly, so limits apply immediately and can be restored;
* the OpenBLAS runtimes bundled with NumPy and SciPy otherwise — their
  exported ``scipy_openblas_{set,get}_num_threads[64_]``, loaded lazily
  through :mod:`ctypes`, set the live pools just as directly;
* environment variables (``OMP_NUM_THREADS`` & friends) when neither is
  available — honoured only by BLAS runtimes *not yet initialised*, so
  processes that want this route to bite must set limits before the
  first ``import numpy``.

The pool is process-global, but its owners are not: an open engine, the
serial training loop and the pipelined pre-trainer's stage threads can
each hold a budget at the same time.  Scopes therefore register with one
process-wide ledger rather than save and restore the pool themselves:
the pool runs at the *smallest* active limit, and the count from before
the first scope comes back only when the last one exits, so no scope
restores a sibling's limit while the sibling is still running.

:func:`measured_blas_threads` chooses a count by measurement: the
:func:`~repro.runtime.autotune.autotune_threads` sweep with a wall-clock
evaluation of one real training step, run once per process per key.
"""

from __future__ import annotations

import ctypes
import dataclasses
import glob
import os
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError

try:  # pragma: no cover - depends on the host environment
    from threadpoolctl import threadpool_info as _threadpool_info
    from threadpoolctl import threadpool_limits as _threadpool_limits

    HAVE_THREADPOOLCTL = True
except ImportError:  # pragma: no cover
    _threadpool_info = _threadpool_limits = None
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


# ---------------------------------------------------------------------------
# the three mechanisms
# ---------------------------------------------------------------------------

_UNLOADED = object()
_openblas = _UNLOADED

#: Packages whose wheels bundle a ``scipy_openblas`` runtime of their own.
_BUNDLING_PACKAGES = ("numpy", "scipy")


def bundled_openblas() -> List[Tuple[Callable[[], int], Callable[[int], None]]]:
    """``(get, set)`` thread-count functions of each bundled OpenBLAS.

    NumPy's wheel ships one (``scipy_openblas_*_num_threads64_``) and
    SciPy's another (``scipy_openblas_*_num_threads``), each with its own
    pool: ``np.dot`` runs on the first, the fused kernels' ``dgemm`` and
    ``daxpy`` on the second.  NumPy's comes first.  Loaded once, on first
    use; empty when neither package bundles OpenBLAS (MKL, Accelerate or
    a system BLAS).
    """
    global _openblas
    if _openblas is _UNLOADED:
        _openblas = _load_bundled_openblas()
    return _openblas


def _load_bundled_openblas():
    import importlib.util

    runtimes = []
    for package in _BUNDLING_PACKAGES:
        spec = importlib.util.find_spec(package)
        if spec is None or spec.origin is None:  # pragma: no cover
            continue
        root = os.path.dirname(spec.origin)
        paths = sorted(
            glob.glob(os.path.join(root, os.pardir, f"{package}.libs",
                                   "libscipy_openblas*"))
            + glob.glob(os.path.join(root, ".dylibs", "libscipy_openblas*"))
        )
        for path in paths:
            try:
                lib = ctypes.CDLL(path)  # already loaded by the package: same handle
            except OSError:  # pragma: no cover - unreadable library
                continue
            for suffix in ("64_", ""):
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    runtimes.append((get, put))
                    break
    return runtimes


class _ThreadpoolctlPool:
    name = "threadpoolctl"

    def begin(self, n: int) -> None:
        # The first limiter remembers every runtime's count from before.
        self._first = _threadpool_limits(limits=n)

    def set(self, n: int) -> None:
        _threadpool_limits(limits=n)

    def end(self) -> None:
        self._first.restore_original_limits()


class _OpenBLASPool:
    name = "openblas"

    def __init__(self, runtimes):
        self._runtimes = runtimes

    def begin(self, n: int) -> None:
        self._saved = [int(get()) for get, _ in self._runtimes]
        self.set(n)

    def set(self, n: int) -> None:
        for _, put in self._runtimes:
            put(n)

    def end(self) -> None:
        for (_, put), n in zip(self._runtimes, self._saved):
            put(n)


class _EnvPool:
    name = "env"

    def begin(self, n: int) -> None:
        self._saved = {var: os.environ.get(var) for var in BLAS_ENV_VARS}
        self.set(n)

    def set(self, n: int) -> None:
        for var in BLAS_ENV_VARS:
            os.environ[var] = str(n)

    def end(self) -> None:
        for var, value in self._saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def _pool():
    if HAVE_THREADPOOLCTL:
        return _ThreadpoolctlPool()
    openblas = bundled_openblas()
    if openblas:
        return _OpenBLASPool(openblas)
    return _EnvPool()


def blas_mechanism() -> str:
    """How :func:`blas_thread_limit` reaches the pool here:
    ``"threadpoolctl"``, ``"openblas"`` (live) or ``"env"``."""
    return _pool().name


def live_blas_budget() -> bool:
    """True when a limit reaches the already-loaded BLAS pool."""
    return blas_mechanism() != "env"


def current_blas_threads() -> Optional[int]:
    """The live BLAS thread count, or ``None`` when it cannot be read.

    Read from the first bundled OpenBLAS when present (whatever mechanism
    set it), else from threadpoolctl's report of the BLAS runtimes.
    """
    openblas = bundled_openblas()
    if openblas:
        return int(openblas[0][0]())
    if HAVE_THREADPOOLCTL:  # pragma: no cover - NumPy with another BLAS
        counts = [i["num_threads"] for i in _threadpool_info()
                  if i.get("user_api") == "blas"]
        return max(counts) if counts else None
    return None  # pragma: no cover


# ---------------------------------------------------------------------------
# the process-wide ledger of budget scopes
# ---------------------------------------------------------------------------

class _Ledger:
    def __init__(self):
        self.lock = threading.Lock()
        self.limits: List[int] = []  # one entry per open scope
        self.pool = None  # mechanism that saved the pre-scope state
        self.applied: Optional[int] = None

    def enter(self, limit: int) -> None:
        with self.lock:
            if not self.limits:
                self.pool = _pool()
                self.pool.begin(limit)
                self.applied = limit
            self.limits.append(limit)
            self._apply()

    def exit(self, limit: int) -> None:
        with self.lock:
            if limit not in self.limits:
                return  # opened before this process forked: not ours
            self.limits.remove(limit)
            if self.limits:
                self._apply()
                return
            pool, self.pool, self.applied = self.pool, None, None
            pool.end()

    def _apply(self) -> None:
        smallest = min(self.limits)
        if smallest != self.applied:
            self.pool.set(smallest)
            self.applied = smallest


_LEDGER = _Ledger()


def _reset_in_child() -> None:
    # A forked child inherits its parent's open scopes, which never exit
    # there, and possibly held locks; it starts with an empty ledger over
    # the pool count it inherited.
    global _LEDGER, _MEASURE_LOCK
    _LEDGER = _Ledger()
    _MEASURE_LOCK = threading.Lock()


class BlasThreadLimit:
    """One budget scope: a context manager, or held across an owner's life.

    Entering registers ``limit`` with the process-wide ledger; exiting
    withdraws it.  ``None`` is a no-op scope.
    """

    def __init__(self, limit: Optional[int]):
        if limit is not None:
            limit = int(limit)
            if limit < 1:
                raise ConfigurationError(f"BLAS thread limit must be >= 1, got {limit}")
        self.limit = limit
        self._open = False

    def __enter__(self) -> "BlasThreadLimit":
        if self._open:
            raise ConfigurationError("a BLAS thread limit scope is not re-entrant")
        if self.limit is not None:
            _LEDGER.enter(self.limit)
        self._open = True
        return self

    def __exit__(self, *exc) -> None:
        if not self._open:
            return
        self._open = False
        if self.limit is not None:
            _LEDGER.exit(self.limit)


def blas_thread_limit(limit: Optional[int]) -> BlasThreadLimit:
    """Cap the process-wide BLAS pools at ``limit`` threads inside the block.

    ``None`` is a no-op (leave the runtime's own default in place).  With
    threadpoolctl or the bundled OpenBLAS the cap applies to the live
    pool; the environment-variable route is best-effort (it only steers
    pools created after the variables are set).  Either way the previous
    state is restored when the last overlapping scope exits.
    """
    return BlasThreadLimit(limit)


@contextmanager
def pinned_blas_env(limit: Optional[int]) -> Iterator[None]:
    """Pin the BLAS env knobs inside the block (restored after).

    For starting child processes: spawn-method children import NumPy
    fresh, so the variables must be in the environment *before*
    ``Process.start()``.  Fork children inherit the parent's live pool
    instead, and workers hold their own :func:`blas_thread_limit`.
    """
    if limit is None:
        yield
        return
    env = _EnvPool()
    env.begin(int(limit))
    try:
        yield
    finally:
        env.end()


# ---------------------------------------------------------------------------
# a measured thread count
# ---------------------------------------------------------------------------

#: More BLAS threads must run a step this much faster to be chosen.  On a
#: shared host a second thread's gain is small when its core is idle and
#: a loss of two to four times when it is not.
BLAS_TOLERANCE = 0.10

#: Timed runs per measurement, after one warm-up.
TIMING_REPEATS = 3


def median_wall_seconds(run: Callable[[], None]) -> float:
    """Median of :data:`TIMING_REPEATS` wall-clock runs of ``run``.

    One warm-up run comes first and is not timed.

    The median, not the best: with more BLAS threads than suit a step,
    its time is bimodal (an occasional run is as fast as at one thread,
    most are two to four times slower), and the best run hides that.
    """
    run()
    times = []
    for _ in range(TIMING_REPEATS):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def sweep_blas_threads(run: Callable[[], None]):
    """Time ``run`` at each BLAS thread count of the host's ladder.

    :func:`~repro.runtime.autotune.autotune_threads` over 1, 2, 4, …,
    cores, each count scoped with :func:`blas_thread_limit` and evaluated
    by :func:`median_wall_seconds`; the fewest threads within
    :data:`BLAS_TOLERANCE` of the fastest win.  Returns the
    :class:`~repro.runtime.autotune.TuningResult`.
    """
    from repro.phi.spec import XEON_E5620
    from repro.runtime.autotune import autotune_threads

    # autotune_threads reads only the ladder bounds (cores, max threads).
    host = dataclasses.replace(
        XEON_E5620, name="host", n_cores=available_cores(), threads_per_core=1
    )

    def evaluate(n_threads: int) -> float:
        with blas_thread_limit(n_threads):
            return median_wall_seconds(run)

    return autotune_threads(evaluate, host, refine=False, tolerance=BLAS_TOLERANCE)


_MEASURED: Dict[Hashable, Optional[int]] = {}
_MEASURE_LOCK = threading.Lock()

if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_in_child)


def measured_blas_threads(
    key: Hashable, make_run: Callable[[], Optional[Callable[[], None]]]
) -> Optional[int]:
    """The fastest BLAS thread count for the step behind ``key``.

    Measured once per process per ``key`` with :func:`sweep_blas_threads`
    and cached, so every later run with the same key uses the same count
    (a reduction's last bit may depend on it).  ``make_run`` returns a
    zero-argument callable that performs one step on a disposable copy,
    or ``None`` when the step cannot be copied.  ``None`` — leave the
    pool alone — also comes back on a single core and when no live
    mechanism exists.
    """
    with _MEASURE_LOCK:
        if key in _MEASURED:
            return _MEASURED[key]
        count = None
        if available_cores() > 1 and live_blas_budget():
            run = make_run()
            if run is not None:
                count = sweep_blas_threads(run).best_threads
        _MEASURED[key] = count
        return count
