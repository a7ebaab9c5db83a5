"""Parallel-runtime substrate.

Models the software stack the paper layers over the hardware: OpenMP-style
parallel loops, MKL-style BLAS, loop fusion, dependency-graph scheduling
(paper Fig. 6), and the double-buffered host→device offload pipeline
(paper Fig. 5).  Each optimization step of the paper's Table I corresponds
to an :class:`~repro.runtime.backend.ExecutionBackend` here.
"""

from repro.runtime.backend import (
    OptimizationLevel,
    ExecutionBackend,
    backend_for_level,
    matlab_backend,
    optimized_cpu_backend,
)
from repro.runtime.blas import (
    mkl_gemm_efficiency,
    naive_gemm_traffic,
    gemm_time_components,
)
from repro.runtime.parallel_for import ParallelForTiming, simulate_parallel_for
from repro.runtime.taskgraph import TaskGraph, TaskNode, rbm_cd1_taskgraph
from repro.runtime.fusion import fuse_elementwise, fusion_savings
from repro.runtime.offload import OffloadPipeline, OffloadTimeline, ChunkEvent
from repro.runtime.schedule import (
    Schedule,
    ScheduledTask,
    list_schedule,
    makespan_lower_bound,
)
from repro.runtime.autotune import (
    TuningResult,
    TuningSample,
    autotune_threads,
    autotune_training_config,
    default_thread_ladder,
)
from repro.runtime.distributed import (
    DataParallelPoint,
    scaling_rows,
    simulate_data_parallel,
)
from repro.runtime.workspace import Workspace, WorkspaceFrozenError, WorkspaceThreadError
from repro.runtime.threads import (
    HAVE_THREADPOOLCTL,
    available_cores,
    blas_mechanism,
    blas_thread_limit,
    current_blas_threads,
    measured_blas_threads,
    recommended_blas_threads,
)
from repro.runtime.executor import (
    ChunkPrefetcher,
    ExecutorClosedError,
    ParallelGradientEngine,
    PrefetchError,
)
from repro.runtime.procexec import (
    EngineError,
    ProcessGradientEngine,
    SHM_PREFIX,
    make_engine,
    process_engine_available,
)
from repro.runtime.freethreading import (
    free_threaded_build,
    free_threading_report,
    gil_enabled,
)
from repro.runtime.checkpoint import (
    CheckpointError,
    CheckpointStore,
    atomic_save_npz,
    capture_rng,
    load_npz,
    restore_rng,
    require_shard_count,
    resolve_resume_path,
    retry_transient,
)

__all__ = [
    "OptimizationLevel",
    "ExecutionBackend",
    "backend_for_level",
    "matlab_backend",
    "optimized_cpu_backend",
    "mkl_gemm_efficiency",
    "naive_gemm_traffic",
    "gemm_time_components",
    "ParallelForTiming",
    "simulate_parallel_for",
    "TaskGraph",
    "TaskNode",
    "rbm_cd1_taskgraph",
    "fuse_elementwise",
    "fusion_savings",
    "OffloadPipeline",
    "OffloadTimeline",
    "ChunkEvent",
    "Schedule",
    "ScheduledTask",
    "list_schedule",
    "makespan_lower_bound",
    "TuningResult",
    "TuningSample",
    "autotune_threads",
    "autotune_training_config",
    "default_thread_ladder",
    "DataParallelPoint",
    "simulate_data_parallel",
    "scaling_rows",
    "Workspace",
    "WorkspaceFrozenError",
    "WorkspaceThreadError",
    "HAVE_THREADPOOLCTL",
    "available_cores",
    "blas_mechanism",
    "blas_thread_limit",
    "current_blas_threads",
    "measured_blas_threads",
    "recommended_blas_threads",
    "ChunkPrefetcher",
    "ExecutorClosedError",
    "ParallelGradientEngine",
    "PrefetchError",
    "EngineError",
    "ProcessGradientEngine",
    "SHM_PREFIX",
    "make_engine",
    "process_engine_available",
    "free_threaded_build",
    "free_threading_report",
    "gil_enabled",
    "CheckpointError",
    "CheckpointStore",
    "atomic_save_npz",
    "capture_rng",
    "load_npz",
    "restore_rng",
    "require_shard_count",
    "resolve_resume_path",
    "retry_transient",
]
