"""Thread-count auto-tuning (paper future work #1).

"For now, we need to adjust the number of threads manually in our
implementation" — this module removes that: given a workload factory it
sweeps candidate thread counts on the simulated machine and picks the
fastest, with an optional golden-section-style refinement over the
power-of-two ladder.

More threads are not always better: below ~1 batch row per thread the
GEMMs starve and the barriers grow, which is exactly the non-monotone
landscape the tuner exists for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.phi.spec import MachineSpec


@dataclass(frozen=True)
class TuningSample:
    """One evaluated configuration."""

    n_threads: int
    seconds: float


@dataclass
class TuningResult:
    """Outcome of an auto-tuning sweep."""

    best_threads: int
    best_seconds: float
    samples: List[TuningSample] = field(default_factory=list)

    @property
    def speedup_vs_worst(self) -> float:
        worst = max(s.seconds for s in self.samples)
        return worst / self.best_seconds if self.best_seconds > 0 else float("inf")


def default_thread_ladder(spec: MachineSpec) -> List[int]:
    """Candidate thread counts: powers of two up to the machine's limit,
    plus one-per-core and the full SMT count."""
    ladder = []
    t = 1
    while t < spec.max_threads:
        ladder.append(t)
        t *= 2
    for extra in (spec.n_cores, spec.max_threads):
        if extra not in ladder:
            ladder.append(extra)
    return sorted(set(ladder))


def autotune_threads(
    evaluate: Callable[[int], float],
    spec: MachineSpec,
    candidates: Optional[Sequence[int]] = None,
    refine: bool = True,
    tolerance: float = 0.0,
) -> TuningResult:
    """Pick the thread count minimising ``evaluate(n_threads)``.

    Parameters
    ----------
    evaluate:
        Maps a thread count to seconds: simulated (deterministic), or
        measured on the wall clock.
    candidates:
        Thread counts to try; defaults to :func:`default_thread_ladder`.
    refine:
        After the sweep, probe the midpoints between the winner and its
        ladder neighbours (cheap local refinement).
    tolerance:
        Pick the *fewest* threads whose time is within ``1 + tolerance``
        of the fastest, so more threads must win by a margin — what a
        noisy wall-clock evaluation needs.  ``0`` keeps the fastest.
    """
    if tolerance < 0:
        raise ConfigurationError(f"tolerance must be >= 0, got {tolerance}")
    ladder = list(candidates) if candidates is not None else default_thread_ladder(spec)
    if not ladder:
        raise ConfigurationError("no candidate thread counts to evaluate")
    if any(t < 1 or t > spec.max_threads for t in ladder):
        raise ConfigurationError(
            f"candidates must lie in [1, {spec.max_threads}]: {ladder}"
        )
    ladder = sorted(set(int(t) for t in ladder))
    samples = [TuningSample(t, float(evaluate(t))) for t in ladder]
    best = min(samples, key=lambda s: s.seconds)

    if refine:
        idx = ladder.index(best.n_threads)
        probes = set()
        if idx > 0:
            probes.add((ladder[idx - 1] + ladder[idx]) // 2)
        if idx + 1 < len(ladder):
            probes.add((ladder[idx] + ladder[idx + 1]) // 2)
        for t in sorted(probes - set(ladder)):
            if 1 <= t <= spec.max_threads:
                sample = TuningSample(t, float(evaluate(t)))
                samples.append(sample)
                if sample.seconds < best.seconds:
                    best = sample

    if tolerance > 0:
        near = [s for s in samples if s.seconds <= best.seconds * (1.0 + tolerance)]
        best = min(near, key=lambda s: s.n_threads)

    return TuningResult(
        best_threads=best.n_threads, best_seconds=best.seconds, samples=samples
    )


def autotune_training_config(config, trainer_cls, **tune_kwargs) -> TuningResult:
    """Auto-tune a :class:`~repro.core.config.TrainingConfig`'s thread count.

    Builds a trainer per candidate with the backend pinned to that many
    software threads and compares simulated totals.
    """
    backend = config.effective_backend

    def evaluate(n_threads: int) -> float:
        pinned = config.with_backend(backend.with_threads(n_threads))
        return trainer_cls(pinned).simulate().simulated_seconds

    return autotune_threads(evaluate, config.machine, **tune_kwargs)
