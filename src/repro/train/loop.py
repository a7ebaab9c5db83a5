"""The one epoch/batch training loop (paper Fig. 5, executable).

Every training path in the repository runs through :class:`TrainLoop`:
the functional greedy stacks and supervised fine-tuning of
:mod:`repro.nn`, and the simulated+functional trainers of
:mod:`repro.core` (which charge simulated machine time from the same
loop events).  The loop owns:

* epoch iteration and mini-batch shuffling (:mod:`repro.train.batches`
  — exactly one ``permutation`` draw per epoch);
* execution dispatch — serial, data-parallel through a
  :class:`~repro.runtime.executor.ParallelGradientEngine`, and
  chunk-staged through a :class:`~repro.runtime.executor.ChunkPrefetcher`
  (the paper's "training thread uses chunk i−1 while the loading thread
  stages chunk i"), in any combination;
* the structured event bus (:mod:`repro.train.events`) with per-phase
  wall timing (load / compute / reduce / apply) feeding the callback
  surface (:mod:`repro.train.callbacks`);
* checkpoint hooks and the replayable :class:`EventLog` that makes a
  resumed run's recorded history equal an uninterrupted run's;
* the serial path's BLAS thread budget: a count measured on a twin of
  the step (:meth:`TrainStep.blas_twin`), held while the run trains.

Models plug in through a :class:`TrainStep` adapter that supplies the
per-model kernels (gradient compute, parameter apply, engine variants,
optional simulated-time charge); the adapters are deliberately loop-free
so a grep for ``permutation`` or ``for epoch`` finds exactly one
training loop in the codebase — this one.

Determinism: the loop draws RNG values in exactly the order the historic
per-module loops did (one permutation per epoch, then whatever the
step's kernels draw, batch by batch), so refactored paths are
bit-identical to their pre-:mod:`repro.train` behaviour at a fixed seed,
and chunked staging with ``chunk_examples`` a multiple of ``batch_size``
is bit-identical to unchunked iteration.
"""

from __future__ import annotations

import copy
import time
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable, Hashable, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.runtime.threads import blas_thread_limit, measured_blas_threads
from repro.train.batches import batch_bounds, epoch_order
from repro.train.callbacks import CallbackList, as_callback_list
from repro.train.events import EpochEvent, LayerEvent, PhaseTimings, UpdateEvent


class TrainStep:
    """Per-model kernels for the unified loop.

    Subclasses provide the data access and the serial (and optionally
    parallel-engine) kernels of one model; the loop supplies iteration,
    shuffling, dispatch, events, and checkpoint hooks.  A ``batch`` is
    whatever :meth:`load` returns — an array, or a tuple of aligned
    arrays for supervised steps.
    """

    #: label used in error messages
    kind: str = "model"

    # -- data access -----------------------------------------------------
    def n_examples(self) -> int:
        raise NotImplementedError

    def load(self, idx: np.ndarray):
        """Gather the rows of ``idx`` (the loop's *load* phase)."""
        raise NotImplementedError

    def rows(self, batch) -> int:
        if isinstance(batch, tuple):
            return int(batch[0].shape[0])
        return int(batch.shape[0])

    def narrow(self, batch, lo: int, hi: int):
        """A contiguous sub-batch view (chunked staging mode)."""
        if isinstance(batch, tuple):
            return tuple(part[lo:hi] for part in batch)
        return batch[lo:hi]

    # -- serial kernels --------------------------------------------------
    def compute(self, batch):
        """Gradient computation; returns ``(loss, state)``."""
        raise NotImplementedError

    def apply(self, state) -> None:
        """Synchronized parameter update from :meth:`compute`'s state."""
        raise NotImplementedError

    # -- parallel-engine kernels -----------------------------------------
    def engine_compute(self, engine, batch):
        raise ConfigurationError(
            f"{self.kind} step has no parallel-engine kernels"
        )

    def engine_apply(self, engine, state) -> None:
        raise ConfigurationError(
            f"{self.kind} step has no parallel-engine kernels"
        )

    # -- measured BLAS thread count (serial path) --------------------------
    def blas_twin(self) -> Optional["TrainStep"]:
        """A disposable copy whose ``compute``/``apply`` the loop may time.

        The serial path trains at the BLAS thread count that runs this
        step fastest, measured once per process per :meth:`shape_key` on
        a twin, so the real model, RNG and workspace are untouched (see
        :func:`twin_of`).  ``None``, the default, opts out: the pool is
        left as it is.
        """
        return None

    def shape_key(self, batch) -> Hashable:
        """The key the measured thread count is cached under."""
        parts = batch if isinstance(batch, tuple) else (batch,)
        return (type(self).__qualname__,) + tuple(p.shape for p in parts)

    # -- clock + metric --------------------------------------------------
    def charge(self, n_rows: int) -> float:
        """Simulated seconds for one update (0.0 outside :mod:`repro.core`)."""
        return 0.0

    def epoch_metric(self, epoch_losses: Sequence[float]) -> float:
        """The epoch's summary metric; default: mean per-update loss.

        Summed sequentially (not ``np.mean``'s pairwise order) to stay
        bit-identical to the historical ``epoch_err += ...`` loops.
        """
        if not epoch_losses:
            return float("nan")
        total = 0.0
        for value in epoch_losses:
            total += value
        return total / len(epoch_losses)


def twin_of(step: TrainStep, shared: Sequence[np.ndarray], workspace) -> TrainStep:
    """A deep copy of ``step`` for :meth:`TrainStep.blas_twin`.

    The ``shared`` arrays (read-only training data) are not copied, and
    the twin gets an empty workspace in place of ``workspace``.
    """
    from repro.runtime.workspace import Workspace

    memo = {id(a): a for a in shared}
    memo[id(workspace)] = Workspace(name=f"{workspace.name}.twin")
    return copy.deepcopy(step, memo)


@dataclass(frozen=True)
class ChunkSchedule:
    """Chunk-staged data delivery for one run (paper Fig. 5).

    ``chunk_examples`` must be a multiple of the batch size so chunk
    boundaries align with batch boundaries — that alignment is what makes
    chunked iteration bit-identical to unchunked iteration at the same
    seed.  ``n_buffers`` bounds the staging pool exactly like the
    simulated :class:`~repro.runtime.offload.OffloadPipeline` slot rule;
    ``retries`` absorbs transient loader faults with exponential backoff.
    """

    chunk_examples: int
    n_buffers: int = 2
    retries: int = 0
    retry_backoff_s: float = 0.02

    def __post_init__(self):
        if self.chunk_examples < 1:
            raise ConfigurationError(
                f"chunk_examples must be >= 1, got {self.chunk_examples}"
            )
        if self.n_buffers < 1:
            raise ConfigurationError(
                f"n_buffers must be >= 1, got {self.n_buffers}"
            )


# Event-log array encoding: one float64 row [kind, i1, i2, value, sim] per
# event, preserving chronological interleaving across layers.
_EV_UPDATE, _EV_EPOCH, _EV_LAYER = 0.0, 1.0, 2.0
EVENT_LOG_KEY = "evlog"


class EventLog:
    """Replayable record of every event a run emitted.

    Persisted inside training checkpoints (as a compact float64 array
    under ``EVENT_LOG_KEY``) and replayed through the callbacks on
    resume, so :class:`~repro.train.callbacks.History` and
    :class:`~repro.train.callbacks.EarlyStopping` state survive a crash.
    Wall-clock phase timings are *not* persisted — replayed events carry
    ``timings=None``, which the event dataclasses exclude from equality.
    """

    def __init__(self):
        self.events: List[object] = []

    def __len__(self) -> int:
        return len(self.events)

    def add(self, event) -> None:
        self.events.append(event)

    @property
    def updates(self) -> List[UpdateEvent]:
        return [e for e in self.events if isinstance(e, UpdateEvent)]

    @property
    def epochs(self) -> List[EpochEvent]:
        return [e for e in self.events if isinstance(e, EpochEvent)]

    @property
    def layers(self) -> List[LayerEvent]:
        return [e for e in self.events if isinstance(e, LayerEvent)]

    def last_step(self) -> int:
        for event in reversed(self.events):
            if isinstance(event, UpdateEvent):
                return event.step
        return 0

    def last_simulated_seconds(self) -> float:
        if not self.events:
            return 0.0
        return float(self.events[-1].simulated_seconds)

    def replay_into(self, monitor: CallbackList) -> None:
        """Re-fire every recorded event, in order, into ``monitor``."""
        for event in self.events:
            if isinstance(event, UpdateEvent):
                monitor.on_update(event)
            elif isinstance(event, EpochEvent):
                monitor.on_epoch(event)
            else:
                monitor.on_layer(event)

    # -- checkpoint (de)serialisation ------------------------------------
    def to_array(self) -> np.ndarray:
        rows = np.empty((len(self.events), 5), dtype=np.float64)
        for i, event in enumerate(self.events):
            if isinstance(event, UpdateEvent):
                rows[i] = (_EV_UPDATE, event.step, event.epoch, event.loss,
                           event.simulated_seconds)
            elif isinstance(event, EpochEvent):
                rows[i] = (_EV_EPOCH, event.epoch, 0.0, event.metric,
                           event.simulated_seconds)
            else:
                rows[i] = (_EV_LAYER, event.layer, 0.0, event.metric,
                           event.simulated_seconds)
        return rows

    @classmethod
    def from_array(cls, rows: Optional[np.ndarray]) -> "EventLog":
        """Decode :meth:`to_array` output; ``None`` (legacy checkpoints
        that predate event logging) yields an empty log."""
        log = cls()
        if rows is None:
            return log
        for kind, i1, i2, value, sim in np.asarray(rows, dtype=np.float64):
            if kind == _EV_UPDATE:
                log.add(UpdateEvent(int(i1), int(i2), float(value), float(sim)))
            elif kind == _EV_EPOCH:
                log.add(EpochEvent(int(i1), float(value), float(sim)))
            else:
                log.add(LayerEvent(int(i1), float(value), float(sim)))
        return log


class TrainLoop:
    """The runtime that owns epoch/batch iteration for one training run.

    One instance spans a whole run — all blocks of a greedy stack, or
    one fine-tuning session — so the global step counter, the simulated
    clock, and the event log are continuous across layers.

    Parameters
    ----------
    engine:
        Optional :class:`~repro.runtime.executor.ParallelGradientEngine`;
        present, every update runs the step's ``engine_*`` kernels
        (data-parallel compute + synchronized apply).  Borrowed, never
        closed.
    callbacks:
        ``None`` / a single :class:`~repro.train.callbacks.TrainingCallback`
        / a sequence — receives every event; any member may request a
        stop, which ends the current :meth:`run_epochs` call after the
        in-flight epoch's bookkeeping.
    clock:
        Wall-clock source for phase timings (tests inject a fake).
    """

    def __init__(self, *, engine=None, callbacks=None,
                 clock: Callable[[], float] = time.perf_counter):
        self.engine = engine
        # The loop owns its member list (internal recorders are appended
        # to it), so a caller's CallbackList is never mutated.
        self.monitor = CallbackList(as_callback_list(callbacks).callbacks)
        self._clock = clock
        self.log = EventLog()
        self.step_count = 0
        self.simulated_seconds = 0.0
        self.timings = PhaseTimings()  # cumulative per-phase wall seconds
        self._pending_budget: Optional[ExitStack] = None

    # ------------------------------------------------------------------
    # resume plumbing
    # ------------------------------------------------------------------
    def resume_from_log(self, log: EventLog) -> None:
        """Adopt a checkpointed event log: restore the step counter and
        simulated clock, and replay the history through the callbacks."""
        self.log = log
        self.step_count = log.last_step()
        self.simulated_seconds = log.last_simulated_seconds()
        log.replay_into(self.monitor)

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def run_epochs(
        self,
        step: TrainStep,
        *,
        epochs: int,
        batch_size: int,
        rng: np.random.Generator,
        start_epoch: int = 0,
        metrics: Optional[List[float]] = None,
        epoch_end: Optional[Callable[[int, List[float]], None]] = None,
        chunks: Optional[ChunkSchedule] = None,
    ) -> List[float]:
        """Train ``step`` for ``epochs - start_epoch`` epochs.

        Per epoch: one permutation draw, shuffled contiguous mini-batches
        (optionally staged chunk-by-chunk through a background
        :class:`~repro.runtime.executor.ChunkPrefetcher`), an
        :class:`~repro.train.events.UpdateEvent` per parameter update,
        then the step's epoch metric, an
        :class:`~repro.train.events.EpochEvent`, and the ``epoch_end``
        hook (checkpoint writers).  Returns ``metrics`` with one entry
        appended per epoch run (pass a pre-populated list when resuming).
        """
        if epochs < 1 or batch_size < 1:
            raise ConfigurationError("epochs and batch_size must be >= 1")
        if chunks is not None and chunks.chunk_examples % batch_size != 0:
            raise ConfigurationError(
                f"chunk_examples ({chunks.chunk_examples}) must be a multiple "
                f"of batch_size ({batch_size}) so chunked iteration stays "
                f"bit-identical to unchunked iteration"
            )
        metrics = metrics if metrics is not None else []
        n = step.n_examples()
        with ExitStack() as budget:
            # The serial path takes its measured BLAS budget at the first
            # update and holds it to the end of the call; an engine holds
            # its own.
            self._pending_budget = budget if self.engine is None else None
            for epoch in range(start_epoch, epochs):
                if self.monitor.stop_requested:
                    # e.g. a replayed EarlyStopping already asked to stop.
                    break
                losses: List[float] = []
                if chunks is None:
                    self._plain_epoch(step, epoch, n, batch_size, rng, losses)
                else:
                    self._chunked_epoch(step, epoch, n, batch_size, rng, chunks, losses)
                metric = float(step.epoch_metric(losses))
                metrics.append(metric)
                event = EpochEvent(epoch, metric, self.simulated_seconds)
                self.log.add(event)
                self.monitor.on_epoch(event)
                if epoch_end is not None:
                    epoch_end(epoch + 1, metrics)
                if self.monitor.stop_requested:
                    break
        return metrics

    def end_layer(self, layer: int, metric: float) -> LayerEvent:
        """Mark a greedy-stack building block complete (fires ``on_layer``)."""
        event = LayerEvent(int(layer), float(metric), self.simulated_seconds)
        self.log.add(event)
        self.monitor.on_layer(event)
        return event

    # ------------------------------------------------------------------
    def _plain_epoch(self, step, epoch, n, batch_size, rng, losses) -> None:
        order = epoch_order(n, rng)
        for lo, hi in batch_bounds(n, batch_size):
            t0 = self._clock()
            batch = step.load(order[lo:hi])
            load_s = self._clock() - t0
            losses.append(self._one_update(step, epoch, batch, load_s))
            if self.monitor.stop_requested:
                return

    def _chunked_epoch(self, step, epoch, n, batch_size, rng, chunks, losses) -> None:
        from repro.runtime.executor import ChunkPrefetcher

        order = epoch_order(n, rng)
        bounds = batch_bounds(n, chunks.chunk_examples)
        with ChunkPrefetcher(
            lambda c: step.load(order[bounds[c][0]:bounds[c][1]]),
            n_chunks=len(bounds),
            n_buffers=chunks.n_buffers,
            retries=chunks.retries,
            retry_backoff_s=chunks.retry_backoff_s,
        ) as prefetcher:
            for chunk in prefetcher:
                # Staging already happened on the loader thread; the
                # consumer-side load phase is the in-chunk narrow.
                for lo, hi in batch_bounds(step.rows(chunk), batch_size):
                    t0 = self._clock()
                    batch = step.narrow(chunk, lo, hi)
                    load_s = self._clock() - t0
                    losses.append(self._one_update(step, epoch, batch, load_s))
                    if self.monitor.stop_requested:
                        return

    def _hold_blas_budget(self, step, batch) -> None:
        budget, self._pending_budget = self._pending_budget, None

        def make_run():
            twin = step.blas_twin()
            if twin is None:
                return None
            return lambda: twin.apply(twin.compute(batch)[1])

        count = measured_blas_threads(step.shape_key(batch), make_run)
        budget.enter_context(blas_thread_limit(count))

    def _one_update(self, step, epoch, batch, load_s: float) -> float:
        if self._pending_budget is not None:
            self._hold_blas_budget(step, batch)
        t0 = self._clock()
        if self.engine is not None:
            loss, state = step.engine_compute(self.engine, batch)
        else:
            loss, state = step.compute(batch)
        t1 = self._clock()
        if self.engine is not None:
            step.engine_apply(self.engine, state)
        else:
            step.apply(state)
        t2 = self._clock()
        self.step_count += 1
        self.simulated_seconds += step.charge(step.rows(batch))
        # Engine-path gradient reduction happens inside engine_compute;
        # it is folded into compute_s (see PhaseTimings).
        timings = PhaseTimings(
            load_s=load_s, compute_s=t1 - t0, apply_s=t2 - t1
        )
        self.timings = self.timings + timings
        event = UpdateEvent(
            self.step_count, epoch, float(loss), self.simulated_seconds,
            timings=timings,
        )
        self.log.add(event)
        self.monitor.on_update(event)
        return float(loss)
