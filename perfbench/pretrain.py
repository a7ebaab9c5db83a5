"""Pre-training workloads: greedy layer-wise SAE and DBN on the wall clock.

One repetition pre-trains a fresh 1024-512-256 stack on the seed's
inputs for a fixed number of epochs, so its final loss is a pure
function of the seed; the run repeats it until its time is spent.  Each
repetition starts its own engine from ``make_engine("auto")`` (engine
start is set-up, not training time) and closes it afterwards.
"""

from __future__ import annotations

import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from repro.train.callbacks import TrainingCallback

from perfbench import inputs, layers
from perfbench.meta import describe_engine
from perfbench.report import Result, peak_rss_mb
from perfbench.stats import percentile, summary
from perfbench.tracing import Tracer

N_INPUTS = inputs.N_INPUTS
HIDDEN = (512, 256)
BATCH_SIZE = 100
LEARNING_RATE = 0.1
SETUP_REPEATS = 5
#: p90 keeps at least ten step samples beyond it from ~100 steps up.
STEP_TAIL_Q = 90.0
#: the engine path's parallel-vs-serial equivalence bound
ENGINE_TOL = 1e-10


@dataclass(frozen=True)
class PretrainWorkload:
    name: str
    kind: str  # "sae" or "dbn"
    n_examples: int
    epochs: Tuple[int, ...]  # per layer of HIDDEN
    chunk_examples: Optional[int] = None
    checkpoint: bool = False
    auto_engine: bool = False

    @property
    def examples_per_rep(self) -> int:
        # one example counts once per layer it trains
        return self.n_examples * sum(self.epochs)


def make_inputs(w: PretrainWorkload, seed: int):
    """Whitened patches for the autoencoder, squashed ones for the RBMs."""
    if w.kind == "sae":
        return inputs.whitened(w.n_examples, seed)
    return inputs.squashed(w.n_examples, seed)


def build_stack(w: PretrainWorkload, seed: int):
    from repro.nn.cost import SparseAutoencoderCost
    from repro.nn.stacked import DeepBeliefNetwork, LayerSpec, StackedAutoencoder

    specs = [
        LayerSpec(h, learning_rate=LEARNING_RATE, epochs=e, batch_size=BATCH_SIZE)
        for h, e in zip(HIDDEN, w.epochs)
    ]
    if w.kind == "sae":
        cost = SparseAutoencoderCost(sparsity_target=0.05, sparsity_weight=3.0)
        return StackedAutoencoder(N_INPUTS, specs, cost=cost, seed=seed)
    return DeepBeliefNetwork(N_INPUTS, specs, seed=seed)


def start_engine(w: PretrainWorkload, seed: int):
    """The engine a user gets: ``make_engine("auto")``, never overridden."""
    if not w.auto_engine:
        return None
    from repro.runtime.procexec import make_engine

    return make_engine("auto", problem_size=BATCH_SIZE * N_INPUTS, seed=seed)


class StepClock(TrainingCallback):
    """Wall time between consecutive updates, plus the program's own
    per-phase split of each update."""

    def __init__(self):
        self.last: Optional[float] = None
        self.intervals: List[float] = []
        self.phases: List[object] = []  # PhaseTimings of updates 2..n

    def on_update(self, event) -> None:
        now = time.perf_counter()
        if self.last is not None:
            self.intervals.append(now - self.last)
            self.phases.append(event.timings)
        self.last = now


@dataclass
class Rep:
    train_s: float
    updates: int
    intervals: List[float]
    phases: List[object]
    final_loss: float


def run_rep(w: PretrainWorkload, x, seed: int, workdir: Path, engine,
            chunked: bool = True, checkpointed: bool = True) -> Rep:
    """Pre-train one fresh stack; ``engine`` is borrowed."""
    from repro.runtime.checkpoint import CheckpointStore
    from repro.train.loop import ChunkSchedule

    stack = build_stack(w, seed)
    chunks = (
        ChunkSchedule(w.chunk_examples)
        if chunked and w.chunk_examples else None
    )
    store = None
    ckpt_dir = workdir / "ckpt"
    if checkpointed and w.checkpoint:
        store = CheckpointStore(ckpt_dir)
    clock = StepClock()
    t0 = time.perf_counter()
    stack.pretrain(x, engine=engine, chunks=chunks, checkpoint=store,
                   callbacks=[clock])
    train_s = time.perf_counter() - t0
    if store is not None:
        shutil.rmtree(ckpt_dir, ignore_errors=True)
    return Rep(train_s, len(clock.intervals) + 1, clock.intervals,
               clock.phases, float(stack.layer_errors[-1][-1]))


def measure(w: PretrainWorkload, x, seed: int, seconds: float,
            workdir: Path) -> List[Rep]:
    """Repeat the pre-training until ``seconds`` have passed (at least once)."""
    reps: List[Rep] = []
    t_start = time.perf_counter()
    while not reps or time.perf_counter() - t_start < seconds:
        engine = start_engine(w, seed)
        try:
            reps.append(run_rep(w, x, seed, workdir, engine))
        finally:
            if engine is not None:
                engine.close()
    return reps


def setup(w: PretrainWorkload, seed: int, workdir: Path):
    """Data generation, model build, engine start and checkpoint dir.

    Returns the inputs, the set-up seconds, the engine start seconds and
    the engine description.
    """
    t0 = time.perf_counter()
    x = make_inputs(w, seed)
    build_stack(w, seed)
    e0 = time.perf_counter()
    engine = start_engine(w, seed)
    engine_s = time.perf_counter() - e0
    if w.checkpoint:
        (workdir / "ckpt").mkdir(parents=True, exist_ok=True)
    setup_s = time.perf_counter() - t0
    desc = describe_engine(engine)
    if engine is not None:
        engine.close()
    return x, setup_s, engine_s, desc


def _reference_loss(w: PretrainWorkload, x, seed: int, workdir: Path,
                    desc: dict) -> Tuple[float, float, str]:
    """The seed's reference final loss, the tolerance it must be met to,
    and how it was computed.

    The serial path must reproduce bit for bit without chunk staging or
    checkpoints.  An engine path is checked against the thread engine at
    the same worker count and seed, which draws the same per-worker
    random streams, to the engines' 1e-10 equivalence bound.
    """
    if desc["engine"] == "serial":
        rep = run_rep(w, x, seed, workdir, None, chunked=False, checkpointed=False)
        return rep.final_loss, 0.0, "serial, unchunked, no checkpoint"
    from repro.runtime.executor import ParallelGradientEngine

    with ParallelGradientEngine(n_workers=desc["engine_workers"], seed=seed) as ref:
        rep = run_rep(w, x, seed, workdir, ref, chunked=False, checkpointed=False)
    return (rep.final_loss, ENGINE_TOL,
            f"ParallelGradientEngine(n_workers={desc['engine_workers']})")


def _step_metrics(result: Result, reps: List[Rep], examples_per_rep: int) -> None:
    """Throughput and the typical step are medians over repetitions.

    A step's wall time is bimodal here: with the default OpenBLAS
    threads about half the SAE steps take two to five times the rest,
    and the share changes from run to run, so the median of single
    steps jumps between the two modes.  Each repetition's mean step is
    steady, and the median over repetitions discards slow ones.  The
    p90 pools every step.
    """
    rates = [examples_per_rep / r.train_s for r in reps]
    mean_steps = [sum(r.intervals) / len(r.intervals) * 1e3 for r in reps]
    steps_ms = [v * 1e3 for r in reps for v in r.intervals]
    tail = summary(steps_ms, STEP_TAIL_Q)
    result.put("work_per_s", percentile(rates, 50.0), "1/s")
    result.note("train_samples_per_s", percentile(rates, 50.0), "samples/s",
                n=len(reps), why="median over repetitions; one example counts "
                                  "once per layer it trains")
    result.put("p50_ms", percentile(mean_steps, 50.0), "ms")
    result.note("step_ms_p50", percentile(mean_steps, 50.0), "ms", n=len(reps),
                why="median over repetitions of each one's mean step")
    result.note("step_ms_single_p50", percentile(steps_ms, 50.0), "ms", n=tail["n"],
                why="median of single steps, bimodal (not bounded)")
    result.put("p90_ms", tail["tail"], "ms")
    result.note("step_ms_p90", tail["tail"], "ms", n=tail["n"],
                why="" if tail["tail_supported"] else "fewer than 10 samples beyond")


def run(w: PretrainWorkload, seed: int, seconds: float, trace: bool,
        workdir: Path, trace_path: Path) -> Result:
    result = Result()
    setups = [setup(w, seed, workdir) for _ in range(SETUP_REPEATS)]
    x, _, _, desc = setups[-1]
    result.meta.update(desc)
    setup_times = [s[1] for s in setups]

    reps = measure(w, x, seed, seconds, workdir)
    ref_loss, tol, how = _reference_loss(w, x, seed, workdir, desc)

    losses = [r.final_loss for r in reps]
    bad = [
        i for i, loss in enumerate(losses)
        if not math.isfinite(loss) or abs(loss - ref_loss) > tol
    ]
    result.attempted = len(reps)
    result.failed = len(bad)
    result.check("final_loss_finite", all(math.isfinite(v) for v in losses))
    result.check("repetitions_identical", len(set(losses)) == 1,
                 f"{len(reps)} repetitions")
    result.check(
        "final_loss_matches_reference",
        not bad,
        f"{losses[0]!r} vs {ref_loss!r} (tolerance {tol}, reference: {how})",
    )

    result.put("setup_s", percentile(setup_times, 50.0), "s")
    result.note("setup_s", percentile(setup_times, 50.0), "s", n=len(setup_times))
    _step_metrics(result, reps, w.examples_per_rep)
    result.put("final_loss", losses[0], "loss")
    result.note("final_loss", losses[0], "loss", why="last block, last epoch")
    result.put("ok_share", (len(reps) - len(bad)) / len(reps), "share")

    if trace:
        _traced(w, x, seed, seconds, workdir, reps, setups, result, trace_path)
    result.put("peak_rss_mb", peak_rss_mb(), "MB")
    return result


# -- the traced run ----------------------------------------------------------

def _phase_metrics(result: Result, reps: List[Rep]) -> None:
    """The program's Fig. 5 split of each update, plus what is left of
    the step: loop, events, callbacks, epoch metric and checkpoint."""
    load = compute = apply = total = 0.0
    n = 0
    for rep in reps:
        for interval, ph in zip(rep.intervals, rep.phases):
            load += ph.load_s
            compute += ph.compute_s + ph.reduce_s
            apply += ph.apply_s
            total += interval
            n += 1
    other = total - load - compute - apply
    for name, value in (("load", load), ("compute", compute),
                        ("apply", apply), ("other", other)):
        result.put(f"train.{name}_ms", value / n * 1e3, "ms")
        result.put(f"train.{name}_share", value / total, "share")


def _traced(w, x, seed, seconds, workdir, untraced, setups, result, trace_path):
    with Tracer() as tracer:
        layers.install(tracer)
        traced = measure(w, x, seed, seconds, workdir)
    tracer.dump(trace_path)

    _phase_metrics(result, untraced)
    spans = tracer.named
    pretrain_ids = {s.id for s in spans("nn.stack.pretrain")}
    engine_used = result.meta["engine"] != "serial"

    result.put("nn.sae.grad_ms", layers.median_ms(spans("nn.sae.grad")), "ms")
    result.put("nn.sae.apply_ms", layers.median_ms(spans("nn.sae.apply")), "ms")
    result.put("nn.rbm.cd_ms", layers.median_ms(spans("nn.rbm.cd")), "ms")
    result.put("nn.rbm.apply_ms", layers.median_ms(spans("nn.rbm.apply")), "ms")
    handoff = [s for s in spans("nn.sae.encode", "nn.rbm.transform")
               if s.parent in pretrain_ids]
    result.put("nn.stack.transform_ms", layers.median_ms(handoff), "ms")
    result.put("nn.sae.gflops", layers.gflops(spans("nn.sae.grad")), "GFLOP/s")
    # Behind an engine the CD kernels run in the workers: count them per
    # coordinator call instead.
    rbm_kernel = spans("engine.compute") if engine_used else spans("nn.rbm.cd")
    result.put("nn.rbm.gflops", layers.gflops(rbm_kernel), "GFLOP/s")

    waits = [s for s in spans("prefetch.wait") if s.args.get("chunk")]
    result.put("prefetch.wait_ms", layers.median_ms(waits), "ms")
    result.put("prefetch.chunks", len(waits) / len(traced), "count")

    if engine_used:
        result.put("engine.compute_ms", layers.median_ms(spans("engine.compute")), "ms")
        applies = spans("nn.sae.apply", "nn.rbm.apply")
        result.put("engine.apply_ms", layers.median_ms(applies), "ms")
        result.put("engine.start_s", percentile([s[2] for s in setups], 50.0), "s")
        base = run_rep(w, x, seed, workdir, None)
        per_update = sum(r.train_s for r in untraced) / sum(r.updates for r in untraced)
        speedup = (base.train_s / base.updates) / per_update
        result.put("engine.speedup_vs_serial", speedup, "x")
        result.note("engine.speedup_vs_serial", speedup, "x",
                    why="a serial repetition (engine=None) of the same run, per "
                        "update, over the auto engine's")

    saves = spans("checkpoint.save")
    result.put("checkpoint.save_ms", layers.median_ms(saves), "ms")
    sizes = [s.args["bytes"] for s in saves]
    result.put("checkpoint.bytes", percentile(sizes, 50.0) if sizes else 0.0, "B")

    def rate(reps):
        return sum(r.updates for r in reps) / sum(r.train_s for r in reps)

    result.put("trace.overhead_pct", (rate(untraced) / rate(traced) - 1.0) * 100.0, "%")
    result.note("trace.spans", len(tracer.spans), "count", why=str(trace_path))
