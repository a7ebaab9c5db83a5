"""Open-loop serving workloads: the cluster router and the shard router.

Set-up pre-trains a small 1024-512-256 autoencoder stack (the fixture),
builds the serving tier over it and generates the request schedules.
The tier runs on the wall clock: its ``now`` is wall seconds since the
phase began, and every replica charges a negligible constant service
time, so a request's latency is the program's own time (routing, cache,
micro-batcher wait, the real forward pass, gather) rather than the
simulated coprocessor's.

The measured phase offers Poisson arrivals at the workload's fixed rate
for the whole run and gives the latency percentiles, the capacity and
the answer checks.  The traced run adds a goodput ladder: a fixed list
of higher rates, each offered for a short step, where ``goodput`` is the
highest rate before the first step that misses the latency limit on
p99, exceeds the error budget or lets its backlog grow.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from perfbench import inputs, layers
from perfbench.meta import describe_engine
from perfbench.openloop import COMPLETED, SHED, UNANSWERED, backlog_growing, run_open_loop
from perfbench.report import Result, peak_rss_mb
from perfbench.stats import conserved, percentile, summary
from perfbench.tracing import Tracer

N_INPUTS = inputs.N_INPUTS
FIXTURE_EXAMPLES = 400
FIXTURE_SEED = 0
SETUP_REPEATS = 5
#: The tail the end-to-end metrics report.  p99 is reported too, as a
#: per-layer figure: on a 2-vCPU host its spread across seeds is several
#: times the largest regression bound (see README.md).
LATENCY_TAIL_Q = 90.0
#: offline and served answers come from different batch compositions
ANSWER_TOL = 1e-10
#: every checked answer is compared against the offline forward
SAMPLE_EVERY = 10
#: simulated seconds per batch: positive, and negligible next to wall time
SERVICE_S = 1e-6
#: the traced run's goodput ladder lasts this share of ``--seconds``
LADDER_SHARE = 0.5
#: a request answered later than this misses; a ladder step holds its
#: rate while p99 stays within it and errors within the budget
LATENCY_LIMIT_MS = 20.0
ERROR_BUDGET = 0.001


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    tier: str  # "router" or "shard"
    pattern: str  # "diurnal" (skewed keys) or "cache_busting"
    payload_pool: int
    cache_entries: int
    rate_rps: float
    ladder_rps: Tuple[float, ...]


def _negligible_cost(servable):
    from repro.serve.engine import ConstantServiceModel

    return ConstantServiceModel(base_s=SERVICE_S, per_example_s=0.0)


def pretrain_fixture():
    """The served model: a stack pre-trained briefly on fixed patches.
    It is the same for every seed; the seed picks the traffic."""
    from repro.nn.cost import SparseAutoencoderCost
    from repro.nn.stacked import LayerSpec, StackedAutoencoder

    specs = [LayerSpec(512, epochs=1, batch_size=100),
             LayerSpec(256, epochs=1, batch_size=100)]
    stack = StackedAutoencoder(
        N_INPUTS, specs, cost=SparseAutoencoderCost(sparsity_weight=3.0),
        seed=FIXTURE_SEED,
    )
    return stack.pretrain(inputs.squashed(FIXTURE_EXAMPLES, FIXTURE_SEED))


def build_tier(w: ServeWorkload, stack):
    """Two replicas with per-replica caches: a consistent-hash ``Router``
    over the whole stack, or a ``ShardRouter`` over its two shards."""
    from repro.cluster.replica import ReplicaConfig

    config = ReplicaConfig(cache_entries=w.cache_entries,
                           service_model_factory=_negligible_cost)
    if w.tier == "router":
        from repro.cluster.router import ConsistentHashPolicy, Router
        from repro.serve.registry import ServableModel

        return Router(ServableModel(w.name, stack), n_replicas=2,
                      replica_config=config, policy=ConsistentHashPolicy())
    from repro.cluster.shardrouter import ShardRouter
    from repro.shard import partition

    return ShardRouter(partition(stack, 2), replica_config=config)


def schedule(w: ServeWorkload, seed: int, rate: float,
             duration_s: float) -> Tuple[List[float], List[int]]:
    """Due times and payload keys of one phase, from ``repro.workloads``:
    Poisson arrivals at a constant ``rate`` (a ``diurnal`` curve whose
    trough equals its crest keeps the pattern's power-law key skew)."""
    from repro.workloads.patterns import cache_busting, diurnal

    if w.pattern == "diurnal":
        trace = diurnal(seed, duration_s=duration_s, base_rps=rate,
                        peak_rps=rate, payload_pool=w.payload_pool)
    else:
        trace = cache_busting(seed, duration_s=duration_s, rate_rps=rate,
                              payload_pool=w.payload_pool)
    return [e.t for e in trace.events], [e.key for e in trace.events]


def phase_seed(seed: int, phase: int) -> int:
    """Seed of one input stream: 0 the fixed-rate schedule, 1.. the
    ladder steps."""
    return int(np.random.SeedSequence([seed, phase]).generate_state(1)[0])


@dataclass
class Prepared:
    payloads: np.ndarray
    stack: object
    fixture_loss: float
    tier: object
    fixed: Tuple[List[float], List[int]]
    ladder: List[Tuple[List[float], List[int]]]


def setup(w: ServeWorkload, seed: int, seconds: float) -> Tuple[Prepared, float]:
    t0 = time.perf_counter()
    payloads = inputs.squashed(w.payload_pool, seed)
    stack = pretrain_fixture()
    tier = build_tier(w, stack)
    fixed = schedule(w, phase_seed(seed, 0), w.rate_rps, seconds)
    step_s = LADDER_SHARE * seconds / len(w.ladder_rps)
    ladder = [schedule(w, phase_seed(seed, j + 1), rate, step_s)
              for j, rate in enumerate(w.ladder_rps)]
    setup_s = time.perf_counter() - t0
    loss = float(stack.layer_errors[-1][-1])
    return Prepared(payloads, stack, loss, tier, fixed, ladder), setup_s


def drive(tier, payloads: np.ndarray, plan: Tuple[List[float], List[int]],
          epoch: Optional[float] = None):
    due, keys = plan
    return run_open_loop(tier, due, lambda i: payloads[keys[i]], epoch=epoch)


# -- correctness ---------------------------------------------------------

def offline_answers(w: ServeWorkload, p: Prepared, x: np.ndarray) -> np.ndarray:
    """What the served model answers for ``x`` outside the serving tier."""
    if w.tier == "router":
        return p.tier.servable.predict(x)
    from repro.shard.servables import gather_outputs

    shards = p.tier.shards
    return gather_outputs(shards, [s.partial_output(x) for s in shards])


def wrong_answers(w: ServeWorkload, p: Prepared, run) -> Tuple[set, int]:
    """Indices of sampled answers that differ from the offline forward."""
    sample = [o for o in run.outcomes
              if o.status == COMPLETED and o.index % SAMPLE_EVERY == 0]
    if not sample:
        return set(), 0
    x = np.stack([o.request.payload for o in sample])
    want = offline_answers(w, p, x)
    got = np.stack([np.asarray(o.request.result) for o in sample])
    diff = np.max(np.abs(got - want), axis=1)
    return {o.index for o, d in zip(sample, diff) if not d <= ANSWER_TOL}, len(sample)


def latencies_ms(run, wrong: set) -> List[float]:
    """Due time → answer; a shed, failed, unanswered or wrong request
    counts as waiting until the phase ended, beyond any limit."""
    out = []
    for o, lat in zip(run.outcomes, run.latencies_s()):
        if o.index in wrong:
            lat = run.end_s - o.due_s
        out.append(lat * 1e3)
    return out


def step_passes(run, wrong: set) -> Tuple[bool, str]:
    """A ladder step holds its rate when p99 is within the latency limit,
    the error rate within budget and the backlog does not grow."""
    lat = latencies_ms(run, wrong)
    p99 = percentile(lat, 99.0) if lat else float("inf")
    errors = run.offered - run.count(COMPLETED) + len(wrong)
    error_rate = errors / max(run.offered, 1)
    growing = backlog_growing(run.backlog)
    ok = p99 <= LATENCY_LIMIT_MS and error_rate <= ERROR_BUDGET and not growing
    return ok, f"p99={p99:.3f}ms error_rate={error_rate:.4f} growing={growing}"


def climb_ladder(w: ServeWorkload, p: Prepared, epoch: float,
                 result: Result) -> Tuple[float, int, int]:
    """Offer each ladder rate in turn; returns the goodput (the highest
    rate before the first failing step, 0 if the first fails), the
    requests offered and the sampled answers found wrong."""
    goodput, offered, wrong = 0.0, 0, 0
    for rate, plan in zip(w.ladder_rps, p.ladder):
        step = drive(p.tier, p.payloads, plan, epoch)
        offered += step.offered
        step_wrong, _ = wrong_answers(w, p, step)
        wrong += len(step_wrong)
        ok, why = step_passes(step, step_wrong)
        result.details.append(f"ladder {rate:g} rps: {'pass' if ok else 'fail'} {why}")
        if not ok:
            break
        goodput = rate
    return goodput, offered, wrong


# -- the run ---------------------------------------------------------------

def run(w: ServeWorkload, seed: int, seconds: float, trace: bool,
        workdir: Path, trace_path: Path) -> Result:
    result = Result()
    setups = [setup(w, seed, seconds) for _ in range(SETUP_REPEATS)]
    p = setups[-1][0]
    result.meta.update(describe_engine(None))

    epoch = time.perf_counter()
    fixed = drive(p.tier, p.payloads, p.fixed, epoch)
    wrong, checked = wrong_answers(w, p, fixed)
    completed = fixed.count(COMPLETED)
    shed = fixed.count(SHED)
    unanswered = fixed.count(UNANSWERED)
    failed = fixed.offered - completed - shed
    offered_total = fixed.offered
    ladder_wrong = 0
    if trace:
        goodput, ladder_offered, ladder_wrong = climb_ladder(w, p, epoch, result)
        offered_total += ladder_offered
        result.put("gen.goodput_rps", goodput, "1/s")

    metrics = p.tier.metrics
    result.check("answers_match_offline", not wrong and not ladder_wrong,
                 f"every {SAMPLE_EVERY}th answer: {len(wrong)} of {checked} at the "
                 f"fixed rate and {ladder_wrong} on the ladder differ by more "
                 f"than {ANSWER_TOL}")
    result.check("conservation", conserved(fixed.offered, completed, shed, failed)
                 and unanswered == 0
                 and metrics.received == offered_total
                 and conserved(metrics.received, metrics.completed, metrics.shed,
                               metrics.failed + p.tier.pending),
                 f"offered={fixed.offered} completed={completed} shed={shed} "
                 f"failed={failed} (unanswered={unanswered}); tier counters "
                 f"received={metrics.received} completed={metrics.completed} "
                 f"shed={metrics.shed} failed={metrics.failed} pending={p.tier.pending}")
    if w.tier == "shard":
        result.check("no_degraded_requests", p.tier.degraded_requests == 0,
                     f"degraded_requests={p.tier.degraded_requests}, no faults installed")
    result.check("fixture_loss_finite", np.isfinite(p.fixture_loss))

    errors = failed + shed + len(wrong)
    result.attempted = fixed.offered
    result.failed = errors
    lat_ms = latencies_ms(fixed, wrong)
    lat = summary(lat_ms, LATENCY_TAIL_Q)
    setup_times = [s[1] for s in setups]
    result.put("setup_s", percentile(setup_times, 50.0), "s")
    result.note("setup_s", percentile(setup_times, 50.0), "s", n=len(setup_times))
    in_time = sum(1 for v in lat_ms if v <= LATENCY_LIMIT_MS)
    result.put("work_per_s", in_time / seconds, "1/s")
    result.note("answered_in_limit_rps", in_time / seconds, "req/s", n=fixed.offered,
                why=f"right answers within {LATENCY_LIMIT_MS:g} ms, per second "
                    f"of the {seconds:g} s schedule at {w.rate_rps:g} rps offered")
    result.put("gen.capacity_rps", fixed.offered / fixed.busy_s, "1/s")
    result.put("p50_ms", lat["p50"], "ms")
    result.put("p90_ms", lat["tail"], "ms")
    result.note("latency_p50_ms", lat["p50"], "ms", n=lat["n"],
                why=f"from due time, at {w.rate_rps:g} rps offered")
    result.note("latency_p90_ms", lat["tail"], "ms", n=lat["n"])
    result.put("gen.latency_p99_ms", percentile(lat_ms, 99.0), "ms")
    result.put("final_loss", p.fixture_loss, "loss")
    result.note("final_loss", p.fixture_loss, "loss", why="the served fixture's pre-training")
    result.put("ok_share", (fixed.offered - errors) / fixed.offered, "share")
    result.note("error_rate", errors / fixed.offered, "share", n=fixed.offered,
                why="(shed + failed + wrong) / offered")
    result.note("backlog_growing", float(backlog_growing(fixed.backlog)), "flag",
                why="1 means the tier fell behind the offered rate")

    lags = [v * 1e3 for v in fixed.lags_s()]
    result.put("gen.lag_ms_p99", percentile(lags, 99.0), "ms")
    result.put("gen.offered", fixed.offered, "count")
    result.put("gen.completed", completed, "count")
    result.put("gen.shed", shed, "count")
    result.put("gen.failed", failed, "count")
    if trace:
        _traced(w, p, fixed, result, trace_path)
    result.put("peak_rss_mb", peak_rss_mb(), "MB")
    return result


def _traced(w: ServeWorkload, p: Prepared, untraced, result: Result,
            trace_path: Path) -> None:
    """Replay the fixed-rate phase on a fresh tier with every layer wrapped."""
    tier = build_tier(w, p.stack)
    with Tracer() as tracer:
        layers.install(tracer)
        traced = drive(tier, p.payloads, p.fixed)
    tracer.dump(trace_path)
    spans = tracer.named
    own = tracer.self_times()

    if w.tier == "router":
        result.put("router.submit_us", layers.median_self_us(spans("router.submit"), own), "us")
        result.put("router.poll_us", layers.median_self_us(spans("router.poll"), own), "us")
        received = [snap["received"] for snap in tier.snapshots()]
        result.put("router.replica_skew", max(received) / (sum(received) / len(received)), "x")
        result.put("router.hedges", tier.metrics.hedges_launched, "count")
        result.put("router.spillovers", tier.metrics.backpressure_events, "count")

    caches = [r.engine.cache for r in tier.replicas if r.engine.cache is not None]
    lookups = sum(c.hits + c.misses for c in caches)
    result.put("cache.hit_rate", sum(c.hits for c in caches) / lookups if lookups else 0.0, "share")
    result.put("cache.evictions", sum(c.evictions for c in caches), "count")

    legs = []
    for o in traced.outcomes:
        if o.status != COMPLETED:
            continue
        if w.tier == "router":
            legs.extend(leg.request for leg in o.request.legs)
        else:
            legs.extend(leg for leg in o.request.legs.values() if leg is not None)
    waits = [r.wait_s * 1e3 for r in legs if not r.cache_hit and r.wait_s is not None]
    wait = summary(waits, 99.0)
    result.put("batcher.wait_ms_p50", wait["p50"], "ms")
    result.put("batcher.wait_ms_p99", wait["tail"], "ms")
    forwards = spans("serve.forward")
    rows = [s.args["rows"] for s in forwards]
    result.put("batcher.batch_size_mean", sum(rows) / len(rows) if rows else 0.0, "count")
    fwd = summary(layers.durations_ms(forwards), 99.0)
    result.put("serve.forward_ms_p50", fwd["p50"], "ms")
    result.put("serve.forward_ms_p99", fwd["tail"], "ms")
    fwd_s = sum(s.duration for s in forwards)
    result.put("serve.forward_rows_per_s", sum(rows) / fwd_s if fwd_s else 0.0, "1/s")

    if w.tier == "shard":
        result.put("shard.scatter_us", layers.median_self_us(spans("shard.submit"), own), "us")
        gathers = [d * 1e3 for d in layers.durations_ms(spans("shard.gather"))]
        result.put("shard.gather_us", percentile(gathers, 50.0), "us")
        answered = [o.request for o in traced.outcomes if o.status == COMPLETED]
        live = [sum(1 for leg in r.legs.values() if leg is not None) for r in answered]
        result.put("shard.legs_per_request", sum(live) / len(live), "count")
        result.put("shard.degraded_requests", tier.degraded_requests, "count")

    per_req = untraced.busy_s / untraced.offered
    per_req_traced = traced.busy_s / traced.offered
    result.put("trace.overhead_pct", (per_req_traced / per_req - 1.0) * 100.0, "%")
    result.note("trace.spans", len(tracer.spans), "count", why=str(trace_path))
