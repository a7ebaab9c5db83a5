"""The program's layer boundaries, as the traced run wraps them.

Each entry names one public entry point of a layer and the span it
becomes.  GEMM FLOPs are computed from the tensor shapes of the call
(not counted by hardware): ``2·m·n·h`` per GEMM of a batch of ``m`` rows
through an ``n × h`` weight matrix — five GEMMs per sparse-autoencoder
gradient (encode, decode, two weight gradients, one back-propagated
delta) and ``2k + 3`` per CD-k step (``k`` Gibbs round trips, the
positive-phase hidden pass and two statistics).
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from perfbench.stats import percentile
from perfbench.tracing import Span, Tracer


def _rows(x) -> int:
    return int(x.shape[0]) if getattr(x, "ndim", 1) > 1 else 1


def _sae_flops(model, x) -> int:
    return 10 * _rows(x) * model.n_visible * model.n_hidden


def _cd_flops(rbm, v0, k) -> int:
    return (4 * int(k) + 6) * _rows(v0) * rbm.n_visible * rbm.n_hidden


def _k(args, kwargs, position: int) -> int:
    return kwargs.get("k", args[position] if len(args) > position else 1)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from repro.cluster import shardrouter
    from repro.cluster.router import Router
    from repro.nn.autoencoder import SparseAutoencoder
    from repro.nn.rbm import RBM
    from repro.nn.stacked import _GreedyStack
    from repro.runtime import executor
    from repro.runtime.checkpoint import CheckpointStore
    from repro.runtime.procexec import ProcessGradientEngine
    from repro.serve.registry import ServableModel

    # repro.nn fused kernels and the block-to-block hand-off
    tracer.patch(_GreedyStack, "pretrain", "nn.stack.pretrain")
    tracer.patch(SparseAutoencoder, "gradients_into", "nn.sae.grad",
                 lambda a, kw, r: {"flops": _sae_flops(a[0], a[1])})
    tracer.patch(SparseAutoencoder, "apply_update", "nn.sae.apply")
    tracer.patch(SparseAutoencoder, "reconstruction_error", "nn.sae.epoch_metric")
    tracer.patch(SparseAutoencoder, "encode", "nn.sae.encode")
    tracer.patch(RBM, "contrastive_divergence", "nn.rbm.cd",
                 lambda a, kw, r: {"flops": _cd_flops(a[0], a[1], _k(a, kw, 2))})
    tracer.patch(RBM, "apply_update", "nn.rbm.apply")
    tracer.patch(RBM, "transform", "nn.rbm.transform")

    # gradient engines, seen from the coordinator
    for engine_cls in (executor.ParallelGradientEngine, ProcessGradientEngine):
        tracer.patch(engine_cls, "sae_gradients", "engine.compute",
                     lambda a, kw, r: {"flops": _sae_flops(a[1], a[2])})
        tracer.patch(engine_cls, "cd_gradients", "engine.compute",
                     lambda a, kw, r: {"flops": _cd_flops(a[1], a[2], _k(a, kw, 3))})

    # checkpoint writes
    tracer.patch(CheckpointStore, "save", "checkpoint.save",
                 lambda a, kw, r: {"bytes": r.stat().st_size})

    # the chunk prefetcher: time the consumer waits for its next chunk
    base = executor.ChunkPrefetcher

    class TracedPrefetcher(base):
        def __iter__(self):
            inner = base.__iter__(self)
            try:
                while True:
                    span = tracer.open("prefetch.wait")
                    try:
                        chunk = next(inner)
                    except StopIteration:
                        span.args = {"chunk": 0}
                        return
                    finally:
                        tracer.close(span)
                    span.args = {"chunk": 1}
                    yield chunk
            finally:
                inner.close()

    tracer.replace(executor, "ChunkPrefetcher", TracedPrefetcher)

    # serving: routers, forward passes, the shard gather
    def one_id(a, kw, r):
        return {"req": None if r is None else r.id}

    def many_ids(a, kw, r):
        return {"reqs": [req.id for req in r]}

    tracer.patch(Router, "submit", "router.submit", one_id)
    tracer.patch(Router, "poll", "router.poll", many_ids)
    tracer.patch(shardrouter.ShardRouter, "submit", "shard.submit", one_id)
    tracer.patch(shardrouter.ShardRouter, "poll", "shard.poll", many_ids)
    tracer.patch(shardrouter, "gather_outputs", "shard.gather")
    tracer.patch(ServableModel, "predict", "serve.forward",
                 lambda a, kw, r: {"rows": _rows(a[1])})


# -- span summaries ------------------------------------------------------

def durations_ms(spans: Iterable[Span]) -> List[float]:
    return [s.duration * 1e3 for s in spans]


def median_ms(spans: Iterable[Span]) -> float:
    values = durations_ms(spans)
    return percentile(values, 50.0) if values else 0.0


def median_self_us(spans: Iterable[Span], self_times: Dict[int, float]) -> float:
    """Median self time in microseconds (see :meth:`Tracer.self_times`)."""
    values = [self_times[s.id] * 1e6 for s in spans]
    return percentile(values, 50.0) if values else 0.0


def gflops(spans: Iterable[Span]) -> float:
    """GEMM GFLOP/s over the spans (FLOPs from shapes, see module doc)."""
    spans = list(spans)
    seconds = sum(s.duration for s in spans)
    flops = sum(s.args.get("flops", 0) for s in spans)
    return flops / seconds / 1e9 if seconds > 0 else 0.0
