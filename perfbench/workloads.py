"""The four benchmark workloads.

Why each was chosen is recorded in ``BENCHMARK.json`` and
``perfbench/README.md``.  In short: two pre-training runs split the work
between the fused kernels with no engine and the gradient engine plus
checkpoint writes, and two serving runs use the feature cache in
opposite ways, one hitting it for its hot keys and one never.
"""

from __future__ import annotations

from perfbench import pretrain, serving

WORKLOADS = {
    w.name: w
    for w in (
        pretrain.PretrainWorkload(
            name="pretrain_sae_serial",
            kind="sae",
            n_examples=1000,
            # Two epochs of the 1024-512 block put the median step inside
            # that block's steps rather than between the two blocks'.
            epochs=(2, 1),
            chunk_examples=200,
        ),
        pretrain.PretrainWorkload(
            name="pretrain_dbn_auto",
            kind="dbn",
            # One epoch per block: the CD-1 epoch metric (the mean error
            # of the epoch's updates) then varies least from seed to seed.
            n_examples=2000,
            epochs=(1, 1),
            checkpoint=True,
            auto_engine=True,
        ),
        serving.ServeWorkload(
            name="serve_router_skewed",
            tier="router",
            pattern="diurnal",
            # A working set 8x the caches: the hot keys hit (about 37% of
            # requests), the long tail misses and evicts.  With most
            # requests hitting, the median would be a ~70 us Python path
            # whose speed drifts by a fifth from run to run on a shared
            # host; the miss path is set by the batcher's 2 ms wait.
            payload_pool=1024,
            cache_entries=128,
            # At 300 req/s the p90 doubled for minutes at a time while the
            # shared host was slow; 200 req/s leaves more headroom.
            rate_rps=200.0,
            ladder_rps=(300.0, 450.0, 600.0, 800.0, 1000.0, 1300.0, 1600.0),
        ),
        serving.ServeWorkload(
            name="serve_shard_busting",
            tier="shard",
            pattern="cache_busting",
            payload_pool=2048,
            cache_entries=256,
            rate_rps=400.0,
            ladder_rps=(600.0, 800.0, 1000.0, 1300.0, 1600.0, 2000.0),
        ),
    )
}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir, trace_path):
    w = WORKLOADS[name]
    module = pretrain if isinstance(w, pretrain.PretrainWorkload) else serving
    return module.run(w, seed, seconds, trace, workdir, trace_path)
