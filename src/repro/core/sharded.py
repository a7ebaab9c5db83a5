"""Sharded greedy layer-wise pre-training (model parallelism).

:func:`sharded_pretrain` is the model-parallel counterpart of
:meth:`repro.nn.stacked._GreedyStack.pretrain`.  Each greedy block is
initialised *full-width* from the same RNG draws the unsharded run would
consume, split into per-shard diagonal sub-blocks plus decay-only
:class:`~repro.shard.shards.CrossBlock`\\ s, and trained in lockstep
through one :class:`~repro.train.ShardedTrainStep` riding the ordinary
:class:`~repro.train.TrainLoop` (serial or parallel-engine).  Every
``exchange_every`` updates the bounded exchange fires behind the
``shard.exchange`` fault site: dropout masks are resampled from the
per-shard streams and the replicated first-block bias is re-synced from
shard 0.  Checkpoints are epoch-granular
(:func:`repro.shard.save_shard_checkpoint`) and carry every RNG/mask
stream position, so a killed run resumes **bit-identically**.

It lives in :mod:`repro.core` because it composes the model substrate
(:mod:`repro.nn`, :mod:`repro.shard`) with the training loop
(:mod:`repro.train`), an edge neither of those layers may take itself.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.autoencoder import SparseAutoencoder
from repro.nn.mlp import DeepNetwork
from repro.nn.stacked import DeepBeliefNetwork, StackedAutoencoder
from repro.runtime.checkpoint import (
    CheckpointError,
    as_store,
    capture_rng,
    restore_rng_into,
)
from repro.runtime.workspace import Workspace
from repro.shard.checkpoint import (
    load_shard_state,
    read_shard_checkpoint,
    save_shard_checkpoint,
)
from repro.shard.masks import mask_streams, resample_masks
from repro.shard.partition import Partition
from repro.shard.shards import (
    KIND_DBN,
    KIND_SAE,
    ModelShard,
    _make_sub_stack,
    _stack_meta,
    merge,
    partition_rbm_block,
    partition_sae_block,
)
from repro.train.batches import batch_bounds
from repro.train.loop import EVENT_LOG_KEY, EventLog, TrainLoop
from repro.train.shardstep import ShardedTrainStep
from repro.utils.rng import spawn_generators
from repro.utils.validation import check_matrix_shapes


# ---------------------------------------------------------------------------

def _stack_kind(stack) -> str:
    if isinstance(stack, StackedAutoencoder):
        return KIND_SAE
    if isinstance(stack, DeepBeliefNetwork):
        return KIND_DBN
    raise ConfigurationError(
        f"sharded_pretrain expects a StackedAutoencoder or DeepBeliefNetwork, "
        f"got {type(stack).__name__}"
    )


def _append_block(stack, shards: List[ModelShard], part: Partition,
                  index: int, kind: str, rng) -> None:
    """Initialise block ``index`` full-width and scatter it onto the shards.

    Creating the *full* block from the cascade's own RNG stream keeps the
    shard initialisation bit-identical to partitioning an unsharded run —
    and makes resume-time structure recreation deterministic.
    """
    n_in = part.layer_sizes[index]
    full = stack._make_block(n_in, stack.layer_specs[index], rng)
    for shard in shards:
        if kind == KIND_SAE:
            sub_block, cbs = partition_sae_block(full, part, index + 1, shard.index)
        else:
            sub_block, cbs = partition_rbm_block(full, part, index + 1, shard.index)
        shard.model.blocks.append(sub_block)
        shard.cross.extend(cbs)


def _sync_replicated_bias(shards: Sequence[ModelShard], kind: str) -> None:
    """Re-copy shard 0's replicated first-block bias onto every shard.

    Only the first block's visible side is unpartitioned, so only its
    bias (`SAE b2` / RBM visible ``b``) exists as a full copy per shard
    and drifts between exchanges.
    """
    if not shards[0].model.blocks:
        return
    name = "b2" if kind == KIND_SAE else "b"
    source = getattr(shards[0].model.blocks[0], name)
    for shard in shards[1:]:
        np.copyto(getattr(shard.model.blocks[0], name), source)


def sharded_pretrain(
    stack,
    x: np.ndarray,
    n_shards: int,
    *,
    engine=None,
    checkpoint=None,
    resume_from=None,
    dropout: float = 0.0,
    exchange_every: int = 0,
    mask_seed=0,
    callbacks=None,
    callback=None,
) -> List[ModelShard]:
    """Greedy layer-wise pre-training with the stack split into shards.

    ``stack`` is an *untrained* template (its hyper-parameters and seed
    define the run); on return it holds the merged full-width blocks
    (``stack.is_trained``) and the function returns the trained
    :class:`~repro.shard.shards.ModelShard` list.

    Each block is initialised full-width from the same per-block RNG
    stream the unsharded cascade uses, partitioned, and the per-shard
    diagonal sub-blocks train through one
    :class:`~repro.train.ShardedTrainStep` (all shards see the same
    shuffle); cross-shard weights receive their exact decay-only update
    after every apply.  ``exchange_every`` > 0 enables the bounded
    periodic exchange (mask resample from the per-shard ``mask_seed``
    streams + replicated-bias re-sync) behind the ``shard.exchange``
    fault site.

    ``checkpoint`` / ``resume_from`` follow the unsharded
    :meth:`~repro.nn.stacked._GreedyStack.pretrain` contract: snapshots
    are epoch-granular, headers are shard-count-tagged, and a resumed
    run is bit-identical at the same seed, shard count, execution mode
    and worker count (all validated).
    """
    kind = _stack_kind(stack)
    if stack.blocks:
        raise ConfigurationError(
            "stack already holds trained blocks; sharded_pretrain starts "
            "from scratch (partition() an already-trained stack instead)"
        )
    x = check_matrix_shapes(x, stack.n_visible, "x")
    sizes = stack.layer_sizes
    part = Partition(sizes, n_shards, partitioned=range(1, len(sizes)))
    meta = _stack_meta(stack, kind)
    n_layers = len(stack.layer_specs)
    rngs = spawn_generators(stack._seed, 2 * n_layers)
    streams = mask_streams(mask_seed, n_shards)
    store = as_store(checkpoint)
    loop = TrainLoop(engine=engine, callbacks=callbacks)

    shards: List[ModelShard] = [
        ModelShard(k, part, kind, _make_sub_stack(stack, part, k, kind), [], meta)
        for k in range(n_shards)
    ]
    masks: Dict[int, List[np.ndarray]] = {}
    layer_errors: List[List[float]] = []
    start_block, start_epoch, current_errors = 0, 0, []

    if resume_from is not None:
        header, arrays = read_shard_checkpoint(
            resume_from, family=kind, partition=part, model_meta=meta
        )
        start_block = int(header["block_index"])
        start_epoch = int(header["epochs_done"])
        current_errors = [float(e) for e in header["current_errors"]]
        layer_errors = [list(e) for e in header["layer_errors"]]
        # Recreate the shard structures exactly as the original run did
        # (full-width init, then partition), then overwrite the bytes.
        for j in range(start_block + 1):
            _append_block(stack, shards, part, j, kind, rngs[2 * j])
        load_shard_state(shards, arrays)
        states = header["rng_states"]
        if len(states) != len(rngs):
            raise CheckpointError(
                f"checkpoint carries {len(states)} RNG streams, "
                f"expected {len(rngs)}"
            )
        for gen, state in zip(rngs, states):
            restore_rng_into(gen, state)
        for gen, state in zip(streams, header["mask_streams"]):
            restore_rng_into(gen, state)
        engine_meta = header.get("engine")
        if (engine_meta is None) != (engine is None):
            raise CheckpointError(
                "resume must use the same execution mode as the "
                "checkpointed run (parallel engine vs serial)"
            )
        if engine is not None:
            if engine_meta["n_workers"] != engine.n_workers:
                raise CheckpointError(
                    f"checkpoint was taken at n_workers="
                    f"{engine_meta['n_workers']} but the engine has "
                    f"{engine.n_workers}; bit-identical resume requires "
                    f"the same worker count"
                )
            engine.restore_rng_streams(engine_meta["streams"])
        loop.resume_from_log(EventLog.from_array(arrays.get(EVENT_LOG_KEY)))

    # Per-shard inputs are pure functions of the completed sub-blocks.
    currents: List[np.ndarray] = [x] * n_shards
    for j in range(start_block):
        currents = [
            shard.model._block_transform(shard.model.blocks[j], cur)
            for shard, cur in zip(shards, currents)
        ]

    for i in range(start_block, n_layers):
        spec = stack.layer_specs[i]
        resumed_here = i == start_block and len(shards[0].model.blocks) > i
        if resumed_here:
            errors = current_errors
        else:
            _append_block(stack, shards, part, i, kind, rngs[2 * i])
            errors = []
        steps = []
        for k, shard in enumerate(shards):
            sub = shard.model
            ws = Workspace(name=f"shard{k}-{stack._ckpt_kind}-block{i}")
            steps.append(
                sub._block_step(
                    sub.blocks[i], currents[k], sub.layer_specs[i],
                    rngs[2 * i + 1], ws,
                )
            )
        after = [
            (lambda s=shard, _lr=spec.learning_rate, _i=i:
                s.apply_cross_decay(_lr, block_index=_i))
            for shard in shards
        ]

        def exchange(update: int, _i: int = i) -> None:
            for k, stream in enumerate(streams):
                masks[k] = resample_masks(
                    stream, [part.width(_i + 1, k)], dropout
                )
            _sync_replicated_bias(shards, kind)

        step = ShardedTrainStep(
            steps,
            exchange=exchange if exchange_every > 0 else None,
            exchange_every=exchange_every,
            after_apply=after,
        )
        if resumed_here and exchange_every > 0:
            # The uninterrupted run's counters carry across epochs within
            # a block; re-seed them so exchange timing stays identical.
            n_batches = len(batch_bounds(steps[0].n_examples(), spec.batch_size))
            step.updates_applied = start_epoch * n_batches
            step.exchanges = step.updates_applied // exchange_every

        epoch_end = None
        if store is not None:
            def epoch_end(done, metrics, _i=i):
                save_shard_checkpoint(
                    store, shards,
                    block_index=_i,
                    epochs_done=done,
                    rng_states=[capture_rng(g) for g in rngs],
                    mask_states=[capture_rng(g) for g in streams],
                    current_errors=metrics,
                    layer_errors=layer_errors,
                    engine=None if engine is None else {
                        "n_workers": engine.n_workers,
                        "streams": engine.capture_rng_streams(),
                    },
                    extra_arrays={EVENT_LOG_KEY: loop.log.to_array()},
                    tag=f"block{_i}-epoch{done}",
                )

        loop.run_epochs(
            step,
            epochs=spec.epochs,
            batch_size=spec.batch_size,
            rng=rngs[2 * i + 1],
            start_epoch=start_epoch if i == start_block else 0,
            metrics=errors,
            epoch_end=epoch_end,
        )
        layer_errors.append(errors)
        loop.end_layer(i, errors[-1] if errors else float("nan"))
        if callback is not None:
            callback(i, [s.model.blocks[i] for s in shards], errors)
        currents = [
            shard.model._block_transform(shard.model.blocks[i], cur)
            for shard, cur in zip(shards, currents)
        ]

    merged = merge(shards)
    stack.blocks = merged.blocks
    stack.layer_errors = [list(e) for e in layer_errors]
    return shards


def model_params(model) -> List[np.ndarray]:
    """Every parameter array of a stack or MLP, in a fixed order."""
    if isinstance(model, DeepNetwork):
        out = []
        for layer in model.layers:
            out.extend((layer.w, layer.b))
        return out
    out = []
    for block in model.blocks:
        if isinstance(block, SparseAutoencoder):
            out.extend((block.w1, block.b1, block.w2, block.b2))
        else:
            out.extend((block.w, block.b, block.c))
    return out
