"""ModelShard: partition/merge round-trip and parity vs the masked oracle.

The load-bearing invariant of the whole subsystem: shard ``k`` of a
model is *exactly* the full model evaluated under shard ``k``'s
structural dropout masks, for the forward pass and for one full
training update (diagonal blocks trained, cross blocks decay-only).
Everything is compared bit-for-bit (zeroed terms contribute exact ±0.0
to the GEMM sums), so assertions use ``== 0.0``, not tolerances.
"""

import numpy as np
import pytest

from repro.bench.shardbench import (
    _max_abs,
    _mlp_forward_parity,
    _mlp_step_parity,
    _rbm_step_parity,
    _sae_step_parity,
    _stack_forward_parity,
)
from repro.core.sharded import model_params
from repro.errors import ConfigurationError
from repro.nn.mlp import DeepNetwork
from repro.nn.stacked import DeepBeliefNetwork, LayerSpec, StackedAutoencoder
from repro.shard.shards import merge, partition

SHARD_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def x():
    return np.random.default_rng(0).random((32, 12))


@pytest.fixture(scope="module")
def sae(x):
    model = StackedAutoencoder(
        12,
        [LayerSpec(10, epochs=1, batch_size=16), LayerSpec(8, epochs=1, batch_size=16)],
        seed=0,
    )
    model.pretrain(x)
    return model


@pytest.fixture(scope="module")
def dbn(x):
    model = DeepBeliefNetwork(
        12,
        [LayerSpec(10, epochs=1, batch_size=16), LayerSpec(8, epochs=1, batch_size=16)],
        cd_k=1,
        seed=0,
    )
    model.pretrain((x > 0.5).astype(np.float64))
    return model


@pytest.fixture(scope="module")
def mlp():
    return DeepNetwork([12, 10, 8, 5], seed=0)


class TestRoundTrip:
    @pytest.mark.parametrize("n", SHARD_COUNTS)
    def test_sae_partition_merge_is_identity(self, sae, n):
        rebuilt = merge(partition(sae, n))
        for a, b in zip(model_params(sae), model_params(rebuilt)):
            assert _max_abs(a, b) == 0.0

    @pytest.mark.parametrize("n", SHARD_COUNTS)
    def test_dbn_partition_merge_is_identity(self, dbn, n):
        rebuilt = merge(partition(dbn, n))
        for a, b in zip(model_params(dbn), model_params(rebuilt)):
            assert _max_abs(a, b) == 0.0

    @pytest.mark.parametrize("n", SHARD_COUNTS)
    def test_mlp_partition_merge_is_identity(self, mlp, n):
        rebuilt = merge(partition(mlp, n))
        for a, b in zip(model_params(mlp), model_params(rebuilt)):
            assert _max_abs(a, b) == 0.0

    def test_model_partition_method_delegates(self, sae, mlp):
        assert len(sae.partition(2)) == 2
        assert len(mlp.partition(2)) == 2

    def test_untrained_stack_is_rejected(self):
        empty = StackedAutoencoder(12, [LayerSpec(8, epochs=1, batch_size=16)], seed=0)
        with pytest.raises(ConfigurationError, match="sharded_pretrain"):
            partition(empty, 2)

    def test_incomplete_shard_set_rejected(self, sae):
        shards = partition(sae, 4)
        with pytest.raises(ConfigurationError):
            merge(shards[:-1])


class TestForwardParity:
    @pytest.mark.parametrize("n", SHARD_COUNTS)
    def test_sae_shard_equals_masked_full_model(self, sae, x, n):
        assert _stack_forward_parity(sae, n, x) == 0.0

    @pytest.mark.parametrize("n", SHARD_COUNTS)
    def test_dbn_shard_equals_masked_full_model(self, dbn, x, n):
        assert _stack_forward_parity(dbn, n, (x > 0.5).astype(np.float64)) == 0.0

    @pytest.mark.parametrize("n", SHARD_COUNTS)
    def test_mlp_shard_equals_masked_full_model(self, mlp, x, n):
        assert _mlp_forward_parity(mlp, n, x) == 0.0

    def test_sharded_answer_differs_from_unmasked_model(self, sae, x):
        """The decoupled ensemble is an approximation of — not equal to —
        the unmasked full model; parity only holds against the masked
        oracle.  Guards against accidentally comparing the wrong thing."""
        shards = partition(sae, 2)
        from repro.shard.servables import gather_outputs

        gathered = gather_outputs(shards, [s.partial_output(x) for s in shards])
        assert _max_abs(gathered, sae.transform(x)) > 1e-6


class TestStepParity:
    @pytest.mark.parametrize("n", SHARD_COUNTS)
    def test_sae_one_update_matches_masked_oracle(self, n):
        assert _sae_step_parity(n, seed=1) == 0.0

    @pytest.mark.parametrize("n", SHARD_COUNTS)
    def test_rbm_one_cd_update_matches_masked_oracle(self, n):
        assert _rbm_step_parity(n, seed=1) == 0.0

    @pytest.mark.parametrize("n", SHARD_COUNTS)
    def test_mlp_one_update_matches_masked_oracle(self, mlp, n):
        assert _mlp_step_parity(mlp, n, seed=1) == 0.0


class TestStructuralMasks:
    def test_stack_masks_cover_every_layer(self, sae):
        shard = partition(sae, 2)[0]
        masks = shard.structural_masks()
        assert len(masks) == len(sae.layer_specs)
        for mask, spec in zip(masks, sae.layer_specs):
            assert mask.shape == (spec.n_hidden,)
            assert set(np.unique(mask)) <= {0.0, 1.0}

    def test_mlp_masks_cover_hidden_layers(self, mlp):
        shard = partition(mlp, 2)[1]
        masks = shard.structural_masks()
        assert len(masks) == len(mlp.layer_sizes) - 2
