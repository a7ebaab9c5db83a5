"""Tests for repro.nn.stacked — greedy layer-wise pre-training (Fig. 1)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn.rbm import RBM
from repro.nn.stacked import DeepBeliefNetwork, LayerSpec, StackedAutoencoder


class TestLayerSpec:
    def test_valid(self):
        spec = LayerSpec(n_hidden=8, learning_rate=0.3, epochs=2, batch_size=16)
        assert spec.n_hidden == 8

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            LayerSpec(n_hidden=0)
        with pytest.raises(ConfigurationError):
            LayerSpec(n_hidden=4, learning_rate=0.0)
        with pytest.raises(ConfigurationError):
            LayerSpec(n_hidden=4, epochs=0)


class TestStackedAutoencoder:
    def _specs(self):
        return [
            LayerSpec(16, learning_rate=0.5, epochs=4, batch_size=16),
            LayerSpec(8, learning_rate=0.5, epochs=4, batch_size=16),
        ]

    def test_requires_layers(self):
        with pytest.raises(ConfigurationError):
            StackedAutoencoder(25, [])

    def test_layer_sizes(self):
        stack = StackedAutoencoder(25, self._specs(), seed=0)
        assert stack.layer_sizes == [25, 16, 8]

    def test_pretrain_produces_blocks(self, digits_25):
        stack = StackedAutoencoder(25, self._specs(), seed=0).pretrain(digits_25)
        assert stack.is_trained
        assert len(stack.blocks) == 2
        assert len(stack.layer_errors) == 2

    def test_each_layer_error_improves(self, digits_25):
        stack = StackedAutoencoder(25, self._specs(), seed=0).pretrain(digits_25)
        for errors in stack.layer_errors:
            assert errors[-1] < errors[0]

    def test_transform_shapes(self, digits_25):
        stack = StackedAutoencoder(25, self._specs(), seed=0).pretrain(digits_25)
        assert stack.transform(digits_25).shape == (digits_25.shape[0], 8)
        assert stack.transform(digits_25, n_layers=1).shape == (digits_25.shape[0], 16)
        assert stack.transform(digits_25, n_layers=0).shape == digits_25.shape

    def test_transform_matches_manual_cascade(self, digits_25):
        """Greedy stacking = feeding each block the previous block's output."""
        stack = StackedAutoencoder(25, self._specs(), seed=0).pretrain(digits_25)
        manual = stack.blocks[1].encode(stack.blocks[0].encode(digits_25))
        np.testing.assert_array_equal(stack.transform(digits_25), manual)

    def test_transform_before_pretrain_raises(self, digits_25):
        with pytest.raises(ConfigurationError):
            StackedAutoencoder(25, self._specs()).transform(digits_25)

    def test_bad_n_layers_raises(self, digits_25):
        stack = StackedAutoencoder(25, self._specs(), seed=0).pretrain(digits_25)
        with pytest.raises(ConfigurationError):
            stack.transform(digits_25, n_layers=5)

    def test_reconstruct_shape(self, digits_25):
        stack = StackedAutoencoder(25, self._specs(), seed=0).pretrain(digits_25)
        assert stack.reconstruct(digits_25).shape == digits_25.shape

    def test_callback_fires_per_layer(self, digits_25):
        seen = []
        StackedAutoencoder(25, self._specs(), seed=0).pretrain(
            digits_25, callback=lambda i, block, errs: seen.append(i)
        )
        assert seen == [0, 1]

    def test_seed_reproducible(self, digits_25):
        a = StackedAutoencoder(25, self._specs(), seed=5).pretrain(digits_25)
        b = StackedAutoencoder(25, self._specs(), seed=5).pretrain(digits_25)
        np.testing.assert_array_equal(a.blocks[0].w1, b.blocks[0].w1)
        np.testing.assert_array_equal(a.blocks[1].w1, b.blocks[1].w1)


class TestDeepBeliefNetwork:
    def _specs(self):
        return [
            LayerSpec(10, learning_rate=0.2, epochs=3, batch_size=20),
            LayerSpec(6, learning_rate=0.2, epochs=3, batch_size=20),
        ]

    def test_blocks_are_rbms(self, binary_batch):
        dbn = DeepBeliefNetwork(12, self._specs(), seed=0).pretrain(binary_batch)
        assert all(isinstance(b, RBM) for b in dbn.blocks)

    def test_transform_shape(self, binary_batch):
        dbn = DeepBeliefNetwork(12, self._specs(), seed=0).pretrain(binary_batch)
        assert dbn.transform(binary_batch).shape == (binary_batch.shape[0], 6)

    def test_reconstruction_error_tracked(self, binary_batch):
        dbn = DeepBeliefNetwork(12, self._specs(), seed=0).pretrain(binary_batch)
        assert len(dbn.layer_errors) == 2
        assert all(len(e) == 3 for e in dbn.layer_errors)

    def test_rejects_bad_cd_k(self):
        with pytest.raises(ConfigurationError):
            DeepBeliefNetwork(12, self._specs(), cd_k=0)

    def test_features_in_unit_interval(self, binary_batch):
        dbn = DeepBeliefNetwork(12, self._specs(), seed=0).pretrain(binary_batch)
        f = dbn.transform(binary_batch)
        assert (f >= 0).all() and (f <= 1).all()


class TestBlasTwin:
    """The loop times a block step's twin to choose the BLAS thread
    count; the twin must leave the real block, RNG and workspace alone."""

    @pytest.mark.parametrize("stack_cls", [StackedAutoencoder, DeepBeliefNetwork])
    def test_twin_leaves_the_real_step_untouched(self, stack_cls):
        from repro.runtime.workspace import Workspace

        x = np.random.default_rng(0).random((20, 8))
        stack = stack_cls(8, [LayerSpec(4, epochs=1, batch_size=5)], seed=0)
        spec = stack.layer_specs[0]
        block = stack._make_block(8, spec, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        ws = Workspace(name="real")
        step = stack._block_step(block, x, spec, rng, ws)
        params = [p.copy() for p in vars(block).values() if isinstance(p, np.ndarray)]
        rng_state = rng.bit_generator.state

        twin = step.blas_twin()
        assert twin.x is x  # the data is shared, not copied
        assert twin.ws is not ws and twin.block is not block
        for _ in range(3):
            twin.apply(twin.compute(x[:5])[1])

        now = [p for p in vars(block).values() if isinstance(p, np.ndarray)]
        assert all(np.array_equal(a, b) for a, b in zip(params, now))
        assert rng.bit_generator.state == rng_state
        assert ws.misses == 0
        assert step.shape_key(x[:5]) != stack._block_step(
            stack._make_block(8, LayerSpec(3), np.random.default_rng(1)),
            x, LayerSpec(3), rng, ws,
        ).shape_key(x[:5])
