"""sharded_pretrain: N=1 identity, exchanges, kill-anywhere resume."""

import numpy as np
import pytest

from repro.core.sharded import model_params, sharded_pretrain
from repro.errors import ConfigurationError
from repro.nn.stacked import DeepBeliefNetwork, LayerSpec, StackedAutoencoder
from repro.runtime.checkpoint import CheckpointError, CheckpointStore
from repro.runtime.executor import ParallelGradientEngine
from repro.shard.shards import merge
from repro.testing.faults import FaultError, FaultPlan, inject

SPECS = [LayerSpec(8, epochs=2, batch_size=16), LayerSpec(6, epochs=2, batch_size=16)]


@pytest.fixture(scope="module")
def x():
    return np.random.default_rng(0).random((48, 12))


def _sae():
    return StackedAutoencoder(12, SPECS, seed=5)


def _max_abs(a, b):
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def _shard_diff(a, b):
    worst = 0.0
    for sa, sb in zip(a, b):
        for pa, pb in zip(model_params(sa.model), model_params(sb.model)):
            worst = max(worst, _max_abs(pa, pb))
        for ca, cb in zip(sa.cross, sb.cross):
            worst = max(worst, _max_abs(ca.values, cb.values))
    return worst


class TestCascade:
    def test_one_shard_is_bit_identical_to_unsharded(self, x):
        ref = _sae()
        ref.pretrain(x)
        sharded = _sae()
        sharded_pretrain(sharded, x, 1)
        assert all(
            _max_abs(a, b) == 0.0
            for a, b in zip(model_params(ref), model_params(sharded))
        )
        assert ref.layer_errors == sharded.layer_errors

    def test_dbn_one_shard_matches_unsharded(self, x):
        binary = (x > 0.5).astype(np.float64)
        ref = DeepBeliefNetwork(12, SPECS, cd_k=1, seed=5)
        ref.pretrain(binary)
        sharded = DeepBeliefNetwork(12, SPECS, cd_k=1, seed=5)
        sharded_pretrain(sharded, binary, 1)
        assert all(
            _max_abs(a, b) == 0.0
            for a, b in zip(model_params(ref), model_params(sharded))
        )

    def test_template_holds_merged_blocks_after_training(self, x):
        stack = _sae()
        shards = sharded_pretrain(stack, x, 2)
        assert stack.is_trained
        rebuilt = merge(shards)
        assert all(
            _max_abs(a, b) == 0.0
            for a, b in zip(model_params(stack), model_params(rebuilt))
        )

    def test_deterministic_across_runs(self, x):
        a = sharded_pretrain(_sae(), x, 2, exchange_every=2, dropout=0.25)
        b = sharded_pretrain(_sae(), x, 2, exchange_every=2, dropout=0.25)
        assert _shard_diff(a, b) == 0.0

    def test_exchange_fires_on_schedule(self, x):
        # 3 batches x 2 epochs x 2 blocks = 12 updates; exchange_every=2
        # gives exactly 6 exchange events: a kill armed for the 6th
        # (0-based nth=5) fires, one armed for a 7th never does.
        with pytest.raises(FaultError):
            with inject(FaultPlan.fail("shard.exchange", nth=5)) as plan:
                sharded_pretrain(_sae(), x, 2, exchange_every=2)
        assert plan.fired("shard.exchange") == 1
        with inject(FaultPlan.fail("shard.exchange", nth=6)) as plan:
            sharded_pretrain(_sae(), x, 2, exchange_every=2)
        assert plan.fired("shard.exchange") == 0

    def test_zero_exchange_every_never_fires_the_site(self, x):
        with inject(FaultPlan.fail("shard.exchange", nth=1)) as plan:
            sharded_pretrain(_sae(), x, 2)
        assert plan.fired("shard.exchange") == 0

    def test_trained_template_rejected(self, x):
        stack = _sae()
        stack.pretrain(x)
        with pytest.raises(ConfigurationError, match="trained"):
            sharded_pretrain(stack, x, 2)

    def test_mlp_rejected(self, x):
        from repro.nn.mlp import DeepNetwork

        with pytest.raises(ConfigurationError, match="Stacked"):
            sharded_pretrain(DeepNetwork([12, 8, 4]), x, 2)


class TestResume:
    def _run(self, x, store=None, resume_from=None, engine=None):
        return sharded_pretrain(
            _sae(), x, 2,
            checkpoint=store, resume_from=resume_from, engine=engine,
            exchange_every=2, dropout=0.25, mask_seed=5,
        )

    def test_resume_from_every_snapshot_is_bit_identical(self, x, tmp_path):
        store = CheckpointStore(tmp_path, keep=32)
        baseline = self._run(x, store=store)
        snapshots = store.list()
        assert len(snapshots) == 4  # 2 blocks x 2 epochs
        for snap in snapshots:
            resumed = self._run(x, resume_from=snap)
            assert _shard_diff(baseline, resumed) == 0.0, snap.name

    def test_kill_at_exchange_site_then_resume(self, x, tmp_path):
        baseline = self._run(x)
        store = CheckpointStore(tmp_path, keep=32)
        with pytest.raises(FaultError):
            with inject(FaultPlan.fail("shard.exchange", nth=3)):
                self._run(x, store=store)
        assert store.latest() is not None
        resumed = self._run(x, resume_from=store)
        assert _shard_diff(baseline, resumed) == 0.0

    def test_engine_mode_mismatch_rejected(self, x, tmp_path):
        store = CheckpointStore(tmp_path, keep=32)
        self._run(x, store=store)
        with ParallelGradientEngine(2, blas_threads=None, seed=5) as eng:
            with pytest.raises(CheckpointError, match="execution mode"):
                self._run(x, resume_from=store, engine=eng)

    def test_engine_resume_bit_identical(self, x, tmp_path):
        store = CheckpointStore(tmp_path, keep=32)
        with ParallelGradientEngine(2, blas_threads=None, seed=5) as eng:
            baseline = self._run(x, engine=eng)
        with ParallelGradientEngine(2, blas_threads=None, seed=5) as eng:
            self._run(x, store=store, engine=eng)
        mid = store.list()[1]
        with ParallelGradientEngine(2, blas_threads=None, seed=5) as eng:
            resumed = self._run(x, resume_from=mid, engine=eng)
        assert _shard_diff(baseline, resumed) == 0.0

    def test_shard_count_cross_rejection(self, x, tmp_path):
        store = CheckpointStore(tmp_path, keep=32)
        self._run(x, store=store)
        with pytest.raises(CheckpointError, match="n_shards"):
            sharded_pretrain(_sae(), x, 4, resume_from=store,
                             exchange_every=2, dropout=0.25, mask_seed=5)
