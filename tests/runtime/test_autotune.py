"""Tests for repro.runtime.autotune — the future-work thread tuner."""

import pytest

from repro.core.ae_trainer import SparseAutoencoderTrainer
from repro.core.config import TrainingConfig
from repro.errors import ConfigurationError
from repro.phi.spec import XEON_E5620, XEON_PHI_5110P
from repro.runtime.autotune import (
    autotune_threads,
    autotune_training_config,
    default_thread_ladder,
)


class TestLadder:
    def test_phi_ladder(self):
        ladder = default_thread_ladder(XEON_PHI_5110P)
        assert ladder[0] == 1
        assert 60 in ladder  # one per core
        assert 240 in ladder  # full SMT
        assert ladder == sorted(ladder)

    def test_xeon_ladder(self):
        ladder = default_thread_ladder(XEON_E5620)
        assert set(ladder) == {1, 2, 4, 8}


class TestAutotuneThreads:
    def test_finds_known_minimum(self):
        # Synthetic landscape: sweet spot at 32 threads.
        evaluate = lambda t: abs(t - 32) + 1.0
        result = autotune_threads(
            evaluate, XEON_PHI_5110P, candidates=[1, 8, 32, 128, 240], refine=False
        )
        assert result.best_threads == 32
        assert result.best_seconds == 1.0

    def test_refinement_probes_midpoints(self):
        # True minimum at 48, between ladder points 32 and 64.
        evaluate = lambda t: (t - 48) ** 2 + 5.0
        result = autotune_threads(
            evaluate, XEON_PHI_5110P, candidates=[16, 32, 64, 128], refine=True
        )
        assert result.best_threads == 48  # the (32+64)//2 probe wins

    def test_samples_recorded(self):
        result = autotune_threads(
            lambda t: float(t), XEON_PHI_5110P, candidates=[1, 2, 4], refine=False
        )
        assert [s.n_threads for s in result.samples] == [1, 2, 4]
        assert result.speedup_vs_worst == pytest.approx(4.0)

    def test_tolerance_prefers_fewer_threads_within_the_margin(self):
        times = {1: 1.05, 2: 1.0, 4: 0.8}
        result = autotune_threads(
            times.get, XEON_PHI_5110P, candidates=[1, 2], refine=False, tolerance=0.1
        )
        assert result.best_threads == 1  # 2 threads win by under 10 %
        assert result.best_seconds == 1.05
        result = autotune_threads(
            times.get, XEON_PHI_5110P, candidates=[1, 2, 4], refine=False,
            tolerance=0.1,
        )
        assert result.best_threads == 4  # a clear win still counts
        with pytest.raises(ConfigurationError, match="tolerance"):
            autotune_threads(times.get, XEON_PHI_5110P, candidates=[1], tolerance=-1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            autotune_threads(lambda t: 1.0, XEON_PHI_5110P, candidates=[])
        with pytest.raises(ConfigurationError):
            autotune_threads(lambda t: 1.0, XEON_PHI_5110P, candidates=[0])
        with pytest.raises(ConfigurationError):
            autotune_threads(lambda t: 1.0, XEON_PHI_5110P, candidates=[1000])


class TestAutotuneTrainingConfig:
    def test_big_batches_want_many_threads(self):
        cfg = TrainingConfig(
            n_visible=1024, n_hidden=4096, n_examples=10_000, batch_size=10_000
        )
        result = autotune_training_config(cfg, SparseAutoencoderTrainer)
        assert result.best_threads >= 60  # the GEMMs are huge; feed every core

    def test_tuned_never_worse_than_default(self):
        cfg = TrainingConfig(
            n_visible=256, n_hidden=128, n_examples=2000, batch_size=50
        )
        default_time = SparseAutoencoderTrainer(cfg).simulate().simulated_seconds
        result = autotune_training_config(cfg, SparseAutoencoderTrainer)
        assert result.best_seconds <= default_time + 1e-12

    def test_small_batches_prefer_fewer_threads_than_max(self):
        """The paper's granularity problem: 240 threads on batch-8 GEMMs
        mostly synchronise.  The tuner must not pick the maximum."""
        cfg = TrainingConfig(
            n_visible=64, n_hidden=32, n_examples=256, batch_size=8
        )
        result = autotune_training_config(cfg, SparseAutoencoderTrainer)
        assert result.best_threads < XEON_PHI_5110P.max_threads
        assert result.speedup_vs_worst > 1.0
