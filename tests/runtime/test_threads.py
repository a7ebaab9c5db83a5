"""BLAS thread budgeting: recommended splits, the limit scopes over every
mechanism, and the measured thread count."""

import os
import threading
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runtime import threads
from repro.runtime.threads import (
    BLAS_ENV_VARS,
    available_cores,
    blas_thread_limit,
    measured_blas_threads,
    recommended_blas_threads,
    sweep_blas_threads,
)


@pytest.fixture
def env_route(monkeypatch):
    """Force the environment-variable mechanism."""
    monkeypatch.setattr(threads, "HAVE_THREADPOOLCTL", False)
    monkeypatch.setattr(threads, "_openblas", [])
    assert threads.blas_mechanism() == "env"


@pytest.fixture(params=["threadpoolctl", "openblas"])
def live_route(request, monkeypatch):
    """Each live mechanism in turn; the bundled OpenBLAS getters read
    the pools back whichever mechanism set them."""
    if not threads.bundled_openblas():
        pytest.skip("NumPy and SciPy bundle no OpenBLAS here")
    if request.param == "threadpoolctl" and not threads.HAVE_THREADPOOLCTL:
        pytest.skip("threadpoolctl not installed")
    if request.param == "openblas":
        monkeypatch.setattr(threads, "HAVE_THREADPOOLCTL", False)
    assert threads.blas_mechanism() == request.param
    return request.param


def live_counts():
    return [int(get()) for get, _ in threads.bundled_openblas()]


class TestAvailableCores:
    def test_at_least_one(self):
        assert available_cores() >= 1


class TestRecommendedBlasThreads:
    @pytest.mark.parametrize(
        "workers,cores,expected",
        [(1, 8, 8), (2, 8, 4), (3, 8, 2), (8, 8, 1), (16, 8, 1), (2, 1, 1)],
    )
    def test_budget_split(self, workers, cores, expected):
        assert recommended_blas_threads(workers, total_cores=cores) == expected

    def test_never_oversubscribes(self):
        for cores in (1, 4, 7, 61):  # 61 = Phi 5110P core count
            for workers in range(1, cores + 2):
                blas = recommended_blas_threads(workers, total_cores=cores)
                assert blas >= 1
                assert blas == 1 or workers * blas <= cores

    def test_invalid_worker_count(self):
        with pytest.raises(ConfigurationError):
            recommended_blas_threads(0)

    def test_defaults_to_available_cores(self):
        assert recommended_blas_threads(1) == available_cores()


class TestBlasThreadLimit:
    def test_none_is_noop(self):
        before = {var: os.environ.get(var) for var in BLAS_ENV_VARS}
        with blas_thread_limit(None):
            assert {var: os.environ.get(var) for var in BLAS_ENV_VARS} == before

    def test_invalid_limit(self):
        with pytest.raises(ConfigurationError):
            with blas_thread_limit(0):
                pass

    def test_env_fallback_sets_and_restores(self, monkeypatch, env_route):
        monkeypatch.setenv("OMP_NUM_THREADS", "7")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        with blas_thread_limit(2):
            for var in BLAS_ENV_VARS:
                assert os.environ[var] == "2"
        assert os.environ["OMP_NUM_THREADS"] == "7"  # pre-existing restored
        assert "MKL_NUM_THREADS" not in os.environ  # absent stays absent

    def test_env_fallback_restores_on_exception(self, monkeypatch, env_route):
        monkeypatch.setenv("OMP_NUM_THREADS", "5")
        with pytest.raises(RuntimeError):
            with blas_thread_limit(3):
                raise RuntimeError("boom")
        assert os.environ["OMP_NUM_THREADS"] == "5"

    @pytest.mark.skipif(
        not threads.HAVE_THREADPOOLCTL, reason="threadpoolctl not installed"
    )
    def test_threadpoolctl_path_applies_limit(self):
        import threadpoolctl

        with blas_thread_limit(1):
            for info in threadpoolctl.threadpool_info():
                assert info["num_threads"] == 1

    def test_scope_is_not_reentrant(self):
        scope = blas_thread_limit(1)
        with scope:
            with pytest.raises(ConfigurationError, match="re-entrant"):
                scope.__enter__()


class TestLiveBudget:
    def test_limit_applies_live_and_restores(self, live_route):
        before = live_counts()
        with blas_thread_limit(1):
            assert live_counts() == [1] * len(before)
            assert threads.current_blas_threads() == 1
        assert live_counts() == before

    def test_restores_on_exception(self, live_route):
        before = live_counts()
        with pytest.raises(RuntimeError):
            with blas_thread_limit(1):
                raise RuntimeError("boom")
        assert live_counts() == before

    def test_nested_scopes_run_at_the_smallest_limit(self, live_route):
        before = live_counts()
        with blas_thread_limit(2):
            with blas_thread_limit(1):
                assert set(live_counts()) == {1}
            assert set(live_counts()) == {2}
            with blas_thread_limit(3):
                assert set(live_counts()) == {2}
        assert live_counts() == before

    @pytest.mark.parametrize("first_out", ["narrow", "wide"])
    def test_overlapping_scopes_in_two_threads(self, live_route, first_out):
        """Two threads hold budgets at once and release them in either
        order: the pool is never left at a sibling's or the old count."""
        before = live_counts()
        entered = {name: threading.Event() for name in ("narrow", "wide")}
        release = {name: threading.Event() for name in ("narrow", "wide")}
        done = {name: threading.Event() for name in ("narrow", "wide")}

        def hold(name, limit):
            with blas_thread_limit(limit):
                entered[name].set()
                release[name].wait(10)
            done[name].set()

        workers = [threading.Thread(target=hold, args=("narrow", 1)),
                   threading.Thread(target=hold, args=("wide", 2))]
        for w in workers:
            w.start()
        try:
            assert entered["narrow"].wait(10) and entered["wide"].wait(10)
            assert set(live_counts()) == {1}
            release[first_out].set()
            assert done[first_out].wait(10)
            still = "wide" if first_out == "narrow" else "narrow"
            assert set(live_counts()) == {1 if still == "narrow" else 2}
        finally:
            for event in release.values():
                event.set()
            for w in workers:
                w.join(10)
        assert live_counts() == before

    def test_losses_and_gradients_do_not_depend_on_the_count(self, live_route):
        from repro.nn.autoencoder import SparseAutoencoder
        from repro.nn.cost import SparseAutoencoderCost
        from repro.nn.rbm import RBM
        from repro.runtime.workspace import Workspace

        x = np.random.default_rng(0).random((100, 1024))

        def sae(n):
            with blas_thread_limit(n):
                cost = SparseAutoencoderCost(sparsity_target=0.05, sparsity_weight=3.0)
                model = SparseAutoencoder(1024, 64, cost=cost, seed=1)
                loss, g = model.gradients_into(x, Workspace())
                return loss, [a.copy() for a in (g.w1, g.b1, g.w2, g.b2)]

        def rbm(n):
            with blas_thread_limit(n):
                model = RBM(1024, 64, seed=1)
                stats = model.contrastive_divergence(
                    x, rng=np.random.default_rng(2), workspace=Workspace()
                )
                return stats.reconstruction_error, [
                    a.copy() for a in (stats.grad_w, stats.grad_b, stats.grad_c)
                ]

        for kernel in (sae, rbm):
            (loss1, grads1), (loss2, grads2) = kernel(1), kernel(2)
            assert loss1 == loss2
            for a, b in zip(grads1, grads2):
                assert np.array_equal(a, b)


class TestMeasuredThreads:
    @pytest.fixture(autouse=True)
    def fresh_cache(self, monkeypatch):
        monkeypatch.setattr(threads, "_MEASURED", {})

    def test_sweep_times_each_count_under_its_own_limit(self, live_route):
        if available_cores() < 2:
            pytest.skip("one core: a single candidate")
        seen = []

        def run():
            # Fastest at one thread: the sweep must see the live count.
            seen.append(threads.current_blas_threads())
            time.sleep(0.001 if seen[-1] == 1 else 0.004)

        result = sweep_blas_threads(run)
        assert result.best_threads == 1
        assert sorted(s.n_threads for s in result.samples) == sorted(set(seen))

    def test_measured_once_per_key(self, live_route):
        if available_cores() < 2:
            pytest.skip("one core: nothing to measure")
        made = []

        def make_run():
            made.append(1)
            return lambda: None

        first = measured_blas_threads(("k", 1), make_run)
        assert 1 <= first <= available_cores()
        assert measured_blas_threads(("k", 1), make_run) == first
        measured_blas_threads(("k", 2), make_run)
        assert len(made) == 2

    def test_no_twin_no_single_core_no_live_pool_means_none(self, monkeypatch):
        assert measured_blas_threads("no-twin", lambda: None) is None
        monkeypatch.setattr(threads, "available_cores", lambda: 1)
        assert measured_blas_threads("one-core", lambda: (lambda: None)) is None

    def test_env_route_is_not_measured(self, env_route):
        assert measured_blas_threads("env", lambda: (lambda: None)) is None
