import numpy as np

from perfbench import inputs, pretrain, serving
from perfbench.workloads import WORKLOADS


def test_pretrain_inputs_are_a_function_of_the_seed():
    for kind in ("sae", "dbn"):
        w = pretrain.PretrainWorkload(name="t", kind=kind, n_examples=40, epochs=(1, 1))
        a, b = pretrain.make_inputs(w, 3), pretrain.make_inputs(w, 3)
        assert a.shape == (40, pretrain.N_INPUTS)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, pretrain.make_inputs(w, 4))


def test_serving_payloads_and_schedules_are_a_function_of_the_seed():
    for name in ("serve_router_skewed", "serve_shard_busting"):
        w = WORKLOADS[name]
        a = serving.schedule(w, serving.phase_seed(5, 0), 500.0, 0.2)
        b = serving.schedule(w, serving.phase_seed(5, 0), 500.0, 0.2)
        c = serving.schedule(w, serving.phase_seed(6, 0), 500.0, 0.2)
        assert a == b and a != c
        due, keys = a
        assert due == sorted(due) and all(0 <= k < w.payload_pool for k in keys)


def test_patches_are_a_function_of_the_seed():
    a = inputs.patches(16, 5)
    assert a.shape == (16, inputs.N_INPUTS)
    assert np.array_equal(a, inputs.patches(16, 5))
    assert not np.array_equal(a, inputs.patches(16, 6))


def test_phase_seeds_differ_between_phases():
    assert serving.phase_seed(1, 0) != serving.phase_seed(1, 1)
    assert serving.phase_seed(1, 0) == serving.phase_seed(1, 0)
