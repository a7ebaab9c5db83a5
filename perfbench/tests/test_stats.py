import math
import statistics

import numpy as np
import pytest

from perfbench.stats import (
    MIN_BEYOND,
    conserved,
    percentile,
    samples_beyond,
    spread,
    summary,
    supports,
)


@pytest.mark.parametrize("n", [1, 2, 7, 100, 1001])
@pytest.mark.parametrize("q", [0.0, 25.0, 50.0, 90.0, 99.0, 100.0])
def test_percentile_matches_numpy_linear(n, q):
    values = np.random.default_rng(n).exponential(size=n)
    assert percentile(values, q) == pytest.approx(np.percentile(values, q), rel=1e-12)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50.0)
    with pytest.raises(ValueError):
        percentile([1.0], 101.0)


@pytest.mark.parametrize("n,q,beyond", [
    (100, 90.0, 10), (99, 90.0, 9), (1000, 99.0, 10), (999, 99.0, 9),
    (0, 50.0, 0), (10, 50.0, 5),
])
def test_samples_beyond(n, q, beyond):
    assert samples_beyond(n, q) == beyond
    assert supports(n, q) == (beyond >= MIN_BEYOND)


def test_summary_carries_sample_count():
    s = summary([3.0, 1.0, 2.0], 90.0)
    assert s["n"] == 3 and s["p50"] == 2.0
    assert s["tail"] == pytest.approx(2.8)
    assert not s["tail_supported"]
    assert summary(list(range(1000)), 99.0)["tail_supported"]


def test_summary_of_nothing_is_zero_with_n_zero():
    assert summary([], 99.0) == {"p50": 0.0, "tail": 0.0, "n": 0, "tail_supported": False}


def test_spread_is_iqr_over_median():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 12.0, 8.0, 10.0, 10.0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / med)
    assert spread([5.0, 5.0, 5.0]) == 0.0
    assert math.isinf(spread([-1.0, 0.0, 1.0]))


def test_conservation():
    assert conserved(10, 7, 2, 1)
    assert not conserved(10, 7, 2, 0)
    assert not conserved(10, 8, 2, 1)
