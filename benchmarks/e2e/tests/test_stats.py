import pytest

from benchmarks.e2e.stats import TooFewSamples, latency_ms, percentile


def test_percentile_is_nearest_rank():
    samples = list(range(1, 1001))  # 1..1000
    assert percentile(samples, 50) == 500
    assert percentile(samples, 99) == 990
    assert percentile(samples, 90) == 900
    # 99.9 of 1000 is rank 999: one sample beyond, far fewer than ten.
    with pytest.raises(TooFewSamples):
        percentile(samples, 99.9)


def test_percentile_refuses_fewer_than_ten_beyond():
    # p99 needs rank <= n - 10: 1000 samples leave exactly ten, 999 leave nine.
    assert percentile(list(range(1000)), 99) == 989
    with pytest.raises(TooFewSamples):
        percentile(list(range(999)), 99)
    with pytest.raises(TooFewSamples):
        percentile([], 50)
    # The self-tests' own escape hatch: an explicit smaller requirement.
    assert percentile(list(range(100)), 99, min_beyond=0) == 98


def test_latency_ms_sorts_and_converts():
    assert latency_ms([0.003, 0.001, 0.002] * 10, (50,))[50] == 2.0
