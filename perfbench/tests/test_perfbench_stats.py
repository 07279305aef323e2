import pytest

from pb.stats import median, percentile, tail_percentile


def test_percentile_interpolates_between_order_statistics():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 95) == pytest.approx(4.8)
    assert median([7.0]) == 7.0


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),  # even the median has only 9 samples above it
        (20, 50.0),
        (39, 50.0),
        (40, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (400, 95.0),  # p99 would have 4 samples beyond it
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, expected):
    samples = [float(k) for k in range(n)]
    tail = tail_percentile(samples)
    if expected is None:
        assert tail is None
        return
    assert tail["percentile"] == expected
    assert tail["samples"] == n
    assert tail["value"] == percentile(samples, expected)
    assert sum(v > tail["value"] for v in samples) >= 10
