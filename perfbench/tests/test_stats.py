"""Percentiles, the tail sample-count rule, self times and failure counts."""

import pytest

from problp_bench.stats import (
    Tally,
    covered_length,
    median,
    percentile,
    samples_needed,
    self_times,
    tail_supported,
    window_slices,
)


def test_nearest_rank_percentile():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    assert percentile([3, 1, 2], 50) == 2  # order does not matter


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_median_of_even_count_is_the_mean_of_the_middle_pair():
    assert median([4, 1, 3, 2]) == 2.5
    assert median([5, 1, 3]) == 3


def test_p99_needs_a_thousand_samples():
    assert samples_needed(99) == 1000
    assert samples_needed(50) == 20
    assert tail_supported(1000, 99)
    assert not tail_supported(999, 99)
    assert tail_supported(20, 50)
    assert not tail_supported(19, 50)


def test_window_slices_bucket_by_time_and_drop_outsiders():
    times = [10.0, 10.4, 11.0, 11.49, 12.6, 9.9, 13.1]
    assert window_slices(times, 10.0, 1.0, 3) == [[0, 1], [2, 3], [4]]


def test_covered_length_merges_overlaps_and_ignores_empty():
    assert covered_length([(0, 10), (5, 15), (20, 25), (30, 30)]) == 20
    assert covered_length([]) == 0
    assert covered_length([(10, 5)]) == 0


def _span(name, start, end, parent=None):
    span = {"name": name, "start_us": start, "end_us": end}
    if parent:
        span["parent"] = parent
    return span


def test_self_times_of_the_served_span_tree():
    spans = [
        _span("front.route", 0, 1000),
        _span("shard.replica", 100, 900, "front.route"),
        _span("batch.wait", 110, 400, "shard.replica"),
        _span("batch.execute", 400, 850, "shard.replica"),
        _span("scatter", 850, 860, "shard.replica"),
    ]
    own = self_times(spans)
    assert own["front.route"] == 1000 - 800
    assert own["shard.replica"] == 800 - (860 - 110)
    assert own["batch.wait"] == 290
    assert own["batch.execute"] == 450
    assert own["scatter"] == 10
    # Every microsecond of the root is attributed exactly once.
    assert sum(own.values()) == 1000


def test_self_times_clip_children_and_add_repeated_names():
    spans = [
        _span("front.route", 0, 100),
        _span("front.retry", 90, 130, "front.route"),  # ends past its parent
        _span("front.retry", 40, 50, "front.route"),
    ]
    own = self_times(spans)
    assert own["front.route"] == 100 - 10 - 10
    assert own["front.retry"] == 40 + 10


def test_tally_accounts_every_failure_kind():
    tally = Tally()
    tally.attempt(200)
    tally.fail("mismatch")
    tally.fail("overloaded", 3)
    tally.fail("no_answer", 0)  # nothing missing: no entry
    assert tally.failed == 4
    assert dict(tally.reasons) == {"mismatch": 1, "overloaded": 3}
    assert tally.fail_ratio == pytest.approx(0.02)
    assert tally.ok_ratio == pytest.approx(0.98)


def test_tally_with_nothing_attempted_is_a_total_failure():
    assert Tally().fail_ratio == 1.0
