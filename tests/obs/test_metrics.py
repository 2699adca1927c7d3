"""The metrics core: exact concurrent counting and Prometheus text.

The hot-path contract is the whole point of the per-thread-cell design:
``inc``/``observe`` never take a lock, yet after every worker joins the
snapshot must be *exact* — no sampled or approximate totals. The hammer
tests below drive 12 threads through shared counter and histogram
children and assert the totals to the last increment.
"""

from __future__ import annotations

import json
import math
import random
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    METRICS_SCHEMA_VERSION,
    MetricsRegistry,
    histogram_quantile,
    merge_families,
    render_prometheus,
    set_enabled,
)

THREADS = 12
PER_THREAD = 5_000


def _hammer(work) -> None:
    """Run ``work(thread_index)`` on THREADS threads through a barrier."""
    barrier = threading.Barrier(THREADS)
    errors: list[BaseException] = []

    def runner(index: int) -> None:
        try:
            barrier.wait()
            work(index)
        except BaseException as exc:  # pragma: no cover - debug aid
            errors.append(exc)

    threads = [
        threading.Thread(target=runner, args=(i,)) for i in range(THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


class TestCounterExactness:
    def test_threaded_increments_are_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("hammer_total", "hammered")

        def work(_index: int) -> None:
            for _ in range(PER_THREAD):
                counter.inc()

        _hammer(work)
        assert counter.value == THREADS * PER_THREAD

    def test_threaded_labeled_increments_are_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter(
            "labeled_total", "hammered", labelnames=("lane",)
        )
        # All threads bump both children — contention on the *family*,
        # not just private children.
        even, odd = counter.labels("even"), counter.labels("odd")

        def work(index: int) -> None:
            for step in range(PER_THREAD):
                (even if (index + step) % 2 == 0 else odd).inc(2)

        _hammer(work)
        assert even.value + odd.value == 2 * THREADS * PER_THREAD

    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("mono_total", "monotone")
        with pytest.raises(ValueError):
            counter.inc(-1)


class TestHistogramExactness:
    def test_threaded_observations_are_exact(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "lat_seconds", "latencies", buckets=(0.001, 0.01, 0.1, 1.0)
        )
        values = [0.0005, 0.005, 0.05, 0.5, 5.0]

        def work(index: int) -> None:
            for step in range(PER_THREAD):
                hist.observe(values[(index + step) % len(values)])

        _hammer(work)
        cumulative, total, count = hist.snapshot()
        expected_count = THREADS * PER_THREAD
        assert count == expected_count
        # The +Inf bucket is implicit: cumulative finite buckets end
        # below the total count exactly by the overflow observations.
        per_value = expected_count // len(values)
        assert cumulative == [
            per_value, 2 * per_value, 3 * per_value, 4 * per_value
        ]
        assert total == pytest.approx(
            per_value * sum(values), rel=1e-9
        )

    def test_bucket_sums_equal_observation_count(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h_seconds", "h")
        for value in (0.0, 1e-5, 0.02, 3.0, 99.0):
            hist.observe(value)
        cumulative, _total, count = hist.snapshot()
        assert count == 5
        assert len(cumulative) == len(DEFAULT_BUCKETS)
        # Cumulative buckets are monotone and bounded by the count.
        assert all(
            a <= b for a, b in zip(cumulative, cumulative[1:])
        )
        assert cumulative[-1] <= count


class TestHistogramQuantile:
    """Prometheus ``histogram_quantile`` interpolation over the buckets."""

    @staticmethod
    def _quantile(hist, q):
        (sample,) = hist.collect()["samples"]
        return histogram_quantile(q, sample["buckets"], sample["count"])

    @staticmethod
    def _bucket_of(value, bounds=DEFAULT_BUCKETS):
        """``(lower, upper]`` of the bucket ``observe(value)`` lands in."""
        index = next(
            (i for i, bound in enumerate(bounds) if value <= bound),
            len(bounds),
        )
        lower = 0.0 if index == 0 else bounds[index - 1]
        upper = bounds[index] if index < len(bounds) else bounds[-1]
        return lower, upper

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_estimate_lies_in_the_nearest_rank_bucket(self, seed):
        rng = random.Random(seed)
        samples = [rng.lognormvariate(math.log(0.004), 1.2)
                   for _ in range(rng.randint(50, 2000))]
        hist = MetricsRegistry().histogram("lat_seconds", "latencies")
        for value in samples:
            hist.observe(value)
        ordered = sorted(samples)
        estimates = {}
        for q in (0.50, 0.99):
            exact = ordered[math.ceil(q * len(ordered)) - 1]
            lower, upper = self._bucket_of(exact)
            estimates[q] = self._quantile(hist, q)
            assert lower <= estimates[q] <= upper, (q, exact, estimates[q])
        assert estimates[0.99] >= estimates[0.50]

    def test_empty_histogram_has_no_quantile(self):
        hist = MetricsRegistry().histogram("lat_seconds", "latencies")
        assert self._quantile(hist, 0.5) is None
        assert histogram_quantile(0.99, [], 0) is None

    def test_single_sample_interpolates_inside_its_bucket(self):
        hist = MetricsRegistry().histogram("lat_seconds", "latencies")
        hist.observe(0.003)  # the (0.0025, 0.005] bucket
        assert self._quantile(hist, 0.5) == pytest.approx(0.00375)
        assert self._quantile(hist, 0.99) == pytest.approx(0.004975)

    def test_overflow_rank_answers_the_largest_finite_bound(self):
        hist = MetricsRegistry().histogram(
            "lat_seconds", "latencies", buckets=(0.1, 1.0)
        )
        for value in (0.05, 7.0, 9.0):
            hist.observe(value)
        assert self._quantile(hist, 0.99) == 1.0


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", "x")
        b = registry.counter("x_total", "x")
        assert a is b

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "x")
        with pytest.raises(ValueError):
            registry.gauge("x_total", "x")

    def test_labelname_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "x", labelnames=("a",))
        with pytest.raises(ValueError):
            registry.counter("x_total", "x", labelnames=("b",))

    def test_invalid_metric_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad-name", "dashes are not prometheus")

    def test_collector_callback_families_merge_in(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "a").inc()
        registry.register_collector(
            lambda: [
                {
                    "name": "b_gauge",
                    "type": "gauge",
                    "help": "b",
                    "samples": [{"labels": {}, "value": 7.0}],
                }
            ]
        )
        names = {family["name"] for family in registry.collect()}
        assert names == {"a_total", "b_gauge"}

    def test_collect_is_json_round_trippable(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "a", labelnames=("k",)).labels("v").inc()
        registry.histogram("h_seconds", "h").observe(0.5)
        registry.gauge("g", "g").set(1.5)
        families = registry.collect()
        assert json.loads(json.dumps(families)) == families

    def test_disable_skips_bumps(self):
        registry = MetricsRegistry()
        counter = registry.counter("toggled_total", "t")
        counter.inc()
        set_enabled(False)
        try:
            counter.inc(100)
        finally:
            set_enabled(True)
        counter.inc()
        assert counter.value == 2

    def test_gauge_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth", "d", labelnames=("k",))
        child = gauge.labels("a")
        child.inc()
        child.inc(3)
        child.dec()
        assert child.value == 3.0


class TestRenderer:
    def test_prometheus_text_shape(self):
        registry = MetricsRegistry()
        registry.counter(
            "req_total", "requests", labelnames=("op",)
        ).labels("eval").inc(3)
        registry.histogram(
            "dur_seconds", "durations", buckets=(0.1, 1.0)
        ).observe(0.5)
        text = registry.render()
        assert "# HELP req_total requests\n" in text
        assert "# TYPE req_total counter\n" in text
        assert 'req_total{op="eval"} 3\n' in text
        assert 'dur_seconds_bucket{le="0.1"} 0\n' in text
        assert 'dur_seconds_bucket{le="1"} 1\n' in text
        assert 'dur_seconds_bucket{le="+Inf"} 1\n' in text
        assert "dur_seconds_sum 0.5\n" in text
        assert "dur_seconds_count 1\n" in text

    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        registry.counter(
            "esc_total", "escapes", labelnames=("why",)
        ).labels('quote " slash \\ newline \n').inc()
        text = registry.render()
        assert '\\"' in text and "\\\\" in text and "\\n" in text

    def test_merge_families_tags_workers(self):
        def families(value):
            return [
                {
                    "name": "up",
                    "type": "gauge",
                    "help": "u",
                    "samples": [{"labels": {}, "value": value}],
                }
            ]

        merged = merge_families(
            [
                (families(1.0), {"shard": "0", "replica": "0"}),
                (families(2.0), {"shard": "0", "replica": "1"}),
            ]
        )
        (family,) = merged
        labels = sorted(
            tuple(sorted(sample["labels"].items()))
            for sample in family["samples"]
        )
        assert labels == [
            (("replica", "0"), ("shard", "0")),
            (("replica", "1"), ("shard", "0")),
        ]
        # Merged families still render as one valid exposition.
        assert 'up{' in render_prometheus(merged)

    def test_schema_version_is_stamped(self):
        assert isinstance(METRICS_SCHEMA_VERSION, int)
        assert METRICS_SCHEMA_VERSION >= 1
