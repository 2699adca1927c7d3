"""Unit tests for the micro-batching queue itself.

The end-to-end suites exercise the batcher through the server; these
tests pin down the queue's own contracts — the next-tick flush of an
idle key, window coalescing while a batch for the key executes, the
``max_batch`` early-flush boundary, drain-while-a-flush-is-in-flight,
and the per-request fail-over that keeps one bad query from poisoning
its batch neighbors.
"""

import asyncio
import threading
import time

import pytest

from repro.serve import BatchKey, MicroBatcher
from repro.serve.server import serve_snapshot

KEY = BatchKey(circuit="sprinkler", kind="eval")
OTHER = BatchKey(circuit="asia", kind="eval")


class RecordingDispatch:
    """A dispatch stub that logs every batch it receives."""

    def __init__(self, result=lambda request: request * 10):
        self.batches = []
        self.result = result
        self.release = threading.Event()
        self.release.set()
        self.entered = threading.Event()

    def __call__(self, key, requests):
        self.batches.append((key, list(requests)))
        self.entered.set()
        # Block here (when told to) to model a slow tape replay — the
        # event loop keeps running while the executor thread waits.
        assert self.release.wait(timeout=30)
        return [self.result(request) for request in requests]


class TestCoalescing:
    def test_window_coalesces_concurrent_submits(self):
        dispatch = RecordingDispatch()

        async def scenario():
            batcher = MicroBatcher(dispatch, window=0.02, max_batch=64)
            results = await asyncio.gather(
                batcher.submit(KEY, 1),
                batcher.submit(KEY, 2),
                batcher.submit(KEY, 3),
            )
            await batcher.drain()
            return results

        assert asyncio.run(scenario()) == [10, 20, 30]
        assert [requests for _, requests in dispatch.batches] == [[1, 2, 3]]

    def test_distinct_keys_never_share_a_batch(self):
        dispatch = RecordingDispatch()

        async def scenario():
            batcher = MicroBatcher(dispatch, window=0.02, max_batch=64)
            await asyncio.gather(
                batcher.submit(KEY, 1), batcher.submit(OTHER, 2)
            )
            await batcher.drain()

        asyncio.run(scenario())
        keys = {key for key, _ in dispatch.batches}
        assert keys == {KEY, OTHER}
        assert all(len(requests) == 1 for _, requests in dispatch.batches)

    def test_max_batch_flushes_early_without_waiting_the_window(self):
        dispatch = RecordingDispatch()

        async def scenario():
            # A window so long that only the max_batch trigger can
            # explain a flush inside the test timeout.
            batcher = MicroBatcher(dispatch, window=60.0, max_batch=4)
            results = await asyncio.wait_for(
                asyncio.gather(
                    *(batcher.submit(KEY, index) for index in range(4))
                ),
                timeout=10,
            )
            batcher.close()
            return results

        assert asyncio.run(scenario()) == [0, 10, 20, 30]
        assert [requests for _, requests in dispatch.batches] == [
            [0, 1, 2, 3]
        ]

    def test_submits_beyond_the_boundary_open_a_fresh_bucket(self):
        """max_batch + k submits → one full batch now, k after a window.

        The boundary race to pin: the (max_batch+1)-th request must not
        be silently absorbed into the already-flushed batch, nor starve
        with its timer eaten by the flush.
        """
        dispatch = RecordingDispatch()

        async def scenario():
            batcher = MicroBatcher(dispatch, window=0.02, max_batch=4)
            results = await asyncio.gather(
                *(batcher.submit(KEY, index) for index in range(6))
            )
            await batcher.drain()
            return results

        assert asyncio.run(scenario()) == [0, 10, 20, 30, 40, 50]
        assert [requests for _, requests in dispatch.batches] == [
            [0, 1, 2, 3],
            [4, 5],
        ]

    def test_stats_count_requests_and_batches(self):
        dispatch = RecordingDispatch()

        async def scenario():
            batcher = MicroBatcher(dispatch, window=0.01, max_batch=4)
            await asyncio.gather(
                *(batcher.submit(KEY, index) for index in range(5))
            )
            await batcher.drain()
            return batcher.registry

        registry = asyncio.run(scenario())
        stats = serve_snapshot(registry)["batching"]
        assert stats["requests"] == 5
        assert stats["batches"] == 2
        assert stats["largest_batch"] == 4
        assert stats["mean_batch"] == pytest.approx(2.5)
        (size,) = registry.get("problp_batch_size").collect()["samples"]
        assert size["labels"] == {"circuit": "sprinkler", "kind": "eval"}
        assert (size["count"], size["sum"]) == (2, 5)


def flush_counts(registry):
    """``problp_batch_flushes_total`` as {(kind, trigger): count}."""
    family = registry.get("problp_batch_flushes_total").collect()
    return {
        (sample["labels"]["kind"], sample["labels"]["trigger"]): sample["value"]
        for sample in family["samples"]
    }


class TestIdleFlush:
    def test_lone_submit_skips_the_window(self):
        dispatch = RecordingDispatch()

        async def scenario():
            # Only the idle flush can answer inside the timeout: the
            # window is a minute long.
            batcher = MicroBatcher(dispatch, window=60.0, max_batch=64)
            started = time.monotonic()
            result = await asyncio.wait_for(batcher.submit(KEY, 4), 10)
            elapsed = time.monotonic() - started
            await batcher.drain()
            return result, elapsed, batcher.registry

        result, elapsed, registry = asyncio.run(scenario())
        assert result == 40
        assert elapsed < 1.0
        assert flush_counts(registry) == {("eval", "idle"): 1}

    def test_submits_under_load_coalesce_in_the_window(self):
        """While batch 1 executes, later submits (each in its own loop
        tick) wait out one window and flush together."""
        dispatch = RecordingDispatch()
        dispatch.release.clear()

        async def scenario():
            loop = asyncio.get_running_loop()
            batcher = MicroBatcher(dispatch, window=0.2, max_batch=64)
            first = batcher.submit(KEY, 1)
            assert await loop.run_in_executor(
                None, dispatch.entered.wait, 5
            )
            later = []
            for request in (2, 3, 4):
                later.append(batcher.submit(KEY, request))
                await asyncio.sleep(0)
            dispatch.release.set()
            results = await asyncio.wait_for(
                asyncio.gather(first, *later), 10
            )
            await batcher.drain()
            return results, batcher.registry

        try:
            results, registry = asyncio.run(scenario())
        finally:
            dispatch.release.set()
        assert results == [10, 20, 30, 40]
        assert [requests for _, requests in dispatch.batches] == [
            [1],
            [2, 3, 4],
        ]
        assert flush_counts(registry) == {
            ("eval", "idle"): 1,
            ("eval", "window"): 1,
        }

    def test_same_tick_submits_still_coalesce_when_idle(self):
        dispatch = RecordingDispatch()

        async def scenario():
            batcher = MicroBatcher(dispatch, window=60.0, max_batch=64)
            results = await asyncio.wait_for(
                asyncio.gather(*(batcher.submit(KEY, i) for i in range(5))),
                10,
            )
            await batcher.drain()
            return results

        assert asyncio.run(scenario()) == [0, 10, 20, 30, 40]
        assert [requests for _, requests in dispatch.batches] == [
            [0, 1, 2, 3, 4]
        ]

    def test_close_in_the_submit_tick_cancels_the_idle_flush(self):
        dispatch = RecordingDispatch()

        async def scenario():
            batcher = MicroBatcher(dispatch, window=60.0, max_batch=64)
            future = batcher.submit(KEY, 3)
            batcher.close()
            # Give a surviving next-tick flush every chance to run.
            for _ in range(5):
                await asyncio.sleep(0)
            assert future.cancelled()
            return batcher.registry

        registry = asyncio.run(scenario())
        assert dispatch.batches == []
        assert flush_counts(registry) == {}

    def test_drain_resolves_a_pending_idle_flush(self):
        dispatch = RecordingDispatch()

        async def scenario():
            batcher = MicroBatcher(dispatch, window=60.0, max_batch=64)
            future = batcher.submit(KEY, 5)
            await batcher.drain()
            assert future.done()
            for _ in range(5):
                await asyncio.sleep(0)
            return await future, batcher.registry

        result, registry = asyncio.run(scenario())
        assert result == 50
        assert [requests for _, requests in dispatch.batches] == [[5]]
        assert flush_counts(registry) == {("eval", "drain"): 1}

    def test_max_batch_and_drain_triggers_are_counted(self):
        dispatch = RecordingDispatch()

        async def scenario():
            batcher = MicroBatcher(dispatch, window=60.0, max_batch=2)
            futures = [batcher.submit(KEY, i) for i in range(3)]
            # [0, 1] filled the bucket; [2] opened a window behind the
            # running batch, and only drain can flush it in time.
            await asyncio.wait_for(batcher.drain(), 10)
            return [await f for f in futures], batcher.registry

        results, registry = asyncio.run(scenario())
        assert results == [0, 10, 20]
        assert [requests for _, requests in dispatch.batches] == [[0, 1], [2]]
        assert flush_counts(registry) == {
            ("eval", "max_batch"): 1,
            ("eval", "drain"): 1,
        }


class TestDrain:
    def test_drain_waits_for_an_inflight_flush(self):
        """drain() must block on a batch already executing, not just
        flush open windows."""
        dispatch = RecordingDispatch()
        dispatch.release.clear()

        async def scenario():
            batcher = MicroBatcher(dispatch, window=0.001, max_batch=64)
            future = batcher.submit(KEY, 7)
            # Wait until the dispatch is genuinely on the executor
            # thread, stuck against the release gate.
            await asyncio.get_running_loop().run_in_executor(
                None, dispatch.entered.wait, 5
            )
            release = asyncio.get_running_loop().call_later(
                0.05, dispatch.release.set
            )
            try:
                await batcher.drain()
            finally:
                release.cancel()
                dispatch.release.set()
            # After drain, the submit's future must already be resolved.
            assert future.done()
            return await future

        assert asyncio.run(scenario()) == 70

    def test_drain_flushes_a_still_open_window(self):
        dispatch = RecordingDispatch()

        async def scenario():
            batcher = MicroBatcher(dispatch, window=60.0, max_batch=64)
            future = batcher.submit(KEY, 3)
            await batcher.drain()
            assert future.done()
            return await future

        assert asyncio.run(scenario()) == 30

    def test_close_cancels_queued_requests(self):
        dispatch = RecordingDispatch()

        async def scenario():
            batcher = MicroBatcher(dispatch, window=60.0, max_batch=64)
            future = batcher.submit(KEY, 3)
            batcher.close()
            with pytest.raises(asyncio.CancelledError):
                await future

        asyncio.run(scenario())
        assert dispatch.batches == []


class TestFailover:
    def test_one_bad_request_fails_alone(self):
        """A batch-wide failure re-runs per request: neighbors succeed,
        only the offender sees its error."""
        calls = []

        def dispatch(key, requests):
            calls.append(list(requests))
            if any(request == "bad" for request in requests):
                raise ValueError("poisoned batch")
            return [f"ok:{request}" for request in requests]

        async def scenario():
            batcher = MicroBatcher(dispatch, window=0.02, max_batch=64)
            results = await asyncio.gather(
                batcher.submit(KEY, "a"),
                batcher.submit(KEY, "bad"),
                batcher.submit(KEY, "b"),
                return_exceptions=True,
            )
            await batcher.drain()
            return results

        good_a, bad, good_b = asyncio.run(scenario())
        assert good_a == "ok:a"
        assert good_b == "ok:b"
        assert isinstance(bad, ValueError)
        # One coalesced attempt, then one single-request re-run each.
        assert calls[0] == ["a", "bad", "b"]
        assert sorted(
            tuple(batch) for batch in calls[1:]
        ) == [("a",), ("b",), ("bad",)]

    def test_single_request_failure_skips_the_rerun(self):
        calls = []

        def dispatch(key, requests):
            calls.append(list(requests))
            raise RuntimeError("always broken")

        async def scenario():
            batcher = MicroBatcher(dispatch, window=0.005, max_batch=64)
            with pytest.raises(RuntimeError):
                await batcher.submit(KEY, "only")
            await batcher.drain()

        asyncio.run(scenario())
        assert calls == [["only"]]
