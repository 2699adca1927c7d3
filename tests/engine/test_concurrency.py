"""Concurrent-access regression tests for the session's compiled caches.

The serving layer runs batch flushes and optimize/hw work on a thread
pool against shared :class:`InferenceSession` objects. These tests
hammer the memoization paths (tape, analysis, executors, backends,
marginal index) from many threads at once and check both that exactly
one artifact is built per cache key and that concurrent results are
bit-identical to single-threaded ones.
"""

import threading

import numpy as np
import pytest

from repro.ac.transform import binarize
from repro.arith import FixedPointFormat, FloatFormat
from repro.bn.networks import sprinkler_network
from repro.compile import compile_network
from repro.engine import InferenceSession, KeyedMemo, session_for

FIXED = FixedPointFormat(4, 16)
FLOAT = FloatFormat(8, 14)

BATCH = [{}, {"Rain": 1}, {"Sprinkler": 1, "Rain": 0}, {"WetGrass": 1}]


@pytest.fixture()
def fresh_binary():
    # A fresh circuit per test so every memoization path starts cold.
    return binarize(compile_network(sprinkler_network()).circuit).circuit


def _run_threads(worker, count=12):
    barrier = threading.Barrier(count)
    errors = []

    def wrapped(index):
        try:
            barrier.wait(timeout=30)
            worker(index)
        except BaseException as error:  # noqa: BLE001 — surfaced below
            errors.append(error)

    threads = [
        threading.Thread(target=wrapped, args=(index,))
        for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors, errors


class TestConcurrentMemoization:
    def test_session_for_returns_one_session(self, fresh_binary):
        sessions = []

        def worker(_index):
            sessions.append(session_for(fresh_binary))

        _run_threads(worker)
        assert len({id(session) for session in sessions}) == 1

    def test_executor_caches_build_once(self, fresh_binary):
        session = InferenceSession(fresh_binary)

        def worker(_index):
            session._vector_executor(FIXED)
            session._vector_executor(FLOAT)
            session._backend(FIXED)
            _ = session.marginal_index
            _ = session.analysis
            _ = session._scalar_quantized

        _run_threads(worker)
        assert len(session._executors) == 2  # one per format
        assert len(session._backends) == 1


class TestKeyedMemo:
    """Direct coverage of the shared memo utility (PR 6 folded the five
    hand-copied double-checked-locking sites into it)."""

    def test_builds_once_per_key_under_contention(self):
        memo = KeyedMemo()
        builds = []

        def worker(index):
            key = index % 3
            value = memo.get(key, lambda: builds.append(key) or object())
            assert value is memo.peek(key)

        _run_threads(worker)
        # Racing threads may each run build() (it runs outside the
        # lock), but every key converges on exactly one installed value.
        assert len(memo) == 3
        assert set(memo.keys()) == {0, 1, 2}

    def test_first_install_wins(self):
        memo = KeyedMemo()
        first = memo.get("k", lambda: "first")
        second = memo.get("k", lambda: "second")
        assert first == second == "first"
        assert memo["k"] == "first"

    def test_fresh_predicate_triggers_rebuild(self):
        memo = KeyedMemo()
        memo.get("k", lambda: {"version": 1})
        # Still fresh → cached value survives, build not called.
        value = memo.get(
            "k",
            lambda: pytest.fail("build must not run for fresh value"),
            fresh=lambda v: v["version"] == 1,
        )
        assert value["version"] == 1
        # Stale → rebuilt and replaced.
        rebuilt = memo.get(
            "k", lambda: {"version": 2}, fresh=lambda v: v["version"] == 2
        )
        assert rebuilt["version"] == 2
        assert memo["k"] is rebuilt

    def test_weak_keys_do_not_leak(self):
        import gc

        class Key:
            pass

        memo = KeyedMemo(weak=True)
        key = Key()
        memo.get(key, lambda: "artifact")
        assert key in memo
        del key
        gc.collect()
        assert len(memo) == 0

    def test_none_build_rejected(self):
        memo = KeyedMemo()
        with pytest.raises(ValueError, match="must not return None"):
            memo.get("k", lambda: None)
        assert "k" not in memo

    def test_discard_and_clear(self):
        memo = KeyedMemo()
        memo.get("a", lambda: 1)
        memo.get("b", lambda: 2)
        memo.discard("a")
        memo.discard("missing")  # no-op
        assert "a" not in memo and "b" in memo
        memo.clear()
        assert len(memo) == 0
        with pytest.raises(KeyError):
            memo["b"]

    def test_concurrent_distinct_keys_build_in_parallel(self):
        # Two builders that each wait for the other to *start* building:
        # deadlocks (and times out) if construction held the memo lock.
        memo = KeyedMemo()
        started = threading.Barrier(2)

        def build(tag):
            started.wait(timeout=30)
            return tag

        results = {}

        def worker(index):
            tag = f"value-{index}"
            results[index] = memo.get(index, lambda: build(tag))

        _run_threads(worker, count=2)
        assert results == {0: "value-0", 1: "value-1"}


class TestConcurrentResults:
    def test_concurrent_sweeps_bit_identical(self, fresh_binary):
        session = InferenceSession(fresh_binary)
        expected_exact = session.evaluate_batch(BATCH, strict=True)
        expected_fixed = session.evaluate_quantized_batch(
            FIXED, BATCH, strict=True
        )
        expected_float = session.evaluate_quantized_batch(
            FLOAT, BATCH, strict=True
        )
        expected_marginals = session.marginals_batch(BATCH, strict=True)
        expected_quant_marginals = session.quantized_marginals_batch(
            FIXED, BATCH, strict=True
        )

        # A second cold session shared by every thread: all memoization
        # happens under contention, results must not change.
        shared = InferenceSession(
            binarize(compile_network(sprinkler_network()).circuit).circuit
        )

        def worker(index):
            lane = index % 4
            if lane == 0:
                got = shared.evaluate_batch(BATCH, strict=True)
                assert (got == expected_exact).all()
            elif lane == 1:
                got = shared.evaluate_quantized_batch(
                    FIXED, BATCH, strict=True
                )
                assert (got == expected_fixed).all()
            elif lane == 2:
                got = shared.evaluate_quantized_batch(
                    FLOAT, BATCH, strict=True
                )
                assert (got == expected_float).all()
            else:
                got = shared.marginals_batch(BATCH, strict=True)
                for variable in expected_marginals:
                    assert (
                        got[variable] == expected_marginals[variable]
                    ).all()
                quantized = shared.quantized_marginals_batch(
                    FIXED, BATCH, strict=True
                )
                for variable in expected_quant_marginals:
                    assert (
                        quantized[variable]
                        == expected_quant_marginals[variable]
                    ).all()

        _run_threads(worker)

    def test_scalar_quantized_param_tables_under_contention(
        self, fresh_binary
    ):
        # Wide format → the scalar big-int path and its per-backend
        # parameter memoization.
        wide = FixedPointFormat(8, 40)
        session = InferenceSession(fresh_binary)
        assert not session.supports_vectorized(wide)
        expected = session.evaluate_quantized_batch(wide, BATCH)
        shared = InferenceSession(
            binarize(compile_network(sprinkler_network()).circuit).circuit
        )

        def worker(_index):
            got = shared.evaluate_quantized_batch(wide, BATCH)
            assert (np.asarray(got) == np.asarray(expected)).all()

        _run_threads(worker, count=8)
