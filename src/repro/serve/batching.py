"""The micro-batching queue: coalesce concurrent queries into one replay.

Single queries are the natural unit for clients, but the engine's unit
of throughput is the *batch*: one vectorized tape replay answers a whole
evidence batch for nearly the cost of one query. The
:class:`MicroBatcher` bridges the two — requests that agree on a
:class:`BatchKey` (circuit, workload kind, format) are gathered into a
bucket, executed as **one** ``evaluate_batch`` / ``marginals_batch`` /
``quantized_marginals_batch`` call on a worker thread, and the per-row
results are scattered back to each request's future.

When a bucket flushes depends on load, per key:

* **idle** — no batch for the key is executing, so the bucket flushes on
  the next event-loop tick. A lone request pays no window; requests
  submitted in the same tick (a pipelined burst read in one ``recv``)
  still coalesce.
* **window** — a batch for the key is already executing, so the bucket
  stays open for ``window`` seconds to gather the requests arriving
  meanwhile (the window opens only under load).
* **max_batch** — the bucket reached ``max_batch`` requests.
* **drain** — :meth:`MicroBatcher.drain` flushed it.

Each flush is recorded once, into the batcher's registry:
``problp_batch_size{circuit,kind}`` (``_count`` flushes, ``_sum``
requests), ``problp_batch_wait_seconds``, ``problp_batch_largest`` and
``problp_batch_flushes_total{kind,trigger}`` (one of the four triggers
above).

Error attribution: when a coalesced batch fails as a whole (one bad
evidence variable, one zero-probability instance), the batcher falls
back to per-request execution so each caller receives *its own* error —
a stranger's malformed query never poisons a neighbor's answer.
"""

from __future__ import annotations

import asyncio
import functools
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Sequence

from ..arith.fixedpoint import FixedPointFormat
from ..arith.floatingpoint import FloatFormat
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import now_us

AnyFormat = FixedPointFormat | FloatFormat

#: Coalescing window under load (a batch for the key is executing). Long
#: enough to gather the requests that arrive during a replay, short
#: enough to stay invisible next to one.
DEFAULT_BATCH_WINDOW = 0.002
DEFAULT_MAX_BATCH = 256


@dataclass(frozen=True)
class BatchKey:
    """What must agree for two requests to share one tape replay.

    Formats are frozen dataclasses carrying their rounding mode, so the
    key cleanly separates e.g. ``fixed:1:15`` nearest-even traffic from
    truncate traffic.
    """

    circuit: str
    kind: str  # "eval" | "marginals" | "theta"
    fmt: AnyFormat | None = None
    joint: bool = False


class MicroBatcher:
    """Coalesce per-key requests into batches; scatter results back.

    A bucket flushes on the next loop tick when no batch for its key is
    executing, after ``window`` seconds when one is, and at once when it
    holds ``max_batch`` requests. ``dispatch(key, requests)`` is the
    (blocking) batch executor — it runs on ``executor`` via
    ``run_in_executor`` and must return one result per request, in
    order. The batcher itself lives on the event
    loop: ``submit`` is the only entry point and must be awaited on the
    loop thread. ``registry`` receives the flush series (a fresh one
    by default).
    """

    def __init__(
        self,
        dispatch: Callable[[BatchKey, Sequence[Any]], Sequence[Any]],
        *,
        window: float = DEFAULT_BATCH_WINDOW,
        max_batch: int = DEFAULT_MAX_BATCH,
        executor=None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self._dispatch = dispatch
        self.window = window
        self.max_batch = max_batch
        self._executor = executor
        self._pending: dict[BatchKey, list[tuple]] = {}
        self._opened: dict[BatchKey, float] = {}
        #: The pending flush per open bucket: a next-tick handle (idle)
        #: or a window timer (under load).
        self._timers: dict[BatchKey, asyncio.Handle] = {}
        self._inflight: set[asyncio.Task] = set()
        #: Flushed batches still executing, per key.
        self._running: dict[BatchKey, int] = {}
        self.registry = registry if registry is not None else MetricsRegistry()
        self._wait_seconds = self.registry.histogram(
            "problp_batch_wait_seconds",
            "Time from a bucket's first request to its flush (coalesce wait).",
            labelnames=("kind",),
        )
        self._batch_size = self.registry.histogram(
            "problp_batch_size",
            "Requests coalesced into one flushed batch.",
            labelnames=("circuit", "kind"),
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
        )
        self._largest = self.registry.gauge(
            "problp_batch_largest",
            "Most requests coalesced into one flushed batch.",
            labelnames=("kind",),
        )
        self._flushes = self.registry.counter(
            "problp_batch_flushes_total",
            "Flushed batches by what flushed them (idle, window, "
            "max_batch, drain).",
            labelnames=("kind", "trigger"),
        )

    def submit(self, key: BatchKey, request: Any, trace=None) -> Awaitable[Any]:
        """Enqueue one request; resolves to its scattered result.

        A traced request (``trace`` is a :class:`repro.obs.tracing.Trace`)
        gets ``batch.wait`` / ``batch.execute`` / ``scatter`` spans
        stamped on it as its batch moves through the queue.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        bucket = self._pending.setdefault(key, [])
        wait_span = trace.span("batch.wait") if trace is not None else None
        bucket.append((request, future, trace, wait_span))
        if len(bucket) == 1:
            self._opened[key] = time.monotonic()
        if len(bucket) >= self.max_batch:
            self._flush(key, "max_batch")
        elif len(bucket) == 1:
            # First request of a fresh bucket: flush next tick when the
            # key is idle, open the window when a batch is executing.
            if self._running.get(key):
                self._timers[key] = loop.call_later(
                    self.window, self._flush, key, "window"
                )
            else:
                self._timers[key] = loop.call_soon(self._flush, key, "idle")
        return future

    def _flush(self, key: BatchKey, trigger: str) -> None:
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        batch = self._pending.pop(key, None)
        if not batch:
            return
        self._flushes.labels(key.kind, trigger).inc()
        opened = self._opened.pop(key)
        task = asyncio.ensure_future(self._run(key, batch, opened))
        self._inflight.add(task)
        self._running[key] = self._running.get(key, 0) + 1
        task.add_done_callback(functools.partial(self._settle, key))

    def _settle(self, key: BatchKey, task: asyncio.Task) -> None:
        self._inflight.discard(task)
        left = self._running.pop(key) - 1
        if left:
            self._running[key] = left

    async def _run(
        self, key: BatchKey, batch: list[tuple], opened: float
    ) -> None:
        loop = asyncio.get_running_loop()
        requests = [request for request, _, _, _ in batch]
        self._wait_seconds.labels(key.kind).observe(time.monotonic() - opened)
        self._batch_size.labels(key.circuit, key.kind).observe(len(requests))
        largest = self._largest.labels(key.kind)
        if len(requests) > largest.value:
            largest.set(len(requests))
        execute_start = now_us()
        for _, _, _, wait_span in batch:
            if wait_span is not None:
                wait_span.end(execute_start)
        try:
            results = await loop.run_in_executor(
                self._executor, self._dispatch, key, requests
            )
            execute_end = now_us()
            for _, _, trace, _ in batch:
                if trace is not None:
                    trace.span(
                        "batch.execute",
                        start_us=execute_start,
                        batch_size=len(requests),
                    ).end(execute_end)
            # strict: a dispatch returning the wrong count must fail
            # loudly (and per-request, below) — a silent zip truncation
            # would strand the trailing futures forever.
            for (_, future, trace, _), result in zip(
                batch, results, strict=True
            ):
                scatter = (
                    trace.span("scatter", start_us=execute_end)
                    if trace is not None else None
                )
                if not future.done():
                    future.set_result(result)
                if scatter is not None:
                    scatter.end()
        except Exception as error:  # noqa: BLE001 — mapped to wire errors
            if len(batch) == 1:
                _, future, _, _ = batch[0]
                if not future.done():
                    future.set_exception(error)
            else:
                # Attribute the failure: re-run each request alone so
                # only the offending ones error — concurrently, so the
                # innocent neighbors pay pool latency, not a serial
                # sweep of up to max_batch single-row replays.
                await asyncio.gather(
                    *(
                        self._fail_over(loop, key, request, future)
                        for request, future, _, _ in batch
                    )
                )

    async def _fail_over(
        self, loop, key: BatchKey, request: Any, future: asyncio.Future
    ) -> None:
        try:
            results = await loop.run_in_executor(
                self._executor, self._dispatch, key, [request]
            )
            (result,) = results
        except Exception as error:  # noqa: BLE001 — mapped to wire errors
            if not future.done():
                future.set_exception(error)
            return
        if not future.done():
            future.set_result(result)

    async def drain(self) -> None:
        """Flush every open bucket and wait for in-flight batches."""
        for key in list(self._pending):
            self._flush(key, "drain")
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)

    def close(self) -> None:
        """Cancel pending flushes and reject whatever is still queued."""
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        for batch in self._pending.values():
            for _, future, _, _ in batch:
                if not future.done():
                    future.cancel()
        self._pending.clear()
        self._opened.clear()
