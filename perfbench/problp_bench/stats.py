"""Small, dependency-free arithmetic behind every reported number."""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Mapping, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it.
TAIL_SAMPLES = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in (0, 100]) of non-empty values."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def samples_needed(pct: float) -> int:
    """Fewest samples that leave :data:`TAIL_SAMPLES` beyond ``pct``."""
    return math.ceil(TAIL_SAMPLES / (1.0 - pct / 100.0) - 1e-9)


def tail_supported(count: int, pct: float) -> bool:
    """True when ``count`` samples leave at least ten beyond ``pct``."""
    return count * (1.0 - pct / 100.0) >= TAIL_SAMPLES - 1e-9


def median(values: Sequence[float]) -> float:
    """The middle value (mean of the two middle ones for even counts)."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def window_slices(
    times: Sequence[float], start: float, width: float, count: int
) -> list[list[int]]:
    """Indices of the events in each of ``count`` windows of ``width``.

    Window ``k`` holds the events with ``start + k*width <= t <
    start + (k+1)*width``; events outside every window are dropped.
    """
    slices: list[list[int]] = [[] for _ in range(count)]
    for index, moment in enumerate(times):
        slot = math.floor((moment - start) / width)
        if 0 <= slot < count:
            slices[slot].append(index)
    return slices


def covered_length(intervals: Iterable[tuple[int, int]]) -> int:
    """Length of the union of half-open ``(start, end)`` intervals."""
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Mapping]) -> dict[str, int]:
    """Per span name: duration minus the part its children cover.

    ``spans`` are wire span dicts (``name``, ``start_us``, ``end_us``,
    optional ``parent`` naming the parent span). Child intervals are
    clipped to the parent's; names that repeat (a retried hop) add up.
    """
    totals: dict[str, int] = {}
    for span in spans:
        start, end = span["start_us"], span["end_us"]
        children = [
            (max(child["start_us"], start), min(child["end_us"], end))
            for child in spans
            if child is not span and child.get("parent") == span["name"]
        ]
        own = (end - start) - covered_length(children)
        totals[span["name"]] = totals.get(span["name"], 0) + own
    return totals


class Tally:
    """Operations attempted and failed, with a reason for each failure.

    A failure is anything a user would not accept: a transport or server
    error, a refused (``overloaded``) request, an answer that differs from
    the direct engine call, or a design whose measured error exceeds the
    bound or whose hardware is not equivalent.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.reasons: Counter[str] = Counter()

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, count: int = 1) -> None:
        if count:
            self.reasons[reason] += count

    @property
    def failed(self) -> int:
        return sum(self.reasons.values())

    @property
    def fail_ratio(self) -> float:
        if self.attempted == 0:
            return 1.0
        return min(1.0, self.failed / self.attempted)

    @property
    def ok_ratio(self) -> float:
        return 1.0 - self.fail_ratio
