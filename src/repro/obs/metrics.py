"""Process-wide metrics registry: counters, gauges, histograms.

This is the one metrics system of the project: the engine and the serve
layer both record here.  The hot path does only GIL-cheap work, all
derived math (rates, means, quantiles) happens at snapshot time, and
concurrent bumps stay *exact*:

* Every counter/histogram child keeps one mutable cell **per thread**
  (``threading.local``).  A bump is an unshared ``cell.value += n`` —
  no lock, no contention, no lost updates — and a snapshot sums the
  cells.  Totals are therefore exact once the bumping threads are
  quiescent (the 12-thread hammer test pins this).
* Gauges are last-write-wins (``set``, or ``inc``/``dec`` from a single
  writer thread) or computed at snapshot time (``set_function``); they
  carry no per-thread state.
* Histograms use fixed upper bounds chosen at registration.  A bump
  is a ``bisect`` plus three cell increments; cumulative bucket counts
  (the Prometheus convention) are computed only when snapshotting, and
  :func:`histogram_quantile` estimates quantiles from them.

Snapshots are plain JSON-safe dicts ("families") so they can ride the
ndJSON serving protocol unchanged; :func:`render_prometheus` turns a
family list into Prometheus text exposition format (version 0.0.4).

Everything here is stdlib-only.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections.abc import Iterable, Mapping

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "enabled",
    "histogram_quantile",
    "merge_families",
    "render_prometheus",
    "set_enabled",
]

#: Version of the snapshot ("family") wire format.  Bumped whenever the
#: shape of ``MetricsRegistry.collect()`` output changes; surfaced by
#: the ``ping`` op so scrapers can detect mismatched fleets.
METRICS_SCHEMA_VERSION = 1

# Process-wide enable flag.  ``set_enabled(False)`` turns every bump
# into a near-free early return; used by the overhead benchmark to
# measure the instrumented-vs-uninstrumented served p50 delta in one
# process.
_ENABLED = True

# Default histogram bounds: 100us .. 10s, roughly log-spaced.  Suits
# both native-kernel executions (sub-millisecond) and cc compiles
# (seconds).
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def set_enabled(flag):
    """Globally enable/disable metric collection (hot paths early-out)."""
    global _ENABLED
    _ENABLED = bool(flag)


def enabled():
    return _ENABLED


class _Cell:
    """One thread's private accumulator for a counter child."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0


class _HistCell:
    """One thread's private accumulator for a histogram child."""

    __slots__ = ("buckets", "count", "total")

    def __init__(self, nbuckets):
        self.buckets = [0] * nbuckets  # per-bound, NOT cumulative
        self.count = 0
        self.total = 0.0


class _Child:
    """Shared plumbing: a lock-guarded list of per-thread cells."""

    __slots__ = ("_cells", "_local", "_lock")

    def __init__(self):
        self._cells = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _cell(self):
        try:
            return self._local.cell
        except AttributeError:
            cell = self._new_cell()
            with self._lock:
                self._cells.append(cell)
            self._local.cell = cell
            return cell


class _CounterChild(_Child):
    __slots__ = ()

    def _new_cell(self):
        return _Cell()

    def inc(self, amount=1):
        if not _ENABLED:
            return
        if amount < 0:
            raise ValueError("counters can only go up")
        self._cell().value += amount

    @property
    def value(self):
        with self._lock:
            cells = list(self._cells)
        return sum(cell.value for cell in cells)


class _GaugeChild:
    __slots__ = ("_fn", "_value")

    def __init__(self):
        self._value = 0.0
        self._fn = None

    def set(self, value):
        if not _ENABLED:
            return
        self._value = float(value)

    def inc(self, amount=1):
        """Add ``amount``; a read-modify-write, so one writer thread only."""
        if not _ENABLED:
            return
        self._value += amount

    def dec(self, amount=1):
        self.inc(-amount)

    def set_function(self, fn):
        """Compute the gauge at snapshot time via ``fn()``."""
        self._fn = fn

    @property
    def value(self):
        if self._fn is not None:
            return float(self._fn())
        return self._value


class _HistogramChild(_Child):
    __slots__ = ("_bounds",)

    def __init__(self, bounds):
        super().__init__()
        self._bounds = bounds

    def _new_cell(self):
        return _HistCell(len(self._bounds) + 1)

    def observe(self, value):
        if not _ENABLED:
            return
        cell = self._cell()
        cell.buckets[bisect_left(self._bounds, value)] += 1
        cell.count += 1
        cell.total += value

    def snapshot(self):
        """``(cumulative_finite_buckets, total, count)`` summed over cells."""
        with self._lock:
            cells = list(self._cells)
        merged = [0] * (len(self._bounds) + 1)
        total = 0.0
        count = 0
        for cell in cells:
            for i, n in enumerate(cell.buckets):
                merged[i] += n
            total += cell.total
            count += cell.count
        cumulative = []
        running = 0
        for n in merged[:-1]:  # the +Inf bucket is implied by ``count``
            running += n
            cumulative.append(running)
        return cumulative, total, count


class _Metric:
    """A named family: label names plus one child per label-value tuple."""

    def __init__(self, name, help, labelnames):
        _validate_name(name)
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        for label in self.labelnames:
            _validate_name(label)
        self._children = {}
        self._children_lock = threading.Lock()
        self._default = self._make_child() if not self.labelnames else None

    def labels(self, *values, **kwargs):
        if kwargs:
            if values:
                raise ValueError("pass label values or kwargs, not both")
            values = tuple(kwargs[name] for name in self.labelnames)
        values = tuple(str(v) for v in values)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {values}"
            )
        child = self._children.get(values)
        if child is None:
            with self._children_lock:
                child = self._children.get(values)
                if child is None:
                    child = self._make_child()
                    self._children[values] = child
        return child

    def _only_default(self):
        if self._default is None:
            raise ValueError(f"{self.name} requires .labels(...)")
        return self._default

    def _sample(self, labels, child):
        return {"labels": labels, "value": child.value}

    def _items(self):
        if self._default is not None:
            return [((), self._default)]
        with self._children_lock:
            return sorted(self._children.items())

    def collect(self):
        """JSON-safe family dict (the ``metrics`` op wire format)."""
        samples = []
        for values, child in self._items():
            samples.append(self._sample(dict(zip(self.labelnames, values)),
                                         child))
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "samples": samples,
        }


class Counter(_Metric):
    kind = "counter"

    def _make_child(self):
        return _CounterChild()

    def inc(self, amount=1):
        self._only_default().inc(amount)

    @property
    def value(self):
        return self._only_default().value


class Gauge(_Metric):
    kind = "gauge"

    def _make_child(self):
        return _GaugeChild()

    def set(self, value):
        self._only_default().set(value)

    def set_function(self, fn):
        self._only_default().set_function(fn)

    @property
    def value(self):
        return self._only_default().value


class Histogram(_Metric):
    kind = "histogram"

    def __init__(self, name, help, labelnames=(), buckets=DEFAULT_BUCKETS):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self._bounds = bounds
        super().__init__(name, help, labelnames)

    def _make_child(self):
        return _HistogramChild(self._bounds)

    def _sample(self, labels, child):
        cumulative, total, count = child.snapshot()
        return {
            "labels": labels,
            "buckets": [
                [bound, n] for bound, n in zip(self._bounds, cumulative)
            ],
            "sum": total,
            "count": count,
        }

    def observe(self, value):
        self._only_default().observe(value)

    def snapshot(self):
        """``(cumulative_finite_buckets, sum, count)`` of the default
        (unlabeled) child."""
        return self._only_default().snapshot()


class MetricsRegistry:
    """Named metrics plus snapshot-time collector callbacks.

    ``counter``/``gauge``/``histogram`` are get-or-create: repeated
    registration with the same name returns the same object (and raises
    if the type or labels disagree), so module-level instrumentation in
    the engine can run under re-import and in any order.

    Collectors are zero-arg callables returning an iterable of family
    dicts, evaluated only at :meth:`collect` time — each server keeps
    its series in a registry of its own and plugs that registry's
    ``collect`` into :data:`REGISTRY` this way, so serial in-process
    servers never share counts.
    """

    def __init__(self):
        self._metrics = {}
        self._collectors = []
        self._lock = threading.Lock()

    def counter(self, name, help="", labelnames=()):
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name, help="", labelnames=()):
        return self._register(Gauge, name, help, labelnames)

    def histogram(self, name, help="", labelnames=(), buckets=DEFAULT_BUCKETS):
        return self._register(Histogram, name, help, labelnames,
                              buckets=buckets)

    def _register(self, cls, name, help, labelnames, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or (
                    existing.labelnames != tuple(labelnames)
                ):
                    raise ValueError(
                        f"metric {name!r} already registered with a "
                        "different type or label set"
                    )
                return existing
            metric = cls(name, help, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def get(self, name):
        with self._lock:
            return self._metrics.get(name)

    def register_collector(self, fn):
        with self._lock:
            self._collectors.append(fn)
        return fn

    def unregister_collector(self, fn):
        with self._lock:
            try:
                self._collectors.remove(fn)
            except ValueError:
                pass

    def collect(self):
        """All families (registered metrics + collectors), name-sorted."""
        with self._lock:
            metrics = list(self._metrics.values())
            collectors = list(self._collectors)
        families = [metric.collect() for metric in metrics]
        for fn in collectors:
            families.extend(fn())
        return sorted(families, key=lambda fam: fam["name"])

    def render(self):
        return render_prometheus(self.collect())


def histogram_quantile(q, buckets, count):
    """Estimate the ``q`` quantile (``0 < q <= 1``) of a histogram.

    ``buckets`` is a sample's ``[[upper_bound, cumulative_count], ...]``
    over the finite bounds and ``count`` its total (the ``+Inf``
    bucket).  Prometheus ``histogram_quantile`` semantics: find the
    bucket holding rank ``q * count`` and interpolate linearly inside
    it (the first bucket starts at 0); a rank in the ``+Inf`` bucket
    answers the largest finite bound.  ``None`` for an empty histogram.
    """
    if not count:
        return None
    rank = q * count
    lower, below = 0.0, 0
    for bound, cumulative in buckets:
        if cumulative >= rank:  # so below < rank <= cumulative
            fraction = (rank - below) / (cumulative - below)
            return lower + (bound - lower) * fraction
        lower, below = bound, cumulative
    return lower


def merge_families(tagged: Iterable[tuple[Iterable[Mapping], Mapping]]):
    """Merge several family lists, tagging each list's samples.

    ``tagged`` is ``[(families, extra_labels), ...]``.  Same-name
    families concatenate their samples; each sample gains its list's
    ``extra_labels``.  This is how the sharded front merges replica
    snapshots: labeled concatenation (``shard=…, replica=…``) is a
    lossless Prometheus merge, unlike summing gauges.
    """
    merged: dict[str, dict] = {}
    for families, extra in tagged:
        extra = dict(extra)
        for family in families:
            slot = merged.get(family["name"])
            if slot is None:
                slot = {
                    "name": family["name"],
                    "type": family["type"],
                    "help": family.get("help", ""),
                    "samples": [],
                }
                merged[family["name"]] = slot
            for sample in family["samples"]:
                sample = dict(sample)
                sample["labels"] = {**extra, **sample.get("labels", {})}
                slot["samples"].append(sample)
    return [merged[name] for name in sorted(merged)]


def render_prometheus(families: Iterable[Mapping]) -> str:
    """Render family dicts as Prometheus text exposition (0.0.4)."""
    lines = []
    for family in families:
        name = family["name"]
        _validate_name(name)
        if family.get("help"):
            lines.append(f"# HELP {name} {_escape_help(family['help'])}")
        lines.append(f"# TYPE {name} {family['type']}")
        for sample in family["samples"]:
            labels = sample.get("labels", {})
            if family["type"] == "histogram":
                count = sample["count"]
                for bound, cum in sample["buckets"]:
                    lines.append(_line(
                        name + "_bucket",
                        {**labels, "le": _format_value(bound)},
                        cum,
                    ))
                lines.append(_line(name + "_bucket",
                                   {**labels, "le": "+Inf"}, count))
                lines.append(_line(name + "_sum", labels, sample["sum"]))
                lines.append(_line(name + "_count", labels, count))
            else:
                lines.append(_line(name, labels, sample["value"]))
    return "\n".join(lines) + "\n" if lines else ""


def _line(name, labels, value):
    if labels:
        body = ",".join(
            f'{key}="{_escape_label(str(labels[key]))}"'
            for key in sorted(labels)
        )
        return f"{name}{{{body}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


def _format_value(value):
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _escape_label(value):
    return (value.replace("\\", "\\\\")
                 .replace("\n", "\\n")
                 .replace('"', '\\"'))


def _escape_help(value):
    return value.replace("\\", "\\\\").replace("\n", "\\n")


_NAME_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"
)


def _validate_name(name):
    if not name or name[0].isdigit() or not set(name) <= _NAME_OK:
        raise ValueError(f"invalid metric/label name: {name!r}")


#: The process-wide default registry.  Engine instrumentation registers
#: here at import time and every running server plugs its own registry
#: in as a collector; ``GET /metrics`` and the ``metrics`` protocol op
#: read from it.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY

