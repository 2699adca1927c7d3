"""Observability subsystem: metrics registry, tracing, exposition.

Three stdlib-only layers (PR 10):

* :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry`
  of counters/gauges/histograms with exact, lock-free hot-path bumps
  (per-thread cells; snapshot-time math only) and a Prometheus text
  renderer.  The engine (memo caches, native builds, backend dispatch)
  registers here; each server and sharding front keeps its series in a
  registry of its own, plugged in here as a collector.
* :mod:`repro.obs.tracing` — ``trace_id``/span context that rides the
  ndJSON protocol, microsecond monotonic timestamps, and the bounded
  span ring behind the slow-query log.
* :mod:`repro.obs.httpd` — the ``--obs-port`` HTTP thread serving
  ``GET /metrics`` and ``GET /healthz``.
"""

from repro.obs.httpd import ObsHttpServer
from repro.obs.metrics import (
    METRICS_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    enabled,
    get_registry,
    histogram_quantile,
    merge_families,
    render_prometheus,
    set_enabled,
)
from repro.obs.tracing import (
    Span,
    SpanRing,
    Trace,
    new_trace_id,
    now_us,
    parse_trace_field,
)

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsHttpServer",
    "REGISTRY",
    "Span",
    "SpanRing",
    "Trace",
    "enabled",
    "get_registry",
    "histogram_quantile",
    "merge_families",
    "new_trace_id",
    "now_us",
    "parse_trace_field",
    "render_prometheus",
    "set_enabled",
]
