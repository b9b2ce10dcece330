"""`repro.obs` — dependency-free observability for the whole stack.

One :class:`MetricsRegistry` per process (counters, gauges, mergeable
percentile recorders), sampled cross-tier request tracing that rides the
`repro.net` wire protocol, and Prometheus text exposition served at every
tier's ``/metricsz`` route — the one stats surface — with a fleet
aggregator at the frontend.  See the README's "Observability" section
for the metric catalogue and trace schema.
"""

from .metrics import (
    Counter,
    Gauge,
    LatencyRecorder,
    MetricsRegistry,
    RecorderHandle,
    get_registry,
    merge_snapshots,
)
from .tracing import (
    Span,
    TraceContext,
    Tracer,
    get_tracer,
    set_sample_rate,
    unpack_trace_blob,
)
from .export import (
    fetch_snapshot,
    fetch_text,
    render_snapshot,
    render_top,
    to_prometheus_text,
)

__all__ = [
    "Counter",
    "Gauge",
    "LatencyRecorder",
    "MetricsRegistry",
    "RecorderHandle",
    "Span",
    "TraceContext",
    "Tracer",
    "fetch_snapshot",
    "fetch_text",
    "get_registry",
    "get_tracer",
    "merge_snapshots",
    "render_snapshot",
    "render_top",
    "set_sample_rate",
    "to_prometheus_text",
    "unpack_trace_blob",
]
