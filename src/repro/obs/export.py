"""Exposition and scraping for :mod:`repro.obs.metrics` snapshots.

Three consumers share this module:

* the worker's ``GET /metricsz`` route renders its process registry as
  Prometheus text exposition (``text/plain; version=0.0.4``) — or as the
  JSON snapshot when asked with ``?format=json``, which is the mergeable
  form the fleet aggregator consumes;
* the frontend's ``/metricsz`` scrapes every worker's JSON snapshot,
  merges them with :func:`repro.obs.metrics.merge_snapshots`, and renders
  the fleet view with the same renderer;
* the ``repro obs snapshot|top|export`` CLI fetches either form over
  plain HTTP for one-shot human-readable summaries.

Only stdlib is used; the scraper speaks minimal HTTP/1.1 because every
``repro.net`` endpoint already serves an HTTP dialect on its binary port.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from .metrics import LatencyRecorder

__all__ = [
    "fetch_snapshot",
    "fetch_text",
    "render_snapshot",
    "render_top",
    "to_prometheus_text",
]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _fmt(value: float) -> str:
    """Prometheus sample value: integral floats render without the '.0'."""
    number = float(value)
    if number.is_integer() and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _join_labels(label_body: str, extra: str = "") -> str:
    parts = [part for part in (label_body, extra) if part]
    return "{" + ",".join(parts) + "}" if parts else ""


def to_prometheus_text(snapshot: Dict[str, Any]) -> str:
    """Render a registry snapshot (or a merged fleet snapshot) as
    Prometheus text exposition format 0.0.4."""
    lines: List[str] = []

    for name, family in sorted((snapshot.get("counters") or {}).items()):
        if family.get("help"):
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} counter")
        for label, value in sorted(family.get("values", {}).items()):
            lines.append(f"{name}{_join_labels(label)} {_fmt(value)}")

    for name, family in sorted((snapshot.get("gauges") or {}).items()):
        if family.get("help"):
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} gauge")
        for label, value in sorted(family.get("values", {}).items()):
            lines.append(f"{name}{_join_labels(label)} {_fmt(value)}")

    for name, family in sorted((snapshot.get("histograms") or {}).items()):
        if family.get("help"):
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} histogram")
        edges = list(family.get("buckets", []))
        for label, cell in sorted(family.get("values", {}).items()):
            cumulative = 0
            for edge, count in zip(edges, cell["counts"]):
                cumulative += count
                le = 'le="' + _fmt(edge) + '"'
                lines.append(
                    f"{name}_bucket{_join_labels(label, le)} {cumulative}")
            cumulative += cell["counts"][-1] if len(cell["counts"]) > len(edges) else 0
            inf = 'le="+Inf"'
            lines.append(
                f"{name}_bucket{_join_labels(label, inf)} {cumulative}")
            lines.append(f"{name}_sum{_join_labels(label)} {_fmt(cell['sum'])}")
            lines.append(f"{name}_count{_join_labels(label)} {cell['count']}")

    # Recorders render as Prometheus summaries: the quantiles are computed
    # over the merged sample window at scrape time.
    for name, family in sorted((snapshot.get("recorders") or {}).items()):
        if family.get("help"):
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} summary")
        for label, cell in sorted(family.get("values", {}).items()):
            samples = [int(value * 1000.0) for value in cell.get("samples_us", [])]
            recorder = LatencyRecorder(max(1, len(samples)))
            for sample in samples:
                recorder.record(sample)
            for quantile, p in (("0.5", 50.0), ("0.95", 95.0), ("0.99", 99.0)):
                value = recorder.percentile(p)
                if value is None:
                    continue
                q = 'quantile="' + quantile + '"'
                lines.append(
                    f"{name}{_join_labels(label, q)} {_fmt(value)}")
            lines.append(
                f"{name}_count{_join_labels(label)} {int(cell.get('count', 0))}")

    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# scraping
# ----------------------------------------------------------------------
def fetch_text(host: str, port: int, path: str = "/metricsz",
               timeout: float = 5.0) -> str:
    """GET an endpoint's raw body over HTTP (Prometheus text by default)."""
    # Imported here: only a scraper needs http.client (and the email
    # parser it drags in); every worker imports this module.
    import http.client

    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise ConnectionError(
                f"GET {path} from {host}:{port} returned {response.status}")
        return body.decode("utf-8")
    finally:
        conn.close()


def fetch_snapshot(host: str, port: int, timeout: float = 5.0
                   ) -> Dict[str, Any]:
    """GET the mergeable JSON snapshot from a worker or frontend."""
    return json.loads(
        fetch_text(host, port, "/metricsz?format=json", timeout=timeout))


# ----------------------------------------------------------------------
# human-readable summaries (the `repro obs` CLI)
# ----------------------------------------------------------------------
def _flatten(snapshot: Dict[str, Any]) -> List[Tuple[str, str, float]]:
    rows: List[Tuple[str, str, float]] = []
    for kind in ("counters", "gauges"):
        for name, family in (snapshot.get(kind) or {}).items():
            for label, value in family.get("values", {}).items():
                rows.append((name, label, float(value)))
    return rows


def render_top(snapshot: Dict[str, Any], limit: int = 20) -> str:
    """The largest counter/gauge series, one per line, value-descending."""
    rows = sorted(_flatten(snapshot), key=lambda row: -abs(row[2]))[:limit]
    if not rows:
        return "(no series)"
    width = max(len(f"{name}{_join_labels(label)}") for name, label, _ in rows)
    return "\n".join(
        f"{(name + _join_labels(label)).ljust(width)}  {_fmt(value)}"
        for name, label, value in rows)


def render_snapshot(snapshot: Dict[str, Any]) -> str:
    """Full catalogue: every series grouped by kind, plus recorder
    percentiles — the `repro obs snapshot` view."""
    sections: List[str] = []
    counters = _flatten({"counters": snapshot.get("counters") or {}})
    gauges = _flatten({"gauges": snapshot.get("gauges") or {}})
    if counters:
        sections.append("counters:")
        sections += [f"  {name}{_join_labels(label)} = {_fmt(value)}"
                     for name, label, value in sorted(counters)]
    if gauges:
        sections.append("gauges:")
        sections += [f"  {name}{_join_labels(label)} = {_fmt(value)}"
                     for name, label, value in sorted(gauges)]
    histograms = snapshot.get("histograms") or {}
    if histograms:
        sections.append("histograms:")
        for name, family in sorted(histograms.items()):
            for label, cell in sorted(family.get("values", {}).items()):
                count = cell.get("count", 0)
                mean = (cell["sum"] / count) if count else 0.0
                sections.append(
                    f"  {name}{_join_labels(label)}: count={count} "
                    f"mean={mean:.1f}")
    recorders = snapshot.get("recorders") or {}
    if recorders:
        sections.append("recorders:")
        for name, family in sorted(recorders.items()):
            for label, cell in sorted(family.get("values", {}).items()):
                samples = [int(v * 1000.0) for v in cell.get("samples_us", [])]
                recorder = LatencyRecorder(max(1, len(samples)))
                for sample in samples:
                    recorder.record(sample)
                stats = recorder.snapshot()
                p50 = stats["p50_us"]
                p99 = stats["p99_us"]
                sections.append(
                    f"  {name}{_join_labels(label)}: count={cell.get('count', 0)}"
                    + (f" p50_us={p50:.1f} p99_us={p99:.1f}"
                       if p50 is not None and p99 is not None else ""))
    return "\n".join(sections) if sections else "(empty registry)"


def scrape_worker_addresses(addresses: List[Tuple[str, int]],
                            timeout: float = 5.0,
                            ) -> Tuple[List[Dict[str, Any]], int]:
    """Fetch JSON snapshots from each address, skipping unreachable ones.

    Returns (snapshots, scraped_count); the synchronous path used by the
    CLI (the frontend aggregates asynchronously in-process instead).
    """
    snapshots: List[Dict[str, Any]] = []
    for host, port in addresses:
        try:
            snapshots.append(fetch_snapshot(host, port, timeout=timeout))
        except (OSError, ValueError, ConnectionError):
            continue
    return snapshots, len(snapshots)
