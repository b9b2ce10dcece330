"""Exposition and scraping for :mod:`repro.obs.metrics` snapshots.

``/metricsz`` is the one stats surface every tier serves.  Three
consumers share this module:

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


def _window(cell: Dict[str, Any]) -> LatencyRecorder:
    """A recorder over an exported recorder cell's samples."""
    samples = cell.get("samples_us", [])
    recorder = LatencyRecorder(max(1, len(samples)))
    for value in samples:
        recorder.record(int(value * 1000.0))
    return recorder


def to_prometheus_text(snapshot: Dict[str, Any]) -> str:
    """Render a registry snapshot (or a merged fleet snapshot) as
    Prometheus text exposition format 0.0.4."""
    lines: List[str] = []

    for kind in ("counter", "gauge"):
        for name, family in sorted((snapshot.get(kind + "s") or {}).items()):
            if family.get("help"):
                lines.append(f"# HELP {name} {family['help']}")
            lines.append(f"# TYPE {name} {kind}")
            for label, value in sorted(family.get("values", {}).items()):
                lines.append(f"{name}{_join_labels(label)} {_fmt(value)}")

    # Recorders render as Prometheus summaries: the quantiles are computed
    # over the merged sample window at scrape time.
    for name, family in sorted((snapshot.get("recorders") or {}).items()):
        if family.get("help"):
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} summary")
        for label, cell in sorted(family.get("values", {}).items()):
            recorder = _window(cell)
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
    for kind in ("counters", "gauges"):
        rows = _flatten({kind: snapshot.get(kind) or {}})
        if rows:
            sections.append(f"{kind}:")
            sections += [f"  {name}{_join_labels(label)} = {_fmt(value)}"
                         for name, label, value in sorted(rows)]
    recorders = snapshot.get("recorders") or {}
    if recorders:
        sections.append("recorders:")
        for name, family in sorted(recorders.items()):
            for label, cell in sorted(family.get("values", {}).items()):
                stats = _window(cell).snapshot()
                p50 = stats["p50_us"]
                p99 = stats["p99_us"]
                sections.append(
                    f"  {name}{_join_labels(label)}: count={cell.get('count', 0)}"
                    + (f" p50_us={p50:.1f} p99_us={p99:.1f}"
                       if p50 is not None and p99 is not None else ""))
    return "\n".join(sections) if sections else "(empty registry)"
