"""Compare two sets of benchmark runs under the bounds of BENCHMARK.json.

    python3 bench/compare.py [--raw] A.jsonl B.jsonl

A set is a file of run documents, one JSON object per line, as written by
``bench/run.py --out FILE`` (each run appends a line).  A is the parent,
B the change.  For every (workload, end-to-end metric) the untraced runs
give one row: both medians, both spreads (distance between the quartiles
over the median), how much worse B's median is, and a verdict:

* ``same``        B's median is within the metric's bound of A's;
* ``worse``       B's median is worse than A's by more than the bound;
* ``better``      B's median is better than A's by more than the bound;
* ``unresolved``  a spread is wider than the bound, so the medians cannot
  settle it - unless every run of one set beats every run of the other.

Three kinds of rows have no tolerance.  ``failed_share`` (ops that raised,
were refused or answered outside the guarantee, over ops attempted) reads
``worse`` on any increase.  The ``EXACT`` metrics are counts of the
program, not times: a seed gives the same value on every run, so they are
compared seed by seed and any seed that got worse reads ``worse``.  Other
per-layer metrics of the traced runs are listed with both medians and no
verdict: layers have no bound.  The exit code is 1 if any row reads
``worse``.

``--raw`` reads ``setup_s`` and ``pairs_per_s`` as wall-clock time
(``bench.raw.*`` in the run documents) instead of time at reference speed:
what the bounds say without the speed correction.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]

#: Deterministic metrics, held to equality seed by seed: the paper's cost
#: metric, the worst verified stretch and the bytes of the built artifacts.
EXACT = ("stretch_max", "core.clique_rounds", "oracle.artifact_mib")

#: ``(workload, metric) -> [(seed, value), ...]``
Runs = Dict[Tuple[str, str], List[Tuple[int, float]]]


def load_set(path: Path, raw: bool = False
             ) -> Tuple[Runs, Runs, Dict[str, List[int]]]:
    """``(end-to-end values of untraced runs, per-layer values of traced
    runs, [failed, attempted] ops per workload over all runs)``."""
    end_to_end: Runs = {}
    layers: Runs = {}
    ops: Dict[str, List[int]] = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        document = json.loads(line)
        workload = document["workload"]
        count = ops.setdefault(workload, [0, 0])
        count[0] += int(document.get("failed", 0))
        count[1] += int(document.get("attempted", 0))
        target = layers if document["trace"] else end_to_end
        wall_clock = document.get("diagnostics", {}) if raw else {}
        for name, metric in document["metrics"].items():
            value = wall_clock.get(f"bench.raw.{name}", metric["value"])
            target.setdefault((workload, name), []).append(
                (document.get("seed", 0), float(value)))
    return end_to_end, layers, ops


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile over the median."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / abs(middle) if middle else 0.0


def worsening(parent: float, change: float, better: str) -> float:
    """Share of the parent's median by which the change is worse (< 0: better)."""
    delta = (change - parent) / abs(parent) if parent else 0.0
    return delta if better == "lower" else -delta


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float, worse_by: float) -> str:
    if max(spread(parent), spread(change)) > bound:
        sign = 1 if better == "lower" else -1
        if max(sign * v for v in change) < min(sign * v for v in parent):
            return "better"
        if min(sign * v for v in change) > max(sign * v for v in parent):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def exact_verdict(parent: Sequence[Tuple[int, float]],
                  change: Sequence[Tuple[int, float]], better: str) -> str:
    """Seed by seed: ``worse`` if any seed got worse, ``better`` if some
    got better and none worse, ``unresolved`` if no seed is in both sets."""
    before = dict(parent)
    deltas = [worsening(before[seed], value, better)
              for seed, value in change if seed in before]
    if not deltas:
        return "unresolved"
    if any(delta > 0 for delta in deltas):
        return "worse"
    return "better" if any(delta < 0 for delta in deltas) else "same"


def compare(contract: dict, parent: Path, change: Path,
            raw: bool = False) -> Tuple[List[str], bool]:
    """The report's lines and whether any row reads ``worse``."""
    parent_e2e, parent_layers, parent_ops = load_set(parent, raw)
    change_e2e, change_layers, change_ops = load_set(change, raw)
    lines = [f"A (parent) = {parent}", f"B (change) = {change}"]
    if raw:
        lines.append("setup_s and pairs_per_s are wall-clock time (bench.raw.*)")
    lines.append("")
    lines.append(f"{'workload':<13}{'metric':<14}{'unit':<8}"
                 f"{'n A':>4}{'median A':>14}{'spread A':>10}"
                 f"{'n B':>5}{'median B':>14}{'spread B':>10}"
                 f"{'B worse by':>12}{'bound':>7}  verdict")
    outcomes: List[str] = []
    for workload in (entry["name"] for entry in contract["workloads"]):
        for metric in contract["end_to_end"]:
            key = (workload, metric["name"])
            if key not in parent_e2e or key not in change_e2e:
                continue
            a = [value for _seed, value in parent_e2e[key]]
            b = [value for _seed, value in change_e2e[key]]
            worse_by = worsening(statistics.median(a), statistics.median(b),
                                 metric["better"])
            if metric["name"] in EXACT:
                outcome = exact_verdict(parent_e2e[key], change_e2e[key],
                                        metric["better"])
                bound = "exact"
            else:
                outcome = verdict(a, b, metric["better"], metric["bound"],
                                  worse_by)
                bound = f"{metric['bound']:.0%}"
            outcomes.append(outcome)
            lines.append(
                f"{workload:<13}{metric['name']:<14}{metric['unit']:<8}"
                f"{len(a):>4}{statistics.median(a):>14.6g}{spread(a):>10.1%}"
                f"{len(b):>5}{statistics.median(b):>14.6g}{spread(b):>10.1%}"
                f"{worse_by:>+12.1%}{bound:>7}  {outcome}")
        if workload in parent_ops and workload in change_ops:
            (failed_a, tried_a), (failed_b, tried_b) = \
                parent_ops[workload], change_ops[workload]
            share_a, share_b = failed_a / tried_a, failed_b / tried_b
            outcome = "worse" if share_b > share_a else \
                "better" if share_b < share_a else "same"
            outcomes.append(outcome)
            lines.append(
                f"{workload:<13}{'failed_share':<14}{'ratio':<8}"
                f"{'':>4}{f'{failed_a}/{tried_a}':>14}{'':>10}"
                f"{'':>5}{f'{failed_b}/{tried_b}':>14}{'':>10}"
                f"{share_b - share_a:>+12.2g}{'any':>7}  {outcome}")
    shared = [key for key in parent_layers if key in change_layers]
    if shared:
        lines += ["", "per-layer metrics of the traced runs (a verdict for "
                  "the exact counts only: layers have no bound)",
                  f"{'workload':<13}{'metric':<44}{'unit':<9}"
                  f"{'median A':>14}{'median B':>14}{'B / A':>8}"]
        layer = {entry["name"]: entry for entry in contract["per_layer"]}
        for workload, name in shared:
            a = statistics.median(v for _s, v in parent_layers[(workload, name)])
            b = statistics.median(v for _s, v in change_layers[(workload, name)])
            if a == 0 and b == 0:
                continue  # a layer this workload does not execute
            ratio = f"{b / a:>8.3f}" if a else f"{'-':>8}"
            row = (f"{workload:<13}{name:<44}"
                   f"{layer.get(name, {}).get('unit', '?'):<9}"
                   f"{a:>14.6g}{b:>14.6g}{ratio}")
            if name in EXACT:
                outcome = exact_verdict(
                    parent_layers[(workload, name)],
                    change_layers[(workload, name)],
                    layer.get(name, {}).get("better", "lower"))
                outcomes.append(outcome)
                row += f"  {outcome}"
            lines.append(row)
    return lines, "worse" in outcomes


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    raw = "--raw" in argv
    if raw:
        argv.remove("--raw")
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, any_worse = compare(contract, Path(argv[0]), Path(argv[1]), raw)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
