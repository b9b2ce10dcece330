"""Run shape shared by every workload: five rounds, speed-corrected slices.

A run is ``ROUNDS`` rounds.  Each round sets the program up from scratch,
times one fifth of the run's work, verifies the answers outside the timed
section and tears down, so set-up and timed sections are sampled across
the whole run instead of once.  ``--seconds`` is split evenly over the
rounds' timed sections.

**Speed correction.**  This box runs the same code up to 1.7x slower
for seconds, minutes or an hour at a time (README.md has the traces), and
process CPU time slows with it: ten runs of wall-clock time spread by
4-44% where the same runs' corrected times spread by 1-13%, and no bound
a regression check could use holds the former.  Every timed piece of work — a *slice*: one algorithm call, one build, a
quarter second of wire traffic, one set-up — is therefore bracketed by a
fixed probe of about 12 ms that does no program work, and its time is
divided by ``probe time / reference``, the factor by which the machine was
slower than its fast regime while the slice ran.  The six end-to-end
metrics are in seconds *at reference speed*; on an undisturbed box they
equal wall-clock seconds.  Their wall-clock values are reported next to
them as ``bench.raw.*``, and every other per-layer metric is plain
wall-clock time.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

ROUNDS = 5

#: The probe does no program work.  It has four parts because the machine
#: slows in more than one way (clock, a busy sibling thread, a neighbour's
#: cache and memory traffic) and each way hits bytecode, allocation, small
#: numpy calls and cache-missing gathers differently; over 12 runs of one
#: seed the mean of the four left 25-50% less run-to-run spread on three of
#: the workloads than the bytecode loop alone, and as much on the fourth.
_PROBE_TABLE = np.random.default_rng(0).random(1 << 19)  # 4 MiB: larger than L2
_PROBE_INDEX = np.random.default_rng(1).integers(0, 1 << 19, size=200_000,
                                                 dtype=np.int32)
_PROBE_VECTOR = np.random.default_rng(2).random(4096)


def _probe_bytecode() -> None:
    total = 0
    for index in range(30_000):
        total += index * index


def _probe_objects() -> None:
    table = {}
    for index in range(4_000):
        table[(index, index + 1)] = [index]
    sorted(table)


def _probe_small_arrays() -> None:
    for _ in range(500):
        (_PROBE_VECTOR + 1.0).min()


def _probe_gather() -> None:
    _PROBE_TABLE[_PROBE_INDEX].sum()


#: Each part with its nanoseconds in this box's fast regime (2 vCPUs,
#: CPython 3.11, numpy 2.4; 5th percentile of 16,618 probes taken over four
#: minutes on 2026-09-30).  The references fix the scale of the corrected
#: numbers and give the parts equal weight; a ratio between two commits
#: measured on one machine does not depend on the scale.
PROBE_PARTS = (
    (_probe_bytecode, 1_597_000.0),
    (_probe_objects, 943_000.0),
    (_probe_small_arrays, 1_618_000.0),
    (_probe_gather, 738_000.0),
)
#: Each part runs this often per probe and its fastest time counts, so one
#: preemption cannot move the probe.
PROBE_REPEATS = 2
PROBE_SLOW_FACTOR = 1.25

Metric = Tuple[float, str]


class Spans:
    """In-memory span table ``{name, start, end, parent, op_id}``.

    Timing always happens (the end-to-end run needs the durations); rows
    are kept only when ``enabled`` so a ``--trace 0`` run allocates
    nothing per op.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.rows: List[Dict[str, object]] = []
        self._open: List[int] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, op_id: object = None) -> int:
        self.rows.append({"name": name, "start": start, "end": end,
                          "parent": parent, "op_id": op_id})
        return len(self.rows) - 1

    @contextmanager
    def span(self, name: str, op_id: object = None) -> Iterator["Timer"]:
        timer = Timer()
        index = None
        if self.enabled:
            index = self.add(name, 0.0, 0.0, self.current, op_id)
            self._open.append(index)
        timer.start = time.perf_counter()
        try:
            yield timer
        finally:
            end = time.perf_counter()
            timer.seconds = end - timer.start
            if index is not None:
                self._open.pop()
                self.rows[index]["start"] = timer.start
                self.rows[index]["end"] = end

    @property
    def current(self) -> Optional[int]:
        return self._open[-1] if self._open else None

    def seconds_since(self, mark: int) -> Dict[str, float]:
        """Summed duration, by name, of the spans recorded after the first
        ``mark`` rows (``mark = len(spans.rows)`` taken earlier)."""
        out: Dict[str, float] = {}
        for row in self.rows[mark:]:
            out[row["name"]] = out.get(row["name"], 0.0) \
                + row["end"] - row["start"]
        return out

    def self_seconds(self) -> Dict[str, float]:
        """Per name: span duration minus the part of it child spans cover.

        Children may overlap (two connections have requests in flight at
        once), so what counts is the union of their intervals.
        """
        children: Dict[int, List[Tuple[float, float]]] = {}
        for row in self.rows:
            if row["parent"] is not None:
                children.setdefault(row["parent"], []).append(
                    (row["start"], row["end"]))
        out: Dict[str, float] = {}
        for index, row in enumerate(self.rows):
            covered, reach = 0.0, row["start"]
            for start, end in sorted(children.get(index, ())):
                start, end = max(start, reach), min(end, row["end"])
                if end > start:
                    covered += end - start
                    reach = end
            own = row["end"] - row["start"] - covered
            out[row["name"]] = out.get(row["name"], 0.0) + own
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for row in self.rows:
                handle.write(json.dumps(row, separators=(",", ":")) + "\n")


class Timer:
    __slots__ = ("start", "seconds")

    def __init__(self) -> None:
        self.start = 0.0
        self.seconds = 0.0


@dataclasses.dataclass
class Slice:
    """One bracketed piece of timed work."""

    seconds: float
    #: Mean of the probes before and after, over the reference: >= ~1.
    slowdown: float
    #: Distance pairs the slice delivered, counted once they are verified.
    pairs: float = 0.0


@dataclasses.dataclass
class RoundLog:
    """What one round measured.  Workloads fill it; the harness reduces it."""

    #: Round start to the first timed call, warm-up included.
    setup: Optional[Slice] = None
    slices: List[Slice] = dataclasses.field(default_factory=list)
    #: Latencies of the verified ops, in seconds at reference speed.
    latencies_s: List[np.ndarray] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Largest ``answer / true distance`` over verified pairs at positive
    #: distance.
    stretch_max: float = 1.0


def probe_part_ns() -> List[int]:
    """Fastest of ``PROBE_REPEATS`` timings of each probe part."""
    best = []
    for part, _reference in PROBE_PARTS:
        timings = []
        for _ in range(PROBE_REPEATS):
            started = time.perf_counter_ns()
            part()
            timings.append(time.perf_counter_ns() - started)
        best.append(min(timings))
    return best


def slowdown() -> float:
    """How much slower than its fast regime the machine is right now."""
    return statistics.fmean(
        measured / reference for measured, (_part, reference)
        in zip(probe_part_ns(), PROBE_PARTS))


class SpeedProbe:
    """Consecutive probes: each slice is bracketed by the last two."""

    def __init__(self) -> None:
        self.last = slowdown()

    def bracket(self) -> float:
        """Probe again; the mean of this probe and the one before it."""
        before, self.last = self.last, slowdown()
        return (before + self.last) / 2


def percentile(values: np.ndarray, q: float) -> float:
    """Nearest-rank percentile: always a measured sample, never a blend."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def peak_rss_mib() -> float:
    """Peak RSS of this process plus the largest reaped child (KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def pin_to_one_cpu() -> None:
    """Pin this process, and so every process it starts, to one CPU.

    With the worker process on the second vCPU of this box every request
    is two cross-CPU wake-ups, whose cost flips between modes from run to
    run: ``pairs_per_s`` of ``wire-batch`` spread 16-42% over ten runs
    unpinned or split, 2.5-6% with the fleet on one CPU (README.md).  The
    wire numbers are therefore the stack's CPU cost per pair, not the wall
    time of a two-CPU deployment; the run's metadata records the CPUs it
    was allowed as ``nproc``.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def call_seconds(fn, min_seconds: float = 0.2, min_calls: int = 3):
    """Median seconds per ``fn()`` call and the last result.

    Layer probes are millisecond-sized calls; they repeat until
    ``min_seconds`` have been measured so one scheduler hiccup is one
    sample of many.
    """
    samples: List[float] = []
    result = None
    while len(samples) < min_calls or sum(samples) < min_seconds:
        started = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples), result


@dataclasses.dataclass
class UnitRun:
    """One timed pass over a unit.  Per call: its span name, what it
    returned (or the exception it raised), its slice and its pairs."""

    unit: object
    lap: int
    calls: List[Tuple[str, object, Slice, float]]


def run_units(units: Sequence[object], budget_s: float, spans: Spans,
              probe: SpeedProbe, log: RoundLog, op_id: int) -> List[UnitRun]:
    """Time whole units in turn until the next would overrun ``budget_s``.

    A unit is one input of the round (a graph) and ``unit.calls(lap)``
    lists ``(span name, call, pairs)`` for everything timed on it; ``lap``
    counts how often the round has come back to the unit.  A pass over a
    unit is one op, and units run whole, so the mix of calls in an op does
    not depend on how fast the machine happens to be.  Each call is its
    own slice: the speed correction is applied call by call.  The workload
    verifies the results afterwards and counts them with ``log_unit``.
    """
    runs: List[UnitRun] = []
    gc.collect()  # the timed section must not pay for its set-up's garbage
    spent = unit_s = 0.0
    for turn in itertools.count():
        if turn and spent + unit_s > budget_s:
            return runs
        run = UnitRun(units[turn % len(units)], turn // len(units), [])
        unit_s = 0.0
        for name, call, pairs in run.unit.calls(run.lap):
            with spans.span(name, op_id=op_id) as timer:
                try:
                    result = call()
                except Exception as exc:  # a raised call is a failed op
                    print(f"{name} raised {exc!r}", file=sys.stderr)
                    result = exc
            piece = Slice(timer.seconds, probe.bracket())
            log.slices.append(piece)
            run.calls.append((name, result, piece, pairs))
            unit_s += piece.seconds
        runs.append(run)
        spent += unit_s


def log_unit(log: RoundLog, run: UnitRun, verified: Sequence[bool]) -> None:
    """Count one op: the pairs of the calls that verified, and the op's
    latency if all of them did."""
    log.attempted += 1
    for (_name, _result, piece, pairs), ok in zip(run.calls, verified):
        if ok:
            piece.pairs = pairs
    if all(verified):
        log.latencies_s.append(np.array([sum(
            piece.seconds / piece.slowdown
            for _name, _result, piece, _pairs in run.calls)]))
    else:
        log.failed += 1


def run_rounds(workload, seconds: float, spans: Spans) -> Dict[str, object]:
    """Drive ``workload`` through the rounds and reduce the round logs."""
    logs: List[RoundLog] = []
    pin_to_one_cpu()
    with spans.span("bench.inputs") as inputs:
        workload.prepare()
    for index in range(ROUNDS):
        log = RoundLog()
        with spans.span("bench.round", op_id=index):
            workload.run_round(index, seconds / ROUNDS, log)
        logs.append(log)
    return reduce_rounds(logs, inputs.seconds, workload.slices_alike)


def pairs_per_second(slices: Sequence[Slice], seconds: Sequence[float],
                     alike: bool) -> float:
    """Pairs per second of slices that took ``seconds`` each: of the median
    slice if they are alike, else all pairs over all seconds."""
    if alike:
        return statistics.median(piece.pairs / spent
                                 for piece, spent in zip(slices, seconds))
    return sum(piece.pairs for piece in slices) / sum(seconds)


def latency_ms(latencies: Sequence[np.ndarray], q: float, alike: bool) -> float:
    """The ``q``-th percentile of the ops' latencies, one array per slice
    or per op: of the median slice if slices are alike, else pooled."""
    if alike:
        return statistics.median(percentile(part, q) for part in latencies) * 1e3
    return percentile(np.concatenate(latencies), q) * 1e3


def reduce_rounds(logs: Sequence[RoundLog], inputs_s: float,
                  slices_alike: bool) -> Dict[str, object]:
    """End-to-end metrics and diagnostics from the round logs.

    Slices that are alike (a quarter second each of the same traffic) are
    samples of one quantity, and the run reports the median slice: a burst
    of slow machine, whose latency tail no probe corrects, then moves a
    few samples instead of the total.  Slices that are different pieces of
    work (one call of an op's five) can only be summed.
    """
    slices = [piece for log in logs for piece in log.slices]
    latencies = [part for log in logs for part in log.latencies_s if len(part)]
    setups = [log.setup.seconds / log.setup.slowdown for log in logs]
    raw_setups = [log.setup.seconds for log in logs]
    slowdowns = [piece.slowdown for piece in slices] \
        + [log.setup.slowdown for log in logs]
    attempted = sum(log.attempted for log in logs)
    failed = sum(log.failed for log in logs)
    return {
        "end_to_end": {
            "setup_s": (statistics.median(setups), "s"),
            "pairs_per_s": (pairs_per_second(
                slices, [piece.seconds / piece.slowdown for piece in slices],
                slices_alike), "pairs/s"),
            "p50_ms": (latency_ms(latencies, 50, slices_alike), "ms"),
            "p90_ms": (latency_ms(latencies, 90, slices_alike), "ms"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
            "stretch_max": (max(log.stretch_max for log in logs), "ratio"),
        },
        "diagnostics": {
            "bench.slowdown": (statistics.median(slowdowns), "ratio"),
            "bench.slow_share": (
                sum(value > PROBE_SLOW_FACTOR for value in slowdowns)
                / len(slowdowns), "ratio"),
            "bench.raw.setup_s": (statistics.median(raw_setups), "s"),
            "bench.raw.pairs_per_s": (pairs_per_second(
                slices, [piece.seconds for piece in slices], slices_alike),
                "pairs/s"),
            "bench.p99_ms": (latency_ms(latencies, 99, False), "ms"),
            "bench.setup_max_s": (max(setups), "s"),
            "bench.inputs_s": (inputs_s, "s"),
            "bench.failed_share": (failed / attempted, "ratio"),
        },
        "attempted": attempted,
        "failed": failed,
        "rounds": [{
            "setup_s": log.setup.seconds,
            "setup_slowdown": log.setup.slowdown,
            "timed_s": sum(piece.seconds for piece in log.slices),
            "slowdown": statistics.median(
                piece.slowdown for piece in log.slices),
            "pairs": sum(piece.pairs for piece in log.slices),
            "attempted": log.attempted, "failed": log.failed,
            "stretch_max": log.stretch_max,
        } for log in logs],
    }
