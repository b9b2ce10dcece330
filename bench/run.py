"""The repo's one benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

prints every metric by name with its unit and, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs the same rounds with spans recorded, adds the layer probes, writes
``.bench_work/spans.jsonl`` and reports the per-layer metrics.  ``--out``
appends the full run document to FILE, one JSON object per line, which is
what ``bench/compare.py`` reads.  A wrong answer makes the exit code
non-zero.  README.md explains workloads and metrics.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# One BLAS/OpenMP thread: the run is held on one CPU (harness.py says why).
# Must happen before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

#: Switches that change what the program does; a run taken with one of
#: them set is not comparable (chaos and kernel pinning have their own
#: campaigns).
FORBIDDEN_ENV = ("REPRO_CHAOS", "REPRO_KERNEL", "REPRO_TRACE_SAMPLE",
                 "REPRO_METRICS")
WORKLOADS = ("paper-algos", "oracle-build", "wire-batch", "wire-point")
#: Everything the run writes (artifacts, shared maps, spans.jsonl) goes
#: here, inside the checkout.
WORK_ROOT = ROOT / ".bench_work"


def _stop_resource_tracker() -> None:
    """Wait for multiprocessing's resource tracker to end.

    The spawn context starts it next to the first worker and it exits only
    once this process has; stopping it here means no process the run
    started outlives the run.  ``_stop`` is private: without it the tracker
    is left to exit by itself, as it always does.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def main(argv=None) -> int:
    import argparse
    import json
    import platform
    import shutil
    import subprocess
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run, split over five rounds "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="append the full run document to this file")
    args = parser.parse_args(argv)

    set_env = [var for var in FORBIDDEN_ENV if os.environ.get(var)]
    if set_env:
        print(f"refusing to run with {', '.join(set_env)} set", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"nothing to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None \
        else float(contract["run_seconds"])

    cpus_allowed = len(os.sched_getaffinity(0))
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    # Library code that asks for a temporary directory (shared maps of the
    # parallel build) must stay inside the checkout too; workers inherit it.
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = None

    import numpy

    from bench.harness import Spans, run_rounds
    from bench.oracle_build import OracleBuild
    from bench.paper_algos import PaperAlgos
    from bench.wire import Wire

    spans = Spans(enabled=bool(args.trace))
    if args.workload == "paper-algos":
        workload = PaperAlgos(args.seed, spans, workdir)
    elif args.workload == "oracle-build":
        workload = OracleBuild(args.seed, spans, workdir)
    else:
        workload = Wire(args.workload, args.seed, spans, workdir)

    try:
        result = run_rounds(workload, seconds, spans)
        reported = result["end_to_end"]
        if args.trace:
            # Every per-layer name is reported by every workload; a layer
            # this workload does not execute did no work and reads 0.
            reported = {entry["name"]: (0.0, entry["unit"])
                        for entry in contract["per_layer"]}
            reported.update(workload.layer_metrics())
            reported.update(result["diagnostics"])
            spans.write(WORK_ROOT / "spans.jsonl")
        metadata = workload.metadata()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _stop_resource_tracker()

    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # the checkout is not a git repository
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
        "diagnostics": {name: value for name, (value, _unit)
                        in result["diagnostics"].items()},
        "rounds": result["rounds"],
        # Seconds per span name, children's share taken out.
        "span_self_s": spans.self_seconds(),
        "metadata": {
            # CPUs the run used (it pins itself to one) and CPUs it was given.
            "nproc": len(os.sched_getaffinity(0)),
            "cpus_allowed": cpus_allowed,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "numba": has_numba,
            "git_sha": sha,
            **metadata,
        },
    }
    for name, (value, unit) in reported.items():
        print(f"{name:<48} {value:>16.6f} {unit}")
    for name, seconds in sorted(document["span_self_s"].items()):
        print(f"self time of span {name:<32} {seconds:>12.6f} s")
    print(f"metadata {json.dumps(document['metadata'], sort_keys=True)}")
    if args.out is not None:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(document, sort_keys=True) + "\n")
    print(json.dumps({key: document[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
