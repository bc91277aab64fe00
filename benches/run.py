"""Benchmark entry point: one workload, one seed, one process, one thread.

    python3 benches/run.py --workload cutset_loopy --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from its ``src``
directory.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer table and metrics of a traced run (spans go to
``benches/.out/``).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 when the run completed, whatever its answers; it is 2 when
the library cannot be imported or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _import_harness():
    """Pin numpy's BLAS to one thread, then import the library from ``src``."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    try:
        import csibn
    except ImportError as exc:
        print(f"error: cannot import csibn from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(csibn.__file__).resolve().is_relative_to(src):
        print(f"error: csibn was imported from {csibn.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)
    import harness
    import workloads

    return harness, workloads


def main(argv=None) -> int:
    harness, workloads = _import_harness()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = workloads.WORKLOADS[args.workload]
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, trace {args.trace}, closed loop, one client, one thread")
    print("env " + json.dumps(harness.environment(ROOT), sort_keys=True))

    if args.trace:
        out_dir = HERE / ".out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{workload.name}-{args.seed}.jsonl"
        result = harness.traced_run(workload, args.seed, spans_path=spans_path)
        print(f"traced run: set-up plus {result['attempted']} operations, "
              f"{result['spans']} spans written to {spans_path.relative_to(ROOT)}")
        for line in harness.layer_table(result):
            print(line)
        units = dict(harness.PER_LAYER)
    else:
        result = harness.timed_run(workload, args.seed, args.seconds)
        units = dict(harness.END_TO_END)
        n = result["attempted"]
        print(f"samples {n}, {result['p90_beyond']} beyond p90; "
              f"setup_s is the median of {result['setup_runs']} set-ups")
        print(f"failed_frac {result['failed'] / n:.6f} ({result['failed']} of {n})")
        print("times below are scaled to a host on which the speed probe takes 1 ms; "
              "wall times on this host: " + ", ".join(
                  f"{name} {value:.6g}" for name, value in result["wall"].items()))

    for kind, count in sorted(result["failures"].items()):
        print(f"failure {kind}: {count}")
    metrics = {
        name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()
    }
    for name, entry in metrics.items():
        print(f"{name:40} {entry['value']:.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
