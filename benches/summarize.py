"""Run the benchmark over several seeds and summarize each metric.

    python3 benches/summarize.py --seeds 1-10 [--workloads cutset_loopy,ve_large]
        [--seconds 10] [--trace 0] [--append benches/history.json --label NAME]

Runs ``benches/run.py`` once per workload and seed, one process at a time,
and prints for every metric the median, the quartiles of
``statistics.quantiles(values, n=4)`` and the spread (interquartile distance
over the median), beside the bound ``BENCHMARK.json`` gives it.  With
``--append`` the summary becomes one more entry of a JSON list, so the file
keeps the benchmark's history.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """The result object and the ``env`` line of one run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--append", type=Path)
    parser.add_argument("--label", default="")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {}
    env = None
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            result, env = run_once(workload, seed, args.seconds, args.trace)
            runs.append(result)
            print(f"{workload} seed {seed}: attempted {result['attempted']} failed "
                  f"{result['failed']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        metrics = {}
        for name, entry in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / median if median else 0.0
            metrics[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "unit": entry["unit"]}
            bound = bounds.get(name)
            flag = "" if bound is None else f"bound {bound:.2f}" + (
                "  OVER" if spread > bound else "  over a third" if spread > bound / 3 else "")
            print(f"  {name:40} median {median:.6g} {entry['unit']} spread {spread:.3f}  {flag}")
        summary[workload] = {
            "runs": len(runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": metrics,
        }

    if args.append:
        history = json.loads(args.append.read_text()) if args.append.exists() else []
        history.append({"label": args.label, "env": env, "seeds": args.seeds,
                        "seconds": args.seconds, "trace": args.trace, "workloads": summary})
        args.append.write_text(json.dumps(history, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
