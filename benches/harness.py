"""Timed and traced runs of one workload, and the metrics they report.

A timed run (tracing off) sets up ``SETUP_REPEATS`` times and reports the
median as ``setup_s``, then runs operations in a closed loop with one client
until the operations have taken ``seconds`` of wall time and at least
``MIN_SAMPLES`` have run, ending on a cycle boundary.  The clock is stopped
while an answer is checked.  ``latency_p90_ms`` is a nearest-rank percentile,
so with at least 100 samples at least ten lie beyond it.  A failed operation
(an exception or a failed check) keeps its measured latency and counts
against ``success_frac``.

Times are reported at a reference host speed.  On a shared virtual machine
the speed of one vCPU changes by a third within seconds and by 1.5-2x over
minutes, which swamps any change to the library.  So every set-up and every
operation is bracketed by ``probe``, a fixed pure-Python loop that does not
touch the library, and its wall time is scaled by ``PROBE_REF_S`` over the
mean of the two probe times: a time in ``ms`` is the wall time on a host on
which the probe takes exactly 1 ms.  A faster or slower library moves the
scaled time just as it moves the wall time; a faster or slower host moves
both the operation and the probe, and cancels.  The wall times are printed
beside the scaled ones.

A traced run makes the same set-up and the first ``trace_ops`` operations
three times: an untraced warm-up, a pass with the tracer installed and an
untraced pass, whose wall-time ratio gives ``trace.overhead_frac``.  Counts cover the traced set-up and
operations, never the checks, so they repeat exactly for a given seed.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import time
from collections import Counter
from pathlib import Path

import numpy as np

from tracing import Tracer
from workloads import MEAN_QUALITY

SETUP_REPEATS = 5
MIN_SAMPLES = 100

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_ops_s", "1/s"),
    ("success_frac", "frac"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("model.parse_network.ms", "ms"),
    ("model.validate.ms", "ms"),
    ("model.tree_lookup.calls", "count"),
    ("csi.reduce_network.calls", "count"),
    ("csi.reduce_network.self_ms", "ms"),
    ("csi.context_network.self_ms", "ms"),
    ("csi.d_separated.ms", "ms"),
    ("cutset.build_conditional_cutset.ms", "ms"),
    ("cutset.branches_per_query", "count"),
    ("cutset.cutset_variables", "count"),
    ("inference.cutset_infer.self_ms", "ms"),
    ("inference.variable_elimination.self_ms", "ms"),
    ("inference.evaluations", "count"),
    ("graphs.min_fill_order.calls", "count"),
    ("graphs.min_fill_order.self_ms", "ms"),
    ("graphs.two_core.calls", "count"),
    ("graphs.two_core.self_ms", "ms"),
    ("graphs.elimination_cliques.ms", "ms"),
    ("transform.decompose_network.ms", "ms"),
    ("transform.clique_report.self_ms", "ms"),
    ("transform.nodes_split", "count"),
    ("transform.max_clique_weight_before", "log2"),
    ("transform.max_clique_weight_after", "log2"),
    ("trace.overhead_frac", "frac"),
)


def environment(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": _commit(root),
    }


def _commit(root: Path) -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


PROBE_REF_S = 1e-3
PROBE_REPEATS = 3


def _probe_loop() -> int:
    counts: dict[int, int] = {}
    for i in range(4000):
        key = (i * 7919) % 1013
        counts[key] = counts.get(key, 0) + i
    return len(counts)


def probe() -> float:
    """Mean seconds of ``PROBE_REPEATS`` runs of a fixed loop of dictionary
    and integer work: the host's current speed for Python code.  The mean
    follows the host's slow spells, which the minimum would skip."""
    start = time.perf_counter()
    for _ in range(PROBE_REPEATS):
        _probe_loop()
    return (time.perf_counter() - start) / PROBE_REPEATS


def _scaled(fn):
    """Run ``fn`` between two probes; returns (its result, wall seconds,
    seconds at reference speed)."""
    before = probe()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    after = probe()
    return result, wall, wall * PROBE_REF_S / ((before + after) / 2)


def _attempt(workload, state, op):
    """Run one operation; returns (seconds, answer, failure kind or None)."""
    start = time.perf_counter()
    try:
        answer = workload.run(state, op)
    except Exception as exc:  # a failed operation is a result, not a crash
        return time.perf_counter() - start, None, type(exc).__name__
    return time.perf_counter() - start, answer, None


def _check(workload, state, op, answer, failures: Counter) -> bool:
    try:
        kinds = workload.check(state, op, answer)
    except Exception as exc:
        kinds = [f"check:{type(exc).__name__}"]
    failures.update(kinds)
    return not kinds


def timed_run(workload, seed: int, seconds: float) -> dict:
    setup_times, setup_wall = [], []
    for _ in range(SETUP_REPEATS):
        state, wall, scaled = _scaled(lambda: workload.setup(seed))
        setup_times.append(scaled)
        setup_wall.append(wall)

    stream = workload.ops(state, seed)
    samples: list[float] = []
    wall_samples: list[float] = []
    failures: Counter = Counter()
    failed = 0
    while sum(wall_samples) < seconds or len(samples) < MIN_SAMPLES:
        for _ in range(workload.cycle):
            op = next(stream)
            (_, answer, kind), wall, scaled = _scaled(lambda: _attempt(workload, state, op))
            samples.append(scaled)
            wall_samples.append(wall)
            if kind is not None:
                failures[kind] += 1
                failed += 1
            elif not _check(workload, state, op, answer, failures):
                failed += 1

    rank = math.ceil(0.9 * len(samples))
    p50, p90, rate = _latencies(samples, rank)
    wall_p50, wall_p90, wall_rate = _latencies(wall_samples, rank)
    return {
        "attempted": len(samples),
        "failed": failed,
        "failures": dict(failures),
        "p90_beyond": len(samples) - rank,
        "setup_runs": len(setup_times),
        "wall": {
            "latency_p50_ms": wall_p50,
            "latency_p90_ms": wall_p90,
            "throughput_ops_s": wall_rate,
            "setup_s": statistics.median(setup_wall),
        },
        "metrics": {
            "latency_p50_ms": p50,
            "latency_p90_ms": p90,
            "throughput_ops_s": rate,
            "success_frac": 1.0 - failed / len(samples),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }


def _latencies(samples: list[float], rank: int) -> tuple[float, float, float]:
    """p50 and nearest-rank p90 in ms, and operations per second."""
    ordered = sorted(samples)
    return (
        statistics.median(samples) * 1e3,
        ordered[rank - 1] * 1e3,
        len(samples) / sum(samples),
    )


def _pass(workload, seed, n_ops, tracer=None, failures=None):
    """Set up and run ``n_ops`` operations; returns (timed seconds, quality
    totals, operation seconds, failed operations).  Checks run only when
    ``failures`` is given."""
    quality: Counter = Counter()
    if tracer:
        tracer.op, tracer.active = "setup", True
    start = time.perf_counter()
    state = workload.setup(seed)
    busy = time.perf_counter() - start
    if tracer:
        tracer.active = False
    op_busy = 0.0
    failed = 0
    for i, op in zip(range(n_ops), workload.ops(state, seed)):
        if tracer:
            tracer.op, tracer.active = i, True
        elapsed, answer, kind = _attempt(workload, state, op)
        if tracer:
            tracer.active = False
        busy += elapsed
        op_busy += elapsed
        if kind is not None:
            failed += 1
            if failures is not None:
                failures[kind] += 1
            continue
        quality.update(workload.quality(op, answer))
        if failures is not None and not _check(workload, state, op, answer, failures):
            failed += 1
    return busy, quality, op_busy, failed


def traced_run(workload, seed: int, n_ops: int | None = None, spans_path=None) -> dict:
    n_ops = n_ops or workload.trace_ops
    _pass(workload, seed, n_ops)  # warm-up, so neither timed pass pays first-call costs
    failures: Counter = Counter()
    with Tracer() as tracer:
        traced, quality, op_busy, failed = _pass(workload, seed, n_ops, tracer, failures)
    untraced, _, _, _ = _pass(workload, seed, n_ops)
    if spans_path is not None:
        tracer.write(spans_path)
    layers = tracer.layers()
    metrics = {}
    for name, _unit in PER_LAYER:
        span, _, field = name.rpartition(".")
        if span in layers and field in ("calls", "ms", "self_ms"):
            metrics[name] = layers[span][field]
        elif name == "trace.overhead_frac":
            metrics[name] = traced / untraced - 1.0
        elif name in MEAN_QUALITY:
            metrics[name] = quality[name] / n_ops
        else:
            metrics[name] = quality[name]
    return {
        "attempted": n_ops,
        "failed": failed,
        "failures": dict(failures),
        "metrics": metrics,
        "layers": layers,
        "op_ms": op_busy * 1e3,
        "spans": len(tracer.spans),
    }


def layer_table(result: dict) -> list[str]:
    """Calls, total ms, self ms and share of operation time per span name."""
    op_ms = result["op_ms"]
    lines = [
        f"{'layer':36} {'calls':>9} {'total_ms':>11} {'self_ms':>11} "
        f"{'setup_ms':>10} {'op_share':>9}"
    ]
    for name, row in sorted(result["layers"].items()):
        if not row["calls"]:
            continue
        share = row["op_ms"] / op_ms if op_ms else 0.0
        lines.append(
            f"{name:36} {row['calls']:>9d} {row['ms']:>11.2f} {row['self_ms']:>11.2f} "
            f"{row['setup_ms']:>10.2f} {share:>9.1%}"
        )
    lines.append(f"operation time {op_ms:.2f} ms over {result['attempted']} operations")
    lines.append(f"trace.overhead_frac {result['metrics']['trace.overhead_frac']:.4f}")
    return lines
