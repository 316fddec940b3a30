"""Measure one workload in this process and print the result as one JSON line.

Started by `run.py` in a fresh interpreter, so the resource usage it reads
(peak RSS of the process and of its reaped children) covers this workload
only.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it sets up once, runs one untraced and one traced round, and
reports the per-layer metrics of `tracer.Tracer`.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Two cold set-ups and one round per ROUND_S seconds of run length keep a
# whole run near 40 s; `setup_s` is the median of the set-ups.
SETUPS = 2
ROUND_S = 10
MIB = 1024 * 1024

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_peak_rss_mb": "MiB",
}

# name -> (unit, where the value comes from)
PER_LAYER = {
    "corpus.ingest_s": ("s", "total", "corpus.ingest"),
    "corpus.ingest_calls": ("count", "calls", "corpus.ingest"),
    "corpus.digest_s": ("s", "total", "corpus.digest"),
    "corpus.save_cache_s": ("s", "total", "corpus.save_cache"),
    "corpus.cache_mb": ("MiB", "workload", "cache_mb"),
    "corpus.load_cache_s": ("s", "total", "corpus.load_cache"),
    "corpus.load_cache_calls": ("count", "calls", "corpus.load_cache"),
    "corpus.snapshot_calls": ("count", "calls", "corpus.snapshot"),
    "corpus.rss_mb": ("MiB", "workload", "rss_mb"),
    "tree.build_idg_s": ("s", "total", "tree.build_idg"),
    "tree.build_idg_calls": ("count", "calls", "tree.build_idg"),
    "tree.build_idt_s": ("s", "total", "tree.build_idt"),
    "tree.build_idt_calls": ("count", "calls", "tree.build_idt"),
    "tree.citers": ("count", "counts", "tree.citers"),
    "metrics.paper_metrics_s": ("s", "self", "metrics.paper_metrics"),
    "metrics.paper_metrics_calls": ("count", "calls", "metrics.paper_metrics"),
    "metrics.corpus_metrics_s": ("s", "total", "metrics.corpus_metrics"),
    "metrics.corpus_metrics_jobs2_s": ("s", "total", "metrics.corpus_metrics_jobs2"),
    "metrics.children_cpu_s": ("s", "counts", "metrics.children_cpu_s"),
    "metrics.children_peak_rss_mb": ("MiB", "counts", "metrics.children_peak_rss_mb"),
    "metrics.write_csv_s": ("s", "total", "metrics.write_csv"),
    "metrics.rows": ("count", "counts", "metrics.rows"),
    "experiments.z_experiment_s": ("s", "total", "experiments.z_experiment"),
    "experiments.tot_experiment_s": ("s", "total", "experiments.tot_experiment"),
    "experiments.rank_by_measure_s": ("s", "self", "experiments.rank_by_measure"),
    "experiments.fractional_gain_s": ("s", "total", "experiments.fractional_gain"),
    "experiments.kendall_s": ("s", "total", "experiments.kendall"),
    "experiments.trees_built": ("count", "counts", "experiments.trees_built"),
    "experiments.venues_scored": ("count", "counts", "experiments.venues_scored"),
    "experiments.tot_cases": ("count", "counts", "experiments.tot_cases"),
    "cli.ingest_s": ("s", "total", "cli.ingest"),
    "cli.metrics_s": ("s", "total", "cli.metrics"),
    "cli.eval_z_s": ("s", "total", "cli.eval_z"),
    "cli.eval_tot_s": ("s", "total", "cli.eval_tot"),
    "cli.cache_hits": ("count", "counts", "cli.cache_hits"),
    "trace.spans": ("count", "workload", "spans"),
    "trace.overhead_ratio": ("ratio", "workload", "overhead_ratio"),
}


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss * 1024 / MIB


def _current_rss_mb() -> float:
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except OSError:
        return _peak_rss_mb(resource.RUSAGE_SELF)
    return pages * resource.getpagesize() / MIB


def _cpu_s() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_round(workload, tracer=None):
    """Run one round of operations; returns (wall s, cpu s, attempted, failed).

    With a `tracer`, only the operations are traced, not `keep`.
    """
    results = {}
    failed = 0
    ops = workload.operations()
    if tracer is not None:
        tracer.install()
    try:
        wall, cpu = time.perf_counter(), _cpu_s()
        for name, op in ops:
            try:
                results[name] = op(results)
            except Exception:
                failed += 1
                traceback.print_exc(file=sys.stderr)
        wall, cpu = time.perf_counter() - wall, _cpu_s() - cpu
    finally:
        if tracer is not None:
            tracer.uninstall()
    workload.keep(results)
    return wall, cpu, len(ops), failed


def measure(workload, seconds: float) -> tuple[dict, int, int]:
    setup_times = []
    setup_peak = 0.0
    for i in range(SETUPS):
        workload.reset()
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
        if i == 0:
            setup_peak = _peak_rss_mb(resource.RUSAGE_SELF)
    walls, cpus = [], []
    attempted = failed = 0
    # A fixed number of whole rounds for a given length, so that every run
    # does the same work whatever the host's speed at the time.
    for _ in range(max(1, round(seconds / ROUND_S))):
        wall, cpu, n_ops, n_failed = run_round(workload)
        walls.append(wall)
        cpus.append(cpu)
        attempted += n_ops
        failed += n_failed
    metrics = {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": max(_peak_rss_mb(resource.RUSAGE_SELF), _peak_rss_mb(resource.RUSAGE_CHILDREN)),
        "setup_peak_rss_mb": setup_peak,
    }
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}, attempted, failed


def measure_traced(workload, spans_path: Path) -> tuple[dict, int, int]:
    from tracer import Tracer

    tracer = Tracer()
    rss_before = _current_rss_mb()
    tracer.install()
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    rss_mb = _current_rss_mb() - rss_before
    cache_mb = workload.cache_mb()
    untraced, _, attempted, failed = run_round(workload)
    traced, _, n_ops, n_failed = run_round(workload, tracer)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans_path)
    own = {"cache_mb": cache_mb, "rss_mb": rss_mb, "spans": len(tracer.spans),
           "overhead_ratio": traced / untraced}
    sources = {"total": tracer.total, "self": tracer.self_time, "calls": tracer.calls,
               "counts": tracer.counts, "workload": own}
    metrics = {
        name: {"value": sources[kind].get(key, 0), "unit": unit}
        for name, (unit, kind, key) in PER_LAYER.items()
    }
    return metrics, attempted + n_ops, failed + n_failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, WORK_DIR

    workload = WORKLOADS[args.workload](ROOT, args.seed)
    if args.trace:
        spans = ROOT / WORK_DIR / "trace" / f"{args.workload}-seed{args.seed}.json"
        metrics, attempted, failed = measure_traced(workload, spans)
    else:
        metrics, attempted, failed = measure(workload, args.seconds)
    problems = workload.check()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
