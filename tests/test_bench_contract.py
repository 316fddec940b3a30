"""The benchmark's tracer still finds and wraps the package functions it times.

`bench/tracer.py` looks functions up by name on their modules, so a renamed
or removed function would otherwise surface only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

from idtree import experiments, metrics
from idtree.synth import make_tot_benchmark, make_z_benchmark

_spec = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_tracer_records_the_benchmark_calls(toy, tmp_path):
    original = metrics.corpus_metrics
    tr = tracer.Tracer()
    tr.install()
    try:
        result = metrics.corpus_metrics(toy, tie="random", seed=11, jobs=2)
        metrics.write_metrics_csv(result, tmp_path / "metrics.csv")
        experiments.z_experiment(make_z_benchmark(seed=0))
        # z_experiment and tot_experiment do not call rank_by_measure, so its wrap is proved here
        experiments.rank_by_measure(["P"], "nid", toy)
        # nor do they take snapshots, gains or Kendall distances
        toy.snapshot(2001)
        gains, _ = experiments.fractional_gain_list(["P", "p1"], toy, 2000, 1, 3)
        experiments.kendall_tau_distance(gains, gains)
        corpus, awardees = make_tot_benchmark()
        experiments.tot_experiment(corpus, awardees)
    finally:
        tr.uninstall()
    assert metrics.corpus_metrics is original
    # the benchmark counts rows with len() and its oracle test iterates the result
    assert tr.counts["metrics.rows"] == len(result) == 4
    assert list(result) == [metrics.paper_metrics(toy, pid, tie="random", seed=11) for pid in result.paper_ids]
    names = {span[0] for span in tr.spans}
    assert {
        "metrics.corpus_metrics_jobs2",
        "metrics.write_csv",
        "experiments.z_experiment",
        "experiments.rank_by_measure",
        "experiments.tot_experiment",
        "corpus.snapshot",
        "experiments.fractional_gain",
        "experiments.kendall",
    } <= names
