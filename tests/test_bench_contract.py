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


def test_tracer_records_the_benchmark_calls(toy):
    original = metrics.corpus_metrics
    tr = tracer.Tracer()
    tr.install()
    try:
        metrics.corpus_metrics(toy, tie="random", seed=11, jobs=2)
        experiments.z_experiment(make_z_benchmark(seed=0))
        corpus, awardees = make_tot_benchmark()
        experiments.tot_experiment(corpus, awardees)
    finally:
        tr.uninstall()
    assert metrics.corpus_metrics is original
    names = {span[0] for span in tr.spans}
    assert {
        "metrics.corpus_metrics_jobs2",
        "experiments.z_experiment",
        "experiments.rank_by_measure",
        "experiments.tot_experiment",
    } <= names
