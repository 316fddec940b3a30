"""The benchmark's tracer still finds and wraps the package functions it times,
and its input corpus is the one acceptance criterion 6 pins.

`bench/tracer.py` looks functions up by name on their modules, so a renamed
or removed function would otherwise surface only in a traced benchmark run.
"""

import importlib.util
import inspect
from pathlib import Path

from test_acceptance import CRITERION_6_SYNTH

from idtree import corpus as corpus_mod
from idtree import experiments, metrics
from idtree.cli import _build_parser
from idtree.synth import gen_random_corpus, make_tot_benchmark, make_z_benchmark

BENCH = Path(__file__).resolve().parent.parent / "bench"
_spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
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


def test_traced_file_ingest_records_one_ingest_span(toy, corpus_files):
    # ingest_files reads its files in byte blocks, yet goes through the wrapped `ingest`
    edges, meta = corpus_files(toy)
    tr = tracer.Tracer()
    tr.install()
    try:
        corpus, report = corpus_mod.ingest_files(edges, meta)
    finally:
        tr.uninstall()
    assert [span[0] for span in tr.spans] == ["corpus.ingest"]
    assert tr.calls["corpus.ingest"] == 1
    assert corpus.paper_ids == toy.paper_ids and report.edges_kept == toy.n_edges


def test_benchmark_reads_the_corpus_criterion_6_pins(monkeypatch):
    # criterion 6 pins the bytes of its corpus, so that pin covers the benchmark's input
    monkeypatch.syspath_prepend(str(BENCH))   # inputs.py imports its sibling oracle
    inputs = importlib.import_module("inputs")
    flags = _build_parser().parse_args(["synth", *CRITERION_6_SYNTH, "--out", "unused"])
    call = inspect.signature(gen_random_corpus).bind(**inputs.CORPUS_ARGS)
    call.apply_defaults()
    assert call.arguments == {name: getattr(flags, name) for name in call.arguments}
