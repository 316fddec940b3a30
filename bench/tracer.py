"""Spans around the calls into each layer of `idtree`, recorded from outside.

`Tracer.install` replaces public functions on their modules with wrappers
that record a span (name, start, end, parent) per call; `uninstall` puts the
originals back.  Where a module imports a function by name, that name is
replaced too, so calls between layers are seen.  Spans stay in memory until
`write_spans`.  Calls inside worker processes are not recorded.
"""

from __future__ import annotations

import functools
import json
import resource
import time
from collections import defaultdict

MIB = 1024 * 1024


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(int)
        self._stack: list[list] = []   # [span index, child time] of open spans
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, on_result=None):
        """Wrap `fn` so each call records a span; `on_result(tracer, args, kwargs, result)` adds counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            parent = self._stack[-1][0] if self._stack else -1
            frame = [len(self.spans), 0.0]
            self.spans.append((span_name, 0.0, 0.0, parent))
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                elapsed = end - start
                self.spans[frame[0]] = (span_name, start, end, parent)
                self.total[span_name] += elapsed
                self.self_time[span_name] += elapsed - frame[1]
                self.calls[span_name] += 1
                if self._stack:
                    self._stack[-1][1] += elapsed
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return wrapper

    def patch(self, owners, attr: str, wrapper) -> None:
        for owner in owners:
            self._patched.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    # -- the layers of idtree ----------------------------------------------

    def install(self) -> None:
        from idtree import cli, corpus, experiments, metrics, tree

        def on_build_idt(tr, args, kwargs, result):
            tr.counts["tree.citers"] += len(result.parent)

        def corpus_metrics_name(args, kwargs):
            return "metrics.corpus_metrics_jobs2" if kwargs.get("jobs", 1) > 1 else "metrics.corpus_metrics"

        def on_csv(tr, args, kwargs, result):
            tr.counts["metrics.rows"] += len(args[0])

        def on_load_cache(tr, args, kwargs, result):
            tr.counts["cli.cache_hits"] += result is not None

        def on_z(tr, args, kwargs, result):
            tr.counts["experiments.venues_scored"] += len(result.venues)

        def on_tot(tr, args, kwargs, result):
            tr.counts["experiments.tot_cases"] += len(result.cases)

        def on_experiment_tree(tr, args, kwargs, result):
            tr.counts["experiments.trees_built"] += 1

        self.patch([corpus], "ingest", self.span("corpus.ingest", corpus.ingest))
        self.patch([corpus], "file_digest", self.span("corpus.digest", corpus.file_digest))
        self.patch([corpus], "save_cache", self.span("corpus.save_cache", corpus.save_cache))
        self.patch([corpus], "load_cache", self.span("corpus.load_cache", corpus.load_cache, on_load_cache))
        self.patch([corpus.CitationCorpus], "snapshot",
                   self.span("corpus.snapshot", corpus.CitationCorpus.snapshot))

        self.patch([tree, metrics], "build_idg", self.span("tree.build_idg", tree.build_idg))
        self.patch([tree, metrics], "build_idt", self.span("tree.build_idt", tree.build_idt, on_build_idt))

        paper_metrics = metrics.paper_metrics
        self.patch([metrics], "paper_metrics", self.span("metrics.paper_metrics", paper_metrics))
        self.patch([experiments], "paper_metrics",
                   self.span("metrics.paper_metrics", paper_metrics, on_experiment_tree))
        self.patch([metrics, experiments], "corpus_metrics",
                   self.span(corpus_metrics_name, self._with_children(metrics.corpus_metrics)))
        self.patch([metrics], "write_metrics_csv",
                   self.span("metrics.write_csv", metrics.write_metrics_csv, on_csv))

        for name, attr in (
            ("experiments.z_experiment", "z_experiment"),
            ("experiments.tot_experiment", "tot_experiment"),
            ("experiments.rank_by_measure", "rank_by_measure"),
            ("experiments.fractional_gain", "fractional_gain_list"),
            ("experiments.kendall", "kendall_tau_distance"),
        ):
            hook = {"z_experiment": on_z, "tot_experiment": on_tot}.get(attr)
            self.patch([experiments], attr, self.span(name, getattr(experiments, attr), hook))

        for name, attr in (
            ("cli.ingest", "cmd_ingest"),
            ("cli.metrics", "cmd_metrics"),
            ("cli.eval_z", "cmd_eval_z"),
            ("cli.eval_tot", "cmd_eval_tot"),
        ):
            self.patch([cli], attr, self.span(name, getattr(cli, attr)))

    def _with_children(self, fn):
        """Add the CPU time and peak RSS of worker processes reaped during `fn`."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            result = fn(*args, **kwargs)
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
            self.counts["metrics.children_cpu_s"] += cpu
            if cpu > 0:
                self.counts["metrics.children_peak_rss_mb"] = after.ru_maxrss * 1024 / MIB
            return result

        return wrapper

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def write_spans(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent"],
                "names": names,
                "spans": [[index[n], round(s, 7), round(e, 7), p] for n, s, e, p in self.spans],
            }, fh, separators=(",", ":"))
