"""Batch command-line front end.

Subcommands wire the library into reproducible file-to-file runs:

* ``ingest``   raw edge/metadata files -> binary corpus cache + report
* ``metrics``  per-paper tree metrics CSV
* ``stats``    depth/breadth histograms, scatter CSV, correlations
* ``eval-z``   venue z-score experiment (``--years``, ``--t1``, ``--t2``)
* ``eval-tot`` award ranking experiment (``--awardees``, ``--pct``)
* ``synth``    synthetic corpora and fixtures

Exit codes: 0 success, 1 usage error, 2 data error.  Commands that read a
corpus keep a cache next to their outputs, keyed by a digest of the input
files, so repeated experiments skip re-parsing.  Each command loads, then
computes, then writes: the library checks its own arguments, and ``--out`` is
made and written only once that work has returned, so a run refused for its
inputs or flags leaves ``--out`` as it was.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import os
import sys
from pathlib import Path

from . import __version__
from . import corpus as corpus_mod
from . import experiments as exp
from . import metrics as metrics_mod
from . import synth
from .corpus import CorpusError
from .tree import TIE_POLICIES

CACHE_NAME = "corpus.cache"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_years(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise UsageError(f"--years expects LO:HI, got {text!r}") from None
    if lo > hi:
        raise UsageError(f"--years range is empty: {text!r}")
    return lo, hi


def _require_file(path: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise CorpusError(f"input file not found: {path}")
    return p


def _load(args, *, force: bool = False):
    """Check the input files and read the corpus from the cache in --out when
    it holds these files' digest, else ingest them in memory.  Writes nothing.
    Returns the corpus, its ingest report (from the cache's header on a hit) and
    the digest to cache a new corpus under, None on a hit."""
    edges, meta = _require_file(args.edges), _require_file(args.meta)
    digest = corpus_mod.file_digest(edges, meta)
    cache_path = Path(args.out) / CACHE_NAME
    cached = None if force else corpus_mod.load_cache(cache_path, expect_hash=digest)
    if cached is not None:
        return cached, corpus_mod.cache_report(cache_path), None
    return *corpus_mod.ingest_files(edges, meta), digest


def _write_out(args, corpus=None, report=None, digest=None) -> Path:
    """Make --out and write run_config.json, then for a corpus command the ingest
    report and a new cache, if any, moved into place after the report so that a
    partly written one is never at `corpus.cache`.  Called once a command's work
    has succeeded; an empty corpus is refused before any file is written."""
    if corpus is not None and len(corpus) == 0:
        raise CorpusError("no papers survived preprocessing; refusing to continue")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # Every knob, including the seed all randomness flows through, so a run
    # can be replayed from its output directory alone.
    config = {k: v for k, v in vars(args).items() if k != "func"}
    config["version"] = __version__
    (out / "run_config.json").write_text(
        json.dumps(config, indent=2, sort_keys=True, default=str) + "\n", encoding="utf-8"
    )
    if report is not None:
        new_cache = out / f"{CACHE_NAME}.tmp"
        if digest is not None:
            corpus_mod.save_cache(corpus, new_cache, source_hash=digest, report=report)
        (out / "ingest_report.json").write_text(report.to_json() + "\n", encoding="utf-8")
        if digest is not None:
            os.replace(new_cache, out / CACHE_NAME)
    return out


def cmd_ingest(args) -> int:
    corpus, report, digest = _load(args, force=True)
    print(report.to_json())
    out = _write_out(args, corpus, report, digest)
    print(f"corpus cached at {out / CACHE_NAME}: {len(corpus)} papers, {corpus.n_edges} edges")
    return 0


def cmd_metrics(args) -> int:
    try:   # before any input is read; each id once, in id order, whether scored or rejected
        ids = sorted(set(next(csv.reader([args.ids or ""], skipinitialspace=True))) - {""})
    except csv.Error as err:   # an unquoted line break, or an id past the csv field limit
        raise UsageError(f"--ids is not one CSV record; quote an id that holds a line break ({err})") from None
    corpus, *cache = _load(args)
    # no --ids scores every paper; an --ids that names no id, none
    requested = None if args.ids is None else [pid for pid in ids if corpus.has_paper(pid)]
    errors = [(pid, "unknown paper id") for pid in ids if not corpus.has_paper(pid)]
    reports = metrics_mod.corpus_metrics(corpus, requested, tie=args.tie, seed=args.seed)
    out = _write_out(args, corpus, *cache)
    metrics_mod.write_metrics_csv(reports, out / "metrics.csv")
    if errors:
        corpus_mod.write_csv(out / "metrics_errors.csv", ("paper_id", "error"), errors)
    else:
        (out / "metrics_errors.csv").unlink(missing_ok=True)   # an earlier run's list
    print(f"wrote {len(reports)} rows to {out / 'metrics.csv'}"
          + (f" ({len(errors)} ids rejected)" if errors else ""))
    return 0


def cmd_stats(args) -> int:
    corpus, *cache = _load(args)
    stats = exp.corpus_stats(corpus, tie=args.tie, seed=args.seed)
    out = _write_out(args, corpus, *cache)
    exp.write_histogram_csv(stats.depth_hist, out / "depth_hist.csv", "depth")
    exp.write_histogram_csv(stats.breadth_hist, out / "breadth_hist.csv", "breadth")
    exp.write_scatter_csv(stats.reports, out / "scatter.csv")
    summary = {
        "n_papers": len(stats.reports),
        "n_uncited": stats.n_uncited,
        "correlations": stats.correlations,
    }
    exp.write_summary_json(summary, out / "stats_summary.json")
    for name, rho in sorted(stats.correlations.items()):
        print(f"{name}: {rho}")
    print(f"wrote histograms and scatter for {len(stats.reports)} papers to {out}")
    return 0


def cmd_eval_z(args) -> int:
    corpus, *cache = _load(args)
    report = exp.z_experiment(
        corpus, args.years, args.t1, args.t2, tie=args.tie, seed=args.seed, gain_mode=args.gain
    )
    # a venue from a lone-surrogate JSON escape fits no UTF-8 file: refused before --out is made
    "".join(report.venue).encode("utf-8")
    out = _write_out(args, corpus, *cache)
    exp.write_venues_csv(report, out / "venues.csv")
    exp.write_summary_json(report.to_summary_dict(), out / "z_summary.json")
    if not report:   # the empty table and summary are this run's result, written before the exit 2
        raise CorpusError(
            f"no venue in {args.years[0]}:{args.years[1]} produced a z score "
            f"({len(report.skipped)} skipped)"
        )
    print(f"venues scored: {len(report)} (skipped {len(report.skipped)})")
    print(f"mean z (nid):  {report.mean_z_nid}")
    print(f"mean z (cite): {report.mean_z_cite}")
    return 0


def _read_awardees(path: Path) -> list[tuple[str, str, int]]:
    rows: list[tuple[str, str, int]] = []
    first = True
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        for parts in reader:
            lineno = reader.line_num
            # ids and venues are taken verbatim: "a " and "a" are two papers
            if [p.strip() for p in parts] in ([], [""]) or parts[0].lstrip().startswith("#"):
                continue
            if len(parts) != 3:
                raise CorpusError(f"{path}:{lineno}: expected paper_id,venue,year")
            pid, venue, year_text = parts
            try:
                rows.append((pid, venue, int(year_text)))
            except ValueError:
                if not first:   # a year int() cannot read marks the first row as a header
                    raise CorpusError(f"{path}:{lineno}: year is not an integer: {year_text!r}") from None
            first = False
    if not rows:
        raise CorpusError(f"no awardee rows found in {path}")
    return rows


def cmd_eval_tot(args) -> int:
    awardees = _read_awardees(_require_file(args.awardees))
    corpus, *cache = _load(args)
    report = exp.tot_experiment(
        corpus, awardees, pct=args.pct, horizon=args.t2, tie=args.tie, seed=args.seed
    )
    out = _write_out(args, corpus, *cache)
    exp.write_tot_csv(report, out / "tot_cases.csv")
    exp.write_summary_json(report.to_summary_dict(), out / "tot_summary.json")
    if not report.cases:
        raise CorpusError(f"no award case completed ({len(report.skipped)} skipped)")
    print(f"cases completed: {len(report.cases)} (skipped {len(report.skipped)})")
    print(f"MRR (nid):  {report.mrr_nid}")
    print(f"MRR (cite): {report.mrr_cite}")
    return 0


def cmd_synth(args) -> int:
    awardees = tree = None
    if args.kind == "toy":
        corpus = synth.toy_corpus()
    elif args.kind == "random":
        corpus = synth.gen_random_corpus(
            args.n_papers, args.years, mean_refs=args.mean_refs,
            bias=args.bias, followup=args.followup, seed=args.seed,
        )
    elif args.kind == "planted-z":
        corpus = synth.make_z_benchmark(seed=args.seed, t1=args.t1, t2=args.t2)
    elif args.kind == "planted-tot":
        corpus, awardees = synth.make_tot_benchmark()
    else:
        builders = {"star": synth.star_tree, "chain": synth.chain_tree, "ideal": synth.ideal_tree,
                    "broom": lambda n: synth.broom_tree(n, args.k)}
        tree = builders[args.kind](args.n)
        corpus = synth.corpus_for_tree(tree)
    out = _write_out(args)
    # a kind without awardees or a tree removes the file an earlier run left
    if awardees is not None:
        corpus_mod.write_csv(out / "awardees.csv", ("paper_id", "venue", "year"), awardees)
    else:
        (out / "awardees.csv").unlink(missing_ok=True)
    if tree is not None:
        (out / "tree.json").write_text(tree.to_json() + "\n", encoding="utf-8")
    else:
        (out / "tree.json").unlink(missing_ok=True)
    corpus_mod.write_edge_file(corpus, out / "edges.tsv")
    corpus_mod.write_metadata_file(corpus, out / "meta.jsonl")
    print(f"wrote {len(corpus)} papers, {corpus.n_edges} edges to {out}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="idtree", description="Citation dispersion-tree analytics")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_corpus_flags(p):
        p.add_argument("--edges", required=True, help="edge file: citing<TAB>cited per line")
        p.add_argument("--meta", required=True, help="metadata file: one JSON object per line")
        p.add_argument("--out", required=True, help="output directory")

    def add_tree_flags(p):
        p.add_argument("--tie", choices=TIE_POLICIES, default="min-id",
                       help="depth tie policy for tree construction")
        p.add_argument("--seed", type=int, default=0, help="seed for all randomness")

    p = sub.add_parser("ingest", help="clean raw files into a cached corpus")
    add_corpus_flags(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("metrics", help="per-paper tree metrics CSV")
    add_corpus_flags(p)
    add_tree_flags(p)
    p.add_argument("--ids", help='comma-separated paper ids; quote one holding a comma: \'"a,b",c\' (default: all)')
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("stats", help="corpus-wide distribution statistics")
    add_corpus_flags(p)
    add_tree_flags(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("eval-z", help="venue z-score experiment")
    add_corpus_flags(p)
    add_tree_flags(p)
    p.add_argument("--years", type=_parse_years, default=(1995, 2000),
                   help="venue publication years, LO:HI (default 1995:2000)")
    p.add_argument("--t1", type=int, default=5, help="ranking horizon in years")
    p.add_argument("--t2", type=int, default=10, help="gain horizon in years")
    p.add_argument("--gain", choices=exp.GAIN_MODES, default="fractional",
                   help="citation gain scoring mode")
    p.set_defaults(func=cmd_eval_z)

    p = sub.add_parser("eval-tot", help="award ranking experiment")
    add_corpus_flags(p)
    add_tree_flags(p)
    p.add_argument("--awardees", required=True, help="CSV of paper_id,venue,year")
    p.add_argument("--pct", type=float, default=0.05, help="top-cited competitor fraction")
    p.add_argument("--t2", type=int, default=10, help="ranking horizon in years")
    p.set_defaults(func=cmd_eval_tot)

    p = sub.add_parser("synth", help="generate synthetic corpora and fixtures")
    p.add_argument("--kind", required=True,
                   choices=["toy", "random", "planted-z", "planted-tot",
                            "star", "chain", "broom", "ideal"])
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n", type=int, default=9, help="citer count for shape kinds")
    p.add_argument("--k", type=int, default=None, help="broom handle length (broom only)")
    p.add_argument("--n-papers", type=int, default=1000, help="paper count for random corpora")
    p.add_argument("--years", type=_parse_years, default=(1980, 2010),
                   help="publication year range for random corpora")
    p.add_argument("--mean-refs", type=float, default=3.0, help="mean references per paper")
    p.add_argument("--bias", type=float, default=0.0, help="preferential attachment bias in [0,1]")
    p.add_argument("--followup", type=float, default=0.0,
                   help="probability a citation also cites a citer of its target")
    p.add_argument("--t1", type=int, default=5, help="planted-z ranking horizon")
    p.add_argument("--t2", type=int, default=10, help="planted-z gain horizon")
    p.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "seed", 0) < 0:   # shared by commands whose library call may never read it
            raise UsageError(f"seed must be >= 0, got {args.seed}")
        if os.path.exists(args.out) and not os.path.isdir(args.out):   # refused before any input is read
            raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), args.out)
        return args.func(args)
    except (CorpusError, OSError, UnicodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (UsageError, ValueError) as err:
        # the library rejects out-of-range flag values with ValueError
        print(f"usage error: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
