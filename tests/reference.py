"""Slow references the tests check the package against.

The per-edge reference ingest is the oracle of `idtree.corpus.ingest`'s
array passes.  It applies the cleaning rules one edge at a time, with the
id strings themselves as keys: a set of seen (citing, cited) tuples for
rule 3 and a dict lookup per end for rule 4.  `reference_ingest` returns
what the array path must return: the report and the arguments of
`CitationCorpus._fill`.

`tree_from_parent_row` turns one row of `idtree.synth.random_parent_matrix`
into an `InfluenceTree`, so the tree metrics can be checked against the
vectorized `parent_matrix_stats`.
"""

from __future__ import annotations

from itertools import compress

import numpy as np

from idtree.corpus import YEAR_MAX, YEAR_MIN, IngestReport, PaperRecord, _edges_on_cycles
from idtree.synth import _node_ids
from idtree.tree import InfluenceTree, tree_from_parent_map


def _coerce_record(item) -> PaperRecord | None:
    if isinstance(item, PaperRecord):
        pid, year, venue = item.id, item.year, item.venue
    elif isinstance(item, dict):
        pid, year, venue = item.get("id"), item.get("year"), item.get("venue")
    else:
        return None
    if not isinstance(pid, str) or not pid:
        return None
    if isinstance(year, bool) or not isinstance(year, int) or not YEAR_MIN <= year <= YEAR_MAX:
        return None
    if venue is not None and not isinstance(venue, str):
        return None
    return PaperRecord(pid, year, venue)


def _coerce_edge(item) -> tuple[str, str] | None:
    if not isinstance(item, (tuple, list)) or len(item) != 2:
        return None
    citing, cited = item
    if not isinstance(citing, str) or not isinstance(cited, str) or not citing or not cited:
        return None
    return (citing, cited)


def _screen(records, edges):
    """Rules 1-6: the records by id, the edges that pass, and their counters."""
    report = IngestReport()

    recs: dict[str, PaperRecord] = {}
    for item in records:
        report.papers_in += 1
        rec = _coerce_record(item)
        if rec is None or rec.id in recs:
            report.malformed_papers += 1
            continue
        recs[rec.id] = rec

    kept: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for item in edges:
        report.edges_in += 1
        edge = _coerce_edge(item)
        if edge is None:
            report.malformed_edges += 1
            continue
        citing, cited = edge
        if citing == cited:
            report.dropped_self += 1
            continue
        if edge in seen:
            report.dropped_dup += 1
            continue
        seen.add(edge)
        citing_rec, cited_rec = recs.get(citing), recs.get(cited)
        if citing_rec is None or cited_rec is None:
            report.dropped_unknown += 1
            continue
        if citing_rec.year < cited_rec.year:
            report.dropped_forward += 1
            continue
        kept.append((citing_rec.id, cited_rec.id))

    same_year = [(u, v) for u, v in kept if recs[u].year == recs[v].year]
    cyclic = set(compress(same_year, _edges_on_cycles(same_year)))
    if cyclic:
        report.dropped_cycle = len(cyclic)
        kept = [e for e in kept if e not in cyclic]
    return recs, kept, report


def _arrays(recs: dict[str, PaperRecord], edges: list[tuple[str, str]]):
    """`CitationCorpus._fill`'s arguments for the papers `recs` and the edges between
    them, which `_fill` takes in (citing, cited) row order."""
    ids = sorted(recs)
    rows = dict(zip(ids, range(len(ids))))
    names = sorted({rec.venue for rec in recs.values()} - {None})
    codes = dict(zip(names, range(len(names))))
    years = np.fromiter((recs[pid].year for pid in ids), np.int32, len(ids))
    venues = np.fromiter((codes.get(recs[pid].venue, -1) for pid in ids), np.int32, len(ids))
    pairs = sorted((rows[citing], rows[cited]) for citing, cited in edges)
    src, dst = np.array(pairs, np.int32).reshape(-1, 2).T.copy()
    return ids, names, years, venues, src, dst


def reference_ingest(edges, records):
    """Rules 1-7 one edge at a time: the report and `CitationCorpus._fill`'s arguments."""
    recs, kept, report = _screen(records, edges)
    linked = {p for edge in kept for p in edge}
    report.dropped_isolated = len(recs) - len(linked)
    report.papers_kept = len(linked)
    report.edges_kept = len(kept)
    return report, _arrays({p: recs[p] for p in linked}, kept)


def reference_construct(records, edges):
    """What the constructor must do: the nonzero counters of rules 1-6 it names
    when it refuses, and `CitationCorpus._fill`'s arguments when it does not."""
    recs, kept, report = _screen(records, edges)
    dirty = [f"{k}={v}" for k, v in report.to_dict().items()
             if v and k.startswith(("dropped_", "malformed_"))]
    return dirty, _arrays(recs, kept)


def tree_from_parent_row(row: np.ndarray) -> InfluenceTree:
    """The tree rooted at "P" whose node i (1..n, named as `idtree.synth` names
    citers, v01 ... in order) hangs under node `row[i]`, 0 being the root: one
    row of a parent matrix as a real tree object."""
    n = len(row) - 1
    ids = ["P"] + _node_ids(n)
    parent = {ids[i]: ids[int(row[i])] for i in range(1, n + 1)}
    return tree_from_parent_map("P", parent)
