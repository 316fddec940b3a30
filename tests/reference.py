"""Slow references the tests check the package against.

The per-edge reference ingest is the oracle of `idtree.corpus.ingest`'s
array passes.  It applies the cleaning rules one edge at a time, with the
id strings themselves as keys: a set of seen (citing, cited) tuples for
rule 3 and a dict lookup per end for rule 4.  `reference_ingest` returns
what the array path must return: the report and the arguments of
`CitationCorpus._fill`.

`read_edge_file` and `read_metadata_file` read the two input files line by
line, the oracle of `idtree.corpus.ingest_files`' byte-block reader: fed to
`reference_ingest`, they give what `ingest_files` must return.

`tree_from_parent_map` builds a tree from a hand-written parent map, deriving
each depth by walking the parent chain; it is the oracle of the trees that
`idtree.synth` builds from level sequences.  `tree_from_parent_row` turns one
row of `idtree.synth.random_parent_matrix` into an `InfluenceTree`, so the tree
metrics can be checked against the vectorized `parent_matrix_stats`.

`reference_tree` is the oracle of `idtree.tree.build_idt`'s attach and draw
order: it rescans the unattached citers for the next one each time.
"""

from __future__ import annotations

import json
from itertools import compress
from typing import Iterator, Mapping

import numpy as np

from idtree.corpus import YEAR_MAX, YEAR_MIN, IngestReport, PaperRecord, _edges_on_cycles
from idtree.synth import _node_ids
from idtree.tree import InfluenceGraph, InfluenceTree


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


def read_edge_file(path) -> Iterator[tuple[str, ...]]:
    """Yield raw field tuples from a `citing<TAB>cited` file.

    Blank lines and lines starting with ``#`` are skipped.  Any other line
    is split on tabs and yielded as-is; `ingest` rejects wrong arity.
    """
    with open(path, encoding="utf-8-sig") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.strip() and not line.lstrip().startswith("#"):
                yield tuple(line.split("\t"))


def read_metadata_file(path) -> Iterator:
    """Yield one parsed JSON object per line; undecodable lines yield the raw string."""
    with open(path, encoding="utf-8-sig") as fh:
        for line in fh:
            line = line.strip()
            if line:
                try:
                    yield json.loads(line)
                except json.JSONDecodeError:
                    yield line


def tree_from_parent_map(root: str, parent: Mapping[str, str]) -> InfluenceTree:
    """Build a tree from a parent map, deriving depths; validates reachability."""
    parent = dict(parent)
    depth = {root: 0}

    def resolve(v: str) -> int:
        trail = []
        while v not in depth:
            trail.append(v)
            if v not in parent:
                raise ValueError(f"node {v!r} not reachable from root")
            v = parent[v]
            if len(trail) > len(parent) + 1:
                raise ValueError("parent map contains a cycle")
        d = depth[v]
        for node in reversed(trail):
            d += 1
            depth[node] = d
        return d

    for v in parent:
        resolve(v)
    return InfluenceTree(root, parent, depth)


def tree_from_parent_row(row: np.ndarray) -> InfluenceTree:
    """The tree rooted at "P" whose node i (1..n, named as `idtree.synth` names
    citers, v01 ... in order) hangs under node `row[i]`, 0 being the root: one
    row of a parent matrix as a real tree object."""
    n = len(row) - 1
    ids = ["P"] + _node_ids(n)
    parent = {ids[i]: ids[int(row[i])] for i in range(1, n + 1)}
    return tree_from_parent_map("P", parent)


def reference_tree(idg: InfluenceGraph, tie: str, seed: int) -> InfluenceTree:
    """The dispersion tree of `idg` as the metrics build it, its `parent` in attach order.

    Each step attaches the smallest (year, id) citer whose cited citers are
    all attached, beneath its deepest cited citer (the root when it cites
    none).  Ties go to the smallest id, or under ``"random"`` to one draw of
    ``integers(0, k)`` over the k tied ids in id order, from a generator
    seeded with ``[seed, *UTF-8 bytes of the root id]`` at the first tie.
    """
    gen = None
    parent: dict[str, str] = {}
    depth = {idg.root: 0}
    while len(parent) < idg.n:
        _, v = min((idg.years[v], v) for v in idg.citers
                   if v not in parent and all(u in parent for u in idg.cited_within[v]))
        best = max((depth[u] for u in idg.cited_within[v]), default=0)
        top = sorted(u for u in idg.cited_within[v] if depth[u] == best) or [idg.root]
        if tie == "random" and len(top) > 1:
            gen = gen or np.random.default_rng([seed, *idg.root.encode("utf-8")])
            parent[v] = top[int(gen.integers(0, len(top)))]
        else:
            parent[v] = top[0]
        depth[v] = depth[parent[v]] + 1
    return InfluenceTree(idg.root, parent, depth)
