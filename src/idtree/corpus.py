"""Citation corpus ingestion, hygiene rules, and time-sliced views.

Raw bibliographic edge streams are messy: duplicate rows, self-citations,
citations pointing forward in time (preprints citing later work), papers
with no metadata, and papers that end up with no links at all.  `ingest`
funnels everything through a fixed cleaning order and returns an immutable
`CitationCorpus` plus an `IngestReport` with one counter per rule.

Cleaning order (per edge, then globally):

1. malformed records are rejected and counted,
2. self-citations dropped,
3. exact duplicate edges dropped (before any year screening),
4. edges touching a paper without metadata dropped,
5. forward citations dropped (citing year < cited year),
6. residual same-year cycles broken by dropping every edge that lies on a
   cycle (all such cycles live inside one publication year, so this is the
   "drop both directions" rule generalized to longer cycles),
7. papers left with no citations and no references are removed (such a
   paper has no edge, so removing it strands no other paper).
"""

from __future__ import annotations

import csv
import hashlib
import json
import pickle
from bisect import bisect_right
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator, Sequence


class CorpusError(Exception):
    """Unusable corpus input or request."""


class UnknownPaperError(CorpusError):
    """Requested paper id is absent from the corpus or view."""

    def __init__(self, paper_id: str):
        super().__init__(f"unknown paper id: {paper_id!r}")
        self.paper_id = paper_id


@dataclass(frozen=True)
class PaperRecord:
    """One paper: opaque id, publication year, optional venue.

    A venue string identifies one series+year pairing (e.g. ``"JCDL-2000"``),
    so two editions of the same series are distinct venues.
    """

    id: str
    year: int
    venue: str | None = None


@dataclass
class IngestReport:
    """Counters for every cleaning rule applied during ingest."""

    papers_in: int = 0
    papers_kept: int = 0
    edges_in: int = 0
    edges_kept: int = 0
    dropped_self: int = 0
    dropped_dup: int = 0
    dropped_forward: int = 0
    dropped_cycle: int = 0
    dropped_isolated: int = 0
    dropped_unknown: int = 0
    malformed_papers: int = 0
    malformed_edges: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


class CitationCorpus:
    """Immutable deduplicated citation DAG over a set of papers.

    Edges are (citing_id, cited_id) pairs.  The constructor applies rules 1-6
    of `ingest` and raises `CorpusError`, naming each nonzero counter, on
    anything `ingest` would drop; papers without edges are allowed.
    """

    __slots__ = ("_records", "_citers", "_citer_years", "_refs", "_ids", "_n_edges", "__weakref__")

    def __init__(self, records: Iterable[PaperRecord], edges: Iterable[tuple[str, str]]):
        recs, kept, report = _screen(records, edges)
        dirty = [f"{k}={v}" for k, v in report.to_dict().items()
                 if v and k.startswith(("dropped_", "malformed_"))]
        if dirty:
            raise CorpusError(f"corpus input is not clean ({', '.join(dirty)}); use ingest")
        self._index(recs, kept)

    def _index(self, recs: dict[str, PaperRecord], edges: list[tuple[str, str]]) -> None:
        citers: dict[str, list[str]] = {pid: [] for pid in recs}
        refs: dict[str, list[str]] = {pid: [] for pid in recs}
        for citing, cited in edges:
            refs[citing].append(cited)
            citers[cited].append(citing)
        self._records = recs
        self._refs = {pid: frozenset(rs) for pid, rs in refs.items()}
        self._ids = tuple(sorted(recs))
        self._n_edges = len(edges)
        for lst in citers.values():
            lst.sort(key=lambda c: (recs[c].year, c))
        self._citers = {pid: tuple(lst) for pid, lst in citers.items()}
        self._citer_years = {pid: tuple(recs[c].year for c in lst) for pid, lst in citers.items()}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, paper_id: str) -> bool:
        return paper_id in self._records

    @property
    def paper_ids(self) -> tuple[str, ...]:
        return self._ids

    @property
    def n_edges(self) -> int:
        return self._n_edges

    def has_paper(self, paper_id: str) -> bool:
        return paper_id in self._records

    def record(self, paper_id: str) -> PaperRecord:
        try:
            return self._records[paper_id]
        except KeyError:
            raise UnknownPaperError(paper_id) from None

    def year(self, paper_id: str) -> int:
        return self.record(paper_id).year

    def citations_of(self, paper_id: str) -> tuple[str, ...]:
        """Ids of papers citing `paper_id`, ordered by (year, id)."""
        try:
            return self._citers[paper_id]
        except KeyError:
            raise UnknownPaperError(paper_id) from None

    def citation_count(self, paper_id: str) -> int:
        return len(self.citations_of(paper_id))

    def references_of(self, paper_id: str) -> frozenset[str]:
        """Ids of papers that `paper_id` cites."""
        try:
            return self._refs[paper_id]
        except KeyError:
            raise UnknownPaperError(paper_id) from None

    def edges(self) -> Iterator[tuple[str, str]]:
        """All (citing, cited) pairs in sorted order."""
        for citing in self._ids:
            for cited in sorted(self._refs[citing]):
                yield (citing, cited)

    def year_range(self) -> tuple[int, int]:
        if not self._records:
            raise CorpusError("empty corpus has no year range")
        years = [r.year for r in self._records.values()]
        return min(years), max(years)

    def snapshot(self, cutoff_year: int) -> "CorpusSnapshot":
        """View restricted to papers and citing activity up to `cutoff_year`."""
        return CorpusSnapshot(self, cutoff_year)


class CorpusSnapshot:
    """Time-sliced read-only view of a corpus.

    Contains papers published in or before the cutoff year and edges whose
    citing paper falls within the cutoff (the cited side then does too,
    because retained citations never point forward in time).
    """

    __slots__ = ("base", "cutoff_year")

    def __init__(self, base: CitationCorpus, cutoff_year: int):
        self.base = base
        self.cutoff_year = cutoff_year

    def __contains__(self, paper_id: str) -> bool:
        return self.has_paper(paper_id)

    def has_paper(self, paper_id: str) -> bool:
        return self.base.has_paper(paper_id) and self.base.year(paper_id) <= self.cutoff_year

    @property
    def paper_ids(self) -> tuple[str, ...]:
        return tuple(p for p in self.base.paper_ids if self.base.year(p) <= self.cutoff_year)

    def record(self, paper_id: str) -> PaperRecord:
        rec = self.base.record(paper_id)
        if rec.year > self.cutoff_year:
            raise UnknownPaperError(paper_id)
        return rec

    def year(self, paper_id: str) -> int:
        return self.record(paper_id).year

    def citations_of(self, paper_id: str) -> tuple[str, ...]:
        self.record(paper_id)
        years = self.base._citer_years[paper_id]
        return self.base._citers[paper_id][: bisect_right(years, self.cutoff_year)]

    def citation_count(self, paper_id: str) -> int:
        self.record(paper_id)
        years = self.base._citer_years[paper_id]
        return bisect_right(years, self.cutoff_year)

    def references_of(self, paper_id: str) -> frozenset[str]:
        self.record(paper_id)
        return self.base.references_of(paper_id)

    def edges(self) -> Iterator[tuple[str, str]]:
        for citing, cited in self.base.edges():
            if self.base.year(citing) <= self.cutoff_year:
                yield (citing, cited)


def _coerce_record(item) -> PaperRecord | None:
    if isinstance(item, PaperRecord):
        pid, year, venue = item.id, item.year, item.venue
    elif isinstance(item, dict):
        pid, year, venue = item.get("id"), item.get("year"), item.get("venue")
    else:
        return None
    if not isinstance(pid, str) or not pid:
        return None
    if isinstance(year, bool) or not isinstance(year, int):
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


def _edges_on_cycles(edges: list[tuple[str, str]]) -> set[tuple[str, str]]:
    """Edges lying on a directed cycle: both endpoints in one nontrivial SCC."""
    adj: dict[str, list[str]] = defaultdict(list)
    nodes: set[str] = set()
    for u, v in edges:
        adj[u].append(v)
        nodes.add(u)
        nodes.add(v)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    comp: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = 0
    n_comp = 0
    comp_size: dict[int, int] = {}
    for start in sorted(nodes):
        if start in index:
            continue
        work = [(start, iter(adj[start]))]
        index[start] = low[start] = counter
        counter += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                size = 0
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp[w] = n_comp
                    size += 1
                    if w == node:
                        break
                comp_size[n_comp] = size
                n_comp += 1
    return {(u, v) for u, v in edges if comp[u] == comp[v] and comp_size[comp[u]] > 1}


def _screen(records: Iterable, edges: Iterable) -> tuple[dict[str, PaperRecord], list[tuple[str, str]], IngestReport]:
    """Rules 1-6: the records by id, the edges that pass, and their counters.

    Kept edges hold the records' own id strings, so a corpus built from them
    keeps one string per paper.
    """
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
    cyclic = _edges_on_cycles(same_year) if same_year else set()
    if cyclic:
        report.dropped_cycle = len(cyclic)
        kept = [e for e in kept if e not in cyclic]
    return recs, kept, report


def ingest(edges: Iterable, records: Iterable) -> tuple[CitationCorpus, IngestReport]:
    """Build a clean corpus from raw edge and metadata streams.

    `records` yields `PaperRecord`s or dicts with ``id``/``year``/``venue``
    keys; `edges` yields (citing_id, cited_id) pairs.  Malformed items and
    edges touching papers without metadata are rejected and counted, never
    fatal.
    """
    recs, kept, report = _screen(records, edges)
    linked = {p for edge in kept for p in edge}
    report.dropped_isolated = len(recs) - len(linked)
    report.papers_kept = len(linked)
    report.edges_kept = len(kept)
    corpus = CitationCorpus.__new__(CitationCorpus)
    corpus._index({p: recs[p] for p in sorted(linked)}, kept)
    return corpus, report


# ---------------------------------------------------------------------------
# File formats: tab-separated edge lists, JSON-lines metadata, CSV outputs.
# ---------------------------------------------------------------------------

def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows as CSV; fields holding a comma or quote are quoted."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_edge_file(path) -> Iterator[tuple[str, ...]]:
    """Yield raw field tuples from a `citing<TAB>cited` file.

    Blank lines and lines starting with ``#`` are skipped.  Any other line
    is split on tabs and yielded as-is; `ingest` rejects wrong arity.
    """
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            yield tuple(line.split("\t"))


def read_metadata_file(path) -> Iterator:
    """Yield one parsed JSON object per line; undecodable lines yield the raw string."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                yield line


def write_edge_file(corpus: CitationCorpus, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for citing, cited in corpus.edges():
            fh.write(f"{citing}\t{cited}\n")


def write_metadata_file(corpus: CitationCorpus, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for pid in corpus.paper_ids:
            rec = corpus.record(pid)
            obj: dict = {"id": rec.id, "year": rec.year}
            if rec.venue is not None:
                obj["venue"] = rec.venue
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def ingest_files(edge_path, meta_path) -> tuple[CitationCorpus, IngestReport]:
    return ingest(read_edge_file(edge_path), read_metadata_file(meta_path))


# ---------------------------------------------------------------------------
# Binary cache keyed by a digest of the source files.
# ---------------------------------------------------------------------------

CACHE_FORMAT = 2


def file_digest(*paths) -> str:
    """SHA-256 over the files' bytes, each followed by a NUL; read in 1 MiB blocks."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            while block := fh.read(1 << 20):
                h.update(block)
        h.update(b"\x00")
    return h.hexdigest()


def save_cache(corpus: CitationCorpus, path, source_hash: str = "") -> None:
    """Pickle the built corpus with the digest of the files it came from."""
    payload = {"format": CACHE_FORMAT, "source_hash": source_hash, "corpus": corpus}
    with open(path, "wb") as fh:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)


def load_cache(path, expect_hash: str | None = None) -> CitationCorpus | None:
    """Load a cached corpus; returns None when missing, stale, or unreadable.

    The corpus comes back as it was saved, without a second screening: like
    any pickle, the file is trusted to hold what `save_cache` wrote.
    """
    try:
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
    except (OSError, pickle.UnpicklingError, EOFError):
        return None
    if not isinstance(payload, dict) or payload.get("format") != CACHE_FORMAT:
        return None
    if expect_hash is not None and payload.get("source_hash") != expect_hash:
        return None
    corpus = payload.get("corpus")
    return corpus if isinstance(corpus, CitationCorpus) else None
