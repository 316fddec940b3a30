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
import operator
from collections import defaultdict
from dataclasses import asdict, dataclass
from itertools import chain, compress
from typing import Iterable, Iterator, Sequence

import numpy as np

# Years are stored as int32; a record dated outside this range is malformed.
YEAR_MIN, YEAR_MAX = -2**31, 2**31 - 1


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

    Papers are numbered once, in sorted-id order: a paper's row is its
    position in `paper_ids`.  Per row the corpus stores `years` (int32) and
    `venues`, a code into the sorted `venue_names` (-1 for no venue).  Edges
    are (citing, cited) pairs, kept as two CSR layouts (an offset array plus
    an index array of rows): `citer_offsets`/`citers`, each paper's citers
    ordered by (year, row), and `ref_offsets`/`refs`, its references in row
    order.  The methods taking id strings are views of these arrays.

    The constructor applies rules 1-6 of `ingest` and raises `CorpusError`,
    naming each nonzero counter, on anything `ingest` would drop; papers
    without edges are allowed.
    """

    __slots__ = ("_ids", "_rows", "years", "venues", "venue_names",
                 "citer_offsets", "citers", "ref_offsets", "refs", "__weakref__")

    def __init__(self, records: Iterable[PaperRecord], edges: Iterable[tuple[str, str]]):
        recs, kept, report = _screen(records, edges)
        dirty = [f"{k}={v}" for k, v in report.to_dict().items()
                 if v and k.startswith(("dropped_", "malformed_"))]
        if dirty:
            raise CorpusError(f"corpus input is not clean ({', '.join(dirty)}); use ingest")
        self._fill(*_arrays(recs, kept))

    def _fill(self, ids: Sequence[str], venue_names: Sequence[str], years: np.ndarray,
              venues: np.ndarray, src: np.ndarray, dst: np.ndarray) -> None:
        """The array constructor: papers `ids` (sorted) and edges `src` -> `dst` (rows).

        Raises `CorpusError` unless the arrays make a clean corpus, as
        `load_cache` relies on: every edge in range, distinct, no
        self-citation, none forward in time and none on a same-year cycle.
        """
        n = len(ids)
        if not (all(isinstance(s, str) for s in chain(ids, venue_names))
                and all(all(map(operator.lt, names, names[1:])) for names in (ids, venue_names))
                and all(a.dtype == np.int32 and a.shape == (m,)
                        for a, m in ((years, n), (venues, n), (src, len(src)), (dst, len(src))))
                and ((venues >= -1) & (venues < len(venue_names))).all()
                and ((src >= 0) & (src < n) & (dst >= 0) & (dst < n)).all()):
            raise CorpusError("corpus arrays are inconsistent")
        key = np.sort(src.astype(np.int64) * n + dst)
        src, dst = (key // n).astype(np.int32), (key % n).astype(np.int32)
        same = years[src] == years[dst]
        if ((key[1:] == key[:-1]).any() or (src == dst).any() or (years[src] < years[dst]).any()
                or _edges_on_cycles(list(zip(src[same].tolist(), dst[same].tolist())))):
            raise CorpusError("corpus edges are not clean")
        self._ids, self.venue_names = tuple(ids), tuple(venue_names)
        self._rows = dict(zip(self._ids, range(n)))
        self.years, self.venues, self.refs = years, venues, dst
        self.ref_offsets = np.r_[0, np.cumsum(np.bincount(src, minlength=n))]
        self.citers = src[np.lexsort((src, years[src], dst))]
        self.citer_offsets = np.r_[0, np.cumsum(np.bincount(dst, minlength=n))]
        for a in (self.years, self.venues, self.refs, self.ref_offsets, self.citers, self.citer_offsets):
            a.flags.writeable = False

    def __len__(self) -> int:
        return len(self._ids)

    def has_paper(self, paper_id: str) -> bool:
        return paper_id in self._rows

    __contains__ = has_paper

    @property
    def paper_ids(self) -> tuple[str, ...]:
        return self._ids

    @property
    def n_edges(self) -> int:
        return len(self.refs)

    def row(self, paper_id: str) -> int:
        """The paper's row: its position in `paper_ids`."""
        try:
            return self._rows[paper_id]
        except KeyError:
            raise UnknownPaperError(paper_id) from None

    def _names(self, rows: np.ndarray) -> tuple[str, ...]:
        return tuple(map(self._ids.__getitem__, rows.tolist()))

    @staticmethod
    def _slice(offsets: np.ndarray, index: np.ndarray, row: int) -> np.ndarray:
        return index[offsets[row]:offsets[row + 1]]

    def record(self, paper_id: str) -> PaperRecord:
        row = self.row(paper_id)
        code = int(self.venues[row])
        return PaperRecord(self._ids[row], int(self.years[row]), self.venue_names[code] if code >= 0 else None)

    def year(self, paper_id: str) -> int:
        return int(self.years[self.row(paper_id)])

    def citations_of(self, paper_id: str) -> tuple[str, ...]:
        """Ids of papers citing `paper_id`, ordered by (year, id)."""
        return self._names(self._slice(self.citer_offsets, self.citers, self.row(paper_id)))

    def citation_count(self, paper_id: str) -> int:
        return len(self._slice(self.citer_offsets, self.citers, self.row(paper_id)))

    def references_of(self, paper_id: str) -> tuple[str, ...]:
        """Ids of papers that `paper_id` cites, sorted."""
        return self._names(self._slice(self.ref_offsets, self.refs, self.row(paper_id)))

    def edges(self) -> Iterator[tuple[str, str]]:
        """All (citing, cited) pairs in sorted order."""
        citing = np.repeat(np.arange(len(self._ids)), np.diff(self.ref_offsets))
        return zip(self._names(citing), self._names(self.refs))

    def year_range(self) -> tuple[int, int]:
        if not self._ids:
            raise CorpusError("empty corpus has no year range")
        return int(self.years.min()), int(self.years.max())

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

    def has_paper(self, paper_id: str) -> bool:
        return paper_id in self.base and self.base.year(paper_id) <= self.cutoff_year

    __contains__ = has_paper

    @property
    def paper_ids(self) -> tuple[str, ...]:
        return tuple(compress(self.base.paper_ids, self.base.years <= self.cutoff_year))

    def row(self, paper_id: str) -> int:
        row = self.base.row(paper_id)
        if self.base.years[row] > self.cutoff_year:
            raise UnknownPaperError(paper_id)
        return row

    def record(self, paper_id: str) -> PaperRecord:
        self.row(paper_id)
        return self.base.record(paper_id)

    def year(self, paper_id: str) -> int:
        return self.record(paper_id).year

    def _citers(self, paper_id: str) -> np.ndarray:
        citers = self.base._slice(self.base.citer_offsets, self.base.citers, self.row(paper_id))
        return citers[:np.searchsorted(self.base.years[citers], self.cutoff_year, "right")]

    def citations_of(self, paper_id: str) -> tuple[str, ...]:
        return self.base._names(self._citers(paper_id))

    def citation_count(self, paper_id: str) -> int:
        return len(self._citers(paper_id))

    def references_of(self, paper_id: str) -> tuple[str, ...]:
        self.row(paper_id)
        return self.base.references_of(paper_id)


def _arrays(recs: dict[str, PaperRecord], edges: list[tuple[str, str]]):
    """`CitationCorpus._fill`'s arguments for the papers `recs` and the edges between them."""
    ids = sorted(recs)
    rows = dict(zip(ids, range(len(ids))))
    names = sorted({rec.venue for rec in recs.values()} - {None})
    codes = dict(zip(names, range(len(names))))
    years = np.fromiter((recs[pid].year for pid in ids), np.int32, len(ids))
    venues = np.fromiter((codes.get(recs[pid].venue, -1) for pid in ids), np.int32, len(ids))
    pairs = np.fromiter(map(rows.__getitem__, chain.from_iterable(edges)), np.int32, 2 * len(edges))
    return ids, names, years, venues, pairs[0::2], pairs[1::2]


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


def _edges_on_cycles(edges: list[tuple]) -> set[tuple]:
    """Edges lying on a directed cycle: both ends in one strongly connected component.

    Kosaraju: after a depth-first pass, each node not yet placed, last finished
    first, takes into its component every unplaced node that reaches it."""
    succ: dict = defaultdict(list)
    pred: dict = defaultdict(list)
    for u, v in edges:
        succ[u].append(v)
        pred[v].append(u)
    finished: list = []
    seen: set = set()
    for start in list(succ):
        if start in seen:
            continue
        seen.add(start)
        stack = [(start, iter(succ[start]))]
        while stack:
            node, it = stack[-1]
            nxt = next((w for w in it if w not in seen), None)
            if nxt is None:
                stack.pop()
                finished.append(node)
            else:
                seen.add(nxt)
                stack.append((nxt, iter(succ[nxt])))
    comp: dict = {}
    for root in reversed(finished):
        if root not in comp:
            comp[root] = root
            todo = [root]
            while todo:
                for w in pred[todo.pop()]:
                    if w not in comp:
                        comp[w] = root
                        todo.append(w)
    return {(u, v) for u, v in edges if comp[u] == comp[v]}


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
    corpus._fill(*_arrays({p: recs[p] for p in linked}, kept))
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

CACHE_FORMAT = 4


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
    """Write the corpus and the digest of its files as five `np.save` arrays:
    a JSON header (format, digest, ids, venue names) as ASCII bytes, the
    years, the venue codes, and the citing and the cited row of each edge."""
    head = json.dumps({"format": CACHE_FORMAT, "source_hash": source_hash,
                       "ids": corpus.paper_ids, "venues": corpus.venue_names})
    citing = np.repeat(np.arange(len(corpus), dtype=np.int32), np.diff(corpus.ref_offsets))
    with open(path, "wb") as fh:
        for a in (np.frombuffer(head.encode("ascii"), np.uint8), corpus.years, corpus.venues, citing, corpus.refs):
            np.save(fh, a, allow_pickle=False)


def load_cache(path, expect_hash: str | None = None) -> CitationCorpus | None:
    """Load a cached corpus; returns None when missing, stale, damaged or of another format.

    Nothing in the file is unpickled: the arrays go through the constructor
    `ingest` uses, whose checks refuse any that do not make a clean corpus.
    """
    try:
        with open(path, "rb") as fh:
            head = json.loads(np.load(fh, allow_pickle=False).tobytes())
            arrays = [np.load(fh, allow_pickle=False) for _ in range(4)]
        if head["format"] != CACHE_FORMAT or expect_hash not in (None, head["source_hash"]):
            return None
        corpus = CitationCorpus.__new__(CitationCorpus)
        corpus._fill(head["ids"], head["venues"], *arrays)
    except (OSError, EOFError, ValueError, KeyError, TypeError, AttributeError, CorpusError):
        return None  # whatever a damaged or foreign file makes the parse raise
    return corpus
