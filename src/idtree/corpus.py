"""Citation corpus ingestion, hygiene rules, and snapshots by year.

Raw bibliographic edge streams are messy: duplicate rows, self-citations,
citations pointing forward in time (preprints citing later work), papers
with no metadata, and papers that end up with no links at all.  `ingest`
funnels everything through a fixed cleaning order and returns an immutable
`CitationCorpus` plus an `IngestReport` with one counter per rule.

Rule 1 runs while parsing, which gives each id an int code as it is read;
rules 2-7 then run in order as numpy passes over the codes of all edges:

1. malformed and repeated records are rejected and counted,
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
from array import array
from bisect import bisect_left
from collections import defaultdict
from dataclasses import asdict, dataclass
from itertools import chain, compress, repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

# Years are stored as int32; a record dated outside this range is malformed.
YEAR_MIN, YEAR_MAX = -2**31, 2**31 - 1


class CorpusError(Exception):
    """Unusable corpus input or request."""


class UnknownPaperError(CorpusError):
    """Requested paper id is absent from the corpus."""

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

    __slots__ = ("_ids", "years", "venues", "venue_names",
                 "citer_offsets", "citers", "ref_offsets", "refs", "__weakref__")

    def __init__(self, records: Iterable[PaperRecord], edges: Iterable[tuple[str, str]]):
        report, arrays = _clean(records, edges, prune=False)
        dirty = [f"{k}={v}" for k, v in report.to_dict().items()
                 if v and k.startswith(("dropped_", "malformed_"))]
        if dirty:
            raise CorpusError(f"corpus input is not clean ({', '.join(dirty)}); use ingest")
        self._fill(*arrays)

    def _fill(self, ids: Sequence[str], venue_names: Sequence[str], years: np.ndarray,
              venues: np.ndarray, src: np.ndarray, dst: np.ndarray) -> None:
        """The array constructor: papers `ids` (sorted) and edges `src` -> `dst` (rows).

        Raises `CorpusError` unless the arrays make a clean corpus, as
        `load_cache` relies on: every edge in range, distinct, no
        self-citation, none forward in time and none on a same-year cycle.
        """
        n = len(ids)
        if not (all(map(isinstance, chain(ids, venue_names), repeat(str)))
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
        self.years, self.venues, self.refs = years, venues, dst
        self.ref_offsets = np.r_[0, np.cumsum(np.bincount(src, minlength=n))]
        self.citers = sort_by_year(years, dst, src).astype(np.int32)
        self.citer_offsets = np.r_[0, np.cumsum(np.bincount(dst, minlength=n))]
        for a in (self.years, self.venues, self.refs, self.ref_offsets, self.citers, self.citer_offsets):
            a.flags.writeable = False

    def __len__(self) -> int:
        return len(self._ids)

    def has_paper(self, paper_id: str) -> bool:
        row = bisect_left(self._ids, paper_id) if isinstance(paper_id, str) else len(self)
        return self._ids[row:row + 1] == (paper_id,)

    __contains__ = has_paper

    @property
    def paper_ids(self) -> tuple[str, ...]:
        return self._ids

    @property
    def n_edges(self) -> int:
        return len(self.refs)

    def row(self, paper_id: str) -> int:
        """The paper's row: its position in `paper_ids`, found by bisection."""
        row = bisect_left(self._ids, paper_id) if isinstance(paper_id, str) else len(self)
        if self._ids[row:row + 1] != (paper_id,):
            raise UnknownPaperError(paper_id)
        return row

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

    def snapshot(self, year: int) -> CitationCorpus:
        """The corpus of the papers published by `year` and the citations among them.

        A kept paper keeps all its references, since none points forward in time."""
        kept = self.years <= year
        row = np.cumsum(kept, dtype=np.int32) - 1   # each kept paper's row in the snapshot
        citing = np.repeat(np.arange(len(self), dtype=np.int32), np.diff(self.ref_offsets))
        edge = kept[citing]
        snap = CitationCorpus.__new__(CitationCorpus)
        snap._fill(list(compress(self._ids, kept)), self.venue_names, self.years[kept], self.venues[kept],
                   row[citing[edge]], row[self.refs[edge]])
        return snap


def sort_by_year(years: np.ndarray, group: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """`rows` ordered by (`group`, year of the row, row): one sort of the int64 keys
    ``group * n + rank``, where `rank` orders the n rows by (year, row)."""
    n = len(years)
    order = np.argsort(years, kind="stable")
    rank = np.empty(n, np.int64)
    rank[order] = np.arange(n)
    return order[np.sort(group.astype(np.int64) * n + rank[rows]) % n]


def _coerce_record(item) -> tuple[str, int, str | None] | None:
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
    return pid, year, venue


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


def _read(records: Iterable, edges: Iterable):
    """Rule 1, while parsing: each id gets an int code as it is read, the n records
    0..n-1 in first-seen order and ids that only edges name from n on.  Returns the
    report so far, every code's id, each record's year and venue code (-1 for none),
    the venue names by code, and the codes of both ends of each edge, interleaved."""
    report = IngestReport()
    codes: dict[str, int] = {}
    venue_codes: dict[str, int] = {}
    years, venues, ends = array("q"), array("q"), array("q")
    for item in records:
        report.papers_in += 1
        rec = _coerce_record(item)
        if rec is None or rec[0] in codes:
            report.malformed_papers += 1
            continue
        pid, year, venue = rec
        codes[pid] = len(codes)
        years.append(year)
        venues.append(-1 if venue is None else venue_codes.setdefault(venue, len(venue_codes)))
    code, push = codes.setdefault, ends.append
    for item in edges:
        if isinstance(item, (tuple, list)) and len(item) == 2:
            citing, cited = item
            if isinstance(citing, str) and isinstance(cited, str) and citing and cited:
                push(code(citing, len(codes)))
                push(code(cited, len(codes)))
                continue
        report.malformed_edges += 1
    report.edges_in = report.malformed_edges + len(ends) // 2
    return (report, list(codes), np.frombuffer(years, np.int64), np.frombuffer(venues, np.int64),
            list(venue_codes), np.frombuffer(ends, np.int64))


def _clean(records: Iterable, edges: Iterable, prune: bool):
    """Rules 1-6, and rule 7 if `prune`: the report and `CitationCorpus._fill`'s arguments."""
    report, ids, years, venues, venue_names, ends = _read(records, edges)
    n, span = len(years), len(ids)
    src, dst = ends[0::2], ends[1::2]
    other = src != dst
    report.dropped_self = len(src) - int(other.sum())
    # rule 3 runs before rule 4, so repeats of an edge to an unknown id count as duplicates
    key = np.sort(src[other] * span + dst[other])
    key = key[np.diff(key, prepend=-1) != 0]
    report.dropped_dup = len(src) - report.dropped_self - len(key)
    src, dst = np.divmod(key, span)
    known = (src < n) & (dst < n)
    src, dst = src[known], dst[known]
    report.dropped_unknown = len(key) - len(src)
    back = years[src] >= years[dst]
    report.dropped_forward = len(src) - int(back.sum())
    src, dst = src[back], dst[back]
    same = np.flatnonzero(years[src] == years[dst])
    pairs = list(zip(src[same].tolist(), dst[same].tolist()))
    cyclic = _edges_on_cycles(pairs)
    on = same[[pair in cyclic for pair in pairs]]
    src, dst, report.dropped_cycle = np.delete(src, on), np.delete(dst, on), len(on)
    linked = np.bincount(src, minlength=n) + np.bincount(dst, minlength=n) if prune else np.ones(n)
    # renumber the kept papers, and their venues, into sorted-id order
    keep = np.array(sorted(np.flatnonzero(linked).tolist(), key=ids.__getitem__), np.int64)
    report.dropped_isolated = n - len(keep)
    row = np.empty(n, np.int64)
    row[keep] = np.arange(len(keep))
    codes = venues[keep]
    used = sorted(np.flatnonzero(np.bincount(codes[codes >= 0], minlength=len(venue_names))).tolist(),
                  key=venue_names.__getitem__)
    venue_row = np.full(len(venue_names) + 1, -1, np.int64)   # the last slot maps -1 to -1
    venue_row[used] = np.arange(len(used))
    report.papers_kept, report.edges_kept = len(keep), len(src)
    return report, ([ids[c] for c in keep.tolist()], [venue_names[c] for c in used],
                    *(a.astype(np.int32) for a in (years[keep], venue_row[codes], row[src], row[dst])))


def ingest(edges: Iterable, records: Iterable) -> tuple[CitationCorpus, IngestReport]:
    """Build a clean corpus from raw edge and metadata streams.

    `records` yields `PaperRecord`s or dicts with ``id``/``year``/``venue``
    keys; `edges` yields (citing_id, cited_id) pairs.  Malformed items and
    edges touching papers without metadata are rejected and counted, never
    fatal.
    """
    report, arrays = _clean(records, edges, prune=True)
    corpus = CitationCorpus.__new__(CitationCorpus)
    corpus._fill(*arrays)
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
    with open(path, encoding="utf-8-sig") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            yield tuple(line.split("\t"))


def read_metadata_file(path) -> Iterator:
    """Yield one parsed JSON object per line; undecodable lines yield the raw string."""
    with open(path, encoding="utf-8-sig") as fh:
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
        for pid, year, code in zip(corpus.paper_ids, corpus.years.tolist(), corpus.venues.tolist()):
            obj: dict = {"id": pid, "year": year}
            if code >= 0:
                obj["venue"] = corpus.venue_names[code]
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
