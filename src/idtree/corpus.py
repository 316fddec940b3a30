"""Citation corpus ingestion, hygiene rules, and snapshots by year.

Raw bibliographic edge streams are messy: duplicate rows, self-citations,
citations pointing forward in time (preprints citing later work), papers
with no metadata, and papers that end up with no links at all.  `ingest`
funnels everything through a fixed cleaning order and returns an immutable
`CitationCorpus` plus an `IngestReport` with one counter per rule.

Rule 1 runs while parsing, which gives each id an int32 code as it is read;
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

Codes come in sorted-id order: records 0..n-1 by id, ids that only edges
name from n on.  Every input takes one coder.  Each id becomes a key row: W
big-endian words of its zero-padded UTF-8 bytes, then a length column.  W
comes from the record ids (see `_width`), so that a few long ones do not
widen every row, and an id longer than 8·W bytes adds its rank among the
long ids, in byte order, to its length column as ``rank << 32 | len``; rows
then compare as the strings do.  Records are deduplicated by sorting their rows, and each
edge end is coded by `searchsorted` against them.

`ingest_files` reads its two files in blocks of 256 KiB.  Lines of the
common shapes take an array lane: an edge line ``citing<TAB>cited`` with
both fields non-empty, a first byte that is printable ASCII and not ``#``,
and no ``\r``; a metadata line shaped as ``{"id": S, "year": Y, "venue":
S|null}`` or ``{"id": S, "venue": S, "year": Y}`` (venue optional), whose
strings hold no quote, backslash or control character and whose year is a
plain integer; one regex match per line reads the fields of these, strings
of any length.  Every other line, like every item that `ingest` is handed,
is read one by one (`_edge_fields`, `_meta_items`), then coded as the rest.
"""

from __future__ import annotations

import codecs
import csv
import hashlib
import io
import json
import operator
import re
import weakref
from bisect import bisect_left
from collections import defaultdict
from dataclasses import asdict, dataclass
from itertools import chain, compress, count, islice, repeat
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


_DERIVED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def derived(corpus) -> dict:
    """What is derived from `corpus`, kept until it is freed and never pickled: "citers"
    (the sorted keys ``cited * n + citing`` of its edges), "editions", "years" and "scores"
    (`metrics._covering` pairs: a row mask and its `PaperYears` or min-id scores) and,
    per seed, ("drawn", seed): tied row -> IDI prefix, written by `metrics._scored`."""
    return _DERIVED.setdefault(corpus, {})


class CitationCorpus:
    """Immutable deduplicated citation DAG over a set of papers.

    Papers are numbered once, in sorted-id order: a paper's row is its
    position in `paper_ids`.  Per row the corpus stores `years` (int32) and
    `venues`, a code into the sorted `venue_names` (-1 for no venue).
    `cites` and `refs` hold the citing and the cited row of each edge,
    sorted by (citing, cited), so a paper's references are one run of
    `refs`, found by searching `cites`.  Its citers are one run of the
    sorted int64 keys ``cited * n + citing`` of every edge, built by the
    first `citations_of` or `citation_count` and kept in the `derived`
    memo.  The methods taking id strings are views of these arrays.

    The constructor applies rules 1-6 of `ingest` and raises `CorpusError`,
    naming each nonzero counter, on anything `ingest` would drop; papers
    without edges are allowed.
    """

    __slots__ = ("_ids", "years", "venues", "venue_names", "cites", "refs", "__weakref__")

    def __init__(self, records: Iterable[PaperRecord], edges: Iterable[tuple[str, str]]):
        report, arrays = _clean(_read(records, edges), prune=False)
        dirty = [f"{k}={v}" for k, v in report.to_dict().items()
                 if v and k.startswith(("dropped_", "malformed_"))]
        if dirty:
            raise CorpusError(f"corpus input is not clean ({', '.join(dirty)}); use ingest")
        self._fill(*arrays)

    @classmethod
    def _from_arrays(cls, *arrays) -> CitationCorpus:
        """The corpus of `_fill`'s arguments, which `_fill` checks: the one way to build a corpus from arrays."""
        corpus = cls.__new__(cls)
        corpus._fill(*arrays)
        return corpus

    def _fill(self, ids: Sequence[str], venue_names: Sequence[str], years: np.ndarray,
              venues: np.ndarray, src: np.ndarray, dst: np.ndarray) -> None:
        """Set the slots from papers `ids` (strings, sorted) and edges `src` -> `dst`
        (rows), given in (citing, cited) row order as `_clean` and `snapshot` leave them.

        Raises `CorpusError` unless the arrays make a clean corpus, as
        `load_cache` relies on: every edge in range, in that order (so
        distinct), no self-citation, none forward in time and none on a
        same-year cycle.  Edges out of order are refused, not sorted.
        """
        n = len(ids)
        if not (all(all(map(operator.lt, names, names[1:])) for names in (ids, venue_names))
                and all(a.dtype == np.int32 and a.shape == (m,)
                        for a, m in ((years, n), (venues, n), (src, len(src)), (dst, len(src))))
                and venues.min(initial=-1) >= -1 and venues.max(initial=-1) < len(venue_names)
                and min(src.min(initial=0), dst.min(initial=0)) >= 0
                and max(src.max(initial=-1), dst.max(initial=-1)) < n):
            raise CorpusError("corpus arrays are inconsistent")
        src_year, dst_year = years.take(src), years.take(dst)
        same = src_year == dst_year
        if (not ((src[1:] > src[:-1]) | (src[1:] == src[:-1]) & (dst[1:] > dst[:-1])).all()
                or (src == dst).any() or (src_year < dst_year).any()
                or any(_edges_on_cycles(list(zip(src[same].tolist(), dst[same].tolist()))))):
            raise CorpusError("corpus edges are not clean")
        self._ids, self.venue_names = tuple(ids), tuple(venue_names)
        self.years, self.venues, self.cites, self.refs = years, venues, src, dst
        for a in (self.years, self.venues, self.cites, self.refs):
            a.flags.writeable = False

    def _citations(self, paper_id: str) -> tuple[np.ndarray, int, int]:
        """The "citers" memo, and the bounds of the run of the paper's citations in it."""
        memo, n, row = derived(self), len(self._ids), self.row(paper_id)
        if "citers" not in memo:
            key = memo["citers"] = _sorted_keys(self.refs, self.cites, n)   # below n**2 < 2**62
            key.flags.writeable = False
        lo, hi = memo["citers"].searchsorted((row * n, row * n + n)).tolist()
        return memo["citers"], lo, hi

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

    def record(self, paper_id: str) -> PaperRecord:
        row = self.row(paper_id)
        code = int(self.venues[row])
        return PaperRecord(self._ids[row], int(self.years[row]), self.venue_names[code] if code >= 0 else None)

    def year(self, paper_id: str) -> int:
        return int(self.years[self.row(paper_id)])

    def citations_of(self, paper_id: str) -> tuple[str, ...]:
        """Ids of papers citing `paper_id`, sorted."""
        key, lo, hi = self._citations(paper_id)
        return self._names(key[lo:hi] % len(self))

    def citation_count(self, paper_id: str) -> int:
        _, lo, hi = self._citations(paper_id)
        return hi - lo

    def references_of(self, paper_id: str) -> tuple[str, ...]:
        """Ids of papers that `paper_id` cites, sorted."""
        row = self.row(paper_id)
        # int32 probes: probes of a wider dtype would make searchsorted copy `cites`
        lo, hi = self.cites.searchsorted(np.array((row, row + 1), np.int32)).tolist()
        return self._names(self.refs[lo:hi])

    def edges(self) -> Iterator[tuple[str, str]]:
        """All (citing, cited) pairs in sorted order."""
        return zip(self._names(self.cites), self._names(self.refs))

    def year_range(self) -> tuple[int, int]:
        if not self._ids:
            raise CorpusError("empty corpus has no year range")
        return int(self.years.min()), int(self.years.max())

    def snapshot(self, year: int) -> CitationCorpus:
        """The corpus of the papers published by `year` and the citations among them.

        A kept paper keeps all its references, since none points forward in time."""
        kept = self.years <= year
        row = np.cumsum(kept, dtype=np.int32) - 1   # each kept paper's row in the snapshot
        edge = kept[self.cites]
        return CitationCorpus._from_arrays(list(compress(self._ids, kept)), self.venue_names, self.years[kept],
                                           self.venues[kept], row[self.cites[edge]], row[self.refs[edge]])


def _valid_records(items: Iterable, report: IngestReport) -> Iterator[tuple[str, int, str | None]]:
    """The (id, year, venue) of each well-formed record among `items`, which all count
    in `papers_in`; the others count in `malformed_papers`."""
    for item in items:
        report.papers_in += 1
        pid = year = venue = None
        if isinstance(item, PaperRecord):
            pid, year, venue = item.id, item.year, item.venue
        elif isinstance(item, dict):
            pid, year, venue = item.get("id"), item.get("year"), item.get("venue")
        if (isinstance(pid, str) and pid and isinstance(year, int) and not isinstance(year, bool)
                and YEAR_MIN <= year <= YEAR_MAX and (venue is None or isinstance(venue, str))):
            yield pid, year, venue
        else:
            report.malformed_papers += 1


def _valid_edges(items: Iterable, report: IngestReport) -> Iterator[tuple[str, str]]:
    """Each (citing, cited) pair of non-empty strings among `items`; the others count
    in `malformed_edges`."""
    for item in items:
        if isinstance(item, (tuple, list)) and len(item) == 2:
            citing, cited = item
            if isinstance(citing, str) and isinstance(cited, str) and citing and cited:
                yield citing, cited
                continue
        report.malformed_edges += 1


def _edges_on_cycles(edges: list[tuple]) -> list[bool]:
    """Per edge, whether it lies on a directed cycle: both ends in one strongly connected component.

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
    return [comp[u] == comp[v] for u, v in edges]


def _read(records: Iterable, edges: Iterable):
    """Rule 1, while parsing: each id gets an int32 code, the n distinct records 0..n-1
    in sorted-id order and ids that only edges name from n on.  Returns the report so
    far, the records' ids, years and venue codes (-1 for none), the venue names by
    code, and the codes of both ends of each edge, interleaved; the arrays are int32.
    The files of `ingest_files` are read in byte blocks, other inputs item by item."""
    report = IngestReport()
    if isinstance(records, _RawFile) and isinstance(edges, _RawFile):
        blocks, records, chunks = _blocks(records.path), (), _edge_blocks(edges.path, report)
    else:
        ends = chain.from_iterable(_valid_edges(edges, report))
        blocks, chunks = (), map(_encoded, iter(lambda: list(islice(ends, 1 << 16)), []))
    *recs, columns, ranks = _records(blocks, records, report)
    return report, *recs, _codes(chunks, report, columns, ranks)


def _sorted_keys(major: np.ndarray, minor: np.ndarray, span: int) -> np.ndarray:
    """The int64 keys major * span + minor, sorted; built in place, so no key-sized temporary."""
    key = major.astype(np.int64)
    key *= span
    key += minor
    key.sort()
    return key


def _clean(read: tuple, prune: bool):
    """Rules 2-6, and rule 7 if `prune`, over a `_read` result (int32 arrays): the report
    and `_fill`'s arguments."""
    report, ids, years, venues, venue_names, ends = read
    n = len(ids)
    span = max(n, int(ends.max(initial=-1)) + 1)
    src, dst = ends[0::2], ends[1::2]
    other = src != dst
    report.dropped_self = len(src) - int(other.sum())
    # rule 3 runs before rule 4, so repeats of an edge to an unknown id count as duplicates
    key = _sorted_keys(src[other], dst[other], span)   # below 2**62
    del read, ends, src, dst   # the passes below need only the distinct pairs
    distinct = np.ones(len(key), bool)
    distinct[1:] = key[1:] != key[:-1]
    key = key[distinct]
    report.dropped_dup = len(other) - report.dropped_self - len(key)
    src, dst = (key // span).astype(np.int32), (key % span).astype(np.int32)
    del key, other, distinct
    known = (src < n) & (dst < n)
    src, dst = src[known], dst[known]
    report.dropped_unknown = len(known) - len(src)
    back = years.take(src) >= years.take(dst)
    report.dropped_forward = len(src) - int(back.sum())
    src, dst = src[back], dst[back]
    same = np.flatnonzero(years.take(src) == years.take(dst))
    on = same[_edges_on_cycles(list(zip(src[same].tolist(), dst[same].tolist())))]
    src, dst, report.dropped_cycle = np.delete(src, on), np.delete(dst, on), len(on)
    linked = np.bincount(src, minlength=n) + np.bincount(dst, minlength=n) if prune else np.ones(n)
    # renumber the kept papers, already in sorted-id order, and their venues by name
    keep = np.flatnonzero(linked)
    report.dropped_isolated = n - len(keep)
    row = np.empty(n, np.int32)
    row[keep] = np.arange(len(keep), dtype=np.int32)
    codes = venues[keep]
    used = sorted(np.flatnonzero(np.bincount(codes[codes >= 0], minlength=len(venue_names))).tolist(),
                  key=venue_names.__getitem__)
    venue_row = np.full(len(venue_names) + 1, -1, np.int32)   # the last slot maps -1 to -1
    venue_row[used] = np.arange(len(used))
    report.papers_kept, report.edges_kept = len(keep), len(src)
    return report, (list(compress(ids, (linked > 0).tolist())), [venue_names[c] for c in used],
                    years[keep], venue_row[codes], row.take(src), row.take(dst))


def ingest(edges: Iterable, records: Iterable) -> tuple[CitationCorpus, IngestReport]:
    """Build a clean corpus from raw edge and metadata streams.

    `records` yields `PaperRecord`s or dicts with ``id``/``year``/``venue``
    keys; `edges` yields (citing_id, cited_id) pairs.  Malformed items and
    edges touching papers without metadata are rejected and counted, never
    fatal.
    """
    report, arrays = _clean(_read(records, edges), prune=True)
    return CitationCorpus._from_arrays(*arrays), report


# ---------------------------------------------------------------------------
# File formats: tab-separated edge lists, JSON-lines metadata, CSV outputs.
# ---------------------------------------------------------------------------

def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows as CSV; fields holding a comma or quote are quoted."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _texts(column: np.ndarray) -> list[str]:
    """Each value as `csv.writer` writes it (`repr` of a float, `str` of an int),
    formatted once per distinct bit pattern."""
    column = np.ascontiguousarray(column)
    distinct, inverse = np.unique(column.view(f"u{column.itemsize}"), return_inverse=True)
    texts = list(map(repr if column.dtype.kind == "f" else str, distinct.view(column.dtype).tolist()))
    return np.array(texts, object)[inverse.ravel()].tolist()


def write_csv_columns(path, header: Sequence[str], ids: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write the bytes `write_csv` writes for rows of an id and numeric columns, a
    column at a time (in runs of 16,384 rows, to bound the text held at once).
    Only ids holding a comma, quote or line break need `csv.writer`, which
    leaves every other field as it is."""
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
    writer.writerow(header)
    ids = list(ids)
    if re.search('[,"\r\n]', "".join(ids)):
        writer.writerows(zip(ids, repeat("")))
        ids = [line[:-2] for line in lines[1:]]   # quoted as in a row of several fields; the ",\n" is cut
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(lines[0])
        for start in range(0, len(ids), 1 << 14):
            run = slice(start, start + (1 << 14))
            fh.write("\n".join(map(",".join, zip(ids[run], *(_texts(c[run]) for c in columns)))) + "\n")


def _edge_fields(lines: Iterable[str]) -> Iterator[tuple[str, ...]]:
    for line in lines:
        line = line.rstrip("\n")
        if line.strip() and not line.lstrip().startswith("#"):
            yield tuple(line.split("\t"))


def _meta_items(lines: Iterable[str]) -> Iterator:
    for line in lines:
        line = line.strip()
        if line:
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


class _RawFile:
    """An input file handed to `ingest`, for `_read` to read in byte blocks."""

    def __init__(self, path):
        self.path = path


def ingest_files(edge_path, meta_path) -> tuple[CitationCorpus, IngestReport]:
    """`ingest` over an edge file and a metadata file, UTF-8 with an optional BOM.  Each
    edge line is split on tabs, blank lines and lines starting with ``#`` skipped;
    each metadata line is parsed as JSON, and one that is not JSON is a malformed
    record.  See the module notes for the array lane."""
    return ingest(_RawFile(edge_path), _RawFile(meta_path))


# ---------------------------------------------------------------------------
# Reading the two files in byte blocks.
# ---------------------------------------------------------------------------

# One match per non-empty line, with six groups.  A line of a common shape,
# {"id": S, "year": Y, "venue": V|null} or {"id": S, "venue": V, "year": Y} with
# the venue optional, fills the id; the year and the venue of the first shape,
# or the venue and the year of the second.  A venue group holds the opening quote
# and the venue, and is empty for null or no venue.  Any other line fills only
# the sixth group, with the whole line.
_META_LINE = re.compile(
    rb'^(?:\{"id": "(%(s)s+)", (?:"year": %(y)s, "venue": (?:%(v)s|null)|(?:"venue": %(v)s, )?"year": %(y)s)\}|(.+))$'
    % {b"s": rb'[^"\\\x00-\x1f]', b"v": rb'("[^"\\\x00-\x1f]*)"', b"y": rb"(-?(?:0|[1-9][0-9]{0,9}))"}, re.M)
# _MASK[k] keeps the first k bytes of a big-endian word
_MASK = np.array([(1 << 64) - (1 << (64 - 8 * k)) for k in range(9)], np.uint64)


def _blocks(path) -> Iterator[bytes]:
    """The file's bytes in blocks of about 256 KiB, each ending at a newline.

    These are the bytes a text reader of the file decodes: a leading BOM is dropped,
    an unterminated last line gets its newline, and a block that is not UTF-8
    raises `UnicodeDecodeError`.  The arrays made per line of a block of short
    edge lines take about 16 times its size, which bounds the block.
    """
    with open(path, "rb") as fh:
        parts = [fh.read(len(codecs.BOM_UTF8)).removeprefix(codecs.BOM_UTF8)]   # the bytes since the last cut
        while chunk := fh.read(1 << 18):
            cut = chunk.rfind(b"\n") + 1
            if cut:
                yield _utf8(b"".join(parts) + chunk[:cut])
                parts = [chunk[cut:]]
            else:
                parts.append(chunk)
        if rest := b"".join(parts):
            yield _utf8(rest + b"\n")


def _utf8(block: bytes) -> bytes:
    if not block.isascii():
        block.decode()   # raises UnicodeDecodeError as a text reader would
    return block


def _words(lens: np.ndarray) -> np.ndarray:
    """The key words each string takes: its bytes over 8, rounded up, and at least 1."""
    return np.maximum(1, -(-lens // 8))


def _width(lens: np.ndarray) -> int:
    """The words W of the key rows of ids of `lens` bytes: the W that holds the fewest
    words, at W + 1 per id for its row and, for each id longer than 8·W bytes, its own
    words and 8 more for the bytes object and the dict entry that hold its rank."""
    words = _words(lens)
    held = np.bincount(words, words + 8, minlength=2)   # held[w]: the words the ranks of w-word ids hold
    cost = np.arange(1, len(held) + 1) * len(lens) + held.sum() - np.cumsum(held)
    return 1 + int(np.argmin(cost[1:]))


def _long(buf: bytes, starts: np.ndarray, lens: np.ndarray, words: int) -> tuple[np.ndarray, Iterator[bytes]]:
    """The positions of the strings buf[s:s+l] longer than 8·`words` bytes, and their
    bytes one at a time, so that no list holds them all."""
    at = np.flatnonzero(lens > 8 * words)
    return at, (buf[s:s + n] for s, n in zip(starts[at].tolist(), lens[at].tolist()))


def _keys(buf: bytes, starts: np.ndarray, lens: np.ndarray, words: int, ranks: dict[bytes, int]) -> np.ndarray:
    """Sort keys of the strings buf[s:s+l], one row each: `words` big-endian uint64
    words of the zero-padded bytes, then ``rank << 32 | length``.  A string longer
    than 8·`words` bytes has its rank in `ranks`, or else the next free one, which
    it keeps there; any other has rank 0.  With the ranks of the records' long ids
    in byte order from 1, rows compare as the strings do: the length orders strings
    that differ only in trailing NULs, and the rank those that share their words."""
    data = sliding_window_view(np.frombuffer(buf + bytes(8 * words), np.uint8), 8)
    keys = np.empty((len(starts), words + 1), np.uint64)
    for w in range(words):
        keys[:, w] = data[starts + 8 * w].view(">u8")[:, 0] & _MASK[np.clip(lens - 8 * w, 0, 8)]
    keys[:, words] = lens
    at, tails = _long(buf, starts, lens, words)
    rank = np.fromiter((ranks.setdefault(t, len(ranks) + 1) for t in tails), np.uint64, len(at))
    keys[at, words] |= rank << np.uint64(32)
    return keys


def _void(keys: np.ndarray) -> np.ndarray:
    """Key rows as single values that sort as the rows do."""
    return np.ascontiguousarray(keys, ">u8").view(np.dtype((np.void, 8 * keys.shape[1])))[:, 0]


def _find(columns: np.ndarray, hay: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Row of each key among sorted distinct key rows, -1 where absent.  The rows
    are given as `columns`, and `hay` is searched: their first words when those
    are distinct, else the rows as `_void` values."""
    if not columns.shape[1]:
        return np.full(len(keys), -1, np.int32)
    needle = keys[:, 0] if hay.dtype == np.uint64 else _void(keys)
    order = np.argsort(needle)   # sorted probes walk the table in order
    at = np.empty(len(keys), np.int32)
    at[order] = np.minimum(np.searchsorted(hay, needle[order]), columns.shape[1] - 1)
    hit = columns[0][at] == keys[:, 0]
    for c in range(1, len(columns)):
        hit &= columns[c][at] == keys[:, c]
    at[~hit] = -1
    return at


def _venue_code(codes: dict[str, int], venue: str | None) -> int:
    return -1 if venue is None else codes.setdefault(venue, len(codes))


def _encoded(texts: Iterable[str]) -> tuple[bytes, np.ndarray, np.ndarray]:
    """The strings' UTF-8 bytes (lone surrogates kept), each ended by a newline, as one
    buffer with their starts and lengths."""
    encoded = [text.encode("utf-8", "surrogatepass") for text in texts]
    lens = np.fromiter(map(len, encoded), np.int64, len(encoded))
    return b"\n".join([*encoded, b""]), np.cumsum(lens + 1) - lens - 1, lens


def _records(blocks: Iterable[bytes], items: Iterable, report: IngestReport):
    """The distinct valid records of a metadata file's `blocks` (see `_blocks`) and
    then of `items`, in sorted-id order: their ids, int32 years and venue codes, the
    venue names by code, their key rows given as columns (one array per word of the
    rows, see `_keys`), and the ranks of their ids longer than the rows' words, in
    byte order from 1.  Of records sharing an id, the first is kept and the others
    are malformed.
    One `_META_LINE.findall` per block gives the fields of each line of a common
    shape and the text of each other line, which `_meta_items` reads."""
    venue_codes: dict[str, int] = {}
    venue_groups: dict[bytes, int] = {}   # a venue group of `_META_LINE` to its code
    # cols: per block, then for the other records: ids each ending in \n, lengths, years, venues, input order
    cols, odd, count = [], [], 0
    for block in blocks:
        # the six groups of each match: shape a has its year first, shape b its venue
        pids, years_a, venues_a, venues_b, years_b, other = list(zip(*_META_LINE.findall(block))) or [()] * 6
        rows = np.arange(count, count + len(pids))   # the file order of each match, one per non-empty line
        count += len(pids)
        for i in compress(range(len(other)), other):
            for pid, year, venue in _valid_records(_meta_items(io.StringIO(other[i].decode(), newline=None)), report):
                odd.append((pid, year, _venue_code(venue_codes, venue), int(rows[i])))
        years = np.fromstring(b" ".join(filter(None, map(operator.add, years_a, years_b))), np.int64, sep=" ")
        lens = np.fromiter(map(len, pids), np.int64, len(pids))
        keep = lens > 0   # the lines of a common shape, whose ids are not empty
        keep[keep] = ok = (years >= YEAR_MIN) & (years <= YEAR_MAX)
        report.papers_in += len(years)
        report.malformed_papers += len(years) - int(ok.sum())
        keep_list = keep.tolist()
        venues = list(compress(map(operator.add, venues_a, venues_b), keep_list))
        for v in sorted(set(venues).difference(venue_groups)):   # after its opening quote, v names the venue
            venue_groups[v] = _venue_code(venue_codes, v[1:].decode() if v else None)
        cols.append((b"\n".join([*compress(pids, keep_list), b""]), lens[keep], years[ok].astype(np.int32),
                     np.fromiter(map(venue_groups.__getitem__, venues), np.int32, len(venues)), rows[keep]))
        del pids, years_a, venues_a, venues_b, years_b, other, venues   # before the next block's findall
    odd.extend((pid, year, _venue_code(venue_codes, venue), row)
               for row, (pid, year, venue) in enumerate(_valid_records(items, report), count))
    names, odd_years, odd_codes, odd_rows = list(zip(*odd)) or [()] * 4
    buf, _, lens = _encoded(names)
    cols.append((buf, lens, np.array(odd_years, np.int32), np.array(odd_codes, np.int32), np.array(odd_rows, np.int64)))
    bufs, lens, years, venues, rows = zip(*cols)
    ids = b"".join(bufs[:-1]).decode().split("\n")[:-1] + list(names)
    buf, lens = b"".join(bufs), np.concatenate(lens)
    del cols, bufs   # the per-block buffers, before the keys and the sort
    starts, words = np.cumsum(lens + 1) - lens - 1, _width(lens)
    tails = sorted(set(_long(buf, starts, lens, words)[1]))
    ranks = dict(zip(tails, range(1, len(tails) + 1)))
    keys = _keys(buf, starts, lens, words, ranks)
    del buf   # before the sort
    order = np.lexsort((np.concatenate(rows), *keys.T[::-1]))
    keys = keys[order]
    head = np.ones(len(keys), bool)
    head[1:] = (keys[1:] != keys[:-1]).any(1)
    report.malformed_papers += len(keys) - int(head.sum())
    pick = order[head]
    return (np.array(ids, object)[pick].tolist(), np.concatenate(years)[pick],   # no int object per row
            np.concatenate(venues)[pick], list(venue_codes), np.ascontiguousarray(keys[head].T), ranks)


def _edge_blocks(path, report: IngestReport) -> Iterator[tuple[bytes, np.ndarray, np.ndarray]]:
    """The ids naming the ends of each valid edge of an edge file, citing and cited
    interleaved, as a buffer with their starts and lengths: per block, those of the
    array lane's lines, then those of the odd lines, encoded again."""
    for block in _blocks(path):
        a = np.frombuffer(block, np.uint8)
        stop = np.flatnonzero(a == 10)   # the newline and the start of each line
        start = np.r_[0, stop[:-1] + 1]
        tabs = np.r_[np.flatnonzero(a == 9), len(a), len(a)]
        first = np.searchsorted(tabs, start)
        tab, lead = tabs[first], a[start]
        fast = (tab + 1 < stop) & (tabs[first + 1] > stop) & (lead > 32) & (lead < 127) & (lead != 35)
        if b"\r" in block:
            cr = np.r_[np.flatnonzero(a == 13), len(a)]
            fast &= cr[np.searchsorted(cr, start)] > stop
        s, t, e = start[fast], tab[fast], stop[fast]
        yield block, np.column_stack((s, t + 1)).ravel(), np.column_stack((t - s, e - t - 1)).ravel()
        odd = np.flatnonzero(~fast).tolist()
        if odd:
            text = b"".join([block[start[i]:stop[i] + 1] for i in odd]).decode()
            yield _encoded(chain.from_iterable(_valid_edges(_edge_fields(io.StringIO(text, newline=None)), report)))


def _codes(chunks: Iterable[tuple[bytes, np.ndarray, np.ndarray]], report: IngestReport,
           columns: np.ndarray, ranks: dict[bytes, int]) -> np.ndarray:
    """The int32 codes of the ids in `chunks` (buffers with the starts and lengths of
    the ids in them: both ends of each valid edge, interleaved): a record's row among
    the key rows given as `columns`, whose long ids `ranks` ranks, and from the
    record count on one code per other id.  Sets the report's `edges_in`.  Raises
    `CorpusError` when the distinct ids would not fit int32 codes."""
    hay = columns[0] if (columns[0][1:] > columns[0][:-1]).all() else _void(columns.T)
    codes, unknown = [np.empty(0, np.int32)], [columns[:, :0].T]   # the rows of the ids no record names
    for buf, starts, lens in chunks:
        keys = _keys(buf, starts, lens, len(columns) - 1, ranks)
        codes.append(_find(columns, hay, keys))
        unknown.append(keys[codes[-1] < 0])
        del keys   # before the next chunk's rows
    ends, n = np.concatenate(codes), columns.shape[1]
    distinct, inverse = np.unique(_void(np.concatenate(unknown)), return_inverse=True)
    ends[ends < 0] = n + inverse.ravel()
    if n + len(distinct) > 2**31:   # the codes written above have wrapped; none is used
        raise CorpusError(f"{n + len(distinct)} distinct ids do not fit int32 codes")
    report.edges_in = report.malformed_edges + len(ends) // 2
    return ends


# ---------------------------------------------------------------------------
# Binary cache keyed by a digest of the source files.
# ---------------------------------------------------------------------------

CACHE_FORMAT = 7


def file_digest(*paths) -> str:
    """SHA-256 over the files' bytes, each followed by a NUL; read in 1 MiB blocks
    into one reused buffer."""
    h = hashlib.sha256()
    buf = bytearray(1 << 20)
    view = memoryview(buf)
    for path in paths:
        with open(path, "rb") as fh:
            while size := fh.readinto(buf):
                h.update(view[:size])
        h.update(b"\x00")
    return h.hexdigest()


def save_cache(corpus: CitationCorpus, path, source_hash: str, *, report: IngestReport) -> None:
    """Write the corpus, the digest of its files and the report of their ingest as
    six `np.save` arrays: a JSON header (format, digest, separator, id count, report)
    as ASCII bytes; the ids and then the venue names as one UTF-8 block (lone surrogates
    kept), each ended by the separator, the first code point from U+000A on that no id
    or name holds; the years, the venue codes, and the citing and the cited row of each
    edge, in (citing, cited) order."""
    names = (*corpus.paper_ids, *corpus.venue_names, "")
    joined = "".join(names)
    used = set(joined) if "\n" in joined else ()
    sep = next(c for c in map(chr, count(10)) if c not in used)
    head = json.dumps({"format": CACHE_FORMAT, "source_hash": source_hash, "sep": sep, "ids": len(corpus),
                       "report": report.to_dict()})
    block = sep.join(names).encode("utf-8", "surrogatepass")
    with open(path, "wb") as fh:
        for a in (np.frombuffer(head.encode("ascii"), np.uint8), np.frombuffer(block, np.uint8),
                  corpus.years, corpus.venues, corpus.cites, corpus.refs):
            np.save(fh, a, allow_pickle=False)


def load_cache(path, expect_hash: str | None = None) -> CitationCorpus | None:
    """Load a cached corpus; returns None when missing, stale, damaged or of another format.

    The format and the digest are checked before the name block is read, and
    the header's report must hold every counter, each an integer >= 0.
    Nothing in the file is unpickled: the arrays go through the constructor
    `ingest` uses, whose checks refuse any that do not make a clean corpus.
    """
    try:
        with open(path, "rb") as fh:
            head = json.loads(np.load(fh, allow_pickle=False).tobytes())
            if head["format"] != CACHE_FORMAT or expect_hash not in (None, head["source_hash"]):
                return None
            block, *arrays = [np.load(fh, allow_pickle=False) for _ in range(5)]
        sep, n_ids, report = head["sep"], head["ids"], head["report"]
        if not (isinstance(sep, str) and sep and report.keys() == IngestReport().to_dict().keys()
                and all(type(v) is int and v >= 0 for v in report.values())):
            return None
        ids = block.tobytes().decode("utf-8", "surrogatepass").split(sep)
        if ids.pop() or not 0 <= n_ids <= len(ids):   # a whole block ends with the separator
            return None
        venue_names = ids[n_ids:]
        del ids[n_ids:]
        corpus = CitationCorpus._from_arrays(ids, venue_names, *arrays)
    except (OSError, EOFError, ValueError, KeyError, TypeError, AttributeError, CorpusError):
        return None  # whatever a damaged or foreign file makes the parse raise
    return corpus


def cache_report(path) -> IngestReport:
    """The ingest report in the header of the cache at `path`, which `load_cache` checks."""
    return IngestReport(**json.loads(np.load(path, allow_pickle=False).tobytes())["report"])
