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
name from n on.  `ingest_files` reads its two files in blocks of 256 KiB.
Lines of the common shapes take an array lane: an edge line
``citing<TAB>cited`` with both fields non-empty, a first byte that is
printable ASCII and not ``#``, and no ``\r``; a metadata line shaped as
``{"id": S, "year": Y, "venue": S|null}`` or ``{"id": S, "venue": S,
"year": Y}`` (venue optional), whose strings hold no quote, backslash or
control character and whose year is a plain integer.  Their ids become
sort keys (big-endian words of the UTF-8 bytes, then the length), coded by
`searchsorted` against the sorted record keys.  Every other line is read
one by one under the rules of `read_edge_file` and `read_metadata_file`.
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
from array import array
from bisect import bisect_left
from collections import defaultdict
from dataclasses import asdict, dataclass
from itertools import compress, count, repeat
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
    (its citer CSR), "editions", "years" (its `PaperYears`) and, per seed, ("drawn",
    seed): tied row -> IDI prefix."""
    return _DERIVED.setdefault(corpus, {})


class CitationCorpus:
    """Immutable deduplicated citation DAG over a set of papers.

    Papers are numbered once, in sorted-id order: a paper's row is its
    position in `paper_ids`.  Per row the corpus stores `years` (int32) and
    `venues`, a code into the sorted `venue_names` (-1 for no venue).
    `cites` and `refs` hold the citing and the cited row of each edge,
    sorted by (citing, cited).  With `ref_offsets`, `refs` is a CSR layout
    (an offset array plus an index array of rows) of each paper's
    references.  The citers of each paper are an internal CSR in row order,
    built by the first `citations_of` or `citation_count` and kept in the
    `derived` memo.  The methods taking id strings are views of these arrays.

    The constructor applies rules 1-6 of `ingest` and raises `CorpusError`,
    naming each nonzero counter, on anything `ingest` would drop; papers
    without edges are allowed.
    """

    __slots__ = ("_ids", "years", "venues", "venue_names", "ref_offsets", "cites", "refs", "__weakref__")

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
        self.ref_offsets = np.r_[0, np.cumsum(np.bincount(src, minlength=n))]
        for a in (self.years, self.venues, self.cites, self.refs, self.ref_offsets):
            a.flags.writeable = False

    def _citer_csr(self) -> tuple[np.ndarray, np.ndarray]:
        memo = derived(self)
        if "citers" not in memo:
            n = len(self._ids)
            offsets = np.r_[0, np.cumsum(np.bincount(self.refs, minlength=n))]
            key = _sorted_keys(self.refs, self.cites, n)   # below n**2 < 2**62
            key %= n
            citers = key.astype(np.int32)
            for a in (offsets, citers):
                a.flags.writeable = False
            memo["citers"] = offsets, citers
        return memo["citers"]

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
        """Ids of papers citing `paper_id`, sorted."""
        return self._names(self._slice(*self._citer_csr(), self.row(paper_id)))

    def citation_count(self, paper_id: str) -> int:
        return len(self._slice(*self._citer_csr(), self.row(paper_id)))

    def references_of(self, paper_id: str) -> tuple[str, ...]:
        """Ids of papers that `paper_id` cites, sorted."""
        return self._names(self._slice(self.ref_offsets, self.refs, self.row(paper_id)))

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
    code, and the codes of both ends of each edge, interleaved; the arrays are int32."""
    if isinstance(records, _RawFile) and isinstance(edges, _RawFile):
        return _read_files(records.path, edges.path)
    report = IngestReport()
    recs: dict[str, tuple[int, str | None]] = {}
    for pid, year, venue in _valid_records(records, report):
        if pid in recs:
            report.malformed_papers += 1
        else:
            recs[pid] = year, venue
    ids = sorted(recs)
    codes = dict(zip(ids, range(len(ids))))
    venue_codes: dict[str, int] = {}
    years, venues = array("i"), array("i")
    for year, venue in map(recs.__getitem__, ids):
        years.append(year)
        venues.append(_venue_code(venue_codes, venue))
    ends = array("i")
    code, push = codes.setdefault, ends.append
    for citing, cited in _valid_edges(edges, report):
        push(code(citing, len(codes)))
        push(code(cited, len(codes)))
    report.edges_in = report.malformed_edges + len(ends) // 2
    return (report, ids, np.frombuffer(years, np.int32), np.frombuffer(venues, np.int32),
            list(venue_codes), np.frombuffer(ends, np.int32))


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


def read_edge_file(path) -> Iterator[tuple[str, ...]]:
    """Yield raw field tuples from a `citing<TAB>cited` file.

    Blank lines and lines starting with ``#`` are skipped.  Any other line
    is split on tabs and yielded as-is; `ingest` rejects wrong arity.
    """
    with open(path, encoding="utf-8-sig") as fh:
        yield from _edge_fields(fh)


def read_metadata_file(path) -> Iterator:
    """Yield one parsed JSON object per line; undecodable lines yield the raw string."""
    with open(path, encoding="utf-8-sig") as fh:
        yield from _meta_items(fh)


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
    """`ingest` over an edge file and a metadata file, read as `read_edge_file` and
    `read_metadata_file` read them; see the module notes for the array lane."""
    return ingest(_RawFile(edge_path), _RawFile(meta_path))


# ---------------------------------------------------------------------------
# Reading the two files in byte blocks.
# ---------------------------------------------------------------------------

# A metadata line of a common shape: {"id": S, "year": Y, "venue": V|null}, or
# {"id": S, "venue": V, "year": Y} with the venue optional.  Quotes then sit
# only around keys and strings, which `_meta_columns` relies on.  A venue of
# the array lane has at most 63 bytes, so its key takes at most 8 words.
_META_LINE = re.compile(
    rb'^\{"id": "%(s)s+", (?:"year": %(y)s, "venue": (?:"%(v)s"|null)|(?:"venue": "%(v)s", )?"year": %(y)s)\}$'
    % {b"s": rb'[^"\\\x00-\x1f]', b"v": rb'[^"\\\x00-\x1f]{0,63}', b"y": rb"-?(?:0|[1-9][0-9]{0,9})"}, re.M)
# _MASK[k] keeps the first k bytes of a big-endian word
_MASK = np.array([(1 << 64) - (1 << (64 - 8 * k)) for k in range(9)], np.uint64)


def _blocks(path) -> Iterator[bytes]:
    """The file's bytes in blocks of about 256 KiB, each ending at a newline.

    These are the bytes the per-line readers decode: a leading BOM is dropped,
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
        block.decode()   # raises UnicodeDecodeError as the per-line readers would
    return block


def _lines(block: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The block as a byte array, and the start and the newline of each line."""
    a = np.frombuffer(block, np.uint8)
    stop = np.flatnonzero(a == 10)
    return a, np.r_[0, stop[:-1] + 1], stop


def _words(lens: np.ndarray) -> np.ndarray:
    """The key words each string takes: its bytes over 8, rounded up, and at least 1."""
    return np.maximum(1, -(-lens // 8))


def _keys(buf: bytes, starts: np.ndarray, lens: np.ndarray, words: int) -> np.ndarray:
    """Sort keys of the strings buf[s:s+l], one row each: `words` big-endian uint64
    words of the zero-padded bytes, then the length.  Rows compare as the strings
    do; the length orders strings that differ only in trailing NULs."""
    data = sliding_window_view(np.frombuffer(buf + bytes(8 * words), np.uint8), 8)
    keys = np.empty((len(starts), words + 1), np.uint64)
    for w in range(words):
        keys[:, w] = data[starts + 8 * w].view(">u8")[:, 0] & _MASK[np.clip(lens - 8 * w, 0, 8)]
    keys[:, words] = lens
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


def _meta_columns(a: np.ndarray, start: np.ndarray, stop: np.ndarray):
    """Where the fields of metadata lines of a common shape lie, as offsets into
    the byte array `a`: the end of each id (which starts 8 bytes into its line),
    the first and the stop offset of the year, and the start and size of the venue
    with its opening quote (size 0 for none)."""
    quote = np.r_[np.flatnonzero(a == 34), np.full(10, len(a))]
    first = np.searchsorted(quote, start)
    q = quote[first + np.arange(10)[:, None]]   # the quotes of each line, in order
    count = np.searchsorted(quote, stop) - first   # 6, 8 or 10
    venue_first = a[q[4] + 1] == ord("v")
    year = np.where(venue_first, q[9], q[5]) + 3, np.where(venue_first | (count == 6), stop - 1, q[6] - 2)
    venue = np.where(venue_first, q[6], q[8])
    return q[3], year, venue, np.where(count == 10, np.where(venue_first, q[7], q[9]) - venue, 0)


def _integers(a: np.ndarray, first: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The integer written in a[first:stop] of each row: a minus sign or not, then
    at most 10 digits."""
    minus = a[first] == 45
    digit = first + minus
    value = np.zeros(len(first), np.int64)
    for _ in range(10):
        more = np.flatnonzero(digit < stop)
        value[more] = value[more] * 10 + a[digit[more]] - 48
        digit += 1
    return np.where(minus, -value, value)


def _file_records(path, report: IngestReport):
    """The distinct valid records of a metadata file in sorted-id order: their ids,
    int32 years and venue codes, the venue names by code, and their key rows given
    as columns (one array per word of the rows).  Of records sharing an id, the
    first in the file is kept and the others are malformed.
    None when the key rows would take more than 4 times the words of the ids."""
    venue_codes: dict[str, int] = {}
    venue_keys: dict[bytes, int] = {}   # venue key row, as bytes, to code
    cols, odd, line = [], [], 0   # cols: per block, ids each ending in \n, lengths, years, venues, lines
    for block in _blocks(path):
        rest = _META_LINE.sub(b"", block)   # empties the lines of a common shape
        _, rest_start, rest_stop = _lines(rest)
        for i in np.flatnonzero(rest_stop > rest_start).tolist():
            items = _meta_items(io.StringIO(rest[rest_start[i]:rest_stop[i]].decode(), newline=None))
            for pid, year, venue in _valid_records(items, report):
                odd.append((pid, year, _venue_code(venue_codes, venue), line + i))
        a, start, stop = _lines(block)
        rows = np.flatnonzero((rest_stop == rest_start) & (stop > start))
        start, stop = start[rows], stop[rows]
        id_end, year, venue, venue_size = _meta_columns(a, start, stop)
        years = _integers(a, *year)
        ok = (years >= YEAR_MIN) & (years <= YEAR_MAX)
        report.papers_in += len(rows)
        report.malformed_papers += len(rows) - int(ok.sum())
        rows, start, id_end, venue, venue_size = (x[ok] for x in (rows, start, id_end, venue, venue_size))
        years = years[ok].astype(np.int32)
        distinct, inverse = np.unique(_void(_keys(block, venue, venue_size, int(_words(venue_size).max(initial=1)))),
                                      return_inverse=True)
        distinct = distinct.tolist()
        for key in distinct:
            if key not in venue_keys:   # its bytes, after the opening quote, name the venue
                size = int.from_bytes(key[-8:], "big")
                venue_keys[key] = _venue_code(venue_codes, key[1:size].decode() if size else None)
        venues = np.array(list(map(venue_keys.__getitem__, distinct)), np.int32)[inverse.ravel()]
        mark = np.zeros(len(a) + 1, np.int8)   # 1 on the bytes of each id and its closing quote
        mark[start + 8], mark[id_end + 1] = 1, -1
        chars = a[np.cumsum(mark[:-1], dtype=np.int8).view(bool)]
        chars[chars == 34] = 10
        cols.append((chars.tobytes(), id_end - start - 8, years, venues, line + rows))
        line += len(rest_start)
    names = [o[0] for o in odd]
    encoded = [pid.encode("utf-8", "surrogatepass") for pid in names]
    cols.append((b"".join(e + b"\n" for e in encoded), np.fromiter(map(len, encoded), np.int64, len(encoded)),
                 np.array([o[1] for o in odd], np.int32), np.array([o[2] for o in odd], np.int32),
                 np.array([o[3] for o in odd], np.int64)))
    bufs, lens, years, venues, line = zip(*cols)
    ids = b"".join(bufs[:-1]).decode().split("\n")[:-1] + names
    lens = np.concatenate(lens)
    words = _words(lens)
    if len(lens) and (words.max() + 1) * len(lens) > 4 * int(words.sum() + len(lens)):
        return None   # a few long ids would make every key row long
    keys = _keys(b"".join(bufs), np.cumsum(lens + 1) - lens - 1, lens, int(words.max(initial=1)))
    order = np.lexsort((np.concatenate(line), *keys.T[::-1]))
    keys = keys[order]
    head = np.ones(len(keys), bool)
    head[1:] = (keys[1:] != keys[:-1]).any(1)
    report.malformed_papers += len(keys) - int(head.sum())
    pick = order[head]
    return (np.array(ids, object)[pick].tolist(), np.concatenate(years)[pick],   # no int object per row
            np.concatenate(venues)[pick], list(venue_codes), np.ascontiguousarray(keys[head].T))


def _edge_blocks(path, report: IngestReport) -> Iterator[tuple[bytes, np.ndarray, np.ndarray]]:
    """The ids naming the ends of each valid edge of an edge file, citing and cited
    interleaved, as a buffer with their starts and lengths: per block, those of the
    array lane's lines, then those of the odd lines, encoded again."""
    for block in _blocks(path):
        a, start, stop = _lines(block)
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
            ends = [f.encode() for pair in _valid_edges(_edge_fields(io.StringIO(text, newline=None)), report)
                    for f in pair]
            lens = np.fromiter(map(len, ends), np.int64, len(ends))
            yield b"\n".join(ends), np.cumsum(lens + 1) - lens - 1, lens


def _file_edges(path, report: IngestReport, columns: np.ndarray) -> np.ndarray:
    """The int32 codes of both ends of each valid edge of an edge file, interleaved:
    a record's row among the key rows given as `columns`, and from the record count
    on one code per other id.  Raises `CorpusError` when the distinct ids would not
    fit int32 codes."""
    hay = columns[0] if (columns[0][1:] > columns[0][:-1]).all() else _void(columns.T)
    ends, unknown, size = [np.empty(0, np.int32)], defaultdict(list), 0
    for buf, starts, lens in _edge_blocks(path, report):
        code = _find(columns, hay, _keys(buf, starts, lens, len(columns) - 1))
        miss = np.flatnonzero(code < 0)
        words = _words(lens[miss])
        for w in np.unique(words).tolist():   # keyed by their own length, in groups
            at = miss[words == w]
            unknown[w].append((size + at, _keys(buf, starts[at], lens[at], w)))
        ends.append(code)
        size += len(code)
    ends, code = np.concatenate(ends), columns.shape[1]
    for group in unknown.values():
        distinct, inverse = np.unique(_void(np.concatenate([k for _, k in group])), return_inverse=True)
        ends[np.concatenate([at for at, _ in group])] = code + inverse.ravel()
        code += len(distinct)
    if code > 2**31:   # the codes written above have wrapped; none is used
        raise CorpusError(f"{code} distinct ids do not fit int32 codes")
    return ends


def _read_files(meta_path, edge_path):
    """`_read` over a metadata file and an edge file; line by line if some ids are
    much longer than the rest."""
    report = IngestReport()
    records = _file_records(meta_path, report)
    if records is None:
        return _read(read_metadata_file(meta_path), read_edge_file(edge_path))
    ids, years, venues, venue_names, columns = records
    ends = _file_edges(edge_path, report, columns)
    report.edges_in = report.malformed_edges + len(ends) // 2
    return report, ids, years, venues, venue_names, ends


# ---------------------------------------------------------------------------
# Binary cache keyed by a digest of the source files.
# ---------------------------------------------------------------------------

CACHE_FORMAT = 6


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


def save_cache(corpus: CitationCorpus, path, source_hash: str = "") -> None:
    """Write the corpus and the digest of its files as six `np.save` arrays: a JSON
    header (format, digest, separator, id count) as ASCII bytes; the ids and then the
    venue names as one UTF-8 block (lone surrogates kept), each ended by the separator,
    the first code point from U+000A on that no id or name holds; the years, the venue
    codes, and the citing and the cited row of each edge, in (citing, cited) order."""
    names = (*corpus.paper_ids, *corpus.venue_names, "")
    joined = "".join(names)
    used = set(joined) if "\n" in joined else ()
    sep = next(c for c in map(chr, count(10)) if c not in used)
    head = json.dumps({"format": CACHE_FORMAT, "source_hash": source_hash, "sep": sep, "ids": len(corpus)})
    block = sep.join(names).encode("utf-8", "surrogatepass")
    with open(path, "wb") as fh:
        for a in (np.frombuffer(head.encode("ascii"), np.uint8), np.frombuffer(block, np.uint8),
                  corpus.years, corpus.venues, corpus.cites, corpus.refs):
            np.save(fh, a, allow_pickle=False)


def load_cache(path, expect_hash: str | None = None) -> CitationCorpus | None:
    """Load a cached corpus; returns None when missing, stale, damaged or of another format.

    The format and the digest are checked before the name block is read.
    Nothing in the file is unpickled: the arrays go through the constructor
    `ingest` uses, whose checks refuse any that do not make a clean corpus.
    """
    try:
        with open(path, "rb") as fh:
            head = json.loads(np.load(fh, allow_pickle=False).tobytes())
            if head["format"] != CACHE_FORMAT or expect_hash not in (None, head["source_hash"]):
                return None
            block, *arrays = [np.load(fh, allow_pickle=False) for _ in range(5)]
        sep, n_ids = head["sep"], head["ids"]
        if not (isinstance(sep, str) and sep):
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
