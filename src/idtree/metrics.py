"""Influence metrics over dispersion trees.

IDI (influence dispersion index) sums the root-to-leaf path lengths of a
tree.  For n citers it ranges from n (every branch unified, each node on
exactly one branch) up to a peak reached by a single chain that fans out
at the bottom.  The normalized influence divergence NID rescales the gap
between a tree's IDI and the ideal value n onto [0, 1]; lower means the
citing papers are organized closer to the ideal layout, whose depth and
breadth are both ceil(sqrt(n)).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import compress, starmap

import numpy as np

from .corpus import CorpusError, derived, write_csv_columns
from .tree import TIE_POLICIES, InfluenceTree, build_idg, build_idt

CSV_HEADER = ("paper_id", "n", "d", "b", "idi", "idi_min", "idi_max", "id", "nid")


def idi(tree: InfluenceTree) -> int:
    """Sum of root-to-leaf path lengths; 0 for an empty tree."""
    return sum(map(tree.depth.__getitem__, tree.leaves()))


def _require_positive(n: int) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"citation count must be a positive integer, got {n!r}")
    return int(n)


def idi_min(n: int) -> int:
    """Smallest achievable IDI for n citers: n itself, the ideal layout's value."""
    return _require_positive(n)


def idi_max(n: int) -> int:
    """Largest achievable IDI for n citers: floor((n + 1)^2 / 4).

    This is (1 + k)(n - k) at k = floor((n - 1) / 2), a chain of k citers
    fanning out into the other n - k at its end.
    """
    return (_require_positive(n) + 1) ** 2 // 4


def optimal_shape(n: int) -> tuple[int, int]:
    """Depth and breadth of the ideal layout: both ceil(sqrt(n))."""
    _require_positive(n)
    k = math.isqrt(n)
    if k * k < n:
        k += 1
    return (k, k)


def nid_value(n: int, idi_value: int) -> float:
    """Normalized divergence in [0, 1]; 0 by convention when n <= 2."""
    n = _require_positive(n)
    span = idi_max(n) - n
    return (int(idi_value) - n) / span if span else 0.0


def nid(tree: InfluenceTree) -> float:
    """Normalized influence divergence of a tree; undefined for n = 0."""
    if not tree.parent:
        raise CorpusError(f"NID is undefined for uncited paper {tree.root!r}")
    return nid_value(tree.n, idi(tree))


@dataclass(frozen=True)
class MetricsReport:
    """Per-paper structural metrics, one CSV row per report."""

    paper_id: str
    n: int
    depth: int
    breadth: int
    idi: int
    idi_min: int
    idi_max: int
    divergence: int
    nid: float


@dataclass(frozen=True, eq=False)
class CorpusMetrics:
    """`MetricsReport` fields of many papers as columns, one row per paper in id order.

    `idi_min` is `n` and the divergence `idi - n`, so neither is stored.
    Iterating yields the rows as `MetricsReport`s of plain Python values.
    """

    paper_ids: list[str]
    n: np.ndarray
    depth: np.ndarray
    breadth: np.ndarray
    idi: np.ndarray
    idi_max: np.ndarray
    nid: np.ndarray

    def __len__(self) -> int:
        return len(self.paper_ids)

    def columns(self) -> tuple[np.ndarray, ...]:
        """The numeric CSV columns, in `CSV_HEADER` order after the id."""
        n, value = self.n, self.idi
        return n, self.depth, self.breadth, value, n, self.idi_max, value - n, self.nid

    def __iter__(self):
        return starmap(MetricsReport, zip(self.paper_ids, *(c.tolist() for c in self.columns())))


def _sweep(idg, tie: str, seed: int) -> tuple[list[int], list[int]]:
    """IDI after each citer of `idg`'s tree is attached, and the citer count of each level.

    The tree gets a stable per-paper seed, identical across runs, orders
    and processes; `build_idt` only turns it into a generator on the first
    real tie, so under min-id it is never used.  A citer v hung under a node
    without children yet (a leaf, or the root before its first child) adds
    1 to the IDI: v takes over its parent's branch.  Under a node that
    already has children, v starts a new branch and adds depth[v].
    """
    tree = build_idt(idg, tie=tie, rng=[seed, *idg.root.encode("utf-8")])
    prefix: list[int] = []
    levels: list[int] = []
    parents: set[str] = set()
    value = 0
    for v, p in tree.parent.items():
        d = tree.depth[v]
        if d > len(levels):
            levels.append(0)
        levels[d - 1] += 1
        value += d if p in parents else 1
        parents.add(p)
        prefix.append(value)
    return prefix, levels


def _checked_nids(n: np.ndarray, value: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The IDI maxima and the NIDs (0 where n = 0) of citer counts `n` and IDIs `value`.

    Raises AssertionError on an IDI outside its bounds.
    """
    hi = (n + 1) ** 2 // 4
    bad = np.flatnonzero((value < n) | (value > hi))
    if len(bad):
        i = bad[0]
        raise AssertionError(f"IDI {value[i]} outside bounds for n={n[i]}")
    span = hi - n
    return hi, np.divide(value - n, span, out=np.zeros(len(n)), where=span > 0)


def paper_metrics(
    corpus,
    paper_id: str,
    *,
    tie: str = "min-id",
    seed: int = 0,
) -> MetricsReport | None:
    """Metrics for one paper of a corpus; None when it has no citations."""
    idg = build_idg(corpus, paper_id)
    n = idg.n
    if n == 0:
        return None
    prefix, levels = _sweep(idg, tie, seed)
    value = prefix[-1]
    hi, nid = _checked_nids(np.array([n]), np.array([value]))
    return MetricsReport(paper_id, n, len(levels), max(levels), value, n, int(hi[0]), value - n, float(nid[0]))


def _scored(corpus, tied: np.ndarray, rows: np.ndarray, n: np.ndarray, value: np.ndarray, tie: str, seed: int):
    """`_checked_nids` of the citer counts `n` and min-id IDIs `value` of papers `rows` under `tie`.

    Under random ties, each paper flagged in `tied` with n > 0 gets in `value` the
    IDI after its n-th citer from its full tree, as `paper_metrics` builds it, kept
    per seed in the corpus's ("drawn", seed) memo.
    """
    if tie not in TIE_POLICIES:
        raise ValueError(f"tie must be one of {TIE_POLICIES}, got {tie!r}")
    if tie == "random":
        drawn = derived(corpus).setdefault(("drawn", seed), {})
        for i in np.flatnonzero(tied[rows] & (n > 0)).tolist():
            row = int(rows[i])
            if row not in drawn:
                drawn[row] = _sweep(build_idg(corpus, corpus.paper_ids[row]), "random", seed)[0]
            value[i] = drawn[row][n[i] - 1]
    return _checked_nids(n, value)


class PaperYears:
    """Citation counts and NIDs of a corpus's papers at any cutoff year.

    Papers are the corpus's rows.  Under min-id ties a paper's tree in a
    snapshot is its full tree cut to the citers published by the cutoff: a
    citer's candidate parents are citers it cites, so none is younger than
    it and its depth and parent stay the same.  Citer v is then a leaf of
    P's snapshot tree from v's year until the year of its first child, so
    IDI(P, Y) is a running sum over P's citers in year order: +depth(v) at
    v's year, -depth(v) at the year of its first child.  Under random ties
    the papers with a depth tie take the IDI after their n-th citer from
    their full tree, built once per seed and corpus: the snapshot tree
    draws the same ties in the same order.  The table holds no reference to
    its corpus, which is passed in where one is needed.
    """

    def __init__(self, corpus, covered: np.ndarray):
        """Tabulate the papers where the bool row mask `covered` is set."""
        n = len(corpus)
        # a citation into P by a citer of year Y has the key
        # P * stride + Y - first_year + 1, strictly inside P's stride;
        # int32 years keep the stride below 2**32 + 2
        self.first_year, last = corpus.year_range() if n else (0, 0)
        self.stride = last - self.first_year + 2
        citer, paper, depth, parent, self.tied = _edge_trees(corpus, covered)
        keys = paper.astype(np.int64) * self.stride + (corpus.years[citer].astype(np.int64) - self.first_year + 1)
        order = np.argsort(keys)
        self.keys = keys[order]
        slot = np.empty(len(keys), np.int64)
        slot[order] = np.arange(len(keys))
        # a citation's first child is its child of smallest slot, so of the
        # earliest year; the sums are read only between runs of equal keys, so
        # where a delta lands inside its run does not matter
        child = np.flatnonzero(parent >= 0)
        never = np.iinfo(np.int64).max
        first = np.full(len(keys), never)
        np.minimum.at(first, parent[child], slot[child])
        gone = np.flatnonzero(first < never)
        # +depth where a citer comes in, -depth where its first child does; a
        # citation is the first child of at most one parent, so no slot is hit twice
        delta = depth[order].astype(np.int64)
        delta[first[gone]] -= depth[gone]
        self.idi_sums = np.r_[0, np.cumsum(delta)]
        self.offsets = np.searchsorted(self.keys, np.arange(n + 1, dtype=np.int64) * self.stride)

    def at(self, rows: np.ndarray, years) -> tuple[np.ndarray, np.ndarray]:
        """Citer counts and min-id IDIs of papers `rows` at cutoff `years` (one per row, or one for all)."""
        cut = np.clip(np.asarray(years, np.int64) - self.first_year + 1, 0, self.stride - 1)
        end = np.searchsorted(self.keys, rows * self.stride + cut, "right")
        start = self.offsets[rows]
        return end - start, self.idi_sums[end] - self.idi_sums[start]

    def nids(self, corpus, rows: np.ndarray, years, *, tie: str = "min-id", seed: int = 0):
        """Citer counts and NIDs of papers `rows` at cutoff `years`; NID is NaN where the count is 0."""
        n, value = self.at(rows, years)
        nid = _scored(corpus, self.tied, rows, n, value, tie, seed)[1]   # an uncited paper has IDI 0, inside its bounds
        nid[n == 0] = np.nan
        return n, nid


def _covering(corpus, key: str, rows, build):
    """The corpus's memo entry `key`, covering at least the papers at `rows`.

    The memo keeps it as ``(covered, entry)``, with the read-only bool mask of
    the rows it was built for; asked for rows the mask lacks, it is replaced
    with ``build(corpus, covered)`` over those and the ones it had.
    """
    memo = derived(corpus)
    covered = memo[key][0] if key in memo else None
    if covered is None or not covered[rows].all():
        covered = np.zeros(len(corpus), bool) if covered is None else covered.copy()
        covered[rows] = True
        covered.flags.writeable = False
        memo[key] = covered, build(corpus, covered)
    return memo[key][1]


def paper_years(corpus, rows) -> PaperYears:
    """The corpus's `PaperYears`, covering at least `rows` (see `_covering`)."""
    return _covering(corpus, "years", rows, PaperYears)


# Candidate pairs tested at once by the triangle search: bounds its scratch
# arrays to a few MiB whatever the corpus size.
_BLOCK = 1 << 17


def _segments(sorted_keys: np.ndarray) -> np.ndarray:
    """Start of each run of equal values in a sorted array; none in an empty one."""
    return np.flatnonzero(np.r_[len(sorted_keys) > 0, sorted_keys[1:] != sorted_keys[:-1]])


def _edge_trees(corpus, wanted: np.ndarray):
    """Min-id dispersion trees of the papers where the bool row mask `wanted` is set, at once.

    Returns, per citation into a wanted paper, in (citer, cited) order:
    the citer's and the cited paper's row, the citer's depth, and the
    citation of its parent (-1 under the root).  Last comes a flag per row
    of the corpus: some citer of it has two or more equally deep candidate
    parents, so a random tie policy can change its tree.

    Citation edges (v, x) are numbered by the key v * N + x over the
    corpus's N rows; the corpus keeps its edges in (citing, cited) row
    order, so the keys of the edges kept come out sorted.  A triangle is
    a pair of edges (v, P) and (v, u) with (u, P) an edge too: u is then a
    candidate parent of v in P's tree.  A citer's depth is one more than
    its deepest candidate's (1 without one), and its parent is the
    smallest-id candidate one level up.

    Most pairs (v, P), (v, u) have no edge (u, P).  64-bit row signatures,
    a Bloom filter over each paper's references, reject most of them before
    the exact probe: bit P % 64 must be set in the signature of u and in
    the OR of the signatures of v's references.  A filter never rejects a
    true edge, so the result does not depend on it; it only passes more
    pairs where references crowd the 64 bits.
    """
    size = len(corpus)
    involved = np.zeros(size, bool)   # the citers of the wanted papers
    involved[corpus.cites[wanted.take(corpus.refs)]] = True
    # their edges among the papers involved; `take` gathers by int32 rows faster than indexing
    kept = involved.take(corpus.cites) & (involved | wanted).take(corpus.refs)
    citing, dst = corpus.cites[kept], corpus.refs[kept]
    keys = citing.astype(np.int64) * size + dst
    del involved, kept

    heads = _segments(citing)   # each citer's edges are one run of keys
    # signatures: bit x % 64 of sig[u] is set when u cites some x, and of
    # reach[v] when one of v's references does
    low = (dst & 63).astype(np.uint8)
    one = np.uint64(1)
    sig = np.zeros(size, np.uint64)
    sig[citing[heads]] = np.bitwise_or.reduceat(np.left_shift(one, low), heads)
    reach = np.zeros(size, np.uint64)
    reach[citing[heads]] = np.bitwise_or.reduceat(sig[dst], heads)
    linked = (reach[citing] >> low) & one > 0
    del reach
    # per edge: lo is the start of its citer's run, partners the run's length - 1
    sizes = np.diff(np.r_[heads, len(keys)])
    lo = np.repeat(heads.astype(np.int32), sizes)
    partners = np.repeat(sizes.astype(np.int32) - 1, sizes)
    year = corpus.years[dst]
    child = np.flatnonzero(wanted[dst] & (partners > 0) & linked).astype(np.int32)
    del heads, sizes, linked
    # Expand each child edge (v, P) into its pairs with v's other edges
    # (v, u), block by block, and probe for (u, P) by its key.  Only a u
    # published no earlier than P, with bit P % 64 in its signature, can
    # cite P, so the other pairs are dropped unprobed; the probes are
    # searched in key order and their hits put back in (v, P), u order.
    counts = partners[child].astype(np.int64)
    ends = np.cumsum(counts)
    tri_child, tri_parent = [np.empty(0, np.int32)], [np.empty(0, np.int32)]
    start = 0
    while start < len(child):
        stop = max(int(np.searchsorted(ends, ends[start] - counts[start] + _BLOCK, "right")), start + 1)
        k = counts[start:stop]
        e1 = np.repeat(child[start:stop], k)
        e2 = lo[e1] + (np.arange(len(e1), dtype=np.int32) - np.repeat((np.cumsum(k) - k).astype(np.int32), k))
        e2 += e2 >= e1
        keep = np.flatnonzero((year[e2] >= year[e1]) & ((sig[dst[e2]] >> low[e1]) & one > 0))
        e1, e2 = e1[keep], e2[keep]
        probe = dst[e2].astype(np.int64) * size + dst[e1]
        order = np.argsort(probe)
        probe = probe[order]
        pos = np.minimum(np.searchsorted(keys, probe), len(keys) - 1).astype(np.int32)
        hit = np.flatnonzero(keys[pos] == probe)
        hit = hit[np.argsort(order[hit])]
        tri_child.append(e1[order[hit]])
        tri_parent.append(pos[hit])
        start = stop
        del k, e1, e2, keep, probe, order, pos, hit
    del lo, partners, year, low, sig, child, counts, ends

    depth = np.ones(len(keys), np.int32)
    parent = np.full(len(keys), -1, np.int32)
    tied = np.zeros(size, bool)
    tri_child = np.concatenate(tri_child)   # sorted: blocks go by child edge
    tri_parent = np.concatenate(tri_parent)
    heads = _segments(tri_child)
    kids = tri_child[heads]
    while True:
        deeper = np.maximum.reduceat(depth[tri_parent], heads) + 1
        if np.array_equal(deeper, depth[kids]):
            break
        depth[kids] = deeper
    # Candidates one level up: the first (smallest u, so smallest key)
    # is the parent, and two or more make a tie.
    up = depth[tri_parent] == depth[tri_child] - 1
    tri_child, tri_parent = tri_child[up], tri_parent[up]
    heads = _segments(tri_child)
    parent[tri_child[heads]] = tri_parent[heads]
    tied[dst[tri_child[heads[np.diff(np.r_[heads, len(tri_child)]) > 1]]]] = True

    into = np.flatnonzero(wanted[dst])   # a parent's citation goes into the same paper
    del keys
    renumber = np.cumsum(wanted[dst], dtype=np.int32) - 1
    parent = parent[into]
    parent[parent >= 0] = renumber[parent[parent >= 0]]
    return citing[into], dst[into], depth[into], parent, tied


_Scores = namedtuple("_Scores", "n idi depth breadth tied")


def _scores(corpus, covered: np.ndarray) -> _Scores:
    """Min-id n, IDI, depth and breadth of every row, and its depth-tie flag, as read-only arrays.

    Rows outside the bool mask `covered` and uncited papers score 0.  All
    trees come at once from `_edge_trees`; IDI sums the depths of the citers
    nobody picked as parent.
    """
    size = len(corpus)
    _, paper, level, parent, tied = _edge_trees(corpus, covered)
    leaf = np.ones(len(paper), bool)
    leaf[parent[parent >= 0]] = False
    n = np.bincount(paper, minlength=size)
    value = np.bincount(paper[leaf], weights=level[leaf], minlength=size).astype(np.int64)  # exact below 2**53
    depth = np.zeros(size, np.int64)
    breadth = np.zeros(size, np.int64)
    # a tree has a citer on every level down to its depth
    for at in range(1, int(level.max(initial=0)) + 1):
        width = np.bincount(paper[level == at], minlength=size)
        np.maximum(breadth, width, out=breadth)
        depth[width > 0] = at
    table = _Scores(n, value, depth, breadth, tied)
    for array in table:
        array.flags.writeable = False
    return table


def corpus_metrics(
    corpus,
    paper_ids=None,
    *,
    tie: str = "min-id",
    seed: int = 0,
    jobs: int = 1,
) -> CorpusMetrics:
    """Metrics for every paper with at least one citation, once each, as columns sorted by id.

    The min-id scores come from the corpus's memo ("scores", built by
    `_scores` over the papers asked for and extended as `_covering` says),
    so a later call for any tie policy, seed or subset cuts its rows from
    it; `_scored` applies the tie policy.  `jobs` is ignored; it stays
    because ``bench/workloads.py`` times a second call with ``jobs=2``,
    which is a memo hit.
    """
    rows = slice(None) if paper_ids is None else np.fromiter(map(corpus.row, paper_ids), np.int64)
    table = _covering(corpus, "scores", rows, _scores)
    cited = np.zeros(len(corpus), bool)
    cited[rows] = True
    cited &= table.n > 0
    at = np.flatnonzero(cited)
    n, value = table.n[at], table.idi[at]
    hi, nid = _scored(corpus, table.tied, at, n, value, tie, seed)
    return CorpusMetrics(list(compress(corpus.paper_ids, cited.tolist())), n, table.depth[at], table.breadth[at],
                         value, hi, nid)


def write_metrics_csv(result: CorpusMetrics, path) -> None:
    write_csv_columns(path, CSV_HEADER, result.paper_ids, result.columns())
