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
import weakref
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .corpus import CorpusError, write_csv
from .tree import TIE_POLICIES, InfluenceTree, build_idg, build_idt

CSV_HEADER = ("paper_id", "n", "d", "b", "idi", "idi_min", "idi_max", "id", "nid")


def idi(tree: InfluenceTree) -> int:
    """Sum of root-to-leaf path lengths; 0 for an empty tree."""
    if not tree.parent:
        return 0
    internal = set(tree.parent.values())
    return sum(d for v, d in tree.depth.items() if v != tree.root and v not in internal)


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


def influence_divergence(tree: InfluenceTree) -> int:
    """How far the tree's IDI sits above the ideal value n; 0 for empty trees."""
    if not tree.parent:
        return 0
    return idi(tree) - tree.n


def _nid(n: int, idi_value: int, idi_hi: int) -> float:
    span = idi_hi - n
    if span == 0:
        return 0.0
    return (idi_value - n) / span


def nid_value(n: int, idi_value: int) -> float:
    """Normalized divergence in [0, 1]; 0 by convention when n <= 2."""
    return _nid(_require_positive(n), int(idi_value), idi_max(n))


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


def _build_tree(idg, tie: str, seed: int) -> InfluenceTree:
    # Stable per-paper seed, identical across runs, orders and processes;
    # build_idt only turns it into a generator on the first real tie.
    rng = [seed, *idg.root.encode("utf-8")] if tie == "random" else None
    return build_idt(idg, tie=tie, rng=rng)


def _sweep(tree: InfluenceTree) -> tuple[list[int], list[int]]:
    """IDI after each citer is attached, and the citer count of each level.

    `tree.parent` must be in build order, as `build_idt` makes it.  A citer
    v hung under a node without children yet (a leaf, or the root before
    its first child) adds 1 to the IDI: v takes over its parent's branch.
    Under a node that already has children, v starts a new branch and adds
    depth[v].
    """
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


def _checked_max(n: int, value: int) -> int:
    hi = idi_max(n)
    if not n <= value <= hi:
        raise AssertionError(f"IDI {value} outside bounds for n={n}")
    return hi


def paper_metrics(
    view,
    paper_id: str,
    *,
    tie: str = "min-id",
    seed: int = 0,
) -> MetricsReport | None:
    """Metrics for one paper under a view; None when it has no citations."""
    idg = build_idg(view, paper_id)
    n = idg.n
    if n == 0:
        return None
    prefix, levels = _sweep(_build_tree(idg, tie, seed))
    value = prefix[-1]
    hi = _checked_max(n, value)
    return MetricsReport(paper_id, n, len(levels), max(levels), value, n, hi, value - n, _nid(n, value, hi))


# corpus -> (tie, seed) -> paper id -> IDI after each citer of its full tree.
# Weakly keyed, so an entry goes with its corpus and never into its pickle.
_TIMELINES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def snapshot_nid(view, paper_id: str, n: int, *, tie: str = "min-id", seed: int = 0) -> float:
    """NID of `paper_id` in a corpus or snapshot view where it has `n` >= 1 citers.

    The paper's tree in a snapshot is its full tree cut to the first n
    citers under either tie policy: citers are attached in (year, id) order
    and never cite a later year, and tie draws come in the same order.  So
    each paper's full tree is built once per corpus, and a snapshot's IDI
    is its running IDI after n citers.
    """
    base = getattr(view, "base", view)
    papers = _TIMELINES.setdefault(base, {}).setdefault((tie, seed), {})
    prefix = papers.get(paper_id)
    if prefix is None:
        prefix = papers[paper_id] = tuple(_sweep(_build_tree(build_idg(base, paper_id), tie, seed))[0])
    value = prefix[n - 1]
    return _nid(n, value, _checked_max(n, value))


# Candidate pairs tested at once by the triangle search: bounds its scratch
# arrays to a few MiB whatever the corpus size.
_BLOCK = 1 << 17


def _segments(sorted_keys: np.ndarray) -> np.ndarray:
    """Start of each run of equal values in a sorted array."""
    return np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])


def _dispersion(view, ids: list[str]):
    """Min-id dispersion trees of every paper in `ids` (sorted, distinct), at once.

    Returns the cited papers of `ids` in order with their citer count n,
    depth, breadth, min-id IDI and whether some citer has two or more
    equally deep candidate parents (the papers whose tree a random tie
    policy can change).  `paper_metrics` gives the same values per paper.

    Citation edges (v, x) are numbered by the sorted key v * N + x over the
    papers involved, numbered in id order.  A triangle is a pair of edges
    (v, P) and (v, u) with (u, P) an edge too: u is then a candidate parent
    of v in P's tree.  A citer's depth is one more than its deepest
    candidate's (1 without one), its parent is the smallest-id candidate
    one level up, and IDI sums the depths of citers nobody picked.
    """
    citing: set[str] = set()
    for pid in ids:
        citing.update(view.citations_of(pid))
    extra = citing.difference(ids)
    nodes = sorted(extra.union(ids)) if extra else ids
    size = len(nodes)
    index = {pid: i for i, pid in enumerate(nodes)}
    wanted = np.zeros(size, bool)
    wanted[[index[pid] for pid in ids]] = True
    refs = [view.references_of(v) for v in citing]
    src = np.repeat(np.array([index[v] for v in citing], np.int64), [len(r) for r in refs])
    dst = np.fromiter(map(index.get, chain.from_iterable(refs), repeat(-1)), np.int64, len(src))
    del index, citing, refs
    keys = np.sort((src * size + dst)[dst >= 0])   # -1: a reference outside the papers involved
    del src, dst

    first = keys // size * size   # key of (v, 0): v's run of edges starts at or after it
    dst = (keys - first).astype(np.int32)
    lo = np.searchsorted(keys, first).astype(np.int32)
    partners = np.searchsorted(keys, first + size).astype(np.int32) - lo - 1
    del first
    # Expand each (v, P) into its pairs with v's other edges (v, u), block
    # by block; probe for (u, P) by its key.
    child = np.flatnonzero(wanted[dst] & (partners > 0)).astype(np.int32)
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
        probe = dst[e2].astype(np.int64) * size + dst[e1]
        pos = np.minimum(np.searchsorted(keys, probe), len(keys) - 1).astype(np.int32)
        hit = keys[pos] == probe
        tri_child.append(e1[hit])
        tri_parent.append(pos[hit])
        start = stop
    del lo, partners, child, counts, ends

    depth = np.ones(len(keys), np.int32)
    into = wanted[dst]
    leaf = into.copy()
    tied = np.zeros(size, bool)
    tri_child = np.concatenate(tri_child)   # sorted: blocks go by child edge
    tri_parent = np.concatenate(tri_parent)
    if len(tri_child):
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
        leaf[tri_parent[heads]] = False
        tied[dst[tri_child[heads[np.diff(np.r_[heads, len(tri_child)]) > 1]]]] = True

    paper, level = dst[into], depth[into]
    n = np.bincount(paper, minlength=size)
    idi_sum = np.bincount(dst[leaf], weights=depth[leaf], minlength=size).astype(np.int64)  # exact below 2**53
    deepest = np.zeros(size, np.int64)
    widest = np.zeros(size, np.int64)
    if len(paper):
        # one cell per (paper, level), counted; the stride is the deepest level + 1
        stride = int(level.max()) + 1
        cells, width = np.unique(paper.astype(np.int64) * stride + level, return_counts=True)
        heads = _segments(cells // stride)
        owner = cells[heads] // stride
        deepest[owner] = np.maximum.reduceat(cells % stride, heads)
        widest[owner] = np.maximum.reduceat(width, heads)
    rows = np.flatnonzero(wanted & (n > 0))
    return [nodes[i] for i in rows.tolist()], n[rows], deepest[rows], widest[rows], idi_sum[rows], tied[rows]


def corpus_metrics(
    view,
    paper_ids=None,
    *,
    tie: str = "min-id",
    seed: int = 0,
    jobs: int = 1,
) -> list[MetricsReport]:
    """Metrics for every paper with at least one citation, once each, sorted by id.

    All trees are scored together by `_dispersion`; under ``tie="random"``
    only the papers with a depth tie are rebuilt one by one through
    `paper_metrics`, which draws their ties.  `jobs` is ignored; it stays
    because ``bench/workloads.py`` times a second round with ``jobs=2``.
    """
    if tie not in TIE_POLICIES:
        raise ValueError(f"tie must be one of {TIE_POLICIES}, got {tie!r}")
    ids = sorted(set(paper_ids)) if paper_ids is not None else list(view.paper_ids)
    cited, n, depth, breadth, value, tied = _dispersion(view, ids)
    hi = (n + 1) ** 2 // 4
    bad = np.flatnonzero((value < n) | (value > hi))
    if len(bad):
        i = bad[0]
        raise AssertionError(f"IDI {value[i]} outside bounds for n={n[i]}")
    reports = [
        MetricsReport(pid, c, d, b, v, c, h, v - c, _nid(c, v, h))
        for pid, c, d, b, v, h in zip(cited, n.tolist(), depth.tolist(), breadth.tolist(),
                                      value.tolist(), hi.tolist())
    ]
    if tie == "random":
        for i in np.flatnonzero(tied).tolist():
            reports[i] = paper_metrics(view, cited[i], tie=tie, seed=seed)
    return reports


def write_metrics_csv(reports, path) -> None:
    write_csv(path, CSV_HEADER, (
        (r.paper_id, r.n, r.depth, r.breadth, r.idi, r.idi_min, r.idi_max, r.divergence, r.nid)
        for r in reports
    ))
