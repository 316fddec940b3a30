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
import multiprocessing as mp
import weakref
from dataclasses import dataclass

import numpy as np

from .corpus import CorpusError, write_csv
from .tree import InfluenceTree, build_idg, build_idt

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


_CTX: tuple | None = None


def _set_ctx(ctx: tuple | None) -> None:
    global _CTX
    _CTX = ctx


def _call(item):
    fn, ctx = _CTX
    return fn(ctx, item)


def parallel_map(fn, items: list, jobs: int, ctx: tuple) -> list:
    """`[fn(ctx, item) for item in items]`, spread over `jobs` processes.

    `ctx` reaches the workers once, through a module global (inherited on
    `fork`), not once per item, and is released on return.  Small inputs
    run serially.  The result order is the item order, so it matches a
    serial run.
    """
    _set_ctx((fn, ctx))
    try:
        if jobs <= 1 or len(items) < 2 * jobs:
            return [_call(item) for item in items]
        method = "fork" if "fork" in mp.get_all_start_methods() else None
        with mp.get_context(method).Pool(jobs, initializer=_set_ctx, initargs=((fn, ctx),)) as pool:
            return pool.map(_call, items)
    finally:
        _set_ctx(None)


def _score(ctx: tuple, paper_id: str) -> MetricsReport | None:
    view, tie, seed = ctx
    return paper_metrics(view, paper_id, tie=tie, seed=seed)


def corpus_metrics(
    view,
    paper_ids=None,
    *,
    tie: str = "min-id",
    seed: int = 0,
    jobs: int = 1,
) -> list[MetricsReport]:
    """Metrics for every paper with at least one citation, sorted by id.

    With `jobs` > 1 the papers are spread over worker processes; the
    result matches a serial run.
    """
    ids = sorted(paper_ids) if paper_ids is not None else list(view.paper_ids)
    reports = parallel_map(_score, ids, jobs, (view, tie, seed))
    return [report for report in reports if report is not None]


def write_metrics_csv(reports, path) -> None:
    write_csv(path, CSV_HEADER, (
        (r.paper_id, r.n, r.depth, r.breadth, r.idi, r.idi_min, r.idi_max, r.divergence, r.nid)
        for r in reports
    ))
