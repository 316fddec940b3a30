"""Influence graphs and dispersion trees for single papers.

The influence graph of a paper P is the induced subgraph over P and its
direct citers, with edges reversed relative to citation direction so they
point the way influence flows (cited -> citing).  Strictly one hop: a
paper citing a citer of P but not P itself stays out.

The dispersion tree keeps exactly one incoming edge per citer.  A citer
that cites only P hangs off the root; a citer that also cites exactly one
other citer hangs off that citer; a citer citing several goes beneath the
candidate that currently sits deepest, so chains of follow-up work stay as
long as possible.  Depth ties are broken by smallest id by default, or by a seeded random
draw when a reference layout resolved its ties by coin flip and the goal
is to reproduce it.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import CorpusError

TIE_POLICIES = ("min-id", "random")


@dataclass(frozen=True)
class InfluenceGraph:
    """One-hop influence graph: root paper plus its citers.

    `cited_within` maps each citer to the other citers it cites (the root
    is implicit: every citer cites the root).  `years` covers every node.
    """

    root: str
    citers: tuple[str, ...]
    cited_within: Mapping[str, frozenset[str]]
    years: Mapping[str, int]

    @property
    def n(self) -> int:
        return len(self.citers)


@dataclass(frozen=True)
class InfluenceTree:
    """Rooted tree over a paper and its citers; one parent per citer.

    `parent` maps every non-root node to its parent; `depth` maps every
    node to its distance from the root (root is 0).
    """

    root: str
    parent: Mapping[str, str]
    depth: Mapping[str, int]

    @property
    def n(self) -> int:
        return len(self.parent)

    def leaves(self) -> tuple[str, ...]:
        """Non-root nodes with no children; empty for an empty tree."""
        internal = set(self.parent.values())
        return tuple(sorted(v for v in self.parent if v not in internal))

    def to_json(self) -> str:
        """The root and every node with its parent and depth, for inspection."""
        nodes = [{"id": self.root, "parent": None, "depth": 0}]
        for v in sorted(self.parent):
            nodes.append({"id": v, "parent": self.parent[v], "depth": self.depth[v]})
        return json.dumps({"root": self.root, "nodes": nodes}, indent=2, sort_keys=True)


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


@dataclass(frozen=True)
class BranchInfo:
    """One root-to-leaf path and the shared nodes that fragment it."""

    leaf: str
    length: int
    fragment_points: tuple[str, ...]

    @property
    def unified(self) -> bool:
        return not self.fragment_points


@dataclass(frozen=True)
class TreeStats:
    """Structural summary of a dispersion tree.

    `level_sizes[l-1]` is the node count at level l; levels cover 1..depth
    and their sizes sum to n.  `branches` holds one entry per leaf.
    """

    n: int
    depth: int
    breadth: int
    level_sizes: tuple[int, ...]
    leaves: tuple[str, ...]
    branches: tuple[BranchInfo, ...]


def build_idg(corpus, paper_id: str) -> InfluenceGraph:
    """Influence graph of `paper_id` in a corpus.

    A paper with no citations yields a valid single-node graph.
    """
    citers = corpus.citations_of(paper_id)
    citer_set = frozenset(citers)
    cited_within = {v: citer_set.intersection(corpus.references_of(v)) for v in citers}
    years = {v: corpus.year(v) for v in citers}
    years[paper_id] = corpus.year(paper_id)
    return InfluenceGraph(paper_id, citers, cited_within, years)


def _topological_order(idg: InfluenceGraph) -> list[str]:
    """Citers in (year, id) order, constrained so cited citers come first.

    Chronological order already respects citation direction except inside a
    single year; the heap form keeps the chronological tie-break while
    guaranteeing every candidate parent is placed before its dependents.
    """
    remaining = {v: len(idg.cited_within[v]) for v in idg.citers}
    dependents: dict[str, list[str]] = defaultdict(list)
    for v in idg.citers:
        for u in idg.cited_within[v]:
            dependents[u].append(v)
    heap = [(idg.years[v], v) for v in idg.citers if remaining[v] == 0]
    heapq.heapify(heap)
    order: list[str] = []
    while heap:
        _, v = heapq.heappop(heap)
        order.append(v)
        for w in dependents[v]:
            remaining[w] -= 1
            if remaining[w] == 0:
                heapq.heappush(heap, (idg.years[w], w))
    if len(order) != len(idg.citers):
        raise CorpusError(f"citer subgraph of {idg.root!r} contains a cycle")
    return order


def build_idt(
    idg: InfluenceGraph,
    tie: str = "min-id",
    rng: np.random.Generator | int | Sequence[int] | None = None,
) -> InfluenceTree:
    """Build the dispersion tree of an influence graph.

    Each citer is attached beneath the deepest of the citers it cites, or
    beneath the root when it cites none.  `tie` picks among equally deep
    candidates: ``"min-id"`` (deterministic) or ``"random"``, drawing from
    ``np.random.default_rng(rng)``, which is made on the first actual tie
    so seeded runs stay reproducible.
    """
    if tie not in TIE_POLICIES:
        raise ValueError(f"tie must be one of {TIE_POLICIES}, got {tie!r}")
    gen: np.random.Generator | None = None

    parent: dict[str, str] = {}
    depth: dict[str, int] = {idg.root: 0}
    for v in _topological_order(idg):
        cand = idg.cited_within[v]
        if not cand:
            p = idg.root
        elif len(cand) == 1:
            (p,) = cand
        else:
            best = max(depth[u] for u in cand)
            top = sorted(u for u in cand if depth[u] == best)
            if len(top) == 1 or tie == "min-id":
                p = top[0]
            else:
                if gen is None:
                    gen = np.random.default_rng(rng)
                p = top[int(gen.integers(0, len(top)))]
        parent[v] = p
        depth[v] = depth[p] + 1
    return InfluenceTree(idg.root, parent, depth)


def tree_stats(tree: InfluenceTree) -> TreeStats:
    """Depth, breadth, level sizes, leaves, and branch classification.

    A branch is the root-to-leaf path for one leaf; it is fragmented when
    some intermediate node also lies on another branch, i.e. has more than
    one leaf below it.  Those shared nodes are its fragment points.
    """
    if not tree.parent:
        return TreeStats(0, 0, 0, (), (), ())
    level_counter = Counter(tree.depth[v] for v in tree.parent)
    depth = max(level_counter)
    level_sizes = tuple(level_counter.get(l, 0) for l in range(1, depth + 1))
    breadth = max(level_sizes)
    leaves = tree.leaves()
    leaf_count = Counter(leaves)   # leaves below each node, summed deepest first
    for v in sorted(tree.parent, key=lambda v: -tree.depth[v]):
        leaf_count[tree.parent[v]] += leaf_count[v]
    branches = []
    for leaf in leaves:
        path = []
        node = tree.parent[leaf]
        while node != tree.root:
            path.append(node)
            node = tree.parent[node]
        path.reverse()
        points = tuple(p for p in path if leaf_count[p] >= 2)
        branches.append(BranchInfo(leaf, tree.depth[leaf], points))
    return TreeStats(len(tree.parent), depth, breadth, level_sizes, leaves, tuple(branches))
