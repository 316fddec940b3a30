"""Independent reference computations for the benchmark's checks.

Everything here is derived from the raw edge and metadata files and shares no
code with `idtree`.  It rests on one observation: a citer's depth in a paper's
dispersion tree is 1 + the largest depth among the other citers it cites (1
when it cites none), whichever of the equally deep candidates becomes its
parent.  So n, depth, breadth and the level sizes do not depend on the tie
policy.  The min-id tree hangs each citer under the smallest id among its
deepest candidates; IDI is the sum of the depths of its leaves.

All candidates of a citer are at most as old as the citer, so a paper's tree
in the view up to year y is its full tree restricted to citers of year <= y:
a citer is a leaf there when none of its children is that old.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right

import numpy as np


def read_meta(path) -> dict[str, tuple[int, str | None]]:
    """Map id -> (year, venue) from a clean JSON-lines metadata file."""
    meta: dict[str, tuple[int, str | None]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            meta[obj["id"]] = (obj["year"], obj.get("venue"))
    return meta


def read_edges(path) -> list[tuple[str, str]]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(line.rstrip("\n").split("\t")) for line in fh]


def idi_max(n: int) -> int:
    k = (n - 1) // 2
    return (1 + k) * (n - k)


def nid(n: int, idi: int) -> float:
    span = idi_max(n) - n
    return 0.0 if span == 0 else (idi - n) / span


def discordant_pairs(order_a: list[str], order_b: list[str]) -> int:
    """Pairs ordered differently by two rankings of one set, counted pair by pair."""
    pos_b = {pid: i for i, pid in enumerate(order_b)}
    a = np.arange(len(order_a))
    b = np.array([pos_b[pid] for pid in order_a])
    disagree = np.sign(a[:, None] - a[None, :]) * np.sign(b[:, None] - b[None, :]) < 0
    return int(np.triu(disagree, 1).sum())


def kendall(order_a: list[str], order_b: list[str]) -> float:
    m = len(order_a)
    return discordant_pairs(order_a, order_b) / (m * (m - 1) / 2)


class Tree:
    """Citers of one paper in (year, id) order with depth and leaf span."""

    __slots__ = ("years", "depths", "child_year", "tie")

    def __init__(self, years, depths, child_year, tie):
        self.years = years
        self.depths = depths
        self.child_year = child_year  # earliest year of a child; inf for none
        self.tie = tie                # some citer has two equally deep candidates

    def values(self, cutoff: float = math.inf) -> tuple[int, int, int, int] | None:
        """(n, depth, breadth, min-id IDI) of the tree up to `cutoff`; None if empty."""
        k = bisect_right(self.years, cutoff)
        if k == 0:
            return None
        depths = self.depths[:k]
        levels: dict[int, int] = {}
        for d in depths:
            levels[d] = levels.get(d, 0) + 1
        idi = sum(d for d, cy in zip(depths, self.child_year) if cy > cutoff or cy == math.inf)
        return k, max(depths), max(levels.values()), idi


class Oracle:
    """Reference values over one clean corpus read from raw files."""

    def __init__(self, meta: dict[str, tuple[int, str | None]], edges: list[tuple[str, str]]):
        self.meta = meta
        self.refs: dict[str, set[str]] = {}
        citers: dict[str, list[str]] = {}
        for citing, cited in edges:
            self.refs.setdefault(citing, set()).add(cited)
            citers.setdefault(cited, []).append(citing)
        self.citers = {p: sorted(cs, key=lambda c: (meta[c][0], c)) for p, cs in citers.items()}
        self._citer_years = {p: [meta[c][0] for c in cs] for p, cs in self.citers.items()}
        self._trees: dict[str, Tree] = {}

    def cited(self) -> set[str]:
        return set(self.citers)

    def count(self, pid: str, cutoff: float = math.inf) -> int:
        return bisect_right(self._citer_years.get(pid, ()), cutoff)

    def tree(self, pid: str) -> Tree:
        tree = self._trees.get(pid)
        if tree is None:
            tree = self._trees[pid] = self._build(pid)
        return tree

    def _build(self, pid: str) -> Tree:
        cs = self.citers.get(pid, [])
        members = set(cs)
        cand = {v: sorted(self.refs.get(v, set()) & members) for v in cs}
        waiting = {v: len(cand[v]) for v in cs}
        dependents: dict[str, list[str]] = {}
        for v in cs:
            for u in cand[v]:
                dependents.setdefault(u, []).append(v)
        ready = [v for v in cs if not cand[v]]
        depth: dict[str, int] = {}
        while ready:
            w = ready.pop()
            depth[w] = 1 + max((depth[u] for u in cand[w]), default=0)
            for x in dependents.get(w, ()):
                waiting[x] -= 1
                if waiting[x] == 0:
                    ready.append(x)
        if len(depth) != len(cs):
            raise ValueError(f"citers of {pid!r} form a cycle")
        index = {v: i for i, v in enumerate(cs)}
        child_year = [math.inf] * len(cs)
        tie = False
        for v in cs:
            if not cand[v]:
                continue
            best = max(depth[u] for u in cand[v])
            top = [u for u in cand[v] if depth[u] == best]
            tie = tie or len(top) > 1
            i = index[top[0]]  # cand is sorted, so top[0] is the min-id parent
            child_year[i] = min(child_year[i], self.meta[v][0])
        return Tree(self._citer_years.get(pid, []), [depth[v] for v in cs], child_year, tie)

    def venue_groups(self) -> dict[tuple[str, int], list[str]]:
        groups: dict[tuple[str, int], list[str]] = {}
        for pid, (year, venue) in self.meta.items():
            if venue is not None:
                groups.setdefault((venue, year), []).append(pid)
        return groups

    def nid_at(self, pid: str, cutoff: float) -> float:
        n, _, _, idi = self.tree(pid).values(cutoff)
        return nid(n, idi)

    def z_scores(self, lo: int, hi: int, t1: int, t2: int):
        """Venue z scores for editions of [lo, hi]: ({(venue, year): (m, z_nid, z_cite)}, skipped)."""
        scored: dict[tuple[str, int], tuple[int, float, float]] = {}
        skipped: list[tuple[str, int]] = []
        for (venue, year), members in sorted(self.venue_groups().items()):
            if not lo <= year <= hi:
                continue
            c1 = {p: self.count(p, year + t1) for p in members}
            eligible = sorted(p for p in members if c1[p] > 0)
            if len(eligible) < 2:
                skipped.append((venue, year))
                continue
            gain = {p: (self.count(p, year + t2) - c1[p]) / c1[p] for p in eligible}
            by_gain = sorted(eligible, key=lambda p: (-gain[p], p))
            by_nid = sorted(eligible, key=lambda p: (self.nid_at(p, year + t1), p))
            by_cite = sorted(eligible, key=lambda p: (-c1[p], p))
            scored[(venue, year)] = (len(eligible), kendall(by_nid, by_gain), kendall(by_cite, by_gain))
        return scored, skipped

    def award_ranks(self, awardees, pct: float, horizon: int):
        """{awardee: (venue, year, cohort size, rank by citations, rank by NID)} and skipped ids."""
        groups = self.venue_groups()
        cases: dict[str, tuple[str, int, int, int, int]] = {}
        skipped: list[str] = []
        for pid, venue, year in sorted(set(awardees)):
            cohort = groups.get((venue, year), [])
            cutoff = year + horizon
            if pid not in cohort or self.count(pid, cutoff) == 0:
                skipped.append(pid)
                continue
            counts = {p: self.count(p, cutoff) for p in cohort}
            top = sorted(cohort, key=lambda p: (-counts[p], p))[: math.ceil(pct * len(cohort))]
            rivals = [p for p in top if counts[p] > 0]
            if pid not in rivals:
                rivals.append(pid)
            by_cite = sorted(rivals, key=lambda p: (-counts[p], p))
            by_nid = sorted(rivals, key=lambda p: (self.nid_at(p, cutoff), p))
            cases[pid] = (venue, year, len(cohort), by_cite.index(pid) + 1, by_nid.index(pid) + 1)
        return cases, skipped
