"""Synthetic trees, corpora, and brute-force oracles.

Everything here is deterministic given a seed.  Shape builders return a
dispersion tree rooted at paper "P", built from its preorder level
sequence (the level of each citer, in preorder).  `_plant` is the one rule
that puts a tree's citers into a corpus so that `build_idg` + `build_idt`
rebuild it exactly, for `corpus_for_tree` and the planted benchmarks alike.
Every fixture goes through the checked constructor
`CitationCorpus(records, edges)`, which refuses anything `ingest` would drop.

`enumerate_trees` streams every rooted tree with n non-root nodes up to
isomorphism, stepping through the canonical level sequences with the
successor rule of Beyer & Hedetniemi (1980), and backs the exact bound
checks; `random_parent_matrix` plus `parent_matrix_stats` give a
vectorized bulk sampler for statistical bound checks at sizes where
building trees one by one would be too slow.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from .corpus import YEAR_MAX, YEAR_MIN, CitationCorpus, IngestReport, PaperRecord, _clean
from .metrics import optimal_shape
from .tree import InfluenceTree, tree_from_parent_map

ENUMERATION_CAP = 9


def _node_ids(n: int) -> list[str]:
    width = max(2, len(str(n)))
    return [f"v{i:0{width}d}" for i in range(1, n + 1)]


def _levels_tree(levels: list[int]) -> InfluenceTree:
    """Tree whose citers, named v01, v02, ... in preorder, sit at these levels.

    Each citer hangs under the last citer placed one level up, or under the
    root "P" when it is at level 1.
    """
    last = ["P"]   # last[l] is the latest node placed at level l
    parent: dict[str, str] = {}
    for v, level in zip(_node_ids(len(levels)), levels):
        parent[v] = last[level - 1]
        del last[level:]
        last.append(v)
    return tree_from_parent_map("P", parent)


def star_tree(n: int) -> InfluenceTree:
    """All n citers attached directly to the root: depth 1, breadth n."""
    if n < 1:
        raise ValueError("star needs n >= 1")
    return _levels_tree([1] * n)


def chain_tree(n: int) -> InfluenceTree:
    """Single unified branch of length n: depth n, breadth 1."""
    if n < 1:
        raise ValueError("chain needs n >= 1")
    return _levels_tree(list(range(1, n + 1)))


def broom_tree(n: int, k: int | None = None) -> InfluenceTree:
    """Chain of k nodes whose last node fans out into the remaining n - k.

    With k ~ (n-1)/2 this shape attains the IDI maximum; k = 0 degenerates
    to a star and k = n - 1 to a chain.
    """
    if n < 1:
        raise ValueError("broom needs n >= 1")
    if k is None:
        k = (n - 1) // 2
    if not 0 <= k <= n - 1:
        raise ValueError(f"broom handle length must be in [0, {n - 1}], got {k}")
    return _levels_tree(list(range(1, k + 1)) + [k + 1] * (n - k))


def ideal_branch_sizes(n: int) -> list[int]:
    """Unified branch lengths realizing depth = breadth = ceil(sqrt(n)).

    One branch carries the full depth k, the remaining k - 1 branches share
    the other nodes, each between 1 and k long.  Infeasible only for n = 2,
    where depth + breadth = 4 would exceed the n + 1 ceiling.
    """
    if n < 1:
        raise ValueError("ideal shape needs n >= 1")
    k = optimal_shape(n)[0]
    if n == 1:
        return [1]
    if n < 2 * k - 1:
        raise ValueError(f"no equal depth/breadth layout exists for n={n}")
    sizes = [k] + [1] * (k - 1)
    remaining = n - sum(sizes)
    for i in range(1, k):
        grow = min(k - sizes[i], remaining)
        sizes[i] += grow
        remaining -= grow
    assert remaining == 0 and sum(sizes) == n
    return sizes


def ideal_tree(n: int) -> InfluenceTree:
    """Star of unified chains with depth = breadth = ceil(sqrt(n))."""
    return _levels_tree([level for size in ideal_branch_sizes(n) for level in range(1, size + 1)])


def _plant(
    records: list[PaperRecord],
    edges: list[tuple[str, str]],
    paper_id: str,
    tree: InfluenceTree,
    pub_year: int,
    prefix: str,
) -> None:
    """Add the citers of `tree` under paper `paper_id`, each citer v named `prefix + v`.

    A citer of depth l is dated pub_year + l and cites the paper and, where
    they differ, its tree parent: parents precede children and each citer
    has at most one in-tree candidate, so the rebuilt tree is tie-free.
    """
    for v in sorted(tree.parent):
        records.append(PaperRecord(prefix + v, pub_year + tree.depth[v]))
        edges.append((prefix + v, paper_id))
        if tree.parent[v] != tree.root:
            edges.append((prefix + v, prefix + tree.parent[v]))


def corpus_for_tree(tree: InfluenceTree) -> CitationCorpus:
    """Minimal corpus that rebuilds exactly this tree: the root dated 2000 and
    its citers planted under their own ids.  No paper has a venue."""
    if not tree.parent:
        raise ValueError("cannot derive a corpus for an empty tree")
    records = [PaperRecord(tree.root, 2000)]
    edges: list[tuple[str, str]] = []
    _plant(records, edges, tree.root, tree, 2000, "")
    return CitationCorpus(records, edges)


def toy_corpus() -> CitationCorpus:
    """Six-paper walkthrough corpus: P plus five citers p1..p5.

    p1 and p2 cite only P; p3 also cites p1; p4 also cites p1 and p2
    (a depth tie between two level-1 parents); p5 also cites p2 and p3.
    """
    records = [
        PaperRecord("P", 2000, "TOY-2000"),
        PaperRecord("p1", 2001),
        PaperRecord("p2", 2001),
        PaperRecord("p3", 2002),
        PaperRecord("p4", 2003),
        PaperRecord("p5", 2004),
    ]
    edges = [
        ("p1", "P"),
        ("p2", "P"),
        ("p3", "P"), ("p3", "p1"),
        ("p4", "P"), ("p4", "p1"), ("p4", "p2"),
        ("p5", "P"), ("p5", "p2"), ("p5", "p3"),
    ]
    return CitationCorpus(records, edges)


# ---------------------------------------------------------------------------
# Exhaustive enumeration of rooted trees up to isomorphism.
# ---------------------------------------------------------------------------

def enumerate_trees(n: int):
    """Yield every rooted tree with n non-root nodes, one per iso class.

    The trees come in the order of Beyer & Hedetniemi, "Constant time
    generation of rooted trees" (SIAM J. Comput. 9(4), 1980): their
    canonical preorder level sequences in decreasing lexicographic order,
    from the chain 1..n down to the star.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > ENUMERATION_CAP:
        raise ValueError(f"enumeration requested for n={n} above cap {ENUMERATION_CAP}")
    levels = list(range(1, n + 1))
    while True:
        yield _levels_tree(levels)
        # p: the last citer not under the root; q: the last citer before it one level up
        p = max((i for i in range(n) if levels[i] > 1), default=None)
        if p is None:
            return
        q = max(i for i in range(p) if levels[i] == levels[p] - 1)
        for i in range(p, n):
            levels[i] = levels[i - (p - q)]


# ---------------------------------------------------------------------------
# Vectorized bulk sampling of random trees for statistical bound checks.
# ---------------------------------------------------------------------------

def random_parent_matrix(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` random trees as parent arrays: entry [t, i] is node i's parent.

    Node 0 is the root; node i >= 1 picks its parent uniformly among nodes
    0..i-1 (column 0 is a placeholder and always 0).
    """
    parents = np.zeros((count, n + 1), dtype=np.int32)
    for i in range(2, n + 1):
        parents[:, i] = rng.integers(0, i, size=count, dtype=np.int32)
    return parents


def parent_matrix_stats(parents: np.ndarray) -> dict[str, np.ndarray]:
    """Depth, breadth, and IDI per tree row of a parent matrix."""
    count, width = parents.shape
    n = width - 1
    rows = np.arange(count)
    depth = np.zeros((count, n + 1), dtype=np.int32)
    for i in range(1, n + 1):
        depth[:, i] = depth[rows, parents[:, i]] + 1
    d = depth[:, 1:].max(axis=1)
    flat = depth[:, 1:] + rows[:, None] * (n + 1)
    level_counts = np.bincount(flat.ravel(), minlength=count * (n + 1)).reshape(count, n + 1)
    b = level_counts[:, 1:].max(axis=1)
    is_parent = np.zeros((count, n + 1), dtype=bool)
    for i in range(1, n + 1):
        is_parent[rows, parents[:, i]] = True
    leaf_mask = ~is_parent[:, 1:]
    idi_values = (depth[:, 1:] * leaf_mask).sum(axis=1)
    return {"depth": d, "breadth": b, "idi": idi_values}


# ---------------------------------------------------------------------------
# Random citation corpora.
# ---------------------------------------------------------------------------

def gen_random_corpus(
    n_papers: int,
    years: tuple[int, int] = (1980, 2010),
    mean_refs: float = 3.0,
    bias: float = 0.0,
    followup: float = 0.0,
    seed: int = 0,
) -> CitationCorpus:
    """Random acyclic corpus: papers get uniform years and cite older work.

    References only ever point to strictly earlier years, so the result is
    acyclic by construction.  `bias` in [0, 1] mixes uniform target choice
    with citation-proportional preferential attachment.  `followup` is the
    probability that citing a paper also cites one of its earlier citers,
    which is what gives dispersion trees their depth.  Paper i is named
    ``p{i}`` zero-padded and sits in venue ``S{series}-{year}``.  The papers
    and citations then go through ingest's own cleaning, which drops the
    papers that end up with no links and numbers the rows and venues.
    """
    if n_papers < 1:
        raise ValueError("n_papers must be >= 1")
    if not 0.0 <= bias <= 1.0:
        raise ValueError("bias must be in [0, 1]")
    if not 0.0 <= followup <= 1.0:
        raise ValueError("followup must be in [0, 1]")
    if not YEAR_MIN <= years[0] <= years[1] <= YEAR_MAX:
        raise ValueError(f"years must be an int32 range LO <= HI, got {years}")
    rng = np.random.default_rng(seed)
    width = len(str(n_papers - 1)) if n_papers > 1 else 1
    year_lo, year_hi = years
    paper_years = rng.integers(year_lo, year_hi + 1, size=n_papers)
    series = rng.integers(0, 20, size=n_papers)   # venue series S000..S019
    ref_counts = rng.poisson(mean_refs, size=n_papers)

    # Papers draw in order of year, then of index, which is the order of their ids.
    # Each one's pool is the papers of strictly earlier years: a prefix of that order.
    order = np.argsort(paper_years, kind="stable")
    pool, sizes = order.tolist(), np.searchsorted(paper_years[order], paper_years[order]).tolist()
    year_of, counts = paper_years.tolist(), ref_counts.tolist()
    ends: list[int] = []            # citing and cited index of each citation, interleaved
    weighted: list[int] = []        # pool indices, one entry per citation + 1
    grown = 0                       # how much of the pool `weighted` holds
    citers_of: dict[int, list[int]] = defaultdict(list)
    for i, size in zip(pool, sizes):
        weighted += pool[grown:size]
        grown = size
        k = min(counts[i], size)
        cited: set[int] = set()
        attempts = 0
        while len(cited) < k and attempts < 20 * k:
            attempts += 1
            if bias > 0 and rng.random() < bias:
                target = weighted[int(rng.integers(0, len(weighted)))]
            else:
                target = pool[int(rng.integers(0, size))]
            if target in cited:
                continue
            cited.add(target)
            if followup > 0.0 and citers_of[target] and rng.random() < followup:
                candidates = citers_of[target]
                for _ in range(8):
                    c = candidates[int(rng.integers(0, len(candidates)))]
                    if year_of[c] < year_of[i] and c not in cited:
                        cited.add(c)
                        break
        for target in sorted(cited):
            ends += i, target
            weighted.append(target)
            citers_of[target].append(i)

    span = year_hi - year_lo + 1
    keys, venues = np.unique(series * span + paper_years - year_lo, return_inverse=True)
    names = [f"S{key // span:03d}-{key % span + year_lo}" for key in keys.tolist()]
    ids = [f"p{i:0{width}d}" for i in range(n_papers)]
    read = IngestReport(), ids, paper_years.astype(np.int32), venues.ravel(), names, np.array(ends, np.int32)
    _, arrays = _clean(read, prune=True)
    return CitationCorpus._from_arrays(*arrays)


# ---------------------------------------------------------------------------
# Planted benchmarks with a known shape/citation-gain relationship.
# ---------------------------------------------------------------------------

def make_z_benchmark(seed: int = 0, t1: int = 5, t2: int = 10) -> CitationCorpus:
    """Planted corpus where tree shape at t1 predicts later citation gains.

    Eight venues, one per year from 1995 (1995 and 1996 twice), hold 24
    papers each, and every one of them has exactly 9 citations at year + t1,
    so citation counts carry no signal.  Half of each venue (chosen by a
    seeded shuffle) has an ideal-shaped tree and receives 18 new citations
    in (t1, t2]; the other half has a maximally fragmented broom tree and
    receives only 5.  A shape-aware ranking therefore matches the
    future-gain ranking, while a citation ranking is noise.
    """
    rng = np.random.default_rng(seed)
    good_shape = ideal_tree(9)
    poor_shape = broom_tree(9, k=t1 - 1)
    if max(good_shape.depth.values()) > t1 or max(poor_shape.depth.values()) > t1:
        raise ValueError("shape depth exceeds t1; citers would be invisible at t1")
    records: list[PaperRecord] = []
    edges: list[tuple[str, str]] = []
    for j in range(8):
        year = 1995 + j % 6
        venue = f"BM{j:02d}-{year}"
        flags = np.array([True] * 12 + [False] * 12)
        rng.shuffle(flags)
        for idx in range(24):
            pid = f"{venue}.p{idx:02d}"
            good = bool(flags[idx])
            records.append(PaperRecord(pid, year, venue))
            _plant(records, edges, pid, good_shape if good else poor_shape, year, f"{pid}.c")
            for b_idx in range(18 if good else 5):
                bid = f"{pid}.x{b_idx:02d}"
                records.append(PaperRecord(bid, year + t1 + 1 + b_idx % (t2 - t1)))
                edges.append((bid, pid))
    return CitationCorpus(records, edges)


def make_tot_benchmark() -> tuple[CitationCorpus, list[tuple[str, str, int]]]:
    """Four award cohorts of 40 papers from 1998 with known citation and shape ranks.

    In two venues the awardee is both the top-cited paper and the only one
    with an ideal tree; in the other two a fragmented rival out-cites it.
    Citation-rank sequence is [1, 1, 2, 2], shape-rank is [1, 1, 1, 1].
    """
    year = 1998
    records: list[PaperRecord] = []
    edges: list[tuple[str, str]] = []
    awardees: list[tuple[str, str, int]] = []
    for j in range(4):
        venue = f"TT{j}-{year}"
        awardee = f"{venue}.award"
        rival = f"{venue}.rival"
        awardee_first = j < 2
        awardee_n = 30 if awardee_first else 20
        rival_n = 20 if awardee_first else 30
        records.append(PaperRecord(awardee, year, venue))
        _plant(records, edges, awardee, ideal_tree(awardee_n), year, f"{awardee}.c")
        records.append(PaperRecord(rival, year, venue))
        _plant(records, edges, rival, broom_tree(rival_n, k=9), year, f"{rival}.c")
        for f_idx in range(38):
            pid = f"{venue}.f{f_idx:02d}"
            records.append(PaperRecord(pid, year, venue))
            _plant(records, edges, pid, star_tree(2 + f_idx % 9), year, f"{pid}.c")
        awardees.append((awardee, venue, year))
    return CitationCorpus(records, edges), awardees
