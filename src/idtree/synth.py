"""Synthetic trees, corpora, and brute-force oracles.

Everything here is deterministic given a seed.  Shape builders return a
dispersion tree together with a minimal citation corpus that reproduces it
exactly when run back through `build_idg` + `build_idt`: every citer cites
the root paper plus its tree parent, and years increase with depth, so the
reconstruction never faces a depth tie.

`enumerate_trees` streams every rooted tree with n non-root nodes up to
isomorphism and backs the exact bound checks; `random_parent_matrix` plus
`parent_matrix_stats` give a vectorized bulk sampler for statistical bound
checks at sizes where building trees one by one would be too slow.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .corpus import CitationCorpus, PaperRecord, ingest
from .tree import InfluenceTree, tree_from_parent_map

ENUMERATION_CAP = 9

SHAPE_KINDS = ("star", "chain", "broom", "ideal", "random")


def _node_ids(n: int) -> list[str]:
    width = max(2, len(str(n)))
    return [f"v{i:0{width}d}" for i in range(1, n + 1)]


def star_tree(n: int, root: str = "P") -> InfluenceTree:
    """All n citers attached directly to the root: depth 1, breadth n."""
    if n < 1:
        raise ValueError("star needs n >= 1")
    return tree_from_parent_map(root, {v: root for v in _node_ids(n)})


def chain_tree(n: int, root: str = "P") -> InfluenceTree:
    """Single unified branch of length n: depth n, breadth 1."""
    if n < 1:
        raise ValueError("chain needs n >= 1")
    ids = _node_ids(n)
    parent = {ids[0]: root}
    for prev, cur in itertools.pairwise(ids):
        parent[cur] = prev
    return tree_from_parent_map(root, parent)


def broom_tree(n: int, k: int | None = None, root: str = "P") -> InfluenceTree:
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
    ids = _node_ids(n)
    parent: dict[str, str] = {}
    prev = root
    for v in ids[:k]:
        parent[v] = prev
        prev = v
    for v in ids[k:]:
        parent[v] = prev
    return tree_from_parent_map(root, parent)


def ideal_branch_sizes(n: int) -> list[int]:
    """Unified branch lengths realizing depth = breadth = ceil(sqrt(n)).

    One branch carries the full depth k, the remaining k - 1 branches share
    the other nodes, each between 1 and k long.  Infeasible only for n = 2,
    where depth + breadth = 4 would exceed the n + 1 ceiling.
    """
    if n < 1:
        raise ValueError("ideal shape needs n >= 1")
    k = math.isqrt(n)
    if k * k < n:
        k += 1
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


def ideal_tree(n: int, k: int | None = None, r: int | None = None, root: str = "P") -> InfluenceTree:
    """Star of unified chains with depth = breadth = ceil(sqrt(n)).

    Pass `k` (branch length) and `r` (branch count) for an explicit k x r
    layout; then k * r must equal n.
    """
    if (k is None) != (r is None):
        raise ValueError("pass both k and r or neither")
    if k is not None:
        if n < 1 or k < 1 or r < 1 or k * r != n:
            raise ValueError(f"ideal layout {k}x{r} does not hold {n} nodes")
        sizes = [k] * r
    else:
        sizes = ideal_branch_sizes(n)
    ids = iter(_node_ids(n))
    parent: dict[str, str] = {}
    for size in sizes:
        prev = root
        for _ in range(size):
            v = next(ids)
            parent[v] = prev
            prev = v
    return tree_from_parent_map(root, parent)


def random_tree(n: int, rng: np.random.Generator, bias: float = 0.0, root: str = "P") -> InfluenceTree:
    """Random recursive tree; each node picks a parent among earlier nodes.

    `bias` > 0 weights candidates by (child count + 1) ** bias, producing
    bushier, heavier-tailed shapes; 0 is uniform attachment.
    """
    if n < 1:
        raise ValueError("random tree needs n >= 1")
    ids = [root] + _node_ids(n)
    child_counts = np.zeros(n + 1, dtype=np.float64)
    parent: dict[str, str] = {}
    for i in range(1, n + 1):
        if bias == 0.0:
            j = int(rng.integers(0, i))
        else:
            weights = (child_counts[:i] + 1.0) ** bias
            j = int(rng.choice(i, p=weights / weights.sum()))
        parent[ids[i]] = ids[j]
        child_counts[j] += 1
    return tree_from_parent_map(root, parent)


@dataclass(frozen=True)
class ShapeSpec:
    """Named tree shape: kind, node count, and kind-specific knobs."""

    kind: str
    n: int
    k: int | None = None
    r: int | None = None
    bias: float = 0.0
    seed: int | None = None


def make_shape(spec: ShapeSpec) -> InfluenceTree:
    if spec.kind == "star":
        return star_tree(spec.n)
    if spec.kind == "chain":
        return chain_tree(spec.n)
    if spec.kind == "broom":
        return broom_tree(spec.n, spec.k)
    if spec.kind == "ideal":
        return ideal_tree(spec.n, spec.k, spec.r)
    if spec.kind == "random":
        return random_tree(spec.n, np.random.default_rng(spec.seed or 0), spec.bias)
    raise ValueError(f"unknown shape kind {spec.kind!r}; expected one of {SHAPE_KINDS}")


def corpus_for_tree(tree: InfluenceTree) -> CitationCorpus:
    """Minimal corpus that rebuilds exactly this tree.

    The root is dated 2000.  Every citer cites the root and (when distinct)
    its parent, and is dated 2000 + depth, so parents always precede
    children and each citer has at most one in-tree candidate:
    reconstruction is tie-free.  No paper has a venue.
    """
    if not tree.parent:
        raise ValueError("cannot derive a corpus for an empty tree")
    records = [PaperRecord(tree.root, 2000)]
    edges: list[tuple[str, str]] = []
    for v in sorted(tree.parent):
        records.append(PaperRecord(v, 2000 + tree.depth[v]))
        edges.append((v, tree.root))
        if tree.parent[v] != tree.root:
            edges.append((v, tree.parent[v]))
    return CitationCorpus(records, edges)


def gen_shape(spec: ShapeSpec) -> tuple[InfluenceTree, CitationCorpus]:
    """Build a named shape plus a corpus that round-trips to it."""
    tree = make_shape(spec)
    return tree, corpus_for_tree(tree)


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
    corpus, report = ingest(edges, records)
    assert report.edges_kept == len(edges)
    return corpus


# ---------------------------------------------------------------------------
# Exhaustive enumeration of rooted trees up to isomorphism.
# ---------------------------------------------------------------------------

_FORM_CACHE: dict[int, tuple] = {1: ((),)}
_FORM_SIZE: dict[tuple, int] = {(): 1}


def _form_size(form: tuple) -> int:
    if form not in _FORM_SIZE:
        _FORM_SIZE[form] = 1 + sum(_form_size(child) for child in form)
    return _FORM_SIZE[form]


def _forms(total_nodes: int) -> tuple:
    """Canonical forms (sorted child tuples) of rooted trees of this size."""
    if total_nodes in _FORM_CACHE:
        return _FORM_CACHE[total_nodes]
    items: list[tuple[int, tuple]] = []
    for size in range(total_nodes - 1, 0, -1):
        for form in _forms(size):
            items.append((size, form))
    items.sort(key=lambda t: (-t[0], t[1]))
    out: list[tuple] = []

    def rec(budget: int, start: int, acc: list[tuple]) -> None:
        if budget == 0:
            out.append(tuple(sorted(acc)))
            return
        for i in range(start, len(items)):
            size, form = items[i]
            if size <= budget:
                acc.append(form)
                rec(budget - size, i, acc)
                acc.pop()

    rec(total_nodes - 1, 0, [])
    result = tuple(sorted(set(out)))
    _FORM_CACHE[total_nodes] = result
    return result


def _tree_from_form(form: tuple, root: str = "P") -> InfluenceTree:
    n = _form_size(form) - 1
    ids = iter(_node_ids(n))
    parent: dict[str, str] = {}

    def walk(node_form: tuple, parent_id: str) -> None:
        for child in node_form:
            v = next(ids)
            parent[v] = parent_id
            walk(child, v)

    walk(form, root)
    return tree_from_parent_map(root, parent)


def count_tree_shapes(n: int) -> int:
    """Number of rooted trees with n non-root nodes, up to isomorphism."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return len(_forms(n + 1))


def enumerate_trees(n: int, cap: int = ENUMERATION_CAP):
    """Yield every rooted tree with n non-root nodes, one per iso class."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > cap:
        raise ValueError(f"enumeration requested for n={n} above cap {cap}")
    for form in _forms(n + 1):
        yield _tree_from_form(form)


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


def tree_from_parent_row(row: np.ndarray, root: str = "P") -> InfluenceTree:
    """Materialize one parent-matrix row as a real tree object."""
    n = len(row) - 1
    ids = [root] + _node_ids(n)
    parent = {ids[i]: ids[int(row[i])] for i in range(1, n + 1)}
    return tree_from_parent_map(root, parent)


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
    which is what gives dispersion trees their depth.  Papers that end up
    with no links are dropped, as in any ingested corpus.
    """
    if n_papers < 1:
        raise ValueError("n_papers must be >= 1")
    if not 0.0 <= bias <= 1.0:
        raise ValueError("bias must be in [0, 1]")
    if not 0.0 <= followup <= 1.0:
        raise ValueError("followup must be in [0, 1]")
    rng = np.random.default_rng(seed)
    width = len(str(n_papers - 1)) if n_papers > 1 else 1
    year_lo, year_hi = years
    paper_years = rng.integers(year_lo, year_hi + 1, size=n_papers)
    series = rng.integers(0, 20, size=n_papers)   # venue series S000..S019
    ref_counts = rng.poisson(mean_refs, size=n_papers)
    ids = [f"p{i:0{width}d}" for i in range(n_papers)]
    records = [
        PaperRecord(ids[i], int(paper_years[i]), f"S{series[i]:03d}-{paper_years[i]}")
        for i in range(n_papers)
    ]

    by_year: dict[int, list[int]] = {}
    for i in range(n_papers):
        by_year.setdefault(int(paper_years[i]), []).append(i)

    edges: list[tuple[str, str]] = []
    pool: list[int] = []            # indices of papers in strictly earlier years
    pool_set: set[int] = set()
    weighted: list[int] = []        # pool indices, one entry per citation + 1
    citers_of: dict[int, list[int]] = defaultdict(list)
    for year in sorted(by_year):
        members = sorted(by_year[year], key=lambda i: ids[i])
        for i in members:
            k = min(int(ref_counts[i]), len(pool))
            cited: set[int] = set()
            attempts = 0
            while len(cited) < k and attempts < 20 * k:
                attempts += 1
                if bias > 0 and rng.random() < bias:
                    target = weighted[int(rng.integers(0, len(weighted)))]
                else:
                    target = pool[int(rng.integers(0, len(pool)))]
                if target in cited:
                    continue
                cited.add(target)
                if followup > 0.0 and citers_of[target] and rng.random() < followup:
                    candidates = citers_of[target]
                    for _ in range(8):
                        c = candidates[int(rng.integers(0, len(candidates)))]
                        if c in pool_set and c not in cited:
                            cited.add(c)
                            break
            for target in sorted(cited):
                edges.append((ids[i], ids[target]))
                weighted.append(target)
                citers_of[target].append(i)
        pool.extend(members)
        pool_set.update(members)
        weighted.extend(members)

    corpus, _ = ingest(edges, records)
    return corpus


# ---------------------------------------------------------------------------
# Planted benchmarks with a known shape/citation-gain relationship.
# ---------------------------------------------------------------------------

def _attach_tree_citers(
    records: list[PaperRecord],
    edges: list[tuple[str, str]],
    paper_id: str,
    tree: InfluenceTree,
    pub_year: int,
) -> None:
    # Citer of depth l is published pub_year + l; id namespaced per paper.
    names = {tree.root: paper_id}
    for v in sorted(tree.parent):
        names[v] = f"{paper_id}.c{v}"
    for v in sorted(tree.parent):
        cid = names[v]
        records.append(PaperRecord(cid, pub_year + tree.depth[v]))
        edges.append((cid, paper_id))
        if tree.parent[v] != tree.root:
            edges.append((cid, names[tree.parent[v]]))


def make_z_benchmark(
    seed: int = 0,
    n_venues: int = 8,
    papers_per_venue: int = 24,
    base_citers: int = 9,
    t1: int = 5,
    t2: int = 10,
    years: tuple[int, int] = (1995, 2000),
    burst_good: int = 18,
    burst_poor: int = 5,
) -> CitationCorpus:
    """Planted corpus where tree shape at t1 predicts later citation gains.

    Every venue paper has exactly `base_citers` citations at year + t1, so
    citation counts carry no signal.  Half of each venue (chosen by a
    seeded shuffle) has an ideal-shaped tree and receives `burst_good` new
    citations in (t1, t2]; the other half has a maximally fragmented broom
    tree and receives only `burst_poor`.  A shape-aware ranking therefore
    matches the future-gain ranking, while a citation ranking is noise.
    """
    if base_citers < 3:
        raise ValueError("base_citers must be >= 3 so shapes differ")
    rng = np.random.default_rng(seed)
    good_shape = ideal_tree(base_citers)
    poor_shape = broom_tree(base_citers, k=t1 - 1)
    if max(good_shape.depth.values()) > t1 or max(poor_shape.depth.values()) > t1:
        raise ValueError("shape depth exceeds t1; citers would be invisible at t1")
    records: list[PaperRecord] = []
    edges: list[tuple[str, str]] = []
    span = years[1] - years[0] + 1
    for j in range(n_venues):
        year = years[0] + j % span
        venue = f"BM{j:02d}-{year}"
        half = papers_per_venue // 2
        flags = np.array([True] * half + [False] * (papers_per_venue - half))
        rng.shuffle(flags)
        for idx in range(papers_per_venue):
            pid = f"{venue}.p{idx:02d}"
            good = bool(flags[idx])
            records.append(PaperRecord(pid, year, venue))
            _attach_tree_citers(records, edges, pid, good_shape if good else poor_shape, year)
            burst = burst_good if good else burst_poor
            for b_idx in range(burst):
                bid = f"{pid}.x{b_idx:02d}"
                records.append(PaperRecord(bid, year + t1 + 1 + b_idx % (t2 - t1)))
                edges.append((bid, pid))
    corpus, _ = ingest(edges, records)
    return corpus


def make_tot_benchmark(
    seed: int = 0,
    year: int = 1998,
    cohort_size: int = 40,
) -> tuple[CitationCorpus, list[tuple[str, str, int]]]:
    """Four award cohorts with known citation and shape ranks.

    In two venues the awardee is both the top-cited paper and the only one
    with an ideal tree; in the other two a fragmented rival out-cites it.
    Citation-rank sequence is [1, 1, 2, 2], shape-rank is [1, 1, 1, 1].
    """
    del seed  # layout is fully deterministic; kept for interface symmetry
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
        _attach_tree_citers(records, edges, awardee, ideal_tree(awardee_n), year)
        records.append(PaperRecord(rival, year, venue))
        _attach_tree_citers(records, edges, rival, broom_tree(rival_n, k=9), year)
        for f_idx in range(cohort_size - 2):
            pid = f"{venue}.f{f_idx:02d}"
            records.append(PaperRecord(pid, year, venue))
            _attach_tree_citers(records, edges, pid, star_tree(2 + f_idx % 9), year)
        awardees.append((awardee, venue, year))
    corpus, _ = ingest(edges, records)
    return corpus, awardees
