"""IDI, its analytical bounds, and the NID metric."""

import dataclasses
import gc
import json
import pickle
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idtree import corpus as corpus_mod
from idtree import metrics as metrics_mod
from idtree.corpus import CitationCorpus, CorpusError, PaperRecord, write_csv
from idtree.experiments import write_scatter_csv
from idtree.metrics import (
    corpus_metrics,
    idi,
    idi_max,
    idi_min,
    nid,
    nid_value,
    optimal_shape,
    paper_metrics,
    write_metrics_csv,
)
from idtree.synth import (
    broom_tree,
    chain_tree,
    enumerate_trees,
    gen_random_corpus,
    ideal_tree,
    random_parent_matrix,
    star_tree,
    toy_corpus,
)
from idtree.tree import InfluenceTree, tree_stats
from reference import tree_from_parent_map, tree_from_parent_row

# Expected extremes from exhaustive enumeration over all rooted trees with
# n non-root nodes (frozen; re-derived by the enumeration oracle below).
ENUMERATED_EXTREMES = {4: (4, 6), 5: (5, 9), 6: (6, 12)}


class TestEnumerationOracle:
    @pytest.mark.parametrize("n,expected", sorted(ENUMERATED_EXTREMES.items()))
    def test_frozen_extremes_match_exhaustive_scan(self, n, expected):
        values = [idi(tree) for tree in enumerate_trees(n)]
        assert (min(values), max(values)) == expected

    def test_formulas_match_enumeration(self):
        for n in range(1, 8):
            values = [idi(tree) for tree in enumerate_trees(n)]
            assert min(values) == idi_min(n)
            assert max(values) == idi_max(n)


class TestIdi:
    def test_toy_tie_to_p2_value(self, toy):
        from idtree.tree import build_idg, build_idt

        tree = build_idt(
            build_idg(toy, "P"), tie="random", rng=np.random.default_rng([1] + list(b"P"))
        )
        assert idi(tree) == 5

    def test_toy_min_id_tree_value(self, toy):
        from idtree.tree import build_idg, build_idt

        # the deterministic tie pick leaves p2 a leaf, adding one branch
        assert idi(build_idt(build_idg(toy, "P"))) == 6

    def test_star_and_chain(self):
        assert idi(star_tree(6)) == 6
        assert idi(chain_tree(6)) == 6

    def test_empty_tree(self):
        assert idi(InfluenceTree("P", {}, {"P": 0})) == 0


class TestBounds:
    def test_idi_max_values(self):
        assert idi_max(1) == 1
        assert idi_max(2) == 2
        assert idi_max(4) == 6
        assert idi_max(5) == 9

    def test_idi_max_rounding_symmetry(self):
        # (1 + k)(n - k) is symmetric about (n - 1) / 2; both roundings agree
        for n in range(1, 2001):
            k_lo = (n - 1) // 2
            k_hi = n - 1 - k_lo
            assert (1 + k_lo) * (n - k_lo) == (1 + k_hi) * (n - k_hi) == idi_max(n)

    def test_idi_min_values(self):
        assert idi_min(5) == 5
        assert idi_min(1) == 1
        assert min(idi(t) for t in enumerate_trees(6)) == idi_min(6)

    def test_bounds_ordering(self):
        for n in range(1, 200):
            assert idi_max(n) >= idi_min(n) == n
            assert (idi_max(n) == idi_min(n)) == (n <= 2)

    @pytest.mark.parametrize("fn", [idi_min, idi_max, optimal_shape])
    def test_domain_errors(self, fn):
        for bad in (0, -1):
            with pytest.raises(ValueError):
                fn(bad)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 60), st.integers(0, 10_000))
    def test_random_trees_within_bounds(self, n, seed):
        tree = tree_from_parent_row(random_parent_matrix(n, 1, np.random.default_rng(seed))[0])
        value = idi(tree)
        assert idi_min(n) <= value <= idi_max(n)
        assert 0.0 <= nid_value(n, value) <= 1.0


class TestOptimalShape:
    def test_perfect_square(self):
        assert optimal_shape(9) == (3, 3)
        assert optimal_shape(1) == (1, 1)

    def test_non_square_matches_constrained_brute_force(self):
        # Minimize d*b - n over equal (d, b) pairs subject to d + b <= n + 1
        # and d*b >= n; n = 2 admits no such pair and is checked separately.
        def brute(n):
            feasible = [k for k in range(1, n + 1) if k * k >= n and 2 * k <= n + 1]
            return min(feasible, key=lambda k: k * k - n) if feasible else None

        assert optimal_shape(10) == (4, 4) == (brute(10), brute(10))
        for n in range(3, 150):
            assert brute(n) == optimal_shape(n)[0]
        assert brute(1) == 1
        assert brute(2) is None

    def test_generated_ideal_tree_realizes_shape(self):
        for n in (3, 9, 10, 16, 37):
            stats = tree_stats(ideal_tree(n))
            assert (stats.depth, stats.breadth) == optimal_shape(n)


class TestIdealIdi:
    def test_returns_n(self):
        # wherever the ideal layout exists, its IDI is the lower bound n
        for n in [1] + list(range(3, 60)):
            assert idi(ideal_tree(n)) == idi_min(n) == n

    def test_constructed_ideal_trees_attain_it(self):
        for n in (9, 16):
            tree = ideal_tree(n)
            assert idi(tree) == idi_min(n) == n
            assert nid(tree) == 0.0


class TestDivergence:
    def test_star_and_chain_are_ideal(self):
        for tree in (star_tree(8), chain_tree(8)):
            assert nid(tree) == 0.0

    def test_toy_tie_to_p2_tree(self, toy):
        report = paper_metrics(toy, "P", tie="random", seed=1)
        assert report.divergence == 0
        assert report.nid == 0.0

    def test_broom_attains_maximum(self):
        tree = broom_tree(5, k=2)
        assert idi(tree) == 9
        assert nid(tree) == 1.0

    def test_degenerate_denominator(self):
        assert nid(star_tree(2)) == 0.0
        assert nid(chain_tree(2)) == 0.0
        assert nid(star_tree(1)) == 0.0

    def test_empty_tree_conventions(self):
        empty = InfluenceTree("P", {}, {"P": 0})
        with pytest.raises(CorpusError):
            nid(empty)

    def test_divergence_never_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            tree = tree_from_parent_row(random_parent_matrix(n, 1, rng)[0])
            assert idi(tree) >= n


class TestReconfigurationInvariance:
    """Moving a star's leaf edges under other leaves keeps IDI at n."""

    @staticmethod
    def _move(parent, node, target):
        updated = dict(parent)
        updated[node] = target
        return tree_from_parent_map("P", updated)

    @pytest.mark.parametrize("n", [2, 3, 7, 20])
    def test_star_to_line_canonical_sequence(self, n):
        tree = star_tree(n)
        ids = sorted(tree.parent)
        chain_end = ids[0]
        for node in ids[1:]:
            tree = self._move(tree.parent, node, chain_end)
            chain_end = node
            assert idi(tree) == n
        assert tree_stats(tree).depth == n  # ended as a full line

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_leaf_moves_preserve_idi(self, seed):
        rng = np.random.default_rng(seed)
        for n in (5, 12, 30):
            tree = star_tree(n)
            for _ in range(2 * n):
                root_leaves = [
                    v for v in tree.parent
                    if tree.parent[v] == "P" and v in tree.leaves()
                ]
                if not root_leaves:
                    break
                node = root_leaves[int(rng.integers(0, len(root_leaves)))]
                targets = [v for v in tree.leaves() if v != node] or ["P"]
                target = targets[int(rng.integers(0, len(targets)))]
                tree = self._move(tree.parent, node, target)
                assert idi(tree) == n


class TestReports:
    def test_toy_report_row(self, toy, tmp_path):
        result = corpus_metrics(toy, ["P"], tie="random", seed=1)
        assert list(result) == [paper_metrics(toy, "P", tie="random", seed=1)]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(result, path)
        assert path.read_bytes() == b"paper_id,n,d,b,idi,idi_min,idi_max,id,nid\nP,5,3,2,5,5,9,0,0.0\n"

    def test_tie_generator_made_only_on_a_tie(self, monkeypatch):
        # of the toy's cited papers only P has a depth tie (p4 under p1 or p2); a
        # fresh toy, since the session one may already hold P's seed-1 draws
        made = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: made.append(seed) or default_rng(seed))
        reports = corpus_metrics(toy_corpus(), tie="random", seed=1)
        assert len(reports) == 4
        assert made == [[1, *b"P"]]

    def test_uncited_paper_returns_none(self, toy):
        assert paper_metrics(toy.snapshot(2000), "P") is None

    def test_corpus_metrics_sorted_and_filtered(self, toy):
        reports = corpus_metrics(toy)
        assert [r.paper_id for r in reports] == ["P", "p1", "p2", "p3"]

    def test_parallel_matches_serial(self, tmp_path):
        corpus = gen_random_corpus(800, years=(1990, 2010), seed=5)
        serial = corpus_metrics(corpus, tie="random", seed=3, jobs=1)
        parallel = corpus_metrics(corpus, tie="random", seed=3, jobs=2)
        assert list(serial) == list(parallel)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics_csv(serial, a)
        write_metrics_csv(parallel, b)
        assert a.read_bytes() == b.read_bytes()


_CSV_IDS = st.text(alphabet=st.sampled_from(list('ab,"\n\r é日 \t')), min_size=1, max_size=6)
_NIDS = st.sampled_from([0.0, -0.0, 1.0, 0.1 + 0.2, 1 / 3, 2 / 3, 0.5, 1e-17, 0.1, 5e-324])
# small values, values spanning 2**31 or more, and int64's extremes
_INTS = st.integers(-3, 2**40) | st.integers(-2**63, 2**63 - 1) | st.sampled_from([-2**63, 2**63 - 1])


def _assert_column_writers_match(out, result):
    """Both writers that use the column writer, against csv.writer over the same rows."""
    write_metrics_csv(result, out / "metrics.csv")
    write_csv(out / "rows.csv", metrics_mod.CSV_HEADER, map(dataclasses.astuple, result))
    assert (out / "metrics.csv").read_bytes() == (out / "rows.csv").read_bytes()
    write_scatter_csv(result, out / "scatter.csv")
    write_csv(out / "scatter_rows.csv", ("paper_id", "n", "d", "b", "idi", "nid"),
              zip(result.paper_ids, *(c.tolist() for c in (result.n, result.depth, result.breadth,
                                                           result.idi, result.nid))))
    assert (out / "scatter.csv").read_bytes() == (out / "scatter_rows.csv").read_bytes()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_column_writer_matches_csv_writer(tmp_path_factory, data):
    # each row takes its (n, d, b, idi), its idi_max and its nid from three pools: small
    # pools repeat tails, and give rows equal in (n, d, b, idi) that differ in the rest
    size = data.draw(st.integers(0, 12))
    ids = sorted(data.draw(st.lists(_CSV_IDS, min_size=size, max_size=size, unique=True)))
    pools = [data.draw(st.lists(values, min_size=1, max_size=max(size, 1)))
             for values in (st.tuples(*[_INTS] * 4), _INTS, _NIDS | st.floats())]
    picks = data.draw(st.lists(st.tuples(*(st.sampled_from(pool) for pool in pools)), min_size=size, max_size=size))
    keys, hi, nid = zip(*picks) if picks else ((), (), ())
    result = metrics_mod.CorpusMetrics(ids, *np.array(keys, np.int64).reshape(size, 4).T,
                                       np.array(hi, np.int64), np.array(nid, np.float64))
    _assert_column_writers_match(tmp_path_factory.mktemp("csv"), result)


def test_column_writer_over_several_runs(tmp_path):
    # quoted ids on both sides of the first 16,384-row run boundary; 0.0 beside -0.0, int64's
    # extremes, and rows equal in (n, d, b, idi) that differ in idi_max or nid
    size = (1 << 14) + 100
    ids = [f"p{i:06d}" for i in range(size)]
    ids[(1 << 14) - 2:(1 << 14) + 2] = ['a,b', 'c"d', "e\nf", 'g\rh,"']
    rng = np.random.default_rng(7)
    n, depth, idi = (rng.integers(1, 4, size) for _ in range(3))
    breadth = rng.choice(np.array([1, 2, -2**63, 2**63 - 1]), size)
    hi = rng.choice(np.array([9, 10, 2**40]), size)
    nid = rng.choice(np.array([0.0, -0.0, 0.5, 1 / 3]), size)
    _assert_column_writers_match(tmp_path, metrics_mod.CorpusMetrics(ids, n, depth, breadth, idi, hi, nid))


def _per_paper(view, ids, tie, seed):
    reports = (paper_metrics(view, pid, tie=tie, seed=seed) for pid in sorted(set(ids)))
    return [r for r in reports if r is not None]


def _tied_ids(corpus, ids):
    """The ids, in id order, that `_edge_trees` flags with a depth tie when asked for `ids`."""
    wanted = np.zeros(len(corpus), bool)
    wanted[[corpus.row(pid) for pid in ids]] = True
    return [corpus.paper_ids[i] for i in np.flatnonzero(metrics_mod._edge_trees(corpus, wanted)[-1])]


def _assert_tie_flags(view, ids):
    """`_edge_trees` flags a depth tie exactly where the per-paper build draws one."""
    drawn = []
    default_rng = np.random.default_rng
    with mock.patch.object(np.random, "default_rng",
                           lambda seed=None: drawn.append(bytes(seed[1:]).decode()) or default_rng(seed)):
        _per_paper(view, ids, "random", 1)
    assert sorted(drawn) == _tied_ids(view, ids)


def _same_year_corpus(n_papers, n_years, density, seed):
    """An acyclic corpus where most citations stay within a year.

    `gen_random_corpus` cites strictly earlier years only.  Here each paper
    cites only papers before it in (year, position) order, and ids are
    shuffled so that this order is not the id order.
    """
    rng = np.random.default_rng(seed)
    years = np.sort(rng.integers(2000, 2000 + n_years, n_papers))
    ids = [f"q{k:02d}" for k in rng.permutation(n_papers)]
    citing, cited = np.nonzero(np.tril(rng.random((n_papers, n_papers)) < density, -1))
    return CitationCorpus([PaperRecord(pid, int(y)) for pid, y in zip(ids, years)],
                          [(ids[u], ids[v]) for u, v in zip(citing, cited)])


def _signature_corpus(shape, n_papers, n_years, density, seed):
    """An acyclic corpus on which the kernel's 64-bit row signatures are weakest.

    Ids sort in position order, so a paper's row is its position.  Each
    paper cites only papers before it, of its own year or earlier.
    "saturated": the last eight papers cite every paper before them, so
    with 72 or more papers their out-degree is at least 64 and every bit of
    their signatures is set.  "colliding": the papers of a few rows modulo
    64 draw most citations, so a citer's signature bit for a paper is often
    set by another paper of the same row modulo 64.
    """
    rng = np.random.default_rng(seed)
    years = np.sort(rng.integers(2000, 2000 + n_years, n_papers))
    ids = [f"s{k:03d}" for k in range(n_papers)]
    earlier = np.tril(np.ones((n_papers, n_papers), bool), -1)
    if shape == "saturated":
        cites = earlier & (rng.random((n_papers, n_papers)) < density)
        cites[-8:] = earlier[-8:]
    else:
        common = np.isin(np.arange(n_papers) % 64, rng.choice(64, rng.integers(1, 4), replace=False))
        cites = earlier & (rng.random((n_papers, n_papers)) < np.where(common, density, density / 16))
    citing, cited = np.nonzero(cites)
    return CitationCorpus([PaperRecord(pid, int(y)) for pid, y in zip(ids, years)],
                          [(ids[u], ids[v]) for u, v in zip(citing, cited)])


def _naive_edge_trees(corpus, rows):
    """`_edge_trees` by listing each paper's triangles with sets.

    Citer v of paper P has as candidate parents the citers of P that v
    cites; its depth is one more than its deepest candidate's, its parent
    the smallest-row candidate one level up, and two such candidates tie P.
    """
    ids = corpus.paper_ids
    refs = [{corpus.row(x) for x in corpus.references_of(pid)} for pid in ids]
    citations = sorted((v, p) for p in rows for v in range(len(ids)) if p in refs[v])
    index = {c: i for i, c in enumerate(citations)}
    depth, parent, tied = {}, {}, set()

    def deep(v, p):
        if (v, p) not in depth:
            candidates = [u for u in refs[v] if (u, p) in index]
            depth[v, p] = 1 + max((deep(u, p) for u in candidates), default=0)
            up = sorted(u for u in candidates if depth[u, p] == depth[v, p] - 1)
            parent[v, p] = index[up[0], p] if up else -1
            if len(up) > 1:
                tied.add(p)
        return depth[v, p]

    return [(v, p, deep(v, p), parent[v, p]) for v, p in citations], sorted(tied)


class TestDispersionKernel:
    """`corpus_metrics` scores all trees at once; `paper_metrics` is the oracle."""

    @settings(max_examples=25, deadline=None)
    @given(n_papers=st.integers(300, 800), corpus_seed=st.integers(0, 10_000), data=st.data())
    def test_matches_per_paper_trees(self, n_papers, corpus_seed, data):
        corpus = gen_random_corpus(n_papers, years=(1990, 2005), mean_refs=3, followup=0.5, seed=corpus_seed)
        subset = data.draw(st.lists(st.sampled_from(corpus.paper_ids), max_size=80))  # repeats allowed
        snapshot = corpus.snapshot(data.draw(st.integers(1990, 2005)))
        for view, requested in ((corpus, None), (snapshot, None), (corpus, subset)):
            ids = view.paper_ids if requested is None else requested
            for tie, seed in (("min-id", 0), ("random", 1), ("random", 2)):
                assert list(corpus_metrics(view, requested, tie=tie, seed=seed)) == _per_paper(view, ids, tie, seed)
            _assert_tie_flags(view, ids)

    @settings(max_examples=60, deadline=None)
    @given(n_papers=st.integers(2, 40), n_years=st.integers(1, 3), density=st.floats(0.05, 0.6),
           corpus_seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_same_year_citations_match_per_paper_trees(self, n_papers, n_years, density, corpus_seed, data):
        corpus = _same_year_corpus(n_papers, n_years, density, corpus_seed)
        subset = data.draw(st.lists(st.sampled_from(corpus.paper_ids), max_size=12))
        snapshot = corpus.snapshot(data.draw(st.integers(2000, 2000 + n_years - 1)))
        for view, requested in ((corpus, None), (snapshot, None), (corpus, subset)):
            ids_scored = view.paper_ids if requested is None else requested
            for tie, seed in (("min-id", 0), ("random", 1)):
                assert list(corpus_metrics(view, requested, tie=tie, seed=seed)) == _per_paper(
                    view, ids_scored, tie, seed)

    @settings(max_examples=12, deadline=None)
    @given(shape=st.sampled_from(["saturated", "colliding"]), n_papers=st.integers(72, 200),
           n_years=st.integers(1, 3), density=st.floats(0.05, 0.6), corpus_seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_weak_signatures_match_per_paper_trees(self, shape, n_papers, n_years, density, corpus_seed, data):
        # more than 64 papers, so the kernel's 64-bit signatures are full or collide
        corpus = _signature_corpus(shape, n_papers, n_years, density, corpus_seed)
        if shape == "saturated":
            assert max(len({corpus.row(x) % 64 for x in corpus.references_of(pid)}) for pid in corpus.paper_ids) == 64
        subset = data.draw(st.lists(st.sampled_from(corpus.paper_ids), max_size=30))
        for requested in (None, subset):
            ids = corpus.paper_ids if requested is None else requested
            for tie, seed in (("min-id", 0), ("random", 1)):
                assert list(corpus_metrics(corpus, requested, tie=tie, seed=seed)) == _per_paper(
                    corpus, ids, tie, seed)
            _assert_tie_flags(corpus, ids)

    @settings(max_examples=30, deadline=None)
    @given(shape=st.sampled_from(["random", "same-year", "saturated"]), n_papers=st.integers(2, 120),
           n_years=st.integers(1, 3), density=st.floats(0.05, 0.6), corpus_seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_scores_do_not_depend_on_earlier_requests(self, shape, n_papers, n_years, density, corpus_seed, data):
        # the per-corpus score memo keeps a paper's min-id scores from whichever
        # request built or extended it, so each call must match a fresh corpus
        if shape == "random":
            corpus = gen_random_corpus(n_papers, years=(1990, 2005), mean_refs=3, followup=0.5,
                                       seed=corpus_seed % 10_000)
        elif shape == "same-year":
            corpus = _same_year_corpus(min(n_papers, 40), n_years, density, corpus_seed)
        else:
            corpus = _signature_corpus(shape, max(n_papers, 72), n_years, density, corpus_seed)
        # the score table is the year table read past the last year, with the same tie flags
        every = np.ones(len(corpus), bool)
        scores, years = metrics_mod._scores(corpus, every), metrics_mod.PaperYears(corpus, every)
        n, value = years.at(np.arange(len(corpus)), int(corpus.years.max(initial=0)) + 1)
        assert np.array_equal(scores.n, n) and np.array_equal(scores.idi, value)
        assert np.array_equal(scores.tied, years.tied)
        subsets = st.lists(st.sampled_from(corpus.paper_ids), max_size=20) if len(corpus) else st.just([])
        for requested in data.draw(st.lists(st.none() | subsets, min_size=1, max_size=3)):
            ids = corpus.paper_ids if requested is None else requested
            for tie, seed in (("min-id", 0), ("random", 1), ("random", 2)):
                got = list(corpus_metrics(corpus, requested, tie=tie, seed=seed))
                fresh = pickle.loads(pickle.dumps(corpus))   # the memo is never pickled
                assert got == list(corpus_metrics(fresh, requested, tie=tie, seed=seed))
                assert got == _per_paper(corpus, ids, tie, seed)

    @settings(max_examples=30, deadline=None)
    @given(shape=st.sampled_from(["random", "saturated", "colliding"]), n_papers=st.integers(2, 150),
           corpus_seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_edge_trees_match_naive_triangles(self, shape, n_papers, corpus_seed, data):
        if shape == "random":
            corpus = gen_random_corpus(n_papers, years=(1990, 2005), mean_refs=3, followup=0.5,
                                       seed=corpus_seed % 10_000)
        else:
            corpus = _signature_corpus(shape, max(n_papers, 72), 2, 0.3, corpus_seed)
        rows = np.unique(data.draw(st.lists(st.integers(0, max(len(corpus) - 1, 0)), max_size=len(corpus))))
        wanted = np.zeros(len(corpus), bool)
        wanted[rows.astype(np.int64)] = True
        citer, paper, depth, parent, tied = metrics_mod._edge_trees(corpus, wanted)
        want, want_tied = _naive_edge_trees(corpus, rows.tolist())
        assert list(zip(citer.tolist(), paper.tolist(), depth.tolist(), parent.tolist())) == want
        assert np.flatnonzero(tied).tolist() == want_tied

    def test_segments_of_empty_and_single_arrays(self):
        assert metrics_mod._segments(np.array([], np.int64)).tolist() == []
        assert metrics_mod._segments(np.array([7])).tolist() == [0]
        assert metrics_mod._segments(np.array([3, 3, 5, 9, 9, 9])).tolist() == [0, 2, 3]

    def test_requested_papers_all_uncited(self):
        corpus = gen_random_corpus(300, years=(1990, 2005), seed=4)
        uncited = [p for p in corpus.paper_ids if not corpus.citation_count(p)]
        assert uncited
        assert list(corpus_metrics(corpus, uncited, tie="random", seed=1)) == []
        assert list(corpus_metrics(corpus, [])) == []
        assert list(corpus_metrics(corpus.snapshot(1989))) == []  # a view without papers

    def test_unknown_tie_policy_rejected(self, toy):
        with pytest.raises(ValueError, match="tie must be one of"):
            corpus_metrics(toy, tie="max-id")

    def test_isolated_papers(self, toy):
        records = [toy.record(p) for p in toy.paper_ids] + [PaperRecord(p, 2001) for p in ("a0", "p35", "zz")]
        corpus = CitationCorpus(records, toy.edges())
        for tie in ("min-id", "random"):
            reports = corpus_metrics(corpus, tie=tie, seed=1)
            expected = _per_paper(corpus, corpus.paper_ids, tie, 1)
            assert list(reports) == expected == list(corpus_metrics(toy, tie=tie, seed=1))

    @pytest.mark.parametrize("tie", ["min-id", "random"])
    def test_report_fields_are_plain_values(self, tie):
        corpus = gen_random_corpus(500, years=(1990, 2005), mean_refs=3, followup=0.5, seed=6)
        reports = corpus_metrics(corpus, tie=tie, seed=1)
        assert reports
        for r in reports:
            assert [type(v) for v in dataclasses.astuple(r)] == [str, int, int, int, int, int, int, int, float]
            json.dumps(dataclasses.asdict(r))


class TestSnapshotTimeline:
    """`paper_years` reads counts and NIDs at any cutoff; rebuilding each snapshot's trees is the oracle."""

    @pytest.mark.parametrize("tie,seed", [("min-id", 0), ("random", 1), ("random", 2)])
    @settings(max_examples=10, deadline=None)
    @given(corpus_seed=st.integers(0, 10_000), n_years=st.integers(1, 3), density=st.floats(0.05, 0.6))
    def test_prefix_matches_snapshot_rebuild(self, tie, seed, corpus_seed, n_years, density):
        # a snapshot's tree is the full tree cut to the citers published by the cutoff;
        # in the same-year corpus a citer and its first child can share a year, so
        # their deltas fall in one run of equal keys
        for corpus in (gen_random_corpus(300, years=(1990, 2002), mean_refs=3, followup=0.5, seed=corpus_seed),
                       _same_year_corpus(40, n_years, density, corpus_seed)):
            self._check_prefix(corpus, tie, seed)

    @staticmethod
    def _check_prefix(corpus, tie, seed):
        ids = corpus.paper_ids
        rows = np.arange(len(ids))
        table = metrics_mod.paper_years(corpus, rows)
        flagged = {ids[i] for i in np.flatnonzero(table.tied)}
        assert flagged == set(_tied_ids(corpus, ids))
        first, last = corpus.year_range()
        for cutoff in range(first - 1, last + 2):   # each paper from a year before it appears
            snap = corpus.snapshot(cutoff)
            n, nids = table.nids(corpus, rows, cutoff, tie=tie, seed=seed)
            for pid, count, value in zip(ids, n.tolist(), nids.tolist()):
                report = paper_metrics(snap, pid, tie=tie, seed=seed) if snap.has_paper(pid) else None
                if report is None:
                    assert count == 0 and np.isnan(value)
                else:
                    assert (count, value) == (report.n, report.nid)
            # a paper with a depth tie in a snapshot has one in the corpus
            assert set(_tied_ids(snap, snap.paper_ids)) <= flagged

    def test_build_peaks_within_its_kernel_bound(self):
        # the table's tracemalloc peak read 1.31 times the kernel's when each
        # first child was found through an int64 slot permutation and np.minimum.at
        corpus = gen_random_corpus(20_000, (1960, 2010), mean_refs=3, followup=0.3, seed=7)
        every = np.ones(len(corpus), bool)
        peaks = []
        for build in (metrics_mod._edge_trees, metrics_mod.PaperYears):
            tracemalloc.start()
            try:
                build(corpus, every)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    def test_extended_table_matches_a_whole_build(self):
        corpus = gen_random_corpus(400, years=(1990, 2005), mean_refs=3, followup=0.5, seed=8)
        rows = np.arange(len(corpus))
        # the last request is unsorted and names each of its rows twice
        requests = rows[::3], rows[1::5], np.r_[rows[2::7][::-1], rows[2::7]]
        covered = rows[:0]
        for request in requests:
            table = metrics_mod.paper_years(corpus, request)
            mask, entry = metrics_mod.derived(corpus)["years"]
            assert entry is table and not mask.flags.writeable
            covered = np.union1d(covered, request)
            assert np.array_equal(np.flatnonzero(mask), covered)
        whole = metrics_mod.PaperYears(corpus, np.ones(len(corpus), bool))
        for cutoff in range(1989, 2007):
            for tie in ("min-id", "random"):
                got = table.nids(corpus, covered, cutoff, tie=tie, seed=3)
                want = whole.nids(corpus, covered, cutoff, tie=tie, seed=3)
                assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1], equal_nan=True)

    def test_draws_kept_across_an_extension(self, monkeypatch):
        # a tied paper's random-tie tree is built once per seed, not once per table
        corpus = gen_random_corpus(400, years=(1990, 2005), mean_refs=3, followup=0.5, seed=8)
        rows = np.arange(len(corpus))
        made = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: made.append(seed) or default_rng(seed))
        for request in (rows[::2], rows):
            table = metrics_mod.paper_years(corpus, request)
            for seed in (3, 4):
                table.nids(corpus, request, 2005, tie="random", seed=seed)
        assert table.tied[::2].any(), "no paper of the first request has a depth tie"
        ids = corpus.paper_ids
        tied = [ids[i] for i in np.flatnonzero(table.tied)]
        assert sorted(made) == sorted([seed, *pid.encode("utf-8")] for seed in (3, 4) for pid in tied)

    def test_entry_freed_with_its_corpus_and_never_pickled(self):
        corpus = gen_random_corpus(300, years=(1990, 2005), mean_refs=3, followup=0.5, seed=4)
        blob = pickle.dumps(corpus)
        rows = np.arange(len(corpus))
        table = metrics_mod.paper_years(corpus, rows)
        table.nids(corpus, rows, 2005, tie="random", seed=1)
        mask, entry = metrics_mod.derived(corpus)["years"]
        assert entry is table and mask.all()
        assert pickle.dumps(corpus) == blob
        del table, mask, entry
        gc.collect()  # so only this corpus can leave the memo below
        entries = len(corpus_mod._DERIVED)
        ref = weakref.ref(corpus)
        del corpus
        gc.collect()
        assert ref() is None
        assert len(corpus_mod._DERIVED) == entries - 1
