"""Shape generators, tree enumeration, and synthetic corpora."""

import itertools
from collections import Counter, defaultdict

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from idtree.corpus import PaperRecord, ingest, write_edge_file, write_metadata_file
from idtree.experiments import corpus_stats
from idtree.metrics import idi, idi_max, nid
from idtree.synth import (
    broom_tree,
    chain_tree,
    corpus_for_tree,
    enumerate_trees,
    gen_random_corpus,
    ideal_branch_sizes,
    ideal_tree,
    make_tot_benchmark,
    make_z_benchmark,
    parent_matrix_stats,
    random_parent_matrix,
    star_tree,
    toy_corpus,
)
from idtree.tree import TIE_POLICIES, BranchInfo, build_idg, build_idt, tree_stats
from reference import tree_from_parent_map, tree_from_parent_row

# Rooted trees with n non-root nodes up to isomorphism, n = 1..9 (classic
# combinatorial counts for rooted trees on n+1 nodes).
KNOWN_SHAPE_COUNTS = [1, 2, 4, 9, 20, 48, 115, 286, 719]


def _canonical_form(children, root):
    """Sorted nested tuple of child forms: equal exactly for isomorphic trees."""
    return tuple(sorted(_canonical_form(children, c) for c in children[root]))


def _children(tree):
    children = defaultdict(list)
    for v, p in tree.parent.items():
        children[p].append(v)
    return children


class TestShapes:
    def test_star(self):
        tree = star_tree(5)
        corpus = corpus_for_tree(tree)
        stats = tree_stats(tree)
        assert (stats.depth, stats.breadth) == (1, 5)
        assert idi(tree) == 5
        assert len(corpus) == 6

    def test_chain(self):
        tree = chain_tree(6)
        stats = tree_stats(tree)
        assert (stats.depth, stats.breadth) == (6, 1)
        assert idi(tree) == 6

    def test_broom_attains_idi_max(self):
        tree = broom_tree(5, k=2)
        assert idi(tree) == 9 == idi_max(5)
        # default handle length also attains the maximum
        for n in (3, 8, 17, 40):
            assert idi(broom_tree(n)) == idi_max(n)

    def test_broom_degenerate_ends(self):
        assert broom_tree(5, k=0) == star_tree(5)
        assert tree_stats(broom_tree(5, k=4)).depth == 5

    def test_ideal_square(self):
        tree = ideal_tree(9)
        stats = tree_stats(tree)
        assert (stats.depth, stats.breadth) == (3, 3)
        assert nid(tree) == 0.0
        assert all(b.unified for b in stats.branches)

    def test_ideal_errors(self):
        with pytest.raises(ValueError):
            ideal_tree(2)  # no equal depth/breadth layout exists
        with pytest.raises(ValueError):
            ideal_branch_sizes(0)

    def test_ideal_branch_sizes_partition(self):
        for n in [1] + list(range(3, 150)):
            sizes = ideal_branch_sizes(n)
            k = max(sizes)
            assert sum(sizes) == n
            assert len(sizes) == k  # breadth equals depth
            assert all(1 <= s <= k for s in sizes)

    def test_level_sequence_depths_match_the_parent_map_resolver(self):
        # the builder sets each citer's depth to its level; the resolver walks the parent chains
        trees = [t for n in range(1, 9) for t in enumerate_trees(n)]
        for n in range(1, 31):
            trees += [star_tree(n), chain_tree(n), *(broom_tree(n, k) for k in range(n))]
            if n != 2:   # no ideal shape exists for n = 2
                trees.append(ideal_tree(n))
        for tree in trees:
            assert tree == tree_from_parent_map("P", tree.parent), tree.to_json()

    def test_shape_errors_on_empty(self):
        for builder in (star_tree, chain_tree, broom_tree, ideal_tree):
            with pytest.raises(ValueError):
                builder(0)


def _random_tree(n, seed):
    return tree_from_parent_row(random_parent_matrix(n, 1, np.random.default_rng(seed))[0])


class TestRoundTrip:
    """Generated corpora must rebuild their trees exactly."""

    @pytest.mark.parametrize("kind", ["star", "chain", "broom", "ideal"])
    def test_named_shapes(self, kind):
        builder = {"star": star_tree, "chain": chain_tree, "broom": broom_tree, "ideal": ideal_tree}[kind]
        sizes = [n for n in range(1, 101) if not (kind == "ideal" and n == 2)]
        for n in sizes:
            tree = builder(n)
            rebuilt = build_idt(build_idg(corpus_for_tree(tree), tree.root))
            assert rebuilt == tree, f"{kind} n={n}"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_shapes(self, seed):
        for n in (1, 7, 33, 100):
            tree = _random_tree(n, seed)
            rebuilt = build_idt(build_idg(corpus_for_tree(tree), tree.root))
            assert rebuilt == tree

    def test_round_trip_independent_of_tie_policy(self):
        # citers cite root + parent only, so reconstruction never hits a tie
        tree = _random_tree(50, 9)
        idg = build_idg(corpus_for_tree(tree), tree.root)
        assert build_idt(idg, tie="random", rng=np.random.default_rng(0)) == tree

    def test_empty_tree_rejected(self):
        from idtree.tree import InfluenceTree

        with pytest.raises(ValueError):
            corpus_for_tree(InfluenceTree("P", {}, {"P": 0}))


def _brute_branches(tree):
    """One branch per leaf: a node on the leaf's path is a fragment point iff at
    least 2 leaves lie below it, i.e. have it on their own paths."""
    leaves = sorted(set(tree.parent) - set(tree.parent.values()))
    paths = {}
    for leaf in leaves:
        path, node = [], tree.parent[leaf]
        while node != tree.root:
            path.insert(0, node)
            node = tree.parent[node]
        paths[leaf] = path
    below = Counter(node for path in paths.values() for node in path)
    return tuple(BranchInfo(leaf, len(paths[leaf]) + 1, tuple(u for u in paths[leaf] if below[u] >= 2))
                 for leaf in leaves)


_SOME_TREES = st.one_of(
    st.builds(_random_tree, st.integers(1, 60), st.integers(0, 2**32 - 1)),
    st.sampled_from([t for n in range(1, 8) for t in enumerate_trees(n)]),
)


@settings(max_examples=200, deadline=None)
@given(_SOME_TREES)
def test_branches_match_brute_force(tree):
    assert tree_stats(tree).branches == _brute_branches(tree)


class TestEnumeration:
    def test_counts_match_known_sequence(self):
        assert [len(list(enumerate_trees(n))) for n in range(1, 10)] == KNOWN_SHAPE_COUNTS

    def test_two_node_shapes(self):
        shapes = {
            (tree_stats(t).depth, tree_stats(t).breadth) for t in enumerate_trees(2)
        }
        assert shapes == {(2, 1), (1, 2)}  # chain and star

    def test_no_duplicate_shapes(self):
        for n in range(1, 7):
            forms = [_canonical_form(_children(t), t.root) for t in enumerate_trees(n)]
            assert len(forms) == len(set(forms))

    def test_matches_brute_force_over_parent_arrays(self):
        # every rooted tree on n+1 nodes has a labelling where each node's
        # parent precedes it, so the n! arrays parent[i] < i cover every shape
        for n in range(1, 8):
            expected = set()
            for parents in itertools.product(*(range(i) for i in range(1, n + 1))):
                children = [[] for _ in range(n + 1)]
                for child, parent in enumerate(parents, start=1):
                    children[parent].append(child)
                expected.add(_canonical_form(children, 0))
            forms = [_canonical_form(_children(t), t.root) for t in enumerate_trees(n)]
            assert len(forms) == len(set(forms)) == len(expected)
            assert set(forms) == expected

    def test_max_idi_over_stream(self):
        assert max(idi(t) for t in enumerate_trees(5)) == 9

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            list(enumerate_trees(10))
        assert len(list(enumerate_trees(1))) == 1
        with pytest.raises(ValueError):
            list(enumerate_trees(0))


class TestBulkSampler:
    def test_matches_object_pipeline(self):
        rng = np.random.default_rng(6)
        for n in (5, 23, 77):
            parents = random_parent_matrix(n, 40, rng)
            stats = parent_matrix_stats(parents)
            for t in range(0, 40, 7):
                tree = tree_from_parent_row(parents[t])
                obj = tree_stats(tree)
                assert obj.depth == stats["depth"][t]
                assert obj.breadth == stats["breadth"][t]
                assert idi(tree) == stats["idi"][t]

    def test_single_node_trees(self):
        parents = random_parent_matrix(1, 5, np.random.default_rng(0))
        stats = parent_matrix_stats(parents)
        assert (stats["depth"] == 1).all()
        assert (stats["idi"] == 1).all()


class TestToyCorpus:
    def test_structure(self):
        corpus = toy_corpus()
        assert corpus.paper_ids == ("P", "p1", "p2", "p3", "p4", "p5")
        assert corpus.year("P") == 2000
        assert corpus.references_of("p4") == ("P", "p1", "p2")
        assert corpus.citation_count("P") == 5


class TestRandomCorpus:
    def test_seed_reproducibility_bytes(self, tmp_path):
        paths = []
        for run in ("a", "b"):
            corpus = gen_random_corpus(500, years=(1990, 2000), seed=13)
            edges = tmp_path / f"{run}_edges.tsv"
            meta = tmp_path / f"{run}_meta.jsonl"
            write_edge_file(corpus, edges)
            write_metadata_file(corpus, meta)
            paths.append((edges, meta))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 120), st.integers(-3, 2100), st.integers(0, 12), st.floats(0, 1), st.floats(0, 1),
           st.integers(0, 10_000))
    def test_corpus_is_what_ingest_keeps(self, n, first_year, n_years, bias, followup, seed):
        # the generator cleans through ingest's own rules: re-ingesting its papers and
        # citations plus three unlinked papers must drop those three and nothing else
        corpus = gen_random_corpus(n, years=(first_year, first_year + n_years), bias=bias, followup=followup, seed=seed)
        lone = [PaperRecord(f"lone{i}", first_year) for i in range(3)]
        again, report = ingest(list(corpus.edges()), [corpus.record(p) for p in corpus.paper_ids] + lone)
        assert report.dropped_isolated == len(lone) and report.edges_kept == report.edges_in == corpus.n_edges
        assert again.paper_ids == corpus.paper_ids and again.venue_names == corpus.venue_names
        assert all(corpus.citation_count(p) or corpus.references_of(p) for p in corpus.paper_ids)
        assert all(a.tolist() == b.tolist() for a, b in zip((again.years, again.venues, again.refs),
                                                             (corpus.years, corpus.venues, corpus.refs)))

    def test_different_seeds_differ(self):
        a = gen_random_corpus(300, seed=1)
        b = gen_random_corpus(300, seed=2)
        assert list(a.edges()) != list(b.edges())

    def test_edges_respect_time(self):
        corpus = gen_random_corpus(400, years=(1990, 1995), seed=4)
        for citing, cited in corpus.edges():
            assert corpus.year(citing) > corpus.year(cited)

    def test_unbiased_attachment_roughly_uniform(self):
        # papers from the first year are equally likely targets throughout;
        # chi-square their citation counts against a uniform expectation
        corpus = gen_random_corpus(10_000, years=(1990, 1999), mean_refs=4, bias=0.0, seed=17)
        first_year = corpus.year_range()[0]
        counts = [
            corpus.citation_count(p)
            for p in corpus.paper_ids
            if corpus.year(p) == first_year
        ]
        assert len(counts) > 300
        result = scipy.stats.chisquare(counts)
        assert result.pvalue > 1e-4

    def test_biased_attachment_has_heavy_tail(self):
        flat = gen_random_corpus(10_000, years=(1990, 1999), mean_refs=4, bias=0.0, seed=17)
        skew = gen_random_corpus(10_000, years=(1990, 1999), mean_refs=4, bias=0.9, seed=17)
        max_flat = max(flat.citation_count(p) for p in flat.paper_ids)
        max_skew = max(skew.citation_count(p) for p in skew.paper_ids)
        assert max_skew > 2 * max_flat
        # and breadth tracks citations positively on the skewed corpus
        rho = corpus_stats(skew).correlations["breadth_vs_citations"]
        assert rho > 0.5

    def test_followup_citations_create_depth(self):
        flat = gen_random_corpus(3000, years=(1990, 2005), mean_refs=4, seed=6)
        chained = gen_random_corpus(3000, years=(1990, 2005), mean_refs=4, followup=0.5, seed=6)
        def max_depth(corpus):
            return max(r.depth for r in corpus_stats(corpus).reports)
        assert max_depth(chained) > max_depth(flat)
        # reproducible under seed like every other knob
        again = gen_random_corpus(3000, years=(1990, 2005), mean_refs=4, followup=0.5, seed=6)
        assert list(again.edges()) == list(chained.edges())

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            gen_random_corpus(0)
        with pytest.raises(ValueError):
            gen_random_corpus(10, bias=1.5)
        with pytest.raises(ValueError):
            gen_random_corpus(10, followup=-0.1)
        with pytest.raises(ValueError, match="int32"):
            gen_random_corpus(10, years=(0, 2**31))


def _assert_planted(corpus, pid, shape):
    """The tree of `pid` is `shape` with its root named `pid` and each citer v `pid + ".c" + v`."""
    name = {shape.root: pid} | {v: f"{pid}.c{v}" for v in shape.parent}
    expected = tree_from_parent_map(pid, {name[v]: name[p] for v, p in shape.parent.items()})
    for tie in TIE_POLICIES:
        assert build_idt(build_idg(corpus, pid), tie=tie, rng=0) == expected, (pid, tie)


class TestPlantedBenchmarks:
    def test_z_benchmark_invariants(self):
        corpus = make_z_benchmark(seed=0, t1=5, t2=10)
        venues = {}
        for pid in corpus.paper_ids:
            rec = corpus.record(pid)
            if rec.venue is not None:
                venues.setdefault((rec.venue, rec.year), []).append(pid)
        assert len(venues) == 8
        for (venue, year), members in venues.items():
            snap1 = corpus.snapshot(year + 5)
            counts = {p: snap1.citation_count(p) for p in members}
            assert set(counts.values()) == {9}  # equal citations at t1
            gains = {
                p: corpus.snapshot(year + 10).citation_count(p) - counts[p]
                for p in members
            }
            assert set(gains.values()) == {5, 18}  # two planted burst levels

    def test_z_benchmark_depth_guard(self):
        with pytest.raises(ValueError):
            make_z_benchmark(t1=2, t2=5)  # the ideal tree of 9 citers is 3 deep

    @pytest.mark.parametrize("t1, t2", [(5, 5), (5, 2)])
    def test_z_benchmark_horizon_guard(self, t1, t2):
        # t1 == t2 leaves no gain window; t1 > t2 would plant gains that come before t1
        with pytest.raises(ValueError, match=f"need t1 < t2, got {t1} >= {t2}"):
            make_z_benchmark(t1=t1, t2=t2)

    @pytest.mark.parametrize("seed, t1, t2", [(0, 5, 10), (1, 3, 4), (2, 4, 9), (3, 9, 12)])
    def test_z_benchmark_rebuilds_each_planted_tree(self, seed, t1, t2):
        corpus = make_z_benchmark(seed=seed, t1=t1, t2=t2)
        planted = [p for p in corpus.paper_ids if corpus.record(p).venue is not None]
        assert len(planted) == 192
        snapshots = {year: corpus.snapshot(year + t1) for year in {corpus.year(p) for p in planted}}
        for pid in planted:
            # the 9 tree citers come by t1, then 18 more for an ideal tree and 5 for a broom
            shape = {18: ideal_tree(9), 5: broom_tree(9, k=t1 - 1)}[corpus.citation_count(pid) - 9]
            _assert_planted(snapshots[corpus.year(pid)], pid, shape)

    def test_tot_benchmark_rebuilds_each_planted_tree(self):
        corpus, _ = make_tot_benchmark()
        planted = [p for p in corpus.paper_ids if corpus.record(p).venue is not None]
        assert len(planted) == 160
        for pid in planted:
            n, kind = corpus.citation_count(pid), pid.rsplit(".", 1)[1]
            shape = ideal_tree(n) if kind == "award" else broom_tree(n, k=9) if kind == "rival" else star_tree(n)
            _assert_planted(corpus, pid, shape)

    def test_tot_benchmark_layout(self):
        corpus, awardees = make_tot_benchmark()
        assert len(awardees) == 4
        for pid, venue, year in awardees:
            assert corpus.record(pid).venue == venue
            assert corpus.record(pid).year == year
