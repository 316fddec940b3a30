"""Influence graph and dispersion tree construction."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from idtree.corpus import PaperRecord, ingest
from idtree.metrics import idi
from idtree.synth import (
    broom_tree,
    chain_tree,
    corpus_for_tree,
    enumerate_trees,
    star_tree,
)
from idtree.tree import (
    InfluenceTree,
    build_idg,
    build_idt,
    tree_from_parent_map,
    tree_stats,
)

# rng stream used by the metrics pipeline for paper "P" at seed 1; its first
# draw resolves the toy tree's only depth tie to p2, the layout in which
# every branch stays unified and IDI reaches its minimum
TOY_FIDELITY_RNG = lambda: np.random.default_rng([1] + list(b"P"))

TOY_MIN_ID_PARENTS = {"p1": "P", "p2": "P", "p3": "p1", "p4": "p1", "p5": "p3"}
TOY_TIE_TO_P2_PARENTS = {"p1": "P", "p2": "P", "p3": "p1", "p4": "p2", "p5": "p3"}


def _nodes(idg):
    return (idg.root,) + idg.citers


def _influence_edges(idg):
    """Influence edges (u, v) meaning v cites u, root edges first."""
    root_edges = [(idg.root, v) for v in idg.citers]
    return root_edges + [(u, v) for v in idg.citers for u in sorted(idg.cited_within[v])]


class TestInfluenceGraph:
    def test_single_citer(self):
        corpus, _ = ingest([("p1", "P")], [PaperRecord("P", 2000), PaperRecord("p1", 2001)])
        idg = build_idg(corpus, "P")
        assert _nodes(idg) == ("P", "p1")
        assert _influence_edges(idg) == [("P", "p1")]

    def test_toy_edge_set(self, toy):
        idg = build_idg(toy, "P")
        assert set(idg.citers) == {"p1", "p2", "p3", "p4", "p5"}
        expected = {
            ("P", "p1"), ("P", "p2"), ("P", "p3"), ("P", "p4"), ("P", "p5"),
            ("p1", "p3"), ("p1", "p4"), ("p2", "p4"), ("p2", "p5"), ("p3", "p5"),
        }
        assert set(_influence_edges(idg)) == expected

    def test_zero_citation_paper_gives_single_node_graph(self, toy):
        snap = toy.snapshot(2000)  # before any citer is published
        idg = build_idg(snap, "P")
        assert idg.n == 0
        assert _nodes(idg) == ("P",)
        assert _influence_edges(idg) == []

    def test_matches_naive_induced_subgraph(self, small_random_corpus):
        corpus = small_random_corpus
        edge_list = list(corpus.edges())
        for pid in corpus.paper_ids[::13]:
            idg = build_idg(corpus, pid)
            nodes = {pid} | {c for c, cited in edge_list if cited == pid}
            naive = {
                (u, v)
                for v, u in edge_list  # v cites u -> influence edge u -> v
                if u in nodes and v in nodes and v != pid
            }
            assert set(_nodes(idg)) == nodes
            assert set(_influence_edges(idg)) == naive

    def test_one_hop_restriction(self):
        # q cites a citer of P but not P itself: it stays out of the graph.
        records = [PaperRecord(x, y) for x, y in [("P", 2000), ("p1", 2001), ("q", 2002)]]
        corpus, _ = ingest([("p1", "P"), ("q", "p1")], records)
        idg = build_idg(corpus, "P")
        assert set(_nodes(idg)) == {"P", "p1"}


class TestBuildTree:
    def test_toy_min_id_tree(self, toy):
        tree = build_idt(build_idg(toy, "P"))
        assert dict(tree.parent) == TOY_MIN_ID_PARENTS

    def test_toy_alternate_tie_pick(self, toy):
        tree = build_idt(build_idg(toy, "P"), tie="random", rng=TOY_FIDELITY_RNG())
        assert dict(tree.parent) == TOY_TIE_TO_P2_PARENTS

    def test_star_graph_all_parents_root(self):
        tree = build_idt(build_idg(corpus_for_tree(star_tree(7)), "P"))
        assert set(tree.parent.values()) == {"P"}

    def test_chain_graph_single_unified_branch(self):
        corpus = corpus_for_tree(chain_tree(6))
        tree = build_idt(build_idg(corpus, "P"))
        stats = tree_stats(tree)
        assert stats.depth == 6
        assert stats.breadth == 1
        assert len(stats.branches) == 1
        assert stats.branches[0].unified

    def test_deterministic_given_min_id_policy(self, small_random_corpus):
        corpus = small_random_corpus
        for pid in corpus.paper_ids[::17]:
            idg = build_idg(corpus, pid)
            assert build_idt(idg) == build_idt(idg)

    def test_random_policy_reproducible_under_seed(self, toy):
        idg = build_idg(toy, "P")
        a = build_idt(idg, tie="random", rng=np.random.default_rng(5))
        b = build_idt(idg, tie="random", rng=np.random.default_rng(5))
        assert a == b

    def test_parent_legality_and_depth_maximality(self, small_random_corpus):
        corpus = small_random_corpus
        for pid in corpus.paper_ids[::9]:
            idg = build_idg(corpus, pid)
            tree = build_idt(idg)
            for v in tree.parent:
                p = tree.parent[v]
                assert p == pid or p in idg.cited_within[v]
                if len(idg.cited_within[v]) >= 2:
                    # a placed node's depth never changes, so the final
                    # depths reproduce the situation at insertion time
                    best = max(tree.depth[u] for u in idg.cited_within[v])
                    assert tree.depth[p] == best

    def test_same_year_citation_chain_repaired(self):
        # "a" cites "b" within the same year; chronological id order alone
        # would process "a" first, but the builder must place "b" before it.
        records = [PaperRecord("P", 2000), PaperRecord("a", 2001), PaperRecord("b", 2001)]
        corpus, _ = ingest([("a", "P"), ("b", "P"), ("a", "b")], records)
        tree = build_idt(build_idg(corpus, "P"))
        assert tree.parent == {"b": "P", "a": "b"}
        assert tree.depth["a"] == 2

    def test_unknown_tie_policy_rejected(self, toy):
        with pytest.raises(ValueError):
            build_idt(build_idg(toy, "P"), tie="coin-flip")


class TestStructuralBounds:
    def test_bounds_hold_exhaustively_small(self):
        for n in range(1, 8):
            for tree in enumerate_trees(n):
                stats = tree_stats(tree, classify_branches=False)
                assert 1 <= stats.depth <= n
                assert 1 <= stats.breadth <= n
                assert stats.depth + stats.breadth <= n + 1
                assert stats.depth * stats.breadth >= n

    def test_bounds_hold_on_built_trees(self, small_random_corpus):
        corpus = small_random_corpus
        for pid in corpus.paper_ids[::5]:
            idg = build_idg(corpus, pid)
            if idg.n == 0:
                continue
            stats = tree_stats(build_idt(idg), classify_branches=False)
            n = idg.n
            assert 1 <= stats.depth <= n and 1 <= stats.breadth <= n
            assert stats.depth + stats.breadth <= n + 1
            assert stats.depth * stats.breadth >= n


class TestTreeStats:
    def test_toy_depth_and_breadth(self, toy):
        for rng in (None, TOY_FIDELITY_RNG()):
            tie = "min-id" if rng is None else "random"
            stats = tree_stats(build_idt(build_idg(toy, "P"), tie=tie, rng=rng))
            assert stats.depth == 3
            assert stats.breadth == 2

    def test_star_stats(self):
        stats = tree_stats(star_tree(7))
        assert stats.n == 7
        assert (stats.depth, stats.breadth) == (1, 7)
        assert stats.level_sizes == (7,)
        assert len(stats.branches) == 7
        assert all(b.unified for b in stats.branches)

    def test_broom_branches_fragmented_at_handle(self):
        tree = broom_tree(7, k=3)
        stats = tree_stats(tree)
        handle_end = "v03"
        fan = {"v04", "v05", "v06", "v07"}
        assert set(stats.leaves) == fan
        for branch in stats.branches:
            assert not branch.unified
            assert handle_end in branch.fragment_points

    def test_level_sizes_sum_to_n(self, small_random_corpus):
        corpus = small_random_corpus
        for pid in corpus.paper_ids[::19]:
            idg = build_idg(corpus, pid)
            if idg.n == 0:
                continue
            stats = tree_stats(build_idt(idg))
            assert sum(stats.level_sizes) == stats.n

    def test_empty_tree_conventions(self):
        stats = tree_stats(InfluenceTree("P", {}, {"P": 0}))
        assert (stats.n, stats.depth, stats.breadth) == (0, 0, 0)
        assert stats.leaves == ()
        assert stats.branches == ()

    def test_classification_can_be_skipped(self):
        stats = tree_stats(star_tree(4), classify_branches=False)
        assert stats.branches is None
        assert stats.breadth == 4


class TestSerialization:
    def test_json_round_trip(self, toy):
        tree = build_idt(build_idg(toy, "P"))
        again = InfluenceTree.from_json(tree.to_json())
        assert again == tree

    def test_json_depth_validation(self):
        text = (
            '{"root": "P", "nodes": ['
            '{"id": "P", "parent": null, "depth": 0},'
            '{"id": "a", "parent": "P", "depth": 2}]}'
        )
        with pytest.raises(ValueError):
            InfluenceTree.from_json(text)

    def test_edge_lines(self):
        tree = tree_from_parent_map("P", {"a": "P", "b": "a"})
        assert tree.to_edge_lines() == ["P\ta", "a\tb"]

    def test_parent_map_validation(self):
        with pytest.raises(ValueError):
            tree_from_parent_map("P", {"a": "b", "b": "a"})
        with pytest.raises(ValueError):
            tree_from_parent_map("P", {"a": "ghost"})


# Property: trees built from arbitrary clean corpora satisfy the structural
# contract (every citer placed, legal parents, consistent depths).
@st.composite
def citer_graphs(draw):
    n = draw(st.integers(1, 8))
    citers = [f"c{i}" for i in range(n)]
    cited = {}
    for i, v in enumerate(citers):
        pool = citers[:i]
        cited[v] = draw(st.sets(st.sampled_from(pool), max_size=len(pool))) if pool else set()
    return citers, cited


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(citer_graphs())
def test_built_tree_structural_contract(graph):
    citers, cited = graph
    records = [PaperRecord("P", 2000)]
    edges = []
    for i, v in enumerate(citers):
        records.append(PaperRecord(v, 2001 + i))
        edges.append((v, "P"))
        edges.extend((v, u) for u in sorted(cited[v]))
    corpus, _ = ingest(edges, records)
    tree = build_idt(build_idg(corpus, "P"))
    assert set(tree.parent) == set(citers)
    for v, p in tree.parent.items():
        assert p == "P" or p in cited[v]
        assert tree.depth[v] == tree.depth[p] + 1
    assert idi(tree) >= len(citers)
