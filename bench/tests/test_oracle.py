"""Tests of the benchmark's oracle and input generation.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import itertools
import random

import pytest

import inputs
import oracle

# P is cited by a, b, c, d; b cites a; c cites a and b; e cites b but not P.
HAND_META = {
    "P": (1990, "V-1990"), "a": (1991, None), "b": (1992, None),
    "c": (1993, None), "d": (1991, None), "e": (1995, None),
}
HAND_EDGES = [("a", "P"), ("b", "P"), ("c", "P"), ("d", "P"), ("b", "a"), ("c", "a"), ("c", "b"), ("e", "b")]


def test_hand_tree_values():
    ref = oracle.Oracle(HAND_META, HAND_EDGES)
    tree = ref.tree("P")
    # root -> a -> b -> c and root -> d: leaves c (depth 3) and d (depth 1).
    assert tree.values() == (4, 3, 2, 4)
    assert not tree.tie
    # Up to 1992, c is not there yet: leaves b (2) and d (1).
    assert tree.values(1992) == (3, 2, 2, 3)
    assert tree.values(1990) is None
    assert ref.count("P", 1991) == 2
    assert ref.cited() == {"P", "a", "b"}


def test_depth_tie_takes_min_id_parent():
    meta = {"P": (2000, None), "x": (2001, None), "y": (2001, None), "z": (2002, None)}
    edges = [("x", "P"), ("y", "P"), ("z", "P"), ("z", "x"), ("z", "y")]
    tree = oracle.Oracle(meta, edges).tree("P")
    # z hangs under x, the smaller of two depth-1 candidates: leaves y (1), z (2).
    assert tree.tie
    assert tree.values() == (3, 2, 2, 3)


def test_cycle_among_citers_is_refused():
    meta = {"P": (2000, None), "x": (2001, None), "y": (2001, None)}
    edges = [("x", "P"), ("y", "P"), ("x", "y"), ("y", "x")]
    with pytest.raises(ValueError):
        oracle.Oracle(meta, edges).tree("P")


def test_idi_bounds_and_nid():
    assert [oracle.idi_max(n) for n in range(1, 7)] == [1, 2, 4, 6, 9, 12]
    assert oracle.nid(1, 1) == oracle.nid(2, 2) == 0.0
    assert oracle.nid(5, 9) == 1.0
    assert oracle.nid(5, 7) == 0.5


def test_discordant_pairs_matches_brute_force():
    rng = random.Random(5)
    for m in range(1, 9):
        a = [f"p{i}" for i in range(m)]
        b = a[:]
        rng.shuffle(b)
        pos_b = {p: i for i, p in enumerate(b)}
        brute = sum(1 for i, j in itertools.combinations(range(m), 2) if pos_b[a[i]] > pos_b[a[j]])
        assert oracle.discordant_pairs(a, b) == brute
    assert oracle.kendall(["x", "y", "z"], ["z", "y", "x"]) == 1.0


def test_award_ranks_and_z_scores_on_hand_corpus():
    meta = {"A": (2000, "V-2000"), "B": (2000, "V-2000"), "C": (2000, "V-2000")}
    edges = []
    # A: 3 citers in 2001, 1 more in 2004; B: 2 citers, a chain, in 2001; C: 1 citer in 2001.
    for i, (target, year) in enumerate([("A", 2001)] * 3 + [("A", 2004), ("B", 2001), ("B", 2001), ("C", 2001)]):
        meta[f"c{i}"] = (year, None)
        edges.append((f"c{i}", target))
    edges.append(("c5", "c4"))
    ref = oracle.Oracle(meta, edges)
    cases, skipped = ref.award_ranks([("B", "V-2000", 2000), ("Z", "V-2000", 2000)], pct=1.0, horizon=5)
    # By citations A(4) > B(2) > C(1); by NID B (a chain of 2, NID 0) ties A and C at 0 and ranks by id.
    assert cases == {"B": ("V-2000", 2000, 3, 2, 2)}
    assert skipped == ["Z"]
    scored, skipped = ref.z_scores(2000, 2000, 1, 5)
    # Gains to 2005: A 1/3, B 0, C 0 -> A, B, C; citations at 2001 rank A, B, C too.
    assert scored == {("V-2000", 2000): (3, 0.0, 0.0)}
    assert skipped == []


@pytest.fixture(scope="module")
def small_corpus():
    from idtree.synth import gen_random_corpus

    corpus = gen_random_corpus(3000, (1990, 2005), mean_refs=3, followup=0.4, seed=3)
    meta = {p: (corpus.record(p).year, corpus.record(p).venue) for p in corpus.paper_ids}
    return corpus, meta, list(corpus.edges())


@pytest.mark.parametrize("tie", ["min-id", "random"])
def test_oracle_agrees_with_program(small_corpus, tie):
    from idtree.metrics import corpus_metrics

    corpus, meta, edges = small_corpus
    ref = oracle.Oracle(meta, edges)
    reports = corpus_metrics(corpus, tie=tie, seed=11)
    assert [r.paper_id for r in reports] == sorted(ref.cited())
    for r in reports:
        tree = ref.tree(r.paper_id)
        n, d, b, idi = tree.values()
        assert (r.n, r.depth, r.breadth) == (n, d, b)
        if tie == "min-id" or not tree.tie:
            assert r.idi == idi
        assert n <= r.idi <= oracle.idi_max(n)
        assert r.nid == oracle.nid(n, r.idi)


def test_z_and_award_oracle_agree_with_program(small_corpus):
    from idtree.experiments import tot_experiment, z_experiment

    corpus, meta, edges = small_corpus
    ref = oracle.Oracle(meta, edges)
    report = z_experiment(corpus, (1992, 1996), 2, 6)
    got = {(v.venue, v.year): (len(v.paper_ids), v.z_nid, v.z_cite) for v in report.venues}
    assert got == ref.z_scores(1992, 1996, 2, 6)[0]
    cite_years = inputs.citer_years([f"{u}\t{v}" for u, v in edges], meta)
    awardees = inputs.pick_awardees(meta, cite_years, 1990, 1995, seed=4)
    tot = tot_experiment(corpus, awardees, pct=0.25, horizon=10)
    got = {c.paper_id: (c.venue, c.year, c.cohort_size, c.rank_cite, c.rank_nid) for c in tot.cases}
    assert got == ref.award_ranks(awardees, 0.25, 10)[0]


def test_injected_faults_match_ingest_report(small_corpus, tmp_path):
    from idtree.corpus import ingest_files

    corpus, meta, edges = small_corpus
    lines = [f"{u}\t{v}" for u, v in edges]
    faulty = inputs.write_faulty_files(lines, meta, seed=9, out=tmp_path)
    cleaned, report = ingest_files(faulty.edges, faulty.meta)
    assert report.to_dict() == faulty.expected_report
    assert sorted(cleaned.edges()) == sorted(edges)
    assert {p: (cleaned.record(p).year, cleaned.record(p).venue) for p in cleaned.paper_ids} == meta


def test_seeded_inputs_repeat_and_keep_tree_counts(small_corpus):
    corpus, meta, edges = small_corpus
    cite_years = inputs.citer_years([f"{u}\t{v}" for u, v in edges], meta)
    picks = [inputs.pick_awardees(meta, cite_years, 1990, 1995, seed) for seed in (1, 1, 2)]
    assert picks[0] == picks[1] != picks[2]
    assert [a[1:] for a in picks[0]] == [a[1:] for a in picks[2]]
    ids = inputs.pick_ids(cite_years, 50, 7)
    assert ids == inputs.pick_ids(cite_years, 50, 7)
    assert all(corpus.citation_count(p) > 0 for p in ids)
