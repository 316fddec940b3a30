"""Ingest hygiene rules, snapshots, and corpus invariants."""

import hashlib
import pickle
from graphlib import TopologicalSorter

import numpy as np
import pytest
import scipy.sparse
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from idtree.corpus import (
    CitationCorpus,
    CorpusError,
    PaperRecord,
    UnknownPaperError,
    _edges_on_cycles,
    file_digest,
    ingest,
    ingest_files,
    load_cache,
    read_edge_file,
    save_cache,
    write_edge_file,
    write_metadata_file,
)


def _recs(**years):
    return [PaperRecord(pid, year) for pid, year in years.items()]


class TestIngestRules:
    def test_clean_stream_kept_intact(self):
        corpus, report = ingest([("b", "a"), ("c", "a")], _recs(a=2000, b=2001, c=2002))
        assert len(corpus) == 3
        assert corpus.n_edges == 2
        assert report.edges_kept == 2
        assert report.papers_kept == 3
        assert report.dropped_self == report.dropped_dup == report.dropped_forward == 0

    def test_forward_citation_dropped(self):
        corpus, report = ingest([("b", "a"), ("a", "b")], _recs(a=2000, b=2001))
        assert report.dropped_forward == 1
        assert list(corpus.edges()) == [("b", "a")]
        assert set(corpus.paper_ids) == {"a", "b"}

    def test_self_loops_and_duplicates_counted(self):
        edges = [("b", "a"), ("b", "a"), ("a", "a"), ("b", "b"), ("b", "a")]
        corpus, report = ingest(edges, _recs(a=2000, b=2001))
        assert report.dropped_self == 2
        assert report.dropped_dup == 2
        assert corpus.n_edges == 1

    def test_noisy_stream_matches_planted_clean_subset(self):
        # 10k clean edges plus 5% duplicates and 2% self-loops, shuffled in.
        rng = np.random.default_rng(3)
        n = 500
        ids = [f"p{i:03d}" for i in range(n)]
        records = [PaperRecord(ids[i], 1900 + i) for i in range(n)]
        clean = set()
        while len(clean) < 10_000:
            j = int(rng.integers(1, n))
            i = int(rng.integers(0, j))
            clean.add((ids[j], ids[i]))
        clean = sorted(clean)
        stream = list(clean)
        stream += [clean[int(rng.integers(0, len(clean)))] for _ in range(500)]
        stream += [(ids[int(rng.integers(0, n))],) * 2 for _ in range(200)]
        rng.shuffle(stream)
        corpus, report = ingest(stream, records)
        assert corpus.n_edges == len(clean)
        assert report.dropped_self == 200
        assert report.dropped_dup == 500

    def test_same_year_mutual_citations_both_dropped(self):
        corpus, report = ingest(
            [("a", "b"), ("b", "a"), ("c", "a")], _recs(a=2000, b=2000, c=2001)
        )
        assert report.dropped_cycle == 2
        assert list(corpus.edges()) == [("c", "a")]

    def test_same_year_longer_cycle_dropped(self):
        edges = [("a", "b"), ("b", "c"), ("c", "a"), ("d", "a")]
        corpus, report = ingest(edges, _recs(a=2000, b=2000, c=2000, d=2001))
        assert report.dropped_cycle == 3
        assert list(corpus.edges()) == [("d", "a")]

    def test_same_year_acyclic_edges_kept(self):
        corpus, report = ingest([("a", "b"), ("c", "b")], _recs(a=2000, b=2000, c=2000))
        assert report.dropped_cycle == 0
        assert corpus.n_edges == 2

    def test_unknown_endpoints_rejected(self):
        corpus, report = ingest(
            [("b", "a"), ("ghost", "a"), ("b", "ghost")], _recs(a=2000, b=2001)
        )
        assert report.dropped_unknown == 2
        assert corpus.n_edges == 1

    def test_malformed_items_counted_not_fatal(self):
        records = [
            {"id": "a", "year": 2000},
            {"id": "b", "year": 2001},
            {"id": "b", "year": 2002},        # duplicate id
            {"id": "c"},                       # missing year
            {"id": "", "year": 2000},          # empty id
            {"id": "d", "year": "2000"},       # year not an int
            "not a record",
        ]
        edges = [("b", "a"), ("b",), ("b", "a", "x"), ("", "a"), 17, "ba", ["b", "a"]]
        corpus, report = ingest(edges, records)
        assert report.malformed_papers == 5
        assert report.malformed_edges == 5
        assert report.dropped_dup == 1  # the list edge is read as ("b", "a")
        assert report.papers_in == 7
        assert report.edges_in == 7
        assert corpus.n_edges == 1

    def test_isolated_papers_dropped_to_fixed_point(self):
        # any linked paper stays; metadata-only papers go.
        recs = _recs(a=2000, b=2001, c=2002, lone=1999)
        corpus, report = ingest([("b", "a"), ("c", "b")], recs)
        assert report.dropped_isolated == 1
        assert "lone" not in corpus


class TestCorpusQueries:
    def test_citations_of_pair(self):
        corpus, _ = ingest([("b", "a")], _recs(a=2000, b=2001))
        assert corpus.citations_of("a") == ("b",)
        assert corpus.citations_of("b") == ()
        assert corpus.references_of("b") == frozenset({"a"})

    def test_citations_of_toy(self, toy):
        assert set(toy.citations_of("P")) == {"p1", "p2", "p3", "p4", "p5"}

    def test_unknown_paper_raises(self, toy):
        with pytest.raises(UnknownPaperError):
            toy.citations_of("nope")
        with pytest.raises(UnknownPaperError):
            toy.snapshot(2005).citations_of("nope")

    def test_citations_match_naive_edge_scan(self, small_random_corpus):
        corpus = small_random_corpus
        edge_list = list(corpus.edges())
        for pid in corpus.paper_ids[::7]:
            naive = sorted(c for c, cited in edge_list if cited == pid)
            assert sorted(corpus.citations_of(pid)) == naive

    @pytest.mark.parametrize("extra_recs, edges, counter", [
        ([PaperRecord("a", 2003)], [("b", "a")], "malformed_papers=1"),  # duplicate id
        ([], [("b", "b")], "dropped_self=1"),
        ([], [("b", "a"), ("b", "a")], "dropped_dup=1"),
        ([], [("b", "ghost")], "dropped_unknown=1"),
        ([], [("a", "b")], "dropped_forward=1"),
        ([PaperRecord("c", 2001)], [("b", "c"), ("c", "b")], "dropped_cycle=2"),
    ], ids=["duplicate-id", "self", "duplicate", "unknown", "forward", "cycle"])
    def test_constructor_rejects_dirty_edges(self, extra_recs, edges, counter):
        # the constructor refuses exactly what ingest would drop, by counter
        with pytest.raises(CorpusError, match=counter):
            CitationCorpus(_recs(a=2000, b=2001) + extra_recs, edges)

    def test_constructor_rejects_same_year_cycle(self):
        # u and v cite each other and P: ingest would drop the pair, the
        # constructor refuses it rather than fail later in build_idt
        recs = _recs(P=2000, u=2001, v=2001)
        with pytest.raises(CorpusError, match="cycle"):
            CitationCorpus(recs, [("u", "P"), ("v", "P"), ("u", "v"), ("v", "u")])
        corpus = CitationCorpus(recs, [("u", "P"), ("v", "P"), ("u", "v")])
        assert corpus.n_edges == 3


class TestSnapshots:
    def test_cutoff_below_min_year_is_empty(self, toy):
        snap = toy.snapshot(1990)
        assert snap.paper_ids == ()

    def test_cutoff_above_max_year_matches_corpus(self, toy):
        snap = toy.snapshot(2050)
        assert snap.paper_ids == toy.paper_ids
        for pid in toy.paper_ids:
            assert snap.citations_of(pid) == toy.citations_of(pid)

    def test_planted_citation_schedule(self):
        # x (2000) gains one citation per year 2001..2010.
        records = [PaperRecord("x", 2000)] + [PaperRecord(f"c{y}", y) for y in range(2001, 2011)]
        edges = [(f"c{y}", "x") for y in range(2001, 2011)]
        corpus, _ = ingest(edges, records)
        assert corpus.snapshot(2005).citation_count("x") == 5
        assert corpus.snapshot(2000).citation_count("x") == 0
        assert corpus.snapshot(2010).citation_count("x") == 10

    def test_snapshot_hides_unpublished_papers(self, toy):
        snap = toy.snapshot(2001)
        assert snap.has_paper("p1")
        assert not snap.has_paper("p4")
        with pytest.raises(UnknownPaperError):
            snap.citations_of("p4")

    def test_snapshot_citations_subset_and_monotone(self, small_random_corpus):
        corpus = small_random_corpus
        lo, hi = corpus.year_range()
        y1, y2 = lo + 3, lo + 8
        s1, s2 = corpus.snapshot(y1), corpus.snapshot(y2)
        for pid in corpus.paper_ids[::11]:
            all_cits = set(corpus.citations_of(pid))
            c2 = set(s2.citations_of(pid)) if s2.has_paper(pid) else set()
            c1 = set(s1.citations_of(pid)) if s1.has_paper(pid) else set()
            assert c1 <= c2 <= all_cits


# Hypothesis: arbitrary messy streams still produce corpora holding every invariant.
_IDS = [f"h{i}" for i in range(10)]


@st.composite
def raw_streams(draw):
    n = draw(st.integers(2, 10))
    ids = _IDS[:n]
    years = draw(st.lists(st.integers(2000, 2003), min_size=n, max_size=n))
    records = [{"id": ids[i], "year": years[i]} for i in range(n)]
    edges = draw(
        st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=40)
    )
    return records, edges


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw_streams())
def test_ingest_invariants_hold(stream):
    records, edges = stream
    corpus, report = ingest(edges, records)
    years = {p: corpus.year(p) for p in corpus.paper_ids}
    seen = set()
    for citing, cited in corpus.edges():
        assert citing != cited
        assert (citing, cited) not in seen
        seen.add((citing, cited))
        assert years[citing] >= years[cited]
    # acyclic: an independent topological sort must succeed
    graph = {p: set() for p in corpus.paper_ids}
    for citing, cited in corpus.edges():
        graph[citing].add(cited)
    list(TopologicalSorter(graph).static_order())
    # every retained paper is linked
    for pid in corpus.paper_ids:
        assert corpus.citation_count(pid) > 0 or corpus.references_of(pid)
    # preprocessing never increases counts, and every edge is accounted for
    assert report.papers_kept <= report.papers_in
    assert report.edges_kept <= report.edges_in
    accounted = (
        report.edges_kept + report.dropped_self + report.dropped_dup
        + report.dropped_forward + report.dropped_cycle + report.dropped_unknown
        + report.malformed_edges
    )
    assert accounted == report.edges_in
    assert report.papers_kept + report.dropped_isolated + report.malformed_papers == report.papers_in


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=30))
def test_edges_on_cycles_matches_strong_components(pairs):
    # oracle: an edge lies on a cycle iff its two ends share a strongly
    # connected component
    edges = sorted({(f"n{u}", f"n{v}") for u, v in pairs if u != v})
    rows = [int(u[1:]) for u, _ in edges]
    cols = [int(v[1:]) for _, v in edges]
    graph = scipy.sparse.coo_matrix(([1] * len(edges), (rows, cols)), shape=(8, 8))
    _, labels = connected_components(graph, directed=True, connection="strong")
    expected = {(u, v) for (u, v), i, j in zip(edges, rows, cols) if labels[i] == labels[j]}
    assert _edges_on_cycles(edges) == expected


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw_streams())
def test_ingest_is_idempotent(stream):
    records, edges = stream
    corpus, _ = ingest(edges, records)
    again, report = ingest(
        list(corpus.edges()),
        [corpus.record(p) for p in corpus.paper_ids],
    )
    assert again.paper_ids == corpus.paper_ids
    assert list(again.edges()) == list(corpus.edges())
    assert report.edges_in == report.edges_kept
    assert report.papers_in == report.papers_kept


class TestFiles:
    def test_edge_file_round_trip(self, tmp_path, toy):
        path = tmp_path / "edges.tsv"
        write_edge_file(toy, path)
        assert sorted(read_edge_file(path)) == sorted(toy.edges())

    def test_edge_file_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("# comment\nb\ta\n\n  \nc\ta\n", encoding="utf-8")
        assert list(read_edge_file(path)) == [("b", "a"), ("c", "a")]

    def test_file_ingest_round_trip(self, tmp_path, small_random_corpus, corpus_files):
        edges, meta = corpus_files(small_random_corpus)
        corpus, report = ingest_files(edges, meta)
        assert corpus.paper_ids == small_random_corpus.paper_ids
        assert list(corpus.edges()) == list(small_random_corpus.edges())
        assert report.edges_in == report.edges_kept
        # byte-level idempotence of the serialized form
        out_edges = tmp_path / "again_edges.tsv"
        out_meta = tmp_path / "again_meta.jsonl"
        write_edge_file(corpus, out_edges)
        write_metadata_file(corpus, out_meta)
        assert out_edges.read_bytes() == edges.read_bytes()
        assert out_meta.read_bytes() == meta.read_bytes()

    def test_metadata_preserves_venue_and_omits_none(self, tmp_path):
        corpus, _ = ingest(
            [("b", "a")],
            [PaperRecord("a", 2000, "VENUE-2000"), PaperRecord("b", 2001)],
        )
        meta = tmp_path / "meta.jsonl"
        write_metadata_file(corpus, meta)
        lines = meta.read_text(encoding="utf-8").strip().splitlines()
        assert '"venue": "VENUE-2000"' in lines[0]
        assert "venue" not in lines[1]

    def test_malformed_metadata_line_counted(self, tmp_path):
        edges = tmp_path / "e.tsv"
        meta = tmp_path / "m.jsonl"
        edges.write_text("b\ta\n", encoding="utf-8")
        meta.write_text('{"id": "a", "year": 2000}\nnot json\n{"id": "b", "year": 2001}\n')
        corpus, report = ingest_files(edges, meta)
        assert report.malformed_papers == 1
        assert len(corpus) == 2


class TestCache:
    def test_cache_round_trip(self, tmp_path, toy, corpus_files):
        edges, meta = corpus_files(toy)
        digest = file_digest(edges, meta)
        cache = tmp_path / "corpus.cache"
        save_cache(toy, cache, source_hash=digest)
        loaded = load_cache(cache, expect_hash=digest)
        assert loaded is not None
        assert loaded.paper_ids == toy.paper_ids
        assert list(loaded.edges()) == list(toy.edges())
        assert loaded.n_edges == toy.n_edges
        for pid in toy.paper_ids:
            assert loaded.record(pid) == toy.record(pid)
            assert loaded.citations_of(pid) == toy.citations_of(pid)
            assert loaded.references_of(pid) == toy.references_of(pid)

    def test_file_digest_streams_the_concatenation(self, tmp_path):
        # blocks of 1 MiB: a file larger than one block, an empty one, a small one
        parts = [bytes(range(256)) * 5000, b"", b"b\ta\n"]
        paths = []
        for i, data in enumerate(parts):
            paths.append(tmp_path / f"f{i}")
            paths[-1].write_bytes(data)
        expected = hashlib.sha256(b"".join(data + b"\x00" for data in parts)).hexdigest()
        assert file_digest(*paths) == expected

    def test_stale_or_missing_cache_returns_none(self, tmp_path, toy):
        cache = tmp_path / "corpus.cache"
        assert load_cache(cache) is None
        save_cache(toy, cache, source_hash="aaa")
        assert load_cache(cache, expect_hash="bbb") is None
        cache.write_bytes(b"garbage")
        assert load_cache(cache) is None

    def test_format_1_cache_reads_as_stale(self, tmp_path, toy):
        # format 1 held records and edges to rebuild from; it is re-ingested
        cache = tmp_path / "corpus.cache"
        payload = {
            "format": 1,
            "source_hash": "aaa",
            "records": [(r.id, r.year, r.venue) for r in map(toy.record, toy.paper_ids)],
            "edges": list(toy.edges()),
        }
        cache.write_bytes(pickle.dumps(payload))
        assert load_cache(cache, expect_hash="aaa") is None
        assert load_cache(cache) is None
