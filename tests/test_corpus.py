"""Ingest hygiene rules, snapshots, and corpus invariants."""

import hashlib
import json
import pickle
import re
import tempfile
import time
import tracemalloc
from graphlib import TopologicalSorter
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from idtree import corpus as corpus_mod
from idtree.corpus import (
    CACHE_FORMAT,
    YEAR_MAX,
    YEAR_MIN,
    CitationCorpus,
    CorpusError,
    IngestReport,
    PaperRecord,
    UnknownPaperError,
    _edges_on_cycles,
    cache_report,
    derived,
    file_digest,
    ingest,
    ingest_files,
    load_cache,
    save_cache,
    write_edge_file,
    write_metadata_file,
)
from idtree.experiments import _editions
from idtree.synth import gen_random_corpus, toy_corpus
from reference import read_edge_file, read_metadata_file, reference_construct, reference_ingest


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

    def test_year_outside_int32_is_malformed(self):
        # years are stored as int32: a record dated outside it is rejected, not a crash later
        records = [{"id": pid, "year": year} for pid, year in
                   [("a", -2**31), ("b", 2**31 - 1), ("c", 2**31), ("d", -2**31 - 1), ("e", 10**20)]]
        edges = [("b", "a"), ("c", "a"), ("e", "a"), ("b", "d")]
        corpus, report = ingest(edges, records)
        assert report.malformed_papers == 3
        assert report.dropped_unknown == 3
        assert list(corpus.edges()) == [("b", "a")]
        assert corpus.year_range() == (-2**31, 2**31 - 1)

    def test_rules_run_self_then_duplicate_then_unknown_then_forward(self):
        # a repeated self-citation counts only as self, also when its id is
        # unknown; a repeated edge counts once as a duplicate and once under
        # the later rule that drops it
        edges = [("a", "a"), ("a", "a"), ("g", "g"), ("b", "g"), ("b", "g"),
                 ("a", "b"), ("a", "b"), ("b", "a")]
        corpus, report = ingest(edges, _recs(a=2000, b=2001))
        assert (report.dropped_self, report.dropped_dup, report.dropped_unknown,
                report.dropped_forward) == (3, 2, 1, 1)
        assert list(corpus.edges()) == [("b", "a")]

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
        assert corpus.references_of("b") == ("a",)

    def test_citations_of_toy(self, toy):
        assert set(toy.citations_of("P")) == {"p1", "p2", "p3", "p4", "p5"}

    def test_unknown_paper_raises(self, toy):
        with pytest.raises(UnknownPaperError):
            toy.citations_of("nope")
        with pytest.raises(UnknownPaperError):
            toy.snapshot(2005).citations_of("nope")

    @pytest.mark.parametrize("ids", [["a", "ab", "b", "ünï", "日本"], []], ids=["odd-ids", "empty"])
    def test_lookups_match_a_dict(self, ids):
        # a prefix of another id, non-ASCII ids, absent ids before the first,
        # between two and after the last; an id that is no str is never present
        corpus = CitationCorpus([PaperRecord(pid, 2000) for pid in ids], [])
        rows = dict(zip(ids, range(len(ids))))
        absent = ["", "0", "aa", "abc", "ü", "ünïx", "日", "日本語", "\U0010ffff", 5, None, b"a", ("a",)]
        for pid in ids + absent:
            assert corpus.has_paper(pid) == (pid in corpus) == (pid in rows), pid
            if pid in rows:
                assert corpus.row(pid) == rows[pid]
            else:
                with pytest.raises(UnknownPaperError):
                    corpus.row(pid)

    def test_citations_match_naive_edge_scan(self, small_random_corpus):
        corpus = small_random_corpus
        edge_list = list(corpus.edges())
        for pid in corpus.paper_ids[::7]:
            naive = sorted(c for c, cited in edge_list if cited == pid)
            assert corpus.citations_of(pid) == tuple(naive)

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
        with pytest.raises(CorpusError, match="empty corpus"):
            snap.year_range()

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

    @settings(max_examples=25, deadline=None)
    @given(n_papers=st.one_of(st.just(0), st.integers(20, 150)), corpus_seed=st.integers(0, 10_000),
           data=st.data())
    def test_snapshot_is_the_corpus_of_the_papers_by_then(self, n_papers, corpus_seed, data):
        # n_papers = 0 stands for the toy corpus
        corpus = (toy_corpus() if not n_papers else
                  gen_random_corpus(n_papers, years=(1990, 2000), mean_refs=3, followup=0.5, seed=corpus_seed))
        records = [corpus.record(pid) for pid in corpus.paper_ids]
        edges = list(corpus.edges())
        first, last = corpus.year_range()
        for cutoff in range(first - 1, last + 2):   # from a year before the first paper
            snap = corpus.snapshot(cutoff)
            want = CitationCorpus([r for r in records if r.year <= cutoff],
                                  [(u, v) for u, v in edges if corpus.year(u) <= cutoff])
            _assert_same_corpus(snap, want)
            assert snap.venue_names == corpus.venue_names
            other = data.draw(st.integers(first - 1, last + 1))
            _assert_same_corpus(snap.snapshot(other), corpus.snapshot(min(cutoff, other)))


_EXTREME_YEARS = [YEAR_MIN, YEAR_MIN + 1, 1999, 2000, YEAR_MAX - 1, YEAR_MAX]


@st.composite
def year_heavy_streams(draw):
    """Records over few years, the int32 extremes among them, so many papers
    share a year; ids are named in random order; edges between any two."""
    n = draw(st.integers(1, 30))
    names = draw(st.permutations([f"p{i:02d}" for i in range(n)]))
    records = [PaperRecord(pid, draw(st.sampled_from(_EXTREME_YEARS)), draw(st.none() | st.sampled_from(_VENUES)))
               for pid in names]
    edges = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=80))
    return records, edges


def _citer_keys(corpus):
    """The "citers" memo once `citations_of` and `citation_count` have read every
    paper's citers; None for a corpus without papers, which never builds it."""
    for pid in corpus.paper_ids:
        assert corpus.citation_count(pid) == len(corpus.citations_of(pid))
    return derived(corpus).get("citers")


def _assert_citers_match_lexsort(corpus):
    n, years, src, dst = len(corpus), corpus.years, corpus.cites, corpus.refs
    key = _citer_keys(corpus)
    if n:
        assert key.dtype == np.int64
        assert (key % n).tolist() == src[np.lexsort((src, dst))].tolist()
        assert (key // n).tolist() == np.sort(dst).tolist()
    else:
        assert key is None
    # editions: distinct (venue, year) keys in order; each paper with a venue
    # in row order, and grouped by edition it is in id order within each
    rows = np.flatnonzero(corpus.venues >= 0)
    codes, edition_years, members, edition = _editions(corpus)
    keys = list(zip(codes.tolist(), edition_years.tolist()))
    assert keys == sorted(set(keys))
    assert members.tolist() == rows.tolist()
    assert codes[edition].tolist() == corpus.venues[rows].tolist()
    assert edition_years[edition].tolist() == years[rows].tolist()
    grouped = members[np.argsort(edition, kind="stable")]
    assert grouped.tolist() == rows[np.lexsort((rows, years[rows], corpus.venues[rows]))].tolist()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(year_heavy_streams())
def test_citer_order_matches_lexsort_reference(tmp_path, stream):
    # citers are ordered by (cited, citer row) however the corpus
    # was built: by ingest, by load_cache and by snapshot
    corpus, _ = ingest(stream[1], stream[0])
    cache = tmp_path / "corpus.cache"
    save_cache(corpus, cache, source_hash="", report=IngestReport())
    loaded = load_cache(cache)
    assert loaded is not None
    for built in (corpus, loaded, *map(corpus.snapshot, sorted(set(corpus.years.tolist())))):
        _assert_citers_match_lexsort(built)


def _every_build(tmp_path, stream, seed) -> list[CitationCorpus]:
    """The corpus of `stream` built by ingest, the constructor, ingest_files, load_cache
    and snapshot, and a random corpus of `seed`."""
    corpus, _ = ingest(stream[1], stream[0])
    edges, meta, cache = tmp_path / "e.tsv", tmp_path / "m.jsonl", tmp_path / "corpus.cache"
    write_edge_file(corpus, edges)
    write_metadata_file(corpus, meta)
    save_cache(corpus, cache, source_hash="", report=IngestReport())
    return [corpus, CitationCorpus(map(corpus.record, corpus.paper_ids), corpus.edges()),
            ingest_files(edges, meta)[0], load_cache(cache),
            *map(corpus.snapshot, sorted(set(corpus.years.tolist()))),
            gen_random_corpus(60, years=(1990, 2000), mean_refs=3, followup=0.5, seed=seed)]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(year_heavy_streams(), st.integers(0, 10_000))
def test_cites_is_each_edges_citing_row(tmp_path, stream, seed):
    for built_corpus in _every_build(tmp_path, stream, seed):
        cites = built_corpus.cites
        assert cites.dtype == np.int32 and not cites.flags.writeable
        assert cites.tolist() == [built_corpus.row(citing) for citing, _ in built_corpus.edges()]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(year_heavy_streams(), st.integers(0, 10_000))
def test_lookups_match_a_scan_of_the_edges(tmp_path, stream, seed):
    # every paper, so the first and the last row; the random corpus, built last,
    # always has papers without references and papers without citers
    for corpus in _every_build(tmp_path, stream, seed):
        refs, citers = {pid: [] for pid in corpus.paper_ids}, {pid: [] for pid in corpus.paper_ids}
        for citing, cited in corpus.edges():
            refs[citing].append(cited)
            citers[cited].append(citing)
        for pid in corpus.paper_ids:
            assert corpus.references_of(pid) == tuple(sorted(refs[pid]))
            assert corpus.citations_of(pid) == tuple(sorted(citers[pid]))
            assert corpus.citation_count(pid) == len(citers[pid])
    assert [] in refs.values() and [] in citers.values()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(year_heavy_streams(), st.integers(0, 10_000))
def test_citer_csr_is_built_on_first_use(tmp_path, stream, seed):
    # however the corpus was built, its citer keys are sorted by the first
    # read, once, and kept read-only
    for corpus in _every_build(tmp_path, stream, seed):
        assert "citers" not in derived(corpus)
        n, cites, refs = len(corpus), corpus.cites, corpus.refs
        memo = _citer_keys(corpus)
        if not n:
            assert memo is None
            continue
        assert _citer_keys(corpus) is memo
        assert memo.dtype == np.int64 and not memo.flags.writeable
        assert memo.tolist() == np.sort(refs.astype(np.int64) * n + cites).tolist()


def _assert_same_corpus(a, b):
    assert a.paper_ids == b.paper_ids
    assert list(a.edges()) == list(b.edges())
    for pid in a.paper_ids:
        assert a.record(pid) == b.record(pid)
        assert a.citations_of(pid) == b.citations_of(pid)
        assert a.references_of(pid) == b.references_of(pid)


# Hypothesis: arbitrary messy streams still produce corpora holding every invariant.
_IDS = [f"h{i}" for i in range(10)]
_GHOSTS = ["g0", "g1", "h"]     # named by edges, never by a record
_VENUES = ["V-2000", "V-2001", "W-2000"]
_BAD_RECORDS = [{"id": "h1"}, {"id": "", "year": 2000}, {"id": "h2", "year": "2000"}, "h3",
                {"id": 7, "year": 2000}, {"id": "h4", "year": True}, {"id": "h5", "year": 2**31},
                {"id": "h6", "year": 2001, "venue": 5}]
_BAD_EDGES = [("h0",), ("h0", "h1", "h2"), ("", "h0"), ("h1", ""), 17, "h1h0", ("h1", 0)]


@st.composite
def raw_streams(draw):
    """Records (`PaperRecord`s and dicts, some malformed or repeated, some with
    venues) and edges (some malformed, some to unknown ids, some repeated)."""
    n = draw(st.integers(2, 10))
    ids = _IDS[:n]
    records = []
    for pid in ids:
        year = draw(st.integers(2000, 2003))
        venue = draw(st.none() | st.sampled_from(_VENUES))
        if draw(st.booleans()):
            records.append(PaperRecord(pid, year, venue))
        else:
            records.append({"id": pid, "year": year, **({} if venue is None else {"venue": venue})})
    records += draw(st.lists(st.sampled_from(_BAD_RECORDS), max_size=3))
    records += draw(st.lists(st.builds(PaperRecord, st.sampled_from(ids), st.integers(2000, 2003)), max_size=2))
    ends = st.sampled_from(ids + _GHOSTS[:draw(st.integers(0, len(_GHOSTS)))])
    edges = draw(st.lists(st.tuples(ends, ends) | st.lists(ends, min_size=2, max_size=2), max_size=40))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=10))
    edges += draw(st.lists(st.sampled_from(_BAD_EDGES), max_size=3))
    return draw(st.permutations(records)), draw(st.permutations(edges))


def _layout(corpus):
    """Everything a corpus stores: ids, venue names and its arrays, and each paper's references and citers."""
    return (corpus.paper_ids, corpus.venue_names,
            *(a.tolist() for a in (corpus.years, corpus.venues, corpus.cites, corpus.refs)),
            *(tuple(map(lookup, corpus.paper_ids)) for lookup in (corpus.references_of, corpus.citations_of)))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw_streams())
def test_ingest_matches_per_edge_reference(stream):
    records, edges = stream
    corpus, report = ingest(edges, records)
    expected_report, arrays = reference_ingest(edges, records)
    assert report == expected_report
    assert _layout(corpus) == _layout(CitationCorpus._from_arrays(*arrays))


@pytest.mark.parametrize("order", [slice(None, None, -1), [0, 1, 3, 2, 4, 5, 6, 7, 8, 9]],
                         ids=["citing-rows-reversed", "cited-rows-swapped"])
def test_fill_refuses_edges_out_of_row_order(toy, order):
    # the toy's clean edges, reordered: rows (3, 0) and (3, 1) swap in the second case
    arrays = toy.paper_ids, toy.venue_names, toy.years, toy.venues
    assert _layout(CitationCorpus._from_arrays(*arrays, toy.cites, toy.refs.copy())) == _layout(toy)
    with pytest.raises(CorpusError, match="not clean"):
        CitationCorpus._from_arrays(*arrays, toy.cites[order], toy.refs[order])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw_streams(), st.booleans())
def test_constructor_rejects_what_the_reference_rejects(stream, linked_only):
    records, edges = stream
    if linked_only:
        # the ingested streams are clean, so the constructor takes them
        corpus, _ = ingest(edges, records)
        records, edges = [corpus.record(p) for p in corpus.paper_ids], list(corpus.edges())
    dirty, arrays = reference_construct(records, edges)
    if dirty:
        with pytest.raises(CorpusError, match=re.escape(f"({', '.join(dirty)})")):
            CitationCorpus(records, edges)
    else:
        assert _layout(CitationCorpus(records, edges)) == _layout(CitationCorpus._from_arrays(*arrays))


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
    assert _edges_on_cycles(edges) == (labels[rows] == labels[cols]).tolist()


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


# Ids of 7, 8, 9 and 17 bytes, prefixes of one another, non-ASCII, with a NUL or
# a space, and a lone surrogate (JSON escapes it, UTF-8 cannot hold it).  The
# ghosts name no record.
_FILE_IDS = ["abcdefg", "abcdefgh", "abcdefghi", "abcdefghijklmnopq", "ab", "é", "日本語", "ab\x00",
             "a b", " a", "x#", "\ud800"]
_FILE_GHOSTS = ["abcdefgx", "abcdefghijklmnopqrstuvwxyz", "zz"]
_FILE_VENUES = ["V-2000", "", "Vénue", "a\"b", "VENUE-LONGER-THAN-SIXTEEN", "V" * 64, "Vénue-" * 10]
_ODD_EDGE_LINES = ["", "\t", "\t\t", "# a\tb", "  # c", "\u00a0", "\u3000", " ", "a", "a\tb\tc",
                   "\tb", "a\t", "\ufeffab\tabcdefg"]
_ODD_META_LINES = ["", "   ", "\u00a0", "\u3000", "not json", '{"id": "abcdefg"', '["ab", 2000]',
                   '{"id": "ab", "year": 2000.0}', '{"id": "ab", "year": true}', '{"id": "ab", "year": "2000"}',
                   '{"id": "ab", "year": 12345678901}', '{"id": "ab", "year": 9999999999}',
                   '{"id": "ab", "year": -2147483649}', '{"id": "", "year": 2000}', '{"id": "é", "year": 2000, "venue": 5}']


def _json_str(draw, text):
    return json.dumps(text, ensure_ascii=draw(st.booleans()))


@st.composite
def raw_files(draw):
    """Edge and metadata file bytes mixing the common line shapes with odd ones."""
    meta = []
    for pid in draw(st.lists(st.sampled_from(_FILE_IDS), max_size=14)):
        year = draw(st.sampled_from([2000, 2001, 2002, -0, 0, -5, YEAR_MIN, YEAR_MAX]))
        venue = draw(st.none() | st.sampled_from(_FILE_VENUES))
        shape = draw(st.integers(0, 4))
        if shape == 0:   # the benchmark's writer
            text = (f'{{"id": {_json_str(draw, pid)}, "year": {year}, '
                    f'"venue": {"null" if venue is None else _json_str(draw, venue)}}}')
        elif shape == 1:   # write_metadata_file
            obj = {"id": pid, "year": year, **({} if venue is None else {"venue": venue})}
            text = json.dumps(obj, sort_keys=True, ensure_ascii=draw(st.booleans()))
        elif shape == 2:   # other JSON layouts
            text = json.dumps({"year": year, "id": pid, "venue": venue}, separators=(",", ":"))
        elif shape == 3:
            text = f'  {{"id": {_json_str(draw, pid)}, "year": {year}}} '
        else:
            text = f'{{"id": {_json_str(draw, pid)}, "year": -0, "venue": null}}'
        meta.append(text)
    meta += draw(st.lists(st.sampled_from(_ODD_META_LINES), max_size=4))
    ends = st.sampled_from([pid for pid in _FILE_IDS if pid != "\ud800"] + _FILE_GHOSTS)
    edges = [f"{a}\t{b}" for a, b in draw(st.lists(st.tuples(ends, ends), max_size=30))]
    edges += draw(st.lists(st.sampled_from(_ODD_EDGE_LINES), max_size=5))
    files = []
    for lines in (draw(st.permutations(meta)), draw(st.permutations(edges))):
        # line ends: \n, \r\n, \r\n and a blank line, or a bare \r, which the readers
        # take as a line end and the array lane sees inside a line
        ends = [draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\r\n\n"])) for _ in lines]
        text = "".join(line + end for line, end in zip(lines, ends))
        if text and draw(st.booleans()):
            text = text.rstrip("\r\n")
        data = text.encode("utf-8", "surrogatepass")
        files.append(b"\xef\xbb\xbf" + data if draw(st.booleans()) else data)
    return files


def _pairs(src, dst):
    return sorted(zip(src.tolist(), dst.tolist()))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw_files())
def test_file_ingest_matches_per_line_reference(files):
    meta_bytes, edge_bytes = files
    with tempfile.TemporaryDirectory() as tmp:
        meta, edges = Path(tmp) / "m.jsonl", Path(tmp) / "e.tsv"
        meta.write_bytes(meta_bytes)
        edges.write_bytes(edge_bytes)
        try:
            expected_report, expected = reference_ingest(list(read_edge_file(edges)), list(read_metadata_file(meta)))
        except UnicodeDecodeError:   # a lone surrogate id written raw is not UTF-8
            with pytest.raises(UnicodeDecodeError):
                ingest_files(edges, meta)
            return
        filled = []
        fill = CitationCorpus._fill
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(CitationCorpus, "_fill", lambda self, *arrays: (filled.append(arrays), fill(self, *arrays)))
            corpus, report = ingest_files(edges, meta)
    assert report == expected_report
    (ids, names, years, venues, src, dst), = filled
    assert (ids, names) == (expected[0], expected[1])
    for got, want in zip((years, venues), expected[2:4]):
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert _pairs(src, dst) == _pairs(*expected[4:])
    assert _layout(corpus) == _layout(CitationCorpus._from_arrays(*expected))


def test_file_ingest_across_blocks_matches_reference(tmp_path):
    # files of several read blocks, with odd lines and \r\n pairs near every boundary
    rng = np.random.default_rng(5)
    ids = [f"q{i:06d}" for i in range(30000)]
    years = rng.integers(1990, 2000, len(ids)).tolist()
    meta_lines = [json.dumps({"id": p, "year": y, "venue": f"V{y}" if y % 3 else None}) for p, y in zip(ids, years)]
    meta_lines += [json.dumps({"id": p, "venue": "W", "year": 1980}, sort_keys=True) for p in ids[::7]]
    edge_lines = [f"{ids[a]}\t{ids[b]}" for a, b in rng.integers(0, len(ids), (60000, 2)).tolist()]
    edge_lines += [f"ghost{i}\t{ids[i]}" for i in range(0, 30000, 11)]
    for lines, odd in ((meta_lines, ["# x", "not json", '{"id": "q000001", "year":1}', "\u00a0"]),
                       (edge_lines, ["# x", "a", "a\tb\tc", "\u3000", " q000003\tq000001"])):
        for i in range(0, len(lines), 97):
            lines[i] = odd[i % len(odd)] if i % 3 else lines[i] + "\r"
    edges, meta = tmp_path / "e.tsv", tmp_path / "m.jsonl"
    edges.write_text("\n".join(edge_lines) + "\n", encoding="utf-8")
    meta.write_text("\r\n".join(meta_lines), encoding="utf-8")
    assert edges.stat().st_size > 3 << 18 and meta.stat().st_size > 3 << 18
    corpus, report = ingest_files(edges, meta)
    expected_report, expected = reference_ingest(list(read_edge_file(edges)), list(read_metadata_file(meta)))
    assert report == expected_report
    assert _layout(corpus) == _layout(CitationCorpus._from_arrays(*expected))


def test_file_ingest_codes_int32_within_its_memory_bound(tmp_path, monkeypatch):
    corpus = gen_random_corpus(20000, (1960, 2010), mean_refs=3, followup=0.3, seed=7)
    edges, meta = tmp_path / "e.tsv", tmp_path / "m.jsonl"
    write_edge_file(corpus, edges)
    write_metadata_file(corpus, meta)
    del corpus
    ends = []
    clean = corpus_mod._clean
    with monkeypatch.context() as patch:
        patch.setattr(corpus_mod, "_clean", lambda read, prune: ends.append(read[-1]) or clean(read, prune))
        assert ingest_files(edges, meta)[0].n_edges == 62232
    assert [a.dtype for a in ends] == [np.int32] and len(ends[0]) == 2 * 62232
    del ends
    # measured on a second call, as the first also sets up about 1 MiB of one-off
    # state: its tracemalloc peak read 5.93 MiB, and 6.72 MiB when the reader
    # coded ids as int64 and every corpus sorted its citers at once
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ingest_files(edges, meta)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 6.3 * 2**20


@pytest.mark.parametrize("long_id", ["L" * 5000, "abcdefgh" * 40 + "é"])
def test_files_with_very_long_strings_match_reference(tmp_path, long_id):
    # one id far longer than the rest (a ranked key row), and long venues and
    # unknown ids, all in the array lane
    ids = [f"r{i:03d}" for i in range(200)]
    meta_lines = [json.dumps({"id": p, "year": 2000 + i % 3, "venue": "V" * (i % 90)}) for i, p in enumerate(ids)]
    edge_lines = [f"{ids[i]}\t{ids[i // 2]}" for i in range(1, 200)]
    edge_lines += [f"{ids[5]}\t{'G' * n}" for n in (9, 700, 700, 3000)] + [f"{long_id}\t{ids[3]}"]
    edges, meta = tmp_path / "e.tsv", tmp_path / "m.jsonl"
    edges.write_text("\n".join(edge_lines) + "\n", encoding="utf-8")
    for extra in ([], [json.dumps({"id": long_id, "year": 2003})]):
        meta.write_text("\n".join(meta_lines + extra) + "\n", encoding="utf-8")
        corpus, report = ingest_files(edges, meta)
        expected_report, expected = reference_ingest(list(read_edge_file(edges)), list(read_metadata_file(meta)))
        assert report == expected_report
        assert _layout(corpus) == _layout(CitationCorpus._from_arrays(*expected))


def _key_rows(monkeypatch) -> list:
    """The record key rows, as columns, of each later ingest."""
    columns, codes = [], corpus_mod._codes
    monkeypatch.setattr(corpus_mod, "_codes", lambda chunks, report, cols, ranks: (
        columns.append(cols), codes(chunks, report, cols, ranks))[1])
    return columns


@pytest.mark.parametrize("writer, long_id", [(writer, long_id) for long_id in (None, "L" * 57)
                                             for writer in ("write_metadata_file", "benchmark")],
                         ids=["write_metadata_file", "benchmark", "write_metadata_file-long-id", "benchmark-long-id"])
def test_common_metadata_lines_never_reach_the_per_line_reader(tmp_path, monkeypatch, writer, long_id):
    # every venue length and year the array lane takes, in the layouts of both writers,
    # with -0 years written by hand in both key orders; neither one long id nor the
    # common edge lines send a line to the per-line readers
    venues = [None, "", "V" * 63, "W" * 64, "X" * 200]
    years = [1999, -7, YEAR_MIN, YEAR_MAX]
    records = [PaperRecord(f"p{i:02d}" + "abcdefghijklmnopq"[:i % 18], year, venue)
               for i, (year, venue) in enumerate((y, v) for y in years for v in venues)]
    records += [PaperRecord(long_id, 2000, "V")] if long_id else []
    zero = [PaperRecord("z0", 0, None), PaperRecord("z1", 0, "V"), PaperRecord("z2", 0, "")]
    zero_lines = ['{"id": "z0", "year": -0, "venue": null}', '{"id": "z1", "venue": "V", "year": -0}',
                  '{"id": "z2", "year": -0, "venue": ""}']
    root = records[2 * len(venues)].id   # dated YEAR_MIN, so every other paper may cite it
    edges = [(r.id, root) for r in records + zero if r.id != root]
    edge_path, meta = tmp_path / "e.tsv", tmp_path / "m.jsonl"
    edge_path.write_text("".join(f"{a}\t{b}\n" for a, b in edges), encoding="utf-8")
    if writer == "write_metadata_file":
        write_metadata_file(CitationCorpus(records, edges[:len(records) - 1]), meta)
    else:   # as bench/inputs.py writes its files
        meta.write_text("".join(json.dumps({"id": r.id, "year": r.year, "venue": r.venue}) + "\n" for r in records),
                        encoding="utf-8")
    with open(meta, "a", encoding="utf-8") as fh:
        fh.write("\n".join(zero_lines) + "\n")
    expected_report, expected = reference_ingest(edges, records + zero)

    def per_line(lines):
        raise AssertionError(f"read line by line: {list(lines)}")

    monkeypatch.setattr(corpus_mod, "_meta_items", per_line)
    monkeypatch.setattr(corpus_mod, "_edge_fields", per_line)
    key_rows = _key_rows(monkeypatch)
    corpus, report = ingest_files(edge_path, meta)
    assert report == expected_report and report.papers_kept == len(records) + len(zero)
    assert _layout(corpus) == _layout(CitationCorpus._from_arrays(*expected))
    # the short ids, of up to 20 bytes, set the words of every row; only the long id has a rank
    (columns,) = key_rows
    assert len(columns) == 3 + 1 and set((columns[-1] >> 32).tolist()) == ({0, 1} if long_id else {0})


@pytest.mark.parametrize("size", [1, 7, 8, 9, 17, 64, 100, 128, 129, 136, 200])
def test_equal_width_ids_keep_their_words_and_take_no_rank(tmp_path, monkeypatch, size):
    # a file whose ids all have one length keeps one word per 8 bytes, and no rank bits,
    # however long the ids: a ranked id would hold its words again in the rank dict
    ids = [f"{i:0{size}d}" for i in range(10 if size == 1 else 300)]
    corpus = CitationCorpus([PaperRecord(pid, 2000 + i % 2) for i, pid in enumerate(ids)],
                            [(ids[i], ids[i - 1]) for i in range(1, len(ids), 2)])
    edges, meta = tmp_path / "e.tsv", tmp_path / "m.jsonl"
    write_edge_file(corpus, edges)
    write_metadata_file(corpus, meta)
    key_rows = _key_rows(monkeypatch)
    assert _layout(ingest_files(edges, meta)[0]) == _layout(corpus)
    (columns,) = key_rows
    assert len(columns) == -(-size // 8) + 1 and (columns[-1] == size).all()


# Characters of the long ids: shared stems of these give long common prefixes.
_STEM = st.sampled_from(["a", "b", "\x00", "é", "日", "😀"])


def _utf8_cut(text: str, size: int) -> str:
    """The longest prefix of `text` of at most `size` UTF-8 bytes."""
    return text.encode("utf-8", "surrogatepass")[:size].decode("utf-8", "ignore")


@st.composite
def long_id_inputs(draw):
    """Records and edges of 64-400 short ids and 3-17 long ones of up to 300 bytes.
    The long ids share stems, so many share their first words, and some extend a
    short id with NULs; short ids of up to 8 bytes cut from a long id and padded
    with NULs are records too.  Some long records repeat, and some long ids name
    no record.  Ids with lone surrogates are kept apart, for the iterable inputs."""
    short = [f"s{i:06d}" for i in range(draw(st.integers(64, 400)))]
    stems = draw(st.lists(st.text(_STEM, min_size=1, max_size=80), min_size=1, max_size=3))
    longs = []
    for _ in range(draw(st.integers(3, 17))):
        head = draw(st.sampled_from(stems) | st.sampled_from(short).map(lambda pid: pid + "\x00" * 5))
        tail = draw(st.text(_STEM | st.characters(exclude_characters="\t\n\r"), min_size=1, max_size=60))
        longs.append(_utf8_cut(head * draw(st.integers(1, 4)) + tail, draw(st.integers(9, 300))))
    cut = [_utf8_cut(pid, draw(st.integers(0, 7))) for pid in draw(st.lists(st.sampled_from(longs), max_size=6))]
    cut = [pid + "\x00" * draw(st.integers(0 if pid else 1, 8 - len(pid.encode()))) for pid in cut]
    ghosts = draw(st.lists(st.sampled_from(longs), max_size=4))   # long ids that name no record
    odd = [f"sur\ud800{i}" + "x" * draw(st.integers(0, 30)) for i in range(draw(st.integers(0, 3)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))   # years, venues, repeats and edges
    ids = short + cut + [pid for pid in longs if pid not in ghosts] + odd
    ids += rng.choice(ids[len(short):] or short, rng.integers(0, 6)).tolist()   # repeated records
    records = [PaperRecord(pid, int(year), venue) for pid, year, venue in zip(
        ids, rng.integers(1999, 2002, len(ids)).tolist(), rng.choice([None, "V"], len(ids)).tolist())]
    pools = (short, cut + longs + odd)   # each edge end comes from one of the two
    ends = [pools[side][i % len(pools[side])]
            for side, i in zip(rng.integers(0, 2, 600).tolist(), rng.integers(0, 1 << 20, 600).tolist())]
    edges = list(zip(ends[0::2], ends[1::2]))[:rng.integers(0, 301)]
    return [records[i] for i in rng.permutation(len(records))], edges, odd


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(long_id_inputs(), st.booleans())
def test_long_ids_match_reference(inputs, ascii_json):
    # through the files of `ingest_files`, and through `ingest` and the constructor on iterables
    records, edges, odd = inputs
    corpus, report = ingest(edges, records)
    expected_report, expected = reference_ingest(edges, records)
    assert report == expected_report
    assert _layout(corpus) == _layout(CitationCorpus._from_arrays(*expected))
    dirty, arrays = reference_construct(records, edges)
    if dirty:
        with pytest.raises(CorpusError, match=re.escape(f"({', '.join(dirty)})")):
            CitationCorpus(records, edges)
    else:
        assert _layout(CitationCorpus(records, edges)) == _layout(CitationCorpus._from_arrays(*arrays))
    # no file holds a lone surrogate raw, so the files leave out the ids that hold one
    records = [r for r in records if r.id not in odd]
    edges = [e for e in edges if not set(e) & set(odd)]
    with tempfile.TemporaryDirectory() as tmp:
        meta, edge_path = Path(tmp) / "m.jsonl", Path(tmp) / "e.tsv"
        meta.write_text("".join(json.dumps({"id": r.id, "year": r.year, "venue": r.venue}, ensure_ascii=ascii_json)
                                + "\n" for r in records), encoding="utf-8")
        edge_path.write_text("".join(f"{a}\t{b}\n" for a, b in edges), encoding="utf-8")
        corpus, report = ingest_files(edge_path, meta)
        expected_report, expected = reference_ingest(list(read_edge_file(edge_path)), list(read_metadata_file(meta)))
    assert report == expected_report
    assert _layout(corpus) == _layout(CitationCorpus._from_arrays(*expected))


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

    def test_leading_byte_order_mark_is_ignored(self, tmp_path, toy):
        edges, meta = tmp_path / "edges.tsv", tmp_path / "meta.jsonl"
        write_edge_file(toy, edges)
        write_metadata_file(toy, meta)
        plain = ingest_files(edges, meta)
        for path in (edges, meta):
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        corpus, report = ingest_files(edges, meta)
        assert report == plain[1]
        assert report.edges_kept == len(list(toy.edges())) and report.malformed_papers == 0
        _assert_same_corpus(corpus, plain[0])

    @pytest.mark.parametrize("edge_lines, meta_line", [
        (b"b\ta\xff\n", b'{"id": "a", "year": 2000}\n'),
        (b"b\ta\n", b'{"id": "a\xc3", "year": 2000}\n'),
        (b"b\ta\n", b'{"id": "a", "venue": "V\xed\xa0\x80", "year": 2000}\n'),
    ])
    def test_invalid_utf8_in_a_common_line_raises(self, tmp_path, edge_lines, meta_line):
        # lines of the common shapes are not parsed one by one, yet must be decoded
        edges, meta = tmp_path / "e.tsv", tmp_path / "m.jsonl"
        edges.write_bytes(b"c\ta\n" + edge_lines)
        meta.write_bytes(b'{"id": "b", "year": 2001}\n' + meta_line + b'{"id": "c", "year": 2002}\n')
        with pytest.raises(UnicodeDecodeError):
            ingest_files(edges, meta)

    def test_malformed_metadata_line_counted(self, tmp_path):
        edges = tmp_path / "e.tsv"
        meta = tmp_path / "m.jsonl"
        edges.write_text("b\ta\n", encoding="utf-8")
        meta.write_text('{"id": "a", "year": 2000}\nnot json\n{"id": "b", "year": 2001}\n')
        corpus, report = ingest_files(edges, meta)
        assert report.malformed_papers == 1
        assert len(corpus) == 2

    def test_record_of_a_split_odd_line_wins_over_a_later_line(self, tmp_path):
        # the per-line reader splits the first line at its \r into the records of a and b;
        # b's record there, not the later common-shape one, is kept, so b -> a stays
        edges, meta = tmp_path / "e.tsv", tmp_path / "m.jsonl"
        edges.write_text("b\ta\nc\tb\n", encoding="utf-8")
        meta.write_text('{"id": "a", "year": 2000}\r{"id": "b", "year": 2001}\n\n'
                        '{"id": "b", "year": 1990}\n{"id": "c", "year": 2002}\n', encoding="utf-8")
        corpus, report = ingest_files(edges, meta)
        expected, expected_report = ingest(read_edge_file(edges), read_metadata_file(meta))
        assert report == expected_report
        assert (report.malformed_papers, report.edges_kept, corpus.year("b")) == (1, 2, 2001)
        _assert_same_corpus(corpus, expected)


# Id characters that push the cache's separator past its first candidates.
_ID_CHARS = st.sampled_from("\n\x0b\x0c\r\x00\ud800\udfffa,") | st.characters()


class TestCache:
    def test_cache_round_trip(self, tmp_path, toy, corpus_files):
        edges, meta = corpus_files(toy)
        digest = file_digest(edges, meta)
        cache = tmp_path / "corpus.cache"
        save_cache(toy, cache, source_hash=digest, report=IngestReport())
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
        # blocks of 1 MiB: a file larger than one block, an empty one, a small one, one of
        # exactly one block, and one a byte longer, whose last read fills 1 byte of the buffer
        block = bytes(range(256)) * 4096
        parts = [bytes(range(256)) * 5000, b"", b"b\ta\n", block, block + b"x", b"", block]
        paths = []
        for i, data in enumerate(parts):
            paths.append(tmp_path / f"f{i}")
            paths[-1].write_bytes(data)
        expected = hashlib.sha256(b"".join(data + b"\x00" for data in parts)).hexdigest()
        assert file_digest(*paths) == expected

    def test_stale_or_missing_cache_returns_none(self, tmp_path, toy):
        cache = tmp_path / "corpus.cache"
        assert load_cache(cache) is None
        save_cache(toy, cache, source_hash="aaa", report=IngestReport())
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

    def test_format_2_cache_reads_as_stale(self, tmp_path, toy):
        # format 2 pickled a corpus whose references were frozensets
        cache = tmp_path / "corpus.cache"
        cache.write_bytes(pickle.dumps({"format": 2, "source_hash": "aaa", "corpus": toy}))
        assert load_cache(cache, expect_hash="aaa") is None
        assert load_cache(cache) is None

    def test_format_3_cache_reads_as_stale(self, tmp_path, toy):
        # format 3 pickled the corpus object
        cache = tmp_path / "corpus.cache"
        cache.write_bytes(pickle.dumps({"format": 3, "source_hash": "aaa", "corpus": toy}))
        assert load_cache(cache, expect_hash="aaa") is None
        assert load_cache(cache) is None

    def test_format_4_cache_reads_as_stale(self, tmp_path, toy, format_4_cache):
        # format 4 held the ids in its JSON header; it is re-ingested
        cache = tmp_path / "corpus.cache"
        cache.write_bytes(format_4_cache(toy, "aaa"))
        assert load_cache(cache, expect_hash="aaa") is None
        assert load_cache(cache) is None

    def test_format_5_cache_reads_as_stale(self, tmp_path, toy, format_5_cache):
        # format 5 held the venue names in its JSON header; it is re-ingested
        cache = tmp_path / "corpus.cache"
        cache.write_bytes(format_5_cache(toy, "aaa"))
        assert load_cache(cache, expect_hash="aaa") is None
        assert load_cache(cache) is None

    def test_format_6_cache_reads_as_stale(self, tmp_path, toy, format_6_cache):
        # format 6 held no ingest report, so a cache hit could not restore ingest_report.json
        cache = tmp_path / "corpus.cache"
        cache.write_bytes(format_6_cache(toy, "aaa"))
        assert load_cache(cache, expect_hash="aaa") is None
        assert load_cache(cache) is None
        # the same arrays under today's format read back, with their report
        save_cache(toy, cache, source_hash="aaa", report=IngestReport())
        assert _layout(load_cache(cache, expect_hash="aaa")) == _layout(toy)
        assert cache_report(cache) == IngestReport()

    def test_cache_keeps_the_ingest_report(self, tmp_path, toy, corpus_files):
        corpus, report = ingest_files(*corpus_files(toy))
        cache = tmp_path / "corpus.cache"
        save_cache(corpus, cache, source_hash="aaa", report=report)
        assert load_cache(cache, expect_hash="aaa") is not None
        assert cache_report(cache) == report and report.papers_kept == len(toy)

    @pytest.mark.parametrize("fmt", [3, 4, 5, 6, CACHE_FORMAT])
    def test_planted_pickle_is_never_run(self, tmp_path, planted_pickle, fmt):
        marker = tmp_path / "PWNED"
        cache = tmp_path / "corpus.cache"
        cache.write_bytes(planted_pickle(marker, fmt, "aaa"))
        assert load_cache(cache, expect_hash="aaa") is None
        assert not marker.exists()

    def test_truncated_cache_reads_as_stale(self, tmp_path, toy):
        cache = tmp_path / "corpus.cache"
        save_cache(toy, cache, source_hash="aaa", report=IngestReport())
        data = cache.read_bytes()
        for cut in (0, 10, 200, len(data) // 2, len(data) - 1):
            cache.write_bytes(data[:cut])
            assert load_cache(cache, expect_hash="aaa") is None, cut

    # Arrays of the toy cache: header, name block, years, venue codes, citing rows, cited rows.
    # Its ids are P, p1, ..., p5 and its one venue, TOY-2000, is at code 0. Its edges run
    # (p1, P), (p2, P), (p3, P), ... with P at row 0; p1 and p2 share a year.
    @pytest.mark.parametrize("damage", [
        lambda a: a[5].__setitem__(0, 6),
        lambda a: a[4].__setitem__(0, -1),
        lambda a: a[5].__setitem__(0, 1),
        lambda a: a[4].__setitem__(1, 1),
        lambda a: (a[4].__setitem__(0, 0), a[5].__setitem__(0, 1)),
        lambda a: (a[5].__setitem__(0, 2), a[5].__setitem__(1, 1)),
        lambda a: a[3].__setitem__(0, 1),
        lambda a: a.__setitem__(2, a[2].astype(np.int64)),
        lambda a: a.__setitem__(5, a[5][:-1]),
        lambda a: a.__setitem__(1, _block(["p5", "p4", "p3", "p2", "p1", "P", "TOY-2000"])),
        lambda a: a[1].__setitem__(0, 0xFF),
        lambda a: a.__setitem__(0, _header(a[0], format=3)),
        lambda a: a[4].__setitem__(slice(0, 2), [2, 1]),
        lambda a: (a.__setitem__(1, _block(["P", "p1", "p2", "p3", "p4", "p5", "q", "TOY-2000"])),
                   a.__setitem__(0, _header(a[0], ids=7))),
        lambda a: a.__setitem__(0, _header(a[0], sep="")),
        lambda a: a.__setitem__(0, _header(a[0], sep=10)),
        lambda a: a[1].__setitem__(-2, 0xFF),
        lambda a: a.__setitem__(0, _header(a[0], ids=8)),
        lambda a: a.__setitem__(0, _header(a[0], ids=-1)),
        lambda a: a.__setitem__(0, _header(a[0], ids="6")),
        # a cut block, with the one venue unused, would read back without its name
        lambda a: (a.__setitem__(1, a[1][:-1]), a[3].__setitem__(0, -1)),
        lambda a: a.__setitem__(0, _header(a[0], report=_report(a[0], papers_in=None))),
        lambda a: a.__setitem__(0, _header(a[0], report={**_report(a[0]), "extra": 0})),
        lambda a: a.__setitem__(0, _header(a[0], report=_report(a[0], edges_kept=-1))),
        lambda a: a.__setitem__(0, _header(a[0], report=_report(a[0], dropped_dup=1.0))),
        lambda a: a.__setitem__(0, _header(a[0], report=_report(a[0], dropped_self=True))),
        lambda a: a.__setitem__(0, _header(a[0], report=_report(a[0], malformed_edges="0"))),
        lambda a: a.__setitem__(0, _header(a[0], report=[0] * 12)),
        lambda a: a.__setitem__(0, _header(a[0], report=None)),
    ], ids=["row-out-of-range", "negative-row", "self-citation", "duplicate", "forward",
            "same-year-cycle", "venue-code-out-of-range", "years-not-int32", "edge-arrays-unequal",
            "ids-unsorted", "ids-not-strings", "other-format", "edges-out-of-order", "ids-too-many",
            "sep-empty", "sep-not-string", "venues-not-strings", "id-count-too-large", "id-count-negative",
            "id-count-not-int", "names-unterminated", "report-key-missing", "report-key-extra",
            "report-negative", "report-float", "report-bool", "report-string", "report-not-dict", "report-null"])
    def test_damaged_cache_reads_as_stale(self, tmp_path, toy, damage):
        cache = tmp_path / "corpus.cache"
        save_cache(toy, cache, source_hash="aaa", report=IngestReport())
        with open(cache, "rb") as fh:
            arrays = [np.load(fh) for _ in range(6)]
            assert not fh.read()
        damage(arrays)
        with open(cache, "wb") as fh:
            for a in arrays:
                np.save(fh, a)
        assert load_cache(cache, expect_hash="aaa") is None

    def test_odd_ids_round_trip(self, tmp_path):
        odd = ["a,b", 'q"uote', "nul\x00", "nul\x00\x00", "new\nline", "tab\tx", "ünï", "日本", "sur\ud800", " sp "]
        records = [PaperRecord("root", 2000, "V,\"1\x00")] + [PaperRecord(pid, 2001, pid) for pid in odd]
        corpus, _ = ingest([(pid, "root") for pid in odd], records)
        cache = tmp_path / "corpus.cache"
        save_cache(corpus, cache, source_hash="aaa", report=IngestReport())
        loaded = load_cache(cache, expect_hash="aaa")
        assert loaded is not None
        assert loaded.paper_ids == corpus.paper_ids and set(odd) <= set(loaded.paper_ids)
        assert list(loaded.edges()) == list(corpus.edges())
        assert [loaded.record(p) for p in loaded.paper_ids] == [corpus.record(p) for p in corpus.paper_ids]

    def test_empty_corpus_round_trip(self, tmp_path):
        cache = tmp_path / "corpus.cache"
        save_cache(CitationCorpus([], []), cache, source_hash="aaa", report=IngestReport())
        with open(cache, "rb") as fh:
            np.load(fh)
            assert np.load(fh).size == 0   # zero ids and names give an empty block
        loaded = load_cache(cache, expect_hash="aaa")
        assert loaded is not None and len(loaded) == 0 and loaded.n_edges == 0

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.text(_ID_CHARS, min_size=1, max_size=5), min_size=1, max_size=20, unique=True),
           st.lists(st.none() | st.text(_ID_CHARS, max_size=5), min_size=20, max_size=20))
    # a lone high surrogate then a lone low one stay two code points: JSON
    # read their escapes back as the one astral code point U+103FF
    @example(["a"], [chr(0xD800) + chr(0xDFFF)] + [None] * 19)
    def test_id_block_round_trips_ids(self, tmp_path, ids, venues):
        # ids and venue names alike; the separator is the first code point
        # from U+000A on that no id or venue name holds
        corpus = CitationCorpus([PaperRecord(pid, 2000, venue) for pid, venue in zip(ids, venues)],
                                list(zip(ids[1:], ids[:1] * len(ids))))
        cache = tmp_path / "corpus.cache"
        save_cache(corpus, cache, source_hash="aaa", report=IngestReport())
        sep = json.loads(np.load(cache).tobytes())["sep"]
        used = set("".join(ids) + "".join(corpus.venue_names))
        assert sep not in used and all(map(used.__contains__, map(chr, range(10, ord(sep)))))
        loaded = load_cache(cache, expect_hash="aaa")
        assert loaded is not None
        assert loaded.paper_ids == corpus.paper_ids == tuple(sorted(ids))
        assert loaded.venue_names == corpus.venue_names == tuple(sorted(set(venues[:len(ids)]) - {None}))
        assert _layout(loaded) == _layout(corpus)

    def test_cache_bytes_independent_of_clock(self, tmp_path, toy, monkeypatch):
        blobs = []
        for now in (1.0, 2e9):
            monkeypatch.setattr(time, "time", lambda now=now: now)
            cache = tmp_path / f"at-{now}.cache"
            save_cache(toy, cache, source_hash="aaa", report=IngestReport())
            blobs.append(cache.read_bytes())
        assert blobs[0] == blobs[1]


def _block(names) -> np.ndarray:
    return np.frombuffer("".join(f"{name}\n" for name in names).encode(), np.uint8)


def _header(array: np.ndarray, **changes) -> np.ndarray:
    head = json.loads(array.tobytes())
    head.update(changes)
    return np.frombuffer(json.dumps(head).encode("ascii"), np.uint8)


def _report(array: np.ndarray, **changes) -> dict:
    """The header's report with `changes`; a change to None drops the key."""
    report = {**json.loads(array.tobytes())["report"], **changes}
    return {k: v for k, v in report.items() if v is not None}
