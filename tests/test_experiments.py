"""Rank distance, venue experiments, award ranking, and corpus statistics."""

import functools
import gc
import itertools
import math
import pickle
import weakref
from collections import defaultdict

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from idtree import corpus as corpus_mod
from idtree import experiments as experiments_mod
from idtree import metrics as metrics_mod
from idtree.corpus import IngestReport, PaperRecord, ingest, load_cache, save_cache
from idtree.experiments import (
    ToTCase,
    ToTReport,
    VenueExperiment,
    corpus_stats,
    fractional_gain_list,
    kendall_tau_distance,
    mean_reciprocal_rank,
    pearson,
    rank_by_measure,
    tot_experiment,
    z_experiment,
)
from idtree.synth import (
    broom_tree,
    gen_random_corpus,
    ideal_tree,
    make_tot_benchmark,
    make_z_benchmark,
)


def brute_force_kendall(a, b):
    """O(m^2) discordant-pair count over all unordered pairs."""
    pos_a = {x: i for i, x in enumerate(a)}
    pos_b = {x: i for i, x in enumerate(b)}
    items = sorted(pos_a)
    m = len(items)
    if m < 2:
        return 0.0
    discordant = 0
    for x, y in itertools.combinations(items, 2):
        if (pos_a[x] - pos_a[y]) * (pos_b[x] - pos_b[y]) < 0:
            discordant += 1
    return discordant / (m * (m - 1) / 2)


class TestKendall:
    def test_identical_lists(self):
        assert kendall_tau_distance("abcde", "abcde") == 0.0

    def test_exact_reversal(self):
        assert kendall_tau_distance(list("abcde"), list("edcba")) == 1.0

    def test_single_swap(self):
        # pairs: (x,y) discordant; (x,z), (y,z) concordant -> 1/3
        assert kendall_tau_distance(["x", "y", "z"], ["y", "x", "z"]) == pytest.approx(1 / 3)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            m = int(rng.integers(2, 201))
            items = [f"e{i}" for i in range(m)]
            a = list(rng.permutation(items))
            b = list(rng.permutation(items))
            assert kendall_tau_distance(a, b) == brute_force_kendall(a, b)

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(9)
        items = [f"e{i}" for i in range(10)]
        for _ in range(50):
            a, b, c = (list(rng.permutation(items)) for _ in range(3))
            assert kendall_tau_distance(a, a) == 0.0
            assert kendall_tau_distance(a, b) == kendall_tau_distance(b, a)
            assert (
                kendall_tau_distance(a, c)
                <= kendall_tau_distance(a, b) + kendall_tau_distance(b, c) + 1e-12
            )

    def test_invariant_under_relabeling(self):
        rng = np.random.default_rng(1)
        items = [f"e{i}" for i in range(12)]
        a = list(rng.permutation(items))
        b = list(rng.permutation(items))
        relabel = {x: f"R{x}" for x in items}
        assert kendall_tau_distance(a, b) == kendall_tau_distance(
            [relabel[x] for x in a], [relabel[x] for x in b]
        )

    def test_short_lists_are_zero(self):
        assert kendall_tau_distance(["a"], ["a"]) == 0.0
        assert kendall_tau_distance([], []) == 0.0

    def test_mismatched_sets_rejected(self):
        with pytest.raises(ValueError):
            kendall_tau_distance(["a", "b"], ["a", "c"])
        with pytest.raises(ValueError):
            kendall_tau_distance(["a", "a"], ["a", "a"])


def _pair_inversions(seq, sizes):
    """Each run's pairs i < j with seq[i] > seq[j], comparing all O(m^2) pairs."""
    counts, lo = [], 0
    for m in sizes:
        run = np.array(seq[lo:lo + m])
        counts.append(int(np.triu(run[:, None] > run[None, :], 1).sum()))
        lo += m
    return counts


@st.composite
def permutation_runs(draw):
    """Runs of sizes 0, 1, 2 and 2^k +- 1 among others, sometimes one longer
    than 256; each run a permutation of its own positions in the sequence."""
    sizes = draw(st.lists(st.sampled_from([0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33]) | st.integers(0, 70),
                          max_size=12))
    if draw(st.booleans()):
        long_run = draw(st.sampled_from([257, 511, 512, 513]) | st.integers(257, 700))
        sizes.insert(draw(st.integers(0, len(sizes))), long_run)
    seq = []
    for m in sizes:
        start = len(seq)
        seq += [start + p for p in draw(st.permutations(range(m)))]
    return seq, sizes


class TestSegmentInversions:
    @settings(max_examples=200, deadline=None)
    @given(permutation_runs())
    def test_matches_pair_count(self, runs):
        seq, sizes = runs
        got = experiments_mod._segment_inversions(np.array(seq, np.int64), np.array(sizes, np.int64))
        assert got.dtype == np.int64
        assert got.tolist() == _pair_inversions(seq, sizes)

    def test_reversed_runs_count_every_pair(self):
        sizes = [0, 1, 2, 3, 255, 256, 257, 0, 5]
        starts = np.cumsum([0] + sizes).tolist()
        seq = [x for start, m in zip(starts, sizes) for x in reversed(range(start, start + m))]
        got = experiments_mod._segment_inversions(np.array(seq), np.array(sizes))
        assert got.tolist() == [m * (m - 1) // 2 for m in sizes]
        assert experiments_mod._segment_inversions(np.array(range(600)), np.array([600])).tolist() == [0]
        assert experiments_mod._segment_inversions(np.zeros(0, np.int64), np.zeros(0, np.int64)).tolist() == []


# few distinct values, so most scores tie; both zeros, which compare equal
_TIED_FLOATS = st.sampled_from([-0.0, 0.0, 0.5, -1.5, 1 / 3, 2.0, 1e300, -1e-300])


class TestByEdition:
    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(0, 60), st.integers(1, 6), st.booleans())
    def test_matches_lexsort(self, data, n, editions, floats):
        edition = np.array(data.draw(st.lists(st.integers(0, editions - 1), min_size=n, max_size=n)), np.int64)
        values = st.lists(_TIED_FLOATS if floats else st.integers(-3, 3), min_size=n, max_size=n)
        score = np.array(data.draw(values), np.float64 if floats else np.int64)
        assert experiments_mod._by_edition(edition, score).tolist() == np.lexsort((score, edition)).tolist()

    def test_signed_zeros_tie_in_position_order(self):
        score = np.array([0.0, -0.0, 0.0, -0.0, -1.0])
        edition = np.zeros(5, np.int64)
        assert experiments_mod._by_edition(edition, score).tolist() == [4, 0, 1, 2, 3]
        assert experiments_mod._by_edition(edition, -score).tolist() == [0, 1, 2, 3, 4]


class TestMeanReciprocalRank:
    def test_arithmetic(self):
        assert mean_reciprocal_rank([1, 2, 4]) == pytest.approx(7 / 12)
        assert mean_reciprocal_rank([1, 1, 1]) == 1.0

    def test_errors(self):
        with pytest.raises(ValueError):
            mean_reciprocal_rank([])
        with pytest.raises(ValueError):
            mean_reciprocal_rank([0, 1])


def _corpus_with_citations(counts, year=2000, venue=None):
    """One paper per (id, count): cited `count` times by star citers."""
    records, edges = [], []
    for pid, count in counts.items():
        records.append(PaperRecord(pid, year, venue))
        for i in range(count):
            cid = f"{pid}.c{i:03d}"
            records.append(PaperRecord(cid, year + 1 + i % 4))
            edges.append((cid, pid))
    return ingest(edges, records)[0]


class TestRankByMeasure:
    def test_citation_ordering(self):
        corpus = _corpus_with_citations({"hi": 10, "lo": 3})
        ranked, excluded = rank_by_measure(["hi", "lo"], "citations", corpus)
        assert tuple(ranked) == ("hi", "lo")
        assert excluded == []

    def test_equal_scores_fall_back_to_id(self):
        corpus = _corpus_with_citations({"a": 4, "b": 4, "c": 4})
        ranked, _ = rank_by_measure(["c", "a", "b"], "citations", corpus)
        assert tuple(ranked) == ("a", "b", "c")

    def test_equal_nids_fall_back_to_id(self):
        # star citers give NID 0 at any count; by citations "b" would come first
        corpus = _corpus_with_citations({"a": 3, "b": 5})
        ranked, _ = rank_by_measure(["b", "a"], "nid", corpus)
        assert ranked == {"a": 0.0, "b": 0.0}
        assert tuple(ranked) == ("a", "b")

    def test_matches_naive_sort(self):
        corpus = gen_random_corpus(200, years=(1995, 2005), seed=8)
        cited = [p for p in corpus.paper_ids if corpus.citation_count(p) > 0][:20]
        ranked, _ = rank_by_measure(cited, "citations", corpus)
        naive = sorted(cited, key=lambda p: (-corpus.citation_count(p), p))
        assert list(ranked) == naive

    def test_uncited_papers_excluded_and_reported(self, toy):
        snap = toy.snapshot(2001)  # p1, p2 not yet cited
        ranked, excluded = rank_by_measure(["P", "p1", "p2"], "nid", snap)
        assert tuple(ranked) == ("P",)
        assert excluded == ["p1", "p2"]

    def test_nid_ranks_ascending(self):
        records, edges = [], []
        for pid, shape in (("frag", broom_tree(9, 4)), ("tidy", ideal_tree(9))):
            records.append(PaperRecord(pid, 2000))
            for v in sorted(shape.parent):
                cid = f"{pid}.{v}"
                records.append(PaperRecord(cid, 2000 + shape.depth[v]))
                edges.append((cid, pid))
                if shape.parent[v] != "P":
                    edges.append((cid, f"{pid}.{shape.parent[v]}"))
        corpus, _ = ingest(edges, records)
        ranked, _ = rank_by_measure(["frag", "tidy"], "nid", corpus)
        assert tuple(ranked) == ("tidy", "frag")

    def test_unknown_measure(self, toy):
        with pytest.raises(ValueError):
            rank_by_measure(["P"], "h-index", toy)


class TestFractionalGain:
    def _schedule_corpus(self, schedule, pub_year=2000):
        # schedule: paper -> list of citation years
        records, edges = [], []
        for pid, years in schedule.items():
            records.append(PaperRecord(pid, pub_year))
            for i, y in enumerate(years):
                cid = f"{pid}.c{i:03d}"
                records.append(PaperRecord(cid, y))
                edges.append((cid, pid))
        return ingest(edges, records)[0]

    def test_arithmetic(self):
        corpus = self._schedule_corpus(
            {"a": [2001] * 10 + [2006] * 15, "b": [2001] * 4}
        )
        scores, excluded = fractional_gain_list(["a", "b"], corpus, 2000, 5, 10)
        assert scores["a"] == pytest.approx(1.5)  # (25 - 10) / 10
        assert scores["b"] == 0.0
        assert excluded == []

    def test_zero_at_t1_excluded(self):
        corpus = self._schedule_corpus({"late": [2008, 2009], "ok": [2001, 2007]})
        ranked, excluded = fractional_gain_list(["late", "ok"], corpus, 2000, 5, 10)
        assert excluded == ["late"]
        assert tuple(ranked) == ("ok",)

    def test_planted_schedule_matches_arithmetic(self):
        rng = np.random.default_rng(12)
        schedule = {}
        for i in range(12):
            early = int(rng.integers(1, 6))
            late = int(rng.integers(0, 20))
            schedule[f"s{i:02d}"] = [2001 + j % 5 for j in range(early)] + [
                2006 + j % 5 for j in range(late)
            ]
        corpus = self._schedule_corpus(schedule)
        scores, _ = fractional_gain_list(sorted(schedule), corpus, 2000, 5, 10)
        for pid, years in schedule.items():
            c1 = sum(1 for y in years if y <= 2005)
            c2 = len(years)
            assert scores[pid] == pytest.approx((c2 - c1) / c1)

    def test_absolute_mode(self):
        corpus = self._schedule_corpus({"a": [2001] * 2 + [2006] * 6})
        scores, _ = fractional_gain_list(["a"], corpus, 2000, 5, 10, mode="absolute")
        assert scores["a"] == 6.0

    def test_equal_gains_fall_back_to_id(self):
        corpus = self._schedule_corpus(
            {"b": [2001, 2006], "a": [2001, 2006], "c": [2001, 2006, 2007]}
        )
        ranked, _ = fractional_gain_list(["b", "a", "c"], corpus, 2000, 5, 10)
        assert ranked == {"c": 2.0, "a": 1.0, "b": 1.0}
        assert tuple(ranked) == ("c", "a", "b")

    def test_bad_horizons(self, toy):
        with pytest.raises(ValueError):
            fractional_gain_list(["P"], toy, 2000, 10, 5)


class TestTimelineMemo:
    def test_random_ties_same_cold_warm_and_fresh(self, monkeypatch):
        def make():
            return gen_random_corpus(1500, years=(1990, 2005), mean_refs=3, followup=0.5, seed=13)

        corpus = make()
        awardees = [
            (max(members, key=lambda p: (corpus.citation_count(p), p)), venue, year)
            for (venue, year), members in sorted(_groups(corpus).items())
            if year <= 1995
        ]

        def run(c):
            return (
                z_experiment(c, (1992, 1998), 2, 6, tie="random", seed=5),
                tot_experiment(c, awardees, pct=0.25, horizon=8, tie="random", seed=5),
            )

        made = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: made.append(seed) or default_rng(seed))
        cold = run(corpus)
        assert made, "no tree of the corpus has a depth tie"
        assert len(cold[0].venues) > 4 and cold[1].cases
        assert run(corpus) == cold
        assert run(make()) == cold


def _groups(corpus):
    """Paper ids by (venue, year), one paper at a time."""
    groups = defaultdict(list)
    for pid in corpus.paper_ids:
        rec = corpus.record(pid)
        if rec.venue is not None:
            groups[(rec.venue, rec.year)].append(pid)
    return groups


def _per_venue_z(corpus, year_range, t1, t2, tie, seed, gain_mode):
    """The z experiment's rows and skips, one venue at a time from per-list rankings: the oracle."""
    snapshot = functools.cache(corpus.snapshot)   # one per cutoff
    results, skipped = [], []
    for (venue, year), members in sorted(_groups(corpus).items()):
        if not year_range[0] <= year <= year_range[1]:
            continue
        snap1 = snapshot(year + t1)
        eligible = [p for p in members if snap1.citation_count(p) > 0]
        if len(eligible) < 2:
            skipped.append((venue, year, f"only {len(eligible)} papers with citations at t1"))
            continue
        ranked_nid, _ = rank_by_measure(eligible, "nid", snap1, tie=tie, seed=seed)
        ranked_cite, _ = rank_by_measure(eligible, "citations", snap1, tie=tie, seed=seed)
        gains, _ = fractional_gain_list(eligible, corpus, year, t1, t2, mode=gain_mode)
        results.append(VenueExperiment(
            venue, year, tuple(sorted(eligible)), t1, t2,
            kendall_tau_distance(ranked_nid, gains),
            kendall_tau_distance(ranked_cite, gains),
        ))
    return tuple(results), tuple(skipped)


def _per_awardee_tot(corpus, awardees, pct, horizon, tie, seed):
    """The award experiment one awardee at a time: the oracle."""
    groups = _groups(corpus)
    snapshot = functools.cache(corpus.snapshot)   # one per cutoff
    cases, skipped = [], []
    for pid, venue, year in sorted(set(awardees)):
        cohort = groups.get((venue, year))
        if cohort is None:
            skipped.append((pid, f"no papers for venue {venue!r} in {year}"))
            continue
        if pid not in cohort:
            skipped.append((pid, f"awardee not in venue cohort {venue!r} {year}"))
            continue
        snap = snapshot(year + horizon)
        counts = {p: snap.citation_count(p) for p in cohort}
        if counts[pid] == 0:
            skipped.append((pid, f"awardee has no citations at horizon {year + horizon}"))
            continue
        by_cite = sorted(cohort, key=lambda p: (-counts[p], p))
        competitors = [p for p in by_cite[:math.ceil(pct * len(cohort))] if counts[p] > 0]
        if pid not in competitors:
            competitors.append(pid)
        ranked_cite, _ = rank_by_measure(competitors, "citations", snap)
        ranked_nid, _ = rank_by_measure(competitors, "nid", snap, tie=tie, seed=seed)
        cases.append(ToTCase(pid, venue, year, len(cohort), tuple(ranked_cite),
                             list(ranked_cite).index(pid) + 1, list(ranked_nid).index(pid) + 1))
    return ToTReport(tuple(cases), tuple(skipped), horizon, pct)


def _awardees(corpus, first, last):
    """Per edition of the years `first`..`last`: its most cited paper and its first paper; plus three misfits."""
    picked = [("ghost", "S000-1995", 1995), ("p0000", "NOWHERE-1995", 1995)]
    for (venue, year), members in sorted(_groups(corpus).items()):
        if first <= year <= last:
            picked.append((max(members, key=lambda p: (corpus.citation_count(p), p)), venue, year))
            picked.append((members[0], venue, year))
    other = next(p for p in corpus.paper_ids if corpus.record(p).venue not in (None, "S000-1995"))
    picked.append((other, "S000-1995", 1995))   # a paper of another venue
    return picked


class TestTablesMatchPerVenueOracle:
    """`z_experiment` and `tot_experiment` read the paper-year tables; per-list rankings are the oracle."""

    @pytest.mark.parametrize("tie,seed", [("min-id", 0), ("random", 5)])
    @pytest.mark.parametrize("corpus_seed", [13, 21])
    def test_z_experiment(self, corpus_seed, tie, seed):
        corpus = gen_random_corpus(1500, years=(1990, 2005), mean_refs=5, followup=0.8, seed=corpus_seed)
        moved = False   # whether the tie draws change some report from the min-id one
        # the last two ranges reach past the corpus's last year at t2, and at t1 too
        for year_range, t1, t2 in (((1991, 1998), 2, 6), ((1999, 2005), 1, 4), ((2003, 2010), 3, 9)):
            for gain_mode in ("fractional", "absolute"):
                want = _per_venue_z(corpus, year_range, t1, t2, tie, seed, gain_mode)
                got = z_experiment(corpus, year_range, t1, t2, tie=tie, seed=seed, gain_mode=gain_mode)
                assert (got.venues, got.skipped) == want
                assert want[0]
                moved |= tie == "random" and got != z_experiment(corpus, year_range, t1, t2, gain_mode=gain_mode)
        assert moved == (tie == "random")

    @pytest.mark.parametrize("tie,seed", [("min-id", 0), ("random", 5)])
    @pytest.mark.parametrize("corpus_seed", [13, 21])
    def test_tot_experiment(self, corpus_seed, tie, seed):
        corpus = gen_random_corpus(1500, years=(1990, 2005), mean_refs=5, followup=0.8, seed=corpus_seed)
        awardees = _awardees(corpus, 1990, 2003)
        moved = False   # whether the tie draws change some report from the min-id one
        for pct, horizon in ((0.25, 3), (0.05, 8), (1.0, 12)):
            want = _per_awardee_tot(corpus, awardees, pct, horizon, tie, seed)
            got = tot_experiment(corpus, awardees, pct=pct, horizon=horizon, tie=tie, seed=seed)
            assert got == want
            assert want.cases and len({reason.split()[1] for _, reason in want.skipped}) == 3
            moved |= tie == "random" and got != tot_experiment(corpus, awardees, pct=pct, horizon=horizon)
        assert moved == (tie == "random")

    def test_no_awardee_found(self, toy):
        report = tot_experiment(toy, [("P", "NOWHERE-2000", 2000)])
        assert report.cases == () and len(report.skipped) == 1

    def test_unknown_tie_policy_and_gain_mode_rejected(self, toy):
        with pytest.raises(ValueError, match="tie must be one of"):
            z_experiment(toy, tie="max-id")
        with pytest.raises(ValueError, match="tie must be one of"):
            tot_experiment(toy, [("P", "TOY-2000", 2000)], tie="max-id")
        with pytest.raises(ValueError, match="mode must be one of"):
            z_experiment(toy, gain_mode="relative")


class TestTableMemo:
    @staticmethod
    def _corpus():
        return gen_random_corpus(1500, years=(1990, 2005), mean_refs=3, followup=0.5, seed=17)

    @pytest.fixture
    def builds(self, monkeypatch):
        """The papers handed to the dispersion kernel, as id lists."""
        seen = []
        kernel = metrics_mod._edge_trees

        def spy(corpus, wanted, *args):
            seen.append([corpus.paper_ids[i] for i in np.flatnonzero(wanted).tolist()])
            return kernel(corpus, wanted, *args)

        monkeypatch.setattr(metrics_mod, "_edge_trees", spy)
        return seen

    def test_one_build_per_round(self, builds):
        corpus = self._corpus()
        for t1 in range(1, 6):
            z_experiment(corpus, (1991, 1999), t1, t1 + 5)
        tot_experiment(corpus, _awardees(corpus, 1991, 1999), pct=0.25, horizon=10)
        assert len(builds) == 1

    def test_one_shot_builds_only_the_venues_asked_for(self, builds):
        corpus = self._corpus()
        z_experiment(corpus, (1994, 1995), 2, 5)
        members = [p for p in corpus.paper_ids
                   if corpus.record(p).venue is not None and 1994 <= corpus.year(p) <= 1995]
        assert builds == [members]
        # a later call that needs more papers rebuilds over both sets
        z_experiment(corpus, (1996, 1996), 2, 5)
        more = [p for p in corpus.paper_ids
                if corpus.record(p).venue is not None and 1994 <= corpus.year(p) <= 1996]
        assert builds[1:] == [more]

    def test_one_build_across_scoring_calls(self, builds):
        corpus = self._corpus()
        first = metrics_mod.corpus_metrics(corpus)
        for seed in (1, 2):
            metrics_mod.corpus_metrics(corpus, tie="random", seed=seed)
        metrics_mod.corpus_metrics(corpus, tie="random", seed=1, jobs=2)
        subset = metrics_mod.corpus_metrics(corpus, corpus.paper_ids[::7])
        stats = corpus_stats(corpus)
        assert builds == [list(corpus.paper_ids)]
        assert list(stats.reports) == list(first)
        assert list(subset) == [r for r in first if r.paper_id in set(corpus.paper_ids[::7])]

    def test_subset_builds_only_its_papers(self, builds):
        corpus = self._corpus()
        ids = corpus.paper_ids
        metrics_mod.corpus_metrics(corpus, [ids[40], ids[3], ids[40]])
        assert builds == [[ids[3], ids[40]]]
        # a later call that needs more papers rebuilds over both sets, one within them builds nothing
        metrics_mod.corpus_metrics(corpus, [ids[9], ids[3]], tie="random", seed=1)
        metrics_mod.corpus_metrics(corpus, [ids[40], ids[9]])
        assert builds[1:] == [[ids[3], ids[9], ids[40]]]

    @pytest.mark.parametrize("tie", ["min-id", "random"])
    def test_changed_columns_leave_the_memo_unchanged(self, tie):
        corpus = self._corpus()
        result = metrics_mod.corpus_metrics(corpus, tie=tie, seed=1)
        rows = list(result)
        for column in (result.n, result.depth, result.breadth, result.idi, result.idi_max, result.nid):
            column[:] = 0
        again = metrics_mod.corpus_metrics(corpus, tie=tie, seed=1)
        assert list(again) == rows
        assert [c.dtype for c in again.columns()] == [np.int64] * 7 + [np.float64]
        mask, table = metrics_mod.derived(corpus)["scores"]
        assert mask.all()
        assert not any(array.flags.writeable for array in (mask, *table))

    def test_one_generator_per_tied_paper_across_metrics_and_experiments(self, monkeypatch):
        # corpus_metrics and both experiments read one set of draws per seed and corpus
        alone, corpus = self._corpus(), self._corpus()
        made = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: made.append(seed) or default_rng(seed))

        def experiments(corpus):
            z_experiment(corpus, (1991, 1999), 2, 6, tie="random", seed=2)
            tot_experiment(corpus, _awardees(corpus, 1991, 1999), pct=0.25, horizon=10, tie="random", seed=2)

        experiments(alone)
        assert made, "the experiments draw no tie on their own"
        made.clear()
        metrics_mod.corpus_metrics(corpus, tie="random", seed=2)
        experiments(corpus)
        tied = np.flatnonzero(metrics_mod._edge_trees(corpus, np.ones(len(corpus), bool))[-1])
        assert sorted(made) == sorted([2, *corpus.paper_ids[i].encode("utf-8")] for i in tied)

    def test_min_id_commands_leave_the_citer_csr_unbuilt(self, tmp_path):
        # the CLI's cache-hit commands under min-id read no paper's citers
        corpus = self._corpus()
        awardees = _awardees(corpus, 1991, 1999)
        save_cache(corpus, tmp_path / "corpus.cache", source_hash="", report=IngestReport())
        loaded = load_cache(tmp_path / "corpus.cache")
        assert "citers" not in corpus_mod.derived(loaded)
        metrics_mod.corpus_metrics(loaded)
        z_experiment(loaded, (1991, 1999), 2, 6)
        tot_experiment(loaded, awardees, pct=0.25, horizon=10)
        assert "citers" not in corpus_mod.derived(loaded)
        assert loaded.citations_of(awardees[-1][0]) == corpus.citations_of(awardees[-1][0])
        assert "citers" in corpus_mod.derived(loaded)

    def test_memo_freed_with_its_corpus_and_never_pickled(self):
        corpus = self._corpus()
        blob = pickle.dumps(corpus)
        z_experiment(corpus, (1991, 1999), 2, 6, tie="random", seed=1)
        tot_experiment(corpus, _awardees(corpus, 1991, 1999), pct=0.25, horizon=10, tie="random", seed=1)
        metrics_mod.corpus_metrics(corpus, tie="random", seed=1)
        # one memo holds both tables, the draws, the editions and the citer CSR the tied trees read
        memo = metrics_mod.derived(corpus)
        assert memo.keys() == {"years", "scores", ("drawn", 1), "editions", "citers"}
        # both experiments read one read-only set of editions
        editions = memo["editions"]
        assert experiments_mod._editions(corpus) is editions
        assert not any(array.flags.writeable for array in editions)
        del editions, memo
        assert pickle.dumps(corpus) == blob
        gc.collect()  # so only this corpus can leave the memo below
        entries = len(corpus_mod._DERIVED)
        ref = weakref.ref(corpus)
        del corpus
        gc.collect()
        assert ref() is None
        assert len(corpus_mod._DERIVED) == entries - 1


class TestZExperiment:
    def test_planted_benchmark_prefers_shape_ranking(self):
        corpus = make_z_benchmark(seed=0)
        report = z_experiment(corpus)
        assert len(report.venues) == 8
        for venue in report.venues:
            assert 0.0 <= venue.z_nid <= 1.0
            assert 0.0 <= venue.z_cite <= 1.0
            # shape ranking reproduces the planted gain order exactly
            assert venue.z_nid == 0.0
        assert report.mean_z_nid < report.mean_z_cite

    def test_determinism(self):
        corpus = make_z_benchmark(seed=3)
        a = z_experiment(corpus)
        b = z_experiment(corpus)
        assert a == b

    def test_citation_self_ranking_scores_zero(self):
        # gains strictly increase with early citations, so the citation
        # ranking reproduces the gain ranking: z_cite = 0
        records, edges = [], []
        plan = {"a": (9, 18), "b": (6, 9), "c": (3, 3)}
        for pid, (early, late) in plan.items():
            records.append(PaperRecord(pid, 2000, "SELF-2000"))
            for i in range(early):
                cid = f"{pid}.e{i:02d}"
                records.append(PaperRecord(cid, 2001 + i % 5))
                edges.append((cid, pid))
            for i in range(late):
                cid = f"{pid}.l{i:02d}"
                records.append(PaperRecord(cid, 2006 + i % 5))
                edges.append((cid, pid))
        corpus, _ = ingest(edges, records)
        report = z_experiment(corpus, year_range=(2000, 2000))
        (venue,) = report.venues
        assert venue.z_cite == 0.0
        assert venue.z_nid == 0.0  # all-star shapes tie at NID 0, id order matches

    def test_small_venues_skipped_and_reported(self):
        corpus = _corpus_with_citations({"solo": 4}, venue="TINY-2000")
        report = z_experiment(corpus, year_range=(2000, 2000))
        assert report.venues == ()
        assert len(report.skipped) == 1
        assert report.skipped[0][0] == "TINY-2000"

    def test_year_range_filters_venues(self):
        corpus = make_z_benchmark(seed=0)
        report = z_experiment(corpus, year_range=(1995, 1995))
        assert all(v.year == 1995 for v in report.venues)

    def test_venue_grouping_key_is_series_and_year(self):
        records = [
            PaperRecord("x", 2000, "JCDL-2000"),
            PaperRecord("y", 2001, "JCDL-2001"),
            PaperRecord("cx", 2001), PaperRecord("cy", 2002),
        ]
        corpus, _ = ingest([("cx", "x"), ("cy", "y")], records)
        codes, years, rows, edition = experiments_mod._editions(corpus)
        keys = [(corpus.venue_names[c], y) for c, y in zip(codes.tolist(), years.tolist())]
        assert keys == [("JCDL-2000", 2000), ("JCDL-2001", 2001)]
        assert {corpus.paper_ids[r]: keys[k] for r, k in zip(rows.tolist(), edition.tolist())} == {
            "x": ("JCDL-2000", 2000), "y": ("JCDL-2001", 2001)}

    def test_bad_horizons(self):
        with pytest.raises(ValueError):
            z_experiment(make_z_benchmark(seed=0), t1=10, t2=5)

    def test_negative_t1_rejected(self):
        with pytest.raises(ValueError, match="t1 must be >= 0, got -3"):
            z_experiment(make_z_benchmark(seed=0), t1=-3, t2=2)


class TestToTExperiment:
    def test_planted_benchmark_ranks(self):
        corpus, awardees = make_tot_benchmark()
        report = tot_experiment(corpus, awardees)
        assert sorted(c.rank_cite for c in report.cases) == [1, 1, 2, 2]
        assert [c.rank_nid for c in report.cases] == [1, 1, 1, 1]
        assert report.mrr_nid == 1.0
        assert report.mrr_cite == pytest.approx(0.75)
        assert all(c.cohort_size == 40 for c in report.cases)

    def test_top_ranked_awardee(self):
        corpus, awardees = make_tot_benchmark()
        case = tot_experiment(corpus, [awardees[0]]).cases[0]
        assert case.rank_cite == 1
        assert case.rank_nid == 1

    def test_awardee_below_cut_is_force_included(self):
        # 60-paper cohort, top ceil(3) by citations, awardee sits 5th.
        records, edges = [], []
        venue = "BIG-2000"
        counts = {f"f{i:02d}": 3 + i % 5 for i in range(55)}
        counts.update({"t1": 50, "t2": 45, "t3": 40, "t4": 35, "award": 16})
        for pid, n_cits in counts.items():
            records.append(PaperRecord(pid, 2000, venue))
            shape = (
                ideal_tree(n_cits) if pid == "award"
                else broom_tree(n_cits, k=min(5, n_cits - 1))
            )
            names = {"P": pid}
            for v in sorted(shape.parent):
                names[v] = f"{pid}.{v}"
            for v in sorted(shape.parent):
                records.append(PaperRecord(names[v], 2000 + shape.depth[v]))
                edges.append((names[v], pid))
                if shape.parent[v] != "P":
                    edges.append((names[v], names[shape.parent[v]]))
        corpus, _ = ingest(edges, records)
        report = tot_experiment(corpus, [("award", venue, 2000)])
        (case,) = report.cases
        assert case.cohort_size == 60
        assert set(case.competitor_ids) == {"t1", "t2", "t3", "award"}
        assert case.rank_cite == 4
        assert case.rank_nid == 1

    def test_missing_awardee_skipped(self):
        corpus, awardees = make_tot_benchmark()
        report = tot_experiment(corpus, [("ghost", "TT0-1998", 1998)] + awardees[:1])
        assert len(report.cases) == 1
        assert len(report.skipped) == 1
        assert report.skipped[0][0] == "ghost"

    def test_bad_pct(self):
        corpus, awardees = make_tot_benchmark()
        with pytest.raises(ValueError):
            tot_experiment(corpus, awardees, pct=0.0)

    def test_negative_horizon_rejected(self):
        corpus, awardees = make_tot_benchmark()
        with pytest.raises(ValueError, match="horizon must be >= 0, got -1"):
            tot_experiment(corpus, awardees, horizon=-1)


class TestCorpusStats:
    def test_all_star_corpus_depth_histogram(self):
        corpus = _corpus_with_citations({f"s{i:02d}": 2 + i for i in range(12)})
        stats = corpus_stats(corpus)
        assert stats.depth_hist == {1: 12}
        # breadth equals citation count for stars: a perfectly linear relation
        assert stats.correlations["breadth_vs_citations"] == pytest.approx(1.0)

    def test_correlations_match_reference_implementation(self):
        corpus = gen_random_corpus(400, years=(1990, 2010), bias=0.6, seed=21)
        stats = corpus_stats(corpus)
        b = [r.breadth for r in stats.reports]
        d = [r.depth for r in stats.reports]
        n = [r.n for r in stats.reports]
        assert stats.correlations["breadth_vs_citations"] == pytest.approx(
            scipy.stats.pearsonr(b, n).statistic, abs=1e-9
        )
        assert stats.correlations["depth_vs_citations"] == pytest.approx(
            scipy.stats.pearsonr(d, n).statistic, abs=1e-9
        )
        assert stats.correlations["depth_vs_breadth"] == pytest.approx(
            scipy.stats.pearsonr(d, b).statistic, abs=1e-9
        )

    def test_uncited_papers_counted(self, toy):
        stats = corpus_stats(toy)
        assert len(stats.reports) == 4  # p4, p5 have no citations
        assert stats.n_uncited == 2

    def test_pearson_degenerate_is_nan(self):
        assert np.isnan(pearson([1, 1, 1], [1, 2, 3]))
        assert np.isnan(pearson([2], [3]))

    def test_pearson_shape_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])
