"""Evaluation harness: rank agreement, venue experiments, and corpus stats.

Two pipelines compare NID against raw citation counts as influence
predictors:

* the venue z-score experiment ranks each venue's papers by a measure at
  `t1` years after publication and checks, via the normalized Kendall tau
  distance, how well that ranking anticipates the fractional citation gain
  between `t1` and `t2` (lower z is better);
* the award experiment ranks an awardee paper among its venue's top-cited
  contemporaries at a fixed horizon and reports the mean reciprocal rank
  per measure.

All rankings resolve ties deterministically by paper id before any pair
counting, so both experiments are reproducible bit for bit.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import CitationCorpus, _sorted_keys, derived, write_csv, write_csv_columns
from .metrics import CorpusMetrics, corpus_metrics, paper_metrics, paper_years

MEASURES = ("citations", "nid")
GAIN_MODES = ("fractional", "absolute")


def _ranked(scores: dict[str, float], sign: float) -> dict[str, float]:
    """`scores` in rank order: by `sign * score`, ties broken by paper id."""
    return dict(sorted(scores.items(), key=lambda item: (sign * item[1], item[0])))


def _segment_inversions(seq: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Pairs i < j with seq[i] > seq[j] inside each run of `sizes` items of `seq`,
    each run holding a permutation of its own positions in `seq`.

    A bottom-up merge (Knight, JASA 1966) over every run at once: the pass of
    half-width w sorts each block of 2w items, counted from its run's start,
    by value in one `np.sort`.  A right-half item's place in its block, less
    its rank there, counts the left-half items above it.  Exact integers in
    O(L log max(sizes)) for L items, however large a run.
    """
    n = len(seq)
    pos = np.arange(n, dtype=np.int64)
    place = pos - np.repeat(np.cumsum(sizes) - sizes, sizes)   # in its run
    value = np.asarray(seq, np.int64) * 2
    count = np.zeros(n, np.int64)
    w = 1
    while w < sizes.max(initial=0):
        f = place & (2 * w - 1)   # in its block
        right = f >= w
        # by block, then value; the low bit keeps the half the item came from
        merged = np.sort((pos - f) * (2 * n) + value + right)
        count += f * (right - (merged & 1))
        w *= 2
    total = np.r_[0, np.cumsum(count)]
    ends = np.cumsum(sizes)
    return total[ends] - total[ends - sizes]


def kendall_tau_distance(a: Iterable[str], b: Iterable[str]) -> float:
    """Normalized Kendall tau distance between two rankings of one set.

    Counts discordant pairs over m(m-1)/2; 0 for identical orders, 1 for
    exact reversals, 0 when m < 2.  Both inputs are iterables of ids in
    rank order (a ranking dict iterates its ids); ties must have been
    broken upstream, as `rank_by_measure` does.
    """
    ids_a, ids_b = tuple(a), tuple(b)
    if len(set(ids_a)) != len(ids_a) or len(set(ids_b)) != len(ids_b):
        raise ValueError("ranking contains duplicate elements")
    if set(ids_a) != set(ids_b):
        raise ValueError("rankings must cover the same element set")
    m = len(ids_a)
    if m < 2:
        return 0.0
    pos_b = {pid: i for i, pid in enumerate(ids_b)}
    discordant = _segment_inversions(np.array([pos_b[pid] for pid in ids_a]), np.array([m]))
    return int(discordant[0]) / (m * (m - 1) / 2)


def mean_reciprocal_rank(ranks: Iterable[int]) -> float:
    ranks = list(ranks)
    if not ranks:
        raise ValueError("no ranks to average")
    if any(r < 1 for r in ranks):
        raise ValueError("ranks are 1-based")
    return sum(1.0 / r for r in ranks) / len(ranks)


def rank_by_measure(
    paper_ids: Iterable[str],
    measure: str,
    corpus,
    *,
    tie: str = "min-id",
    seed: int = 0,
) -> tuple[dict[str, float], list[str]]:
    """Rank papers by citations (descending) or NID (ascending) in a corpus.

    Returns the scores in rank order, ties broken by paper id.  Papers
    without citations have no tree and are excluded; they come back in the
    second return value.  Each NID comes from the paper's own tree, built
    here.
    """
    if measure not in MEASURES:
        raise ValueError(f"measure must be one of {MEASURES}, got {measure!r}")
    scores: dict[str, float] = {}
    excluded: list[str] = []
    for pid in sorted(set(paper_ids)):
        n = corpus.citation_count(pid)
        if n == 0:
            excluded.append(pid)
        elif measure == "citations":
            scores[pid] = float(n)
        else:
            scores[pid] = paper_metrics(corpus, pid, tie=tie, seed=seed).nid
    return _ranked(scores, -1.0 if measure == "citations" else 1.0), excluded


def fractional_gain_list(
    paper_ids: Iterable[str],
    corpus: CitationCorpus,
    pub_year: int,
    t1: int,
    t2: int,
    *,
    mode: str = "fractional",
) -> tuple[dict[str, float], list[str]]:
    """Rank papers by citation gain between pub_year+t1 and pub_year+t2.

    Fractional mode scores (c2 - c1) / c1, rewarding late risers relative
    to their early base; absolute mode scores c2 - c1.  Returns the scores
    in rank order, ties broken by paper id.  Papers with no citations at t1
    are excluded and reported.
    """
    if mode not in GAIN_MODES:
        raise ValueError(f"mode must be one of {GAIN_MODES}, got {mode!r}")
    if t1 >= t2:
        raise ValueError(f"need t1 < t2, got {t1} >= {t2}")
    scores: dict[str, float] = {}
    excluded: list[str] = []
    for pid in sorted(set(paper_ids)):
        years = sorted(map(corpus.year, corpus.citations_of(pid)))
        c1 = bisect_right(years, pub_year + t1)
        if c1 == 0:
            excluded.append(pid)
            continue
        gain = bisect_right(years, pub_year + t2) - c1
        scores[pid] = gain / c1 if mode == "fractional" else float(gain)
    return _ranked(scores, -1.0), excluded


@dataclass(frozen=True)
class VenueExperiment:
    """Per-venue z scores: Kendall distance of each measure's ranking at t1
    from the fractional-gain ranking over (t1, t2), which its `ZReport` holds."""

    venue: str
    year: int
    paper_ids: tuple[str, ...]
    z_nid: float
    z_cite: float

    @property
    def z_diff(self) -> float:
        """Positive when the NID ranking tracks future gains more closely."""
        return self.z_cite - self.z_nid


@dataclass(frozen=True, eq=False)
class ZReport:
    """Venue z scores as columns, one row per scored venue in (venue, year) order.

    `paper_rows` holds the corpus rows of the scored papers, venue after
    venue (`n_papers` each, in id order), and `ids` the corpus's paper ids.
    `venues` yields the rows as `VenueExperiment`s, building their id tuples
    then; two reports are equal when those rows and the rest are.
    """

    venue: list[str]
    year: np.ndarray
    n_papers: np.ndarray
    z_nid: np.ndarray
    z_cite: np.ndarray
    skipped: tuple[tuple[str, int, str], ...]
    t1: int
    t2: int
    ids: Sequence[str]
    paper_rows: np.ndarray

    def __len__(self) -> int:
        return len(self.venue)

    @property
    def venues(self) -> tuple[VenueExperiment, ...]:
        ids = list(map(self.ids.__getitem__, self.paper_rows.tolist()))
        return tuple(
            VenueExperiment(venue, year, tuple(ids[end - m:end]), z_nid, z_cite)
            for venue, year, m, end, z_nid, z_cite in zip(
                self.venue, self.year.tolist(), self.n_papers.tolist(), np.cumsum(self.n_papers).tolist(),
                self.z_nid.tolist(), self.z_cite.tolist())
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZReport):
            return NotImplemented
        return (self.venues, self.skipped, self.t1, self.t2) == (other.venues, other.skipped, other.t1, other.t2)

    @property
    def mean_z_nid(self) -> float:
        return sum(self.z_nid.tolist()) / len(self)

    @property
    def mean_z_cite(self) -> float:
        return sum(self.z_cite.tolist()) / len(self)

    def to_summary_dict(self) -> dict:
        out = {
            "n_venues": len(self),
            "t1": self.t1,
            "t2": self.t2,
            "skipped": [list(s) for s in self.skipped],
        }
        if len(self):
            out["mean_z_nid"] = self.mean_z_nid
            out["mean_z_cite"] = self.mean_z_cite
            out["mean_z_diff"] = out["mean_z_cite"] - out["mean_z_nid"]
        return out


def _editions(corpus: CitationCorpus) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The corpus's (venue, year) editions in sorted order, and each paper's.

    Returns each edition's venue code and year, then the rows of the papers
    with a venue, ascending (so in id order), and each one's edition.  The
    venue string already identifies one series+year edition, so the year in
    the key only guards against inconsistent metadata.  Computed once per
    corpus and kept in its `corpus.derived` memo; the arrays are read-only.
    """
    memo = derived(corpus)
    if "editions" not in memo:
        rows = np.flatnonzero(corpus.venues >= 0)
        year = corpus.years[rows].astype(np.int64)
        first, span = (int(year.min()), int(np.ptp(year)) + 1) if len(rows) else (0, 1)
        # below 2**31 * 2**32, so exact
        keys, edition = np.unique(corpus.venues[rows].astype(np.int64) * span + (year - first), return_inverse=True)
        memo["editions"] = (keys // span, keys % span + first, rows, edition)
        for array in memo["editions"]:
            array.flags.writeable = False
    return memo["editions"]


def _by_edition(edition: np.ndarray, score: np.ndarray) -> np.ndarray:
    """The order `np.lexsort((score, edition))` gives: by edition, then score, then position.

    Two int64 sorts of ``key * n + position``, by the dense rank of the score
    (one `np.unique`) and then by edition; exact, since every key, rank and
    position of these n items is below 2**31, so each sort key is below 2**62.
    """
    n = len(edition)
    position = np.arange(n)
    by_score = _sorted_keys(np.unique(score, return_inverse=True)[1].ravel(), position, n)
    by_score %= n
    order = _sorted_keys(edition[by_score], position, n)
    order %= n
    return by_score[order]


def _clip(corpus: CitationCorpus, horizon: int) -> int:
    """`horizon` capped at the corpus's span of years; exact, since a cutoff
    at or past the last year already counts every citation."""
    return min(horizon, int(corpus.years.max()) - int(corpus.years.min())) if len(corpus) else 0


def z_experiment(
    corpus: CitationCorpus,
    year_range: tuple[int, int] = (1995, 2000),
    t1: int = 5,
    t2: int = 10,
    *,
    tie: str = "min-id",
    seed: int = 0,
    gain_mode: str = "fractional",
) -> ZReport:
    """Run the venue z-score experiment over venues published in the range.

    For each venue: papers are ranked by NID and by citation count on the
    snapshot t1 years after publication, and each ranking's Kendall
    distance from the (t1, t2] gain ranking becomes that venue's z score.
    Venues with fewer than two eligible papers are skipped and reported.

    Counts and NIDs come from `metrics.paper_years`, for every member of
    every venue at once; each ranking is one sort by (venue, score, id),
    as `rank_by_measure` and `fractional_gain_list` rank one venue, and
    `_segment_inversions` counts the discordant pairs of every venue at once.
    """
    if year_range[0] > year_range[1]:
        raise ValueError(f"year range is empty: {year_range[0]} > {year_range[1]}")
    if t1 < 0:
        raise ValueError(f"t1 must be >= 0, got {t1}")
    if t1 >= t2:
        raise ValueError(f"need t1 < t2, got {t1} >= {t2}")
    if gain_mode not in GAIN_MODES:
        raise ValueError(f"mode must be one of {GAIN_MODES}, got {gain_mode!r}")
    codes, years, rows, edition = _editions(corpus)
    picked = (years >= year_range[0]) & (years <= year_range[1])
    keep = picked[edition]
    rows, edition = rows[keep], edition[keep]
    table = paper_years(corpus, rows)
    c1, nid = table.nids(corpus, rows, years[edition] + _clip(corpus, t1), tie=tie, seed=seed)
    c2 = table.at(rows, years[edition] + _clip(corpus, t2))[0]
    cited = c1 > 0
    rows, edition, c1, c2, nid = rows[cited], edition[cited], c1[cited], c2[cited], nid[cited]
    gain = (c2 - c1) / c1 if gain_mode == "fractional" else (c2 - c1).astype(np.float64)
    # `rows` ascend, so each order breaks score ties by id; all three group
    # by edition, so an edition's papers take the same run of places
    n = len(rows)
    gain_rank = np.empty(n, np.int64)
    gain_rank[_by_edition(edition, -gain)] = np.arange(n)
    sizes = np.bincount(edition, minlength=len(codes))
    seq = np.r_[gain_rank[_by_edition(edition, nid)], gain_rank[_by_edition(edition, -c1)] + n]
    inversions = _segment_inversions(seq, np.r_[sizes, sizes]).reshape(2, -1)
    scored = picked & (sizes >= 2)
    m = sizes[scored]
    z_nid, z_cite = inversions[:, scored] / (m * (m - 1) / 2)
    names = corpus.venue_names
    short = np.flatnonzero(picked & (sizes < 2))
    skipped = tuple((names[c], y, f"only {k} papers with citations at t1")
                    for c, y, k in zip(codes[short].tolist(), years[short].tolist(), sizes[short].tolist()))
    member = np.flatnonzero(scored[edition])
    paper_rows = rows[np.sort(edition[member] * n + member) % n]   # by edition, then id
    return ZReport(list(map(names.__getitem__, codes[scored].tolist())), years[scored], m, z_nid, z_cite,
                   skipped, t1, t2, corpus.paper_ids, paper_rows)


@dataclass(frozen=True)
class ToTCase:
    """One awardee ranked among its venue's top-cited contemporaries."""

    paper_id: str
    venue: str
    year: int
    cohort_size: int
    rank_cite: int
    rank_nid: int


@dataclass(frozen=True)
class ToTReport:
    cases: tuple[ToTCase, ...]
    skipped: tuple[tuple[str, str], ...]
    horizon: int
    pct: float

    @property
    def mrr_cite(self) -> float:
        return mean_reciprocal_rank(c.rank_cite for c in self.cases)

    @property
    def mrr_nid(self) -> float:
        return mean_reciprocal_rank(c.rank_nid for c in self.cases)

    def to_summary_dict(self) -> dict:
        out = {
            "n_cases": len(self.cases),
            "horizon": self.horizon,
            "pct": self.pct,
            "rank1_cite": sum(1 for c in self.cases if c.rank_cite == 1),
            "rank1_nid": sum(1 for c in self.cases if c.rank_nid == 1),
            "skipped": [list(s) for s in self.skipped],
        }
        if self.cases:
            out["mrr_cite"] = self.mrr_cite
            out["mrr_nid"] = self.mrr_nid
        return out


def tot_experiment(
    corpus: CitationCorpus,
    awardees: Iterable[tuple[str, str, int]],
    pct: float = 0.05,
    horizon: int = 10,
    *,
    tie: str = "min-id",
    seed: int = 0,
) -> ToTReport:
    """Rank each awardee among the top-cited slice of its venue cohort.

    The competitors are the cited papers among the top ceil(pct * cohort)
    by citation count `horizon` years after publication, so an uncited paper
    never competes; an awardee below the cut is added.  Each rank is 1 + the
    competitors ahead of the awardee by citations (descending) and by NID
    (ascending) at the same horizon, ties broken by id: one sort of every
    cohort per measure, from `metrics.paper_years`.
    """
    if not 0 < pct <= 1:
        raise ValueError(f"pct must be in (0, 1], got {pct}")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    codes, years, rows, edition = _editions(corpus)
    names = corpus.venue_names
    lookup = {(names[c], y): k for k, (c, y) in enumerate(zip(codes.tolist(), years.tolist()))}
    awardees = sorted(set(awardees))
    reasons: dict[int, str] = {}
    found: list[tuple[int, int]] = []   # (edition, row of the awardee)
    for i, (pid, venue, year) in enumerate(awardees):
        k = lookup.get((venue, year))
        if k is None:
            reasons[i] = f"no papers for venue {venue!r} in {year}"
        elif not corpus.has_paper(pid) or (corpus.record(pid).venue, corpus.year(pid)) != (venue, year):
            reasons[i] = f"awardee not in venue cohort {venue!r} {year}"
        else:
            found.append((k, corpus.row(pid)))
    picks, awardee = np.array(found, np.int64).reshape(-1, 2).T
    keep = np.isin(edition, picks)
    rows, edition = rows[keep], edition[keep]
    cutoff = years[edition] + _clip(corpus, horizon)
    table = paper_years(corpus, rows)
    counts = table.at(rows, cutoff)[0]
    # each cohort by citations; `rows` ascend, so the order breaks ties by id
    order = _by_edition(edition, -counts)
    sizes = np.bincount(edition, minlength=len(codes))
    rank = np.empty(len(rows), np.int64)
    rank[order] = np.arange(len(rows)) - (np.cumsum(sizes) - sizes)[edition[order]]
    top_k = np.ceil(pct * sizes).astype(np.int64)
    top = (rank < top_k[edition]) & (counts > 0)
    mine = np.searchsorted(rows, awardee)   # each case's awardee
    # every competitor outranks an awardee that is only force-included
    rank_cite = np.minimum(rank[mine], top_k[picks]) + 1
    rival = top.copy()
    rival[mine] = True
    at = np.flatnonzero(rival)
    nid = table.nids(corpus, rows[at], cutoff[at], tie=tie, seed=seed)[1]
    # the competitors and awardees of each cohort by NID, ties by id as `rows` ascend;
    # a running count of the competitors placed before each, less the count before its cohort
    order = at[_by_edition(edition[at], nid)]
    passed = np.empty(len(rows), np.int64)
    passed[order] = np.cumsum(top[order]) - top[order]
    competitors = np.bincount(edition[top], minlength=len(codes))
    rank_nid = passed[mine] - (np.cumsum(competitors) - competitors)[picks] + 1
    results = zip(sizes[picks].tolist(), (counts[mine] > 0).tolist(), rank_cite.tolist(), rank_nid.tolist())
    cases: list[ToTCase] = []
    skipped: list[tuple[str, str]] = []
    for i, (pid, venue, year) in enumerate(awardees):
        if i in reasons:
            skipped.append((pid, reasons[i]))
            continue
        size, ok, by_cite, by_nid = next(results)
        if not ok:
            skipped.append((pid, f"awardee has no citations at horizon {year + horizon}"))
        else:
            cases.append(ToTCase(pid, venue, year, size, by_cite, by_nid))
    return ToTReport(tuple(cases), tuple(skipped), horizon, pct)


# ---------------------------------------------------------------------------
# Corpus-wide distribution statistics.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StatsReport:
    """Distribution summary over every paper with at least one citation."""

    reports: CorpusMetrics
    depth_hist: dict[int, int]
    breadth_hist: dict[int, int]
    correlations: dict[str, float]
    n_uncited: int


def _histogram(values: np.ndarray) -> dict[int, int]:
    """{value: count}, in value order."""
    keys, counts = np.unique(values, return_counts=True)
    return dict(zip(keys.tolist(), counts.tolist()))


def pearson(x, y) -> float:
    """Pearson correlation; NaN when either side has zero variance."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be equal-length 1-d sequences")
    if len(x) < 2:
        return float("nan")
    dx = x - x.mean()
    dy = y - y.mean()
    denom = math.sqrt(float((dx * dx).sum()) * float((dy * dy).sum()))
    if denom == 0.0:
        return float("nan")
    return float((dx * dy).sum() / denom)


def corpus_stats(
    corpus: CitationCorpus,
    *,
    tie: str = "min-id",
    seed: int = 0,
) -> StatsReport:
    """Depth/breadth histograms and metric correlations for a whole corpus."""
    reports = corpus_metrics(corpus, tie=tie, seed=seed)
    cites, depths, breadths = reports.n, reports.depth, reports.breadth
    correlations = {
        "breadth_vs_citations": pearson(breadths, cites),
        "depth_vs_citations": pearson(depths, cites),
        "depth_vs_breadth": pearson(depths, breadths),
    }
    return StatsReport(reports, _histogram(depths), _histogram(breadths), correlations, len(corpus) - len(reports))


# ---------------------------------------------------------------------------
# Plot-ready CSV / JSON writers.
# ---------------------------------------------------------------------------

def write_venues_csv(report: ZReport, path) -> None:
    write_csv_columns(path, ("venue", "year", "n_papers", "z_nid", "z_cite", "z_diff"), report.venue,
                      (report.year, report.n_papers, report.z_nid, report.z_cite, report.z_cite - report.z_nid))


def write_tot_csv(report: ToTReport, path) -> None:
    write_csv(path, ("paper_id", "venue", "year", "cohort_size", "rank_cite", "rank_nid"), (
        (c.paper_id, c.venue, c.year, c.cohort_size, c.rank_cite, c.rank_nid) for c in report.cases
    ))


def write_histogram_csv(hist: Mapping[int, int], path, value_name: str) -> None:
    write_csv(path, (value_name, "count"), sorted(hist.items()))


def write_scatter_csv(reports: CorpusMetrics, path) -> None:
    write_csv_columns(path, ("paper_id", "n", "d", "b", "idi", "nid"), reports.paper_ids,
                      (reports.n, reports.depth, reports.breadth, reports.idi, reports.nid))


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def write_summary_json(summary: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_json_safe(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")
