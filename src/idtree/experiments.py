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

from .corpus import CitationCorpus, sort_by_year, write_csv
from .metrics import CorpusMetrics, _runs, corpus_metrics, paper_metrics, paper_years

MEASURES = ("citations", "nid")
GAIN_MODES = ("fractional", "absolute")


@dataclass(frozen=True)
class RankedList:
    """Strictly ordered (paper_id, score) sequence.

    `direction` records whether lower scores rank first (``"asc"``, used
    for NID) or higher ones do (``"desc"``, citations and gains).  Ties are
    always broken by paper id, so the order is a total one.
    """

    items: tuple[tuple[str, float], ...]
    direction: str

    @classmethod
    def from_scores(cls, scores: Mapping[str, float] | Iterable[tuple[str, float]], direction: str) -> "RankedList":
        if direction not in ("asc", "desc"):
            raise ValueError(f"direction must be 'asc' or 'desc', got {direction!r}")
        pairs = list(scores.items()) if isinstance(scores, Mapping) else list(scores)
        ids = [pid for pid, _ in pairs]
        if len(set(ids)) != len(ids):
            raise ValueError("ranked list requires unique paper ids")
        sign = 1.0 if direction == "asc" else -1.0
        pairs.sort(key=lambda item: (sign * item[1], item[0]))
        return cls(tuple(pairs), direction)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(pid for pid, _ in self.items)

    def rank_of(self, paper_id: str) -> int:
        for i, (pid, _) in enumerate(self.items):
            if pid == paper_id:
                return i + 1
        raise KeyError(paper_id)

    def __len__(self) -> int:
        return len(self.items)


def _ranked_ids(ranking) -> tuple[str, ...]:
    if isinstance(ranking, RankedList):
        return ranking.ids
    ids = tuple(ranking)
    if len(set(ids)) != len(ids):
        raise ValueError("ranking contains duplicate elements")
    return ids


def _count_inversions(seq: Sequence[int]) -> int:
    """Pairs i < j with seq[i] > seq[j]: each item counts the larger ones seen before it."""
    seen: list[int] = []
    inversions = 0
    for k, x in enumerate(seq):
        i = bisect_right(seen, x)
        inversions += k - i
        seen.insert(i, x)
    return inversions


def kendall_tau_distance(a, b) -> float:
    """Normalized Kendall tau distance between two rankings of one set.

    Counts discordant pairs over m(m-1)/2; 0 for identical orders, 1 for
    exact reversals, 0 when m < 2.  Both inputs are strict orders: ties
    must have been broken upstream, as `RankedList` does.
    """
    ids_a = _ranked_ids(a)
    ids_b = _ranked_ids(b)
    if set(ids_a) != set(ids_b):
        raise ValueError("rankings must cover the same element set")
    m = len(ids_a)
    if m < 2:
        return 0.0
    pos_b = {pid: i for i, pid in enumerate(ids_b)}
    discordant = _count_inversions([pos_b[pid] for pid in ids_a])
    return discordant / (m * (m - 1) / 2)


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
) -> tuple[RankedList, list[str]]:
    """Rank papers by citations (descending) or NID (ascending) in a corpus.

    Papers without citations have no tree and are excluded; they come back
    in the second return value.  Each NID comes from the paper's own tree,
    built here.
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
    direction = "desc" if measure == "citations" else "asc"
    return RankedList.from_scores(scores, direction), excluded


def fractional_gain_list(
    paper_ids: Iterable[str],
    corpus: CitationCorpus,
    pub_year: int,
    t1: int,
    t2: int,
    *,
    mode: str = "fractional",
) -> tuple[RankedList, list[str]]:
    """Rank papers by citation gain between pub_year+t1 and pub_year+t2.

    Fractional mode scores (c2 - c1) / c1, rewarding late risers relative
    to their early base; absolute mode scores c2 - c1.  Papers with no
    citations at t1 are excluded and reported.
    """
    if mode not in GAIN_MODES:
        raise ValueError(f"mode must be one of {GAIN_MODES}, got {mode!r}")
    if t1 >= t2:
        raise ValueError(f"need t1 < t2, got {t1} >= {t2}")
    scores: dict[str, float] = {}
    excluded: list[str] = []
    for pid in sorted(set(paper_ids)):
        years = list(map(corpus.year, corpus.citations_of(pid)))   # in year order
        c1 = bisect_right(years, pub_year + t1)
        if c1 == 0:
            excluded.append(pid)
            continue
        gain = bisect_right(years, pub_year + t2) - c1
        scores[pid] = gain / c1 if mode == "fractional" else float(gain)
    return RankedList.from_scores(scores, "desc"), excluded


@dataclass(frozen=True)
class VenueExperiment:
    """Per-venue z scores: Kendall distance of each measure's ranking at t1
    from the fractional-gain ranking over (t1, t2)."""

    venue: str
    year: int
    paper_ids: tuple[str, ...]
    t1: int
    t2: int
    z_nid: float
    z_cite: float

    @property
    def z_diff(self) -> float:
        """Positive when the NID ranking tracks future gains more closely."""
        return self.z_cite - self.z_nid


@dataclass(frozen=True)
class ZReport:
    venues: tuple[VenueExperiment, ...]
    skipped: tuple[tuple[str, int, str], ...]
    t1: int
    t2: int

    @property
    def mean_z_nid(self) -> float:
        return sum(v.z_nid for v in self.venues) / len(self.venues)

    @property
    def mean_z_cite(self) -> float:
        return sum(v.z_cite for v in self.venues) / len(self.venues)

    def to_summary_dict(self) -> dict:
        out = {
            "n_venues": len(self.venues),
            "t1": self.t1,
            "t2": self.t2,
            "skipped": [list(s) for s in self.skipped],
        }
        if self.venues:
            out["mean_z_nid"] = self.mean_z_nid
            out["mean_z_cite"] = self.mean_z_cite
            out["mean_z_diff"] = out["mean_z_cite"] - out["mean_z_nid"]
        return out


def _editions(corpus: CitationCorpus) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The corpus's (venue, year) editions in sorted order, and their papers.

    Returns each edition's venue code and year, then the offsets of each
    edition's run in the last array: the rows of the editions' papers, each
    run in id order.  Papers without a venue are in none.  The venue string
    already identifies one series+year edition, so the year in the key only
    guards against inconsistent metadata.
    """
    rows = np.flatnonzero(corpus.venues >= 0)
    members = sort_by_year(corpus.years, corpus.venues[rows], rows)
    code, year = corpus.venues[members], corpus.years[members]
    heads = np.flatnonzero(np.r_[len(members) > 0, (code[1:] != code[:-1]) | (year[1:] != year[:-1])])
    return code[heads], year[heads].astype(np.int64), np.r_[heads, len(members)], members


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
    as `rank_by_measure` and `fractional_gain_list` rank one venue.
    """
    if t1 < 0:
        raise ValueError(f"t1 must be >= 0, got {t1}")
    if t1 >= t2:
        raise ValueError(f"need t1 < t2, got {t1} >= {t2}")
    if gain_mode not in GAIN_MODES:
        raise ValueError(f"mode must be one of {GAIN_MODES}, got {gain_mode!r}")
    codes, years, offsets, members = _editions(corpus)
    picks = np.flatnonzero((years >= year_range[0]) & (years <= year_range[1]))
    at, edition = _runs(offsets, picks)
    rows = members[at]
    year = years[picks][edition]
    table = paper_years(corpus, rows)
    c1, nid = table.nids(corpus, rows, year + _clip(corpus, t1), tie=tie, seed=seed)
    c2 = table.counts(rows, year + _clip(corpus, t2))
    cited = c1 > 0
    rows, edition, c1, c2, nid = rows[cited], edition[cited], c1[cited], c2[cited], nid[cited]
    gain = (c2 - c1) / c1 if gain_mode == "fractional" else (c2 - c1).astype(np.float64)
    # `rows` are positions in id order, so they break score ties by id
    gain_rank = np.empty(len(rows), np.int64)
    gain_rank[np.lexsort((rows, -gain, edition))] = np.arange(len(rows))
    by_nid = gain_rank[np.lexsort((rows, nid, edition))].tolist()
    by_cite = gain_rank[np.lexsort((rows, -c1, edition))].tolist()
    ids = corpus.paper_ids
    rows = rows.tolist()
    results: list[VenueExperiment] = []
    skipped: list[tuple[str, int, str]] = []
    lo = 0
    for k, m in zip(picks.tolist(), np.bincount(edition, minlength=len(picks)).tolist()):
        venue, year = corpus.venue_names[codes[k]], int(years[k])
        hi = lo + m
        if m < 2:
            skipped.append((venue, year, f"only {m} papers with citations at t1"))
        else:
            pairs = m * (m - 1) / 2
            results.append(VenueExperiment(
                venue, year, tuple(map(ids.__getitem__, rows[lo:hi])), t1, t2,
                _count_inversions(by_nid[lo:hi]) / pairs,
                _count_inversions(by_cite[lo:hi]) / pairs,
            ))
        lo = hi
    return ZReport(tuple(results), tuple(skipped), t1, t2)


@dataclass(frozen=True)
class ToTCase:
    """One awardee ranked among its venue's top-cited contemporaries."""

    paper_id: str
    venue: str
    year: int
    cohort_size: int
    competitor_ids: tuple[str, ...]
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

    The competitor set is the top ceil(pct * cohort) papers by citation
    count `horizon` years after publication, with the awardee force-included
    if it fell below the cut.  Ranks are computed by citations (descending)
    and by NID (ascending) at the same horizon, for all awardees at once
    from `metrics.paper_years`.
    """
    if not 0 < pct <= 1:
        raise ValueError(f"pct must be in (0, 1], got {pct}")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    codes, years, offsets, members = _editions(corpus)
    edition = {(corpus.venue_names[c], y): k for k, (c, y) in enumerate(zip(codes.tolist(), years.tolist()))}
    ids = corpus.paper_ids
    awardees = sorted(set(awardees))
    reasons: dict[int, str] = {}
    found: list[tuple[int, int]] = []   # (edition, row of the awardee)
    for i, (pid, venue, year) in enumerate(awardees):
        k = edition.get((venue, year))
        if k is None:
            reasons[i] = f"no papers for venue {venue!r} in {year}"
        elif not corpus.has_paper(pid) or (corpus.record(pid).venue, corpus.year(pid)) != (venue, year):
            reasons[i] = f"awardee not in venue cohort {venue!r} {year}"
        else:
            found.append((k, corpus.row(pid)))
    picks, awardee = np.array(found, np.int64).reshape(-1, 2).T
    at, case = _runs(offsets, picks)
    rows = members[at]
    cutoff = years[picks] + _clip(corpus, horizon)
    table = paper_years(corpus, rows)
    counts = table.counts(rows, cutoff[case])
    # each cohort by citations; `rows` are positions in id order, so they break ties by id
    order = np.lexsort((rows, -counts, case))
    rows, case, counts = rows[order], case[order], counts[order]
    mine = rows == awardee[case]   # one per case, in case order
    cited = counts[mine] > 0
    sizes = offsets[picks + 1] - offsets[picks]
    rank = np.arange(len(rows)) - (np.cumsum(sizes) - sizes)[case]
    top_k = np.array([math.ceil(pct * size) for size in sizes.tolist()], np.int64)
    # every competitor outranks an awardee that is only force-included
    rank_cite = np.minimum(rank[mine], top_k) + 1
    rival = mine | ((rank < top_k[case]) & (counts > 0))
    rows, case, mine = rows[rival], case[rival], mine[rival]
    _, nid = table.nids(corpus, rows, cutoff[case], tie=tie, seed=seed)
    own_nid, own_row = nid[mine][case], rows[mine][case]
    ahead = (nid < own_nid) | ((nid == own_nid) & (rows < own_row))
    rank_nid = np.bincount(case[ahead], minlength=len(picks)) + 1
    bounds = np.r_[0, np.cumsum(np.bincount(case, minlength=len(picks)))].tolist()
    results = zip(bounds, bounds[1:], sizes.tolist(), cited.tolist(), rank_cite.tolist(), rank_nid.tolist())
    rows = rows.tolist()
    cases: list[ToTCase] = []
    skipped: list[tuple[str, str]] = []
    for i, (pid, venue, year) in enumerate(awardees):
        if i in reasons:
            skipped.append((pid, reasons[i]))
            continue
        lo, hi, size, ok, by_cite, by_nid = next(results)
        if not ok:
            skipped.append((pid, f"awardee has no citations at horizon {year + horizon}"))
        else:
            cases.append(ToTCase(pid, venue, year, size, tuple(map(ids.__getitem__, rows[lo:hi])), by_cite, by_nid))
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
    write_csv(path, ("venue", "year", "n_papers", "z_nid", "z_cite", "z_diff"), (
        (v.venue, v.year, len(v.paper_ids), v.z_nid, v.z_cite, v.z_diff) for v in report.venues
    ))


def write_tot_csv(report: ToTReport, path) -> None:
    write_csv(path, ("paper_id", "venue", "year", "cohort_size", "rank_cite", "rank_nid"), (
        (c.paper_id, c.venue, c.year, c.cohort_size, c.rank_cite, c.rank_nid) for c in report.cases
    ))


def write_histogram_csv(hist: Mapping[int, int], path, value_name: str) -> None:
    write_csv(path, (value_name, "count"), sorted(hist.items()))


def write_scatter_csv(reports: CorpusMetrics, path) -> None:
    write_csv(path, ("paper_id", "n", "d", "b", "idi", "nid"), zip(
        reports.paper_ids, *(c.tolist() for c in (reports.n, reports.depth, reports.breadth, reports.idi, reports.nid))
    ))


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
