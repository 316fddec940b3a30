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
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import CitationCorpus, write_csv
# `paper_metrics` is not called here, but bench/tracer.py wraps this module's
# name for it, so it stays imported.
from .metrics import MetricsReport, corpus_metrics, paper_metrics, parallel_map, snapshot_nid  # noqa: F401

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
    for x in seq:
        i = bisect_right(seen, x)
        inversions += len(seen) - i
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
    view,
    *,
    tie: str = "min-id",
    seed: int = 0,
) -> tuple[RankedList, list[str]]:
    """Rank papers by citations (descending) or NID (ascending) in a view.

    Papers without citations in the view have no tree and are excluded;
    they come back in the second return value.
    """
    if measure not in MEASURES:
        raise ValueError(f"measure must be one of {MEASURES}, got {measure!r}")
    scores: dict[str, float] = {}
    excluded: list[str] = []
    for pid in sorted(set(paper_ids)):
        n = view.citation_count(pid)
        if n == 0:
            excluded.append(pid)
        elif measure == "citations":
            scores[pid] = float(n)
        else:
            scores[pid] = snapshot_nid(view, pid, n, tie=tie, seed=seed)
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
    snap1 = corpus.snapshot(pub_year + t1)
    snap2 = corpus.snapshot(pub_year + t2)
    scores: dict[str, float] = {}
    excluded: list[str] = []
    for pid in sorted(set(paper_ids)):
        c1 = snap1.citation_count(pid)
        if c1 == 0:
            excluded.append(pid)
            continue
        c2 = snap2.citation_count(pid)
        gain = c2 - c1
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


def venue_groups(view) -> dict[tuple[str, int], list[str]]:
    """Group paper ids by (venue, year); papers without a venue are skipped.

    The venue string already identifies one series+year edition, so adding
    the year to the key only guards against inconsistent metadata.
    """
    groups: dict[tuple[str, int], list[str]] = defaultdict(list)
    for pid in view.paper_ids:
        rec = view.record(pid)
        if rec.venue is not None:
            groups[(rec.venue, rec.year)].append(pid)
    return dict(groups)


def _venue_z_job(ctx: tuple, item: tuple[str, int, list[str]]):
    venue, year, members = item
    corpus, t1, t2, tie, seed, gain_mode, min_venue_size = ctx
    snap1 = corpus.snapshot(year + t1)
    eligible = [p for p in members if snap1.citation_count(p) > 0]
    if len(eligible) < min_venue_size:
        return ("skip", (venue, year, f"only {len(eligible)} papers with citations at t1"))
    ranked_nid, _ = rank_by_measure(eligible, "nid", snap1, tie=tie, seed=seed)
    ranked_cite, _ = rank_by_measure(eligible, "citations", snap1, tie=tie, seed=seed)
    gains, _ = fractional_gain_list(eligible, corpus, year, t1, t2, mode=gain_mode)
    experiment = VenueExperiment(
        venue, year, tuple(sorted(eligible)), t1, t2,
        kendall_tau_distance(ranked_nid, gains),
        kendall_tau_distance(ranked_cite, gains),
    )
    return ("ok", experiment)


def z_experiment(
    corpus: CitationCorpus,
    year_range: tuple[int, int] = (1995, 2000),
    t1: int = 5,
    t2: int = 10,
    *,
    tie: str = "min-id",
    seed: int = 0,
    gain_mode: str = "fractional",
    min_venue_size: int = 2,
    jobs: int = 1,
) -> ZReport:
    """Run the venue z-score experiment over venues published in the range.

    For each venue: papers are ranked by NID and by citation count on the
    snapshot t1 years after publication, and each ranking's Kendall
    distance from the (t1, t2] gain ranking becomes that venue's z score.
    Venues with fewer than `min_venue_size` eligible papers are skipped
    and reported.  Venues are independent; with `jobs` > 1 they are spread
    over worker processes and merged back in sorted order.
    """
    if t1 >= t2:
        raise ValueError(f"need t1 < t2, got {t1} >= {t2}")
    items = [
        (venue, year, members)
        for (venue, year), members in sorted(venue_groups(corpus).items())
        if year_range[0] <= year <= year_range[1]
    ]
    ctx = (corpus, t1, t2, tie, seed, gain_mode, min_venue_size)
    outcomes = parallel_map(_venue_z_job, items, jobs, ctx)
    results: list[VenueExperiment] = []
    skipped: list[tuple[str, int, str]] = []
    for kind, payload in outcomes:
        if kind == "ok":
            results.append(payload)
        else:
            skipped.append(payload)
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
    and by NID (ascending) at the same horizon.
    """
    if not 0 < pct <= 1:
        raise ValueError(f"pct must be in (0, 1], got {pct}")
    groups = venue_groups(corpus)
    cases: list[ToTCase] = []
    skipped: list[tuple[str, str]] = []
    for pid, venue, year in sorted(set(awardees)):
        cohort = groups.get((venue, year))
        if cohort is None:
            skipped.append((pid, f"no papers for venue {venue!r} in {year}"))
            continue
        if pid not in cohort:
            skipped.append((pid, f"awardee not in venue cohort {venue!r} {year}"))
            continue
        snap = corpus.snapshot(year + horizon)
        counts = {p: snap.citation_count(p) for p in cohort}
        if counts[pid] == 0:
            skipped.append((pid, f"awardee has no citations at horizon {year + horizon}"))
            continue
        by_cite = sorted(cohort, key=lambda p: (-counts[p], p))
        top_k = math.ceil(pct * len(cohort))
        competitors = [p for p in by_cite[:top_k] if counts[p] > 0]
        if pid not in competitors:
            competitors.append(pid)
        ranked_cite = RankedList.from_scores({p: float(counts[p]) for p in competitors}, "desc")
        nid_scores = {p: snapshot_nid(snap, p, counts[p], tie=tie, seed=seed) for p in competitors}
        ranked_nid = RankedList.from_scores(nid_scores, "asc")
        cases.append(
            ToTCase(
                pid, venue, year, len(cohort), tuple(ranked_cite.ids),
                ranked_cite.rank_of(pid), ranked_nid.rank_of(pid),
            )
        )
    return ToTReport(tuple(cases), tuple(skipped), horizon, pct)


# ---------------------------------------------------------------------------
# Corpus-wide distribution statistics.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StatsReport:
    """Distribution summary over every paper with at least one citation."""

    reports: tuple[MetricsReport, ...]
    depth_hist: dict[int, int]
    breadth_hist: dict[int, int]
    correlations: dict[str, float]
    n_uncited: int


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
    jobs: int = 1,
) -> StatsReport:
    """Depth/breadth histograms and metric correlations for a whole corpus.

    `jobs` is accepted for compatibility and does not split the work.
    """
    reports = corpus_metrics(corpus, tie=tie, seed=seed, jobs=jobs)
    n_uncited = len(corpus) - len(reports)
    depth_hist = dict(sorted(Counter(r.depth for r in reports).items()))
    breadth_hist = dict(sorted(Counter(r.breadth for r in reports).items()))
    cites = [r.n for r in reports]
    depths = [r.depth for r in reports]
    breadths = [r.breadth for r in reports]
    correlations = {
        "breadth_vs_citations": pearson(breadths, cites) if reports else float("nan"),
        "depth_vs_citations": pearson(depths, cites) if reports else float("nan"),
        "depth_vs_breadth": pearson(depths, breadths) if reports else float("nan"),
    }
    return StatsReport(tuple(reports), depth_hist, breadth_hist, correlations, n_uncited)


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


def write_scatter_csv(reports: Iterable[MetricsReport], path) -> None:
    write_csv(path, ("paper_id", "n", "d", "b", "idi", "nid"), (
        (r.paper_id, r.n, r.depth, r.breadth, r.idi, r.nid) for r in reports
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
