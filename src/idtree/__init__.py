"""Citation-network analytics via influence dispersion trees.

Builds, for each paper, a rooted tree over its direct citers and derives
the IDI / NID influence metrics from the tree's depth and breadth, plus an
evaluation harness comparing NID against raw citation counts as a
predictor of future influence.
"""

from .corpus import (
    CitationCorpus,
    CorpusError,
    IngestReport,
    PaperRecord,
    UnknownPaperError,
    ingest,
    ingest_files,
    read_edge_file,
    read_metadata_file,
    write_edge_file,
    write_metadata_file,
)
from .experiments import (
    RankedList,
    StatsReport,
    ToTCase,
    ToTReport,
    VenueExperiment,
    ZReport,
    corpus_stats,
    fractional_gain_list,
    kendall_tau_distance,
    mean_reciprocal_rank,
    pearson,
    rank_by_measure,
    tot_experiment,
    z_experiment,
)
from .metrics import (
    CorpusMetrics,
    MetricsReport,
    corpus_metrics,
    idi,
    idi_max,
    idi_min,
    influence_divergence,
    nid,
    nid_value,
    optimal_shape,
    paper_metrics,
)
from .tree import (
    BranchInfo,
    InfluenceGraph,
    InfluenceTree,
    TreeStats,
    build_idg,
    build_idt,
    tree_from_parent_map,
    tree_stats,
)

__version__ = "0.1.0"

__all__ = [
    "BranchInfo",
    "CitationCorpus",
    "CorpusError",
    "CorpusMetrics",
    "IngestReport",
    "InfluenceGraph",
    "InfluenceTree",
    "MetricsReport",
    "PaperRecord",
    "RankedList",
    "StatsReport",
    "ToTCase",
    "ToTReport",
    "TreeStats",
    "UnknownPaperError",
    "VenueExperiment",
    "ZReport",
    "build_idg",
    "build_idt",
    "corpus_metrics",
    "corpus_stats",
    "fractional_gain_list",
    "idi",
    "idi_max",
    "idi_min",
    "influence_divergence",
    "ingest",
    "ingest_files",
    "kendall_tau_distance",
    "mean_reciprocal_rank",
    "nid",
    "nid_value",
    "optimal_shape",
    "paper_metrics",
    "pearson",
    "rank_by_measure",
    "read_edge_file",
    "read_metadata_file",
    "tot_experiment",
    "tree_from_parent_map",
    "tree_stats",
    "write_edge_file",
    "write_metadata_file",
    "z_experiment",
]
