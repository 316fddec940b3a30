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
    write_edge_file,
    write_metadata_file,
)
from .experiments import (
    StatsReport,
    ToTCase,
    ToTReport,
    VenueExperiment,
    ZReport,
    corpus_stats,
    kendall_tau_distance,
    mean_reciprocal_rank,
    pearson,
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
    "idi",
    "idi_max",
    "idi_min",
    "ingest",
    "ingest_files",
    "kendall_tau_distance",
    "mean_reciprocal_rank",
    "nid",
    "nid_value",
    "optimal_shape",
    "paper_metrics",
    "pearson",
    "tot_experiment",
    "tree_stats",
    "write_edge_file",
    "write_metadata_file",
    "z_experiment",
]
