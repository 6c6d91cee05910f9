"""Decision-oriented clustering for pricing and power-consumption scheduling.

Clusters a dataset and picks one representative *decision* per cluster so that
the total downstream decision utility is maximized, instead of minimizing a
data-space distance. Ships the alternating-optimization engine, the
real-time-pricing and Lp-norm scheduling metrics, a conventional k-means
pipeline for comparison, and evaluation/experiment helpers.
"""

from .core import (
    ClusteringResult,
    DataFormatError,
    DataSet,
    DimensionError,
    DmocError,
    EmptyClusterError,
    FEASIBILITY_TOL,
    InfeasibleDecisionError,
    MetricOps,
    MetricSpec,
    Partition,
    PcsParams,
    RtpParams,
    RunTrace,
    SolverError,
    evaluate_utility,
    metric_ops,
    total_utility,
)
from .engine import EngineConfig, assign_clusters, run_dmoc, run_dmoc_ops, update_representatives
from .data import gen_synthetic_pcs, load_profiles, save_profiles
from . import pcs, rtp

__version__ = "0.1.0"

__all__ = [
    "ClusteringResult",
    "DataFormatError",
    "DataSet",
    "DimensionError",
    "DmocError",
    "EmptyClusterError",
    "EngineConfig",
    "FEASIBILITY_TOL",
    "InfeasibleDecisionError",
    "MetricOps",
    "MetricSpec",
    "Partition",
    "PcsParams",
    "RtpParams",
    "RunTrace",
    "SolverError",
    "assign_clusters",
    "evaluate_utility",
    "gen_synthetic_pcs",
    "load_profiles",
    "metric_ops",
    "run_dmoc",
    "run_dmoc_ops",
    "save_profiles",
    "total_utility",
    "update_representatives",
]
