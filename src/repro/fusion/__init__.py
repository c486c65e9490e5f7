"""FAST fusion: tensor-to-Global-Memory assignment (greedy or exact ILP)."""

from repro.fusion.blocking import (
    BlockedFusionResult,
    BlockingAwareFusionOptimizer,
    blocked_region_stats,
)
from repro.fusion.fast_fusion import (
    FastFusionOptimizer,
    FusionDecision,
    FusionResult,
    RegionStats,
)
from repro.fusion.ilp import BranchAndBoundSolver, IlpProblem, IlpSolution

__all__ = [
    "BlockedFusionResult",
    "BlockingAwareFusionOptimizer",
    "BranchAndBoundSolver",
    "FastFusionOptimizer",
    "FusionDecision",
    "FusionResult",
    "IlpProblem",
    "IlpSolution",
    "RegionStats",
    "blocked_region_stats",
]
