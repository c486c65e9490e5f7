"""Compiler pipeline: lowering a workload graph for simulation.

The pipeline mirrors the paper's flow: the input graph (standing in for an
XLA HLO module) is partitioned into XLA-style fusion regions, and per-op
lowering decisions that FAST exposes as search hyperparameters (currently
the two-pass softmax) are recorded so the simulator can apply the right cost
model.  FAST fusion itself is *not* a compiler pass here — it is applied by
the simulator after per-region performance is known, exactly as in Figure 1
where the ILP consumes simulator statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.compiler.softmax import SoftmaxCostFactors, softmax_cost_factors
from repro.compiler.xla_fusion import FusionRegion, build_fusion_regions
from repro.workloads.graph import Graph
from repro.workloads.ops import OpType

__all__ = ["CompiledModel", "compile_graph"]


@dataclass
class CompiledModel:
    """A workload graph lowered into fusion regions plus lowering choices.

    Attributes:
        graph: The source graph.
        regions: XLA-style fusion regions in execution order.
        softmax_factors: Cost descriptor for the selected softmax lowering.
        use_two_pass_softmax: Whether the two-pass lowering was selected.
        region_plan: Per-region structural facts the simulator derives once
            per compiled graph (built lazily by :mod:`repro.simulator.engine`).
    """

    graph: Graph
    regions: List[FusionRegion]
    softmax_factors: SoftmaxCostFactors
    use_two_pass_softmax: bool
    region_plan: Optional[list] = field(default=None, repr=False, compare=False)

    @property
    def num_regions(self) -> int:
        """Number of fusion regions."""
        return len(self.regions)

    def region_of(self, op_name: str) -> FusionRegion:
        """Find the region containing a given op."""
        for region in self.regions:
            if any(op.name == op_name for op in region.ops):
                return region
        raise KeyError(f"op {op_name!r} not found in any region")

    def internal_traffic_saved_bytes(self) -> int:
        """DRAM bytes avoided by XLA fusion (internal tensors never spill)."""
        total = 0
        for region in self.regions:
            for tname in region.internal_tensors:
                # Each internal tensor would otherwise be written and re-read.
                total += 2 * self.graph.tensor(tname).size_bytes
        return total

    def op_type_histogram(self) -> Dict[OpType, int]:
        """Count of ops per type (useful for reports and tests)."""
        histogram: Dict[OpType, int] = {}
        for region in self.regions:
            for op in region.ops:
                histogram[op.op_type] = histogram.get(op.op_type, 0) + 1
        return histogram


def compile_graph(graph: Graph, use_two_pass_softmax: bool = False) -> CompiledModel:
    """Lower ``graph`` into a :class:`CompiledModel`.

    Args:
        graph: The workload graph (already at the desired batch size).
        use_two_pass_softmax: Select the two-pass softmax lowering
            (Section 5.6) for all softmax ops in the model.
    """
    regions = build_fusion_regions(graph)
    return CompiledModel(
        graph=graph,
        regions=regions,
        softmax_factors=softmax_cost_factors(use_two_pass_softmax),
        use_two_pass_softmax=use_two_pass_softmax,
    )
