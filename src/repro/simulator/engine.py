"""Whole-graph accelerator simulator.

The simulator evaluates a workload graph on a datapath configuration using
the same three-stage flow as the paper (Figure 1): matrix ops are scheduled
by the Timeloop-style mapper, vector ops are costed on the VPU, per-region
pre-fusion performance is assembled, and — when the datapath has a Global
Memory and fusion is enabled — the FAST fusion pass assigns tensors to the
Global Memory and post-fusion performance is produced.

Multi-core chips (the dual-core TPU-v3 baseline) are modeled by simulating a
single core with its share of the DRAM bandwidth and multiplying throughput
by the core count, matching the paper's treatment of each TPU-v3 core as a
separate accelerator serving its own batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.compiler.passes import CompiledModel, compile_graph
from repro.compiler.xla_fusion import FusionRegion
from repro.fusion.fast_fusion import FastFusionOptimizer, FusionDecision, FusionResult, RegionStats
from repro.hardware.datapath import DatapathConfig
from repro.hardware.memory import MemoryHierarchy
from repro.mapping.costmodel import OpCost
from repro.mapping.mapper import Mapper, MapperOptions
from repro.simulator.result import RegionPerformance, SimulationResult
from repro.simulator.vector_ops import vector_op_work, vpu_lanes_per_core
from repro.workloads.graph import Graph, Operation, TensorKind
from repro.workloads.ops import OpType, is_matrix_op
from repro.workloads.registry import build_workload

__all__ = ["SimulationOptions", "Simulator", "clear_compiled_cache", "precompile_graph"]

# Lazily resolved telemetry accessors: ``repro.runtime`` imports this module
# during its own package init, so a module-level telemetry import would be
# circular.  Cached after the first call; with tracing disabled the hot path
# pays one function call + attribute check per span site.
_get_tracer = None
_COUNTERS = None


def _tracer():
    global _get_tracer
    if _get_tracer is None:
        from repro.runtime.telemetry import get_tracer

        _get_tracer = get_tracer
    return _get_tracer()


def _counters():
    global _COUNTERS
    if _COUNTERS is None:
        from repro.runtime.telemetry import get_counters

        _COUNTERS = get_counters()
    return _COUNTERS


@dataclass
class SimulationOptions:
    """Knobs controlling a simulation run.

    The last four fields are performance knobs that never change results
    (both mapping engines are bit-for-bit equivalent, and cache hits return
    exactly what a fresh evaluation would compute):

    * ``vectorized_mapper`` — select the graph-batched NumPy engine, which
      maps every op-cache-missing matrix op of a trial in ONE stacked
      candidate sweep (None follows ``mapper_options``, whose default is
      vectorized; False forces the scalar reference loop).
    * ``region_cache_enabled`` — memoize whole fusion-region evaluations
      across trials through :func:`repro.runtime.opcache.get_region_cache`;
      fusion-stable regions skip even the gather step on warm trials.
    * ``op_cache_enabled`` — share matrix-op mapping costs across trials
      through the process-local :func:`repro.runtime.opcache.get_op_cache`
      (vector-op costs come from the region plan and need no cache).
    * ``op_cache_path`` — optionally persist that cache as JSON lines.

    Prefer building these knobs through
    :class:`repro.simulator.enginespec.EngineSpec` — the one-string engine
    API (``repro ... --engine``) that maps onto this dataclass.
    """

    enable_fast_fusion: Optional[bool] = None  # None: follow the datapath config
    fusion_solver: str = "auto"
    mapper_options: Optional[MapperOptions] = None
    vectorized_mapper: Optional[bool] = None
    region_cache_enabled: bool = True
    op_cache_enabled: bool = True
    op_cache_path: Optional[str] = None


# ---------------------------------------------------------------------------
# Compiled-graph cache.  Lowering a graph into fusion regions is identical
# for every trial that simulates the same graph object with the same softmax
# lowering, so the result is memoized per process.  Entries are keyed by
# object identity + op count (guarding against post-build mutation); the
# stored strong reference keeps ids stable, so entries inherited across a
# fork stay valid — fork-started executor workers begin life with the
# parent's warm compiled graphs instead of re-lowering them.
# ---------------------------------------------------------------------------
_COMPILED_CACHE: Dict[Tuple[int, bool], Tuple[Graph, int, CompiledModel]] = {}
_COMPILED_CACHE_MAX = 64


def _compile_cached(graph: Graph, use_two_pass_softmax: bool) -> CompiledModel:
    key = (id(graph), use_two_pass_softmax)
    entry = _COMPILED_CACHE.get(key)
    if entry is not None and entry[0] is graph and entry[1] == len(graph):
        return entry[2]
    compiled = compile_graph(graph, use_two_pass_softmax=use_two_pass_softmax)
    _COMPILED_CACHE[key] = (graph, len(graph), compiled)
    while len(_COMPILED_CACHE) > _COMPILED_CACHE_MAX:
        _COMPILED_CACHE.pop(next(iter(_COMPILED_CACHE)))
    return compiled


def precompile_graph(graph: Graph, use_two_pass_softmax: bool = False) -> None:
    """Warm the compiled-graph cache and region plan of one graph (worker warm-up)."""
    _region_plan(_compile_cached(graph, use_two_pass_softmax))


def clear_compiled_cache() -> None:
    """Drop all memoized compiled graphs (for tests and memory-sensitive runs)."""
    _COMPILED_CACHE.clear()


# ---------------------------------------------------------------------------
# Region plans.  Everything about a fusion region that does not depend on the
# trial — which ops are matrix ops, each vector op's VPU work, tensor byte
# sums, which matrix op's traffic amplification applies to each external
# tensor, the fusion predecessor — is derived once per compiled graph and
# stored on it, so fork-started workers inherit the plans of every graph the
# parent warmed.  Per trial, ``Simulator._evaluate_region`` only combines the
# mapped matrix-op costs and the VPU lane count with it.
# ---------------------------------------------------------------------------
class _RegionPlan:
    """Trial-independent facts about one fusion region.

    ``matrix_ops`` lists the region's matrix ops and ``matrix_bytes`` each
    one's (activation input, weight input, output) byte sums.  The vector
    ops, in region order, are ``vector_names`` with their effective VPU work
    ``vector_work`` (:func:`~repro.simulator.vector_ops.vector_op_work`), so
    a vector op's cycles are ``work / lanes``; ``vector_flops`` is their
    total useful FLOPs.
    ``inputs`` and ``weights`` list ``(traffic, source)`` per external tensor:
    ``source`` is the position of the last matrix op reading the tensor, whose
    traffic amplification multiplies the tensor's size; without one,
    ``traffic`` is already the tensor's fixed traffic.  ``output_traffic`` is
    the fixed output traffic before partial-sum spills.
    """

    __slots__ = (
        "index", "name", "op_names", "primary_op_type", "matrix_ops",
        "vector_names", "vector_work", "vector_flops",
        "anchor", "matrix_bytes", "inputs", "weights", "output_traffic",
        "predecessor", "is_graph_output", "input_bytes", "weight_bytes",
        "output_bytes",
    )

    def __init__(
        self,
        region: FusionRegion,
        compiled: CompiledModel,
        producer_region: Dict[str, int],
    ) -> None:
        graph = compiled.graph
        tensors = graph.tensors
        factors = compiled.softmax_factors
        self.index = region.index
        self.name = region.name
        self.op_names = [op.name for op in region.ops]
        self.primary_op_type = (
            region.matrix_op.op_type
            if region.matrix_op is not None
            else _dominant_vector_type(region)
        )
        self.matrix_ops = [op for op in region.ops if is_matrix_op(op.op_type)]
        vector_ops = [op for op in region.ops if not is_matrix_op(op.op_type)]
        work = [vector_op_work(op, tensors, factors) for op in vector_ops]
        self.vector_names = [op.name for op in vector_ops]
        self.vector_work = [effective for _, effective in work]
        self.vector_flops = sum(flops for flops, _ in work)
        self.anchor = None
        if region.matrix_op is not None:
            for position, op in enumerate(self.matrix_ops):
                if op.name == region.matrix_op.name:
                    self.anchor = position

        input_source: Dict[str, int] = {}
        weight_source: Dict[str, int] = {}
        self.matrix_bytes = []
        for position, op in enumerate(self.matrix_ops):
            act_bytes = sum(
                tensors[t].size_bytes
                for t in op.inputs
                if tensors[t].kind is TensorKind.ACTIVATION
            )
            w_bytes = sum(
                tensors[t].size_bytes
                for t in op.inputs
                if tensors[t].kind in (TensorKind.WEIGHT, TensorKind.CONSTANT)
            )
            out_bytes = sum(tensors[t].size_bytes for t in op.outputs)
            self.matrix_bytes.append((act_bytes, w_bytes, out_bytes))
            for t in op.inputs:
                if tensors[t].kind is TensorKind.ACTIVATION:
                    input_source[t] = position
                else:
                    weight_source[t] = position

        softmax_inputs = set()
        softmax_outputs = set()
        for op in region.ops:
            if op.op_type is OpType.SOFTMAX:
                softmax_inputs.update(op.inputs)
                softmax_outputs.update(op.outputs)

        self.inputs = []
        for tname in region.input_tensors:
            size = tensors[tname].size_bytes
            if tname in input_source:
                self.inputs.append((size, input_source[tname]))
            elif tname in softmax_inputs:
                self.inputs.append((size * factors.input_traffic_factor, None))
            else:
                self.inputs.append((size, None))
        self.weights = [
            (tensors[tname].size_bytes, weight_source.get(tname))
            for tname in region.weight_tensors
        ]
        output_traffic = 0.0
        for tname in region.output_tensors:
            size = tensors[tname].size_bytes
            if tname in softmax_outputs:
                output_traffic += size * factors.output_traffic_factor
            else:
                output_traffic += size
        self.output_traffic = output_traffic

        self.predecessor = None
        if region.input_tensors:
            largest_input = max(
                region.input_tensors, key=lambda t: tensors[t].size_bytes
            )
            self.predecessor = producer_region.get(largest_input)
        self.is_graph_output = any(
            t in graph.output_names for t in region.output_tensors
        )
        self.input_bytes = int(region.input_bytes(graph))
        self.weight_bytes = int(region.weight_bytes(graph))
        self.output_bytes = int(region.output_bytes(graph))


def _build_region_plan(compiled: CompiledModel) -> List[_RegionPlan]:
    producer_region: Dict[str, int] = {}
    plan = []
    for region in compiled.regions:
        plan.append(_RegionPlan(region, compiled, producer_region))
        for tensor_name in region.output_tensors:
            producer_region[tensor_name] = region.index
    return plan


def _region_plan(compiled: CompiledModel) -> List[_RegionPlan]:
    """The compiled graph's region plan, built on first use."""
    plan = compiled.region_plan
    if plan is None:
        plan = compiled.region_plan = _build_region_plan(compiled)
    return plan


def _dominant_vector_type(region: FusionRegion) -> OpType:
    """Primary op type of a region with no matrix op."""
    if not region.ops:
        return OpType.ELEMENTWISE_ADD
    preferred = (OpType.SOFTMAX, OpType.LAYERNORM, OpType.POOLING, OpType.REDUCE)
    for op_type in preferred:
        for op in region.ops:
            if op.op_type is op_type:
                return op_type
    return region.ops[0].op_type


class Simulator:
    """Evaluates workloads on a datapath configuration.

    ``simulate`` times three stages — the batched mapper call, the vector
    ops of each region, and the fusion pass — and adds the
    seconds to the process-wide counter store
    (:func:`repro.runtime.telemetry.get_counters`) as ``mapper_seconds``,
    ``vector_seconds`` and ``fusion_seconds``: the raw material for
    ``repro profile`` and :class:`~repro.core.fast.RuntimeStats`.
    """

    def __init__(
        self,
        config: DatapathConfig,
        options: Optional[SimulationOptions] = None,
    ) -> None:
        self.config = config
        self.options = options or SimulationOptions()
        self._core_config = core = self._derive_core_config(config)
        # Per-datapath constants of every region evaluation.
        self._vpu_lanes = max(1, vpu_lanes_per_core(core))
        self._onchip_without_gm = core.l1_total_bytes + core.l2_total_bytes
        self.hierarchy = MemoryHierarchy(core)
        self.op_cache = None
        if self.options.op_cache_enabled:
            # Imported lazily: repro.runtime imports this module at package
            # import time, so a module-level import would be circular.
            from repro.runtime.opcache import get_op_cache

            self.op_cache = get_op_cache(self.options.op_cache_path)
        mapper_options = self.options.mapper_options or MapperOptions()
        vectorize = self.options.vectorized_mapper
        if vectorize is not None and vectorize != mapper_options.vectorize:
            mapper_options = MapperOptions(
                dataflows=mapper_options.dataflows,
                max_tiling_candidates=mapper_options.max_tiling_candidates,
                padding_max_overhead=mapper_options.padding_max_overhead,
                vectorize=vectorize,
            )
        self.mapper = Mapper(
            self._core_config, self.hierarchy, mapper_options, op_cache=self.op_cache
        )
        self.region_cache = None
        if self.options.region_cache_enabled:
            from repro.runtime.opcache import get_region_cache

            self.region_cache = get_region_cache()

    # ------------------------------------------------------------------
    @staticmethod
    def _derive_core_config(config: DatapathConfig) -> DatapathConfig:
        """Single-core view of the chip (bandwidth split across cores)."""
        if config.num_cores == 1:
            return config
        channels = max(1, config.gddr6_channels // config.num_cores)
        return config.evolve(num_cores=1, gddr6_channels=channels)

    # ------------------------------------------------------------------
    def simulate_workload(self, workload: str, batch_size: Optional[int] = None) -> SimulationResult:
        """Build a registered workload at the design's native batch and simulate it."""
        batch = batch_size or self.config.native_batch_size
        graph = build_workload(workload, batch_size=batch)
        return self.simulate(graph)

    def simulate(self, graph: Graph) -> SimulationResult:
        """Simulate a prepared graph (already at the desired batch size).

        The region walk is a gather -> batch-map -> scatter pipeline: regions
        served by the region cache are skipped outright, every matrix op of
        the remaining regions is mapped in one call
        (:meth:`~repro.mapping.mapper.Mapper.map_ops_batch` — one stacked
        candidate sweep, or the scalar reference loop), and the per-region
        evaluation then just scatters the pre-mapped costs.  A cold region
        cache produces the identical result.
        """
        core = self._core_config
        with _tracer().span("compile", category="simulate"):
            compiled = _compile_cached(graph, core.use_two_pass_softmax)
            plan = _region_plan(compiled)
        dram_bpc = core.dram_bytes_per_cycle

        region_cache = self.region_cache
        region_keys: Optional[List[Tuple]] = None
        cached_entries: Optional[List[Optional[tuple]]] = None
        if region_cache is not None:
            key_base = self._region_key_base(graph, compiled)
            region_keys = [key_base + (region.index,) for region in plan]
            cached_entries = [region_cache.get(key) for key in region_keys]

        gather_ops: List[Operation] = []
        for position, region in enumerate(plan):
            if cached_entries is not None and cached_entries[position] is not None:
                continue
            gather_ops.extend(region.matrix_ops)
        premapped: Dict[str, OpCost] = {}
        if gather_ops:
            with _tracer().span(
                "batch_map", category="simulate", num_ops=len(gather_ops)
            ):
                started = time.perf_counter()
                premapped = self.mapper.map_ops_batch(gather_ops, graph.tensors)
                _counters().add("mapper_seconds", time.perf_counter() - started)

        region_perf: List[RegionPerformance] = []
        region_stats: List[RegionStats] = []
        schedule_failed = False

        with _tracer().span("regions", category="simulate") as region_span:
            for position, region in enumerate(plan):
                entry = cached_entries[position] if cached_entries is not None else None
                if entry is not None:
                    if entry[0] is None:
                        schedule_failed = True
                        break
                    record, stats = self._copy_region_entry(entry)
                else:
                    record, stats = self._evaluate_region(region, dram_bpc, premapped)
                    if region_cache is not None:
                        if record is None:
                            region_cache.put(region_keys[position], (None,))
                        else:
                            region_cache.put(
                                region_keys[position],
                                self._copy_region_entry((record, stats)),
                            )
                    if record is None:
                        schedule_failed = True
                        break
                region_perf.append(record)
                region_stats.append(stats)
            region_span.set_attr("regions", len(plan))
            if cached_entries is not None:
                hits = sum(1 for entry in cached_entries if entry is not None)
                region_span.set_attr("region_cache_hits", hits)
                region_span.set_attr("region_cache_misses", len(cached_entries) - hits)

        fusion_result: Optional[FusionResult] = None
        fusion_enabled = (
            self.options.enable_fast_fusion
            if self.options.enable_fast_fusion is not None
            else core.enable_fast_fusion
        )
        if (
            fusion_enabled
            and not schedule_failed
            and core.l3_global_buffer_mib > 0
            and region_stats
        ):
            optimizer = FastFusionOptimizer(
                gm_capacity_bytes=core.global_buffer_bytes,
                solver=self.options.fusion_solver,
            )
            with _tracer().span(
                "fusion", category="simulate", regions=len(region_stats)
            ):
                started = time.perf_counter()
                fusion_result = optimizer.optimize(region_stats)
                _counters().add("fusion_seconds", time.perf_counter() - started)
            for record, cycles, decision in zip(
                region_perf, fusion_result.region_cycles, fusion_result.decisions
            ):
                record.post_fusion_cycles = cycles
                record.fusion = decision

        return SimulationResult(
            workload=graph.name,
            config=self.config,
            batch_size=graph.batch_size,
            regions=region_perf,
            fusion_result=fusion_result,
            schedule_failed=schedule_failed,
            clock_ghz=core.clock_ghz,
            num_cores=self.config.num_cores,
        )

    # ------------------------------------------------------------------
    def _region_key_base(self, graph: Graph, compiled: CompiledModel) -> Tuple:
        """Region-cache key prefix: everything region results depend on.

        The graph fingerprint pins the region structure and every tensor
        shape; the mapper config key pins all mapping-relevant datapath
        knobs; the remaining components cover the vector-op cost model (VPU
        lanes, softmax lowering), the DRAM traffic conversion, and the
        Global-Memory blocking headroom used for fusion statistics.  The
        engine choice (scalar / graph-batched) is deliberately excluded —
        both engines are bit-for-bit equivalent.
        """
        core = self._core_config
        factors = compiled.softmax_factors
        return (
            graph.fingerprint(),
            core.use_two_pass_softmax,
            self.mapper.mapping_config_key(),
            core.dram_bytes_per_cycle,
            vpu_lanes_per_core(core),
            factors.input_traffic_factor,
            factors.output_traffic_factor,
            factors.flops_factor,
            self._onchip_without_gm,
        )

    @staticmethod
    def _copy_region_entry(entry: tuple) -> tuple:
        """A cache entry with a fresh copy of its RegionPerformance.

        Records are mutated downstream (the fusion pass writes
        ``post_fusion_cycles`` / ``fusion`` onto them), so neither the cached
        record nor its mutable fields may ever alias a live simulation
        result.  The frozen RegionStats is shared as is.
        """
        record, stats = entry
        return (
            RegionPerformance(
                index=record.index,
                name=record.name,
                op_names=list(record.op_names),
                primary_op_type=record.primary_op_type,
                flops=record.flops,
                compute_cycles=record.compute_cycles,
                vector_cycles=record.vector_cycles,
                dram_input_bytes=record.dram_input_bytes,
                dram_weight_bytes=record.dram_weight_bytes,
                dram_output_bytes=record.dram_output_bytes,
                pre_fusion_cycles=record.pre_fusion_cycles,
                post_fusion_cycles=record.pre_fusion_cycles,
                matrix_utilization=record.matrix_utilization,
                fusion=FusionDecision(),
                op_busy_cycles=dict(record.op_busy_cycles),
            ),
            stats,
        )

    # ------------------------------------------------------------------
    def _evaluate_region(
        self,
        region: _RegionPlan,
        dram_bpc: float,
        premapped: Dict[str, OpCost],
    ):
        """Cost one fusion region; returns (RegionPerformance, RegionStats).

        ``premapped`` carries the scatter half of the gather -> batch-map ->
        scatter pipeline: the costs of every matrix op in the region.  Each
        vector op costs its planned VPU work over the core's VPU lanes.
        """
        # Keys in region order; matrix and then vector ops fill in the values.
        op_busy_cycles: Dict[str, float] = dict.fromkeys(region.op_names)
        matrix_costs: List[OpCost] = []
        for op in region.matrix_ops:
            cost = premapped[op.name]
            if cost.schedule_failed:
                return None, None
            matrix_costs.append(cost)
            op_busy_cycles[op.name] = cost.compute_cycles
        vector_cycles = 0  # sum() over no vector ops
        if region.vector_work:
            started = time.perf_counter()
            lanes = self._vpu_lanes
            cycles = [work / lanes for work in region.vector_work]
            op_busy_cycles.update(zip(region.vector_names, cycles))
            vector_cycles = sum(cycles)
            _counters().add("vector_seconds", time.perf_counter() - started)
        if region.anchor is not None:
            anchor_cost: Optional[OpCost] = matrix_costs[region.anchor]
        else:
            anchor_cost = matrix_costs[0] if matrix_costs else None

        compute_cycles = sum(c.compute_cycles for c in matrix_costs)
        flops = sum(c.flops for c in matrix_costs) + region.vector_flops

        # --- DRAM traffic attribution -----------------------------------
        # Each matrix op's mapping may re-read its operands (traffic
        # amplification); region-external tensors feeding a matrix op are
        # charged the amplified traffic of the last matrix op reading them.
        input_amp: List[float] = []
        weight_amp: List[float] = []
        for (act_bytes, w_bytes, _), cost in zip(region.matrix_bytes, matrix_costs):
            input_amp.append(
                max(1.0, cost.dram_input_bytes / act_bytes) if act_bytes else 1.0
            )
            weight_amp.append(
                max(1.0, cost.dram_weight_bytes / w_bytes) if w_bytes else 1.0
            )

        input_traffic = 0.0
        for traffic, source in region.inputs:
            input_traffic += traffic if source is None else traffic * input_amp[source]

        weight_traffic = 0.0
        for traffic, source in region.weights:
            weight_traffic += traffic if source is None else traffic * weight_amp[source]

        # Partial-sum spill traffic from the matrix ops, if a mapping tiled
        # the reduction beyond on-chip capacity (counted even when the matrix
        # output itself stays inside the region).
        output_traffic = region.output_traffic
        for (_, _, matrix_out_bytes), cost in zip(region.matrix_bytes, matrix_costs):
            output_traffic += max(0.0, cost.dram_output_bytes - matrix_out_bytes)

        # Within a fused region the vector ops execute as the matrix op's
        # epilogue, consuming results as they stream out of the systolic
        # array, so the region's busy time is the longer of the two engines
        # rather than their sum.
        busy_cycles = max(compute_cycles, vector_cycles)
        total_traffic = input_traffic + weight_traffic + output_traffic
        dram_cycles = total_traffic / dram_bpc if dram_bpc > 0 else 0.0
        pre_fusion_cycles = max(busy_cycles, dram_cycles)

        record = RegionPerformance(
            index=region.index,
            name=region.name,
            op_names=list(region.op_names),
            primary_op_type=region.primary_op_type,
            flops=flops,
            compute_cycles=compute_cycles,
            vector_cycles=vector_cycles,
            dram_input_bytes=input_traffic,
            dram_weight_bytes=weight_traffic,
            dram_output_bytes=output_traffic,
            pre_fusion_cycles=pre_fusion_cycles,
            post_fusion_cycles=pre_fusion_cycles,
            matrix_utilization=anchor_cost.utilization if anchor_cost else 0.0,
            fusion=FusionDecision(),
            op_busy_cycles=op_busy_cycles,
        )

        # --- Fusion statistics -------------------------------------------
        blocking_gm = 0
        if anchor_cost is not None and anchor_cost.tiling is not None:
            blocking_gm = max(
                0, anchor_cost.tiling.buffer_bytes(2) - self._onchip_without_gm
            )

        stats = RegionStats(
            index=region.index,
            name=region.name,
            busy_cycles=busy_cycles,
            t_max_cycles=pre_fusion_cycles,
            input_dram_cycles=input_traffic / dram_bpc if dram_bpc > 0 else 0.0,
            weight_dram_cycles=weight_traffic / dram_bpc if dram_bpc > 0 else 0.0,
            output_dram_cycles=output_traffic / dram_bpc if dram_bpc > 0 else 0.0,
            input_bytes=region.input_bytes,
            weight_bytes=region.weight_bytes,
            output_bytes=region.output_bytes,
            blocking_gm_bytes=blocking_gm,
            predecessor=region.predecessor,
            is_graph_output=region.is_graph_output,
        )
        return record, stats
