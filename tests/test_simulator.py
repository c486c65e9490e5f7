"""Tests for the whole-graph simulator, vector op costs, roofline, and results."""

import pytest

from repro.compiler.passes import compile_graph
from repro.compiler.softmax import THREE_PASS_SOFTMAX, TWO_PASS_SOFTMAX
from repro.hardware.datapath import DatapathConfig
from repro.mapping.loopnest import extract_problem
from repro.runtime.opcache import OpCostCache, reset_op_caches
from repro.simulator.engine import SimulationOptions, Simulator
from repro.simulator.roofline import attainable_flops, roofline_point
from repro.simulator.vector_ops import vector_op_cost, vector_op_work, vpu_lanes_per_core
from repro.workloads.builder import GraphBuilder
from repro.workloads.ops import OpType, is_matrix_op
from repro.workloads.registry import available_workloads, build_workload


class TestVectorOpCosts:
    def _softmax_graph(self, elements=4096):
        builder = GraphBuilder("g")
        x = builder.input("x", (1, elements))
        builder.softmax(x, name="sm")
        return builder.graph

    def test_vpu_lane_count(self, small_config):
        assert vpu_lanes_per_core(small_config) == (
            small_config.num_pes * small_config.vpu_lanes_per_pe
        )

    def test_softmax_cost_scales_inversely_with_lanes(self):
        graph = self._softmax_graph()
        narrow = DatapathConfig(vector_unit_multiplier=1)
        wide = DatapathConfig(vector_unit_multiplier=8)
        op = graph.op("sm")
        cost_narrow = vector_op_cost(op, graph.tensors, narrow)
        cost_wide = vector_op_cost(op, graph.tensors, wide)
        assert cost_wide.vector_cycles < cost_narrow.vector_cycles

    def test_two_pass_softmax_trades_traffic_for_flops(self, small_config):
        graph = self._softmax_graph()
        op = graph.op("sm")
        three = vector_op_cost(op, graph.tensors, small_config, THREE_PASS_SOFTMAX)
        two = vector_op_cost(op, graph.tensors, small_config, TWO_PASS_SOFTMAX)
        assert two.dram_output_bytes < three.dram_output_bytes
        assert two.vector_cycles > three.vector_cycles

    def test_reshape_is_free(self, small_config):
        builder = GraphBuilder("g")
        x = builder.input("x", (1, 64))
        builder.reshape(x, (64,), name="r")
        cost = vector_op_cost(builder.graph.op("r"), builder.graph.tensors, small_config)
        assert cost.vector_cycles == 0
        assert cost.dram_bytes == 0

    def test_layernorm_reads_input_twice(self, small_config):
        builder = GraphBuilder("g")
        x = builder.input("x", (1, 1024))
        builder.layernorm(x, name="ln")
        cost = vector_op_cost(builder.graph.op("ln"), builder.graph.tensors, small_config)
        assert cost.dram_input_bytes == pytest.approx(2 * 1024 * 2)


class TestRoofline:
    def test_memory_bound_below_ridge(self, tpu_config):
        point = roofline_point(tpu_config, operational_intensity=30.0)
        assert point.memory_bound
        assert point.attainable_flops < tpu_config.peak_matrix_flops

    def test_compute_bound_above_ridge(self, tpu_config):
        point = roofline_point(tpu_config, operational_intensity=500.0)
        assert not point.memory_bound
        assert point.attainable_flops == pytest.approx(tpu_config.peak_matrix_flops)

    def test_attainable_scales_linearly_when_memory_bound(self, tpu_config):
        assert attainable_flops(tpu_config, 20.0) == pytest.approx(
            2 * attainable_flops(tpu_config, 10.0)
        )

    def test_zero_intensity(self, tpu_config):
        assert attainable_flops(tpu_config, 0.0) == 0.0


class TestSimulatorInvariants:
    def test_result_structure(self, tiny_on_small, tiny_graph):
        result = tiny_on_small
        assert result.workload == tiny_graph.name
        assert not result.schedule_failed
        assert result.total_cycles > 0
        assert result.qps > 0
        assert result.latency_ms > 0
        assert len(result.regions) > 0

    def test_flops_conserved(self, tiny_on_small, tiny_graph):
        assert tiny_on_small.total_flops == pytest.approx(tiny_graph.total_flops(), rel=0.01)

    def test_post_fusion_never_slower(self, b0_on_fast_large):
        assert b0_on_fast_large.total_cycles <= b0_on_fast_large.pre_fusion_cycles + 1e-6

    def test_post_fusion_traffic_never_larger(self, b0_on_fast_large):
        assert (
            b0_on_fast_large.dram_bytes_post_fusion
            <= b0_on_fast_large.dram_bytes_pre_fusion + 1e-6
        )

    def test_region_times_at_least_busy(self, b0_on_fast_large):
        for region in b0_on_fast_large.regions:
            assert region.post_fusion_cycles >= region.busy_cycles - 1e-6

    def test_utilization_in_unit_interval(self, b0_on_tpu, b0_on_fast_large):
        for result in (b0_on_tpu, b0_on_fast_large):
            assert 0 < result.compute_utilization <= 1.0
            for value in result.per_layer_utilization():
                assert 0 <= value <= 1.0

    def test_runtime_fractions_sum_to_one(self, b0_on_tpu):
        fractions = b0_on_tpu.runtime_fraction_by_op_type()
        assert sum(fractions.values()) == pytest.approx(1.0)
        flop_fractions = b0_on_tpu.flop_fraction_by_op_type()
        assert sum(flop_fractions.values()) == pytest.approx(1.0)

    def test_memory_stall_fraction_bounds(self, b0_on_tpu):
        for post in (True, False):
            stall = b0_on_tpu.memory_stall_fraction(post_fusion=post)
            assert 0.0 <= stall <= 1.0

    def test_qps_scales_with_cores(self, tiny_graph, small_config):
        single = Simulator(small_config.evolve(num_cores=1)).simulate(tiny_graph)
        dual = Simulator(small_config.evolve(num_cores=2, gddr6_channels=4)).simulate(tiny_graph)
        assert dual.qps == pytest.approx(2 * single.qps, rel=0.05)

    def test_summary_keys(self, tiny_on_small):
        summary = tiny_on_small.summary()
        for key in ("qps", "latency_ms", "compute_utilization", "fusion_efficiency"):
            assert key in summary

    def test_perf_per_tdp_helper(self, tiny_on_small):
        assert tiny_on_small.perf_per_tdp(100.0) == pytest.approx(tiny_on_small.qps / 100.0)
        assert tiny_on_small.perf_per_tdp(0.0) == 0.0


class TestFusionInteraction:
    def test_disabling_fusion_is_never_faster(self, tiny_graph, fast_large_config):
        fused = Simulator(fast_large_config).simulate(tiny_graph)
        unfused = Simulator(
            fast_large_config, SimulationOptions(enable_fast_fusion=False)
        ).simulate(tiny_graph)
        assert fused.total_cycles <= unfused.total_cycles + 1e-6

    def test_no_global_memory_means_no_fusion(self, tiny_graph):
        config = DatapathConfig(l3_global_buffer_mib=0)
        result = Simulator(config).simulate(tiny_graph)
        assert result.fusion_result is None

    def test_fusion_improves_efficientnet_on_fast_large(self, b0_on_fast_large):
        """Section 6.2.7: fusion removes memory stalls on bandwidth-starved designs."""
        assert b0_on_fast_large.fusion_result is not None
        assert b0_on_fast_large.fusion_result.speedup >= 1.0
        assert b0_on_fast_large.operational_intensity(post_fusion=True) >= (
            b0_on_fast_large.operational_intensity(post_fusion=False)
        )

    def test_larger_global_memory_never_hurts(self, tiny_graph):
        small_gm = DatapathConfig(l3_global_buffer_mib=1, gddr6_channels=1)
        big_gm = DatapathConfig(l3_global_buffer_mib=128, gddr6_channels=1)
        r_small = Simulator(small_gm).simulate(tiny_graph)
        r_big = Simulator(big_gm).simulate(tiny_graph)
        assert r_big.total_cycles <= r_small.total_cycles + 1e-6


class TestScheduleFailures:
    def test_infeasible_datapath_reports_failure(self, tiny_graph):
        from repro.hardware.datapath import BufferConfig

        config = DatapathConfig(
            systolic_array_x=256,
            systolic_array_y=256,
            l1_buffer_config=BufferConfig.PRIVATE,
            l1_input_buffer_kib=1,
            l1_weight_buffer_kib=1,
            l1_output_buffer_kib=1,
        )
        result = Simulator(config).simulate(tiny_graph)
        assert result.schedule_failed
        assert result.qps == 0.0


class TestRegionPlan:
    """The per-graph region plan is a pure cache of structural facts."""

    @staticmethod
    def _canonical(result):
        import dataclasses
        import json

        def encode(value):
            if isinstance(value, float):
                return value.hex()
            if isinstance(value, dict):
                return {str(k): encode(v) for k, v in value.items()}
            if isinstance(value, (list, tuple)):
                return [encode(v) for v in value]
            return value

        payload = {
            "regions": [dataclasses.asdict(r) for r in result.regions],
            "fusion": dataclasses.asdict(result.fusion_result)
            if result.fusion_result is not None
            else None,
            "failed": result.schedule_failed,
        }
        return json.dumps(encode(payload), sort_keys=True, default=str)

    @staticmethod
    def _reference_options():
        return SimulationOptions(
            fusion_solver="greedy",
            vectorized_mapper=False,
            op_cache_enabled=False,
            region_cache_enabled=False,
        )

    def test_results_identical_with_plan_built_or_rebuilt(self, fast_large_config):
        from repro.simulator import engine
        from repro.workloads.registry import available_workloads, build_workload

        configs = [
            fast_large_config,
            fast_large_config.evolve(l3_global_buffer_mib=4),
            DatapathConfig(l3_global_buffer_mib=64, enable_fast_fusion=True),
        ]
        for workload in available_workloads():
            graph = build_workload(workload, batch_size=1)
            for config in configs:
                simulator = Simulator(config, self._reference_options())
                first = self._canonical(simulator.simulate(graph))
                reused = self._canonical(simulator.simulate(graph))
                engine._compile_cached(graph, config.use_two_pass_softmax).region_plan = None
                rebuilt = self._canonical(simulator.simulate(graph))
                assert first == reused == rebuilt, (workload, config)

    def test_plan_built_once_per_compiled_graph(self, monkeypatch, small_config, tiny_graph):
        from repro.simulator import engine
        from repro.workloads.registry import build_workload

        builds = []
        original = engine._build_region_plan
        monkeypatch.setattr(
            engine, "_build_region_plan",
            lambda compiled: builds.append(compiled) or original(compiled),
        )
        engine.clear_compiled_cache()
        other = build_workload("mobilenet-v2", batch_size=1)
        for config in (small_config, small_config.evolve(l3_global_buffer_mib=8)):
            simulator = Simulator(config, self._reference_options())
            for _ in range(3):
                simulator.simulate(tiny_graph)
                simulator.simulate(other)
        engine.precompile_graph(other)
        assert len(builds) == 2
        assert {id(compiled.graph) for compiled in builds} == {id(tiny_graph), id(other)}

    def test_fork_started_workers_reuse_parent_plans(self, monkeypatch, tmp_path):
        import multiprocessing
        import os

        from repro.core.fast import FASTSearch
        from repro.core.problem import ObjectiveKind, SearchProblem
        from repro.core.trial import TrialEvaluator
        from repro.reporting.serialization import trial_metrics_to_dict
        from repro.runtime.executor import ParallelExecutor
        from repro.simulator import engine

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("plans are inherited only by fork-started workers")
        problem = SearchProblem(["mobilenet-v2"], ObjectiveKind.PERF_PER_TDP)
        options = SimulationOptions(
            fusion_solver="greedy", op_cache_enabled=False, region_cache_enabled=False
        )

        def run(executor=None):
            evaluator = TrialEvaluator(problem, simulation_options=options)
            search = FASTSearch(
                problem, optimizer="lcs", seed=3, evaluator=evaluator, executor=executor
            )
            return search.run(num_trials=12, batch_size=4)

        # The parent warms what the pool initializer warms, then builds the
        # plan of every graph the search touches.
        TrialEvaluator(problem, simulation_options=options).warm_caches()
        serial = run()
        log = tmp_path / "builds.txt"
        original = engine._build_region_plan

        def logged(compiled):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            return original(compiled)

        monkeypatch.setattr(engine, "_build_region_plan", logged)
        with ParallelExecutor(num_workers=2) as executor:
            parallel = run(executor)
        history = lambda r: [trial_metrics_to_dict(m) for m in r.history]  # noqa: E731
        assert history(parallel) == history(serial)
        assert not log.exists(), log.read_text()


def _exact(value):
    """A number's type and bits: ``0`` and ``0.0`` differ, as do close floats."""
    return type(value).__name__, float(value).hex()


class TestVectorCostsFromPlan:
    """Region vector costs equal :func:`vector_op_cost`, the per-op model.

    Every engine evaluates vector ops from the region plan, so the reference
    here is the standalone cost function applied op by op over the compiled
    regions, summed in region order.
    """

    @pytest.mark.parametrize("two_pass", [False, True])
    @pytest.mark.parametrize("workload", sorted(available_workloads()))
    def test_region_vector_costs_match_vector_op_cost(self, workload, two_pass):
        graph = build_workload(workload, batch_size=1)
        compiled = compile_graph(graph, use_two_pass_softmax=two_pass)
        for multiplier in (1, 4, 16):
            config = DatapathConfig(
                vector_unit_multiplier=multiplier, use_two_pass_softmax=two_pass
            )
            simulator = Simulator(
                config, SimulationOptions(fusion_solver="greedy", region_cache_enabled=False)
            )
            result = simulator.simulate(graph)
            assert not result.schedule_failed
            assert len(result.regions) == len(compiled.regions)
            for record, region in zip(result.regions, compiled.regions):
                vector = [
                    vector_op_cost(op, graph.tensors, config, compiled.softmax_factors)
                    for op in region.ops
                    if not is_matrix_op(op.op_type)
                ]
                matrix = [
                    simulator.mapper.map_op(op, graph.tensors)
                    for op in region.ops
                    if is_matrix_op(op.op_type)
                ]
                context = (workload, two_pass, multiplier, region.name)
                assert _exact(record.vector_cycles) == _exact(
                    sum(c.vector_cycles for c in vector)
                ), context
                assert _exact(record.flops) == _exact(
                    sum(c.flops for c in matrix) + sum(c.flops for c in vector)
                ), context
                assert list(record.op_busy_cycles) == [op.name for op in region.ops]
                for cost in vector:
                    assert _exact(record.op_busy_cycles[cost.op_name]) == _exact(
                        cost.vector_cycles
                    ), context

    def test_vector_op_work_matches_vector_op_cost(self, bert_seq128, small_config):
        lanes = vpu_lanes_per_core(small_config)
        for factors in (THREE_PASS_SOFTMAX, TWO_PASS_SOFTMAX):
            for op in bert_seq128.ops:
                if is_matrix_op(op.op_type):
                    continue
                cost = vector_op_cost(op, bert_seq128.tensors, small_config, factors)
                flops, effective = vector_op_work(op, bert_seq128.tensors, factors)
                assert flops == cost.flops and int(effective) == cost.padded_flops
                assert _exact(effective / lanes) == _exact(cost.vector_cycles)


class TestVectorOpsBypassOpCache:
    def test_cold_simulate_looks_up_matrix_ops_only(self, monkeypatch, efficientnet_b0):
        reset_op_caches()
        looked_up = []
        original_get = OpCostCache.get

        def spy(cache, key):
            looked_up.append(key)
            return original_get(cache, key)

        monkeypatch.setattr(OpCostCache, "get", spy)
        simulator = Simulator(DatapathConfig(), SimulationOptions(fusion_solver="greedy"))
        simulator.simulate(efficientnet_b0)
        op_cache = simulator.op_cache
        config_key = simulator.mapper.mapping_config_key()
        problems = {
            simulator.mapper._problem_key(extract_problem(op, efficientnet_b0.tensors))
            for op in efficientnet_b0.ops
            if is_matrix_op(op.op_type)
        }
        assert sorted(looked_up) == sorted((config_key, p) for p in problems)
        assert op_cache.stats.hits + op_cache.stats.misses == len(problems)
        assert set(op_cache._memory) == set(looked_up)
