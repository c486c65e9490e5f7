"""Tests for the graph-batched mapping engine and the region-result cache.

The contract under test is *bit-for-bit equivalence*: the scalar reference
loop, the graph-batched engine (one stacked candidate sweep per trial), and
any region-cache or warm-worker configuration must all produce identical op
costs, identical simulation results, and identical search histories.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fast import FASTSearch
from repro.core.problem import ObjectiveKind, SearchProblem
from repro.core.trial import TrialEvaluator
from repro.hardware.datapath import BufferConfig, DatapathConfig
from repro.hardware.search_space import DatapathSearchSpace
from repro.mapping.loopnest import MatrixProblem, extract_problem
from repro.mapping.mapper import Mapper, MapperOptions
from repro.mapping.tiling import (
    estimate_traffic_batch,
    estimate_traffic_batch_ops,
    tiling_candidate_arrays,
    tiling_candidate_arrays_ops,
)
from repro.reporting.serialization import trial_metrics_to_dict
from repro.runtime import ParallelExecutor, run_sharded_sweep
from repro.runtime.opcache import (
    OpCostCache,
    RegionCostCache,
    get_region_cache,
    reset_op_caches,
    reset_region_caches,
)
from repro.simulator.engine import SimulationOptions, Simulator
from repro.workloads.ops import is_matrix_op
from repro.workloads.registry import available_workloads, build_workload


@pytest.fixture(autouse=True)
def _fresh_caches():
    reset_op_caches()
    yield
    reset_op_caches()


def _random_configs(count: int, seed: int = 11):
    space = DatapathSearchSpace()
    rng = np.random.default_rng(seed)
    configs = []
    while len(configs) < count:
        params = {
            spec.name: spec.choices[int(rng.integers(len(spec.choices)))]
            for spec in space.specs
        }
        try:
            configs.append(space.to_config(params))
        except Exception:
            continue
    return configs


def _matrix_ops(graph):
    return [op for op in graph.ops if is_matrix_op(op.op_type)]


def _problems():
    return [
        MatrixProblem(
            m=4096, n=512, k=512, instances=1, stationary_is_weight=True,
            is_depthwise=False, input_bytes=4096 * 512 * 2,
            stationary_bytes=512 * 512 * 2, output_bytes=4096 * 512 * 2,
        ),
        MatrixProblem(
            m=1024, n=96, k=9, instances=1, stationary_is_weight=True,
            is_depthwise=True, input_bytes=1024 * 9 * 2,
            stationary_bytes=9 * 96 * 2, output_bytes=1024 * 96 * 2,
        ),
        MatrixProblem(
            m=128, n=128, k=64, instances=16, stationary_is_weight=False,
            is_depthwise=False, input_bytes=16 * 128 * 64 * 2,
            stationary_bytes=16 * 64 * 128 * 2, output_bytes=16 * 128 * 128 * 2,
        ),
        MatrixProblem(
            m=50000, n=4096, k=4096, instances=1, stationary_is_weight=True,
            is_depthwise=False, input_bytes=50000 * 4096 * 2,
            stationary_bytes=4096 * 4096 * 2, output_bytes=50000 * 4096 * 2,
        ),
    ]


# ---------------------------------------------------------------------------
class TestOpAxisTiling:
    def test_candidate_arrays_ops_match_per_problem_grids(self):
        problems = _problems()
        op_index, m_all, n_all, k_all = tiling_candidate_arrays_ops(problems, 128, 128)
        offset = 0
        for position, problem in enumerate(problems):
            m, n, k = tiling_candidate_arrays(problem, 128, 128)
            count = m.shape[0]
            segment = slice(offset, offset + count)
            assert np.array_equal(op_index[segment], np.full(count, position))
            assert np.array_equal(m_all[segment], m)
            assert np.array_equal(n_all[segment], n)
            assert np.array_equal(k_all[segment], k)
            offset += count
        assert offset == op_index.shape[0]

    def test_candidate_arrays_ops_empty(self):
        op_index, m, n, k = tiling_candidate_arrays_ops([], 128, 128)
        assert op_index.shape == m.shape == n.shape == k.shape == (0,)

    @pytest.mark.parametrize("blocking", [1 << 20, 16 << 20, 256 << 20])
    def test_traffic_batch_ops_bitwise_equals_per_problem(self, blocking):
        problems = _problems()
        op_index, m_all, n_all, k_all = tiling_candidate_arrays_ops(problems, 128, 128)
        stacked = estimate_traffic_batch_ops(
            problems, op_index, m_all, n_all, k_all, blocking
        )
        offset = 0
        for problem in problems:
            m, n, k = tiling_candidate_arrays(problem, 128, 128)
            single = estimate_traffic_batch(problem, m, n, k, blocking)
            segment = slice(offset, offset + m.shape[0])
            for name in ("input_bytes", "stationary_bytes", "output_bytes",
                         "total_bytes", "buffer_bytes", "fits"):
                assert np.array_equal(
                    getattr(stacked, name)[segment], getattr(single, name)
                ), name
            offset += m.shape[0]


# ---------------------------------------------------------------------------
class TestMapOpsBatch:
    def test_batch_equals_per_op_across_random_configs(self, efficientnet_b0):
        ops = _matrix_ops(efficientnet_b0)
        for config in _random_configs(3):
            batch_mapper = Mapper(config)
            batched = batch_mapper.map_ops_batch(ops, efficientnet_b0.tensors)
            per_op_mapper = Mapper(config)
            for op in ops:
                assert batched[op.name] == per_op_mapper.map_op(
                    op, efficientnet_b0.tensors
                ), op.name

    def test_batch_equals_scalar_reference(self, bert_seq128):
        ops = _matrix_ops(bert_seq128)
        config = DatapathConfig()
        batched = Mapper(config).map_ops_batch(ops, bert_seq128.tensors)
        scalar = Mapper(config, options=MapperOptions(vectorize=False))
        for op in ops:
            assert batched[op.name] == scalar.map_op(op, bert_seq128.tensors)

    def test_batch_labels_each_op_and_dedupes_problems(self, resnet50):
        ops = _matrix_ops(resnet50)
        config = DatapathConfig()
        mapper = Mapper(config)
        costs = mapper.map_ops_batch(ops, resnet50.tensors)
        assert set(costs) == {op.name for op in ops}
        for op in ops:
            assert costs[op.name].op_name == op.name
        # ResNet repeats block shapes: the per-trial memo must be smaller
        # than the op list (shared problems computed once).
        assert len(mapper._cache) < len(ops)

    def test_unschedulable_config_fails_every_op(self, efficientnet_b0):
        ops = _matrix_ops(efficientnet_b0)
        # A 256x256 array needs 32 KiB of private weight scratchpad to stage
        # a stationary tile; 1 KiB fails the structural check (Eq. 5).
        config = DatapathConfig(
            systolic_array_x=256,
            systolic_array_y=256,
            l1_buffer_config=BufferConfig.PRIVATE,
            l1_weight_buffer_kib=1,
        )
        costs = Mapper(config).map_ops_batch(ops, efficientnet_b0.tensors)
        assert all(cost.schedule_failed for cost in costs.values())

    def test_batch_populates_shared_op_cache(self, efficientnet_b0):
        ops = _matrix_ops(efficientnet_b0)
        config = DatapathConfig()
        shared = OpCostCache()
        first = Mapper(config, op_cache=shared)
        batched = first.map_ops_batch(ops, efficientnet_b0.tensors)
        assert shared.stats.puts > 0
        second = Mapper(config, op_cache=shared)
        hits_before = shared.stats.hits
        rebatched = second.map_ops_batch(ops, efficientnet_b0.tensors)
        assert shared.stats.hits > hits_before
        assert rebatched == batched

    def test_empty_batch(self, efficientnet_b0):
        assert Mapper(DatapathConfig()).map_ops_batch([], efficientnet_b0.tensors) == {}

    def test_batch_rejects_vector_ops(self, efficientnet_b0):
        vector_ops = [op for op in efficientnet_b0.ops if not is_matrix_op(op.op_type)]
        with pytest.raises(ValueError):
            Mapper(DatapathConfig()).map_ops_batch(
                vector_ops[:1], efficientnet_b0.tensors
            )


# ---------------------------------------------------------------------------
def _simulate(graph, config, **options):
    simulator = Simulator(
        config,
        SimulationOptions(fusion_solver="greedy", **options),
    )
    return simulator.simulate(graph)


def _result_signature(result):
    return (
        result.schedule_failed,
        [
            (
                record.index,
                record.compute_cycles,
                record.vector_cycles,
                record.dram_input_bytes,
                record.dram_weight_bytes,
                record.dram_output_bytes,
                record.pre_fusion_cycles,
                record.post_fusion_cycles,
                record.matrix_utilization,
                record.fusion,
                record.op_busy_cycles,
            )
            for record in result.regions
        ],
        result.qps if not result.schedule_failed else None,
    )


class TestGraphBatchedSimulator:
    @pytest.mark.parametrize("workload", sorted(available_workloads()))
    def test_all_engines_identical_per_workload(self, workload):
        graph = build_workload(workload, batch_size=1)
        config = DatapathConfig()
        scalar = _simulate(
            graph, config, vectorized_mapper=False, region_cache_enabled=False
        )
        batched = _simulate(graph, config, region_cache_enabled=False)
        assert _result_signature(batched) == _result_signature(scalar)

    def test_random_datapaths_identical(self, efficientnet_b0):
        for config in _random_configs(4, seed=23):
            scalar = _simulate(
                efficientnet_b0, config,
                vectorized_mapper=False, region_cache_enabled=False,
            )
            batched = _simulate(efficientnet_b0, config, region_cache_enabled=False)
            assert _result_signature(batched) == _result_signature(scalar)

    def test_region_cache_on_off_identical(self, efficientnet_b0):
        config = DatapathConfig()
        without = _simulate(efficientnet_b0, config, region_cache_enabled=False)
        cold = _simulate(efficientnet_b0, config)
        warm = _simulate(efficientnet_b0, config)
        assert _result_signature(cold) == _result_signature(without)
        assert _result_signature(warm) == _result_signature(without)
        cache = get_region_cache()
        assert cache.stats.hits > 0

    def test_warm_trial_skips_the_mapper_entirely(self, efficientnet_b0):
        config = DatapathConfig()
        _simulate(efficientnet_b0, config)
        warm_simulator = Simulator(config, SimulationOptions(fusion_solver="greedy"))
        warm_simulator.simulate(efficientnet_b0)
        # All regions came from the cache: the mapper never ran.
        assert warm_simulator.stage_seconds["mapper"] == 0.0
        assert len(warm_simulator.mapper._cache) == 0


# ---------------------------------------------------------------------------
class TestRegionCostCache:
    def test_lru_eviction_and_counters(self):
        cache = RegionCostCache(max_entries=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.get(("a",)) == 1  # refresh "a"; "b" becomes LRU
        cache.put(("c",), 3)
        assert len(cache) == 2
        assert cache.get(("b",)) is None  # evicted
        assert cache.get(("c",)) == 3
        assert cache.stats.puts == 3
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1
        assert 0.0 < cache.stats.hit_rate < 1.0

    def test_snapshot_counters(self):
        cache = RegionCostCache()
        cache.put(("x",), 1)
        cache.get(("x",))
        cache.get(("y",))
        assert cache.snapshot_counters() == (1, 1)

    def test_registry_is_shared_and_resettable(self):
        first = get_region_cache()
        assert get_region_cache() is first
        reset_region_caches()
        assert get_region_cache() is not first
        # reset_op_caches clears the region registry too.
        second = get_region_cache()
        reset_op_caches()
        assert get_region_cache() is not second

    def test_search_runtime_stats_surface_region_counters(self):
        problem = SearchProblem(["efficientnet-b0"], ObjectiveKind.PERF_PER_TDP)

        def run():
            evaluator = TrialEvaluator(
                problem,
                simulation_options=SimulationOptions(fusion_solver="greedy"),
            )
            search = FASTSearch(problem, optimizer="lcs", seed=5, evaluator=evaluator)
            return search.run(num_trials=8, batch_size=4)

        cold = run()
        warm = run()
        assert cold.runtime.region_cache_misses > 0
        assert cold.runtime.region_cache_hits == 0
        assert warm.runtime.region_cache_hits > 0
        assert warm.runtime.region_cache_hit_rate == 1.0
        history = lambda r: [trial_metrics_to_dict(m) for m in r.history]  # noqa: E731
        assert history(warm) == history(cold)


# ---------------------------------------------------------------------------
class TestWarmWorkers:
    def _run(self, executor=None, op_cache_path=None, trials=8):
        problem = SearchProblem(["efficientnet-b0"], ObjectiveKind.PERF_PER_TDP)
        evaluator = TrialEvaluator(
            problem,
            simulation_options=SimulationOptions(
                fusion_solver="greedy",
                op_cache_path=str(op_cache_path) if op_cache_path else None,
            ),
        )
        search = FASTSearch(
            problem, optimizer="lcs", seed=1, evaluator=evaluator, executor=executor
        )
        return search.run(num_trials=trials, batch_size=4)

    def test_warm_caches_is_safe_and_idempotent(self):
        problem = SearchProblem(["mobilenet-v2"], ObjectiveKind.PERF_PER_TDP)
        evaluator = TrialEvaluator(
            problem, simulation_options=SimulationOptions(fusion_solver="greedy")
        )
        evaluator.warm_caches()
        evaluator.warm_caches(batch_sizes=(1, 2))

    def test_parallel_run_reports_worker_op_cache_hits(self, tmp_path):
        store = tmp_path / "ops.jsonl"
        serial = self._run(op_cache_path=store)  # populates the store
        assert store.exists()
        reset_op_caches()
        with ParallelExecutor(num_workers=2) as executor:
            parallel = self._run(executor=executor, op_cache_path=store)
            counters = executor.runtime_counters()
        # The satellite fix: parallel modes used to report op_cache_hits: 0
        # even with a warm persistent store on disk.
        assert parallel.runtime.op_cache_hits > 0
        assert counters["op_cache_hits"] == parallel.runtime.op_cache_hits
        assert parallel.runtime.eval_seconds > 0
        history = lambda r: [trial_metrics_to_dict(m) for m in r.history]  # noqa: E731
        assert history(parallel) == history(serial)


# ---------------------------------------------------------------------------
class TestSweepOpCacheSharing:
    def test_sweep_shares_op_store_across_shards(self, tmp_path):
        problem = SearchProblem(["efficientnet-b0"], ObjectiveKind.PERF_PER_TDP)
        store = tmp_path / "sweep-ops.jsonl"
        with_store = run_sharded_sweep(
            problem, total_trials=8, num_shards=2, optimizer="random", seed=9,
            op_cache_path=store,
        )
        assert store.exists()
        reset_op_caches()
        without = run_sharded_sweep(
            problem, total_trials=8, num_shards=2, optimizer="random", seed=9,
            op_cache_enabled=False,
        )
        assert [trial_metrics_to_dict(t.metrics) for t in with_store.trials] == [
            trial_metrics_to_dict(t.metrics) for t in without.trials
        ]
        # A second sweep over the warm store starts from disk hits.
        reset_op_caches()
        rerun = run_sharded_sweep(
            problem, total_trials=8, num_shards=2, optimizer="random", seed=9,
            op_cache_path=store,
        )
        assert rerun.runtime.op_cache_hits > 0
