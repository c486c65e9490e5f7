"""Tests for the sharded sweep orchestrator (repro.runtime.sharding)."""

import math

import pytest

from repro.core.fast import FASTSearch
from repro.core.problem import ObjectiveKind, SearchProblem
from repro.hardware.search_space import DatapathSearchSpace
from repro.reporting.serialization import params_to_jsonable, trial_metrics_to_dict
from repro.runtime import ParallelExecutor
from repro.runtime.sharding import (
    ShardResult,
    ShardSpec,
    load_shard_result,
    merge_shard_results,
    plan_shards,
    run_shard,
    run_sharded_sweep,
    save_shard_result,
    shard_seed,
    shard_space,
    sweep_result_to_dict,
)
from repro.search.pareto import ParetoFront


def _problem():
    return SearchProblem(["efficientnet-b0"], ObjectiveKind.PERF_PER_TDP)


def _front_objectives(front: ParetoFront):
    return sorted(point.objectives for point in front.points)


# ---------------------------------------------------------------------------
class TestPlanning:
    def test_budget_splits_exactly(self):
        specs = plan_shards(total_trials=22, num_shards=4, seed=3)
        assert sum(spec.num_trials for spec in specs) == 22
        assert [spec.num_trials for spec in specs] == [6, 6, 5, 5]
        assert [spec.shard_id for spec in specs] == [0, 1, 2, 3]

    def test_single_shard_keeps_base_seed(self):
        assert shard_seed(17, 0, 1) == 17
        (spec,) = plan_shards(10, 1, seed=17)
        assert spec.seed == 17

    def test_multi_shard_seeds_are_distinct_and_deterministic(self):
        seeds = [shard_seed(0, k, 8) for k in range(8)]
        assert len(set(seeds)) == 8
        assert seeds == [shard_seed(0, k, 8) for k in range(8)]

    def test_invalid_plans_rejected(self):
        with pytest.raises(ValueError):
            plan_shards(10, 0)
        with pytest.raises(ValueError):
            plan_shards(-1, 2)
        with pytest.raises(ValueError):
            plan_shards(10, 2, mode="space")  # missing partition_axis
        with pytest.raises(ValueError):
            plan_shards(10, 2, mode="bogus")

    def test_space_partition_is_disjoint_and_covering(self):
        space = DatapathSearchSpace()
        axis = "l3_global_buffer_mib"
        specs = plan_shards(12, 3, mode="space", partition_axis=axis)
        slices = [shard_space(space, spec).spec(axis).choices for spec in specs]
        merged = sorted(choice for piece in slices for choice in piece)
        assert merged == sorted(space.spec(axis).choices)
        flat = [choice for piece in slices for choice in piece]
        assert len(flat) == len(set(flat))  # disjoint
        # other axes are untouched
        restricted = shard_space(space, specs[0])
        assert restricted.spec("pes_x_dim").choices == space.spec("pes_x_dim").choices

    def test_space_partition_rejects_too_many_shards(self):
        space = DatapathSearchSpace()
        spec = ShardSpec(0, 99, seed=0, num_trials=1, mode="space",
                         partition_axis="l1_buffer_config")
        with pytest.raises(ValueError):
            shard_space(space, spec)


# ---------------------------------------------------------------------------
class TestSweep:
    def test_single_shard_reproduces_plain_search_bitwise(self):
        plain = FASTSearch(_problem(), optimizer="lcs", seed=5).run(12, batch_size=4)
        sweep = run_sharded_sweep(
            _problem(), total_trials=12, num_shards=1, optimizer="lcs", seed=5,
            batch_size=4,
        )
        assert [trial_metrics_to_dict(t.metrics) for t in sweep.trials] == [
            trial_metrics_to_dict(m) for m in plain.history
        ]
        assert [params_to_jsonable(t.params) for t in sweep.trials] == [
            params_to_jsonable(p) for p in plain.proposals
        ]
        assert _front_objectives(sweep.pareto_front) == _front_objectives(plain.pareto_front)

    def test_merged_front_equals_single_process_union(self):
        """The acceptance criterion: a 4-shard sweep's merged Pareto front is
        identical to the union of the equivalent per-shard searches run
        back-to-back in one process, for the same total budget and seeds."""
        sweep = run_sharded_sweep(
            _problem(), total_trials=16, num_shards=4, optimizer="random", seed=0,
            batch_size=4,
        )
        union = ParetoFront()
        for spec in plan_shards(16, 4, seed=0):
            result = FASTSearch(_problem(), optimizer="random", seed=spec.seed).run(
                spec.num_trials, batch_size=4
            )
            union.merge(result.pareto_front)
        assert _front_objectives(sweep.pareto_front) == _front_objectives(union)
        assert sum(s.num_trials for s in sweep.shards) == 16

    def test_sweep_is_executor_independent(self):
        serial = run_sharded_sweep(
            _problem(), total_trials=8, num_shards=2, optimizer="lcs", seed=1,
            batch_size=4,
        )
        with ParallelExecutor(num_workers=2) as executor:
            parallel = run_sharded_sweep(
                _problem(), total_trials=8, num_shards=2, optimizer="lcs", seed=1,
                batch_size=4, executor=executor,
            )
        assert [trial_metrics_to_dict(t.metrics) for t in serial.trials] == [
            trial_metrics_to_dict(t.metrics) for t in parallel.trials
        ]
        assert _front_objectives(serial.pareto_front) == _front_objectives(
            parallel.pareto_front
        )

    def test_best_trial_is_best_across_shards(self):
        sweep = run_sharded_sweep(
            _problem(), total_trials=12, num_shards=3, optimizer="random", seed=0,
            batch_size=4,
        )
        feasible = [
            t for t in sweep.trials
            if t.metrics.feasible and math.isfinite(t.metrics.objective_value)
        ]
        if not feasible:
            assert sweep.best_trial is None
            assert math.isnan(sweep.best_score)
        else:
            assert sweep.best_score == max(t.metrics.aggregate_score for t in feasible)


# ---------------------------------------------------------------------------
class TestMerge:
    def _two_shards(self):
        specs = plan_shards(8, 2, seed=0)
        return [run_shard(_problem(), spec, optimizer="random", batch_size=4)
                for spec in specs]

    def test_merge_is_order_independent(self):
        shards = self._two_shards()
        forward = merge_shard_results(shards)
        backward = merge_shard_results(list(reversed(shards)))
        assert [trial_metrics_to_dict(t.metrics) for t in forward.trials] == [
            trial_metrics_to_dict(t.metrics) for t in backward.trials
        ]
        assert [(t.shard_id, t.trial_index) for t in forward.trials] == [
            (t.shard_id, t.trial_index) for t in backward.trials
        ]
        assert _front_objectives(forward.pareto_front) == _front_objectives(
            backward.pareto_front
        )
        assert forward.best_params == backward.best_params

    def test_merge_deduplicates_identical_trials(self):
        spec = plan_shards(6, 1, seed=2)[0]
        shard = run_shard(_problem(), spec, optimizer="random", batch_size=3)
        twin = ShardResult(
            spec=ShardSpec(1, 2, seed=spec.seed, num_trials=spec.num_trials),
            proposals=[dict(p) for p in shard.proposals],
            history=list(shard.history),
            runtime=shard.runtime,
        )
        merged = merge_shard_results([shard, twin])
        assert merged.num_trials == shard.num_trials  # twin fully collapsed
        assert merged.duplicates_removed == twin.num_trials
        assert all(t.shard_id == spec.shard_id for t in merged.trials)

    def test_merge_aggregates_runtime_stats(self):
        shards = self._two_shards()
        merged = merge_shard_results(shards)
        assert merged.runtime.trials_evaluated == sum(
            s.runtime.trials_evaluated for s in shards
        )
        assert merged.runtime.batches == sum(s.runtime.batches for s in shards)
        assert merged.runtime.mapper_seconds == sum(
            s.runtime.mapper_seconds for s in shards
        )
        assert merged.runtime.op_cache_hits == sum(
            s.runtime.op_cache_hits for s in shards
        )

    def test_pareto_payload_carries_provenance(self):
        merged = merge_shard_results(self._two_shards())
        for point in merged.pareto_front.points:
            assert "shard" in point.payload and "trial" in point.payload
            assert "params" in point.payload and "score" in point.payload


# ---------------------------------------------------------------------------
class TestShardSerialization:
    def test_shard_round_trip(self, tmp_path):
        spec = plan_shards(6, 2, seed=4)[0]
        shard = run_shard(_problem(), spec, optimizer="random", batch_size=3)
        path = save_shard_result(shard, tmp_path / "shard-0.json")
        loaded = load_shard_result(path)
        assert loaded.spec == shard.spec
        assert [params_to_jsonable(p) for p in loaded.proposals] == [
            params_to_jsonable(p) for p in shard.proposals
        ]
        assert [trial_metrics_to_dict(m) for m in loaded.history] == [
            trial_metrics_to_dict(m) for m in shard.history
        ]
        assert loaded.runtime.trials_evaluated == shard.runtime.trials_evaluated

    def test_merge_from_files_matches_in_process_merge(self, tmp_path):
        specs = plan_shards(8, 2, seed=0)
        shards = [run_shard(_problem(), spec, optimizer="random", batch_size=4)
                  for spec in specs]
        loaded = [
            load_shard_result(save_shard_result(s, tmp_path / f"s{s.spec.shard_id}.json"))
            for s in shards
        ]
        direct = merge_shard_results(shards)
        via_files = merge_shard_results(loaded)
        assert _front_objectives(direct.pareto_front) == _front_objectives(
            via_files.pareto_front
        )
        assert sweep_result_to_dict(direct) == sweep_result_to_dict(via_files)

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99}')
        with pytest.raises(ValueError):
            load_shard_result(path)


# ---------------------------------------------------------------------------
class TestSweepWithCache:
    def test_shards_share_one_logical_cache(self, tmp_path):
        cache_path = tmp_path / "cache.jsonl"
        first = run_sharded_sweep(
            _problem(), total_trials=8, num_shards=2, optimizer="random", seed=0,
            batch_size=4, cache_path=cache_path,
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "cache.jsonl.shard-0", "cache.jsonl.shard-1",
        ]
        # A re-run is served entirely from the sidecar files.
        again = run_sharded_sweep(
            _problem(), total_trials=8, num_shards=2, optimizer="random", seed=0,
            batch_size=4, cache_path=cache_path,
        )
        assert again.runtime.trials_evaluated == 0
        assert again.runtime.cache_hits == 8
        assert [trial_metrics_to_dict(t.metrics) for t in again.trials] == [
            trial_metrics_to_dict(t.metrics) for t in first.trials
        ]
