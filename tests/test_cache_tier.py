"""Tests for the persistent op store and the process-local cache registries.

The op-cost cache is the only cost cache with a tier beyond the in-process
memory LRU: an append-only, digest-keyed JSONL store (``--op-cache PATH``)
that searches, sweep shards, pool workers and ``repro serve`` share.  The
invariants under test: the store round-trips costs bit for bit, a single
writer never duplicates a record, concurrent writers never tear a line, and
compaction folds duplicates away.  Also covered: fork-started children
inherit warm op and region entries with fresh counters, the retired
shared-tier counters stay present and zero, and the engine spec's cache keys
round-trip.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.core.fast import FASTSearch
from repro.core.problem import ObjectiveKind, SearchProblem
from repro.core.trial import TrialEvaluator
from repro.mapping.costmodel import OpCost
from repro.mapping.dataflow import Dataflow
from repro.mapping.tiling import Tiling
from repro.reporting.serialization import runtime_stats_to_dict
from repro.runtime.executor import ParallelExecutor
from repro.runtime.opcache import (
    OpCostCache,
    RegionCostCache,
    get_op_cache,
    get_region_cache,
    reset_op_caches,
)
from repro.simulator.engine import SimulationOptions
from repro.simulator.enginespec import EngineSpec
from repro.workloads.ops import OpType


@pytest.fixture(autouse=True)
def _fresh_caches():
    reset_op_caches()
    yield
    reset_op_caches()


def _op_cost(index: int = 0, scale: float = 1.0) -> OpCost:
    """A realistic mapped op cost with awkward floats."""
    return OpCost(
        op_name=f"conv_{index}",
        op_type=OpType.CONV2D,
        flops=123456789 + index,
        padded_flops=123456789 + 2 * index,
        compute_cycles=0.1 + 0.2,  # 0.30000000000000004: exact round-trip test
        vector_cycles=scale * 7.25,
        dram_input_bytes=scale * 1e6 / 3.0,
        dram_weight_bytes=1.0 + 1e-16,
        dram_output_bytes=98304.0,
        utilization=2.0 / 3.0,
        dataflow=Dataflow.WEIGHT_STATIONARY,
        tiling=Tiling(32, 64, 16 + index),
    )


_FAILED = OpCost(op_name="huge", op_type=OpType.MATMUL, schedule_failed=True)


# ---------------------------------------------------------------------------
class TestOpStore:
    def test_store_roundtrip_and_disk_hits(self, tmp_path):
        store = tmp_path / "ops.jsonl"
        writer = OpCostCache(path=store)
        entries = {(i, "key"): _op_cost(i) for i in range(4)}
        entries[(9, "fail")] = _FAILED
        for key, entry in entries.items():
            writer.put(key, entry)
        assert store.exists()

        reader = OpCostCache(path=store)
        assert reader.stats.disk_entries_loaded == len(entries)
        for key, entry in entries.items():
            assert reader.get(key) == entry
        assert reader.stats.disk_hits == len(entries)
        assert reader.stats.hits == len(entries)
        # A second read of the same key is a memory hit, not a disk hit.
        assert reader.get((0, "key")) == entries[(0, "key")]
        assert reader.stats.disk_hits == len(entries)

    def test_single_writer_never_duplicates(self, tmp_path):
        store = tmp_path / "ops.jsonl"
        cache = OpCostCache(path=store)
        entry = _op_cost()
        for _ in range(5):
            cache.put(("same", "key"), entry)
        assert len(store.read_text().splitlines()) == 1

    def test_preload_false_skips_load_but_appends(self, tmp_path):
        store = tmp_path / "ops.jsonl"
        OpCostCache(path=store).put(("old",), _op_cost(0))
        lazy = OpCostCache(path=store, preload=False)
        assert lazy.stats.disk_entries_loaded == 0
        assert lazy.get(("old",)) is None  # not loaded, by design
        lazy.put(("new",), _op_cost(1))
        assert len(store.read_text().splitlines()) == 2
        assert OpCostCache(path=store).get(("old",)) is not None

    def test_first_put_creates_parent_directories(self, tmp_path):
        store = tmp_path / "runs" / "nested" / "ops.jsonl"
        OpCostCache(path=store).put(("k",), _op_cost())
        assert store.exists()
        assert OpCostCache(path=store).get(("k",)) == _op_cost()

    def test_len_counts_each_key_once_across_memory_and_store(self, tmp_path):
        store = tmp_path / "ops.jsonl"
        OpCostCache(path=store).put(("on-disk",), _op_cost(0))
        cache = OpCostCache(path=store)
        assert len(cache) == 1
        assert cache.get(("on-disk",)) is not None  # now in memory too
        assert len(cache) == 1
        cache.put(("fresh",), _op_cost(1))
        assert len(cache) == 2

    def test_compact_requires_a_path(self):
        with pytest.raises(ValueError, match="requires a cache path"):
            OpCostCache().compact()


def _append_worker(store_path: str, writer_id: int) -> None:
    """One writer process: race the shared key, then add a private one."""
    cache = OpCostCache(path=store_path, preload=False)
    cache.put(("contested", "key"), _op_cost(index=7, scale=2.5))
    cache.put(("private", writer_id), _op_cost(index=writer_id))


class TestConcurrentAppends:
    def test_multiprocess_append_race_same_key(self, tmp_path):
        store = tmp_path / "ops.jsonl"
        ctx = multiprocessing.get_context("spawn")
        workers = [
            ctx.Process(target=_append_worker, args=(str(store), i))
            for i in range(4)
        ]
        for proc in workers:
            proc.start()
        for proc in workers:
            proc.join(timeout=60)
            assert proc.exitcode == 0

        # Every line is intact JSON (single-write appends never interleave).
        lines = store.read_text().splitlines()
        assert len(lines) == 8  # 4 x contested + 4 x private
        records = [json.loads(line) for line in lines]
        contested_digest = OpCostCache.digest(("contested", "key"))
        contested = [r for r in records if r["key"] == contested_digest]
        assert len(contested) == 4
        # Duplicate records are bitwise-identical: loading serves the entry
        # regardless of which writer's record wins.
        assert all(r == contested[0] for r in contested)

        loaded = OpCostCache(path=store)
        assert loaded.stats.corrupt_records == 0
        assert loaded.get(("contested", "key")) == _op_cost(index=7, scale=2.5)
        for i in range(4):
            assert loaded.get(("private", i)) == _op_cost(index=i)

        # Compaction folds the duplicates down to one record per key.
        kept = loaded.compact()
        assert kept == 5
        assert len(store.read_text().splitlines()) == 5
        recompacted = OpCostCache(path=store)
        assert recompacted.get(("contested", "key")) == _op_cost(index=7, scale=2.5)


# ---------------------------------------------------------------------------
def _report_forked_registries(key, queue) -> None:
    """Runs in a fork-started child: what did it inherit from the parent?"""
    op_cache = get_op_cache()
    region_cache = get_region_cache()
    counters_at_start = (op_cache.stats.hits, region_cache.stats.hits)
    inherited = (op_cache.get(key) is not None, region_cache.get(key) is not None)
    queue.put((counters_at_start, inherited, op_cache.stats.hits))


class TestForkedRegistries:
    """Fork-started workers keep the parent's warm entries, not its counters."""

    def test_child_keeps_entries_and_restarts_counters(self):
        key = ("warm", "key")
        op_cache = get_op_cache()
        region_cache = get_region_cache()
        op_cache.put(key, _op_cost())
        region_cache.put(key, ("region", "entry"))
        assert op_cache.get(key) is not None
        assert region_cache.get(key) is not None

        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=_report_forked_registries, args=(key, queue))
        child.start()
        counters_at_start, inherited, child_hits = queue.get(timeout=60)
        child.join(timeout=60)
        assert child.exitcode == 0
        assert counters_at_start == (0, 0)
        assert inherited == (True, True)
        assert child_hits == 1
        # The parent's own counters are untouched by the child's lookups.
        assert (op_cache.stats.hits, region_cache.stats.hits) == (1, 1)

    def test_region_cache_capacity_is_at_least_one(self):
        cache = RegionCostCache(max_entries=0)
        cache.put(("a",), 1)
        assert len(cache) == 1
        cache.put(("b",), 2)
        assert len(cache) == 1
        assert cache.get(("a",)) is None
        assert cache.get(("b",)) == 2


# ---------------------------------------------------------------------------
class TestRetiredSharedCounters:
    def test_parallel_search_reports_shared_counters_as_zero(self, tmp_path):
        """No tier is shared between processes, so the counters perfbench
        still reads stay present and zero even for a pool over an op store."""
        problem = SearchProblem(["mobilenet-v2"], ObjectiveKind.PERF_PER_TDP)
        options = SimulationOptions(
            fusion_solver="greedy", op_cache_path=str(tmp_path / "ops.jsonl")
        )
        with ParallelExecutor(num_workers=2) as executor:
            result = FASTSearch(
                problem,
                optimizer="random",
                seed=17,
                evaluator=TrialEvaluator(problem, simulation_options=options),
                executor=executor,
            ).run(num_trials=4, batch_size=2)
        payload = runtime_stats_to_dict(result.runtime)
        for field in (
            "op_cache_shared_hits",
            "region_cache_shared_hits",
            "shared_cache_entries",
            "shared_cache_attached",
        ):
            assert getattr(result.runtime, field) == 0
            assert payload[field] == 0


# ---------------------------------------------------------------------------
class TestEngineSpecCacheKeys:
    def test_parse_str_roundtrip(self):
        spec = EngineSpec.parse("region_cache=off")  # bare options
        assert spec == EngineSpec(region_cache=False)
        assert str(spec) == "graph-batched:region_cache=off"
        spec = EngineSpec.parse("scalar:op-cache=no,region_cache=yes")
        assert spec == EngineSpec(mapper="scalar", op_cache=False)
        assert EngineSpec.parse(str(spec)) == spec

    def test_options_roundtrip(self):
        spec = EngineSpec.parse("graph-batched:op_cache=off,region_cache=off")
        options = spec.to_simulation_options(
            fusion_solver="greedy", op_cache_path="ops.jsonl"
        )
        assert options.op_cache_enabled is False
        assert options.region_cache_enabled is False
        assert options.op_cache_path == "ops.jsonl"
        # The store path is a run setting, not part of the engine.
        assert EngineSpec.from_simulation_options(options) == spec

    def test_cache_keys_are_perf_only(self):
        """The op store path must not change the problem fingerprint."""
        from repro.runtime.cache import problem_fingerprint

        problem = SearchProblem(["mobilenet-v2"], ObjectiveKind.PERF_PER_TDP)
        plain = TrialEvaluator(
            problem,
            simulation_options=SimulationOptions(fusion_solver="greedy"),
        )
        stored = TrialEvaluator(
            problem,
            simulation_options=SimulationOptions(
                fusion_solver="greedy", op_cache_path="x.jsonl"
            ),
        )
        assert problem_fingerprint(problem, plain) == problem_fingerprint(
            problem, stored
        )
