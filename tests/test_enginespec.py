"""Tests for EngineSpec, engine equivalence, and cache-key stability.

Three contracts:

* :class:`~repro.simulator.enginespec.EngineSpec` is the single source of
  truth for engine selection: its grammar parses, its canonical string
  round-trips, and it expands to / recovers from ``SimulationOptions``
  losslessly.  Removed engines and options are rejected by name.
* The scalar reference and the graph-batched engine produce identical
  search histories across workloads, serially and on a worker pool.
* Inputs written by earlier versions still load and still hit: saved
  simulation options that carry removed engine knobs deserialize, and the
  problem fingerprint and mapping cache key keep their pinned values.
"""

from __future__ import annotations

import pytest

from repro.core.fast import FASTSearch
from repro.core.problem import ObjectiveKind, SearchProblem
from repro.core.trial import TrialEvaluator
from repro.hardware.datapath import BufferConfig, DatapathConfig
from repro.mapping.mapper import Mapper, MapperOptions
from repro.reporting.serialization import (
    simulation_options_from_dict,
    simulation_options_to_dict,
    trial_metrics_to_dict,
)
from repro.runtime import ParallelExecutor
from repro.runtime.cache import problem_fingerprint
from repro.runtime.opcache import OpCostCache, reset_op_caches
from repro.simulator.engine import SimulationOptions
from repro.simulator.enginespec import DEFAULT_ENGINE, MAPPER_MODES, EngineSpec
from repro.workloads.registry import available_workloads


@pytest.fixture(autouse=True)
def _fresh_caches():
    reset_op_caches()
    yield
    reset_op_caches()


# ---------------------------------------------------------------------------
class TestEngineSpec:
    def test_default(self):
        spec = EngineSpec()
        assert spec.mapper == "graph-batched"
        assert spec.op_cache and spec.region_cache
        assert spec == DEFAULT_ENGINE
        assert str(spec) == "graph-batched"

    def test_mapper_modes(self):
        assert MAPPER_MODES == ("scalar", "graph-batched")

    @pytest.mark.parametrize("mapper", MAPPER_MODES)
    def test_parse_bare_mapper(self, mapper):
        assert EngineSpec.parse(mapper).mapper == mapper

    def test_parse_options(self):
        spec = EngineSpec.parse("scalar:op_cache=off")
        assert spec.mapper == "scalar"
        assert spec.op_cache is False
        assert spec.region_cache is True

    def test_parse_bare_options_default_mapper(self):
        spec = EngineSpec.parse("region_cache=no")
        assert spec.mapper == "graph-batched"
        assert spec.region_cache is False

    def test_parse_empty_is_default(self):
        assert EngineSpec.parse("") == EngineSpec()
        assert EngineSpec.parse("  ") == EngineSpec()
        assert EngineSpec.parse(None) == EngineSpec()

    def test_parse_dash_keys_and_bool_words(self):
        spec = EngineSpec.parse("graph-batched:op-cache=0,region-cache=true")
        assert spec.op_cache is False and spec.region_cache is True

    @pytest.mark.parametrize(
        "text",
        [
            "warp-speed",
            "graph-batched:op_cache=maybe",
            "graph-batched:flux_capacitor=on",
            "graph-batched:op_cache",
            "graph-batched:backend=fortran",
            "scalar:backend=torch",
            "graph-batched:region_store=x.jsonl",
            "graph-batched:cache_service=http://h:1",
        ],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            EngineSpec.parse(text)

    @pytest.mark.parametrize("text", ["trial-batched", "vectorized"])
    def test_removed_mappers_rejected_naming_accepted_values(self, text):
        with pytest.raises(ValueError, match="scalar, graph-batched"):
            EngineSpec.parse(text)
        with pytest.raises(ValueError, match="scalar, graph-batched"):
            EngineSpec(mapper=text)

    def test_removed_backend_option_rejected_naming_accepted_keys(self):
        # The array backend, the region store and the cluster cache service
        # were engine keys once; each is now an unknown key.
        for text in (
            "graph-batched:backend=numpy",
            "graph-batched:region_store=x.jsonl",
            "graph-batched:cache_service=http://h:1",
        ):
            with pytest.raises(
                ValueError, match=r"\(expected op_cache / region_cache\)"
            ):
                EngineSpec.parse(text)

    def test_reference_spelling_round_trips(self):
        # The scalar reference spelling other tools pass on the command line.
        text = "scalar:op_cache=off,region_cache=off"
        spec = EngineSpec.parse(text)
        assert spec == EngineSpec(mapper="scalar", op_cache=False, region_cache=False)
        assert str(spec) == text

    @pytest.mark.parametrize(
        "spec",
        [
            EngineSpec(),
            EngineSpec(mapper="scalar"),
            EngineSpec(mapper="scalar", op_cache=False),
            EngineSpec(op_cache=False, region_cache=False),
            EngineSpec(mapper="scalar", region_cache=False),
        ],
    )
    def test_str_round_trips(self, spec):
        assert EngineSpec.parse(str(spec)) == spec

    @pytest.mark.parametrize("mapper", MAPPER_MODES)
    def test_simulation_options_round_trip(self, mapper):
        spec = EngineSpec(mapper=mapper, op_cache=(mapper != "scalar"))
        options = spec.to_simulation_options(fusion_solver="greedy")
        assert EngineSpec.from_simulation_options(options) == spec

    def test_from_simulation_options_defaults(self):
        # None-valued engine fields resolve exactly like the Simulator does.
        assert EngineSpec.from_simulation_options(
            SimulationOptions(fusion_solver="greedy")
        ) == EngineSpec()
        assert (
            EngineSpec.from_simulation_options(
                SimulationOptions(fusion_solver="greedy", vectorized_mapper=False)
            ).mapper
            == "scalar"
        )

    def test_serialization_preserves_engine_fields(self):
        spec = EngineSpec(mapper="scalar", op_cache=False)
        options = spec.to_simulation_options(fusion_solver="greedy")
        rebuilt = simulation_options_from_dict(simulation_options_to_dict(options))
        assert EngineSpec.from_simulation_options(rebuilt) == spec


# ---------------------------------------------------------------------------
class TestOldInputsLoad:
    def test_removed_engine_keys_are_ignored(self):
        # The shape saved result JSON, checkpoints and service clients wrote
        # while the trial-batched engine and the array-backend option existed.
        payload = {
            "enable_fast_fusion": None,
            "fusion_solver": "greedy",
            "mapper_options": {
                "dataflows": ["weight_stationary", "output_stationary"],
                "max_tiling_candidates": 48,
                "padding_max_overhead": 0.2,
                "vectorize": True,
                "backend": "numpy",
            },
            "vectorized_mapper": True,
            "graph_batched_mapper": True,
            "trial_batched_mapper": True,
            "backend": "numpy",
            "region_cache_enabled": False,
            "op_cache_enabled": True,
            "op_cache_path": None,
            "region_store_path": None,
            "region_cache_service": None,
        }
        options = simulation_options_from_dict(payload)
        assert options.fusion_solver == "greedy"
        assert options.vectorized_mapper is True
        assert options.region_cache_enabled is False
        assert options.mapper_options.vectorize is True
        assert options.mapper_options.max_tiling_candidates == 48
        for removed in (
            "graph_batched_mapper",
            "trial_batched_mapper",
            "backend",
            "region_store_path",
            "region_cache_service",
        ):
            assert not hasattr(options, removed)
        assert not hasattr(options.mapper_options, "backend")
        assert EngineSpec.from_simulation_options(options) == EngineSpec(
            region_cache=False
        )

    @pytest.mark.parametrize(
        "key, value",
        [
            ("graph_batched_mapper", False),
            ("trial_batched_mapper", True),
            ("backend", "torch"),
            ("region_store_path", "runs/regions.jsonl"),
            ("region_cache_service", "http://cache-host:8642"),
        ],
    )
    def test_each_removed_key_is_ignored_alone(self, key, value):
        # Non-default values too: a saved per-op or torch run now loads as
        # the default graph-batched engine, which prices trials identically.
        payload = simulation_options_to_dict(SimulationOptions(fusion_solver="greedy"))
        payload[key] = value
        options = simulation_options_from_dict(payload)
        assert not hasattr(options, key)
        assert options == SimulationOptions(fusion_solver="greedy")
        assert EngineSpec.from_simulation_options(options) == EngineSpec()

    def test_from_simulation_options_mapper_options_backend(self):
        payload = simulation_options_to_dict(
            EngineSpec(mapper="scalar").to_simulation_options(
                fusion_solver="greedy", mapper_options=MapperOptions(vectorize=False)
            )
        )
        payload["mapper_options"]["backend"] = "cupy"
        options = simulation_options_from_dict(payload)
        assert options.mapper_options.vectorize is False
        assert not hasattr(options.mapper_options, "backend")
        assert EngineSpec.from_simulation_options(options) == EngineSpec(mapper="scalar")


class TestCacheKeysPinned:
    """Literal keys computed before the engine ladder was collapsed.

    Trial caches and checkpoints are keyed by the problem fingerprint, op
    and region stores by the mapping config key; stores written by earlier
    versions keep hitting only while these values stay put.
    """

    def test_problem_fingerprint(self):
        problem = SearchProblem(["efficientnet-b0"])
        assert problem_fingerprint(problem, TrialEvaluator(problem)) == "716a9ba83acf7807"
        # Engine knobs are performance-only and never enter the fingerprint.
        reference = TrialEvaluator(
            problem,
            simulation_options=EngineSpec.parse(
                "scalar:op_cache=off,region_cache=off"
            ).to_simulation_options(fusion_solver="greedy"),
        )
        assert problem_fingerprint(problem, reference) == "716a9ba83acf7807"

    def test_mapping_config_key(self):
        mapper = Mapper(DatapathConfig(), op_cache=OpCostCache())
        expected = (
            32, 32, 64, "shared", 32, 32, 32, 14680064, 476.59574468085106,
            ("weight_stationary", "output_stationary"), 48, 0.2,
        )
        assert mapper.mapping_config_key() == expected
        assert mapper._config_key == expected

    def test_problem_fingerprint_perf_per_tdp(self):
        problem = SearchProblem(["bert-seq128"], ObjectiveKind.PERF_PER_TDP)
        assert problem_fingerprint(problem, TrialEvaluator(problem)) == "34c4907040cca72b"

    def test_mapping_config_key_non_default_datapath(self):
        config = DatapathConfig(
            pes_x_dim=4,
            pes_y_dim=16,
            systolic_array_x=16,
            systolic_array_y=64,
            l1_buffer_config=BufferConfig.PRIVATE,
            l1_input_buffer_kib=64,
            l1_weight_buffer_kib=128,
            l1_output_buffer_kib=16,
        )
        expected = (
            16, 64, 64, "private", 64, 128, 16, 8601600, 476.59574468085106,
            ("weight_stationary", "output_stationary"), 48, 0.2,
        )
        assert Mapper(config, op_cache=OpCostCache()).mapping_config_key() == expected


# ---------------------------------------------------------------------------
def _history(workload, spec, executor=None):
    problem = SearchProblem([workload], ObjectiveKind.PERF_PER_TDP)
    evaluator = TrialEvaluator(
        problem,
        simulation_options=spec.to_simulation_options(fusion_solver="greedy"),
    )
    search = FASTSearch(
        problem, optimizer="lcs", seed=3, evaluator=evaluator, executor=executor
    )
    result = search.run(num_trials=8, batch_size=4)
    return [trial_metrics_to_dict(m) for m in result.history], result


class TestEngineEquivalence:
    @pytest.mark.parametrize("workload", sorted(available_workloads()))
    def test_search_history_identical_across_engines(self, workload):
        reference, _ = _history(
            workload, EngineSpec(mapper="scalar", op_cache=False, region_cache=False)
        )
        reset_op_caches()
        graph_batched, result = _history(workload, EngineSpec())
        assert graph_batched == reference
        assert result.runtime.engine == "graph-batched"

    def test_engine_echo_from_parallel_workers(self):
        spec = EngineSpec(mapper="scalar", region_cache=False)
        serial, _ = _history("efficientnet-b0", spec)
        reset_op_caches()
        with ParallelExecutor(num_workers=2) as executor:
            parallel, result = _history("efficientnet-b0", spec, executor=executor)
            counters = executor.runtime_counters()
        # The workers themselves report the engine they resolved — proof the
        # pool inherited the parent's spec rather than a silent default.
        assert counters["engine"] == "scalar:region_cache=off"
        assert result.runtime.engine == "scalar:region_cache=off"
        assert parallel == serial
