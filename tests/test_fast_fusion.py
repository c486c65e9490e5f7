"""Tests for FAST fusion (the Figure 8 ILP and the greedy heuristic)."""

from typing import List, Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fusion.fast_fusion import FastFusionOptimizer, FusionDecision, RegionStats
from repro.hardware.search_space import DatapathSearchSpace
from repro.simulator.engine import SimulationOptions, Simulator
from repro.workloads.registry import available_workloads, build_workload


def make_chain(num_regions, weight_bytes=0, act_bytes=100, dram_cycles=10.0, busy=5.0):
    """A linear chain of memory-bound regions where adjacent pinning helps."""
    regions = []
    for i in range(num_regions):
        regions.append(
            RegionStats(
                index=i,
                name=f"r{i}",
                busy_cycles=busy,
                t_max_cycles=busy + 3 * dram_cycles,
                input_dram_cycles=dram_cycles,
                weight_dram_cycles=dram_cycles if weight_bytes else 0.0,
                output_dram_cycles=dram_cycles,
                input_bytes=act_bytes,
                weight_bytes=weight_bytes,
                output_bytes=act_bytes,
                blocking_gm_bytes=0,
                predecessor=i - 1 if i > 0 else None,
                is_graph_output=(i == num_regions - 1),
            )
        )
    return regions


class TestDisabledAndTrivialCases:
    def test_zero_capacity_pins_nothing(self):
        optimizer = FastFusionOptimizer(gm_capacity_bytes=0)
        result = optimizer.optimize(make_chain(4))
        assert all(not d.any for d in result.decisions)
        assert result.total_cycles_post == pytest.approx(result.total_cycles_pre)
        assert result.speedup == pytest.approx(1.0)

    def test_empty_region_list(self):
        result = FastFusionOptimizer(gm_capacity_bytes=1000).optimize([])
        assert result.decisions == []
        assert result.total_cycles_post == 0

    def test_invalid_solver_rejected(self):
        with pytest.raises(ValueError):
            FastFusionOptimizer(gm_capacity_bytes=10, solver="magic")


@pytest.mark.parametrize("solver", ["greedy", "ilp"])
class TestBothBackends:
    def test_ample_capacity_pins_whole_chain(self, solver):
        regions = make_chain(5)
        result = FastFusionOptimizer(gm_capacity_bytes=10_000, solver=solver).optimize(regions)
        # Every adjacent producer/consumer pair should be pinned.
        for i in range(len(regions) - 1):
            assert result.decisions[i].pin_output
            assert result.decisions[i + 1].pin_input
        assert result.total_cycles_post < result.total_cycles_pre
        assert result.speedup > 1.5

    def test_capacity_constraint_respected(self, solver):
        regions = make_chain(6, act_bytes=100)
        capacity = 150  # only one activation (100 B) fits alongside another
        result = FastFusionOptimizer(gm_capacity_bytes=capacity, solver=solver).optimize(regions)
        for i, (region, decision) in enumerate(zip(regions, result.decisions)):
            usage = region.blocking_gm_bytes
            if decision.pin_input:
                usage += region.input_bytes
            if decision.pin_output:
                usage += region.output_bytes
            usage += sum(
                r.weight_bytes for r, d in zip(regions, result.decisions) if d.pin_weights
            )
            assert usage <= capacity

    def test_producer_consumer_consistency(self, solver):
        regions = make_chain(5)
        result = FastFusionOptimizer(gm_capacity_bytes=250, solver=solver).optimize(regions)
        for i in range(len(regions) - 1):
            if result.decisions[i + 1].pin_input:
                assert result.decisions[i].pin_output
            if result.decisions[i].pin_output:
                assert result.decisions[i + 1].pin_input

    def test_non_adjacent_inputs_never_pinned(self, solver):
        regions = make_chain(4)
        # Region 2's input is produced by region 0 (skip connection).
        regions[2] = RegionStats(**{**regions[2].__dict__, "predecessor": 0})
        result = FastFusionOptimizer(gm_capacity_bytes=10_000, solver=solver).optimize(regions)
        assert not result.decisions[2].pin_input

    def test_graph_output_never_pinned(self, solver):
        regions = make_chain(3)
        result = FastFusionOptimizer(gm_capacity_bytes=10_000, solver=solver).optimize(regions)
        assert not result.decisions[-1].pin_output

    def test_weight_pinning_when_beneficial(self, solver):
        regions = make_chain(3, weight_bytes=50)
        result = FastFusionOptimizer(gm_capacity_bytes=100_000, solver=solver).optimize(regions)
        assert any(d.pin_weights for d in result.decisions)
        assert result.pinned_weight_bytes > 0

    def test_compute_bound_regions_not_pinned(self, solver):
        """Pinning a compute-bound region's tensors yields no benefit."""
        regions = [
            RegionStats(
                index=i, name=f"r{i}", busy_cycles=100.0, t_max_cycles=100.0,
                input_dram_cycles=1.0, weight_dram_cycles=0.0, output_dram_cycles=1.0,
                input_bytes=10, weight_bytes=0, output_bytes=10,
                predecessor=i - 1 if i > 0 else None,
            )
            for i in range(3)
        ]
        result = FastFusionOptimizer(gm_capacity_bytes=10_000, solver=solver).optimize(regions)
        assert result.total_cycles_post == pytest.approx(result.total_cycles_pre)

    def test_region_time_never_below_busy_floor(self, solver):
        regions = make_chain(4)
        result = FastFusionOptimizer(gm_capacity_bytes=10_000, solver=solver).optimize(regions)
        for region, cycles in zip(regions, result.region_cycles):
            assert cycles >= region.busy_cycles - 1e-9


class TestSolverSelectionAndQuality:
    def test_auto_uses_ilp_for_small_problems(self):
        optimizer = FastFusionOptimizer(gm_capacity_bytes=10_000, solver="auto")
        result = optimizer.optimize(make_chain(5))
        assert result.solver_status.startswith("ilp")

    def test_auto_uses_greedy_for_large_problems(self):
        optimizer = FastFusionOptimizer(
            gm_capacity_bytes=10_000, solver="auto", greedy_threshold_regions=10
        )
        result = optimizer.optimize(make_chain(20))
        assert result.solver_status == "greedy"

    def test_ilp_at_least_as_good_as_greedy(self):
        regions = make_chain(6, weight_bytes=40)
        capacity = 400
        greedy = FastFusionOptimizer(gm_capacity_bytes=capacity, solver="greedy").optimize(regions)
        ilp = FastFusionOptimizer(gm_capacity_bytes=capacity, solver="ilp").optimize(regions)
        assert ilp.total_cycles_post <= greedy.total_cycles_post + 1e-6

    def test_weight_pinning_prefers_blocking_headroom(self):
        """Per-region blocking usage reduces the capacity available for pinning."""
        regions = make_chain(3, weight_bytes=500)
        heavy_blocking = [
            RegionStats(**{**r.__dict__, "blocking_gm_bytes": 800}) for r in regions
        ]
        result = FastFusionOptimizer(gm_capacity_bytes=1000, solver="greedy").optimize(heavy_blocking)
        assert not any(d.pin_weights for d in result.decisions)

    def test_dram_bytes_saved_reported(self):
        regions = make_chain(4)
        result = FastFusionOptimizer(gm_capacity_bytes=10_000, solver="greedy").optimize(regions)
        assert result.dram_bytes_saved(regions, dram_bytes_per_cycle=10.0) > 0


# ---------------------------------------------------------------------------
# Incremental greedy == full-rescan greedy, bit for bit
# ---------------------------------------------------------------------------
def rescan_greedy(optimizer: FastFusionOptimizer, regions: List[RegionStats]):
    """Reference greedy: rescans every candidate each round (the O(n^3) form).

    Kept only as the oracle for the incremental solver, which must make the
    same moves in the same order and therefore the same decisions and floats.
    """
    n = len(regions)
    capacity = float(optimizer.gm_capacity_bytes)
    pin_input = [False] * n
    pin_output = [False] * n
    pin_weights = [False] * n
    activation_usage = [0.0] * n  # own pinned activation bytes per region
    weight_total = 0.0  # persistent pinned weight bytes
    saved = [0.0] * n

    def slack(i: int) -> float:
        return max(0.0, optimizer._region_time(regions[i], saved[i]) - regions[i].t_min_cycles)

    def headroom(i: int) -> float:
        return capacity - regions[i].blocking_gm_bytes - activation_usage[i] - weight_total

    def weight_move_feasible(j: int) -> bool:
        need = regions[j].weight_bytes
        return all(headroom(i) >= need for i in range(n))

    def apply_activation_move(i: int) -> None:
        pin_output[i] = True
        pin_input[i + 1] = True
        activation_usage[i] += regions[i].output_bytes
        activation_usage[i + 1] += regions[i + 1].input_bytes
        saved[i] += regions[i].output_dram_cycles
        saved[i + 1] += regions[i + 1].input_dram_cycles

    def apply_weight_move(i: int) -> None:
        nonlocal weight_total
        pin_weights[i] = True
        weight_total += regions[i].weight_bytes
        saved[i] += regions[i].weight_dram_cycles

    improved = True
    while improved:
        improved = False
        best_density = 0.0
        best_index: Optional[int] = None
        for i in range(n - 1):
            region = regions[i]
            if (
                pin_output[i]
                or not optimizer._pinnable_output(region, regions)
                or pin_input[i + 1]
                or not optimizer._pinnable_input(regions[i + 1])
            ):
                continue
            benefit = min(region.output_dram_cycles, slack(i)) + min(
                regions[i + 1].input_dram_cycles, slack(i + 1)
            )
            cost = max(region.output_bytes, 1) + max(regions[i + 1].input_bytes, 1)
            feasible = (
                headroom(i) >= region.output_bytes
                and headroom(i + 1) >= regions[i + 1].input_bytes
            )
            if feasible and benefit > 0:
                density = benefit / cost
                if density > best_density:
                    best_density = density
                    best_index = i
        if best_index is not None:
            apply_activation_move(best_index)
            improved = True

    improved = True
    while improved:
        improved = False
        best_density = 0.0
        best_index = None
        for i in range(n):
            region = regions[i]
            if pin_weights[i] or region.weight_bytes <= 0:
                continue
            benefit = min(region.weight_dram_cycles, slack(i))
            if benefit <= 0 or not weight_move_feasible(i):
                continue
            density = benefit / max(region.weight_bytes, 1)
            if density > best_density:
                best_density = density
                best_index = i
        if best_index is not None:
            apply_weight_move(best_index)
            improved = True

    decisions = [
        FusionDecision(pin_input[i], pin_output[i], pin_weights[i]) for i in range(n)
    ]
    return optimizer._finalize(regions, decisions, status="greedy")


def assert_same_solution(regions: List[RegionStats], capacity: int) -> None:
    optimizer = FastFusionOptimizer(gm_capacity_bytes=capacity, solver="greedy")
    expected = rescan_greedy(optimizer, list(regions))
    actual = optimizer.optimize(regions)
    assert actual.decisions == expected.decisions
    assert [c.hex() for c in actual.region_cycles] == [c.hex() for c in expected.region_cycles]
    assert actual.total_cycles_post.hex() == expected.total_cycles_post.hex()
    assert actual.pinned_weight_bytes == expected.pinned_weight_bytes
    assert actual.pinned_activation_bytes == expected.pinned_activation_bytes


# Few distinct values so densities tie often; zeros so tensors can be empty.
_cycles = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 10.0, 100.0]),
    st.floats(min_value=0.0, max_value=1e7, allow_nan=False, allow_infinity=False),
)
_bytes = st.one_of(
    st.sampled_from([0, 1, 64, 100, 200, 4096]),
    st.integers(min_value=0, max_value=1 << 22),
)


@st.composite
def fusion_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    capacity = draw(st.one_of(
        st.sampled_from([1, 100, 150, 256, 1000, 5000]),
        st.integers(min_value=1, max_value=1 << 24),
    ))
    regions = []
    for i in range(n):
        busy = draw(_cycles)
        t_max = busy + draw(_cycles)
        predecessor = None
        if i > 0:
            predecessor = draw(st.sampled_from(
                [None, i - 1, i - 1, draw(st.integers(min_value=0, max_value=i - 1))]
            ))
        regions.append(RegionStats(
            index=i,
            name=f"r{i}",
            busy_cycles=busy,
            t_max_cycles=t_max,
            input_dram_cycles=draw(_cycles),
            weight_dram_cycles=draw(_cycles),
            output_dram_cycles=draw(_cycles),
            input_bytes=draw(_bytes),
            weight_bytes=draw(_bytes),
            output_bytes=draw(_bytes),
            blocking_gm_bytes=draw(st.one_of(
                st.sampled_from([0, 0, capacity // 2, capacity, 10 * capacity]),
                st.integers(min_value=0, max_value=1 << 24),
            )),
            predecessor=predecessor,
            is_graph_output=draw(st.booleans()),
        ))
    return regions, capacity


class TestIncrementalGreedyEquivalence:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fusion_inputs())
    def test_random_inputs(self, case):
        regions, capacity = case
        assert_same_solution(regions, capacity)

    def test_density_ties_pick_lowest_index(self):
        regions = make_chain(8, weight_bytes=50)
        for capacity in (100, 150, 200, 250, 400, 10_000):
            assert_same_solution(regions, capacity)

    def test_real_workloads_on_random_datapaths(self, monkeypatch):
        """Fusion inputs captured from every registered workload."""
        captured = []
        original = FastFusionOptimizer.optimize

        def capture(optimizer, regions):
            captured.append((optimizer.gm_capacity_bytes, list(regions)))
            return original(optimizer, regions)

        monkeypatch.setattr(FastFusionOptimizer, "optimize", capture)
        space = DatapathSearchSpace()
        rng = np.random.default_rng(11)
        configs = []
        while len(configs) < 3:
            params = {
                spec.name: spec.choices[int(rng.integers(len(spec.choices)))]
                for spec in space.specs
            }
            params["l3_global_buffer_mib"] = [4, 16, 128][len(configs)]
            try:
                configs.append(space.to_config(params))
            except Exception:
                continue  # invalid combination; draw again
        options = SimulationOptions(
            enable_fast_fusion=True, fusion_solver="greedy",
            region_cache_enabled=False, op_cache_enabled=False,
        )
        for workload in available_workloads():
            graph = build_workload(workload, batch_size=1)
            for config in configs:
                Simulator(config, options).simulate(graph)
        assert len(captured) >= len(available_workloads())
        monkeypatch.undo()
        for capacity, regions in captured:
            # The datapath's own capacity plus tighter ones that bind.
            for scale in (1, 8, 64):
                assert_same_solution(regions, max(1, capacity // scale))
