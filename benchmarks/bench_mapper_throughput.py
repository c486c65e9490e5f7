"""Mapper throughput: per-op vs graph-batched sweeps and the cache stack.

Two layers of measurement:

* **Op level** — unique matrix problems of EfficientNet-B0 mapped repeatedly
  through ``Mapper._map_problem`` (scalar reference loop vs the
  single-problem view of the NumPy sweep) and through ``Mapper.map_ops_batch`` (one stacked candidate sweep
  for all problems at once), verifying bit-for-bit equal costs along the
  way.
* **Trial level** — ``repro.runtime.profiling.profile_search`` on a
  fixed-seed search: trials/sec, per-stage times, and cache hit rates for
  the scalar, graph-batched, graph-batched+region-cache,
  graph-batched+op-cache, and parallel-2 modes, with cache-enabled and
  parallel modes timed in their warm steady state (a replay of the same
  seed, so these rows are the cache ceiling, not a cold-search number).

Results land in ``benchmarks/results/mapper_throughput.json`` and the
repo-root ``BENCH_mapper.json`` (key ``mapper_profile``), seeding the
performance trajectory for future PRs.
"""

from __future__ import annotations

import json
import os
import time

from bench_runtime_throughput import record_bench
from conftest import RESULTS_DIR, bench_trials, format_table, report, timing_asserts_enabled

from repro.core.trial import clear_graph_cache
from repro.hardware.datapath import DatapathConfig
from repro.mapping.mapper import Mapper, MapperOptions
from repro.mapping.loopnest import extract_problem
from repro.runtime.profiling import profile_search
from repro.workloads.ops import is_matrix_op
from repro.workloads.registry import build_workload

_WORKLOAD = "efficientnet-b0"


def _unique_problems(graph, config):
    probe = Mapper(config)
    problems, seen = [], set()
    for op in graph.ops:
        if not is_matrix_op(op.op_type):
            continue
        problem = extract_problem(op, graph.tensors)
        key = probe._problem_key(problem)
        if key not in seen:
            seen.add(key)
            problems.append((op, problem))
    return problems


def _map_rate(mapper, problems, repeats: int) -> float:
    started = time.perf_counter()
    for _ in range(repeats):
        for op, problem in problems:
            mapper._map_problem(op, problem)
    elapsed = time.perf_counter() - started
    return repeats * len(problems) / elapsed if elapsed > 0 else float("inf")


def _batch_rate(config, graph, ops, repeats: int) -> float:
    """Problems/sec through one stacked sweep per repeat (fresh per-trial memo)."""
    started = time.perf_counter()
    for _ in range(repeats):
        Mapper(config).map_ops_batch(ops, graph.tensors)
    elapsed = time.perf_counter() - started
    return repeats * len(ops) / elapsed if elapsed > 0 else float("inf")


def _measure(trials: int) -> dict:
    clear_graph_cache()
    config = DatapathConfig()
    graph = build_workload(_WORKLOAD, batch_size=4)
    problems = _unique_problems(graph, config)
    unique_ops = [op for op, _ in problems]

    scalar_mapper = Mapper(config, options=MapperOptions(vectorize=False))
    vector_mapper = Mapper(config, options=MapperOptions(vectorize=True))
    batched = Mapper(config).map_ops_batch(unique_ops, graph.tensors)
    mismatches = sum(
        scalar_mapper._map_problem(op, problem) != vector_mapper._map_problem(op, problem)
        or batched[op.name] != scalar_mapper._map_problem(op, problem)
        for op, problem in problems
    )
    repeats = max(1, 2000 // len(problems))
    op_level = {
        "problems": len(problems),
        "mismatches": mismatches,
        "problems_per_second": {
            "scalar": _map_rate(scalar_mapper, problems, repeats),
            "vectorized": _map_rate(vector_mapper, problems, repeats),
            "graph-batched": _batch_rate(config, graph, unique_ops, repeats),
        },
    }

    profile = profile_search([_WORKLOAD], trials=trials, warm_op_cache=True)
    return {"op_level": op_level, "profile": profile}


def test_mapper_throughput(benchmark):
    trials = bench_trials(default=48)
    measured = benchmark.pedantic(_measure, args=(trials,), rounds=1, iterations=1)
    op_level = measured["op_level"]
    profile = measured["profile"]

    op_rates = op_level["problems_per_second"]
    rows = [
        ["op-level scalar", f"{op_rates['scalar']:.0f} problems/s", "1.00x"],
        [
            "op-level vectorized",
            f"{op_rates['vectorized']:.0f} problems/s",
            f"{op_rates['vectorized'] / op_rates['scalar']:.2f}x",
        ],
        [
            "op-level graph-batched",
            f"{op_rates['graph-batched']:.0f} problems/s",
            f"{op_rates['graph-batched'] / op_rates['scalar']:.2f}x",
        ],
    ]
    for record in profile.records:
        rows.append([
            f"trial-level {record.mode}",
            f"{record.trials_per_second:.1f} trials/s",
            f"{profile.speedup(record.mode):.2f}x",
        ])
    report(
        "mapper_throughput",
        format_table(["Layer / mode", "Rate", "vs scalar"], rows)
        + f"\n({op_level['problems']} unique problems; {trials} trials, "
        f"{_WORKLOAD}, {os.cpu_count()} CPUs; op-cache mode timed warm)",
    )

    payload = {
        "workload": _WORKLOAD,
        "cpus": os.cpu_count(),
        "op_level": op_level,
        "trial_level": profile.to_dict(),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "mapper_throughput.json").write_text(json.dumps(payload, indent=2))
    record_bench("mapper_profile", payload)

    # Bit-for-bit equivalence of the three engines, op by op — always asserted.
    assert op_level["mismatches"] == 0
    assert profile.histories_match
    if timing_asserts_enabled():
        # The vectorized sweep must beat the scalar loop on raw (uncached)
        # maps, and batching the whole op set into one stacked sweep must
        # beat per-op vectorization in turn.
        assert op_rates["vectorized"] >= 1.2 * op_rates["scalar"]
        assert op_rates["graph-batched"] >= op_rates["vectorized"]
        # Trial level: graph-batched must clear 2.5x scalar from a cold
        # start (no caches), the cache stack 3x warm, and the warm parallel
        # pool must never regress below scalar (it ran at 0.71x of scalar
        # before workers started warm).
        assert profile.speedup("graph-batched") >= 2.5
        assert profile.speedup("graph-batched+op-cache") >= 3.0
        assert profile.speedup("parallel-2") >= 1.0
