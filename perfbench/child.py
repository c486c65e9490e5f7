"""One timed FAST search in a fresh interpreter.

``run.py`` starts this script once per panel search, so every module-level cache of
``repro`` (workload graphs, compiled graphs, the problem memo, the op and
region cost caches) starts empty.  The script sets up the workload, runs the
timed search, then - outside the timed region - computes the TPU-v3 baseline
and, with ``--check``, re-evaluates a few trials with the scalar reference
engine.  It prints one JSON record as its last line.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py --workload b0-cold --seed 1 --trials 200 \
        --spawned-at "$(date +%s.%N)" [--trace] [--check] [--spool DIR]
"""

from __future__ import annotations

import time

STARTED_UNIX = time.time()  # before any import, as close to spawn as possible

import argparse
import dataclasses
import hashlib
import json
import multiprocessing
import platform
import resource
import sys
import traceback
from pathlib import Path

BATCH_SIZE = 8
WORKERS = 2
# The engine every workload is configured with: a plain TrialEvaluator's
# default (graph-batched mapping, op and region caches on).
ENGINE_LABEL = "graph-batched"
REFERENCE_ENGINE = "scalar:op_cache=off,region_cache=off"

# Why each workload exists is recorded in perfbench/README.md.
# ``panel_size`` is the number of seeds a run searches at BENCHMARK.json's
# ``run_seconds``; run.py scales it linearly with ``--seconds``.
WORKLOADS = {
    "b0-cold": {
        "workloads": ["efficientnet-b0"],
        "regime": "cold",
        "executor": "serial",
        "warm_start_designs": False,
        "warmup_seed_offsets": (),
        "warmup_trials": 0,
        "trials": 200,
        "panel_size": 12,
        "paper_perf_per_tdp_vs_tpuv3": 6.4,
        "paper_context": "EfficientNet average, single-workload search (Fig. 10)",
    },
    "suite5-cold": {
        "workloads": "MULTI_WORKLOAD_SUITE",
        "regime": "cold",
        "executor": "serial",
        "warm_start_designs": True,
        "warmup_seed_offsets": (),
        "warmup_trials": 0,
        "trials": 40,
        "panel_size": 4,
        "paper_perf_per_tdp_vs_tpuv3": 2.4,
        "paper_context": "GeoMean-5 multi-workload search (Fig. 10)",
    },
    "b0-sweep-par2": {
        "workloads": ["efficientnet-b0"],
        "regime": "new-seed-warm",
        "executor": f"parallel-{WORKERS}",
        "warm_start_designs": False,
        "warmup_seed_offsets": (500, 501),
        "warmup_trials": 100,
        "trials": 200,
        "panel_size": 7,
        "paper_perf_per_tdp_vs_tpuv3": 6.4,
        "paper_context": "EfficientNet average, single-workload search (Fig. 10)",
        # Same seed and trajectory as b0-cold: the histories must match.
        "same_history_as": "b0-cold",
    },
}


def warm_start_designs():
    """The four designs ``benchmarks/conftest.py::run_search`` warm-starts from."""
    from repro.core.designs import FAST_LARGE, FAST_SMALL

    return [
        FAST_LARGE,
        FAST_SMALL,
        FAST_LARGE.evolve(native_batch_size=64),
        FAST_SMALL.evolve(l3_global_buffer_mib=128, enable_fast_fusion=True),
    ]


def cache_sizes() -> dict:
    """Entry counts of every module-level cache a cold run must start without."""
    from repro.core import trial
    from repro.mapping import mapper
    from repro.runtime import opcache
    from repro.simulator import engine

    return {
        "graphs": len(trial._GRAPH_CACHE),
        "compiled": len(engine._COMPILED_CACHE),
        "problem_memo": len(mapper._PROBLEM_MEMO),
        "op_cache": sum(len(c) for c in opcache._CACHES.values()),
        "region_cache": sum(len(c) for c in opcache._REGION_CACHES.values()),
    }


def history_digest(result) -> str:
    """SHA-256 over every trial's params and objective, in proposal order."""
    from repro.reporting.serialization import params_to_jsonable

    rows = [
        [params_to_jsonable(params), float(metrics.objective_value).hex()]
        for params, metrics in zip(result.proposals, result.history)
    ]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def canonical_metrics(metrics) -> str:
    """Bit-exact text form of a TrialMetrics (floats as hex)."""

    def encode(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, dict):
            return {str(k): encode(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [encode(v) for v in value]
        return value

    return json.dumps(encode(dataclasses.asdict(metrics)), sort_keys=True, default=str)


def perf_per_tdp_vs_tpuv3(problem, best) -> float:
    """Fig. 10: best design's Perf/TDP over TPU-v3's, geomean over workloads."""
    from repro.core.designs import TPU_V3
    from repro.core.problem import geometric_mean
    from repro.hardware.area_power import AreaPowerModel
    from repro.simulator.engine import Simulator

    if best is None:
        return 0.0
    tpu_tdp = AreaPowerModel().tdp_w(TPU_V3)
    tpu = Simulator(TPU_V3)
    ratios = []
    for workload in problem.workloads:
        baseline = tpu.simulate_workload(workload).qps / tpu_tdp
        ratios.append(best.perf_per_tdp(workload) / baseline)
    return geometric_mean(ratios)


def reference_check(problem, space, result) -> dict:
    """Re-evaluate the best and a few fixed trials with the scalar engine.

    The reference evaluator runs with the op and region caches off, so every
    checked trial is recomputed from scratch; its metrics must equal the
    recorded ones bit for bit.
    """
    from repro.core.trial import TrialEvaluator
    from repro.simulator.enginespec import EngineSpec

    history = result.history
    n = len(history)
    indices = {0, 1, n // 2, n - 1}
    best = result.best_metrics
    if best is not None:
        indices.add(next(i for i, m in enumerate(history) if m is best))
    indices = sorted(i for i in indices if 0 <= i < n)
    reference = TrialEvaluator(
        problem,
        simulation_options=EngineSpec.parse(REFERENCE_ENGINE).to_simulation_options(
            fusion_solver="greedy"
        ),
    )
    mismatches = []
    for index in indices:
        again = reference.evaluate_params(result.proposals[index], space)
        if canonical_metrics(again) != canonical_metrics(history[index]):
            mismatches.append(index)
    return {
        "engine": REFERENCE_ENGINE,
        "indices": indices,
        "attempted": len(indices),
        "failed": len(mismatches),
        "mismatched_indices": mismatches,
    }


def simulated(args, metrics) -> bool:
    """Whether an ``evaluate_params`` call reached the simulator.

    Trials whose configuration is invalid or breaks the area/TDP budget
    return in about 0.1 ms; they are left out of the latency percentiles so
    those do not move with the share of such trials in a trajectory.
    """
    evaluator = args[0]
    return metrics.config is not None and evaluator.problem.constraints.is_feasible(
        metrics.area_mm2, metrics.tdp_w
    )


def install_layers(tracer, search, executor, spool) -> None:
    """Wrap each layer's public entry points (see README.md for the map)."""
    from repro.core.fast import FASTSearch
    from repro.core.trial import TrialEvaluator
    from repro.fusion.fast_fusion import FastFusionOptimizer
    from repro.hardware.area_power import AreaPowerModel
    from repro.mapping.mapper import Mapper
    from repro.runtime import executor as executor_module
    from repro.runtime.batching import BatchedOptimizer
    from repro.runtime.opcache import OpCostCache, RegionCostCache
    from repro.simulator.engine import Simulator
    from repro.simulator.vector_ops import vector_op_cost

    wrap = tracer.wrap_method
    wrap(FASTSearch, "run", "core.loop")
    wrap(BatchedOptimizer, "ask_batch", "search.ask")
    wrap(type(search.optimizer), "tell", "search.tell")
    wrap(type(executor), "evaluate_batch", "runtime.executor")
    wrap(TrialEvaluator, "evaluate_params", "core.trial", sample=simulated)
    wrap(AreaPowerModel, "evaluate", "hardware.area_power")
    wrap(Simulator, "simulate", "simulator",
         count=lambda args, result: ("simulator.regions", len(result.regions)))
    wrap(Mapper, "map_ops_batch", "mapping",
         count=lambda args, result: ("mapping.ops", len(args[1])))
    wrap(Mapper, "map_op", "mapping", count=lambda args, result: ("mapping.ops", 1))
    wrap(FastFusionOptimizer, "optimize", "fusion",
         count=lambda args, result: ("fusion.regions", len(args[1])))
    for cache_class, layer in ((OpCostCache, "runtime.op_cache"),
                               (RegionCostCache, "runtime.region_cache")):
        wrap(cache_class, "get", layer)
        wrap(cache_class, "put", layer)
    tracer.wrap_function(vector_op_cost, "simulator.vector")
    if spool is not None:
        tracer.spool_worker_tasks(executor_module, spool)


def run(args) -> dict:
    from repro.compiler.passes import compile_graph
    from repro.core.fast import FASTSearch
    from repro.core.problem import ObjectiveKind, SearchProblem
    from repro.core.trial import TrialEvaluator
    from repro.runtime import executor as executor_module
    from repro.runtime.executor import ParallelExecutor, SerialExecutor
    from repro.workloads.registry import MULTI_WORKLOAD_SUITE, build_workload

    import numpy
    from layers import LayerTracer, read_spool

    spec = WORKLOADS[args.workload]
    caches_at_start = cache_sizes()
    workloads = (
        list(MULTI_WORKLOAD_SUITE)
        if spec["workloads"] == "MULTI_WORKLOAD_SUITE"
        else list(spec["workloads"])
    )
    problem = SearchProblem(workloads, ObjectiveKind.PERF_PER_TDP)
    evaluator = TrialEvaluator(problem)
    tracer = LayerTracer()
    if args.trace:
        # Building and compiling graphs is setup work as much as trial work,
        # so these two layers are timed from the start of setup on.
        tracer.wrap_function(build_workload, "workloads.build")
        tracer.wrap_function(compile_graph, "compiler")
    evaluator.warm_caches()
    for offset in spec["warmup_seed_offsets"]:
        FASTSearch(problem, optimizer="lcs", seed=args.seed + offset,
                   evaluator=evaluator).run(spec["warmup_trials"], batch_size=BATCH_SIZE)

    parallel = spec["executor"] != "serial"
    if parallel and multiprocessing.get_start_method() != "fork":
        raise RuntimeError("worker-side timing needs fork-started pool workers")
    executor = ParallelExecutor(num_workers=WORKERS) if parallel else SerialExecutor()
    search = FASTSearch(
        problem,
        optimizer="lcs",
        seed=args.seed,
        evaluator=evaluator,
        executor=executor,
        seed_configs=warm_start_designs() if spec["warm_start_designs"] else None,
    )
    spool = Path(args.spool) if parallel else None
    if args.trace:
        install_layers(tracer, search, executor, spool)
    else:
        # Untraced runs time only whole trials (for the latency percentiles).
        tracer.wrap_method(TrialEvaluator, "evaluate_params", "core.trial", sample=simulated)
        if spool is not None:
            tracer.spool_worker_tasks(executor_module, spool)
    caches_at_first_proposal = cache_sizes()
    before = tracer.flat()

    first_proposal_unix = time.time()
    started = time.perf_counter()
    result = search.run(args.trials, batch_size=BATCH_SIZE)
    wall_s = time.perf_counter() - started

    layers = tracer.flat()
    # Worker self times overlap in wall time, so only this process's layers
    # can account for the timed region.
    attributed_s = sum(
        v - before.get(k, 0) for k, v in layers.items() if k.endswith(".self_s")
    )
    samples = tracer.samples
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    executor.close()  # joins the workers, so their spool lines are complete
    tracer.uninstall()
    workers = read_spool(spool) if spool is not None else None
    if workers is not None:
        for key, value in workers["delta"].items():
            layers[key] = layers.get(key, 0) + value
        samples = workers["samples"]
        peak_kib += sum(workers["maxrss_kib"].values())

    stats = result.runtime
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trials": result.num_trials,
        "batch_size": BATCH_SIZE,
        "optimizer": "lcs",
        "objective": ObjectiveKind.PERF_PER_TDP.value,
        "problem_workloads": workloads,
        "regime": spec["regime"],
        "warmup_seeds": [args.seed + offset for offset in spec["warmup_seed_offsets"]],
        "executor": spec["executor"],
        "engine_label": ENGINE_LABEL,
        "engine_echo": stats.engine,
        "cpus": multiprocessing.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "traced": bool(args.trace),
        "caches_at_start": caches_at_start,
        "caches_at_first_proposal": caches_at_first_proposal,
        "setup_s": first_proposal_unix - args.spawned_at,
        "wall_s": wall_s,
        "trials_per_s": result.num_trials / wall_s,
        "attributed_s": attributed_s,
        "executor_first_batch_s": tracer.first_s.get("runtime.executor", 0.0),
        "trial_s": [seconds for seconds, ran in samples if ran],
        "constraint_rejected_trials": sum(1 for _, ran in samples if not ran),
        "peak_rss_mib": peak_kib / 1024.0,
        "digest": history_digest(result),
        "feasible_trials": result.num_feasible_trials,
        "layers": layers,
        "worker_processes": len(workers["maxrss_kib"]) if workers else 0,
        "runtime": {
            key: getattr(stats, key)
            for key in (
                "op_cache_hits", "op_cache_misses", "op_cache_shared_hits",
                "region_cache_hits", "region_cache_misses", "region_cache_shared_hits",
                "shared_cache_entries", "shared_cache_attached", "worker_restarts",
                "duplicates_avoided", "eval_seconds", "mapper_seconds",
                "fusion_seconds", "vector_seconds",
            )
        },
    }
    record["perf_per_tdp_vs_tpuv3"] = perf_per_tdp_vs_tpuv3(problem, result.best_metrics)
    if args.check:
        record["check"] = reference_check(problem, search.space, result)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trials", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, default=STARTED_UNIX)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--spool", help="directory for worker spool files")
    args = parser.parse_args(argv)
    if WORKLOADS[args.workload]["executor"] != "serial" and not args.spool:
        parser.error(f"{args.workload} needs --spool for its worker timings")
    try:
        record = run(args)
    except Exception:  # reported to run.py as a failed search
        record = {"error": traceback.format_exc()}
    print(json.dumps(record))
    return 0 if "error" not in record else 1


if __name__ == "__main__":
    sys.exit(main())
