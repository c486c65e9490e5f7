"""Profiling harness for the trial-evaluation pipeline.

``repro profile`` (and the ``bench_mapper_throughput`` benchmark) run the
same fixed-seed search under several evaluator configurations — the scalar
reference mapping engine, the graph-batched engine (with and without the
region-level result cache), the cross-trial op-cost cache, and a warm
process-pool executor — and report trials/sec plus a per-stage wall-clock
breakdown (mapper / VPU cost model / fusion ILP / other) and cache hit
counters.  Because every mode is bit-for-bit equivalent by design, the
harness also verifies that the modes reproduce the reference trial history
and flags any divergence: it doubles as an end-to-end equivalence check in
CI.  The ``parallel`` row exists so a process-pool regression (cold
workers once ran at 0.71x of scalar) can never hide: its throughput and
worker-side cache counters land in the same report as every serial mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.core.fast import FASTSearch, RuntimeStats
from repro.core.problem import ObjectiveKind, SearchProblem
from repro.core.trial import TrialEvaluator
from repro.reporting.serialization import runtime_stats_to_dict, trial_metrics_to_dict
from repro.runtime.opcache import reset_op_caches
from repro.runtime.telemetry import SpanRecord
from repro.simulator.engine import SimulationOptions

__all__ = [
    "ProfileMode",
    "ProfileRecord",
    "ProfileReport",
    "PROFILE_MODES",
    "StageStat",
    "TraceSummary",
    "profile_search",
    "summarize_trace",
]


@dataclass(frozen=True)
class ProfileMode:
    """One evaluator configuration to profile."""

    name: str
    vectorized_mapper: bool
    op_cache: bool
    region_cache: bool = False
    workers: int = 1


#: The standard comparison ladder, slowest first; the first mode is the
#: reference whose history every other mode must reproduce bit-for-bit.
#: ``parallel-2`` runs the default fast path on a 2-worker warm process
#: pool — the row that keeps executor regressions visible.
PROFILE_MODES = (
    ProfileMode("scalar", vectorized_mapper=False, op_cache=False),
    ProfileMode("graph-batched", vectorized_mapper=True, op_cache=False),
    ProfileMode(
        "graph-batched+region-cache",
        vectorized_mapper=True,
        op_cache=False,
        region_cache=True,
    ),
    ProfileMode("graph-batched+op-cache", vectorized_mapper=True, op_cache=True),
    ProfileMode(
        "parallel-2",
        vectorized_mapper=True,
        op_cache=True,
        region_cache=True,
        workers=2,
    ),
)


@dataclass
class ProfileRecord:
    """Measured outcome of one profiled mode: its search's ``RuntimeStats``."""

    mode: str
    trials: int
    workers: int
    runtime: RuntimeStats

    @property
    def trials_per_second(self) -> float:
        return self.runtime.trials_per_second

    @property
    def stages(self) -> Dict[str, float]:
        """Seconds per stage; ``other`` is evaluation outside the three."""
        stats = self.runtime
        timed = stats.mapper_seconds + stats.vector_seconds + stats.fusion_seconds
        return {
            "mapper": stats.mapper_seconds,
            "vector": stats.vector_seconds,
            "fusion": stats.fusion_seconds,
            "evaluate": stats.eval_seconds,
            "other": max(0.0, stats.eval_seconds - timed),
        }

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible form of this record."""
        return {
            "mode": self.mode,
            "trials": self.trials,
            "workers": self.workers,
            "trials_per_second": self.trials_per_second,
            "stages": self.stages,
            "runtime": runtime_stats_to_dict(self.runtime),
        }


@dataclass
class ProfileReport:
    """All profiled modes plus the cross-mode equivalence verdict."""

    workloads: List[str]
    trials: int
    batch_size: int
    optimizer: str
    seed: int
    records: List[ProfileRecord] = field(default_factory=list)
    histories_match: bool = True

    def record(self, mode: str) -> ProfileRecord:
        """Look up a mode's record by name."""
        for record in self.records:
            if record.mode == mode:
                return record
        raise KeyError(f"no profiled mode named {mode!r}")

    def speedup(self, mode: str, baseline: str = "scalar") -> float:
        """Throughput of ``mode`` relative to ``baseline``."""
        base = self.record(baseline).trials_per_second
        return self.record(mode).trials_per_second / base if base > 0 else float("inf")

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible form of the whole report."""
        return {
            "workloads": list(self.workloads),
            "trials": self.trials,
            "batch_size": self.batch_size,
            "optimizer": self.optimizer,
            "seed": self.seed,
            "histories_match": self.histories_match,
            "records": [record.to_dict() for record in self.records],
            "speedups_vs_scalar": {
                record.mode: self.speedup(record.mode) for record in self.records
            },
        }


@dataclass
class StageStat:
    """Aggregated timing of one span name across a trace."""

    name: str
    category: str
    count: int
    total_seconds: float

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "category": self.category,
            "count": self.count,
            "total_seconds": self.total_seconds,
            "mean_seconds": self.mean_seconds,
        }


@dataclass
class TraceSummary:
    """Stage-timeline digest of a recorded trace (``repro trace``).

    ``coverage`` is the fraction of total trial wall time accounted for by
    the trial spans' direct children — the acceptance gauge that the spans
    actually explain where trial time goes instead of leaving dark matter.
    """

    num_spans: int
    num_trials: int
    trial_seconds: float
    coverage: float
    stages: List[StageStat] = field(default_factory=list)
    slowest: List[SpanRecord] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "num_spans": self.num_spans,
            "num_trials": self.num_trials,
            "trial_seconds": self.trial_seconds,
            "coverage": self.coverage,
            "stages": [stage.to_dict() for stage in self.stages],
            "slowest": [span.to_dict() for span in self.slowest],
        }


def summarize_trace(records: Sequence[SpanRecord], top_k: int = 10) -> TraceSummary:
    """Aggregate a span list into the per-stage timeline ``repro trace`` prints.

    Groups spans by name (count + total/mean seconds, sorted by total time
    descending), finds the ``trial`` spans, computes the direct-child
    coverage of trial wall time, and keeps the ``top_k`` slowest individual
    spans.  Works on the output of :func:`repro.runtime.telemetry.load_trace`
    for both Chrome-trace and JSONL files.
    """
    records = list(records)
    totals: Dict[str, StageStat] = {}
    for record in records:
        stat = totals.get(record.name)
        if stat is None:
            totals[record.name] = StageStat(
                name=record.name,
                category=record.category,
                count=1,
                total_seconds=record.duration,
            )
        else:
            stat.count += 1
            stat.total_seconds += record.duration

    trials = [r for r in records if r.name == "trial"]
    trial_ids = {r.span_id for r in trials}
    trial_seconds = sum(r.duration for r in trials)
    child_seconds = sum(
        r.duration for r in records if r.parent_id in trial_ids
    )
    coverage = child_seconds / trial_seconds if trial_seconds > 0 else 0.0

    stages = sorted(totals.values(), key=lambda s: (-s.total_seconds, s.name))
    slowest = sorted(records, key=lambda r: -r.duration)[: max(0, int(top_k))]
    return TraceSummary(
        num_spans=len(records),
        num_trials=len(trials),
        trial_seconds=trial_seconds,
        coverage=min(1.0, coverage),
        stages=stages,
        slowest=slowest,
    )


def _mode_options(mode: ProfileMode) -> SimulationOptions:
    return SimulationOptions(
        fusion_solver="greedy",
        vectorized_mapper=mode.vectorized_mapper,
        region_cache_enabled=mode.region_cache,
        op_cache_enabled=mode.op_cache,
    )


def profile_search(
    workloads: Sequence[str],
    trials: int = 48,
    optimizer: str = "lcs",
    seed: int = 0,
    batch_size: int = 8,
    objective: ObjectiveKind = ObjectiveKind.PERF_PER_TDP,
    modes: Sequence[ProfileMode] = PROFILE_MODES,
    warm_op_cache: bool = False,
) -> ProfileReport:
    """Run the same fixed-seed search under every mode and time each stage.

    A throwaway warm-up pass populates the process-level workload-graph and
    compiled-graph caches first, so no mode is charged for one-time graph
    building and ordering does not bias the comparison.  The op and region
    caches are reset before each mode (cold by default; ``warm_op_cache=True``
    measures the steady-state regime of sweeps and repeated searches by
    running each cache-enabled or parallel mode twice and timing the second
    run — parallel pools inherit the warm parent caches through fork or load
    them via the warm-start initializer).

    Every mode must reproduce the first mode's trial history bit-for-bit;
    ``histories_match`` records the verdict.
    """
    from repro.runtime.executor import ParallelExecutor

    modes = list(modes)
    if not modes:
        raise ValueError("at least one profile mode is required")
    report = ProfileReport(
        workloads=list(workloads),
        trials=int(trials),
        batch_size=int(batch_size),
        optimizer=optimizer,
        seed=int(seed),
    )

    from repro.hardware.search_space import DatapathSearchSpace

    def run_once(mode: ProfileMode, problem, evaluator, space, executor=None):
        # A fresh FASTSearch per run (fresh optimizer state, same seed) over
        # a shared evaluator/space/executor: reruns retrace the identical
        # trajectory, and a parallel executor keeps its warm worker pool
        # alive between the cold and the timed run.
        search = FASTSearch(
            problem, optimizer=optimizer, space=space, seed=seed,
            evaluator=evaluator, executor=executor,
        )
        return search.run(num_trials=trials, batch_size=batch_size)

    def mode_fixture(mode: ProfileMode):
        problem = SearchProblem(list(workloads), objective)
        evaluator = TrialEvaluator(problem, simulation_options=_mode_options(mode))
        return problem, evaluator, DatapathSearchSpace()

    # Warm-up: populate graph/compile caches shared by every mode.
    reset_op_caches()
    run_once(modes[0], *mode_fixture(modes[0]))

    reference_history = None
    for mode in modes:
        reset_op_caches()
        fixture = mode_fixture(mode)
        executor = (
            ParallelExecutor(num_workers=mode.workers) if mode.workers > 1 else None
        )
        try:
            result = run_once(mode, *fixture, executor=executor)
            warmable = mode.op_cache or mode.region_cache or mode.workers > 1
            if warmable and warm_op_cache:
                result = run_once(mode, *fixture, executor=executor)  # steady state
        finally:
            if executor is not None:
                executor.close()
        record = ProfileRecord(
            mode=mode.name,
            trials=result.num_trials,
            workers=mode.workers,
            runtime=result.runtime,
        )
        report.records.append(record)
        history = [trial_metrics_to_dict(m) for m in result.history]
        if reference_history is None:
            reference_history = history
        elif history != reference_history:
            report.histories_match = False
    reset_op_caches()
    return report
