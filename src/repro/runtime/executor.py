"""Trial executors: evaluate batches of proposals serially or in parallel.

A :class:`TrialExecutor` turns a batch of search-space proposals into
:class:`~repro.core.trial.TrialMetrics`, decoupling *how* trials run from the
search loop that proposes them.  :class:`SerialExecutor` evaluates in-process;
:class:`ParallelExecutor` fans the batch out to a pool of worker processes
(the evaluator and space are shipped to each worker once, at pool start).

Both executors return results **in proposal order**, so a parallel run feeds
the optimizer the exact same tell sequence as a serial run and the search
history is bit-for-bit reproducible for a fixed seed and batch size.

The process pool is *supervised*: a worker dying mid-batch (OOM kill,
segfault, injected ``worker-crash`` fault) breaks the pool, which the
executor detects, rebuilds — re-warming worker caches through the same
initializer — and re-dispatches the in-flight batch on.  Evaluation is
deterministic, so the re-dispatched batch returns the same metrics and the
search history stays bit-for-bit equal to a fault-free run; the recovery is
visible only in ``RuntimeStats.worker_restarts``.

Every worker task returns, beside its metrics, the delta of the worker's
counter store (:func:`repro.runtime.telemetry.get_counters`) over the
task — stage seconds, cache lookups, the engine echo — and the parent
merges it into its own store, so a search reports the same statistics
whichever executor evaluated it.
"""

from __future__ import annotations

import os
import time
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.trial import TrialEvaluator, TrialMetrics
from repro.hardware.search_space import DatapathSearchSpace, ParameterValues
from repro.runtime.faults import crash_process, get_fault_plan
from repro.runtime.telemetry import (
    apply_telemetry_config,
    get_counters,
    get_tracer,
    telemetry_config,
)

__all__ = [
    "TrialExecutor",
    "SerialExecutor",
    "ParallelExecutor",
    "WorkerCrashError",
    "EXECUTOR_KINDS",
    "register_executor",
    "executor_kinds",
    "make_executor",
]


class WorkerCrashError(RuntimeError):
    """A batch kept crashing pool workers past the restart budget."""


# ---------------------------------------------------------------------------
# Worker-process plumbing.  The evaluator/space are installed once per worker
# by the pool initializer, which also pre-warms the worker's caches: the
# workload graphs and compiled regions (a no-op under fork, where the warm
# parent entries are inherited outright) and the process-local op / region
# cost caches, including loading the persistent op store from disk when the
# evaluator is configured with one.  Per-task payloads are just the
# parameter dicts; graphs are never pickled.
# ---------------------------------------------------------------------------
_WORKER_EVALUATOR: Optional[TrialEvaluator] = None
_WORKER_SPACE: Optional[DatapathSearchSpace] = None


def _init_worker(
    evaluator: TrialEvaluator,
    space: DatapathSearchSpace,
    warm_start: bool = True,
    telemetry: Optional[dict] = None,
) -> None:
    global _WORKER_EVALUATOR, _WORKER_SPACE
    _WORKER_EVALUATOR = evaluator
    _WORKER_SPACE = space
    # Always install a fresh worker tracer (disabled when telemetry is None):
    # a fork-inherited parent buffer must never leak parent spans back with
    # a task delta, and fresh construction gives each worker its own span-id
    # salt, so span ids stay unique across the pool.
    apply_telemetry_config(telemetry)
    # Named engine echo, carried home by every task delta: proof the worker
    # inherited the parent's EngineSpec through the initializer (a pool
    # silently falling back to the default engine would show up in
    # ``RuntimeStats.engine`` and ``repro profile``).
    get_counters().set("engine", evaluator.engine)
    if warm_start:
        warm = getattr(evaluator, "warm_caches", None)
        if callable(warm):
            try:
                warm()
            except Exception:
                pass  # warm-up is best effort; evaluation must still start


def _evaluate_in_worker(task):
    params, crash = task
    if crash:
        # Injected worker death (``worker-crash`` fault): die the way an OOM
        # kill would, before any evaluation work.  The decision was made in
        # the parent, so the re-dispatched task arrives with crash=False.
        crash_process()
    if _WORKER_EVALUATOR is None or _WORKER_SPACE is None:
        raise RuntimeError("worker process was not initialized with an evaluator")
    counters = get_counters()
    before = counters.snapshot()
    metrics = _WORKER_EVALUATOR.evaluate_params(params, _WORKER_SPACE)
    tracer = get_tracer()
    # Draining ships each span home exactly once even when the process is
    # reused across many tasks.
    spans = [record.to_dict() for record in tracer.drain()] if tracer.enabled else None
    return metrics, counters.delta(before), spans


# ---------------------------------------------------------------------------
class TrialExecutor(ABC):
    """Evaluates batches of proposals; results come back in proposal order."""

    name: str = "executor"

    @abstractmethod
    def evaluate_batch(
        self,
        evaluator: TrialEvaluator,
        space: DatapathSearchSpace,
        batch: Sequence[ParameterValues],
    ) -> List[TrialMetrics]:
        """Evaluate every proposal in ``batch``, preserving order."""

    def close(self) -> None:
        """Release any resources (worker processes, ...)."""

    # Executors can be used as context managers: ``with ParallelExecutor(4) as ex``.
    def __enter__(self) -> "TrialExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(TrialExecutor):
    """Evaluates trials in the calling process."""

    name = "serial"

    def evaluate_batch(
        self,
        evaluator: TrialEvaluator,
        space: DatapathSearchSpace,
        batch: Sequence[ParameterValues],
    ) -> List[TrialMetrics]:
        return [evaluator.evaluate_params(params, space) for params in batch]


class ParallelExecutor(TrialExecutor):
    """Evaluates trials on a pool of warm worker processes.

    The pool is created lazily on the first batch and reused across batches;
    it is re-created only if the evaluator or space object changes.  Results
    are collected with an order-preserving ``map``, so trial ordering (and
    hence the optimizer trajectory) is identical to a serial run.

    Workers start *warm*: fork-started workers inherit the parent's graphs,
    compiled regions and op / region cost caches, and the pool initializer
    fills whatever is still missing — loading the persistent op store from
    disk when the evaluator is configured with one (``--op-cache PATH``),
    which is how a pool shares one op store across workers, searches, and
    sweep shards.  Each worker's region cache stays private to it.
    Every task ships the delta of the worker's counter store home and the
    parent merges it into its own, so worker-side cache lookups, stage
    seconds and the engine echo reach ``RuntimeStats`` as in a serial run.

    The pool is supervised: worker death mid-batch (detected as
    ``BrokenProcessPool``) tears the broken pool down, spawns a fresh one —
    whose initializer re-warms the caches exactly like the first start —
    and re-dispatches the whole in-flight batch, up to
    ``max_worker_restarts`` times per batch.  Evaluation is deterministic,
    so re-dispatch returns identical metrics and the history matches a
    fault-free run bit-for-bit; ``worker_restarts`` (here and in
    ``RuntimeStats``) reports how many times it happened.

    Args:
        num_workers: Worker process count (defaults to the CPU count).
        chunk_size: Proposals per worker task; 1 gives the best load balance
            for heterogeneous trial costs.
        warm_start: Pre-warm worker caches in the pool initializer (on by
            default; results are identical either way).
        max_worker_restarts: Pool rebuilds tolerated for one batch before
            :class:`WorkerCrashError` is raised (a batch that *always*
            kills its worker would otherwise respawn forever).
    """

    name = "parallel"

    def __init__(
        self,
        num_workers: Optional[int] = None,
        chunk_size: int = 1,
        warm_start: bool = True,
        max_worker_restarts: int = 3,
    ) -> None:
        self.num_workers = max(1, int(num_workers or os.cpu_count() or 1))
        self.chunk_size = max(1, int(chunk_size))
        self.warm_start = bool(warm_start)
        self.max_worker_restarts = max(0, int(max_worker_restarts))
        self.worker_restarts = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        # Strong references to the objects the pool was initialized with;
        # identity is checked with ``is`` (never id() of possibly-collected
        # objects, whose addresses can be reused by new allocations).
        self._pool_args: Optional[tuple] = None
        self._pool_telemetry: Optional[dict] = None

    # ------------------------------------------------------------------
    def _ensure_pool(
        self, evaluator: TrialEvaluator, space: DatapathSearchSpace
    ) -> ProcessPoolExecutor:
        telemetry = telemetry_config()
        if self._pool is not None and (
            self._pool_args is None
            or self._pool_args[0] is not evaluator
            or self._pool_args[1] is not space
            or self._pool_telemetry != telemetry
        ):
            self.close()
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.num_workers,
                initializer=_init_worker,
                initargs=(evaluator, space, self.warm_start, telemetry),
            )
            self._pool_args = (evaluator, space)
            self._pool_telemetry = telemetry
        return self._pool

    def evaluate_batch(
        self,
        evaluator: TrialEvaluator,
        space: DatapathSearchSpace,
        batch: Sequence[ParameterValues],
    ) -> List[TrialMetrics]:
        if not batch:
            return []
        plan = get_fault_plan()
        restarts = 0
        while True:
            pool = self._ensure_pool(evaluator, space)
            # Crash decisions are drawn per dispatch attempt, in the parent:
            # a re-dispatched batch consumes *fresh* opportunities, so a
            # budgeted (n=K) crash plan converges instead of killing every
            # respawned pool forever.
            tasks = [
                (params, plan is not None and plan.fire("worker-crash") is not None)
                for params in batch
            ]
            try:
                outcomes = list(
                    pool.map(_evaluate_in_worker, tasks, chunksize=self.chunk_size)
                )
                break
            except BrokenProcessPool as error:
                self.close()  # the broken pool's workers are already gone
                self.worker_restarts += 1
                get_counters().add("worker_restarts")
                restarts += 1
                get_tracer().record_span(
                    "worker_restart",
                    start_unix=time.time(),
                    duration=0.0,
                    category="executor",
                    restarts_this_batch=restarts,
                    batch_size=len(batch),
                )
                if restarts > self.max_worker_restarts:
                    raise WorkerCrashError(
                        f"batch of {len(batch)} kept killing workers through "
                        f"{restarts} pool restarts"
                    ) from error
        counters = get_counters()
        tracer = get_tracer()
        for _, delta, spans in outcomes:
            counters.merge(delta)
            if spans and tracer.enabled:
                tracer.ingest(spans)
        return [metrics for metrics, _, _ in outcomes]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_args = None
            self._pool_telemetry = None


# ---------------------------------------------------------------------------
# Registry / factory.  Executors register under a short kind name so the CLI
# (``repro search --executor serial|process|remote``) and programmatic callers
# build them uniformly; out-of-tree executors can plug in the same way.
# ---------------------------------------------------------------------------
def _make_serial(**_options) -> TrialExecutor:
    return SerialExecutor()


def _make_process(
    workers: int = 1, chunk_size: Optional[int] = None, **_options
) -> TrialExecutor:
    return ParallelExecutor(num_workers=workers, chunk_size=chunk_size or 1)


def _make_remote(endpoints: Optional[Sequence[str]] = None, **options) -> TrialExecutor:
    from repro.runtime.remote import AsyncRemoteExecutor  # avoid an import cycle

    if not endpoints:
        raise ValueError("the remote executor needs at least one endpoint URL")
    known = {
        "timeout",
        "max_retries",
        "backoff",
        "backoff_cap",
        "hedge_after",
        "hedge_k",
        "chunk_size",
        "blacklist_after",
        "local_fallback",
    }
    kwargs = {key: value for key, value in options.items() if key in known}
    return AsyncRemoteExecutor(endpoints, **kwargs)


EXECUTOR_KINDS: Dict[str, Callable[..., TrialExecutor]] = {
    "serial": _make_serial,
    "process": _make_process,
    "remote": _make_remote,
}


def register_executor(kind: str, factory: Callable[..., TrialExecutor]) -> None:
    """Register an executor factory under a kind name (overwrites)."""
    EXECUTOR_KINDS[kind] = factory


def executor_kinds() -> List[str]:
    """Registered executor kind names, sorted."""
    return sorted(EXECUTOR_KINDS)


def make_executor(
    workers: int = 1,
    chunk_size: Optional[int] = None,
    kind: Optional[str] = None,
    **options,
) -> TrialExecutor:
    """Build an executor by kind, or by worker count when ``kind`` is None.

    Without ``kind`` this keeps the original behavior: more than one worker
    selects the process pool, otherwise serial.  With ``kind`` the matching
    registered factory is called with ``workers``/``chunk_size`` plus any
    extra options (e.g. ``endpoints=[...]``, ``timeout=...`` for
    ``kind='remote'``).
    """
    if kind is None:
        kind = "process" if workers and workers > 1 else "serial"
    factory = EXECUTOR_KINDS.get(kind)
    if factory is None:
        raise ValueError(
            f"unknown executor kind {kind!r}; registered: {', '.join(executor_kinds())}"
        )
    return factory(workers=workers, chunk_size=chunk_size, **options)
