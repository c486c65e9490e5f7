"""Cross-trial memoization of mapping and region costs.

The second-level cache of the mapping engine: while each
:class:`~repro.mapping.mapper.Mapper` memoizes problems *within* one trial,
an :class:`OpCostCache` is shared across trials (and, when persistent, across
processes and restarts) and keyed by the pair

``(mapping-relevant datapath sub-config, op shape fingerprint)``

so neighboring design points that agree on the mapping-relevant slice of the
configuration — no matter how their fusion, memory, or batch parameters
differ — reuse each other's mapped op costs instead of re-running the
candidate sweep.  Vector ops need no cache: the simulator's region plan
holds each one's VPU work, so its cost is one division per trial.  One
level up, :class:`RegionCostCache` memoizes whole fusion-region evaluations.

A lookup falls through at most two tiers:

1. the in-process memory LRU (private, per process) — the whole of the
   region cache, and the front of the op cache;
2. for op costs only, a digest-keyed raw index backed by an append-only
   JSONL store when a path is configured (``--op-cache PATH``).  Records are
   written with a single ``write`` call each, so concurrent appends from
   multiple processes sharing a path never interleave partial lines on
   POSIX filesystems, and torn tails left by crashes are quarantined
   (``corrupt_records``) rather than trusted.  JSON float encoding
   round-trips exactly, so a store hit is bit-identical to a fresh mapping.

Caches are process-local singletons obtained through :func:`get_op_cache` /
:func:`get_region_cache`; worker processes of a
:class:`~repro.runtime.executor.ParallelExecutor` each build their own
lazily (the evaluator ships only the cache *settings*, never the cache),
exactly like the per-process workload-graph cache.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.mapping.costmodel import OpCost
from repro.mapping.dataflow import Dataflow
from repro.mapping.tiling import Tiling
from repro.runtime.telemetry import get_counters
from repro.workloads.ops import OpType, is_matrix_op

__all__ = [
    "OpCacheStats",
    "OpCostCache",
    "RegionCacheStats",
    "RegionCostCache",
    "get_op_cache",
    "get_region_cache",
    "reset_op_caches",
    "reset_region_caches",
    "opcost_to_dict",
    "opcost_from_dict",
]


@dataclass
class OpCacheStats:
    """Hit/miss counters for one op-cost cache.

    ``hits`` counts every lookup served from the cache; ``disk_hits`` breaks
    out the subset served from the persistent raw index (a pure memory-LRU
    hit is ``hits - disk_hits``).  ``corrupt_records`` counts
    torn/undecodable JSONL lines quarantined while loading the store (the
    tail a crash mid-append leaves); ``stale_tmp_swept`` counts leftover
    compaction temp files removed.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    disk_hits: int = 0
    disk_entries_loaded: int = 0
    corrupt_records: int = 0
    stale_tmp_swept: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class RegionCacheStats:
    """Hit/miss counters for one region-cost cache."""

    hits: int = 0
    misses: int = 0
    puts: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of region lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


# ---------------------------------------------------------------------------
# Op-cost payload codec.  JSON floats round-trip exactly (repr-based shortest
# float encoding), which is what keeps the persistent op store bit-for-bit
# neutral to search histories.
# ---------------------------------------------------------------------------
def opcost_to_dict(cost: OpCost) -> Dict[str, object]:
    """JSON-compatible encoding of an :class:`OpCost` (exact float round-trip)."""
    return {
        "op_name": cost.op_name,
        "op_type": cost.op_type.value,
        "flops": cost.flops,
        "padded_flops": cost.padded_flops,
        "compute_cycles": cost.compute_cycles,
        "vector_cycles": cost.vector_cycles,
        "dram_input_bytes": cost.dram_input_bytes,
        "dram_weight_bytes": cost.dram_weight_bytes,
        "dram_output_bytes": cost.dram_output_bytes,
        "utilization": cost.utilization,
        "dataflow": cost.dataflow.value if cost.dataflow is not None else None,
        "tiling": (
            [cost.tiling.m_tile, cost.tiling.n_tile, cost.tiling.k_tile]
            if cost.tiling is not None
            else None
        ),
        "schedule_failed": cost.schedule_failed,
    }


def opcost_from_dict(data: Dict[str, object]) -> OpCost:
    """Inverse of :func:`opcost_to_dict`."""
    tiling = data.get("tiling")
    dataflow = data.get("dataflow")
    return OpCost(
        op_name=str(data["op_name"]),
        op_type=OpType(data["op_type"]),
        flops=int(data["flops"]),
        padded_flops=int(data["padded_flops"]),
        compute_cycles=float(data["compute_cycles"]),
        vector_cycles=float(data["vector_cycles"]),
        dram_input_bytes=float(data["dram_input_bytes"]),
        dram_weight_bytes=float(data["dram_weight_bytes"]),
        dram_output_bytes=float(data["dram_output_bytes"]),
        utilization=float(data["utilization"]),
        dataflow=Dataflow(dataflow) if dataflow is not None else None,
        tiling=Tiling(*tiling) if tiling is not None else None,
        schedule_failed=bool(data["schedule_failed"]),
    )


# ---------------------------------------------------------------------------
class OpCostCache:
    """Cache of per-op matrix mapping costs: memory LRU + JSONL op store.

    Keys are ``(mapping config key, problem key)`` tuples built by the
    mapper; the raw index (and the persistent store behind it) keys them by
    a SHA-256 digest of their canonical JSON form, so any process that
    derives the same key reads the same record.

    Args:
        path: Optional JSON-lines store; created on first put.
        max_memory_entries: LRU capacity of the in-memory front.
        preload: Load an existing store into the raw index on construction.
            Pass False to append to a store without reading it first; puts
            still append.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        max_memory_entries: int = 65536,
        preload: bool = True,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.max_memory_entries = max(1, int(max_memory_entries))
        self.stats = OpCacheStats()
        self._memory: "OrderedDict[Tuple, OpCost]" = OrderedDict()
        # digest -> raw payload dict; mirrors the JSONL store.
        self._disk_index: Dict[str, dict] = {}
        if preload and self.path is not None and self.path.exists():
            self._load_disk_index()

    # -- persistence ---------------------------------------------------
    def _sweep_stale_tmp(self) -> None:
        """Remove a leftover ``.tmp`` from a compaction that crashed mid-write."""
        tmp_path = self.path.with_name(self.path.name + ".tmp")
        try:
            if tmp_path.exists():
                tmp_path.unlink()
                self.stats.stale_tmp_swept += 1
        except OSError:
            pass  # best effort; a stale tmp is inert

    def _load_disk_index(self) -> None:
        # Streamed line-by-line: a multi-GB store must never be buffered
        # whole (read_text doubles peak RSS) just to build its index.
        self._sweep_stale_tmp()
        with self.path.open("r") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    digest, cost = record["key"], record["cost"]
                    matrix = is_matrix_op(OpType(cost["op_type"]))
                except (KeyError, TypeError, ValueError):  # ValueError: bad JSON too
                    # Quarantine the torn line a killed run left behind:
                    # count it, keep loading, let compaction drop it.
                    self.stats.corrupt_records += 1
                    continue
                # Vector-op records (stores written while vector costs were
                # cached) are never looked up: skip them, so len() leaves
                # them out and compact() drops them.
                if matrix:
                    self._disk_index[digest] = cost
        self.stats.disk_entries_loaded = len(self._disk_index)

    @staticmethod
    def digest(key: Tuple) -> str:
        """Stable string form of a cache key (for the persistent store)."""
        canonical = json.dumps(key, sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode()).hexdigest()

    # -- lookup / store ------------------------------------------------
    def get(self, key: Tuple) -> Optional[OpCost]:
        """Look up a cached cost; returns None on a miss."""
        value = self._memory.get(key)
        if value is not None:
            self._memory.move_to_end(key)
            self.stats.hits += 1
            return value
        if self._disk_index:
            raw = self._disk_index.get(self.digest(key))
            if raw is not None:
                value = opcost_from_dict(raw)
                self._remember(key, value)
                self.stats.hits += 1
                self.stats.disk_hits += 1
                return value
        self.stats.misses += 1
        return None

    def put(self, key: Tuple, value: OpCost) -> None:
        """Store a cost in memory and (when configured) append it to disk.

        Cached values are a deterministic function of their key, so a key
        already present in the raw index is never re-appended — the store
        only grows by records this process has not seen, keeping it
        duplicate-free for a single writer (concurrent processes can still
        race the same key; :meth:`compact` folds such duplicates away).
        """
        self._remember(key, value)
        self.stats.puts += 1
        if self.path is None:
            return
        digest = self.digest(key)
        if digest in self._disk_index:
            return
        raw = opcost_to_dict(value)
        record = {"key": digest, "cost": raw}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # One write call per record: appends from concurrent processes can
        # never split a line.
        with self.path.open("a") as handle:
            handle.write(json.dumps(record) + "\n")
        self._disk_index[digest] = raw

    def compact(self) -> int:
        """Rewrite the store with one record per key; returns records kept.

        Records are deterministic per key, so compaction simply keeps the
        first occurrence of each key.  The rewrite is atomic (temp file +
        fsync + rename).  Run it only while no other process is appending to
        the store — appends racing the rename window would be lost.
        """
        if self.path is None:
            raise ValueError("compaction requires a cache path")
        self._disk_index = {}
        if self.path.exists():
            self._load_disk_index()
        tmp_path = self.path.with_name(self.path.name + ".tmp")
        with tmp_path.open("w") as handle:
            for digest, raw in self._disk_index.items():
                handle.write(json.dumps({"key": digest, "cost": raw}) + "\n")
            # Durable before the rename, so the promoted file can never
            # lose its data to a power failure after the replace.
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.path)
        return len(self._disk_index)

    def _remember(self, key: Tuple, value: OpCost) -> None:
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._memory) if not self._disk_index else len(
            {self.digest(k) for k in self._memory} | set(self._disk_index)
        )


# ---------------------------------------------------------------------------
# Region-level result cache.  One level above the op cache: the simulator
# memoizes whole fusion-region evaluations — (RegionPerformance, RegionStats)
# pairs — keyed by (graph fingerprint, region index, mapping-relevant
# datapath sub-config).  A warm trial whose region key matches skips even the
# gather step of the graph-batched mapper: no problem extraction, no op-cache
# lookups, no traffic sweep.  The cache stores opaque entries; the simulator
# owns the key construction and copies mutable payloads on every hit, so
# cached records are never aliased into live simulation results.
# ---------------------------------------------------------------------------
class RegionCostCache:
    """Private in-memory LRU of fully evaluated fusion regions.

    Args:
        max_entries: Capacity; least-recently-used regions are evicted once
            the cache grows past it.
    """

    def __init__(self, max_entries: int = 16384) -> None:
        self.max_entries = max(1, int(max_entries))
        self.stats = RegionCacheStats()
        self._memory: "OrderedDict[Tuple, tuple]" = OrderedDict()

    def get(self, key: Tuple) -> Optional[tuple]:
        """Look up a cached region entry; returns None on a miss."""
        value = self._memory.get(key)
        if value is None:
            self.stats.misses += 1
            return None
        self._memory.move_to_end(key)
        self.stats.hits += 1
        return value

    def put(self, key: Tuple, entry: tuple) -> None:
        """Store one evaluated region, evicting the LRU tail past capacity."""
        self._memory[key] = entry
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)
        self.stats.puts += 1

    def __len__(self) -> int:
        return len(self._memory)


# ---------------------------------------------------------------------------
# Process-local registries.  Op caches are keyed by store path (None =
# anonymous in-memory cache); the one region cache sits under the key None
# (the perfbench harness sizes caches through both dicts).  A PID change
# means this process was forked from a warm parent (or the registry is
# simply stale in tests): the *entries* are deterministic results and stay
# perfectly valid, so they are retained — this is what lets fork-started
# executor workers begin life with the parent's warm op and region caches —
# while the *statistics* are zeroed so workers never double-count lookups
# the parent already reported.
# ---------------------------------------------------------------------------
_CACHES: Dict[Optional[str], OpCostCache] = {}
_REGION_CACHES: Dict[None, RegionCostCache] = {}
_STATS_PID: Optional[int] = None


def _zero_inherited_stats() -> None:
    """Restart the counters of caches a fork inherited from its parent."""
    global _STATS_PID
    pid = os.getpid()
    if _STATS_PID != pid:
        for cache in _CACHES.values():
            cache.stats = OpCacheStats()
        for cache in _REGION_CACHES.values():
            cache.stats = RegionCacheStats()
        _STATS_PID = pid


def get_op_cache(path: Optional[Union[str, Path]] = None) -> OpCostCache:
    """The process-local shared op-cost cache for a store path.

    Every caller passing the same ``path`` (or ``None``) within one process
    receives the same instance, which is what makes op costs flow between
    trials, shards, and sequential searches.  After a fork the inherited
    entries are kept (warm workers) but the counters restart at zero.
    """
    _zero_inherited_stats()
    key = str(Path(path)) if path is not None else None
    cache = _CACHES.get(key)
    if cache is None:
        cache = OpCostCache(path=path)
        _CACHES[key] = cache
    return cache


def get_region_cache() -> RegionCostCache:
    """The process-local region-cost cache.

    Shared by every simulator in the process (the key carries the full
    mapping-relevant context, so unrelated graphs or configs never collide).
    After a fork the inherited entries are kept but the counters restart at
    zero, mirroring :func:`get_op_cache`.
    """
    _zero_inherited_stats()
    cache = _REGION_CACHES.get(None)
    if cache is None:
        cache = _REGION_CACHES[None] = RegionCostCache()
    return cache


def reset_region_caches() -> None:
    """Drop the process-local region cache (for tests and benchmarks)."""
    _REGION_CACHES.clear()


def reset_op_caches() -> None:
    """Drop every process-local op *and* region cache (tests, benchmarks)."""
    _CACHES.clear()
    reset_region_caches()


def _cache_counts() -> Dict[str, int]:
    """Lookup counters of every cache in this process, keyed like ``RuntimeStats``."""
    _zero_inherited_stats()
    # list() copies each registry in one step, safe against a service
    # thread registering a cache mid-snapshot.
    op_stats = [cache.stats for cache in list(_CACHES.values())]
    region_stats = [cache.stats for cache in list(_REGION_CACHES.values())]
    return {
        "op_cache_hits": sum(stats.hits for stats in op_stats),
        "op_cache_misses": sum(stats.misses for stats in op_stats),
        "op_cache_disk_hits": sum(stats.disk_hits for stats in op_stats),
        "region_cache_hits": sum(stats.hits for stats in region_stats),
        "region_cache_misses": sum(stats.misses for stats in region_stats),
    }


get_counters().sources.append(_cache_counts)
