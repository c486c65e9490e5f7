"""Tracing and metrics telemetry for the search runtime.

This module is the observability substrate every other runtime layer reports
through: a dependency-free span tracer, the process-wide counter store, and
a Prometheus text renderer.  It deliberately imports nothing from the rest
of the package (and nothing beyond the stdlib), so any module — the
simulator's inner loop, the executor workers, the HTTP service — can
instrument itself without creating import cycles.

Tracing
-------
A :class:`Tracer` records :class:`SpanRecord` entries — named, monotonic-
timed intervals with attributes, parent links, and process/thread ids — into
a bounded in-memory ring buffer:

* ``with tracer.span("simulate", workload=name) as sp`` opens a span; spans
  opened inside it (same thread/async context, via :mod:`contextvars`)
  become its children automatically.
* The **global tracer is disabled by default** and ``span()`` then returns a
  shared no-op handle, so instrumented hot paths cost one attribute check
  when tracing is off — search histories are bit-for-bit identical either
  way because the tracer never touches any search RNG (it keeps a private
  ``random.Random`` used only for sampling decisions).
* ``sample_rate`` bounds overhead: the sampling decision is made once per
  *root* span from the tracer's seeded private RNG (children always follow
  their root), so a given seed reproduces the identical kept/dropped
  sequence.
* Spans cross process boundaries as plain dicts: executor workers ``drain()``
  their buffer after each task and the parent ``ingest()`` merges them
  (idempotently — re-ingesting a span id is a no-op, so hedged or retried
  deliveries can never duplicate a span).
* ``context_header()`` / ``parent_header=`` propagate a ``trace_id:span_id``
  pair over the wire (the ``X-Repro-Trace-Context`` HTTP header), letting a
  service parent its server-side spans under the client's request span.

Trace sinks: the ring buffer itself (``drain()``/``snapshot()``), a
streaming :class:`JsonlSpanSink`, and :func:`write_chrome_trace`, whose
output loads directly into ``about://tracing`` / Perfetto.
:func:`load_trace` reads both file forms back into records.

Metrics
-------
:func:`render_exposition` turns :class:`MetricFamily` values — name, kind,
help, label names and label-tuple → value samples, plus non-cumulative
bucket counts, sum and count for a histogram — into the Prometheus text
exposition format.  It holds no state: ``repro serve`` builds the families
of ``GET /metrics`` from counter-store snapshots at scrape time (see
:mod:`repro.runtime.service`).

Counters
--------
:class:`CounterStore` is the one process-wide store of run counts and stage
seconds that :class:`~repro.core.fast.RuntimeStats` and the service's
``/metrics`` are built from.  Values live in a nested dict keyed like
``RuntimeStats`` fields (per-endpoint counts under ``endpoint_stats`` →
URL), and three operations cover every report:

* ``add(key, amount)`` accumulates: each timed stage site (``batch_map``,
  ``fusion``, the vector ops of each region that has any, and
  ``evaluate``) adds its seconds once per call, the remote executor adds
  its request / retry / hedge / failure / fallback and per-endpoint counts,
  the process pool its restarts.
* ``snapshot()`` then ``delta(before)`` read what happened over a run.  A
  snapshot also folds in the registered ``sources`` — the op and region
  cost caches report their hit / miss / disk-hit counters that way, so the
  lookup hot path never touches the store.
* ``merge(delta)`` folds a delta from another process in: each pool task
  ships ``delta(snapshot)`` home, and sweeps merge shard statistics the
  same way.

Two values are last-value facts rather than counts: the ``engine`` echo
and each endpoint's ``blacklisted`` flag.  A delta carries their current
value and a merge keeps the latest non-empty ``engine`` and the larger
``blacklisted``.  Counts that did not move are left out of a delta, and so
are endpoints none of whose counts moved.

An :class:`~repro.runtime.service.EvaluationService` keeps a private store
of its own request counts beside this process-wide one.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

__all__ = [
    "TRACE_CONTEXT_HEADER",
    "SpanRecord",
    "Span",
    "NULL_SPAN",
    "Tracer",
    "JsonlSpanSink",
    "chrome_trace_events",
    "write_chrome_trace",
    "write_jsonl_trace",
    "load_trace",
    "get_tracer",
    "set_tracer",
    "configure_tracer",
    "telemetry_config",
    "apply_telemetry_config",
    "MetricFamily",
    "render_exposition",
    "CounterStore",
    "get_counters",
    "merge_counts",
]

#: HTTP header carrying ``trace_id:span_id`` from a client request span to
#: the service, so server-side spans link into the client's trace.
TRACE_CONTEXT_HEADER = "X-Repro-Trace-Context"


# ---------------------------------------------------------------------------
# Span records
# ---------------------------------------------------------------------------
@dataclass
class SpanRecord:
    """One finished span: a named, timed interval with attributes.

    ``start_unix`` is wall-clock (``time.time``) so spans from different
    processes and hosts land on one shared timeline; ``duration`` is measured
    with ``time.perf_counter`` so the interval itself is monotonic and
    immune to clock steps.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    start_unix: float
    duration: float
    category: str = "app"
    pid: int = 0
    tid: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible wire form (worker deltas, service responses)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix": self.start_unix,
            "duration": self.duration,
            "category": self.category,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SpanRecord":
        """Rebuild a record from :meth:`to_dict` output (extras ignored)."""
        return cls(
            name=str(data["name"]),
            trace_id=str(data.get("trace_id") or ""),
            span_id=str(data.get("span_id") or ""),
            parent_id=(
                str(data["parent_id"]) if data.get("parent_id") is not None else None
            ),
            start_unix=float(data.get("start_unix", 0.0)),
            duration=float(data.get("duration", 0.0)),
            category=str(data.get("category", "app")),
            pid=int(data.get("pid", 0)),
            tid=int(data.get("tid", 0)),
            attrs=dict(data.get("attrs") or {}),
        )


class Span:
    """Live handle of an in-flight span; also a context manager.

    Entering sets the span as the current context parent (new spans opened
    in the same thread/async context nest under it); exiting restores the
    previous parent and records the span.  ``sampled=False`` spans go
    through all the motions except the final record, so an unsampled root
    silently drops its whole subtree.
    """

    __slots__ = ("_tracer", "record", "sampled", "_t0", "_token", "finished")

    def __init__(self, tracer: "Tracer", record: SpanRecord, sampled: bool) -> None:
        self._tracer = tracer
        self.record = record
        self.sampled = sampled
        self._t0 = time.perf_counter()
        self._token: Optional[contextvars.Token] = None
        self.finished = False

    def set_attr(self, key: str, value: object) -> "Span":
        """Attach one attribute; returns self for chaining."""
        self.record.attrs[key] = value
        return self

    def __enter__(self) -> "Span":
        self._token = self._tracer._current.set(self)
        return self

    def __exit__(self, *exc_info) -> None:
        if self._token is not None:
            self._tracer._current.reset(self._token)
            self._token = None
        self._tracer.finish(self)


class _NullSpan:
    """Shared no-op span handle returned while tracing is disabled."""

    __slots__ = ()
    record = None
    sampled = False
    finished = True

    def set_attr(self, key: str, value: object) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


NULL_SPAN = _NullSpan()

SpanHandle = Union[Span, _NullSpan]


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------
class Tracer:
    """Thread-safe span tracer with a bounded ring buffer.

    Args:
        enabled: Record spans at all (off by default; ``span()`` is then a
            near-free no-op).
        sample_rate: Probability a *root* span (and hence its subtree) is
            kept.  Decisions come from a private ``random.Random(seed)``,
            so they are deterministic per seed and never perturb search RNG
            state.
        seed: Seed of the sampling RNG.
        capacity: Ring-buffer size; the oldest spans are evicted first
            (``dropped`` counts evictions) so tracing memory stays bounded
            on arbitrarily long runs.
        trace_id: Trace identity shared by every root span this tracer
            records; defaults to a fresh random id.  Executor workers adopt
            the parent's trace id through :func:`apply_telemetry_config`.
    """

    def __init__(
        self,
        enabled: bool = False,
        sample_rate: float = 1.0,
        seed: int = 0,
        capacity: int = 65536,
        trace_id: Optional[str] = None,
    ) -> None:
        self.enabled = bool(enabled)
        self.sample_rate = min(1.0, max(0.0, float(sample_rate)))
        self.seed = int(seed)
        self.capacity = max(1, int(capacity))
        # Private RNG: used ONLY for sampling decisions, so tracing can
        # never perturb the search trajectory.
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()
        self._buffer: deque = deque(maxlen=self.capacity)
        self._current: contextvars.ContextVar[Optional[Span]] = contextvars.ContextVar(
            "repro_current_span", default=None
        )
        # Span ids are unique across processes: pid + per-tracer random salt
        # + a monotonic counter.  (A forked child that keeps the parent's
        # tracer still differs by pid; re-initialized workers get a fresh
        # salt through apply_telemetry_config.)
        self._salt = os.urandom(4).hex()
        self._pid = os.getpid()
        self._id_prefix = f"{self._pid:x}-{self._salt}-"
        self._ids = itertools.count(1)
        self.trace_id = trace_id or self._new_id()
        self._seen: set = set()
        self._seen_order: deque = deque()
        self.total_recorded = 0
        self.dropped = 0
        self.sinks: List = []

    # ------------------------------------------------------------------
    def _new_id(self) -> str:
        # itertools.count is atomic under the GIL, so the id hot path needs
        # no lock.
        return f"{self._id_prefix}{next(self._ids):x}"

    def current_span(self) -> Optional[Span]:
        """The innermost open span of this context, or None."""
        return self._current.get()

    def context_header(self) -> Optional[str]:
        """``trace_id:span_id`` of the current span, for wire propagation."""
        span = self._current.get()
        if span is None or span.record is None:
            return None
        return f"{span.record.trace_id}:{span.record.span_id}"

    # ------------------------------------------------------------------
    def span(self, name: str, category: str = "app", **attrs: object) -> SpanHandle:
        """Open a span as a context manager (the common instrumentation API).

        Returns :data:`NULL_SPAN` when tracing is disabled, so call sites
        never need their own enabled check.
        """
        if not self.enabled:
            return NULL_SPAN
        return self.start(name, category, None, None, attrs)

    def start(
        self,
        name: str,
        category: str = "app",
        parent: Optional[SpanHandle] = None,
        parent_header: Optional[str] = None,
        attrs: Optional[Dict[str, object]] = None,
    ) -> SpanHandle:
        """Open a span with explicit parentage (handler / non-``with`` use).

        Parent resolution order: an explicit ``parent`` span, a wire
        ``parent_header`` (``trace_id:span_id``), then the current context
        span.  The caller must :meth:`finish` the span (or use it as a
        context manager).
        """
        if not self.enabled:
            return NULL_SPAN
        trace_id = self.trace_id
        parent_id: Optional[str] = None
        sampled: Optional[bool] = None
        if parent is None and parent_header is None:
            parent = self._current.get()
        if isinstance(parent, Span):
            parent_id = parent.record.span_id
            trace_id = parent.record.trace_id
            sampled = parent.sampled
        elif parent_header:
            pieces = str(parent_header).split(":", 1)
            if len(pieces) == 2 and pieces[0] and pieces[1]:
                trace_id, parent_id = pieces[0], pieces[1]
                sampled = True  # the remote side already made the decision
        if sampled is None:  # root span: one deterministic sampling decision
            if self.sample_rate >= 1.0:
                sampled = True
            else:
                with self._lock:
                    sampled = self._rng.random() < self.sample_rate
        # Positional construction: keyword passing costs ~2x as much per
        # record, and this runs once per span.  The span takes ownership of
        # `attrs` (every caller passes a fresh dict), skipping a copy.
        record = SpanRecord(
            name,
            trace_id,
            self._new_id(),
            parent_id,
            time.time(),
            0.0,
            category,
            self._pid,
            threading.get_ident() & 0xFFFFFFFF,
            attrs if attrs is not None else {},
        )
        return Span(self, record, sampled)

    def finish(self, span: SpanHandle) -> None:
        """Close a span: stamp its duration and record it (if sampled)."""
        if span.finished:  # also covers NULL_SPAN, whose finished is True
            return
        span.finished = True
        span.record.duration = time.perf_counter() - span._t0
        if not span.sampled:
            return
        self._append(span.record)
        for sink in self.sinks:
            try:
                sink(span.record)
            except Exception:
                pass  # a broken sink must never break the traced code

    def record_span(
        self,
        name: str,
        start_unix: float,
        duration: float,
        category: str = "app",
        parent_id: Optional[str] = None,
        **attrs: object,
    ) -> Optional[SpanRecord]:
        """Record an already-measured interval as a span (no context games).

        Used to synthesize run-level spans from existing timings (e.g. the
        ``search`` root span from the loop's elapsed time) without wrapping
        large code blocks.
        """
        if not self.enabled:
            return None
        record = SpanRecord(
            name=name,
            trace_id=self.trace_id,
            span_id=self._new_id(),
            parent_id=parent_id,
            start_unix=float(start_unix),
            duration=max(0.0, float(duration)),
            category=category,
            pid=self._pid,
            tid=threading.get_ident() & 0xFFFFFFFF,
            attrs=dict(attrs),
        )
        self._append(record)
        return record

    # ------------------------------------------------------------------
    def _append(self, record: SpanRecord) -> None:
        with self._lock:
            if len(self._buffer) == self._buffer.maxlen:
                self.dropped += 1
            self._buffer.append(record)
            self.total_recorded += 1

    def ingest(self, records: Iterable[Union[SpanRecord, Dict[str, object]]]) -> int:
        """Merge foreign spans (worker deltas, service responses); dedup.

        Spans are identified by ``(trace_id, span_id)``; re-ingesting an id
        already seen is a no-op, so hedged requests, retries, and repeated
        deliveries can never make a span appear twice.  Returns the number
        of spans actually added.
        """
        added = 0
        for raw in records or ():
            record = raw if isinstance(raw, SpanRecord) else SpanRecord.from_dict(raw)
            key = (record.trace_id, record.span_id)
            with self._lock:
                if key in self._seen:
                    continue
                self._seen.add(key)
                self._seen_order.append(key)
                while len(self._seen_order) > 4 * self.capacity:
                    self._seen.discard(self._seen_order.popleft())
                if len(self._buffer) == self._buffer.maxlen:
                    self.dropped += 1
                self._buffer.append(record)
                self.total_recorded += 1
                added += 1
        return added

    def drain(self) -> List[SpanRecord]:
        """Return all buffered spans and clear the buffer."""
        with self._lock:
            records = list(self._buffer)
            self._buffer.clear()
        return records

    def snapshot(self) -> List[SpanRecord]:
        """All buffered spans without clearing (tests, live inspection)."""
        with self._lock:
            return list(self._buffer)

    def clear(self) -> None:
        """Drop all buffered spans and dedup state."""
        with self._lock:
            self._buffer.clear()
            self._seen.clear()
            self._seen_order.clear()

    # ------------------------------------------------------------------
    def config(self) -> Dict[str, object]:
        """Serializable configuration (shipped to executor workers)."""
        return {
            "enabled": self.enabled,
            "sample_rate": self.sample_rate,
            "seed": self.seed,
            "capacity": self.capacity,
            "trace_id": self.trace_id,
        }


# ---------------------------------------------------------------------------
# Trace sinks / exporters
# ---------------------------------------------------------------------------
class JsonlSpanSink:
    """Streaming sink appending each finished span as one JSON line.

    Attach with ``tracer.sinks.append(sink)``; call :meth:`close` (or use as
    a context manager) to flush.  The resulting file is what
    :func:`load_trace` reads back.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._handle = open(self.path, "a")
        self._lock = threading.Lock()
        self.written = 0

    def __call__(self, record: SpanRecord) -> None:
        with self._lock:
            self._handle.write(json.dumps(record.to_dict()) + "\n")
            self.written += 1

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.flush()
                self._handle.close()

    def __enter__(self) -> "JsonlSpanSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def chrome_trace_events(records: Sequence[SpanRecord]) -> List[Dict[str, object]]:
    """Convert spans to Chrome ``trace_event`` dicts (complete ``X`` events).

    Timestamps are microseconds relative to the earliest span, so the trace
    opens at t=0 in ``about://tracing`` / Perfetto.  Span identity and
    attributes ride in ``args`` so :func:`load_trace` can reconstruct the
    hierarchy from the exported file.
    """
    events: List[Dict[str, object]] = []
    if not records:
        return events
    base = min(r.start_unix for r in records)
    for pid in sorted({r.pid for r in records}):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"repro pid {pid}"},
            }
        )
    for r in records:
        events.append(
            {
                "name": r.name,
                "cat": r.category,
                "ph": "X",
                "ts": round((r.start_unix - base) * 1e6, 3),
                "dur": round(r.duration * 1e6, 3),
                "pid": r.pid,
                "tid": r.tid,
                "args": {
                    "trace_id": r.trace_id,
                    "span_id": r.span_id,
                    "parent_id": r.parent_id,
                    **r.attrs,
                },
            }
        )
    return events


def write_chrome_trace(records: Sequence[SpanRecord], path: str) -> int:
    """Write spans as a Chrome-trace JSON file; returns the span count."""
    payload = {
        "traceEvents": chrome_trace_events(records),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro telemetry"},
    }
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return len(records)


def write_jsonl_trace(records: Sequence[SpanRecord], path: str) -> int:
    """Write spans as JSON lines (one span per line); returns the count."""
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record.to_dict()) + "\n")
    return len(records)


def load_trace(path: str) -> List[SpanRecord]:
    """Read spans back from a JSONL or Chrome-trace file (``repro trace``)."""
    with open(path) as handle:
        text = handle.read()
    stripped = text.lstrip()
    if not stripped:
        return []
    # Chrome-trace files are one JSON document; JSONL lines each start with
    # "{" too, so distinguish by whether the whole file parses as one value.
    payload = None
    if stripped.startswith(("{", "[")):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            payload = None
    if isinstance(payload, dict) and "traceEvents" not in payload:
        payload = None  # a single-line JSONL file: treat as JSONL below
    if payload is not None:
        events = payload.get("traceEvents", []) if isinstance(payload, dict) else payload
        records = []
        for event in events:
            if event.get("ph") != "X":
                continue
            args = dict(event.get("args") or {})
            records.append(
                SpanRecord(
                    name=str(event.get("name", "")),
                    trace_id=str(args.pop("trace_id", "") or ""),
                    span_id=str(args.pop("span_id", "") or ""),
                    parent_id=args.pop("parent_id", None),
                    start_unix=float(event.get("ts", 0.0)) / 1e6,
                    duration=float(event.get("dur", 0.0)) / 1e6,
                    category=str(event.get("cat", "app")),
                    pid=int(event.get("pid", 0)),
                    tid=int(event.get("tid", 0)),
                    attrs=args,
                )
            )
        return records
    return [
        SpanRecord.from_dict(json.loads(line))
        for line in text.splitlines()
        if line.strip()
    ]


# ---------------------------------------------------------------------------
# Global tracer
# ---------------------------------------------------------------------------
_GLOBAL_TRACER = Tracer(enabled=False)
_GLOBAL_LOCK = threading.Lock()


def get_tracer() -> Tracer:
    """The process-global tracer (disabled until :func:`configure_tracer`)."""
    return _GLOBAL_TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Install a tracer as the process-global one; returns it."""
    global _GLOBAL_TRACER
    with _GLOBAL_LOCK:
        _GLOBAL_TRACER = tracer
    return tracer


def configure_tracer(
    enabled: bool = True,
    sample_rate: float = 1.0,
    seed: int = 0,
    capacity: int = 65536,
    trace_id: Optional[str] = None,
) -> Tracer:
    """Replace the global tracer with a freshly configured one."""
    return set_tracer(
        Tracer(
            enabled=enabled,
            sample_rate=sample_rate,
            seed=seed,
            capacity=capacity,
            trace_id=trace_id,
        )
    )


def telemetry_config() -> Optional[Dict[str, object]]:
    """The global tracer's config, or None when tracing is off.

    This is what executor pools ship to worker initializers: ``None`` keeps
    workers untraced, a dict makes them trace into the same trace id.
    """
    tracer = get_tracer()
    return tracer.config() if tracer.enabled else None


def apply_telemetry_config(config: Optional[Dict[str, object]]) -> Tracer:
    """Install a fresh global tracer from a :func:`telemetry_config` dict.

    Always replaces the tracer (disabled when ``config`` is falsy), so a
    fork-inherited parent buffer can never leak parent spans out of a
    worker — worker spans appear exactly once, via the per-task drain.
    """
    if not config:
        return set_tracer(Tracer(enabled=False))
    return set_tracer(
        Tracer(
            enabled=bool(config.get("enabled", True)),
            sample_rate=float(config.get("sample_rate", 1.0)),
            seed=int(config.get("seed", 0)),
            capacity=int(config.get("capacity", 65536)),
            trace_id=str(config.get("trace_id")) if config.get("trace_id") else None,
        )
    )


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def _format_value(value: float) -> str:
    """Prometheus sample value: integers bare, floats via repr."""
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


#: Latency-oriented default buckets, in seconds.
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


class MetricFamily(NamedTuple):
    """One metric family for :func:`render_exposition`.

    ``samples`` maps a tuple of label values (in ``labelnames`` order) to
    the sample value.  A ``histogram`` sample is ``(bucket_counts, sum,
    count)``: ``bucket_counts`` maps a bucket index to the observations in
    that bucket alone (index ``len(buckets)`` lies above every edge).
    """

    name: str
    kind: str
    help: str
    labelnames: Tuple[str, ...]
    samples: Mapping[Tuple[str, ...], object]
    buckets: Tuple[float, ...] = DEFAULT_BUCKETS


def _label_suffix(pairs: List[str]) -> str:
    return "{" + ",".join(pairs) + "}" if pairs else ""


def render_exposition(families: Iterable[MetricFamily]) -> str:
    """Prometheus text exposition of ``families``, sorted by name."""
    lines: List[str] = []
    for family in sorted(families, key=lambda f: f.name):
        name = family.name
        if family.help:
            lines.append(f"# HELP {name} {family.help}")
        lines.append(f"# TYPE {name} {family.kind}")
        for key, value in sorted(family.samples.items()):
            pairs = [
                f'{label}="{_escape_label(str(part))}"'
                for label, part in zip(family.labelnames, key)
            ]
            if family.kind != "histogram":
                lines.append(f"{name}{_label_suffix(pairs)} {_format_value(value)}")
                continue
            bucket_counts, total, count = value
            cumulative = 0
            for index, edge in enumerate(family.buckets):
                cumulative += bucket_counts.get(index, 0)
                edge_pair = f'le="{_format_value(edge)}"'
                lines.append(
                    f"{name}_bucket{_label_suffix(pairs + [edge_pair])} {cumulative}"
                )
            inf_suffix = _label_suffix(pairs + ['le="+Inf"'])
            lines.append(f"{name}_bucket{inf_suffix} {_format_value(count)}")
            lines.append(f"{name}_sum{_label_suffix(pairs)} {_format_value(total)}")
            lines.append(f"{name}_count{_label_suffix(pairs)} {_format_value(count)}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------
Counts = Dict[str, object]


def _is_fact(key: str, value: object) -> bool:
    """Last-value facts: the ``engine`` echo and the ``blacklisted`` flags."""
    return key == "blacklisted" or isinstance(value, str)


def merge_counts(into: Counts, delta: Counts) -> Counts:
    """Fold ``delta`` into ``into`` and return it.

    Counts sum and nested maps merge key by key; ``engine`` keeps the latest
    non-empty value and ``blacklisted`` the larger one.
    """
    for key, value in delta.items():
        if isinstance(value, dict):
            merge_counts(into.setdefault(key, {}), value)
        elif isinstance(value, str):
            into[key] = value or into.get(key, "")
        elif key == "blacklisted":
            into[key] = max(into.get(key, 0.0), value)
        else:
            into[key] = into.get(key, 0) + value
    return into


def _count_delta(now: Counts, before: Counts) -> Counts:
    delta: Counts = {}
    for key, value in now.items():
        if isinstance(value, dict):
            inner = _count_delta(value, before.get(key) or {})
            if any(not _is_fact(k, v) for k, v in inner.items()):
                delta[key] = inner
        elif _is_fact(key, value):
            delta[key] = value
        elif value != before.get(key, 0):
            delta[key] = value - before.get(key, 0)
    return delta


class CounterStore:
    """Process-wide run counts and stage seconds (see *Counters* above).

    ``sources`` holds callables returning counts kept elsewhere; every
    snapshot adds them in.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: Counts = {}
        self.sources: List[Callable[[], Counts]] = []

    def _table(self, within: Tuple[str, ...]) -> Counts:
        table = self._values
        for part in within:
            table = table.setdefault(part, {})
        return table

    def add(self, key: str, amount: float = 1, within: Tuple[str, ...] = ()) -> None:
        """Accumulate ``amount`` under ``key``, inside the nested ``within`` maps."""
        with self._lock:
            table = self._table(within)
            table[key] = table.get(key, 0) + amount

    def set(self, key: str, value: object, within: Tuple[str, ...] = ()) -> None:
        """Record a last-value fact (``engine``, ``blacklisted``)."""
        with self._lock:
            self._table(within)[key] = value

    def snapshot(self) -> Counts:
        """Deep copy of every value, sources included."""
        with self._lock:
            snap = merge_counts({}, self._values)
        for source in self.sources:
            merge_counts(snap, source())
        return snap

    def delta(self, before: Counts) -> Counts:
        """What moved since ``before``, an earlier :meth:`snapshot`."""
        return _count_delta(self.snapshot(), before)

    def merge(self, delta: Counts) -> None:
        """Fold in a delta from another process (see :func:`merge_counts`)."""
        with self._lock:
            merge_counts(self._values, delta)


_GLOBAL_COUNTERS = CounterStore()


def get_counters() -> CounterStore:
    """The process-wide counter store."""
    return _GLOBAL_COUNTERS
