"""Stdlib-only HTTP simulator evaluation service (``repro serve``).

The service turns one host into a remote trial evaluator: it accepts batches
of search-space parameter assignments plus a *problem fingerprint* over HTTP
and returns the evaluated :class:`~repro.core.trial.TrialMetrics`, letting
:class:`~repro.runtime.remote.AsyncRemoteExecutor` fan a search's batches out
to a fleet of such services instead of local worker processes.

Wire protocol (all bodies are JSON):

* ``POST /evaluate`` — request ``{"fingerprint", "problem", "options",
  "params": [...]}`` where ``problem`` / ``options`` are the
  :func:`~repro.reporting.serialization.search_problem_to_dict` /
  :func:`~repro.reporting.serialization.simulation_options_to_dict` forms and
  ``params`` is a list of jsonable parameter assignments.  The service
  rebuilds the evaluator, recomputes the fingerprint from what it rebuilt,
  and refuses (HTTP 409) on a mismatch — so a client can never silently mix
  histories from services running a different problem, space, or simulator
  configuration.  Response: ``{"fingerprint", "results": [metrics...]}`` in
  request order.
* ``GET /scoreboard`` / ``POST /scoreboard`` — the service-backed
  cross-shard best-score exchange (see :mod:`repro.runtime.exchange`):
  shards POST ``{"shard_id", "objective", "score", "params", "trials"}``
  records and GET the per-shard best map back.
* ``GET /health`` — liveness plus request/trial counters, uptime, and
  per-route request counts.
* ``GET /metrics`` — Prometheus text exposition, ready for scraping.  It
  is rendered at scrape time from two counter stores (see
  :mod:`repro.runtime.telemetry`): the service's own request, batch, trial,
  error and fingerprint-rejection counts plus per-route latency buckets,
  and the process store's cost-cache lookups (pool workers included) and
  worker-pool restarts.

Any other route answers HTTP 404.  Cost caches are process-local to the
service (see :mod:`repro.runtime.opcache`); ``repro serve --op-cache PATH``
keeps a warm persistent op store across requests and clients.

Every request is wrapped in a ``serve_request`` telemetry span; when the
client sends an ``X-Repro-Trace-Context`` header (the remote executor does,
whenever its own tracing is on), the span is parented to the client's
request span and returned in the ``/evaluate`` response body, so one trace
shows the request on both sides of the wire.  Access logs are routed
through the ``repro.runtime.service`` logger at DEBUG instead of being
swallowed (``repro serve --verbose`` turns them on).

Evaluation is deterministic, so any mix of services and local executors
produces bit-for-bit identical metrics for the same parameters; ordering is
the *client's* responsibility (the remote executor reassembles responses in
proposal order).

The server is intentionally stdlib-only (:mod:`http.server`): it needs no
dependencies beyond what the library already uses, and a
:class:`ThreadingHTTPServer` is enough because trial evaluation — the actual
work — runs under an internal executor guarded by a lock (``--workers N``
parallelizes *within* a batch via the process-pool executor).
"""

from __future__ import annotations

import bisect
import json
import logging
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from repro.core.trial import TrialEvaluator
from repro.hardware.search_space import DatapathSearchSpace
from repro.reporting.serialization import (
    params_from_jsonable,
    search_problem_from_dict,
    simulation_options_from_dict,
    trial_metrics_to_dict,
)
from repro.runtime.cache import problem_fingerprint
from repro.runtime.exchange import ScoreRecord
from repro.runtime.executor import TrialExecutor, make_executor
from repro.runtime.telemetry import (
    DEFAULT_BUCKETS,
    TRACE_CONTEXT_HEADER,
    CounterStore,
    MetricFamily,
    Tracer,
    get_counters,
    render_exposition,
)

__all__ = ["EvaluationService", "serve"]

# Access logs and handler diagnostics.  DEBUG by default so tests and smoke
# runs stay quiet; ``repro serve --verbose`` raises the level to show them.
logger = logging.getLogger("repro.runtime.service")


def space_from_payload(payload: object) -> DatapathSearchSpace:
    """Rebuild a client's search space from its ``space`` wire form.

    The wire form is ``[[name, [value, ...]], ...]`` — the same shape the
    problem fingerprint hashes.  Starting from the default (full Table 3)
    space, each listed axis keeps only the named choices, matched by raw
    value (enums by their ``.value``).  This covers every space a sharded
    sweep produces (restrictions of the default space); a choice or axis the
    default space does not know raises ``ValueError``.
    """
    import copy
    import dataclasses as _dc

    space = DatapathSearchSpace()
    if payload is None:
        return space
    spec_by_name = {spec.name: spec for spec in space.specs}
    restricted = {}
    for name, values in payload:
        spec = spec_by_name.get(name)
        if spec is None:
            raise ValueError(f"unknown search-space axis {name!r}")
        by_raw = {getattr(choice, "value", choice): choice for choice in spec.choices}
        try:
            choices = tuple(by_raw[value] for value in values)
        except KeyError as error:
            raise ValueError(
                f"axis {name!r} has no choice {error.args[0]!r} in the default space"
            ) from None
        restricted[name] = choices
    rebuilt = copy.copy(space)
    rebuilt._specs = [
        _dc.replace(spec, choices=list(restricted[spec.name]))
        if spec.name in restricted
        else spec
        for spec in space.specs
    ]
    return rebuilt


class EvaluationService:
    """In-process evaluation service: HTTP front over the executor layer.

    Args:
        host: Bind address (default loopback).
        port: TCP port; 0 picks a free port (see :attr:`address`).
        workers: Worker processes for each batch (1 = serial, in-server).
        simulation_overrides: Optional dict merged over every request's
            simulation options (e.g. ``{"op_cache_path": ...}`` from
            ``repro serve --op-cache`` so the service keeps a warm persistent
            op-cost cache across requests and clients).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        simulation_overrides: Optional[Dict[str, object]] = None,
    ) -> None:
        self.workers = max(1, int(workers))
        self.simulation_overrides = dict(simulation_overrides or {})
        if self.simulation_overrides.get("op_cache_path"):
            # Same warm-up the process-pool workers get: load the persistent
            # op store up front so even the first request runs warm.
            from repro.runtime.opcache import get_op_cache

            get_op_cache(self.simulation_overrides["op_cache_path"])
        self.started_at = time.time()
        # Per-service counter store and tracer (not the process globals):
        # tests run several services in one process and each should report
        # only its own traffic.  Counts: ``requests``, ``batches``,
        # ``trials_evaluated``, ``errors``, ``fingerprint_rejections``, and
        # per request ``by_route`` → route → method → status and
        # ``latency`` → route → ``sum`` / ``count`` / ``buckets`` → index.
        self.counters = CounterStore()
        self.tracer = Tracer(enabled=True, capacity=8192)
        self._evaluators: Dict[str, Tuple[TrialEvaluator, DatapathSearchSpace]] = {}
        self._executor: Optional[TrialExecutor] = None
        self._eval_lock = threading.Lock()
        self._scores: Dict[int, ScoreRecord] = {}
        self._scores_lock = threading.Lock()
        # ``fault_injector(request_index, path) -> action`` hook consulted
        # before any request is processed; tests use it to drop, delay, or
        # fail requests (see tests/test_remote_executor.py).  ``None`` or an
        # ``("ok",)`` action means normal handling.
        self.fault_injector = None
        self._request_counter = 0
        self._request_counter_lock = threading.Lock()
        self._server = ThreadingHTTPServer((host, port), _make_handler(self))
        self._server.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """Actual (host, port) the server is bound to."""
        return self._server.server_address[:2]

    @property
    def url(self) -> str:
        """Base URL clients should use as an ``--endpoints`` entry."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "EvaluationService":
        """Serve requests on a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve requests on the calling thread until interrupted."""
        self._server.serve_forever()

    def close(self) -> None:
        """Stop serving and release the executor."""
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        if self._executor is not None:
            self._executor.close()
            self._executor = None

    def __enter__(self) -> "EvaluationService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def next_request_index(self) -> int:
        """Monotonic request counter (drives the fault injector)."""
        with self._request_counter_lock:
            index = self._request_counter
            self._request_counter += 1
            return index

    def _evaluator_for(
        self, payload: dict
    ) -> Tuple[str, TrialEvaluator, DatapathSearchSpace]:
        """(Re)build the evaluator + space a request describes, by fingerprint."""
        problem = search_problem_from_dict(payload["problem"])
        options_payload = dict(payload.get("options") or {})
        num_cores = int(options_payload.pop("num_cores", 1))
        sim_payload = dict(options_payload.get("simulation_options") or {})
        sim_payload.update(self.simulation_overrides)
        space = space_from_payload(payload.get("space"))
        evaluator = TrialEvaluator(
            problem,
            simulation_options=simulation_options_from_dict(sim_payload),
            num_cores=num_cores,
        )
        fingerprint = problem_fingerprint(problem, evaluator, space)
        cached = self._evaluators.get(fingerprint)
        if cached is not None:
            return (fingerprint,) + cached
        # First sighting of this problem: reuse the worker warm-up (graphs,
        # compiled regions, op/region caches) so later batches start warm.
        evaluator.warm_caches()
        self._evaluators[fingerprint] = (evaluator, space)
        return fingerprint, evaluator, space

    def evaluate_payload(self, payload: dict) -> Tuple[int, dict]:
        """Handle one ``/evaluate`` request body; returns (status, response)."""
        try:
            fingerprint, evaluator, space = self._evaluator_for(payload)
        except (KeyError, TypeError, ValueError) as error:
            self.counters.add("errors")
            return 400, {"error": f"malformed evaluate request: {error}"}
        claimed = payload.get("fingerprint")
        if claimed is not None and claimed != fingerprint:
            self.counters.add("fingerprint_rejections")
            return 409, {
                "error": "problem fingerprint mismatch",
                "client_fingerprint": claimed,
                "service_fingerprint": fingerprint,
            }
        try:
            batch = [
                params_from_jsonable(raw, space) for raw in payload.get("params", [])
            ]
        except (KeyError, TypeError, ValueError) as error:
            self.counters.add("errors")
            return 400, {"error": f"malformed params: {error}"}
        with self._eval_lock:
            if self._executor is None:
                self._executor = make_executor(self.workers)
            metrics = self._executor.evaluate_batch(evaluator, space, batch)
        self.counters.add("batches")
        self.counters.add("trials_evaluated", len(metrics))
        return 200, {
            "fingerprint": fingerprint,
            "results": [trial_metrics_to_dict(m) for m in metrics],
        }

    # ------------------------------------------------------------------
    def publish_score(self, payload: dict) -> Tuple[int, dict]:
        """Handle one ``POST /scoreboard`` body; keeps the best per shard."""
        try:
            record = ScoreRecord.from_dict(payload)
        except (KeyError, TypeError, ValueError) as error:
            return 400, {"error": f"malformed scoreboard record: {error}"}
        with self._scores_lock:
            incumbent = self._scores.get(record.shard_id)
            if incumbent is None or record.objective < incumbent.objective:
                self._scores[record.shard_id] = record
        return 200, {"ok": True}

    def scoreboard_snapshot(self) -> dict:
        """Current per-shard best map (the ``GET /scoreboard`` body)."""
        with self._scores_lock:
            return {
                "scores": {
                    str(shard_id): record.to_dict()
                    for shard_id, record in self._scores.items()
                }
            }

    def observe_request(
        self, route: str, method: str, status: int, elapsed: float
    ) -> None:
        """Count one handled request and its latency under its route.

        One merge, so a scrape never sees the request count without its
        latency observation.
        """
        bucket = bisect.bisect_left(DEFAULT_BUCKETS, elapsed)
        self.counters.merge({
            "by_route": {route: {method: {str(status): 1}}},
            "latency": {route: {"sum": elapsed, "count": 1, "buckets": {bucket: 1}}},
        })

    def metrics_exposition(self) -> str:
        """The ``GET /metrics`` body: Prometheus text exposition.

        Rendered from one snapshot of the service's counter store and one
        of the process store, taken at scrape time.
        """
        counts = self.counters.snapshot()
        process = get_counters().snapshot()

        def gauge(name: str, help_text: str, value: float) -> MetricFamily:
            return MetricFamily(name, "gauge", help_text, (), {(): value})

        requests = {
            (route, method, status): n
            for route, by_method in counts.get("by_route", {}).items()
            for method, by_status in by_method.items()
            for status, n in by_status.items()
        }
        latency = {
            (route,): (seconds["buckets"], seconds["sum"], seconds["count"])
            for route, seconds in counts.get("latency", {}).items()
        }
        lookups = {
            (cache, outcome): process.get(f"{cache}_cache_{key}", 0)
            for cache in ("op", "region")
            for outcome, key in (("hit", "hits"), ("miss", "misses"))
        }
        return render_exposition([
            MetricFamily(
                "repro_service_requests_total",
                "counter",
                "HTTP requests handled, by route, method, and status.",
                ("route", "method", "status"),
                requests,
            ),
            MetricFamily(
                "repro_service_request_seconds",
                "histogram",
                "Request handling latency in seconds.",
                ("route",),
                latency,
            ),
            gauge(
                "repro_service_uptime_seconds",
                "Seconds since service start.",
                time.time() - self.started_at,
            ),
            gauge(
                "repro_service_workers", "Configured evaluation workers.", self.workers
            ),
            gauge(
                "repro_service_trials_evaluated",
                "Trials evaluated since start.",
                counts.get("trials_evaluated", 0),
            ),
            gauge(
                "repro_service_batches",
                "Evaluate batches since start.",
                counts.get("batches", 0),
            ),
            gauge(
                "repro_service_errors",
                "Request handling errors since start.",
                counts.get("errors", 0),
            ),
            gauge(
                "repro_service_fingerprint_rejections",
                "Evaluate requests refused on fingerprint mismatch.",
                counts.get("fingerprint_rejections", 0),
            ),
            MetricFamily(
                "repro_cache_lookups",
                "gauge",
                "Cost-cache lookups by this process and its pool workers, by "
                "cache and outcome.",
                ("cache", "outcome"),
                lookups,
            ),
            MetricFamily(
                "repro_worker_restarts_total",
                "counter",
                "Process-pool rebuilds after a worker died mid-batch.",
                (),
                {(): process.get("worker_restarts", 0)},
            ),
        ])

    def health_snapshot(self) -> dict:
        """The ``GET /health`` body."""
        counts = self.counters.snapshot()
        requests_by_route = {
            route: sum(sum(by_status.values()) for by_status in by_method.values())
            for route, by_method in counts.get("by_route", {}).items()
        }
        return {
            "status": "ok",
            "workers": self.workers,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "requests": counts.get("requests", 0),
            "requests_by_route": requests_by_route,
            "batches": counts.get("batches", 0),
            "trials_evaluated": counts.get("trials_evaluated", 0),
            "fingerprint_rejections": counts.get("fingerprint_rejections", 0),
            "errors": counts.get("errors", 0),
            "known_fingerprints": sorted(self._evaluators),
        }


def _make_handler(service: EvaluationService):
    """Build the request-handler class bound to one service instance."""

    class Handler(BaseHTTPRequestHandler):
        # Access logs go through the module logger at DEBUG instead of the
        # stdlib's unconditional stderr write: quiet by default (tests, CI
        # smokes), but ``repro serve --verbose`` makes per-request lines —
        # and hence service-side failures — visible again.
        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            logger.debug(
                "%s - - %s", self.address_string(), format % args
            )

        # ------------------------------------------------------------------
        def _inject_fault(self) -> bool:
            """Apply any configured fault; True means the request was consumed."""
            injector = service.fault_injector
            if injector is None:
                return False
            action = injector(service.next_request_index(), self.path)
            if not action:
                return False
            kind = action[0]
            if kind == "delay":
                import time

                time.sleep(float(action[1]))
                return False  # delayed, then handled normally
            if kind == "error":
                self._reply(500, {"error": "injected failure"})
                return True
            if kind == "drop":
                # Close the socket without any response: the client sees a
                # connection reset / truncated read.
                self.connection.close()
                return True
            return False

        def _read_json(self) -> Optional[dict]:
            length = int(self.headers.get("Content-Length", 0))
            try:
                return json.loads(self.rfile.read(length) or b"{}")
            except (json.JSONDecodeError, ValueError):
                self._reply(400, {"error": "request body is not valid JSON"})
                return None

        def _reply(self, status: int, body: dict) -> int:
            data = json.dumps(body).encode()
            self._send_bytes(status, "application/json", data)
            return status

        def _reply_text(self, status: int, text: str) -> int:
            self._send_bytes(
                status, "text/plain; version=0.0.4; charset=utf-8", text.encode()
            )
            return status

        def _send_bytes(self, status: int, content_type: str, data: bytes) -> None:
            try:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)
            except (BrokenPipeError, ConnectionResetError):
                pass  # client gave up (timeout / hedge winner already used)

        # ------------------------------------------------------------------
        def do_GET(self) -> None:  # noqa: N802 - stdlib naming
            self._handle("GET")

        def do_POST(self) -> None:  # noqa: N802 - stdlib naming
            self._handle("POST")

        def do_PUT(self) -> None:  # noqa: N802 - stdlib naming
            # No route takes PUT: answer 404 like any unknown path, not the
            # stdlib's 501.
            self._handle("PUT")

        def _handle(self, method: str) -> None:
            service.counters.add("requests")
            route = self.path
            trace_header = self.headers.get(TRACE_CONTEXT_HEADER)
            span = service.tracer.start(
                "serve_request",
                category="service",
                parent_header=trace_header,
                attrs={"route": route, "method": method},
            )
            started = time.perf_counter()
            status = 500
            try:
                if self._inject_fault():
                    status = 0  # request consumed by the fault injector
                    return
                status = self._dispatch(method, route, trace_header, span)
            finally:
                span.set_attr("status", status)
                service.tracer.finish(span)
                service.observe_request(
                    route, method, status, time.perf_counter() - started
                )

        def _dispatch(self, method: str, route: str, trace_header, span) -> int:
            if method == "GET":
                if route == "/health":
                    return self._reply(200, service.health_snapshot())
                if route == "/scoreboard":
                    return self._reply(200, service.scoreboard_snapshot())
                if route == "/metrics":
                    return self._reply_text(200, service.metrics_exposition())
                return self._reply(404, {"error": f"unknown path {route}"})
            if method == "PUT":
                return self._reply(404, {"error": f"unknown path {route}"})
            payload = self._read_json()
            if payload is None:
                return 400
            if route == "/evaluate":
                try:
                    status, body = service.evaluate_payload(payload)
                except Exception as error:  # defensive: never kill the thread
                    service.counters.add("errors")
                    status, body = 500, {"error": f"evaluation failed: {error}"}
                if trace_header and span.record is not None:
                    # The client is tracing: close the request span now (the
                    # reply write is all that remains) and hand it back so
                    # both sides of the wire land in one trace.
                    span.set_attr("status", status)
                    service.tracer.finish(span)
                    body = dict(body, spans=[span.record.to_dict()])
                return self._reply(status, body)
            if route == "/scoreboard":
                status, body = service.publish_score(payload)
                return self._reply(status, body)
            return self._reply(404, {"error": f"unknown path {route}"})

    return Handler


def serve(
    host: str = "127.0.0.1",
    port: int = 8642,
    workers: int = 1,
    op_cache_path: Optional[str] = None,
    fault_spec: Optional[str] = None,
    fault_seed: int = 0,
    engine: Optional[object] = None,
) -> EvaluationService:
    """Build the service ``repro serve`` runs (caller starts/serves it).

    ``fault_spec``/``fault_seed`` attach a seeded
    :class:`~repro.runtime.faults.FaultPlan` as the service's fault
    injector (``service-error`` / ``service-drop`` / ``service-delay``
    points), so a deliberately flaky endpoint for chaos runs is one flag
    away: ``repro serve --inject-faults "service-error:p=0.2"``.

    ``engine`` (an :class:`~repro.simulator.enginespec.EngineSpec`) pins the
    evaluation engine server-side: its fields are merged over every
    request's simulation options, so clients get this service's engine
    regardless of what their payload asked for.  Safe because both
    mapper engines are bit-for-bit equivalent.
    """
    overrides: Dict[str, object] = {}
    if engine is not None:
        overrides["vectorized_mapper"] = engine.mapper != "scalar"
        overrides["op_cache_enabled"] = engine.op_cache
        overrides["region_cache_enabled"] = engine.region_cache
    if op_cache_path:
        overrides["op_cache_enabled"] = True
        overrides["op_cache_path"] = op_cache_path
    service = EvaluationService(
        host=host, port=port, workers=workers, simulation_overrides=overrides
    )
    if fault_spec:
        from repro.runtime.faults import FaultPlan

        service.fault_injector = FaultPlan(fault_spec, seed=fault_seed)
    return service
