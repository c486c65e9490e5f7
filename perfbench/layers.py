"""Outside-in layer timing for the benchmark.

The benchmark never edits ``repro``: it replaces the public entry points of
each layer with timing wrappers, from its own files, for the length of one
run.  A wrapper records its call, adds a work count, and charges its layer
with *self time*: the call's duration minus the time spent in wrappers
nested inside it.  Self times of nested layers therefore add up to the
outermost wrapper's duration, so whatever a run spends outside every wrapper
shows up as unattributed time.

Under a fork-started process pool the workers inherit the wrappers.  Their
accumulators live in the worker, so :meth:`LayerTracer.spool_worker_tasks`
appends one JSON line per worker task to a per-worker file that the parent
reads back after the run.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

perf_counter = time.perf_counter


class LayerTracer:
    """Self time, call counts and work counts per named layer."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.first_s: Dict[str, float] = {}
        # (seconds, label) per call of the layers wrapped with ``sample=``.
        self.samples: List[tuple] = []
        self._stack: List[float] = []
        self._undo: List[tuple] = []

    # ------------------------------------------------------------------
    def _timed(self, original: Callable, layer: str, count=None, sample=None) -> Callable:
        stack = self._stack
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        first_s, samples, counts = self.first_s, self.samples, self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            started = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                nested = stack.pop()
                self_s[layer] += elapsed - nested
                total_s[layer] += elapsed
                calls[layer] += 1
                if layer not in first_s:
                    first_s[layer] = elapsed
                if stack:
                    stack[-1] += elapsed
            if count is not None:
                key, amount = count(args, result)
                counts[key] += amount
            if sample is not None:
                samples.append((elapsed, sample(args, result)))
            return result

        return wrapper

    def wrap_method(self, owner: type, name: str, layer: str, count=None, sample=None) -> None:
        """Time ``owner.name`` (set on ``owner`` itself, so per class).

        ``count(args, result)`` returns a ``(counter, amount)`` to add;
        ``sample(args, result)`` labels the call's entry in :attr:`samples`.
        """
        previous = owner.__dict__.get(name)
        setattr(owner, name, self._timed(getattr(owner, name), layer, count, sample))
        self._undo.append((owner, name, previous))

    def wrap_function(self, function: Callable, layer: str) -> None:
        """Time a module-level function at every ``repro`` module that bound it."""
        wrapper = self._timed(function, layer)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, function))

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        for owner, name, previous in reversed(self._undo):
            if isinstance(owner, type) and previous is None:
                delattr(owner, name)
            else:
                setattr(owner, name, previous)
        self._undo.clear()

    # ------------------------------------------------------------------
    def flat(self) -> Dict[str, float]:
        """Every accumulator as one flat ``{metric: value}`` dict."""
        out: Dict[str, float] = {}
        for layer, value in self.self_s.items():
            out[f"{layer}.self_s"] = value
            out[f"{layer}.total_s"] = self.total_s[layer]
            out[f"{layer}.calls"] = self.calls[layer]
        out.update(self.counts)
        return out

    def spool_worker_tasks(self, executor_module, spool_dir: Path) -> None:
        """Ship worker-side accumulators home, one JSON line per task.

        Wraps ``executor_module._evaluate_in_worker`` (the function a process
        pool runs per task) under its own module and name, so the pool still
        pickles it by reference.  Each line carries the accumulator deltas
        of that task, its samples and the worker's peak RSS.
        """
        original = executor_module._evaluate_in_worker
        handles: Dict[int, int] = {}

        @functools.wraps(original)
        def spooled(task):
            before = self.flat()
            mark = len(self.samples)
            result = original(task)
            after = self.flat()
            line = {
                "pid": os.getpid(),
                "delta": {k: v - before.get(k, 0) for k, v in after.items()},
                "samples": self.samples[mark:],
                "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            }
            pid = os.getpid()
            if pid not in handles:
                handles[pid] = os.open(
                    spool_dir / f"{pid}.jsonl", os.O_WRONLY | os.O_CREAT | os.O_APPEND
                )
            os.write(handles[pid], (json.dumps(line) + "\n").encode())
            return result

        executor_module._evaluate_in_worker = spooled
        self._undo.append((executor_module, "_evaluate_in_worker", original))


def read_spool(spool_dir: Path) -> Optional[dict]:
    """Sum the worker spool files: deltas, samples and per-worker peak RSS."""
    files = sorted(spool_dir.glob("*.jsonl"))
    if not files:
        return None
    delta: Dict[str, float] = defaultdict(float)
    samples: List[tuple] = []
    maxrss: Dict[int, int] = {}
    for path in files:
        for text in path.read_text().splitlines():
            line = json.loads(text)
            for key, value in line["delta"].items():
                delta[key] += value
            samples.extend(line["samples"])
            maxrss[line["pid"]] = max(maxrss.get(line["pid"], 0), line["maxrss_kib"])
    return {"delta": dict(delta), "samples": samples, "maxrss_kib": maxrss}
