"""FAST search benchmark: one command, every metric, outputs checked.

A run of one workload (see README.md) searches a *panel* of seeds derived
from ``--seed``: ``seed * 1000 + i`` for ``i`` in ``0 .. K-1``, with ``K``
sized so the panel takes about ``--seconds`` on a 2-CPU host.  Each panel
search runs in a fresh interpreter (``child.py``), so a cold search starts
with every cache empty.  Trial cost depends strongly on the seed; a panel
averages over seeds, and the same ``--seed`` always gives the same panel.

Checks, all outside the timed regions:

* the first panel search re-evaluates a few trials with the scalar
  reference engine (caches off); the metrics must match bit for bit;
* one extra search repeats the first panel seed and must produce the same
  history digest.  It runs the workload named by ``same_history_as``
  (``b0-sweep-par2`` is checked against a serial cold ``b0-cold`` search) or,
  under ``--trace 1``, the same workload untraced, which also gives the
  tracing overhead;
* every search's regime and engine labels must match what it ran.

With ``--trace 0`` the result line carries the end-to-end metrics; with
``--trace 1`` the panel runs traced and the result line carries the
per-layer metrics.  Names and units come from ``BENCHMARK.json``.  The lines
before the result hold the provenance and every search's record.

Usage, from the repository root::

    python3 perfbench/run.py --workload b0-cold --seed 1 --seconds 25 --trace 0
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import ENGINE_LABEL, WORKERS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
# A single run must finish well inside the 180 s its caller allows.
HARD_LIMIT_S = 150.0
# Trials per search in the paper's evaluation.
PAPER_TRIALS = 5000


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` (``unknown`` outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


class Children:
    """Starts child searches and cleans up after them."""

    def __init__(self, trials: int, deadline: float) -> None:
        self.trials = trials
        self.deadline = deadline
        self.spool_root = ROOT / ".perfbench_tmp" / str(os.getpid())
        self.count = 0

    def run(self, workload: str, seed: int, traced: bool, check: bool) -> dict:
        """One search in a fresh interpreter, in its own session."""
        argv = ["--workload", workload, "--seed", str(seed), "--trials", str(self.trials)]
        if traced:
            argv.append("--trace")
        if check:
            argv.append("--check")
        if WORKLOADS[workload]["executor"] != "serial":
            spool = self.spool_root / str(self.count)
            spool.mkdir(parents=True)
            argv += ["--spool", str(spool)]
        self.count += 1
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        timeout = self.deadline - time.monotonic()
        if timeout < 1.0:
            return {"error": "no time left in the run"}
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), *argv, "--spawned-at", repr(time.time())],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"error": f"timed out after {timeout:.0f} s"}
        finally:
            try:  # pool workers a crashed child left behind share its group
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            return json.loads(out.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return {"error": f"exit {proc.returncode}: {err.strip()[-2000:]}"}

    def close(self) -> None:
        shutil.rmtree(self.spool_root, ignore_errors=True)
        parent = self.spool_root.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()


def label_problems(record: dict) -> list:
    """Ways a search's labels disagree with what it actually ran."""
    problems = []
    if record["engine_label"] != record["engine_echo"]:
        problems.append(f"engine {record['engine_label']!r} echoed as {record['engine_echo']!r}")
    if any(record["caches_at_start"].values()):
        problems.append(f"caches not empty at start: {record['caches_at_start']}")
    first = record["caches_at_first_proposal"]
    warm = first["op_cache"] > 0 and first["region_cache"] > 0
    if record["regime"] == "cold" and (first["op_cache"] or first["region_cache"]
                                       or first["problem_memo"]):
        problems.append(f"cold search had warm caches at its first proposal: {first}")
    if record["regime"] == "new-seed-warm" and not warm:
        problems.append(f"new-seed-warm search had cold caches at its first proposal: {first}")
    return problems


def end_to_end_metrics(panel) -> dict:
    """End-to-end metrics of a panel of untraced searches."""
    durations = [s for record in panel for s in record["trial_s"]]
    return {
        "trials_per_s": sum(r["trials"] for r in panel) / sum(r["wall_s"] for r in panel),
        "trial_p50_ms": percentile(durations, 50) * 1e3,
        "trial_p90_ms": percentile(durations, 90) * 1e3,
        "setup_s": statistics.median(r["setup_s"] for r in panel),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in panel),
    }


def layer_metrics(panel, overhead_ratio: float) -> dict:
    """Per-layer metrics: per-search means over the panel; ratios of sums."""
    count = len(panel)

    def total(key):
        return sum(r["layers"].get(key, 0) for r in panel)

    def runtime(key):
        return sum(r["runtime"][key] for r in panel)

    def ratio(num, den):
        return num / den if den else 0.0

    workers = WORKERS if panel[0]["executor"] != "serial" else 1
    metrics = {
        name: total(name) / count
        for name in (
            "mapping.self_s", "mapping.calls", "mapping.ops",
            "fusion.self_s", "fusion.calls", "fusion.regions",
            "simulator.self_s", "simulator.calls", "simulator.regions",
            "simulator.vector.self_s", "simulator.vector.calls",
            "compiler.self_s", "compiler.calls",
            "workloads.build.self_s", "workloads.build.calls",
            "search.ask.self_s", "search.tell.self_s",
            "core.trial.self_s", "core.loop.self_s", "hardware.area_power.self_s",
        )
    }
    metrics["simulator.regions_per_s"] = ratio(total("simulator.regions"),
                                               total("simulator.self_s"))
    metrics["search.duplicates_avoided"] = runtime("duplicates_avoided") / count
    metrics["core.feasible_ratio"] = ratio(sum(r["feasible_trials"] for r in panel),
                                           sum(r["trials"] for r in panel))
    for cache in ("op_cache", "region_cache"):
        hits, misses = runtime(f"{cache}_hits"), runtime(f"{cache}_misses")
        metrics[f"runtime.{cache}.hits"] = hits / count
        metrics[f"runtime.{cache}.misses"] = misses / count
        metrics[f"runtime.{cache}.hit_ratio"] = ratio(hits, hits + misses)
        metrics[f"runtime.{cache}.lookup_s"] = total(f"runtime.{cache}.self_s") / count
    metrics["runtime.shm.entries"] = runtime("shared_cache_entries") / count
    metrics["runtime.shm.attached"] = runtime("shared_cache_attached") / count
    metrics["runtime.shm.hits"] = (runtime("op_cache_shared_hits")
                                   + runtime("region_cache_shared_hits")) / count
    batch_s = total("runtime.executor.total_s")
    metrics["runtime.executor.batch_s"] = batch_s / count
    metrics["runtime.executor.worker_eval_s"] = runtime("eval_seconds") / count
    metrics["runtime.executor.idle_ratio"] = 1.0 - ratio(runtime("eval_seconds"),
                                                         workers * batch_s)
    metrics["runtime.executor.first_batch_s"] = statistics.median(
        r["executor_first_batch_s"] for r in panel)
    metrics["runtime.executor.worker_restarts"] = runtime("worker_restarts") / count
    metrics["trace.unattributed_ratio"] = 1.0 - ratio(
        sum(r["attributed_s"] for r in panel), sum(r["wall_s"] for r in panel))
    metrics["trace.overhead_ratio"] = overhead_ratio
    metrics["perf_per_tdp_vs_tpuv3"] = statistics.median(
        r["perf_per_tdp_vs_tpuv3"] for r in panel)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int, help="override the workload's trial budget")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no repro sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = WORKLOADS[args.workload]
    trials = args.trials or spec["trials"]
    panel_size = max(2, round(spec["panel_size"] * args.seconds / declared["run_seconds"]))
    seeds = [args.seed * 1000 + i for i in range(panel_size)]
    traced = bool(args.trace)

    children = Children(trials, time.monotonic() + HARD_LIMIT_S)
    try:
        panel = []
        for index, seed in enumerate(seeds):
            panel.append(children.run(args.workload, seed, traced, check=index == 0))
            if "error" in panel[-1]:
                break
        repeat_workload = args.workload if traced else spec.get("same_history_as")
        repeat = None
        if repeat_workload is not None:
            repeat = children.run(repeat_workload, seeds[0], traced=False, check=False)
    finally:
        children.close()

    # ---------------------------------------------------------------- checks
    attempted = failed = 0
    problems = []
    for seed, record in zip(seeds, panel):
        attempted += trials
        if "error" in record:
            failed += trials
            problems.append(f"seed {seed} failed: {record['error']}")
            continue
        bad = label_problems(record)
        if bad:
            failed += trials
            problems += [f"seed {seed}: {text}" for text in bad]
        check = record.get("check")
        if check:
            attempted += check["attempted"]
            failed += check["failed"]
            if check["failed"]:
                problems.append(f"seed {seed}: scalar reference differs at trials "
                                f"{check['mismatched_indices']}")
    if repeat is not None:
        attempted += 1
        if "error" in panel[0] or repeat.get("digest") != panel[0]["digest"]:
            failed += 1
            problems.append(f"{repeat_workload} at seed {seeds[0]} did not reproduce the "
                            f"history: {repeat.get('digest', repeat.get('error'))}")
    for text in problems:
        print(f"perfbench: {text}", file=sys.stderr)
    ok = [r for r in panel if "error" not in r]
    if len(ok) < len(seeds) or (repeat is not None and "error" in repeat):
        return 1

    # --------------------------------------------------------------- metrics
    first = ok[0]
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "panel_seeds": seeds,
        "trials": trials,
        "paper_trials": PAPER_TRIALS,
        "regime": spec["regime"],
        "engine": first["engine_echo"],
        "engine_label": ENGINE_LABEL,
        "executor": spec["executor"],
        "problem_workloads": first["problem_workloads"],
        "optimizer": first["optimizer"],
        "batch_size": first["batch_size"],
        "objective": first["objective"],
        "cpus": first["cpus"],
        "python": first["python"],
        "numpy": first["numpy"],
        "git_sha": git_sha(),
        "traced": traced,
        "history_digests": [r["digest"] for r in ok],
        "trial_samples": sum(len(r["trial_s"]) for r in ok),
        "constraint_rejected_trials": sum(r["constraint_rejected_trials"] for r in ok),
        "perf_per_tdp_vs_tpuv3": [r["perf_per_tdp_vs_tpuv3"] for r in ok],
        "paper_perf_per_tdp_vs_tpuv3": spec["paper_perf_per_tdp_vs_tpuv3"],
        "paper_context": spec["paper_context"],
        "model_validation": "simulated; unvalidated against hardware, so no error figure",
        "error_ratio": failed / attempted,
        "problems": problems,
    }
    if traced:
        section = "per_layer"
        values = layer_metrics(ok, first["wall_s"] / repeat["wall_s"] - 1.0)
        values["error_ratio"] = failed / attempted
    else:
        section = "end_to_end"
        values = end_to_end_metrics(ok)
    metrics = {
        item["name"]: {"value": values[item["name"]], "unit": item["unit"]}
        for item in declared[section]
    }

    print("perfbench-provenance " + json.dumps(provenance, sort_keys=True))
    for record in ok + ([repeat] if repeat is not None else []):
        shown = {k: v for k, v in record.items() if k != "trial_s"}
        print("perfbench-search " + json.dumps(shown, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
