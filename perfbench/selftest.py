"""Self-test of the benchmark at a tiny budget.

Runs every workload briefly, untraced and traced, through the same command
the benchmark is run with, and checks what it prints.  That includes
``suite5-cold``, which ``BENCHMARK.json`` does not declare (see README.md).
From the repository root::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from child import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--trials", "16"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def tagged(lines, tag):
    return [json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith(tag + " ")]


_RUNS = {}


def bench(workload: str, trace: int):
    """(result, provenance, searches, stdout lines) of one tiny run, memoized."""
    if (workload, trace) not in _RUNS:
        proc = run_bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        _RUNS[workload, trace] = (
            json.loads(lines[-1]),
            tagged(lines, "perfbench-provenance")[0],
            tagged(lines, "perfbench-search"),
            lines,
        )
    return _RUNS[workload, trace]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    result, provenance, _, lines = bench(workload, trace)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(line.startswith(f"{metric['name']} = ") and line.endswith(metric["unit"])
                   for line in lines)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert provenance["error_ratio"] == 0
    if trace:
        assert result["metrics"]["error_ratio"]["value"] == 0
        assert result["metrics"]["trace.unattributed_ratio"]["value"] >= 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_labels_match_what_ran(workload):
    _, provenance, searches, _ = bench(workload, 0)
    for key in ("seed", "regime", "engine", "executor", "cpus", "python", "numpy", "git_sha"):
        assert provenance[key] not in (None, "")
    assert provenance["seed"] == SEED
    for search in searches:
        assert search["engine_label"] == search["engine_echo"] == provenance["engine"]
        assert not any(search["caches_at_start"].values())
        first = search["caches_at_first_proposal"]
        if search["regime"] == "cold":
            assert first["op_cache"] == first["region_cache"] == first["problem_memo"] == 0
        else:
            assert first["op_cache"] > 0 and first["region_cache"] > 0
            assert search["seed"] not in search["warmup_seeds"]


def test_parallel_sweep_reproduces_the_cold_serial_history():
    cold = bench("b0-cold", 0)[1]["history_digests"]
    sweep = bench("b0-sweep-par2", 0)[1]["history_digests"]
    assert cold == sweep


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("b0-cold", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
