"""Fast self-test of the benchmark: every workload on a tiny instance.

Run from the repository root (about half a minute)::

    python3 perfbench/selftest.py

For each workload, in a fresh process per run, it checks that an
untraced run emits exactly the end-to-end metrics of ``BENCHMARK.json``
with their units (all non-zero), that a traced run emits exactly the
per-layer metrics, and that the layer self times plus
``trace.unattributed_s`` add up to the traced ``trace.wall_s`` with at
most 10% unattributed.  Finally it checks that the benchmark refuses to
run, without a result line, from a copy holding only ``BENCHMARK.json``
and the benchmark's own directory.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import SELF_TIME_METRICS  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
WORKLOADS = ("table2-full", "table3-repair", "service-small")


class SelfTestError(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(proc: subprocess.CompletedProcess, what: str) -> dict:
    expect(
        proc.returncode == 0,
        f"{what} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}",
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == RESULT_KEYS, f"{what}: result keys {sorted(result)}")
    expect(result["correct"] is True, f"{what}: outputs failed their checks")
    expect(result["failed"] == 0 and result["attempted"] >= 1, f"{what}: {result}")
    return result["metrics"]


def check_metrics(metrics: dict, expected, what: str) -> None:
    expect(list(metrics) == [name for name, _ in expected], f"{what}: {list(metrics)}")
    for name, unit in expected:
        expect(metrics[name]["unit"] == unit, f"{what}: {name} unit {metrics[name]}")
        expect(isinstance(metrics[name]["value"], (int, float)), f"{what}: {name}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]

    for workload in WORKLOADS:
        e2e = result_of(run(workload, 0), f"{workload} untraced")
        check_metrics(e2e, end_to_end, workload)
        zero = [name for name, value in e2e.items() if not value["value"]]
        expect(not zero, f"{workload}: end-to-end metrics read 0: {zero}")

        layer = result_of(run(workload, 1), f"{workload} traced")
        check_metrics(layer, per_layer, f"{workload} traced")
        value = {name: entry["value"] for name, entry in layer.items()}
        wall = value["trace.wall_s"]
        attributed = sum(value[name] for name in SELF_TIME_METRICS)
        total = attributed + value["trace.unattributed_s"]
        expect(
            abs(total - wall) <= 0.01 * wall,
            f"{workload}: self times + unattributed = {total}, traced wall {wall}",
        )
        expect(
            value["trace.unattributed_s"] <= 0.1 * wall,
            f"{workload}: {value['trace.unattributed_s']}s of {wall}s unattributed",
        )
        print(f"ok {workload}: {len(e2e)} end-to-end, {len(layer)} per-layer metrics; "
              f"{attributed / wall:.1%} of traced wall attributed")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(WORKLOADS[0], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "benchmark ran without the repository's sources")
    expect('"metrics"' not in proc.stdout, "benchmark printed a result without sources")
    print("ok bare copy: refused with exit code", proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
