"""Self-test of the benchmark at tiny stream lengths.

    python3 perfbench/selftest.py

Checks that every workload runs untraced and traced, that each run prints
its metrics with their units (exactly those ``BENCHMARK.json`` lists, for
the workloads it lists), and that the oracle check fails -- result
``correct: false``, non-zero exit -- when one emitted pair is dropped
before it.  Exits non-zero on any failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, trace: int, *extra: str) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny",
         *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout + proc.stderr)
        return proc.returncode, None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {w["name"] for w in spec["workloads"]}
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = _run(workload, trace)
            label = f"{workload} --trace {trace}"
            known = len(problems)
            if code != 0 or result is None:
                problems.append(f"{label}: exit {code}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: oracle mismatch")
            units = {name: metric["unit"]
                     for name, metric in result["metrics"].items()}
            table = PER_LAYER if trace else END_TO_END
            if any(table.get(name) != unit for name, unit in units.items()):
                problems.append(f"{label}: a metric has the wrong unit")
            # Workloads in BENCHMARK.json print exactly the metrics it lists.
            if workload in listed and units != declared[trace]:
                problems.append(f"{label}: metrics differ from "
                                "BENCHMARK.json")
            if not trace and set(units) != set(END_TO_END):
                problems.append(f"{label}: end-to-end metrics missing")
            if len(problems) == known:
                print(f"ok   {label}: {len(units)} metrics, "
                      f"{result['attempted']} operations")
        code, result = _run(workload, 0, "--plant-mismatch")
        if code == 0 or result is None or result["correct"] \
                or result["failed"] < 1:
            problems.append(f"{workload}: planted mismatch not caught "
                            f"(exit {code}, result {result})")
        else:
            print(f"ok   {workload}: planted mismatch caught "
                  f"(exit {code}, failed {result['failed']})")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
