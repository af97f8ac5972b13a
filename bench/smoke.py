"""Smoke run of the benchmark: every workload at a tiny size, tracing off and on.

Covers every workload BENCHMARK.json lists.  Each run must exit 0, report
correct, and print every metric that BENCHMARK.json names for its mode, both
as a `name value unit` line and in the final JSON object with the same unit.
Run from the repository root:

    python3 bench/smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 180


def smoke_run(spec, workload, trace):
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = [] if result["correct"] is True else ["correct is not true"]
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3 and not line.startswith("#"):
            printed[parts[0]] = parts[2]
    for metric in spec["end_to_end" if trace == 0 else "per_layer"]:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name)
        if got is None or got.get("unit") != unit:
            problems.append(f"{name}: missing from the result or unit is not {unit}")
        if printed.get(name) != unit:
            problems.append(f"{name}: no '{name} <value> {unit}' line")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            problems = smoke_run(spec, workload, trace)
            failures += bool(problems)
            status = "ok" if not problems else "FAIL"
            print(f"{status} {workload} trace {trace}")
            for problem in problems:
                print(f"  {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
