#!/usr/bin/env python3
"""Self-test of the benchmark in small mode.

Runs every workload of BENCHMARK.json for a few units at the default seed,
untraced and traced, and checks the output contract: the last stdout line
parses as JSON with exactly the keys correct/attempted/failed/metrics, the
run is correct with no failed unit, every metric BENCHMARK.json names for
that mode is emitted (and no other) with its unit and a finite value, and
pass_rate is 1. Also checks that an unknown workload exits non-zero
without printing a result.

Run from the repository root:  python3 perfbench/selftest.py
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
UNITS = "3"


def run(cmd, *extra):
    return subprocess.run(
        cmd + list(extra), cwd=ROOT, capture_output=True, text=True, timeout=900
    )


def check_result(spec, workload, trace, proc):
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return [f"{where}: printed nothing"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        return [f"{where}: last line is not JSON: {e}"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"{where}: not correct: {proc.stderr[-500:]}")
    if result.get("failed") != 0:
        errors.append(f"{where}: {result.get('failed')} failed units (error rate > 0)")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{where}: attempted {result.get('attempted')}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(wanted):
        errors.append(
            f"{where}: missing {sorted(set(wanted) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(wanted))}"
        )
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {name} value {value!r}")
        if name in wanted and m.get("unit") != wanted[name]:
            errors.append(f"{where}: {name} unit {m.get('unit')!r}, want {wanted[name]!r}")
    if not trace and metrics.get("pass_rate", {}).get("value") != 1:
        errors.append(f"{where}: pass_rate {metrics.get('pass_rate')}")
    return errors


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = spec["command"]
    errors = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = run(cmd, "--workload", w["name"], "--seconds", "1",
                       "--trace", str(trace), "--units", UNITS)
            found = check_result(spec, w["name"], trace, proc)
            errors += found
            print(f"{w['name']} --trace {trace}: {'ok' if not found else 'FAIL'}")
    bad = run(cmd, "--workload", "no_such_workload", "--seconds", "1", "--trace", "0")
    if bad.returncode == 0 or bad.stdout.strip():
        errors.append("an unknown workload must exit non-zero without a result")
    for e in errors:
        print(e, file=sys.stderr)
    print("selftest:", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
