#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py

1. Smoke: every workload runs for one second untraced and traced; each run
   must pass its correctness check and print exactly the metrics that
   BENCHMARK.json declares, with the declared units.
2. Corruption: a run whose backend damages tiles must fail the correctness
   check (correct false, failed > 0, exit code 1).

Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(workload, trace, *extra):
    command = [sys.executable, RUN, "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{workload}: no output\n{proc.stderr[-2000:]}")
    return proc.returncode, json.loads(lines[-1]), proc.stdout


def check_result_shape(result):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] >= 0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, result, stdout = run(workload, trace)
            check_result_shape(result)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if code != 0 or not result["correct"] or result["failed"]:
                failures.append(f"{workload} trace {trace}: exit {code}, "
                                f"failed {result['failed']}")
            if got != declared[trace]:
                failures.append(f"{workload} trace {trace}: metrics differ "
                                f"from BENCHMARK.json: {sorted(set(got) ^ set(declared[trace]))}")
            if "failed_share 0 " not in stdout:
                failures.append(f"{workload} trace {trace}: failed_share not 0")
            print(f"smoke {workload} trace {trace}: " + ", ".join(
                f"{n} ({u})" for n, u in got.items()))

    code, result, stdout = run("pull_hot", 0, "--corrupt")
    check_result_shape(result)
    if code != 1 or result["correct"] or result["failed"] == 0:
        failures.append(f"corrupting store not caught: exit {code}, {result}")
    else:
        share = result["failed"] / result["attempted"]
        print(f"corrupt pull_hot: caught, failed_share {share:.4f}")

    for failure in failures:
        print("FAIL:", failure)
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
