"""Harness self-check: a tiny-size run of every workload, in this process.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

It checks that each workload, at tiny sizes, passes its checks and emits
exactly the metrics ``BENCHMARK.json`` lists, with their units, both
untraced and traced; and that a reference value corrupted from benchmark
code is counted as a failed item.  Exit code 0 when all of this holds.
"""
from __future__ import annotations

import json
import sys

import run as bench


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            result, _ = bench.run(workload, seed=1, seconds=0, trace=trace, tiny=True)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace].items()) - set(got.items()))
                extra = sorted(set(got.items()) - set(wanted[trace].items()))
                problems.append(f"{workload} trace={trace}: missing {missing}, extra {extra}")
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: {result['failed']} items failed")
        result, _ = bench.run(workload, seed=1, seconds=0, trace=False, tiny=True, corrupt=True)
        if result["failed"] == 0:
            problems.append(f"{workload}: corrupted reference was not counted as a failure")
        print(f"{workload}: ok" if not problems else f"{workload}: {problems}", file=sys.stderr)
    for problem in problems:
        print(f"selfcheck: {problem}", file=sys.stderr)
    print("selfcheck: " + ("FAILED" if problems else "all workloads ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
