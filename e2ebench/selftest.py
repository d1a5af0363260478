#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark at tiny scale.

Run from the repository root:

    python3 e2ebench/selftest.py

Each workload must pass its correctness gates, untraced and traced. Then two
deliberately corrupted runs must fail their gates, which shows the checker
catches errors: one subscriber event dropped before the stream gate, and one
counter of the recovered map altered before the recovery gate.
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ("bulk_load", "live_tail", "query_mix")


def contract_names(trace):
    """Metric names BENCHMARK.json expects in the result line."""
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_case(binary, workload, trace, mutate=None):
    args = [binary, "--workload", workload, "--seed", "7", "--seconds", "2",
            "--trace", str(trace), "--tiny"]
    if mutate:
        args += ["--mutate", mutate]
    proc = subprocess.run(args, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    gates = [line for line in lines if line.startswith("GATE FAILED")]
    return proc.returncode, result, gates


def main():
    binary = run.build()
    if binary is None:
        return 1
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result, gates = run_case(binary, workload, trace)
            ok = code == 0 and result is not None and result["correct"] and result["failed"] == 0
            names_ok = result is not None and set(result["metrics"]) == contract_names(trace)
            nonzero = result is not None and (trace or all(
                m["value"] != 0 for m in result["metrics"].values()))
            good = ok and names_ok and nonzero
            print("%-4s %s trace=%d" % ("ok" if good else "FAIL", workload, trace))
            if not good:
                failures.append("%s trace=%d: exit %d, metric names match: %s, end-to-end "
                                "metrics nonzero: %s, %s" % (workload, trace, code, names_ok,
                                                            nonzero, gates))
    # The corrupted runs must be caught by the gate named here.
    for workload, mutate, gate in (("live_tail", "drop_event", "subscriber stream"),
                                   ("query_mix", "drop_event", "subscriber stream"),
                                   ("bulk_load", "alter_counter", "recovered map")):
        code, result, gates = run_case(binary, workload, 0, mutate)
        caught = (code != 0 and result is not None and not result["correct"]
                  and any(gate in line for line in gates))
        print("%-4s %s --mutate %s is rejected" % ("ok" if caught else "FAIL", workload, mutate))
        if not caught:
            failures.append("%s --mutate %s was not caught (exit %d)" % (workload, mutate, code))
    for failure in failures:
        print("FAILED:", failure)
    print("selftest:", "passed" if not failures else "FAILED")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
