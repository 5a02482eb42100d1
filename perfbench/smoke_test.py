#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs all three workloads at tiny sizes in one process through run.py,
once traced and once untraced with the same seed, and asserts that:
  - every metric BENCHMARK.json names is in every workload's report with
    the unit BENCHMARK.json gives it and a source label;
  - every correctness check of every workload ran and passed;
  - the traced run recorded spans and the advisor's inner calls;
  - the advisor's design hashes repeat for the same seed.
Exits 0 on success, 1 with a list of failures otherwise.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7

EXPECTED_CHECKS = {
    "htap_wire": ["htap.reads_return_requested_key",
                  "htap.recovered_count_matches_acks",
                  "htap.recovered_sum_matches_acks", "workload.completed"],
    "ch_analytics": ["ch.results_match_row_mode_oracle",
                     "workload.completed"],
    "advisor_tune": ["advisor.results_match_no_secondaries",
                     "advisor.design_hash_repeats", "advisor.hooks_linked",
                     "workload.completed"],
}

failures = []


def expect(cond, msg):
    if not cond:
        failures.append(msg)


def run(trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all",
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    expect(p.returncode == 0, f"trace {trace}: exit code {p.returncode}")
    reports = {}
    for line in lines:
        if line.startswith("report: "):
            r = json.loads(line[len("report: "):])
            reports[r["workload"]] = r
    final = json.loads(lines[-1]) if lines else {}
    expect(final.get("correct") is True, f"trace {trace}: final line {final}")
    return reports


def check_reports(reports, trace, bench):
    sets = {"end_to_end": bench["end_to_end"], "per_layer": bench["per_layer"]}
    for workload, checks in EXPECTED_CHECKS.items():
        r = reports.get(workload)
        expect(r is not None, f"trace {trace}: no report for {workload}")
        if r is None:
            continue
        for kind, metrics in sets.items():
            for m in metrics:
                got = r["metrics"].get(m["name"])
                expect(got is not None,
                       f"{workload}: {kind} metric {m['name']} missing")
                if got is not None:
                    expect(got["unit"] == m["unit"],
                           f"{workload}: {m['name']} unit {got['unit']} != "
                           f"{m['unit']}")
                    expect(got["source"] in ("wall", "thread_cpu",
                                             "simulated", "os", "count"),
                           f"{workload}: {m['name']} has no source label")
        ran = {c["name"]: c["ok"] for c in r["checks"]}
        for c in checks:
            expect(c in ran, f"{workload}: check {c} did not run")
            expect(ran.get(c) is True, f"{workload}: check {c} failed")
        for key in ("git_sha", "source_digest", "build_type", "nproc"):
            expect(key in r["provenance"], f"{workload}: provenance {key}")
        expect(r["seed"] == SEED, f"{workload}: seed not recorded")
        if trace:
            expect(r["provenance"].get("spans", 0) > 0,
                   f"{workload}: traced run recorded no spans")
    if trace:
        m = reports["htap_wire"]["metrics"]
        for name in ("span.client.query.self_ms", "span.sql.parse.self_ms",
                     "span.exec.execute.self_ms", "span.txn.commit.self_ms"):
            expect(m[name]["value"] > 0, f"htap_wire: {name} is 0")
        m = reports["advisor_tune"]["metrics"]
        for name in ("optimizer.whatif_calls", "span.optimizer.whatif.self_ms",
                     "span.core.recommend.self_ms", "core.candidates"):
            expect(m[name]["value"] > 0, f"advisor_tune: {name} is 0")


def hashes(report):
    p = report["provenance"]
    return {k: v for k, v in p.items() if k.endswith(".design_hash")}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    traced = run(1)
    check_reports(traced, 1, bench)
    untraced = run(0)
    check_reports(untraced, 0, bench)
    if "advisor_tune" in traced and "advisor_tune" in untraced:
        a, b = hashes(traced["advisor_tune"]), hashes(untraced["advisor_tune"])
        expect(a and a == b, f"advisor design hashes differ: {a} vs {b}")
    if failures:
        print("smoke test FAILED:")
        for f in failures:
            print("  -", f)
        return 1
    print("smoke test passed: 3 workloads, all metrics and checks present")
    return 0


if __name__ == "__main__":
    sys.exit(main())
