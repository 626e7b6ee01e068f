#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/selftest.py [--no-smoke]

1. Feeds compare.py synthetic run sets: identical sets must read "within
   bound", a set shifted past a metric's bound "worse" (or "better" in the
   other direction), a noisy base "unresolved", and sets whose headers
   differ in more than the commit must be refused.
2. Smoke-runs every workload through run.py at small size, untraced and
   traced, and checks that each run exits 0 and prints every metric of
   BENCHMARK.json with its unit. Skipped with --no-smoke.

Exits non-zero on the first failure.
"""

import json
import os
import random
import subprocess
import sys
import shutil

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import compare  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def expect(cond, what):
    print(("ok      " if cond else "FAILED  ") + what)
    if not cond:
        sys.exit(1)


def synthetic_set(shift=None, noise=0.002, commit="a", cpu="cpu", seed0=1):
    """Ten runs per workload; every metric near 100 with relative `noise`;
    `shift` maps metric name -> relative change applied to every run."""
    rng = random.Random(seed0)
    runs = []
    for w in SPEC["workloads"]:
        for seed in range(seed0, seed0 + 10):
            metrics = {}
            for m in SPEC["end_to_end"]:
                v = 100.0 * (1.0 + rng.uniform(-noise, noise))
                v *= 1.0 + (shift or {}).get(m["name"], 0.0)
                metrics[m["name"]] = {"value": v, "unit": m["unit"]}
            runs.append({
                "header": {"workload": w["name"], "seed": str(seed), "trace": "0",
                           "commit": commit, "cpu_model": cpu, "nproc": "4"},
                "result": {"correct": True, "attempted": 10, "failed": 0,
                           "metrics": metrics},
            })
    return runs


def verdicts(base, new):
    with open(os.devnull, "w") as sink:
        return {(w, m): v for w, m, v in compare.compare(base, new, SPEC, out=sink)}


def test_compare():
    base = synthetic_set()
    same = verdicts(base, synthetic_set(commit="b", seed0=1))
    expect(set(same.values()) == {"within bound"}, "identical run sets read within bound")

    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    for name, m in e2e.items():
        step = 2 * m["bound"] + 0.05
        worse = step if m["better"] == "lower" else -step
        got = verdicts(base, synthetic_set(shift={name: worse}, commit="b"))
        expect(all(got[(w["name"], name)] == "worse" for w in SPEC["workloads"]),
               f"{name} shifted {worse:+.0%} reads worse")
        got = verdicts(base, synthetic_set(shift={name: -worse}, commit="b"))
        expect(all(got[(w["name"], name)] == "better" for w in SPEC["workloads"]),
               f"{name} shifted {-worse:+.0%} reads better")
        others = {k: v for k, v in got.items() if k[1] != name}
        expect(set(others.values()) == {"within bound"},
               f"metrics other than {name} stay within bound")

    noisy = synthetic_set(noise=0.6, seed0=5)
    got = verdicts(noisy, synthetic_set(noise=0.6, seed0=7, commit="b"))
    expect("unresolved" in got.values(), "a base spread wider than the bound is unresolved")

    try:
        verdicts(base, synthetic_set(cpu="other cpu", commit="b"))
        refused = False
    except ValueError:
        refused = True
    expect(refused, "run sets with different hardware headers are refused")


def test_smoke():
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    record = os.path.join(ROOT, ".bench_build", "selftest-records")
    shutil.rmtree(record, ignore_errors=True)
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w["name"],
                   "--seed", "7", "--seconds", "2", "--trace", str(trace), "--smoke",
                   "--record", record]
            r = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            what = f"smoke {w['name']} trace={trace}"
            if r.returncode != 0:
                print(r.stdout[-3000:], r.stderr[-3000:])
            expect(r.returncode == 0, f"{what} exits 0")
            result = json.loads(r.stdout.strip().splitlines()[-1])
            wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}
                   and result["correct"] and result["attempted"] >= 1,
                   f"{what} prints a correct result line")
            expect(all(m["name"] in result["metrics"] for m in wanted)
                   and len(result["metrics"]) == len(wanted),
                   f"{what} prints every {'per-layer' if trace else 'end-to-end'} metric")
            expect(all(v["unit"] == units[k] for k, v in result["metrics"].items()),
                   f"{what} prints each metric with its unit")
            if not trace:
                expect(all(v["value"] != 0 for v in result["metrics"].values()),
                       f"{what} end-to-end metrics are non-zero")
    runs = compare.load_runs(record)
    expect(len(runs) == 2 * len(SPEC["workloads"]), "every smoke run was recorded")


def main():
    test_compare()
    if "--no-smoke" not in sys.argv[1:]:
        test_smoke()
    print("all self-tests passed")


if __name__ == "__main__":
    main()
