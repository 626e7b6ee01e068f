#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload search|ingest|offline --seed N \
        --seconds S --trace 0|1 [--record DIR] [--smoke]

Run from anywhere inside a source checkout. The first run configures and
builds the library, neutraj_server and the measuring program into
.bench_build/ at the checkout root; later runs only rebuild what changed.

Prints the measuring program's report, one `header {...}` line describing
the run (hardware, build, commit, server flags, seed) and, as the last line,
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics; a layer a workload leaves idle reads 0.
Exits non-zero when the build fails, an output check fails, or the program
errors. --record DIR also stores {header, result} as a JSON file in DIR,
for compare.py.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "neutraj.h"))):
        fail(f"no NeuTraj source tree at {ROOT}; nothing to build")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench", "neutraj_server"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def cmake_cache():
    values = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                values[key.split(":", 1)[0]] = value
    return values


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def build_header():
    cache = cmake_cache()
    return {
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "neutraj_checks": cache.get("NEUTRAJ_CHECKS", "unknown"),
        "compiler_path": cache.get("CMAKE_CXX_COMPILER", "unknown"),
        "commit": git_commit(),
        "source_digest": source_digest(),
    }


def run_program(args, work):
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", os.path.join(BUILD, "neutraj", "tools", "neutraj_server"),
           "--work-dir", work]
    if args.smoke:
        cmd.append("--smoke")
    # The program and the servers it launches share one new process group,
    # so nothing it started can outlive the run.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap_group(proc.pid)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    reap_group(proc.pid)
    return proc.returncode, out.splitlines()


def reap_group(pgid):
    """Kills whatever is left in the process group and waits until it is
    empty (a clean run leaves nothing)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def complete_metrics(result, spec, trace):
    """Checks the program's metrics against BENCHMARK.json and fills the
    per-layer metrics a workload leaves idle with 0."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    for name, m in got.items():
        if name not in units:
            fail(f"metric {name} is not in BENCHMARK.json")
        if m["unit"] != units[name]:
            fail(f"metric {name} has unit {m['unit']}, expected {units[name]}")
    ordered = {}
    for name, unit in units.items():
        if name in got:
            ordered[name] = got[name]
        elif trace:
            ordered[name] = {"value": 0, "unit": unit}
        else:
            fail(f"end-to-end metric {name} was not measured")
    result["metrics"] = ordered
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="directory to store {header, result} in")
    p.add_argument("--smoke", action="store_true",
                   help="small inputs (self-tests only)")
    args = p.parse_args()

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    started = time.monotonic()
    build()
    header = build_header()
    header["build_s"] = f"{time.monotonic() - started:.1f}"

    work = os.path.join(BUILD, "work", f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        code, lines = run_program(args, work)
        trace_file = os.path.join(work, "trace.jsonl")
        if os.path.isfile(trace_file):
            keep = os.path.join(BUILD, "traces")
            os.makedirs(keep, exist_ok=True)
            shutil.move(trace_file, os.path.join(
                keep, f"{args.workload}-seed{args.seed}.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not lines or not lines[-1].startswith("{"):
        print("\n".join(lines))
        fail(f"measuring program exited {code} without a result")
    for line in lines[:-1]:
        if line.startswith("header "):
            header = {**json.loads(line[len("header "):]), **header}
        else:
            print(line)
    result = complete_metrics(json.loads(lines[-1]), spec, args.trace == 1)
    if code != 0:
        result["correct"] = False
    print("header " + json.dumps(header, sort_keys=True))
    print(json.dumps(result))
    sys.stdout.flush()
    if args.record:
        os.makedirs(args.record, exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        with open(os.path.join(args.record, name), "w") as f:
            json.dump({"header": header, "result": result}, f, indent=1)
    sys.exit(0 if code == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
