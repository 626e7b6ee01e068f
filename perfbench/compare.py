#!/usr/bin/env python3
"""Compares two run sets of the repository benchmark.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the JSON records `run.py --record DIR` writes, one per
run, usually ten seeds per workload. For every workload x end-to-end metric
the tool prints both sides' median and quartiles and a verdict against the
metric's bound in BENCHMARK.json:

  better          every new run beats every base run, or the new median is
                  better by more than the bound and by more than either
                  side's quartile spread;
  worse           the new median is worse than the base median by more than
                  the bound, and the base spread does not hide it;
  unresolved      the base spread (quartile distance over median) is wider
                  than the bound, unless every new run trails every base
                  run by more than the bound (then: worse);
  within bound    none of the above.

Per-layer metrics from traced runs are printed as medians, without verdicts.
Run sets whose headers differ in anything but the commit, the source digest,
the seed and the build time are refused (exit code 2).
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
IGNORED_HEADER_KEYS = {"commit", "source_digest", "seed", "build_s"}


def load_runs(directory):
    runs = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as f:
                runs.append(json.load(f))
    if not runs:
        raise SystemExit(f"compare: no run records in {directory}")
    return runs


def check_headers(runs):
    """Raises ValueError when two runs of one workload and trace mode differ
    in a header field other than the ignored ones."""
    first = {}
    for run in runs:
        h = {k: v for k, v in run["header"].items() if k not in IGNORED_HEADER_KEYS}
        ref = first.setdefault((h.get("workload"), h.get("trace")), h)
        diff = sorted(k for k in set(h) | set(ref) if h.get(k) != ref.get(k))
        if diff:
            raise ValueError(f"{h.get('workload')} run headers differ in " + ", ".join(diff))


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, new, better, bound):
    """The verdict for one workload x metric; `better` is 'lower'/'higher'."""
    sign = 1.0 if better == "lower" else -1.0
    b_med = statistics.median(base)
    n_med = statistics.median(new)
    worse_by = sign * (n_med - b_med) / abs(b_med) if b_med else sign * (n_med - b_med)
    if all(sign * (n - b) < 0 for n in new for b in base):
        return "better"
    if all(sign * (n - b) > 0 for n in new for b in base) and worse_by > bound:
        return "worse"
    if spread(base) > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > max(bound, spread(base), spread(new)):
        return "better"
    return "within bound"


def group(runs, trace):
    out = {}
    for run in runs:
        if int(run["header"].get("trace", "0")) != trace:
            continue
        wl = run["header"]["workload"]
        for name, m in run["result"]["metrics"].items():
            out.setdefault(wl, {}).setdefault(name, []).append(m["value"])
    return out


def compare(base_runs, new_runs, spec, out=sys.stdout):
    """Prints the comparison; returns the list of (workload, metric, verdict)."""
    check_headers(base_runs + new_runs)
    for r in base_runs + new_runs:
        if not r["result"]["correct"]:
            print(f"warning: incorrect run {r['header']['workload']} seed "
                  f"{r['header']['seed']}", file=out)

    verdicts = []
    base, new = group(base_runs, 0), group(new_runs, 0)
    print(f"{'workload':9} {'metric':18} {'base q1/median/q3':>36} "
          f"{'new q1/median/q3':>36}  verdict", file=out)
    for wl in sorted(set(base) & set(new)):
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in base[wl] or name not in new[wl]:
                continue
            b, n = base[wl][name], new[wl][name]
            v = verdict(b, n, m["better"], m["bound"])
            verdicts.append((wl, name, v))
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{wl:9} {name:18} {fmt(quartiles(b)):>36} {fmt(quartiles(n)):>36}  "
                  f"{v} (bound {m['bound']:.0%}, n={len(b)}/{len(n)})", file=out)

    base_l, new_l = group(base_runs, 1), group(new_runs, 1)
    if base_l and new_l:
        print("\nper-layer medians (traced runs)", file=out)
        for wl in sorted(set(base_l) & set(new_l)):
            for m in spec["per_layer"]:
                name = m["name"]
                b, n = base_l[wl].get(name), new_l[wl].get(name)
                if not b or not n or (statistics.median(b) == 0 and statistics.median(n) == 0):
                    continue
                print(f"{wl:9} {name:32} {statistics.median(b):>14.6g} -> "
                      f"{statistics.median(n):<14.6g} {m['unit']}", file=out)
    return verdicts


def main():
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    try:
        compare(load_runs(sys.argv[1]), load_runs(sys.argv[2]), spec)
    except ValueError as e:
        print(f"compare: refused: {e}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
