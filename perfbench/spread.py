#!/usr/bin/env python3
"""Run one workload over several seeds and report, per end-to-end
metric, the median and the quartile spread (Q3 - Q1) / median of the
runs' values (statistics.quantiles(values, n=4)).

    python3 perfbench/spread.py --workload quantified --seeds 1-10
    python3 perfbench/spread.py --workload quantified --seeds 1-10 --sets 2
    python3 perfbench/spread.py --workload quantified --seeds 3-3 --repeat 10

--sets 2 runs the seed range twice and also reports how far the second
set's median moved from the first, against the metric's bound.
--repeat N runs every seed N times, so the spread shows machine noise
alone, without the variation between seeds.  Reads metric names and
bounds from BENCHMARK.json; flags a spread above a third of its bound
and exits 1 when a spread or a median shift exceeds the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_set(bench, workload, seeds, seconds):
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in seeds:
        t0 = time.monotonic()
        out = subprocess.run(
            bench["command"] + ["--workload", workload, "--seed", str(seed),
                                "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        res = json.loads(lines[-1]) if lines else None
        if out.returncode != 0 or not res or not res["correct"]:
            print(f"seed {seed}: exit {out.returncode}, result {res}")
            return None
        for name in values:
            values[name].append(res["metrics"][name]["value"])
        info = dict(l[2:].split(": ", 1) for l in lines if l.startswith("# "))
        print(f"seed {seed} ({time.monotonic() - t0:.0f} s, probe "
              f"{info.get('probe_ms', '-')} ms): " + " ".join(
                  f"{n}={values[n][-1]:.4g}" for n in values), flush=True)
    return values


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="range lo-hi, inclusive")
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs of each seed in a set")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    lo, hi = (int(x) for x in args.seeds.split("-"))
    seeds = [s for s in range(lo, hi + 1) for _ in range(args.repeat)]
    bad = False
    medians = []
    for k in range(args.sets):
        print(f"set {k + 1}", flush=True)
        values = run_set(bench, args.workload, seeds, seconds)
        if values is None:
            return 1
        meds = {}
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            meds[m["name"]] = med
            flag = "  > bound/3" if spread > m["bound"] / 3 else ""
            if m["name"] != "setup_s":
                bad |= spread > m["bound"]
            print(f"{m['name']:16s} median {med:.5g} {m['unit']:5s} "
                  f"spread {spread:.3f} (bound {m['bound']}){flag}")
        medians.append(meds)
    if len(medians) > 1:
        for m in bench["end_to_end"]:
            a, b = medians[0][m["name"]], medians[-1][m["name"]]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "  > bound" if worse > m["bound"] else ""
            bad |= worse > m["bound"]
            print(f"{m['name']:16s} second median {worse:+.3f} worse "
                  f"(bound {m['bound']}){flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
