"""Steadiness of the benchmark on this machine.

Runs perfbench/run.py once per seed for each workload, one run at a time,
and prints for every end-to-end metric its median, quartiles and spread
(interquartile distance over the median) against the bound in
BENCHMARK.json, with the machine-speed probe (env.cal_ms) of each run.
With --trace-overhead it also makes a traced run per seed and compares the
traced loop's analyses_per_s with the untraced one.

    python3 perfbench/steady.py --seeds 1-10 --workload ladder
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    cal = re.search(r"env.cal_ms: before=(\S+) after=(\S+)", proc.stdout)
    return json.loads(lines[-1]), (float(cal.group(1)), float(cal.group(2))), wall


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seeds", default="1-10", help="a seed or a range lo-hi")
    p.add_argument("--workload", action="append", help="repeatable; default: every workload")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace-overhead", action="store_true")
    args = p.parse_args(argv)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name in names:
        values: dict = {m: [] for m in bounds}
        traced, untraced = [], []
        for seed in seeds(args.seeds):
            result, cal, wall = run(name, seed, args.seconds, 0)
            row = {m: v["value"] for m, v in result["metrics"].items()}
            for m in bounds:
                values[m].append(row[m])
            untraced.append(row["analyses_per_s"])
            print(f"{name} seed={seed} wall_s={wall:.1f} cal_ms={cal[0]:.1f}/{cal[1]:.1f} "
                  + " ".join(f"{m}={row[m]:.6g}" for m in bounds), flush=True)
            if args.trace_overhead:
                tresult, _, _ = run(name, seed, args.seconds, 1)
                traced.append(tresult["metrics"]["trace.analyses_per_s"]["value"])
        print(f"{name}: metric median q1 q3 spread bound")
        for m, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else float("nan")
            flag = "" if spread <= bounds[m] / 3 else "  (above a third of the bound)"
            print(f"  {m:<16} {med:.6g} {q1:.6g} {q3:.6g} {spread:.4f} {bounds[m]}{flag}")
        if traced:
            overhead = statistics.median(untraced) / statistics.median(traced) - 1
            print(f"  tracing overhead: untraced/traced analyses_per_s - 1 = {overhead:+.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
