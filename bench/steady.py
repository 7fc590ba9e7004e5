"""Steadiness of the benchmark: interleaved repetitions of every workload.

    python3 bench/steady.py --reps 10 [--first-seed 0] [--seconds 40]
                            [--workload NAME ...] [--save FILE]

Repetition r runs every workload of BENCHMARK.json (or each --workload)
once, in turn, with seed first-seed + r.
For each workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, next to the metric's bound in BENCHMARK.json, and
the share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--reps", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--save", help="write every run's result JSON here")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    runs = {w: [] for w in workloads}
    for r in range(args.reps):
        seed = args.first_seed + r
        for w in workloads:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"] = seed
            runs[w].append(res)
            print(f"rep {r} {w} seed {seed}: " + "  ".join(
                f"{k} {v['value']:.6g}" for k, v in res["metrics"].items()),
                flush=True)

    print(f"\n{'workload':18s} {'metric':15s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for w in workloads:
        for m in bench["end_to_end"]:
            vals = [res["metrics"][m["name"]]["value"] for res in runs[w]]
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0],) * 3)
            print(f"{w:18s} {m['name']:15s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{(q3 - q1) / med:8.4f} {m['bound']:6.3g}")
        att = sum(res["attempted"] for res in runs[w])
        fail = sum(res["failed"] for res in runs[w])
        print(f"{w:18s} failed {fail} of {att} operations")
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(runs, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
