"""Run each workload several times and print the spread of its metrics.

    python3 bench/stability.py --runs 10 --seconds 30
    python3 bench/stability.py --runs 5 --workloads monodromy --trace 1

Each run is one bench/run.py process with its own seed (first-seed,
first-seed + 1, ...), run one after another.  For every metric the table
gives the median, the quartiles as statistics.quantiles(values, n=4)
gives them, and the spread: the distance between the quartiles as a
share of the median.  End-to-end metrics are read from each run's record,
so a traced set also shows the tracing overhead against an untraced one.
The summary goes to bench/results/stability-trace<k>-seed<first>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("flexes", "monodromy", "crossings")


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"{' '.join(cmd)} exited with {proc.returncode}:\n"
                 f"{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    path = BENCH / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(path.read_text())
    return last, record


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                    default=list(WORKLOADS))
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("need at least two runs for quartiles")

    summary = {}
    for wl in args.workloads:
        metrics, shares, correct = {}, set(), True
        for seed in range(args.first_seed, args.first_seed + args.runs):
            last, record = one_run(wl, seed, args.seconds, args.trace)
            correct &= last["correct"]
            shares.add(f"{last['failed']}/{last['attempted']}")
            for name, m in record["metrics"].items():
                metrics.setdefault(name, (m["unit"], []))[1].append(m["value"])
            print(f"{wl} seed {seed}: {json.dumps(last)}", file=sys.stderr)
        summary[wl] = {"correct": correct, "failed/attempted": sorted(shares),
                       "metrics": {name: {"unit": unit, **spread(vals)}
                                   for name, (unit, vals) in metrics.items()}}
        print(f"\n{wl}: correct={correct} failed/attempted={sorted(shares)}")
        print(f"  {'metric':42s} {'unit':8s} {'median':>11s} {'q1':>11s} "
              f"{'q3':>11s} {'spread':>7s}")
        for name, s in summary[wl]["metrics"].items():
            print(f"  {name:42s} {s['unit']:8s} {s['median']:11.4f} "
                  f"{s['q1']:11.4f} {s['q3']:11.4f} {s['spread']:7.3f}")
    out = BENCH / "results" / (f"stability-trace{args.trace}"
                               f"-seed{args.first_seed}.json")
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"args": vars(args), "workloads": summary},
                              indent=1) + "\n")


if __name__ == "__main__":
    main()
