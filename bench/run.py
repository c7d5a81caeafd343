"""Run one workload of the cubicflex benchmark and print its metrics.

    python3 bench/run.py --workload flexes --seed 0 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ./src.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the calls into the program's layers
are timed (tracing.py) and the per-layer metrics are printed instead.
The full record, with machine metadata and every failed operation, goes
to bench/results/.  See bench/README.md.
"""

import os
import sys
import time

T_START = time.perf_counter()
# one thread for every BLAS and OpenMP pool, set before NumPy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RESULTS = BENCH / "results"
SETUP_REPEATS = 5


class Stopwatch:
    """Context manager that adds the time spent inside it to .seconds."""

    def __init__(self):
        self.seconds = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.seconds += time.perf_counter() - self._t0


def machine():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "machine": platform.machine()}


def run(workload, seed, seconds, trace):
    import numpy as np

    from cubicflex.errors import CubicflexError

    import workloads
    from tracing import Tracer
    import_s = time.perf_counter() - T_START

    # set-up: build the inputs and run one warm-up operation, repeated so
    # that setup_s is a median
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = workloads.build(workload, seed)
        try:
            wl.ops[0].call()
        except CubicflexError:
            pass
        setups.append(time.perf_counter() - t0)
    problems = list(wl.setup_problems)

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()

    latencies = []
    failures = Counter()        # (op label, error) -> times
    wrong = {}                  # op label -> problems
    outputs = []
    rounds = 0
    t_run = time.perf_counter()
    while rounds < wl.min_rounds or time.perf_counter() - t_run < seconds:
        groups = defaultdict(list)
        outputs = []
        for op in wl.ops:
            t0 = time.perf_counter()
            try:
                out = op.call()
            except CubicflexError as exc:
                out = None
                failures[(op.label, f"{type(exc).__name__}: {exc}")] += 1
            latencies.append(time.perf_counter() - t0)
            if out is not None:
                bad = op.check(out)
                if bad:
                    wrong[op.label] = bad
                    failures[(op.label, "wrong output")] += 1
            groups[op.group].append(out)
            outputs.append((op.label, out))
        if wl.round_check:
            problems += wl.round_check(groups)
        rounds += 1
    run_s = time.perf_counter() - t_run

    group_check = Stopwatch()
    if wl.final_check:
        problems += wl.final_check(outputs, group_check)

    attempted = len(latencies)
    failed = sum(failures.values())
    p50, p90 = np.percentile(latencies, [50, 90])
    e2e = {
        "setup_s": {"value": import_s + statistics.median(setups),
                    "unit": "s"},
        "ops_per_s": {"value": (attempted - failed) / sum(latencies),
                      "unit": "1/s"},
        "op_p50_ms": {"value": 1e3 * p50, "unit": "ms"},
        "op_p90_ms": {"value": 1e3 * p90, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }
    per_layer = (tracer.per_layer(attempted, group_check.seconds)
                 if tracer else {})
    correct = not wrong and not problems
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "rounds": rounds, "ops_per_round": len(wl.ops),
        "run_s": run_s, "import_s": import_s, "setup_repeats_s": setups,
        "make_up": wl.make_up,
        "correct": correct, "attempted": attempted, "failed": failed,
        "failures": [{"op": op, "error": err, "times": n}
                     for (op, err), n in sorted(failures.items())],
        "wrong_outputs": wrong, "problems": problems,
        "metrics": {**e2e, **per_layer}, "machine": machine(),
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    for f in record["failures"]:
        print(f"failed x{f['times']}: {f['op']}: {f['error']}",
              file=sys.stderr)
    for label, bad in wrong.items():
        print(f"wrong output: {label}: {bad}", file=sys.stderr)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": per_layer if trace else e2e}


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("flexes", "monodromy", "crossings"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "cubicflex" / "__init__.py").is_file():
        print(f"bench: no cubicflex sources under {SRC}; run from the root "
              "of a cubicflex checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
