"""Steadiness check: sets of runs of the same code, compared metric by metric
against the bounds in BENCHMARK.json.

    python3 perfbench/steady.py --workloads desk-moons,solve-heavy,wide \
        --seeds 10 --sets 2 [--first-seed 1] [--seconds 30]

Runs the benchmark once per (set, workload, seed), one run at a time. Set s
uses seeds first_seed + 100 * s + i, so no two runs share a seed. For each
workload and end-to-end metric it prints the median of every set, the
spread (distance between the first and third quartile over the median, as
`statistics.quantiles(values, n=4)` gives them) and, from the second set
on, how much worse that set's median is than the first's. A metric passes
when every spread except that of setup_s is within its bound and no median
is worse than the first by more than the bound. The failed share of
operations must be identical across sets. Raw results go to
perfbench/work/steady.json. Exits 1 if anything fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, later, better):
    """Relative amount by which `later` is worse than `first`."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    runs = []
    for s in range(args.sets):
        for workload in args.workloads.split(","):
            for i in range(args.seeds):
                seed = args.first_seed + 100 * s + i
                cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                          "--seconds", str(seconds), "--trace", "0"]
                started = time.perf_counter()
                out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
                wall = time.perf_counter() - started
                if out.returncode != 0:
                    print(f"run failed: {' '.join(cmd)}", file=sys.stderr)
                    return 1
                lines = out.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                runs.append({"set": s, "workload": workload, "seed": seed, "wall_s": wall,
                             "info": json.loads(lines[-2])["info"], **result})
                values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
                print(f"set {s} {workload} seed {seed} ({wall:.1f} s): correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} {values}", flush=True)

    os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
    with open(os.path.join(HERE, "work", "steady.json"), "w") as fh:
        json.dump(runs, fh, indent=1)

    ok = True
    print(f"\n{'workload':12} {'metric':20} {'bound':>6} " +
          " ".join(f"{'median' + str(s):>11} {'spread' + str(s):>8}" for s in range(args.sets)) +
          f" {'worst drift':>11}")
    for workload in args.workloads.split(","):
        sets = [[r for r in runs if r["workload"] == workload and r["set"] == s]
                for s in range(args.sets)]
        if not all(r["correct"] for group in sets for r in group):
            print(f"{workload}: a run reported correct=false")
            ok = False
        shares = {r["failed"] / r["attempted"] for group in sets for r in group}
        if len(shares) != 1:
            print(f"{workload}: failed shares differ between runs: {sorted(shares)}")
            ok = False
        for name, meta in metrics.items():
            columns, medians, row_ok = [], [], True
            for group in sets:
                values = [r["metrics"][name]["value"] for r in group]
                med, spr = statistics.median(values), spread(values)
                medians.append(med)
                columns.append(f"{med:11.5g} {100 * spr:7.2f}%")
                if name != "setup_s" and spr > meta["bound"]:
                    row_ok = False
            drift = max((worse_by(medians[0], m, meta["better"]) for m in medians[1:]),
                        default=0.0)
            if drift > meta["bound"]:
                row_ok = False
            ok = ok and row_ok
            print(f"{workload:12} {name:20} {100 * meta['bound']:5.0f}% " + " ".join(columns) +
                  f" {100 * drift:10.2f}%" + ("" if row_ok else "  FAIL"))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
