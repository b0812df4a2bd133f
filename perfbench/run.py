"""Benchmark entry point: runs one workload in its own process.

    python3 perfbench/run.py --workload {desk-moons,solve-heavy,wide} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (it needs `src/vbpc`). The workload
runs in a child interpreter (workload.py) with single-threaded BLAS left
to the library's own pinning: thread-count variables inherited from the
calling shell are removed from the child's environment, and string hashing
is fixed so that runs differ only in their seed. This process never
imports numpy; it waits for the child, takes the child's peak resident set
size from the operating system, and prints the child's result as its own
last line. It exits non-zero, printing no result, when the source tree is
missing or the child fails.
"""

import argparse
import json
import os
import resource
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "vbpc", "__init__.py")):
        print(f"error: no vbpc sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONHASHSEED"] = "0"     # the same dict layouts in every run
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        child = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                               text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:   # run() has killed and reaped it
        print(f"error: workload exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.stdout.write(child.stdout)
        print(f"error: workload exited with {child.returncode}", file=sys.stderr)
        return 1

    result = json.loads(lines[-1])
    if not args.trace:
        # ru_maxrss is in KiB on Linux; this process has only this one child
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["metrics"]["peak_rss_mb"] = {"value": peak_kib / 1024.0, "unit": "MB"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
