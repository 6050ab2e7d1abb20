"""Benchmark of ofbdec: run one workload and print its metrics.

    python3 bench/run.py --workload sweep_ar1 --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  The launcher writes the generated
inputs to .bench_out/, then starts bench/load.py in a fresh interpreter
with src/ on PYTHONPATH and one BLAS thread, and relays its final line:
one JSON object with the keys correct, attempted, failed and metrics
(end-to-end metrics with --trace 0, per-layer metrics with --trace 1).
It exits non-zero, printing no result, when the run fails or exceeds
its time limit.  See bench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("sweep_ar1", "stream_image", "bank_wide")
# one BLAS thread: with OpenBLAS's default of one per core, single
# synthesize_ls calls on the wide bank swung from 4 ms to over 100 ms
BLAS_THREADS = "1"
TIME_LIMIT_S = 170.0


def main():
    ap = argparse.ArgumentParser(description="Run one ofbdec benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be non-negative and --seconds positive")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ofbdec", "__init__.py")):
        print(f"bench: no ofbdec sources under {src}", file=sys.stderr)
        return 2

    sys.path.insert(0, HERE)
    import inputs

    inputs.write_inputs(OUT_DIR, args.seed)

    env = dict(os.environ)
    env["PYTHONPATH"] = src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    cmd = [
        sys.executable, os.path.join(HERE, "load.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out", OUT_DIR,
    ]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], cwd=ROOT, env=env, stdout=subprocess.PIPE,
            timeout=TIME_LIMIT_S, text=True,
        )
    except subprocess.TimeoutExpired:
        print(f"bench: run exceeded {TIME_LIMIT_S:.0f} s", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"bench: load exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("bench: malformed result line", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
