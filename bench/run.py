"""Benchmark entry point: one workload in a fresh single-threaded process.

    python3 bench/run.py --workload tables --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout. The library is imported from the
checkout's `src`; nothing needs installing. The last line of stdout is
the JSON result: `correct`, `attempted`, `failed` and `metrics` (the
end-to-end metrics, or with --trace 1 the per-layer ones); with
--trace 0 the line before it holds the same metrics unscaled. Temporary
caches live under `.bench_work/` and are removed before exit.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tables", "moments", "local_factors")
TIMEOUT_S = 170

SINGLE_THREAD = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}


def main() -> int:
    ap = argparse.ArgumentParser(description="symmoment benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "symmoment", "cli.py")):
        print(f"error: no symmoment sources under {src}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               SYMMOMENT_CACHE=workdir,
               **SINGLE_THREAD)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, env=env, cwd=workdir, stdout=subprocess.PIPE, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
