"""Run one benchmark workload in this process and print its result line.

Started by run.py with PYTHONPATH pointing at the checkout's `src` and
every math-library thread pool pinned to one thread. Every job goes
through `symmoment.cli.main(argv)` with stdout captured and checked by
`checks.py`; `cli_start` jobs launch `python -m symmoment.cli` instead.

A run is: set-up (at least SETUP_REPEATS times, median reported), then
whole rounds of the same jobs until --seconds have passed. With
--trace 1 the same number of rounds is then run again under the span
tracer, and the per-layer metrics come from those traced rounds.

Between jobs a fixed pure-Python loop (the speed probe) is timed, and
every job time in the end-to-end metrics is scaled to the machine speed
at which that loop takes PROBE_REF_S. Other tenants of a shared machine
change its speed by up to 1.6x for seconds to minutes; the probe and
the jobs slow together, so the scaled times hold steady. The unscaled
figures are printed on the line before the result.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import checks
from tracer import HOOKS, Tracer

from symmoment import cli, combinatorics, euler, exponents, hecke, sums, symbolic

SETUP_REPEATS = 3
SETUP_MIN_S = 5.0
SETUP_MAX = 20

WEIGHTS = (12, 16, 18, 20, 22, 26)
TABLES_N = 5_000
MOMENTS_N = 100_000
# (l, j) with lj >= 4: l = 1, odd lj, even lj with a degree-2 fit, and
# (6, 2), whose degree-14 fit needs more points than the grid has
MOMENT_PAIRS = ((1, 4), (3, 3), (4, 2), (6, 2))
EULER_FLOAT_PAIRS = ((4, 4), (5, 3), (5, 5), (8, 2), (6, 4), (7, 3), (9, 2), (10, 2), (8, 3), (7, 4))
EULER_PRIME_MAX = 500
EULER_ORDER = 6
EXACT_EULER = ((2, 2, 6), (2, 3, 6), (3, 2, 6), (4, 1, 6), (3, 3, 6), (4, 3, 6),
               (4, 4, 6), (6, 2, 6), (8, 2, 4), (6, 3, 4))
# every l, j <= 8, and the corners of lj = 64
EXACT_PAIRS = tuple((l, j) for l in range(1, 9) for j in range(1, 9)) + (
    (16, 4), (4, 16), (32, 2), (2, 32), (64, 1), (1, 64))
# exponents exits 3 for j = 1, l >= 56: theta rounds to 1.0 in double
EXPONENT_FLOAT_LIMIT_L = 56
TAU_SAMPLES = 6
CLI_LAUNCHES = 2

# the light cross-section a workload runs for the job kinds it does not own
SIDE_TABLES_N = 1_000
SIDE_MOMENTS_N = 10_000
SIDE_MOMENT_PAIRS = ((2, 2), (3, 3))
SIDE_EULER_PAIRS = ((4, 4), (5, 3), (8, 2), (6, 4), (7, 3), (9, 2))
SIDE_LJ_CAP = 8
# times each cross-section job runs per round: more samples for its median
SIDE_REPEATS = 3
# the same for owned kinds whose jobs are short
OWNED_REPEATS = {"cached": 3}

# the speed probe: run PROBE_SIDE times before the first set-up, before a
# job when PROBE_EVERY_S have passed since the last probe, and after
# every round
PROBE_ITERS = 60_000
PROBE_REF_S = 0.010
PROBE_EVERY_S = 0.15
PROBE_SIDE = 3

KINDS = ("qexp", "cached", "moments", "euler_float", "exact", "cli_start")
OWNED = {
    "tables": {"qexp", "cached"},
    "moments": {"moments"},
    "local_factors": {"euler_float", "exact", "cli_start"},
}

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "qexp_coeffs_per_s": "coeff/s",
    "cached_coeffs_per_s": "coeff/s",
    "moment_terms_per_s": "term/s",
    "euler_float_s": "s",
    "exact_core_s": "s",
    "cli_start_s": "s",
}

PER_LAYER = {
    "hecke.series_mul.s": "s",
    "hecke.series_mul.calls": "count",
    "hecke.series_mul.out_terms": "count",
    "hecke.eigenform_qexp.self_s": "s",
    "hecke.save_table.s": "s",
    "hecke.cache_bytes": "bytes",
    "hecke.load_table.s": "s",
    "hecke.sym_coeff_sieve.self_s": "s",
    "hecke.sym_prime_power.calls": "count",
    "sums.partial_sum.self_s": "s",
    "sums.fit_main_term.s": "s",
    "sums.residual_exponent.s": "s",
    "euler.rhs_local.s": "s",
    "euler.rhs_local.root_steps": "count",
    "euler.lhs_local.s": "s",
    "euler.correction_series_sym.s": "s",
    "symbolic.verify_decomposition.s": "s",
    "exponents.exponent_report.s": "s",
    "combinatorics.coeffs_bruteforce.calls": "count",
    "combinatorics.coeffs_bruteforce.s": "s",
    "euler.x1_residual_max": "1",
    "cli.self_s": "s",
    "hecke.self_s": "s",
    "sums.self_s": "s",
    "euler.self_s": "s",
    "symbolic.self_s": "s",
    "combinatorics.self_s": "s",
    "exponents.self_s": "s",
    "trace_overhead_s": "s",
}

LAYERS = (hecke, sums, euler, symbolic, combinatorics, exponents, cli)


@dataclass
class Job:
    kind: str
    argv: list
    key: tuple  # identity of the output, the same in every round
    check: Callable[[str], None]
    units: int = 0  # coefficients or terms the job produces


def probe_loop():
    """Fixed work: small-int arithmetic, a dict store and a big-int product."""
    acc, table = 0, {}
    for i in range(PROBE_ITERS):
        acc += i * i % 7
        table[i & 1023] = acc
    big = (acc | 1) ** 40
    return acc + (big * big) % 1_000_003


class Speed:
    """Probes of the machine's speed, interleaved with the jobs."""

    def __init__(self):
        self.mids = []  # probe midpoints, increasing
        self.times = []  # probe seconds
        self.last = float("-inf")

    def probe(self):
        start = time.perf_counter()
        probe_loop()
        end = time.perf_counter()
        self.mids.append((start + end) / 2)
        self.times.append(end - start)
        self.last = end

    def maybe_probe(self):
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.probe()

    def scale(self, start, elapsed):
        """Factor taking seconds at `start` to seconds at reference speed.

        Probes run between jobs, so a job's speed is estimated from the
        PROBE_SIDE probes before it and the PROBE_SIDE after it: a long
        job is judged by both of its ends.
        """
        before = bisect.bisect(self.mids, start)
        after = bisect.bisect(self.mids, start + elapsed)
        near = self.times[max(0, before - PROBE_SIDE):before] + self.times[after:after + PROBE_SIDE]
        return PROBE_REF_S / statistics.median(near)


def pairs_up_to(cap: int):
    return [(l, j) for l in range(1, cap + 1) for j in range(1, cap // l + 1)]


def tau_argv(weight, n, cache):
    return ["tau", "--weight", str(weight), "--limit", str(n), "--cache-dir", cache,
            "--format", "csv"]


class Workload:
    def __init__(self, name: str, seed: int, workdir: str):
        self.owned = OWNED[name]
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.tables = {}  # (weight, N) -> checked a(0..N)
        self.refs = {}  # N -> checks.MomentReference for weight 12
        self.verified = {}  # job key -> output that passed its check
        self.outputs = {}  # job key -> output in the current round
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.cold_dir = os.path.join(workdir, "cold")
        self.cache = None
        self.setups = 0
        self.tracer = None  # set while traced rounds run
        self.speed = Speed()

        self.table_n = TABLES_N if "qexp" in self.owned else SIDE_TABLES_N
        self.weight_order = self.rng.sample(WEIGHTS, len(WEIGHTS))
        self.moments_n = MOMENTS_N if "moments" in self.owned else SIDE_MOMENTS_N
        pairs = MOMENT_PAIRS if "moments" in self.owned else SIDE_MOMENT_PAIRS
        self.moment_pairs = self.rng.sample(pairs, len(pairs))
        primes = checks.primes_up_to(EULER_PRIME_MAX)
        euler_pairs = EULER_FLOAT_PAIRS if "euler_float" in self.owned else SIDE_EULER_PAIRS
        self.euler_jobs = [(l, j, self.rng.choice(primes)) for l, j in euler_pairs]
        self.tau_sample = {}
        for n in (self.table_n, self.moments_n):
            self.tau_sample[n] = sorted(self.rng.sample(range(2, n + 1), TAU_SAMPLES))
        self.spf = checks.smallest_prime_factors(max(self.table_n, self.moments_n))

    # -- set-up -----------------------------------------------------------

    def setup_jobs(self, cache):
        """Tables the timed jobs read: the moment table and the euler primes."""
        jobs = [self.tau_job("setup", 12, self.moments_n, cache)]
        for n in sorted({max(p, 16) for _, _, p in self.euler_jobs}):
            jobs.append(self.tau_job("setup", 12, n, cache))
        return jobs

    def tau_job(self, kind, weight, n, cache):
        def check(out):
            a = checks.parse_table(out, n)
            checks.check_table(a, weight, self.tau_sample.get(n, []), self.spf)
            self.tables[(weight, n)] = a

        return Job(kind, tau_argv(weight, n, cache), ("tau", weight, n), check, n)

    # -- rounds -----------------------------------------------------------

    def repeats(self, kind):
        return OWNED_REPEATS.get(kind, 1) if kind in self.owned else SIDE_REPEATS

    def cold_dirs(self):
        """One empty cache directory per repetition of the cold jobs."""
        return [os.path.join(self.cold_dir, str(r)) for r in range(self.repeats("qexp"))]

    def round_jobs(self):
        jobs = []
        cold_dirs = self.cold_dirs()
        for cold in cold_dirs:
            for w in self.weight_order:
                jobs.append(self.tau_job("qexp", w, self.table_n, cold))
        for _ in range(self.repeats("cached")):
            for w in self.weight_order:
                cold_key = ("tau", w, self.table_n)
                jobs.append(Job("cached", tau_argv(w, self.table_n, cold_dirs[0]),
                                ("warm",) + cold_key,
                                lambda out, k=cold_key: checks.check_same(out, self.outputs.get(k)),
                                self.table_n))
        for _ in range(self.repeats("moments")):
            for l, j in self.moment_pairs:
                jobs.append(self.partial_sum_job(l, j))
        for _ in range(self.repeats("euler_float")):
            for l, j, p in self.euler_jobs:
                jobs.append(self.euler_float_job(l, j, p))
        for _ in range(self.repeats("exact")):
            jobs.extend(self.exact_jobs())
        for _ in range(CLI_LAUNCHES):
            jobs.append(Job("cli_start", ["coeffs", "--l", "2", "--j", "2", "--format", "json"],
                            ("cli_start",), lambda out: checks.check_coeffs(out, 2, 2)))
        return jobs

    def partial_sum_job(self, l, j):
        n = self.moments_n

        def check(out):
            if n not in self.refs:
                self.refs[n] = checks.MomentReference(self.tables[(12, n)], 12, self.spf)
            checks.check_partial_sum(out, l, j, n, self.refs[n])

        argv = ["partial-sum", "--l", str(l), "--j", str(j), "--limit", str(n),
                "--cache-dir", self.cache, "--format", "json"]
        return Job("moments", argv, ("partial-sum", l, j, n), check, n)

    def euler_float_job(self, l, j, p):
        argv = ["euler", "--l", str(l), "--j", str(j), "--p", str(p), "--order", str(EULER_ORDER),
                "--cache-dir", self.cache, "--format", "json"]
        return Job("euler_float", argv, ("euler", l, j, p),
                   lambda out: checks.check_euler_float(out, l, j, p, EULER_ORDER))

    def exact_jobs(self):
        if "exact" in self.owned:
            pairs = EXACT_PAIRS
            exponent_pairs = [(l, j) for l, j in pairs
                              if l * j >= 4 and not (j == 1 and l >= EXPONENT_FLOAT_LIMIT_L)]
            exact = EXACT_EULER
        else:
            pairs = exponent_pairs = [(l, j) for l, j in pairs_up_to(SIDE_LJ_CAP) if l * j >= 4]
            exact = EXACT_EULER[:1]
        jobs = []
        for l, j in pairs:
            a = ["--l", str(l), "--j", str(j), "--format", "json"]
            jobs.append(Job("exact", ["coeffs"] + a, ("coeffs", l, j),
                            lambda out, l=l, j=j: checks.check_coeffs(out, l, j)))
            jobs.append(Job("exact", ["identity"] + a, ("identity", l, j),
                            lambda out, l=l, j=j: checks.check_identity(out, l, j)))
        for l, j in exponent_pairs:
            jobs.append(Job("exact", ["exponents", "--l", str(l), "--j", str(j), "--format", "json"],
                            ("exponents", l, j),
                            lambda out, l=l, j=j: checks.check_exponents(out, [(l, j)])))
        table = [(l, 2) for l in range(2, 9)] + [(2, j) for j in range(2, 9)]
        jobs.append(Job("exact", ["exponents", "--table", "--format", "json"], ("exponents-table",),
                        lambda out: checks.check_exponents(out, table)))
        for l, j, order in exact:
            argv = ["euler", "--l", str(l), "--j", str(j), "--exact", "--order", str(order),
                    "--format", "json"]
            jobs.append(Job("exact", argv, ("euler-exact", l, j, order),
                            lambda out, l=l, j=j, o=order: checks.check_euler_exact(out, l, j, o)))
        return jobs

    # -- running jobs -------------------------------------------------------

    def run(self, job: Job):
        """Run one job and check it; returns (start, seconds), or None when it failed."""
        self.speed.maybe_probe()
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.job = self.attempted
        out_buf, err_buf = io.StringIO(), io.StringIO()
        try:
            if job.kind == "cli_start":
                cmd = [sys.executable, "-m", "symmoment.cli"] + job.argv
                start = time.perf_counter()
                proc = subprocess.run(cmd, capture_output=True, text=True, cwd=self.workdir,
                                      timeout=120)
                elapsed = time.perf_counter() - start
                code, out, err = proc.returncode, proc.stdout, proc.stderr
            else:
                with contextlib.redirect_stdout(out_buf), contextlib.redirect_stderr(err_buf):
                    start = time.perf_counter()
                    code = cli.main(job.argv)
                    elapsed = time.perf_counter() - start
                out, err = out_buf.getvalue(), err_buf.getvalue()
        except SystemExit as exc:
            code, out, err = exc.code, out_buf.getvalue(), err_buf.getvalue()
        except Exception as exc:  # a traceback is a failed operation, not a crash of the run
            code, out, err = "exception", "", repr(exc)
        if code != 0:
            self.failed += 1
            print(f"job {job.argv} failed ({code}): {err.strip()[:500]}", file=sys.stderr)
            return None
        self.outputs[job.key] = out
        if self.verified.get(job.key) != out:
            try:
                job.check(out)
            except (checks.CheckError, KeyError, TypeError, ValueError, IndexError) as exc:
                self.correct = False
                print(f"job {job.argv} output wrong: {exc!r}", file=sys.stderr)
                return start, elapsed
            self.verified[job.key] = out
        return start, elapsed

    def setup(self):
        """One set-up in a fresh cache directory; returns its (start, seconds) per job.

        The previous set-up's directory is removed, so each set-up builds
        every table again; the last one serves the timed rounds.
        """
        if self.cache is not None:
            shutil.rmtree(self.cache)
        self.setups += 1
        self.cache = os.path.join(self.workdir, f"setup{self.setups}")
        os.makedirs(self.cache)
        timed = [self.run(job) for job in self.setup_jobs(self.cache)]
        return [t for t in timed if t is not None]

    def run_round(self):
        """Run every job once; returns (kind, key, start, seconds, units) per job."""
        shutil.rmtree(self.cold_dir, ignore_errors=True)
        for cold in self.cold_dirs():
            os.makedirs(cold)
        self.outputs = {}
        gc.collect()
        samples = []
        for job in self.round_jobs():
            timed = self.run(job)
            if timed is not None:
                samples.append((job.kind, job.key) + timed + (job.units,))
        self.speed.probe()
        return samples


def run_rounds(wl: Workload, seconds: float | None, count: int | None):
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(wl.run_round())
        if count is not None and len(rounds) >= count:
            break
        if count is None and time.perf_counter() - start >= seconds:
            break
    return rounds


def kind_totals(rounds, speed=None):
    """Per kind: the sum over its jobs of each job's median seconds over
    its repetitions in the run, and the units one round produces.

    With `speed`, each job time is first scaled to reference speed. A
    median per job, rather than one per round total, lets a slow spell
    of a shared machine spoil only the jobs that ran during it; README.md
    gives the spreads that chose it over the minimum and the mean.
    """
    per_job = {}
    for samples in rounds:
        for kind, key, start, elapsed, units in samples:
            if speed is not None:
                elapsed *= speed.scale(start, elapsed)
            per_job.setdefault((kind, key), (units, []))[1].append(elapsed)
    seconds = dict.fromkeys(KINDS, 0.0)
    units = dict.fromkeys(KINDS, 0)
    for (kind, _), (u, times) in per_job.items():
        seconds[kind] += statistics.median(times)
        units[kind] += u
    return seconds, units


def end_to_end(rounds, setups, speed=None):
    seconds, units = kind_totals(rounds, speed)
    values = {
        "setup_s": statistics.median(
            sum(e * (speed.scale(s, e) if speed else 1.0) for s, e in setup) for setup in setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "qexp_coeffs_per_s": units["qexp"] / seconds["qexp"],
        "cached_coeffs_per_s": units["cached"] / seconds["cached"],
        "moment_terms_per_s": units["moments"] / seconds["moments"],
        "euler_float_s": seconds["euler_float"],
        "exact_core_s": seconds["exact"],
        # every launch runs the same command: the median launch
        "cli_start_s": seconds["cli_start"],
    }
    return {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}


def in_process_seconds(rounds, speed):
    seconds, _ = kind_totals(rounds, speed)
    return sum(v for k, v in seconds.items() if k != "cli_start")


def run_setups(wl: Workload):
    """At least SETUP_REPEATS set-ups, more while they total under SETUP_MIN_S."""
    setups = []
    spent = 0.0
    while len(setups) < SETUP_REPEATS or (spent < SETUP_MIN_S and len(setups) < SETUP_MAX):
        setups.append(wl.setup())
        spent += sum(e for _, e in setups[-1])
    return setups


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(OWNED))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    wl = Workload(args.workload, args.seed, args.workdir)
    for _ in range(PROBE_SIDE):
        wl.speed.probe()
    setups = run_setups(wl)
    gc.collect()
    gc.freeze()
    rounds = run_rounds(wl, args.seconds, None)
    if args.trace:
        tracer = wl.tracer = Tracer(LAYERS, HOOKS)
        tracer.install()
        try:
            traced = run_rounds(wl, None, len(rounds))
        finally:
            tracer.uninstall()
        # per traced round, so that the figures do not depend on the round count
        layer = {k: v / len(traced) for k, v in tracer.layer_metrics().items()}
        layer.update(tracer.peaks)
        layer["trace_overhead_s"] = (in_process_seconds(traced, wl.speed)
                                     - in_process_seconds(rounds, wl.speed))
        metrics = {k: {"value": layer.get(k, 0), "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = end_to_end(rounds, setups, wl.speed)
        raw = {k: v["value"] for k, v in end_to_end(rounds, setups).items()}
        print(json.dumps({"unscaled": raw, "probes": len(wl.speed.times),
                          "probe_median_s": statistics.median(wl.speed.times)}))
    print(json.dumps({"correct": wl.correct, "attempted": wl.attempted,
                      "failed": wl.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
