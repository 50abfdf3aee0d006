"""jacspec benchmark: one closed-loop, single-threaded process per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass runs the workload's job list once, in order, each job starting when
the previous one returns.  Passes repeat until S seconds have gone (at least
three; every report is compared with the first pass's).  Every output is
checked against an independent reference after its pass, outside the timed
region.  The last stdout line is one JSON object with keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced run with --trace 1.  A human-readable summary line comes
before it; failure reasons and trace warnings go to stderr.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import jobs
from checks import Op, build_reference, check, fingerprint
from tracing import Tracer, installed, layer_metrics

# three passes give the median one pass of protection against a load burst
MIN_PASSES = 3
SETUP_REPEATS = 5
# Host throughput on a shared machine drifts by +-15% over tens of seconds,
# which would swamp any change to the program.  A fixed pure-Python loop is
# timed before the first job and after every job of a pass, and the pass time
# is scaled by CAL_NOMINAL_S over the mean loop time of that pass: wall_s is
# in seconds at the loop's nominal speed (0.08 s for CAL_ITERS iterations on
# an idle 2-vCPU Xeon with Python 3.11).
CAL_ITERS = 600_000
CAL_NOMINAL_S = 0.08

_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import jacspec
sources = [jacspec.ASC2Source(q, a, shift) for q, a, shift in {configs!r}]
print(repr(time.perf_counter() - t0))
"""


def measure_setup(job_list) -> float:
    """Median over fresh interpreters of `import jacspec` plus constructing the
    workload's sources."""
    configs = [(j.q, j.a, j.shift) for j in job_list if j.kind != "identities"]
    code = _SETUP_CODE.format(src=str(jobs.SRC), configs=configs)
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=jobs.ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Tally:
    """Operations attempted and failed over all passes of one run."""

    def __init__(self, job_list):
        self.jobs = job_list
        self.refs = [build_reference(j) for j in job_list]
        self.first = [None] * len(job_list)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.certified = 0
        self.certifiable = 0
        self.max_rel_err = 0.0
        self.reasons = Counter()

    def add(self, outcomes) -> None:
        for i, (job, ref, out) in enumerate(zip(self.jobs, self.refs, outcomes)):
            ops = check(job, ref, out)
            fp = fingerprint(out)
            if self.first[i] is None:
                self.first[i] = fp
            elif fp != self.first[i]:
                ops = [op if not op.ok else Op(
                    False, wrong=True, reason="report differs from the first pass")
                    for op in ops]
            for op in ops:
                self.attempted += 1
                if not op.ok:
                    self.failed += 1
                    self.wrong += op.wrong
                    self.reasons[(job.label, op.reason)] += 1
                if op.certified is not None:
                    self.certifiable += 1
                    self.certified += op.certified
                if op.rel_err is not None:
                    self.max_rel_err = max(self.max_rel_err, op.rel_err)

    def summary(self) -> str:
        cert = (f"{self.certified / self.certifiable:.4f} "
                f"({self.certified}/{self.certifiable})"
                if self.certifiable else "n/a (no certifiable values)")
        return (f"failed_frac={self.failed / self.attempted:.4f} "
                f"({self.failed}/{self.attempted}) certified_frac={cert} "
                f"max_rel_err={self.max_rel_err:.3e}")


def calibrate() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CAL_ITERS):
        acc += (i * 0.5) % 7.0
    return time.perf_counter() - t0


def timed_pass(job_list):
    """Run the job list once; returns (raw seconds, load factor, outcomes).
    The calibration loop runs outside the timed region."""
    raw = 0.0
    outcomes = []
    cals = [calibrate()]
    for job in job_list:
        t0 = time.perf_counter()
        outcomes.append(jobs.run_job(job))
        raw += time.perf_counter() - t0
        cals.append(calibrate())
    return raw, CAL_NOMINAL_S / statistics.fmean(cals), outcomes


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def run_plain(job_list, tally, seconds):
    """Returns (raw, load-corrected) pass times."""
    raws, walls = [], []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        raw, load, outcomes = timed_pass(job_list)
        raws.append(raw)
        walls.append(raw * load)
        tally.add(outcomes)
    return raws, walls


def run_traced(job_list, tally, seconds):
    """Alternate untraced and traced passes; per-layer metrics come from the
    traced ones, and their wall time over the untraced is the overhead.
    Self times get the load correction of their pass, like wall_s."""
    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        raw, load, outcomes = timed_pass(job_list)
        plain.append(raw * load)
        tally.add(outcomes)
        tracer = Tracer()
        with installed(tracer):
            raw, tracer.load, outcomes = timed_pass(job_list)
        traced.append(raw * tracer.load)
        tracers.append(tracer)
        tally.add(outcomes)
    metrics, warnings = layer_metrics(tracers)
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics, warnings, len(tracers)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        jobs.import_jacspec()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    job_list = jobs.make_jobs(args.workload, args.seed)
    tally = Tally(job_list)

    if args.trace:
        metrics, warnings, n = run_traced(job_list, tally, args.seconds)
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        print(f"{args.workload} seed={args.seed} traced passes={n} "
              f"{tally.summary()}")
    else:
        setup = measure_setup(job_list)
        raws, walls = run_plain(job_list, tally, args.seconds)
        wall = statistics.median(walls)
        q1, q3 = quartiles(walls)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        print(f"{args.workload} seed={args.seed} passes={len(walls)} "
              f"wall_s median={wall:.4f} q1={q1:.4f} q3={q3:.4f} "
              f"raw median={statistics.median(raws):.4f} {tally.summary()}")
        print("pass wall_s: " + " ".join(f"{w:.4f}" for w in walls)
              + " raw: " + " ".join(f"{r:.4f}" for r in raws))

    for (label, reason), n in sorted(tally.reasons.items()):
        print(f"failed x{n}: {label}: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
