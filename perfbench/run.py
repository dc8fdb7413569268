#!/usr/bin/env python3
"""corrhit benchmark runner.

    python3 perfbench/run.py --workload hit_dp --seed 1 --seconds 35 --trace 0

Runs from the root of a source checkout and imports corrhit from its `src`
directory.  One client drives a closed loop in this one process: the next
job starts when the previous one has returned, and every job is one public
corrhit call whose result is checked against an independent reference
(`checks.py`) after its round.  Only the calls are timed.

Times are reported at a reference CPU speed.  A fixed pure-Python loop is
timed between jobs about every 0.1 s (and after each set-up); every wall
time is multiplied by REFERENCE_CALIBRATION_S over the loop's time around
it.  On a shared host whose speed drifts in phases longer than a run, this
keeps code changes, not the neighbours, in the figures.  Raw wall figures
are printed alongside.

--trace 0 measures the end-to-end metrics.  --trace 1 runs a fixed number of
round pairs, the first of each pair plain and the second with every listed
public function wrapped (`tracing.py`), and reports per-layer metrics; the
counts repeat exactly for a given seed.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.  A checkout without
`src/corrhit` exits with code 2 and prints no result.
"""

import os

# One BLAS/OpenMP thread: the jobs are small and the host is shared.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_SAMPLES = 3  # this process plus two fresh interpreters
MIN_JOBS = 100  # so that at least ten jobs lie beyond p90
MAX_LOOP_SECONDS = 140.0
TRACE_PAIRS = {"hit_dp": 5, "reduce_tables": 10, "spectral_float": 50}
WORKLOAD_NAMES = tuple(TRACE_PAIRS)

CALIBRATION_ITERS = 32_000
REFERENCE_CALIBRATION_S = 0.004  # the loop's time at the reference speed
CALIBRATE_EVERY_S = 0.1


class NoCheckout(Exception):
    """The working tree holds no corrhit sources to benchmark."""


def _calibration_loop() -> float:
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(CALIBRATION_ITERS):
        acc += (i * i) % 7
        table[i & 1023] = acc
    return time.perf_counter() - t0


def calibrate() -> float:
    """Seconds the fixed loop takes now (median of three)."""
    return statistics.median(_calibration_loop() for _ in range(3))


def setup(workload: str, seed: int):
    """Import corrhit and its CLI, build the seeded generator and the first
    round, and warm up every job kind.  Returns (seconds at the reference
    speed, workload, round)."""
    t0 = time.perf_counter()
    if not (SRC / "corrhit" / "__init__.py").is_file():
        raise NoCheckout(f"no corrhit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import corrhit
    import corrhit.cli  # noqa: F401  (its import cost belongs to set-up)

    if Path(corrhit.__file__).resolve().parent != SRC / "corrhit":
        raise NoCheckout(f"corrhit resolved to {corrhit.__file__}, not {SRC}")
    import workloads

    wl = workloads.WORKLOADS[workload](seed)
    first = wl.round()
    for job in wl.warm_up_jobs():  # small inputs: lazy imports and caches fill here
        call(job, None)
        if job.error is not None:  # the timed rounds count such failures
            print(f"warm-up {job.kind} raised {job.error!r}", file=sys.stderr)
    wall = time.perf_counter() - t0
    return wall * REFERENCE_CALIBRATION_S / calibrate(), wl, first


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter, where import cost shows."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def call(job, tracer) -> None:
    """Run one job's library call and record its wall latency."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            job.result = job.call()
        else:
            with tracer.job(job.kind):
                job.result = job.call()
    except Exception as exc:  # a raising job is a failed job
        job.error = exc
    job.latency = time.perf_counter() - t0


def check(jobs) -> None:
    """Check every result of a round (untimed); report the first failures."""
    for job in jobs:
        if job.error is None:
            try:
                job.check(job)
            except Exception as exc:  # a wrong or malformed result is a failed job
                job.error = exc
    for job in [j for j in jobs if j.error is not None][:5]:
        detail = "".join(traceback.format_exception_only(type(job.error), job.error)).strip()
        print(f"FAILED {job.kind}: {detail}", file=sys.stderr)


class Rounds:
    """Runs rounds and scales each job's latency to the reference speed.

    The calibration loop runs whenever CALIBRATE_EVERY_S of job time has
    passed and after every round; the jobs in between are scaled by the mean
    of the two calibrations around them.
    """

    def __init__(self, wl, first):
        self.wl = wl
        self.next_jobs = first
        self.cal = calibrate()
        # only numbers are kept: holding finished jobs would make the
        # runner's memory grow with throughput
        self.wall: list[float] = []
        self.scaled: list[float] = []
        self.cals: list[float] = []
        self.failed = 0

    def _rescale(self, segment) -> None:
        cal = calibrate()
        scale = REFERENCE_CALIBRATION_S / ((self.cal + cal) / 2)
        self.cal = cal
        self.cals.append(cal)
        self.scaled.extend(j.latency * scale for j in segment)

    def run(self, tracer=None) -> list[float]:
        """One round; returns its scaled latencies."""
        jobs = self.next_jobs if self.next_jobs is not None else self.wl.round()
        self.next_jobs = None
        first = len(self.scaled)
        segment, busy = [], 0.0
        if tracer is not None:
            tracer.install()
        try:
            for job in jobs:
                call(job, tracer)
                segment.append(job)
                busy += job.latency
                if busy >= CALIBRATE_EVERY_S:
                    self._rescale(segment)
                    segment, busy = [], 0.0
        finally:
            if tracer is not None:
                tracer.remove()
        self._rescale(segment)
        check(jobs)
        self.wall.extend(j.latency for j in jobs)
        self.failed += sum(1 for j in jobs if j.error is not None)
        return self.scaled[first:]


def latency_metrics(lat: list[float]) -> dict:
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
    return {
        "jobs_per_s": (len(lat) / sum(lat), "jobs/s"),
        "job_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "job_p90_ms": (p90 * 1e3, "ms"),
    }


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OMP_NUM_THREADS"],
        "client": "closed loop, 1 client, 1 process",
    }


def untraced(workload: str, seed: int, seconds: float):
    own, wl, first = setup(workload, seed)
    samples = [own] + [setup_probe(workload, seed) for _ in range(SETUP_SAMPLES - 1)]
    rounds = Rounds(wl, first)
    start = time.perf_counter()
    while True:
        rounds.run()
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(rounds.wall) >= MIN_JOBS) or elapsed >= MAX_LOOP_SECONDS:
            break
    lat = rounds.scaled
    metrics = latency_metrics(lat)
    metrics["setup_s"] = (statistics.median(samples), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    p90 = metrics["job_p90_ms"][0] / 1e3
    wall = rounds.wall
    raw = latency_metrics(wall)
    failed = rounds.failed
    print(f"jobs {len(lat)} (p90 has {sum(1 for x in lat if x > p90)} jobs beyond it), "
          f"timed {sum(wall):.3f} s of {time.perf_counter() - start:.3f} s wall")
    print(f"fail_ratio {failed / len(lat):.6f} ratio ({failed} of {len(lat)})")
    print(f"calibration median {statistics.median(rounds.cals) * 1e3:.3f} ms "
          f"(reference {REFERENCE_CALIBRATION_S * 1e3:.3f} ms)")
    print("wall (unscaled) " + ", ".join(f"{k} {v:.4f} {u}" for k, (v, u) in raw.items()))
    print(f"setup samples {[round(s, 4) for s in samples]}")
    return metrics, len(lat), failed


def traced(workload: str, seed: int):
    from tracing import Tracer

    _, wl, first = setup(workload, seed)
    tracer = Tracer()
    rounds = Rounds(wl, first)
    plain, wrapped = [], []
    for i in range(2 * TRACE_PAIRS[workload]):
        (wrapped if i % 2 else plain).extend(rounds.run(tracer if i % 2 else None))
    metrics = tracer.metrics()
    ratio = (len(wrapped) / sum(wrapped)) / (len(plain) / sum(plain))
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    out = OUT_DIR / f"spans-{workload}-{seed}.json"
    tracer.dump(out)
    print(f"traced jobs {len(wrapped)}, plain jobs {len(plain)}, spans {len(tracer.start)} -> {out}")
    return metrics, len(rounds.wall), rounds.failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            seconds, _, _ = setup(args.workload, args.seed)
            print(json.dumps({"setup_s": seconds}))
            return 0
        if args.trace:
            metrics, attempted, failed = traced(args.workload, args.seed)
        else:
            metrics, attempted, failed = untraced(args.workload, args.seed, args.seconds)
    except NoCheckout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"workload": args.workload, "seed": args.seed, **environment()}))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
