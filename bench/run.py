"""Benchmark of rscount: one seeded workload, run in this process as a closed
loop with one caller on one thread (each job starts when the previous one has
returned), its outputs checked against the Riemann-Roch oracle.

    python3 bench/run.py --workload {numeric,symbolic,search} --seed N
                         --seconds S --trace {0,1}

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  End-to-end times are rescaled by the host's speed,
which a fixed kernel timed before every job measures (see bench/README.md).  The same object, with the run's context, is written
under bench/results/; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RESULTS = BENCH / "results"
SETUP_SPAWNS = 9        # one spawn varies by tens of ms; report the median
TAIL_BEYOND = 10        # jobs that must lie beyond the tail percentile
REFERENCE_S = 0.5e-3    # the reference kernel's time on the host times are rescaled to

def _import_program():
    sys.path.insert(0, str(SRC))
    try:
        import rscount
    except ImportError as exc:
        sys.exit(f"error: cannot import rscount from {SRC}: {exc}")
    if not Path(rscount.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: rscount was imported from {rscount.__file__}, not from {SRC}")


def _reference_kernel() -> float:
    """Seconds taken by fixed stdlib work that shares no code with rscount:
    rationals with growing integers, and tuple keys in a dict.  The host is
    shared, and its speed swings by up to 2x within seconds; this kernel,
    timed next to every job, measures that speed."""
    start = perf_counter()
    total, table = Fraction(0), {}
    for i in range(1, 100):
        total += Fraction(i**9 + 3, i * i + 1)
        table[i % 7, i % 11, i % 13] = total
    return perf_counter() - start


def _rescale(seconds: float, kernel_times) -> float:
    """Wall time rescaled to a host on which the kernel takes REFERENCE_S."""
    return seconds * REFERENCE_S / statistics.median(kernel_times)


def _setup_seconds(name: str) -> tuple[float, list]:
    """Median over fresh interpreters that import what the workload calls and
    finish its warm-up job, rescaled by the kernel timed around each spawn;
    also the raw spawn times."""
    raw, rescaled = [], []
    for _ in range(SETUP_SPAWNS):
        before = [_reference_kernel() for _ in range(3)]
        start = perf_counter()
        probe = subprocess.run([sys.executable, str(BENCH / "probe.py"), name],
                               stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        raw.append(perf_counter() - start)
        if probe.returncode:
            sys.exit(f"error: set-up probe failed:\n{probe.stderr}")
        rescaled.append(_rescale(raw[-1], before + [_reference_kernel() for _ in range(3)]))
    return statistics.median(rescaled), raw


class ClosedLoop:
    """One caller running whole rounds over a job list, each job starting
    when the previous one has returned.  Keeps the first round's outputs for
    the oracle and compares every later output with them, outside the job
    timer, so that memory does not grow with the number of rounds."""

    def __init__(self, run, jobs):
        self.run, self.jobs = run, jobs
        self.first = [None] * len(jobs)
        self.rounds_done = self.attempted = self.failed = self.changed = 0

    def rounds(self, seconds: float, min_rounds: int, tracer=None) -> list:
        """Whole rounds until `seconds` have passed and at least `min_rounds`
        are done.  Returns (job index, wall time, kernel time) per job run, in
        order; the kernel is timed just before each job."""
        samples = []
        start, rounds = perf_counter(), 0
        while rounds < min_rounds or perf_counter() - start < seconds:
            for index, job in enumerate(self.jobs):
                kernel = _reference_kernel()
                if tracer is not None:
                    tracer.job = index
                began = perf_counter()
                try:
                    code, output = self.run(job.args)
                except Exception:
                    code, output = None, traceback.format_exc()
                samples.append((index, perf_counter() - began, kernel))
                self.attempted += 1
                if code != 0:
                    if not self.failed:
                        print(f"job {job.args} failed ({code}): {output}", file=sys.stderr)
                    self.failed += 1
                elif self.rounds_done == 0:
                    self.first[index] = output
                elif output != self.first[index]:
                    self.changed += 1
            rounds += 1
            self.rounds_done += 1
        return samples

    def correct(self, check) -> bool:
        """Whether the first round's outputs pass `check` and every later
        output equals the first one of its job."""
        errors = [f"job {job.args}: {error}"
                  for job, output in zip(self.jobs, self.first) if output is not None
                  for error in check(job, output)]
        if self.changed:
            errors.append(f"{self.changed} outputs differ from the first round's")
        for error in errors[:5]:
            print(error, file=sys.stderr)
        return not errors


def _job_times(samples, jobs: int) -> list:
    """Each job's rescaled times.  A job's kernel time is the median of the
    kernel timings just before it and before the two jobs on either side, so
    it covers the host's speed both before and after the job."""
    kernels = [kernel for _, _, kernel in samples]
    times = [[] for _ in range(jobs)]
    for i, (index, seconds, _) in enumerate(samples):
        times[index].append(_rescale(seconds, kernels[max(0, i - 2):i + 3]))
    return times


def _typical_round(times) -> float:
    """Seconds for one round made of each job's median time."""
    return sum(statistics.median(t) for t in times)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(workload, loop, seconds, setup_s):
    min_rounds = math.ceil(TAIL_BEYOND / ((1 - workload.tail_percentile / 100) * len(loop.jobs)))
    samples = loop.rounds(seconds, min_rounds)
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    times = _job_times(samples, len(loop.jobs))
    pooled = [t for job_times in times for t in job_times]
    metrics = {
        "jobs_per_s": _metric(len(times) / _typical_round(times), "1/s"),
        "job_p50_s": _metric(statistics.median(pooled), "s"),
        "job_tail_s": _metric(statistics.quantiles(pooled, n=100, method="inclusive")
                              [workload.tail_percentile - 1], "s"),
        "peak_rss_mib": _metric(peak_rss_kib / 1024, "MiB"),
        "setup_s": _metric(setup_s, "s"),
    }
    return metrics, samples


def _per_layer(loop, seconds, spans_path):
    """Untraced rounds for `seconds`, then one traced round; the per-layer
    figures describe that round."""
    from spans import GAUGES, TRACED, Tracer

    untraced = loop.rounds(seconds, 1)
    tracer = Tracer()
    with tracer.traced():
        traced = loop.rounds(0, 1, tracer)
    jobs = len(loop.jobs)
    tracer.write_spans(spans_path)
    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = _metric(tracer.calls[name], "count")
        metrics[f"{name}.self_s"] = _metric(tracer.self_s[name], "s")
    for name, unit in GAUGES.items():
        metrics[name] = _metric(tracer.gauges[name], unit)
    metrics["rsbounds.search_steps"] = _metric(
        tracer.edges["rsbounds.find_degree_exceeding", "charclass.char_number"], "count")
    metrics["trace.overhead"] = _metric(
        _typical_round(_job_times(traced, jobs)) / _typical_round(_job_times(untraced, jobs)) - 1,
        "ratio")
    return metrics, untraced + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("numeric", "symbolic", "search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    jobs = workload.make_jobs(args.seed)
    loop = ClosedLoop(workload.runner(), jobs)
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setup_raw = None
    if args.trace:
        metrics, samples = _per_layer(loop, args.seconds, stem.with_suffix(".spans.jsonl"))
    else:
        setup_s, setup_raw = _setup_seconds(args.workload)
        loop.run(workload.warmup)
        metrics, samples = _end_to_end(workload, loop, args.seconds, setup_s)
    result = {"correct": loop.correct(workload.check), "attempted": loop.attempted,
              "failed": loop.failed, "metrics": metrics}
    context = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "jobs_per_round": len(jobs), "rounds": loop.rounds_done,
               "tail_percentile": workload.tail_percentile,
               "python": platform.python_version(), "machine": platform.machine()}
    raw = {"setup_s": setup_raw, "jobs": [list(map(str, job.args)) for job in jobs],
           "samples": samples}     # (job index, wall time, kernel time), in order
    record = {**context, **result, "reference_s": REFERENCE_S, "raw": raw}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
