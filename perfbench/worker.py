"""Runs one workload's jobs inside a fresh process.

Started by run.py with the engine's sources on PYTHONPATH, so that peak
memory and import effects belong to one workload.  Each job is one call to
``naryalg.cli.main(argv)``, one at a time, with stdout and stderr captured;
outputs are checked after timing ends.  Prints one JSON line.

    python3 perfbench/worker.py MANIFEST {timed,trace,record} SECONDS
"""

import json
import math
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import checks
import spans
import speed

# job seconds between two samples of the reference loop
REF_EVERY_S = 0.2


def execute(cli, jobs, order):
    """Run the jobs with the given indices; one execution record each."""
    out = []
    for idx in order:
        stdout, stderr = StringIO(), StringIO()
        error = None
        start = time.perf_counter()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                rc = cli.main(list(jobs[idx]["argv"]))
        except SystemExit as ex:
            rc = ex.code
        except Exception as ex:  # a crash is a failed job, not a dead run
            rc, error = None, f"raised {ex!r}"
        elapsed = time.perf_counter() - start
        out.append({"job": idx, "rc": rc, "stdout": stdout.getvalue(),
                    "error": error, "start": start, "seconds": elapsed})
    return out


def harrell_davis_median(xs, steps=200):
    """The Harrell-Davis estimate of the median: a Beta((n+1)/2, (n+1)/2)
    weighted mean of the order statistics.  Unlike the sample median it
    moves smoothly when neighbouring values trade places, which matters
    when job classes of different cost sit on either side of the middle."""
    xs = sorted(xs)
    n = len(xs)
    a = (n + 1) / 2
    h = 1 / (n * steps)
    weights = []
    for i in range(n):  # midpoint rule for the Beta mass on [i/n, (i+1)/n]
        weights.append(sum(
            math.exp((a - 1) * (math.log(x) + math.log1p(-x)))
            for x in ((i * steps + j + 0.5) * h for j in range(steps))))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def timed(cli, manifest, seconds):
    """Jobs in deck order, one at a time, until `seconds` have passed.

    Between jobs, whenever REF_EVERY_S of job time has passed, the
    reference loop is timed (speed.py), and every job's time is scaled to
    the reference speed around it.  Each job class (a position in the
    round) is weighted equally, so the numbers describe the workload's
    stated mix even when the time runs out in the middle of a round:
    throughput is one round of classes over the sum of their mean scaled
    latencies, and the median latency is the median over the classes'
    mean scaled latencies.
    """
    jobs, rounds = manifest["jobs"], manifest["rounds"]
    width = len(rounds[0])
    executions = []
    ref = speed.Speed()
    since = REF_EVERY_S
    start = time.perf_counter()
    while len(executions) < width or time.perf_counter() - start < seconds:
        if since >= REF_EVERY_S:
            ref.sample()
            since = 0.0
        k = len(executions)
        executions += execute(cli, jobs,
                              [rounds[k // width % len(rounds)][k % width]])
        since += executions[-1]["seconds"]
    ref.sample()
    wall = time.perf_counter() - start
    for ex in executions:
        ex["scaled"] = ex["seconds"] * ref.scale(
            ex["start"], ex["start"] + ex["seconds"])

    def per_class(field):
        return [statistics.fmean(ex[field] for ex in executions[c::width])
                for c in range(width)]

    mean, raw = per_class("scaled"), per_class("seconds")
    metrics = {"jobs_per_s": width / sum(mean),
               "job_ms.p50": 1000 * harrell_davis_median(mean)}
    return executions, metrics, {
        "rounds": len(executions) / width, "classes": width, "wall_s": wall,
        "raw_jobs_per_s": width / sum(raw),
        "raw_job_ms.p50": 1000 * harrell_davis_median(raw),
        "ref_samples": len(ref.secs), "ref_ms.p50": 1000 * ref.median_s()}


def traced(cli, manifest):
    """The first trace_rounds rounds untraced, traced, then untraced again.

    The overhead compares the traced pass with the mean of the untraced
    passes on either side, so first-call costs do not hide in it.
    """
    jobs = manifest["jobs"]
    order = [i for rnd in manifest["rounds"][:manifest["trace_rounds"]]
             for i in rnd]
    passes, walls = [], []
    recorder = spans.Recorder()
    for traced_pass in (False, True, False):
        if traced_pass:
            recorder.install()
        try:
            start = time.perf_counter()
            passes.append(execute(cli, jobs, order))
            walls.append(time.perf_counter() - start)
        finally:
            recorder.uninstall()
    metrics = recorder.metrics()
    metrics["trace.overhead"] = walls[1] / ((walls[0] + walls[2]) / 2)
    differ = sum(1 for runs in zip(*passes)
                 if len({(ex["rc"], ex["stdout"]) for ex in runs}) > 1)
    return sum(passes, []), metrics, {"outputs_differ": differ,
                                      "traced_jobs": len(order)}


def recorded(cli, manifest):
    """Every deck round once; the digests of the outputs, by job key."""
    jobs = manifest["jobs"]
    order = [i for rnd in manifest["rounds"] for i in rnd]
    executions = execute(cli, jobs, order)
    digests = {}
    for ex in executions:
        if ex["rc"] in (0, 1):
            digests[jobs[ex["job"]]["key"]] = checks.digest(ex["stdout"])
    return executions, {}, {"digests": digests}


def main(argv):
    manifest_path, mode, seconds = argv[0], argv[1], float(argv[2])
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    from naryalg import cli
    if mode == "timed":
        executions, metrics, info = timed(cli, manifest, seconds)
    elif mode == "trace":
        executions, metrics, info = traced(cli, manifest)
    else:
        executions, metrics, info = recorded(cli, manifest)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed, wrong, reasons = checks.tally(
        executions, manifest["jobs"], manifest["digests"],
        manifest["require_digests"])
    verdicts = sorted({ex["rc"] for ex in executions if ex["rc"] in (0, 1)})
    print(json.dumps({"attempted": len(executions), "failed": failed,
                      "wrong": wrong, "reasons": reasons,
                      "verdicts": verdicts, "peak_rss_mb": peak_kb / 1024,
                      "metrics": metrics, "info": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
