"""The naryalg benchmark: seeded, closed-loop workloads of real CLI jobs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the engine is imported from src/,
not installed).  One client runs one job at a time; each job is a call to
``naryalg.cli.main`` inside a fresh per-workload process (worker.py), with
inputs generated from the seed before timing starts.  Every output is
checked (checks.py).  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

End-to-end metrics (--trace 0):
    setup_s       median wall time of fresh `python -m naryalg.cli` runs of
                  the workload's smallest job (start-up and imports)
    jobs_per_s    jobs per second at the workload's mix: one round of job
                  classes over the sum of their mean latencies
    job_ms.p50    median (Harrell-Davis) of the job classes' mean latencies
    peak_rss_mb   peak resident memory of the workload's process
The three times are taken at a reference speed of the host, measured
alongside them with engine-free work (speed.py), because the shared
host's own speed drifts by more than the changes they must resolve.
The per-layer metrics (--trace 1) come from a separate traced pass over a
fixed number of rounds (spans.py); design.json says which end-to-end
metric and workload each should move.  failed_share and wrong_outputs are
printed for every run, and any failed job or wrong output makes the exit
code 1.

Other modes, none of them gated:
    --self-test        show that corrupted outputs are caught
    --baselines        reproduce the ROADMAP "Recent" baselines
    --record-digests   rewrite digests.json from the current engine
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")

SETUP_SAMPLES = 7
IMPORTTIME_SAMPLES = 5
CHILD_TIMEOUT = 170

# name -> unit; the metrics named in BENCHMARK.json
END_TO_END = {"setup_s": "s", "jobs_per_s": "jobs/s", "job_ms.p50": "ms",
              "peak_rss_mb": "MB"}


def per_layer_units(name):
    if name.endswith("_s"):
        return "s"
    if name == "io.output_bytes":
        return "bytes"
    if name == "trace.overhead":
        return "ratio"
    if name == "classify.canonical_form.residual_max":
        return "1"
    return "count"


def engine_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def prepare(name, seed, workdir):
    """Generate the deck into workdir; return (manifest, probe job)."""
    deck, probe = workloads.build(name, seed)
    jobs, rounds = [], []
    for rnd in deck:
        ids = []
        for spec in rnd:
            argv, key = workloads.materialize(spec, workdir)
            ids.append(len(jobs))
            jobs.append({"cls": spec["cls"], "argv": argv, "key": key,
                         "expect": spec["expect"]})
        rounds.append(ids)
    probe_argv, probe_key = workloads.materialize(probe, workdir)
    with open(DIGESTS) as fh:
        recorded = json.load(fh)
    digests = recorded["workloads"][name] if recorded["seed"] == seed else {}
    manifest = {"workload": name, "seed": seed, "jobs": jobs,
                "rounds": rounds,
                "trace_rounds": workloads.WORKLOADS[name][2],
                "digests": digests,
                "require_digests": seed == workloads.DEFAULT_SEED}
    probe_job = {"cls": probe["cls"], "argv": probe_argv, "key": probe_key,
                 "expect": probe["expect"]}
    return manifest, probe_job


def run_worker(manifest, workdir, mode, seconds):
    path = os.path.join(workdir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), path, mode,
         str(seconds)],
        cwd=ROOT, env=engine_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(probe, digests, require):
    """Median time of fresh `python -m naryalg.cli` runs of the probe, each
    scaled by a reference start run just before it (speed.py); also
    (failed, wrong) over their outputs and the raw median."""

    def start(argv):
        begin = time.perf_counter()
        proc = subprocess.run([sys.executable] + argv, cwd=ROOT,
                              env=engine_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT)
        return time.perf_counter() - begin, proc

    raw, scaled, runs = [], [], []
    for _ in range(SETUP_SAMPLES):
        ref_s, ref = start(speed.REF_START_ARGV)
        if ref.returncode != 0:
            raise RuntimeError(f"reference start failed: {ref.stderr}")
        probe_s, proc = start(["-m", "naryalg.cli"] + probe["argv"])
        raw.append(probe_s)
        scaled.append(probe_s * speed.REF_START_S / ref_s)
        runs.append({"job": 0, "rc": proc.returncode, "stdout": proc.stdout})
    failed, wrong, _ = checks.tally(runs, [probe], digests, require)
    return (statistics.median(scaled), failed, wrong,
            statistics.median(raw))


def parse_importtime(stderr):
    """Cumulative seconds of naryalg and of numpy + scipy, from the
    stderr of `python -X importtime`."""
    lines = [ln for ln in stderr.splitlines()
             if ln.startswith("import time:") and "imported package" not in ln]
    naryalg = heavy = 0
    stack = []
    for line in reversed(lines):  # reversed post-order: parents first
        _, cum_us, field = line.split("|")
        name = field.strip()
        level = (len(field) - len(field.lstrip()) - 1) // 2
        stack = stack[:level]
        root = name.split(".")[0]
        if name == "naryalg":
            naryalg = int(cum_us)
        if root in ("numpy", "scipy") and not any(
                a in ("numpy", "scipy") for a in stack):
            heavy += int(cum_us)
        stack.append(root)
    return naryalg / 1e6, heavy / 1e6


def measure_imports():
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import naryalg"], cwd=ROOT, env=engine_env(),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            raise RuntimeError("import naryalg failed")
        samples.append(parse_importtime(proc.stderr))
    return (statistics.median(s[0] for s in samples),
            statistics.median(s[1] for s in samples))


def run_workload(name, seed, seconds, trace):
    workdir = os.path.join(ROOT, ".bench_work", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        manifest, probe = prepare(name, seed, workdir)
        if trace:
            result = run_worker(manifest, workdir, "trace", seconds)
            imports = measure_imports()
            metrics = dict(result["metrics"])
            metrics["setup.import_naryalg_s"] = imports[0]
            metrics["setup.import_numpy_scipy_s"] = imports[1]
            units = {k: per_layer_units(k) for k in metrics}
            extra_failed, extra_wrong = 0, result["info"]["outputs_differ"]
        else:
            setup_s, extra_failed, extra_wrong, raw_setup = measure_setup(
                probe, manifest["digests"], manifest["require_digests"])
            result = run_worker(manifest, workdir, "timed", seconds)
            metrics = dict(result["metrics"], setup_s=setup_s,
                           peak_rss_mb=result["peak_rss_mb"])
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = result["attempted"] + (0 if trace else SETUP_SAMPLES)
    failed = result["failed"] + extra_failed
    wrong = result["wrong"] + extra_wrong
    reasons = result["reasons"]
    if name == "tstar" and result["verdicts"] != [0, 1]:
        wrong += 1
        reasons.append("tstar: both verdicts must occur")
    correct = failed == 0 and wrong == 0
    info = dict(result["info"], attempted=attempted)
    if not trace:
        info["setup_starts"] = SETUP_SAMPLES
        info["raw_setup_s"] = raw_setup
    print(f"# {name} seed={seed} trace={trace} {json.dumps(info)}")
    units = dict(units, failed_share="ratio", wrong_outputs="count")
    rows = sorted(metrics.items()) + [("failed_share", failed / attempted),
                                      ("wrong_outputs", wrong)]
    for key, value in rows:
        print(f"{name:9s} {key:44s} {value:14.6g} {units[key]}")
    for reason in reasons:
        print(f"# problem: {reason}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in sorted(metrics.items())}}))
    return 0 if correct else 1


def record_digests():
    """Run every deck of the default seed once and store output digests."""
    seed = workloads.DEFAULT_SEED
    table = {}
    for name in workloads.WORKLOADS:
        workdir = os.path.join(ROOT, ".bench_work", f"record-{name}")
        os.makedirs(workdir, exist_ok=True)
        try:
            manifest, probe = prepare(name, seed, workdir)
            manifest["jobs"].append(probe)
            manifest["rounds"].append([len(manifest["jobs"]) - 1])
            manifest["digests"], manifest["require_digests"] = {}, False
            result = run_worker(manifest, workdir, "record", 0)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if result["failed"] or result["wrong"]:
            print(f"{name}: known answers broken: {result['reasons']}")
            return 1
        table[name] = dict(sorted(result["info"]["digests"].items()))
        print(f"{name}: {len(table[name])} digests")
    with open(DIGESTS, "w") as fh:
        json.dump({"seed": seed, "workloads": table}, fh, indent=0,
                  sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--self-test", action="store_true")
    mode.add_argument("--baselines", action="store_true")
    mode.add_argument("--record-digests", action="store_true")
    args = p.parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "naryalg", "cli.py")):
        sys.stderr.write(f"error: no engine sources under {SRC}; run from "
                         "the root of a naryalg checkout\n")
        return 2
    if args.record_digests:
        return record_digests()
    if args.self_test or args.baselines:
        script = "selftest.py" if args.self_test else "baselines.py"
        return subprocess.run([sys.executable, os.path.join(HERE, script)],
                              cwd=ROOT, env=engine_env()).returncode
    if not args.workload:
        p.error("--workload is required")
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
