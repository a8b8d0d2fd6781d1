"""Self-test of the harness: injected faults are counted, tracing is inert.

Runs a cheap slice of every workload's default-seed deck in this process
and shows that
  - every job passes its checks, and traced and untraced runs print the
    same bytes and exit codes;
  - a corrupted output byte, a flipped verdict and a wrong exit code are
    each counted, in wrong_outputs or failed_share, for every job;
  - the metric names the benchmark prints are exactly those in
    BENCHMARK.json and design.json.
Run through ``python3 perfbench/run.py --self-test``.  Exit code 0 on
success.
"""

import json
import os
import re
import shutil
import sys

import checks
import run
import spans
import workloads
from worker import execute

# the cheap classes of each workload, from the first round of its deck
CHEAP = {"hodge": ("cubic-m8",), "verify": ("",),
         "tstar": ("binary-m4", "binary-zero-m4", "binary-phi0-m4"),
         "classify": ("grid-m6-",)}

VERDICTS = (r'"pass":(true|false)', r'"simple":(true|false)',
            r'"direct_sum_ok":(true|false)')


def corrupt_byte(stdout):
    i = len(stdout) // 2
    c = stdout[i]
    new = str((int(c) + 1) % 10) if c.isdigit() else ("x" if c != "x" else "y")
    return stdout[:i] + new + stdout[i + 1:]


def flip_verdict(stdout):
    for pattern in VERDICTS:
        match = re.search(pattern, stdout)
        if match:
            flipped = "false" if match.group(1) == "true" else "true"
            return stdout[:match.start(1)] + flipped + stdout[match.end(1):]
    raise AssertionError(f"no verdict field in {stdout[:80]}")


def main():
    from naryalg import cli
    with open(run.DIGESTS) as fh:
        recorded = json.load(fh)
    failures = []

    def check(ok, what):
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    workdir = os.path.join(run.ROOT, ".bench_work", f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        traced_names = set()
        for name, prefixes in CHEAP.items():
            manifest, probe = run.prepare(name, workloads.DEFAULT_SEED,
                                          workdir)
            jobs = manifest["jobs"] + [probe]
            order = [i for i in manifest["rounds"][0]
                     if jobs[i]["cls"].startswith(prefixes)]
            order.append(len(jobs) - 1)
            digests = recorded["workloads"][name]
            plain = execute(cli, jobs, order)
            recorder = spans.Recorder()
            recorder.install()
            try:
                traced = execute(cli, jobs, order)
            finally:
                recorder.uninstall()
            traced_names |= set(recorder.metrics())
            same = all((a["rc"], a["stdout"]) == (b["rc"], b["stdout"])
                       for a, b in zip(plain, traced))
            check(same, f"{name}: traced and untraced outputs are identical "
                        f"({len(order)} jobs)")
            failed, wrong, reasons = checks.tally(plain, jobs, digests, True)
            check(failed == wrong == 0,
                  f"{name}: clean run counts 0 failed, 0 wrong {reasons}")
            # fault -> (counter it must reach, injection)
            faults = {"corrupted byte": ("wrong_outputs", lambda ex: dict(
                          ex, stdout=corrupt_byte(ex["stdout"]))),
                      "flipped verdict": ("wrong_outputs", lambda ex: dict(
                          ex, stdout=flip_verdict(ex["stdout"]))),
                      "wrong exit code": ("failed_share", lambda ex: dict(
                          ex, rc=1 - ex["rc"])),
                      "raised": ("failed_share", lambda ex: dict(
                          ex, rc=None, error="raised RuntimeError()"))}
            for fault, (counter, inject) in faults.items():
                caught = 0
                for ex in plain:
                    failed, wrong, _ = checks.tally([inject(ex)], jobs,
                                                    digests, True)
                    caught += failed == 1 and (counter == "failed_share"
                                               or wrong == 1)
                check(caught == len(plain),
                      f"{name}: {fault} counted in {counter} for "
                      f"{caught}/{len(plain)} jobs")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    check([m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END),
          "end-to-end metric names match BENCHMARK.json")
    printed = traced_names | {"trace.overhead",
                              "setup.import_naryalg_s",
                              "setup.import_numpy_scipy_s"}
    check({m["name"] for m in bench["per_layer"]} == printed,
          "per-layer metric names match BENCHMARK.json")
    with open(os.path.join(run.HERE, "design.json")) as fh:
        design = json.load(fh)
    check(set(design["per_layer"]) == printed
          and design["default_seed"] == workloads.DEFAULT_SEED,
          "design.json covers every per-layer metric and the default seed")
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
