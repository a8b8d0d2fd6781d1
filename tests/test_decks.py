"""The seed-1 benchmark decks replay through the CLI with their digests.

Each deck of ``perfbench/workloads.py`` at the default seed, its probe job
included, is written under ``tmp_path``, run in-process through
``naryalg.cli.main`` by the worker's ``execute``, and judged by
``perfbench/checks.py`` against the known answers and the stdout digests
in ``perfbench/digests.json``.  A change to any output byte of the four
workloads fails here, not only in a benchmark run.  A change made on
purpose reruns ``python3 perfbench/run.py --record-digests``.  The
classify deck also shows that ``find_ideal`` certifies every simple job
before its commutant stage, and no job leaves a reference cycle behind.
"""

import gc
import json
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from naryalg import classify, cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["hodge", "verify", "tstar", "classify"])
def test_seed_one_deck_matches_its_digests(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import worker
    import workloads

    digests = json.loads((PERFBENCH / "digests.json").read_text())
    assert digests["seed"] == workloads.DEFAULT_SEED
    recorded = digests["workloads"][name]
    deck, probe = workloads.build(name, workloads.DEFAULT_SEED)
    specs = [spec for rnd in deck for spec in rnd] + [probe]
    failed, reasons = 0, {}
    for spec in specs:
        argv, key = workloads.materialize(spec, str(tmp_path))
        if key in recorded:
            (execution,) = worker.execute(cli, [{"argv": argv}], [0])
            bad, _, why = checks.judge(execution, spec["expect"],
                                       recorded[key])
        else:
            bad, why = True, "no recorded digest"
        failed += bad
        if bad:
            reasons.setdefault(spec["cls"], why)
    first = [f"{cls}: {why}" for cls, why in list(reasons.items())[:5]]
    assert not failed, f"{failed} of {len(specs)} jobs failed: {first}"


def test_no_simple_classify_job_reaches_the_commutant(tmp_path, monkeypatch):
    # the closure certifies every simple job of the seed-1 classify deck
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    calls = []
    commutant = classify._commutant

    def counted(operators, m):
        calls.append(m)
        return commutant(operators, m)

    monkeypatch.setattr(classify, "_commutant", counted)
    deck, _ = workloads.build("classify", workloads.DEFAULT_SEED)
    simple = 0
    for spec in (spec for rnd in deck for spec in rnd):
        argv, _ = workloads.materialize(spec, str(tmp_path))
        calls.clear()
        with redirect_stdout(StringIO()):
            assert cli.main(argv) == 0
        if len(spec["expect"]["params"]) > 1:  # skew rank above 2
            simple += 1
            assert not calls, spec["cls"]
    assert simple == 40


def test_jobs_leave_no_cyclic_garbage(tmp_path, monkeypatch):
    # one job of each class of round 0 of every deck; with the cyclic
    # collector off, whatever a job leaves in a cycle is found by collect()
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    jobs = {}
    for name in ("hodge", "verify", "tstar", "classify"):
        deck, _ = workloads.build(name, workloads.DEFAULT_SEED)
        for spec in deck[0]:
            key = f"{name}/{spec['cls']}"
            if key not in jobs:
                jobs[key] = workloads.materialize(spec, str(tmp_path))[0]
    left = {}
    cli._parser()  # built once per process; argparse leaves cycles there
    gc.collect()
    gc.disable()
    try:
        for key, argv in jobs.items():
            with redirect_stdout(StringIO()):
                cli.main(argv)
            left[key] = gc.collect()
    finally:
        gc.enable()
    assert len(jobs) > 20
    assert not any(left.values()), {k: n for k, n in left.items() if n}
