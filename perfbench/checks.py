"""Output checks that do not use the engine.

Each job carries an expected exit code and answers known without the
engine (see workloads.py).  On top of those, the stdout of every job of
the default seed is compared with a digest recorded from a reference run;
the float fields of "approx" documents are left out of the digest and
checked against their known values by tolerance instead.
"""

import hashlib
import json
from fractions import Fraction
from itertools import product
from math import comb

SCHEMA = "nary/1"
APPROX_FIELDS = ("canonical_params",)  # the floats of classification records
TOLERANCE = 1e-9


def cyclic_sums_vanish(m, arity, table, phi):
    """Quasi-Frobenius criterion on a pure odd space, evaluated directly.

    table maps strictly increasing index tuples to {index: coefficient};
    the product of odd basis vectors in any order is the table value times
    the sign of the sorting permutation, and zero on a repeated index.
    """

    def product_of(args):
        if len(set(args)) < len(args):
            return None
        inversions = sum(1 for a in range(len(args))
                         for b in range(a + 1, len(args))
                         if args[a] > args[b])
        vec = table.get(tuple(sorted(args)))
        return None if vec is None else (-1 if inversions % 2 else 1, vec)

    if not any(x for row in phi for x in row):
        return True
    for args in product(range(m), repeat=arity + 1):
        total = Fraction(0)
        for t in range(arity + 1):
            rotated = args[t:] + args[:t]
            val = product_of(rotated[1:])
            if val is not None:
                sign, vec = val
                total += sign * sum(phi[rotated[0]][k] * c
                                    for k, c in vec.items())
        if total != 0:
            return False
    return True


def digest(stdout):
    """Digest of a job's stdout, without the float fields of approx docs."""
    obj = json.loads(stdout)
    if isinstance(obj, dict) and obj.get("approx") is True:
        obj = {k: v for k, v in obj.items() if k not in APPROX_FIELDS}
        stdout = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    return hashlib.sha256(stdout.encode()).hexdigest()[:16]


def _hodge(expect, doc):
    m = expect["m"]
    total = 2 ** m
    rows = doc["degrees"]
    yield doc["m"] == m and doc["total_dim"] == total, "dimensions"
    yield [r["dim"] for r in rows] == [comb(m, p) for p in range(m + 1)], \
        "degree dimensions"
    yield doc["rank_d"] + doc["rank_delta"] + doc["ker_laplacian"] == total, \
        "rank_d + rank_delta + ker_laplacian != 2^m"
    yield doc["direct_sum_ok"] is True and \
        doc["kernel_intersection_ok"] is True, "certificate flags"
    yield doc["ker_laplacian"] == expect["ker"], \
        f"ker_laplacian != {expect['ker']}"
    yield doc["cohomology_total"] == doc["ker_laplacian"], \
        "cohomology != ker_laplacian"
    yield doc["homogeneous"] is expect["homogeneous"], "homogeneous flag"
    yield sum(r["ker_laplacian"] for r in rows) == doc["ker_laplacian"], \
        "degree kernels do not add up"
    if expect["homogeneous"]:
        k = expect["shift"]
        for p, row in enumerate(rows):
            im_d = rows[p - k]["rank_d"] if 0 <= p - k <= m else 0
            im_delta = rows[p + k]["rank_delta"] if 0 <= p + k <= m else 0
            yield im_d + im_delta + row["ker_laplacian"] == comb(m, p), \
                f"degree {p}: im_d + im_delta + ker != C(m,p)"
            yield row["cohomology"] == row["ker_laplacian"], \
                f"degree {p}: cohomology != ker_laplacian"


def _verify(expect, doc):
    passed = expect["exit"] == 0
    yield doc["pass"] is passed, "verdict"
    if doc.get("check") != "l-infinity":  # a residual, never a witness
        yield (doc["witness"] is None) is passed, "witness"
    known = expect.get("obstruction")
    if known:
        res = doc["residual"]
        yield isinstance(res, list) and len(res) == 1 and \
            res[0]["monomial"] == known["monomial"] and \
            abs(Fraction(res[0]["coeff"])) == Fraction(known["abs_coeff"]), \
            "obstruction"


def _tstar(expect, doc):
    yield doc["pass"] is expect["pass"], "verdict"
    yield doc["graph_subalgebra"] is expect["pass"], "graph verdict"
    yield doc["equivalence_ok"] is True, "equivalence_ok"


def _classify(expect, doc):
    m, params = expect["m"], expect["params"]
    rank = 2 * len(params)
    yield doc["m"] == m and doc["approx"] is True, "header"
    yield doc["skew_rank"] == rank, "skew_rank"
    yield doc["simple"] is (rank > 2), "simple"
    yield doc["filippov"] is (rank <= 2), "filippov"
    yield doc["ideal"]["found"] is (rank <= 2), "ideal"
    if m >= 7 or len(params) <= 1:
        yield doc["sh_jacobi"] is True, "sh_jacobi"
    got = doc["canonical_params"]
    yield len(got) == len(params) and all(
        abs(g - p) <= TOLERANCE for g, p in zip(got, sorted(params,
                                                            reverse=True))), \
        "canonical_params"


KNOWN = {"hodge": _hodge, "verify": _verify, "tstar": _tstar,
         "classify": _classify}


def output_problem(expect, stdout):
    """Why a job's stdout is wrong, or None when every known answer holds."""
    if not stdout.endswith("\n") or stdout.count("\n") != 1:
        return "stdout is not one JSON line"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        return "missing schema"
    try:
        for ok, what in KNOWN[expect["check"]](expect, doc):
            if not ok:
                return what
    except (KeyError, TypeError, IndexError, ValueError) as ex:
        return f"malformed report: {ex!r}"
    return None


def judge(execution, expect, expected_digest=None):
    """(failed, wrong, reason) for one executed job.

    failed: the job raised, exited 2 or returned an unexpected exit code;
    wrong: its output broke a known answer or the recorded digest.
    """
    rc = execution["rc"]
    if execution.get("error"):
        return True, False, execution["error"]
    if rc != expect["exit"]:
        return True, False, f"exit code {rc}, expected {expect['exit']}"
    problem = output_problem(expect, execution["stdout"])
    if problem is None and expected_digest is not None and \
            digest(execution["stdout"]) != expected_digest:
        problem = "stdout differs from the recorded digest"
    return problem is not None, problem is not None, problem


def tally(executions, jobs, digests, require_digests):
    """Count failed and wrong jobs; return (failed, wrong, reasons)."""
    failed = wrong = 0
    reasons = []
    for ex in executions:
        spec = jobs[ex["job"]]
        expected = digests.get(spec["key"])
        if expected is None and require_digests:
            bad, bad_output, why = True, True, "no recorded digest"
        else:
            bad, bad_output, why = judge(ex, spec["expect"], expected)
        failed += bad
        wrong += bad_output
        if why and len(reasons) < 5:
            reasons.append(f"{spec['cls']}: {why}")
    return failed, wrong, reasons
