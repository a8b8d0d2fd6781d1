"""Batch command line front end.

Every subcommand reads JSON files, writes one JSON report (or JSON lines
for tables), and exits with 0 on success/pass, 1 on an identity-check
failure, 2 on bad input.  The ``naryalg`` command runs one job per
process.  A batch driver may instead call ``main(argv)`` once per job in
one process, as the benchmark harness ``perfbench/worker.py`` does; the
argparse parser is then built on the first call and reused, and no option
carries over from one call to the next.

``verify`` runs the identities of one table, ``IDENTITIES``, and two
that read more files: ``derivation`` and ``quasi-frobenius``, whose helper
``frobenius`` shares.

Each subcommand accepts only the options it reads, spelled in full (no
parser takes a unique prefix for an option).  ``--pretty`` and ``--output``
go after any subcommand; ``--space`` after every one but ``table``, which
builds its own spaces; ``--exhaustive`` after ``verify``.  ``classify``
also accepts ``--seed`` and ignores it: no search is randomized, but batch
drivers pass it.  The degree cap of a space with even generators is the
space document's ``max_degree``; no option overrides it.  A report that
cannot be written to ``--output`` exits 2, as bad input does.
"""

import argparse
import functools
import sys
from itertools import combinations_with_replacement
from math import comb

from . import io
from .classify import classify_m3, skew_to_element
from .derived import (
    check_associative,
    check_commutative,
    check_derivation,
    check_filippov,
    check_invariant,
    check_jordan,
    check_l_infinity,
    check_nary_jacobi,
    derive_structure,
)
from .errors import DimensionTooSmall, NaryError, OddArity, SchemaError
from .frobenius import check_quasi_frobenius, graph_subalgebra_test, \
    t_star_extension
from .hodge import HodgeContext, hodge_decomposition, require_dim, star
from .poisson import Element, poisson_bracket
from .superspace import odd_space


def _write(args, text):
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as ex:
            raise SchemaError("--output", f"cannot write file: {ex}") from None
    else:
        sys.stdout.write(text)


def _emit(args, obj):
    _write(args, io.dumps(obj, pretty=args.pretty))


def _load_space(args):
    return io.parse_superspace(io.load_file(args.space))


def _load_structure(space, args):
    if args.structure:
        return io.parse_structure(space, io.load_file(args.structure))
    if not args.potential:
        raise NaryError("need --structure or --potential")
    return derive_structure(_load_potential(space, args))


def _load_potential(space, args):
    if not args.potential:
        raise NaryError("need --potential")
    return io.parse_potential(space, io.load_file(args.potential))


# identity -> (it reads a structure, not a potential; its check).  A check
# is called by its name here, so a span wrapper bound to it sees the call.
IDENTITIES = {
    "commutative": (True, lambda x, ex: check_commutative(x, exhaustive=ex)),
    "invariant": (True, lambda x, ex: check_invariant(x, exhaustive=ex)),
    "l-infinity": (False, lambda x, ex: check_l_infinity(x)),
    "nary-jacobi": (True, lambda x, ex: check_nary_jacobi(x, exhaustive=ex)),
    "filippov": (False, lambda x, ex: check_filippov(x, exhaustive=ex)),
    "jordan": (False, lambda x, ex: check_jordan(x, exhaustive=ex)),
    "associative": (False, lambda x, ex: check_associative(x, exhaustive=ex)),
}


def _quasi_frobenius(args, space, graph=False):
    """The quasi-Frobenius certificate of the structure for --phi, with the
    graph-subalgebra test when ``graph``; the structure is read first."""
    if not args.phi:
        raise NaryError("quasi-frobenius check needs --phi")
    s = _load_structure(space, args)
    if graph and args.allow_odd_arity and s.arity % 2:
        # as graph_subalgebra_test would, after the m^(n+1) cyclic loop
        raise OddArity("the correspondence is stated for even arity")
    phi = io.parse_matrix(io.load_file(args.phi), space.dim)
    cert = check_quasi_frobenius(space, s, phi,
                                 allow_odd_arity=args.allow_odd_arity)
    out = io.qf_certificate_to_json(cert)
    if graph:
        ext = t_star_extension(space, s)
        graph_ok = graph_subalgebra_test(ext, phi)
        out["graph_subalgebra"] = graph_ok
        out["equivalence_ok"] = graph_ok == cert.passed
    _emit(args, out)
    return 0 if cert.passed else 1


def cmd_verify(args):
    space = _load_space(args)
    if args.identity == "quasi-frobenius":
        return _quasi_frobenius(args, space)
    if args.identity == "derivation":
        if not args.element:
            raise NaryError("derivation check needs --element")
        w = io.parse_element(space, io.load_file(args.element))
        ok = check_derivation(w, _load_potential(space, args))
        _emit(args, {"schema": io.SCHEMA, "check": "derivation", "pass": ok})
        return 0 if ok else 1
    structure, check = IDENTITIES[args.identity]
    load = _load_structure if structure else _load_potential
    rep = check(load(space, args), args.exhaustive)
    _emit(args, io.check_report_to_json(rep))
    return 0 if rep.passed else 1


def cmd_derive(args):
    space = _load_space(args)
    mu = _load_potential(space, args)
    _emit(args, io.structure_to_json(derive_structure(mu)))
    return 0


def cmd_star(args):
    space = _load_space(args)
    ctx = HodgeContext(space)
    v = io.parse_element(space, io.load_file(args.element))
    _emit(args, io.element_to_json(star(ctx, v)))
    return 0


def cmd_bracket(args):
    space = _load_space(args)
    a = io.parse_element(space, io.load_file(args.a))
    b = io.parse_element(space, io.load_file(args.b))
    _emit(args, io.element_to_json(poisson_bracket(a, b)))
    return 0


def cmd_hodge(args):
    space = _load_space(args)
    ctx = HodgeContext(space)
    mu = _load_potential(space, args)
    rep = hodge_decomposition(ctx, mu)
    _emit(args, io.hodge_report_to_json(rep))
    return 0 if (rep.direct_sum_ok and rep.kernel_intersection_ok) else 1


def cmd_classify(args):
    space = _load_space(args)
    if args.skew:
        mat = io.parse_matrix(io.load_file(args.skew), space.dim)
        v = skew_to_element(space, mat)
    elif args.v:
        v = io.parse_element(space, io.load_file(args.v))
    else:
        raise NaryError("need --v or --skew")
    rec = classify_m3(v)
    _emit(args, io.classification_record_to_json(rec))
    return 0


# A table job at m = 14, the largest dimension require_dim admits, took
# 0.1 s (v = 0) to 0.9 s (full rank) on a 2-vCPU host, so this many jobs
# bound a table at about 15 minutes; jobs at smaller m cost less.
TABLE_JOB_BUDGET = 1000


def cmd_table(args):
    # non-increasing parameter tuples, the canonical ordering
    values = sorted(set(args.grid), reverse=True)
    for m in args.m:  # refused before any space is built
        require_dim(m)
    if min(args.m) <= 4:  # refused before the budget reads C(., m // 2)
        raise DimensionTooSmall("classification needs dimension > 4")
    jobs = sum(comb(len(values) + m // 2 - 1, m // 2) for m in args.m)
    if jobs > TABLE_JOB_BUDGET:
        raise NaryError(f"the table would run {jobs} classify jobs, above "
                        f"the work budget of {TABLE_JOB_BUDGET}")
    lines = []
    for m in args.m:
        space = odd_space(m)
        k = m // 2
        for params in combinations_with_replacement(values, k):
            v = Element(space, {(2 * t, 2 * t + 1): params[t]
                                for t in range(k) if params[t] != 0})
            rec = classify_m3(v)
            lines.append(io.dumps(io.classification_record_to_json(rec)))
    _write(args, "".join(lines))
    return 0


def cmd_frobenius(args):
    return _quasi_frobenius(args, _load_space(args), graph=args.graph)


def build_parser():
    shared = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    shared.add_argument("--pretty", action="store_true",
                        help="indent JSON output")
    shared.add_argument("--output", help="write the report to a file")
    p = argparse.ArgumentParser(
        prog="naryalg", allow_abbrev=False,
        description="Exact engine for commutative n-ary superalgebras "
                    "with an invariant form")
    sub = p.add_subparsers(dest="command", required=True)

    def add_cmd(name, help_text, space=True):
        sp = sub.add_parser(name, help=help_text, parents=[shared],
                            allow_abbrev=False)
        if space:
            sp.add_argument("--space", required=True, help="superspace JSON")
        return sp

    v = add_cmd("verify", "run an identity check")
    v.add_argument("--exhaustive", action="store_true",
                   help="collect all violations, not just the first (it "
                        "changes nothing for l-infinity, derivation and "
                        "quasi-frobenius, whose reports hold at most one "
                        "witness)")
    v.add_argument("--identity", required=True,
                   choices=[*IDENTITIES, "derivation", "quasi-frobenius"])
    v.add_argument("--potential")
    v.add_argument("--structure")
    v.add_argument("--element", help="degree-2 element for derivation checks")
    v.add_argument("--phi", help="bilinear form for quasi-frobenius checks")
    v.add_argument("--allow-odd-arity", action="store_true")
    v.set_defaults(fn=cmd_verify)

    d = add_cmd("derive", "structure constants of a potential")
    d.add_argument("--potential", required=True)
    d.set_defaults(fn=cmd_derive)

    s = add_cmd("star", "apply the star operator")
    s.add_argument("--element", required=True)
    s.set_defaults(fn=cmd_star)

    b = add_cmd("bracket", "bracket of two elements")
    b.add_argument("--a", required=True)
    b.add_argument("--b", required=True)
    b.set_defaults(fn=cmd_bracket)

    h = add_cmd("hodge", "decomposition certificate")
    h.add_argument("--potential", required=True)
    h.set_defaults(fn=cmd_hodge)

    c = add_cmd("classify", "classification record of one algebra")
    c.add_argument("--v", help="degree-2 element JSON")
    c.add_argument("--skew", help="skew matrix JSON")
    c.add_argument("--seed", type=int, default=0,
                   help="accepted and ignored: no search is randomized")
    c.set_defaults(fn=cmd_classify)

    t = add_cmd("table", "classification table as JSON lines", space=False)
    t.add_argument("--m", type=int, nargs="+", required=True)
    t.add_argument("--grid", type=int, nargs="+", default=[0, 1, 2])
    t.set_defaults(fn=cmd_table)

    f = add_cmd("frobenius", "quasi-Frobenius certificate")
    f.add_argument("--potential")
    f.add_argument("--structure")
    f.add_argument("--phi", required=True)
    f.add_argument("--graph", action="store_true",
                   help="also run the graph-subalgebra test")
    f.add_argument("--allow-odd-arity", action="store_true")
    f.set_defaults(fn=cmd_frobenius)
    return p


@functools.cache
def _parser():
    # parse_args leaves the parser unchanged, so one serves every call
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except NaryError as ex:
        sys.stderr.write(io.dumps({"schema": io.SCHEMA, "error": str(ex),
                                   "kind": type(ex).__name__}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
