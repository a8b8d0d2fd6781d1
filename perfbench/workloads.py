"""Seeded job decks for the four benchmark workloads.

A deck is a list of rounds; a round holds one job of every class the
workload mixes, so every complete round has the same shape and a run that
always finishes its rounds measures the same mix on every seed.  The seed
only changes the random content (which generators, which coefficients,
which forms), never the classes or their sizes.

Inputs are written as JSON documents by this module alone, without the
engine.  Every job carries its expected exit code and the answers that are
known without running the engine: closed-form cohomology dimensions,
classification theorems, hand-checked obstructions and an independent
cyclic-sum evaluation (see checks.py).
"""

import hashlib
import json
import os
import random
from fractions import Fraction
from itertools import combinations

from checks import SCHEMA, cyclic_sums_vanish

DEFAULT_SEED = 1

COEFFS = [Fraction(c) for c in (1, -1, 2, -2, 3)] + [Fraction(1, 2),
                                                     Fraction(-3, 2)]
DIAG = [Fraction(c) for c in (2, 3)] + [Fraction(1, 2), Fraction(3, 2)]


# ---------------------------------------------------------------------------
# JSON documents


def _q(x):
    return str(Fraction(x))


def space_doc(parity, gram):
    return {"schema": SCHEMA, "dim": len(parity),
            "parity": ["odd" if p else "even" for p in parity],
            "gram": [[_q(x) for x in row] for row in gram]}


def odd_space_doc(m):
    return space_doc([1] * m, [[int(i == j) for j in range(m)]
                               for i in range(m)])


def symplectic_doc(m):
    gram = [[0] * m for _ in range(m)]
    for i in range(0, m, 2):
        gram[i][i + 1], gram[i + 1][i] = 1, -1
    return space_doc([0] * m, gram)


def element_doc(terms):
    """terms: {sorted 0-based index tuple: coefficient}."""
    return [{"monomial": [i + 1 for i in mono], "coeff": _q(c)}
            for mono, c in sorted(terms.items()) if c != 0]


def potential_doc(terms):
    degree = len(next(iter(terms)))
    return {"schema": SCHEMA, "arity": degree - 1,
            "element": element_doc(terms)}


def structure_doc(table, arity):
    return {"schema": SCHEMA, "arity": arity,
            "constants": [{"args": [i + 1 for i in key],
                           "value": element_doc({(k,): c
                                                 for k, c in vec.items()})}
                          for key, vec in sorted(table.items())]}


def matrix_doc(mat):
    return {"schema": SCHEMA, "matrix": [[_q(x) for x in row] for row in mat]}


# ---------------------------------------------------------------------------
# random content


def _coeff(rng):
    return rng.choice(COEFFS)


def _disjoint_monomials(rng, indices, sizes):
    pool = list(indices)
    rng.shuffle(pool)
    out = []
    for s in sizes:
        out.append(tuple(sorted(pool[:s])))
        pool = pool[s:]
    return out


def _skew(rng, m, nonzero):
    phi = [[Fraction(0)] * m for _ in range(m)]
    if not nonzero:
        return phi
    while all(x == 0 for row in phi for x in row):
        for i in range(m):
            for j in range(i + 1, m):
                c = Fraction(rng.randint(-2, 2))
                phi[i][j], phi[j][i] = c, -c
    return phi


def _random_structure(rng, m, arity, zero=False):
    """Random table on strictly increasing keys (an odd-space structure)."""
    table = {}
    if zero:
        return table
    for key in combinations(range(m), arity):
        vec = {k: _coeff(rng) for k in range(m) if rng.random() < 0.5}
        if vec:
            table[key] = vec
    return table


def star_sign(mono, m):
    """Sign of star(e_mono) = sign * e_complement (standard orientation).

    The signature of (reversed(mono), complement) as a permutation.
    """
    comp = [i for i in range(m) if i not in mono]
    seq = list(reversed(mono)) + comp
    inversions = sum(1 for a in range(m) for b in range(a + 1, m)
                     if seq[a] > seq[b])
    return (-1) ** inversions, tuple(comp)


def hodge_kernel(m, sizes):
    """dim Ker(Laplacian) of d = [mu, -] for disjoint monomials of the sizes.

    On the generators of one monomial e_S (|S| = s >= 3) the differential
    sends each generator e_i to +-e_{S-i} and kills every other monomial,
    so its cohomology has dimension 2^s - 2s; disjoint blocks and the
    unused generators combine by the Kunneth formula.
    """
    if 1 in sizes:
        return 0  # [e_a, -] contracts e_a: an acyclic factor
    out = 2 ** (m - sum(sizes))
    for s in sizes:
        out *= 2 ** s - 2 * s
    return out


# ---------------------------------------------------------------------------
# jobs


def job(cls, argv, files, expect):
    """argv names input files as '@name'; files maps each name to a doc."""
    return {"cls": cls, "argv": argv, "files": files, "expect": expect}


def _hodge_job(cls, m, terms, family=False):
    """terms: {monomial: coefficient} with pairwise disjoint monomials."""
    sizes = [len(s) for s in terms]
    if family:
        pot = {"schema": SCHEMA,
               "linf": [element_doc({s: c}) for s, c in terms.items()]}
    else:
        pot = potential_doc(terms)
    expect = {"exit": 0, "check": "hodge", "m": m,
              "ker": hodge_kernel(m, sizes), "homogeneous": not family}
    if not family:
        expect["shift"] = sizes[0] - 2
    return job(cls, ["hodge", "--space", "@space", "--potential", "@mu"],
               {"space": odd_space_doc(m), "mu": pot}, expect)


def hodge_round(rng):
    """Hodge certificates: a few large +-1 elimination blocks per job."""

    def disjoint(m, sizes):
        return {s: _coeff(rng) for s in _disjoint_monomials(rng, range(m),
                                                            sizes)}

    pair = tuple(sorted(rng.sample(range(9), 2)))
    sign, comp = star_sign(pair, 9)
    return [
        _hodge_job("cubic-m8", 8, disjoint(8, [3])),
        _hodge_job("cubics-m8", 8, disjoint(8, [3, 3])),
        _hodge_job("quintic-m8", 8, disjoint(8, [5])),
        _hodge_job("star-m9", 9, {comp: sign * _coeff(rng)}),
        # a degree-1 layer makes the complex acyclic: Ker L = 0, and the
        # family takes the full 2^m-matrix path
        _hodge_job("layers13-m7", 7, disjoint(7, [1, 3]), family=True),
    ]


def _verify(cls, identity, files, exit_code, exhaustive=False, **known):
    argv = ["verify", "--space", "@space", "--identity", identity]
    for name in files:
        if name != "space":
            argv += [f"--{name}", f"@{name}"]
    if exhaustive:
        argv.append("--exhaustive")
    return job(cls, argv, files,
               dict({"exit": exit_code, "check": "verify"}, **known))


def _obstruction(gram_diag, a_mono, a_coeff, b_mono, b_coeff, shared):
    """Known [mu, mu] of two monomials sharing exactly one odd generator.

    Only the pairing of the shared generator survives, so the obstruction
    is one monomial (both monomials minus the shared factor) with
    coefficient +-2 * g_shared * a_coeff * b_coeff.
    """
    rest = sorted([i for i in a_mono if i != shared]
                  + [i for i in b_mono if i != shared])
    return {"monomial": [i + 1 for i in rest],
            "abs_coeff": _q(abs(2 * gram_diag * a_coeff * b_coeff))}


def _odd_potentials(rng, m):
    """A passing and a failing cubic potential on an odd orthonormal space."""
    k = rng.randint(2, m // 3)
    passing = {s: _coeff(rng)
               for s in _disjoint_monomials(rng, range(m), [3] * k)}
    pool = list(range(m))
    rng.shuffle(pool)
    shared, rest = pool[0], pool[1:]
    a = tuple(sorted([shared] + rest[:2]))
    b = tuple(sorted([shared] + rest[2:4]))
    extra = _disjoint_monomials(rng, rest[4:],
                                [3] * rng.randint(0, len(rest[4:]) // 3))
    failing = {a: _coeff(rng), b: _coeff(rng)}
    failing.update({s: _coeff(rng) for s in extra})
    known = _obstruction(1, a, failing[a], b, failing[b], shared)
    return passing, failing, known


def _mixed_space(rng):
    """Four even generators (two symplectic pairs) and six odd ones with a
    diagonal, non-identity Gram block."""
    parity = [0] * 4 + [1] * 6
    gram = [[Fraction(0)] * 10 for _ in range(10)]
    for i in (0, 2):
        g = _coeff(rng)
        gram[i][i + 1], gram[i + 1][i] = g, -g
    for i in range(4, 10):
        gram[i][i] = rng.choice(DIAG)
    return parity, gram


def _mixed_potentials(rng, gram):
    """Degree-4 potentials x * t_a t_b t_c on the mixed space.

    Even factors come from one generator of each symplectic pair, so they
    never pair with each other; odd supports are disjoint (pass) or share
    exactly one generator (fail, with a known obstruction).
    """
    odd = list(range(4, 10))
    rng.shuffle(odd)

    def mono(even, odds):
        return tuple(sorted([even] + list(odds)))

    passing = {mono(rng.choice((0, 2)), odd[:3]): _coeff(rng),
               mono(rng.choice((0, 2)), odd[3:]): _coeff(rng)}
    shared = odd[0]
    a = mono(rng.choice((0, 2)), odd[:3])
    b = mono(rng.choice((0, 2)), [shared] + odd[3:5])
    failing = {a: _coeff(rng), b: _coeff(rng)}
    known = _obstruction(gram[shared][shared], a, failing[a], b, failing[b],
                         shared)
    return passing, failing, known


def _lagrangian_cubic(rng, m):
    """Cubic in x_1, x_3, ...: no two factors pair, so every bracket of
    its derivatives vanishes and the Jordan and associativity criteria
    hold."""
    gens = list(range(0, m, 2))
    terms = {}
    while len(terms) < 3:
        terms[tuple(sorted(rng.choice(gens) for _ in range(3)))] = \
            _coeff(rng)
    return terms


def _paired_cubic(rng, m):
    """c * x_p x_q x_r with (p, q) a symplectic pair: [mu_p, mu_q] is a
    nonzero multiple of x_r^2, so associativity fails."""
    pairs = list(range(0, m, 2))
    p, r = rng.sample(pairs, 2)
    return {tuple(sorted((p, p + 1, r))): _coeff(rng)}


def verify_round(rng):
    """Identity checks: brackets and tuple loops, no linear algebra."""
    jobs = []
    for m in (9, 10, 11, 12):
        space = odd_space_doc(m)
        passing, failing, known = _odd_potentials(rng, m)
        p = {"space": space, "potential": potential_doc(passing)}
        f = {"space": space, "potential": potential_doc(failing)}
        for ident in ("invariant", "nary-jacobi", "filippov", "l-infinity"):
            jobs.append(_verify(f"{ident}-pass-m{m}", ident, p, 0))
        jobs.append(_verify(f"invariant-derived-m{m}", "invariant", f, 0))
        jobs.append(_verify(f"nary-jacobi-fail-m{m}", "nary-jacobi", f, 1,
                            exhaustive=True))
        jobs.append(_verify(f"filippov-fail-m{m}", "filippov", f, 1,
                            exhaustive=True))
        jobs.append(_verify(f"l-infinity-fail-m{m}", "l-infinity", f, 1,
                            obstruction=known))
    # star(v) for a degree-2 v: Filippov exactly when rank(v) <= 2
    for m, pairs, exit_code in ((11, 1, 0), (10, 2, 1)):
        idx = _disjoint_monomials(rng, range(m), [2] * pairs)
        terms = {}
        for pair in idx:
            sign, comp = star_sign(pair, m)
            terms[comp] = sign * _coeff(rng)
        jobs.append(_verify(f"filippov-star-rank{2 * pairs}-m{m}",
                            "filippov",
                            {"space": odd_space_doc(m),
                             "potential": potential_doc(terms)},
                            exit_code, exhaustive=bool(exit_code)))
    parity, gram = _mixed_space(rng)
    space = space_doc(parity, gram)
    passing, failing, known = _mixed_potentials(rng, gram)
    p = {"space": space, "potential": potential_doc(passing)}
    f = {"space": space, "potential": potential_doc(failing)}
    for ident in ("invariant", "nary-jacobi", "l-infinity"):
        jobs.append(_verify(f"{ident}-pass-mixed", ident, p, 0))
    jobs.append(_verify("invariant-derived-mixed", "invariant", f, 0))
    jobs.append(_verify("nary-jacobi-fail-mixed", "nary-jacobi", f, 1,
                        exhaustive=True))
    jobs.append(_verify("l-infinity-fail-mixed", "l-infinity", f, 1,
                        obstruction=known))
    for m in (8, 10):
        space = symplectic_doc(m)
        p = {"space": space, "potential": potential_doc(_lagrangian_cubic(
            rng, m))}
        jobs.append(_verify(f"jordan-pass-m{m}", "jordan", p, 0))
        jobs.append(_verify(f"associative-pass-m{m}", "associative", p, 0))
        f = {"space": space, "potential": potential_doc(_paired_cubic(
            rng, m))}
        jobs.append(_verify(f"associative-fail-m{m}", "associative", f, 1,
                            exhaustive=True))
    # quasi-Frobenius, arity 4: the full m^5 loop either way
    m = 6
    table = _random_structure(rng, m, 4)
    phi = _skew(rng, m, nonzero=rng.random() < 0.5)
    ok = cyclic_sums_vanish(m, 4, table, phi)
    jobs.append(_verify("quasi-frobenius-m6", "quasi-frobenius",
                        {"space": odd_space_doc(m),
                         "structure": structure_doc(table, 4),
                         "phi": matrix_doc(phi)},
                        0 if ok else 1, exhaustive=not ok))
    return jobs


def _tstar_job(cls, rng, m, arity, zero=False, phi_zero=False):
    table = _random_structure(rng, m, arity, zero=zero)
    phi = _skew(rng, m, nonzero=not phi_zero)
    ok = cyclic_sums_vanish(m, arity, table, phi)
    return job(cls, ["frobenius", "--space", "@space", "--structure",
                     "@structure", "--phi", "@phi", "--graph"],
               {"space": odd_space_doc(m),
                "structure": structure_doc(table, arity),
                "phi": matrix_doc(phi)},
               {"exit": 0 if ok else 1, "check": "tstar", "pass": ok})


def tstar_round(rng):
    """Cotangent extensions: dominated by inverting the derived bracket."""
    return [
        _tstar_job("binary-m4", rng, 4, 2),
        _tstar_job("binary-zero-m4", rng, 4, 2, zero=True),
        _tstar_job("binary-phi0-m4", rng, 4, 2, phi_zero=True),
        _tstar_job("binary-m5", rng, 5, 2),
        _tstar_job("binary-phi0-m5", rng, 5, 2, phi_zero=True),
        _tstar_job("binary-m6", rng, 6, 2),
        _tstar_job("arity4-m4", rng, 4, 4),
    ]


def grid(m, values=(2, 1, 0)):
    """Non-increasing block-parameter tuples, as `naryalg table` lists them."""
    k = m // 2
    out = []

    def rec(start, prefix):
        if len(prefix) == k:
            out.append(tuple(prefix))
            return
        for i in range(start, len(values)):
            rec(i, prefix + [values[i]])

    rec(0, [])
    return out


def classify_job(rng, m, params):
    nonzero = sum(1 for p in params if p)
    rank = 2 * nonzero
    v = {(2 * t, 2 * t + 1): Fraction(p) for t, p in enumerate(params) if p}
    return job(f"grid-m{m}-rank{rank}",
               ["classify", "--space", "@space", "--v", "@v",
                "--seed", str(rng.randrange(1000))],
               {"space": odd_space_doc(m), "v": element_doc(v)},
               {"exit": 0, "check": "classify", "m": m,
                "params": [p for p in params if p]})


def classify_round(rng):
    """One grid point per (m, rank) stratum: many tiny exact eliminations.

    At m = 8 only ranks 0 to 4: the rank-6 and rank-8 points take 1-2 s
    each, too long to repeat often enough in a run for a steady mean.
    """
    jobs = []
    for m in (6, 7, 8):
        strata = {}
        for params in grid(m):
            strata.setdefault(sum(1 for p in params if p), []).append(params)
        for nonzero in sorted(strata)[:3 if m == 8 else None]:
            jobs.append(classify_job(rng, m, rng.choice(strata[nonzero])))
    return jobs


# Set-up probes: the smallest job of each workload's command, so setup_s
# is interpreter start-up, imports and argument parsing, not engine work.
def _probes():
    zero2 = {"space": odd_space_doc(2), "structure": structure_doc({}, 2),
             "phi": matrix_doc(_skew(None, 2, nonzero=False))}
    return {
        "hodge": _hodge_job("probe-m3", 3, {(0, 1, 2): Fraction(1)}),
        "verify": _verify("probe-m3", "l-infinity",
                          {"space": odd_space_doc(3),
                           "potential": potential_doc({(0, 1, 2): 1})}, 0),
        "tstar": job("probe-m2", ["frobenius", "--space", "@space",
                                  "--structure", "@structure", "--phi",
                                  "@phi", "--graph"],
                     zero2, {"exit": 0, "check": "tstar", "pass": True}),
        "classify": classify_job(random.Random(0), 5, (1, 0)),
    }


# name -> (round generator, rounds in a deck, rounds in the traced pass); the
# reason for each workload is recorded in BENCHMARK.json
WORKLOADS = {
    "hodge": (hodge_round, 8, 2),
    "verify": (verify_round, 32, 6),
    "tstar": (tstar_round, 8, 2),
    "classify": (classify_round, 8, 3),
}


def build(name, seed):
    """(deck, probe) for a workload; deterministic in the seed."""
    make_round, n_rounds, _ = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    return [make_round(rng) for _ in range(n_rounds)], _probes()[name]


# ---------------------------------------------------------------------------
# materializing jobs as files


def _text(doc):
    return json.dumps(doc, sort_keys=True) + "\n"


def materialize(job_spec, workdir):
    """Write the job's input files; return (argv, key).

    Files are named by content, so shared inputs are written once.  The key
    hashes the argv with every file replaced by its content, so it does not
    depend on where the files live.
    """
    argv, keyed = [], []
    for arg in job_spec["argv"]:
        if arg.startswith("@"):
            text = _text(job_spec["files"][arg[1:]])
            digest = hashlib.sha256(text.encode()).hexdigest()[:20]
            path = os.path.join(workdir, digest + ".json")
            if not os.path.exists(path):
                with open(path, "w") as fh:
                    fh.write(text)
            argv.append(path)
            keyed.append(text)
        else:
            argv.append(arg)
            keyed.append(arg)
    key = hashlib.sha256(json.dumps(keyed).encode()).hexdigest()[:16]
    return argv, key
