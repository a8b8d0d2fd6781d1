"""Acceptance checklist: one test per criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines.  Every
tolerance is exact equality unless a criterion states a numeric bound.

Criterion 1 pins the homotopy obstruction of the m=5 potential
e3e4e5 + e1e2e5 at +2*e1e2e3e4.  The bracket axioms ([x, y] = (x, y) on
generators, graded Leibniz, graded antisymmetry, identity Gram matrix)
fix that value with no freedom of sign; the derivation is written next
to the constant.  The fast closed-form bracket is cross-checked there
against the literal recursive evaluation of the defining rules.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from naryalg import linalg
from naryalg.classify import (
    build_m3_algebra,
    canonical_form,
    find_ideal,
    ider,
)
from naryalg.derived import (
    NaryStructure,
    Potential,
    canonical_tuples,
    check_filippov,
    check_l_infinity,
    check_nary_jacobi,
    derive_structure,
    potential_from_structure,
)
from naryalg.frobenius import (
    check_quasi_frobenius,
    graph_subalgebra_test,
    t_star_extension,
)
from naryalg.hodge import (
    HodgeContext,
    codifferential,
    differential,
    hodge_decomposition,
    inner_product,
    star,
)
from naryalg.poisson import Element, poisson_bracket
from naryalg.superspace import Superspace, odd_space
from oracles import bracket_recursive_oracle


def report(num, ok, desc):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {desc}")
    return ok


def mono(space, *word, coeff=1):
    return Element.monomial(space, [i - 1 for i in word], coeff)


def all_monomials(space):
    return [Element(space, {c: Fraction(1)})
            for p in range(space.dim + 1)
            for c in combinations(range(space.dim), p)]


def test_criterion_01_m5_obstruction():
    t0 = time.time()
    V5 = odd_space(5)
    mu = Potential.single(V5, mono(V5, 3, 4, 5) + mono(V5, 1, 2, 5))
    rep = check_l_infinity(mu)
    # mu = A*e5 + B*e5 with A = e3e4, B = e1e2 (even, disjoint).
    # [Ae5, Ae5] = [Be5, Be5] = 0: every contraction repeats an odd generator.
    # The bracket is even and mu odd, so [mu, mu] = 2*[Ae5, Be5], and by
    # Leibniz [Ae5, Be5] = A*[e5, Be5] = A*B*(e5, e5) = e1e2e3e4.
    elapsed = time.time() - t0
    expected = mono(V5, 1, 2, 3, 4, coeff=2)
    sq = bracket_recursive_oracle(mu.element, mu.element)
    oracle = sq - sq.homogeneous_part(0)
    ok = (not rep.passed and rep.residual == expected and oracle == expected
          and elapsed < 1.0)
    assert report(1, ok, f"homotopy obstruction equals +2*e1e2e3e4, closed "
                         f"form and recursive oracle ({elapsed:.3f}s)")


def test_criterion_02_m6_jacobi_failure():
    t0 = time.time()
    V6 = odd_space(6)
    mu = Potential.single(V6, mono(V6, 3, 4, 5, 6) + mono(V6, 1, 2, 5, 6))
    rep = check_nary_jacobi(derive_structure(mu))
    elapsed = time.time() - t0
    ok = (not rep.passed and rep.witness == (0, 1, 2, 3, 4)
          and rep.residual == mono(V6, 5, coeff=-2) and elapsed < 1.0)
    assert report(2, ok, f"unshuffle identity fails on (e1..e5) with "
                         f"residual -2*e5 ({elapsed:.3f}s)")


def test_criterion_03_star_involution():
    t0 = time.time()
    ok = True
    for m in range(2, 9):
        ctx = HodgeContext(odd_space(m))
        sign = -1 if (m * (m - 1) // 2) % 2 else 1
        for v in all_monomials(ctx.space):
            if star(ctx, star(ctx, v)) != v.scale(sign):
                ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    assert report(3, ok, f"double star is (-1)^(m(m-1)/2) for m=2..8 "
                         f"({elapsed:.2f}s)")


def test_criterion_04_inner_product_orthonormality():
    ok = True
    for m in range(2, 8):
        ctx = HodgeContext(odd_space(m))
        basis = all_monomials(ctx.space)
        for a in basis:
            for b in basis:
                want = 1 if a == b else 0
                if inner_product(ctx, a, b) != want:
                    ok = False
    assert report(4, ok, "monomials are orthonormal for every m <= 7")


def test_criterion_05_adjointness():
    V5 = odd_space(5)
    ctx = HodgeContext(V5)
    sign = -1 if (5 * 4 // 2) % 2 else 1
    basis = all_monomials(V5)
    ok = True
    for el in (star(ctx, mono(V5, 1, 2)), mono(V5, 1, 2, 3, 4, 5)):
        mu = Potential.single(V5, el)
        d = differential(ctx, mu)
        delta = codifferential(ctx, d)
        for v in basis:
            for w in basis:
                dv = Element(V5, linalg.apply_op(d, v.terms))
                delta_w = Element(V5, linalg.apply_op(delta, w.terms))
                lhs = inner_product(ctx, dv, w)
                rhs = -sign * inner_product(ctx, v, delta_w)
                if lhs != rhs:
                    ok = False
    assert report(5, ok, "adjointness of d and delta on all monomial pairs, "
                         "m=5, for star(e1e2) and the top form")


def test_criterion_06_hodge_decomposition_certificate():
    t0 = time.time()
    V5 = odd_space(5)
    ctx = HodgeContext(V5)
    ok = True
    for el, arity in ((Element.zero(V5), 2),
                      (star(ctx, mono(V5, 1, 2)), None),
                      (mono(V5, 1, 2, 3, 4, 5), None)):
        mu = Potential.single(V5, el, arity=arity)
        rep = hodge_decomposition(ctx, mu)
        if rep.rank_d + rep.rank_delta + rep.ker_laplacian != 32:
            ok = False
        if not (rep.direct_sum_ok and rep.kernel_intersection_ok):
            ok = False
        for row in rep.degrees:
            if row.cohomology != row.ker_laplacian:
                ok = False
            if row.im_d + row.im_delta + row.ker_laplacian != row.dim:
                ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0
    assert report(6, ok, f"three-way decomposition certificate for "
                         f"mu in {{0, star(e1e2), top}} ({elapsed:.2f}s)")


def test_criterion_07_filippov_table():
    ok = True
    for m in (5, 6, 7):
        space = odd_space(m)
        ctx = HodgeContext(space)
        passing = [
            Potential.single(space, Element.zero(space), arity=m - 3),
            Potential.single(space, star(ctx, Element.scalar(space, 1))),
            Potential.single(space, star(ctx, Element.generator(space, 0))),
            Potential.single(space, star(ctx, Element.monomial(space, (0, 1)))),
        ]
        for mu in passing:
            if not check_filippov(mu).passed:
                ok = False
        v4 = Element.monomial(space, (0, 1)) + Element.monomial(space, (2, 3))
        if check_filippov(Potential.single(space, star(ctx, v4))).passed:
            ok = False
    assert report(7, ok, "derivation identity holds for star of "
                         "{0, 1, e1, e1e2} and fails at rank 4, m=5..7")


def test_criterion_08_sh_table():
    ok = True
    for m in (5, 6, 7, 8, 9):
        space = odd_space(m)
        ctx = HodgeContext(space)
        k = m // 2
        grid = [()]
        for _ in range(k):
            grid = [g + (a,) for g in grid for a in (0, 1, 2) if not g or a <= g[-1]]
        for params in grid:
            v = Element(space, {(2 * t, 2 * t + 1): Fraction(params[t])
                                for t in range(k) if params[t]})
            mu = build_m3_algebra(ctx, v)
            got = check_nary_jacobi(derive_structure(mu)).passed
            nonzero = sum(1 for a in params if a)
            want = True if m >= 7 else nonzero <= 1
            if got != want:
                ok = False
    assert report(8, ok, "unshuffle identity exceptions are exactly the "
                         "m=5 rank-4 and m=6 rank-4/6 grid points")


def test_criterion_09_simplicity():
    V5 = odd_space(5)
    ctx5 = HodgeContext(V5)
    ok = True
    # the rank-2 algebra has the ideal spanned by e1, e2
    s2 = derive_structure(build_m3_algebra(ctx5, mono(V5, 1, 2)))
    rep2 = find_ideal(s2)
    rows = [[b.coefficient((i,)) for i in range(5)] for b in rep2.basis]
    want = [[Fraction(1), 0, 0, 0, 0], [0, Fraction(1), 0, 0, 0]]
    if not (rep2.found and linalg.same_subspace(linalg.sparse(rows),
                                                linalg.sparse(want))):
        ok = False
    # the rank-4 algebra is simple
    s4 = derive_structure(build_m3_algebra(ctx5, mono(V5, 1, 2)
                                           + mono(V5, 3, 4)))
    if find_ideal(s4).found:
        ok = False
    # rank criterion agreement on integer grids, no hint given
    for m in (5, 6, 7):
        space = odd_space(m)
        ctx = HodgeContext(space)
        for nblocks in range(m // 2 + 1):
            v = Element(space, {(2 * t, 2 * t + 1): Fraction(t + 1)
                                for t in range(nblocks)})
            s = derive_structure(build_m3_algebra(ctx, v))
            found = find_ideal(s).found
            if found != (2 * nblocks <= 2):
                ok = False
    assert report(9, ok, "ideal search matches the rank criterion and finds "
                         "span(e1,e2) for the rank-2 algebra")


def test_criterion_10_bijection_round_trip():
    rng = random.Random(100)
    spaces = [odd_space(m) for m in (2, 3, 4, 5)]
    spaces.append(odd_space(4, gram=[[2, 1, 0, 0], [1, 1, 0, 0],
                                     [0, 0, 3, 0], [0, 0, 0, 1]]))
    spaces.append(Superspace(4, [0, 0, 1, 1],
                             [[0, 1, 0, 0], [-1, 0, 0, 0],
                              [0, 0, 1, 0], [0, 0, 0, 1]], max_degree=10))
    done = 0
    ok = True
    while done < 200:
        sp = spaces[rng.randrange(len(spaces))]
        n = rng.randint(1, sp.dim - 1)
        tuples = canonical_tuples(sp, n + 1)
        if not tuples:
            continue
        el = Element.zero(sp)
        for _ in range(rng.randint(1, 4)):
            el = el + Element.monomial(sp, tuples[rng.randrange(len(tuples))],
                                       rng.randint(-5, 5))
        if el.is_zero():
            continue
        mu = Potential.single(sp, el)
        back = potential_from_structure(derive_structure(mu))
        if back.element != mu.element:
            ok = False
        done += 1
    assert report(10, ok, "derive then invert is the identity on 200 random "
                          "potentials, arities 1..m-1, m <= 5")


def test_criterion_11_quasi_frobenius_equivalence():
    rng = random.Random(200)
    ok = True
    for _ in range(100):
        m = rng.choice([2, 3, 4])
        sp = odd_space(m)
        table = {}
        for i in range(m):
            for j in range(i + 1, m):
                vec = {}
                for k in range(m):
                    c = rng.randint(-2, 2)
                    if c and rng.random() < 0.5:
                        vec[(k,)] = Fraction(c)
                if vec:
                    table[(i, j)] = Element(sp, vec)
        s = NaryStructure(sp, 2, table)
        phi = [[Fraction(0)] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                c = Fraction(rng.randint(-2, 2))
                phi[i][j], phi[j][i] = c, -c
        ext = t_star_extension(sp, s)
        if check_quasi_frobenius(sp, s, phi).passed != \
                graph_subalgebra_test(ext, phi):
            ok = False
    assert report(11, ok, "cyclic-sum verdict equals graph-subalgebra verdict "
                          "on 100 random binary cases, m in {2,3,4}")


def test_criterion_12_bracket_oracle_equivalence():
    ok = True
    for m in (2, 3, 4):
        space = odd_space(m)
        monomials = all_monomials(space)
        for a in monomials:
            for b in monomials:
                if poisson_bracket(a, b) != bracket_recursive_oracle(a, b):
                    ok = False
    assert report(12, ok, "closed form equals the recursive oracle on all "
                          "monomial pairs, m <= 4")


def test_criterion_13_ider_duality():
    rng = random.Random(300)
    V5 = odd_space(5)
    ctx = HodgeContext(V5)
    tuples3 = canonical_tuples(V5, 3)
    ok = True
    done = 0
    while done < 50:
        el = Element.zero(V5)
        for _ in range(3):
            el = el + Element.monomial(V5, tuples3[rng.randrange(len(tuples3))],
                                       rng.randint(-3, 3))
        if el.is_zero():
            continue
        mu = Potential.single(V5, el)
        dual = Potential.single(V5, star(ctx, el))
        if linalg.row_space([w.terms for w in ider(V5, mu)]) != \
                linalg.row_space([w.terms for w in ider(V5, dual)]):
            ok = False
        done += 1
    assert report(13, ok, "invariant derivations agree for mu and star(mu), "
                          "50 random cubic potentials, m=5")


def test_criterion_14_canonical_form_round_trip():
    import numpy as np
    rng = random.Random(400)
    ok = True
    for _ in range(100):
        m = rng.randint(2, 10)
        a = np.zeros((m, m))
        for i in range(m):
            for j in range(i + 1, m):
                x = rng.randint(-8, 8) / rng.randint(1, 4)
                a[i, j], a[j, i] = x, -x
        cf = canonical_form(a)
        scale = max(1.0, float(np.abs(a).max()))
        recon = cf.q @ cf.reconstruct() @ cf.q.T
        if float(np.abs(recon - a).max()) > 1e-9 * scale:
            ok = False
        if abs(np.linalg.det(cf.q) - 1.0) > 1e-9:
            ok = False
        for x, y in zip(cf.params, cf.params[1:]):
            if abs(y) > abs(x) + 1e-12:
                ok = False
        if m % 2 == 1 and any(p < -1e-12 for p in cf.params):
            ok = False
    assert report(14, ok, "100 random skew matrices, m <= 10: residual "
                          "<= 1e-9 and parameter ordering conventions")
