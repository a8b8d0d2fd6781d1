"""Derived structures, the inverse construction, and the identity verifiers.

Expected values marked as frozen were computed with the recursive bracket
oracle; the brute-force law oracles here evaluate the defining algebra laws
directly on structure constants, independently of the bracket criteria.
"""

import random
import sys
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from naryalg import derived, io
from naryalg.derived import (
    CheckReport,
    NaryStructure,
    Potential,
    canonical_tuples,
    check_associative,
    check_commutative,
    check_derivation,
    check_filippov,
    check_invariant,
    check_jordan,
    check_l_infinity,
    check_nary_jacobi,
    closed_form_potential,
    contraction_constant,
    contractions,
    derive_structure,
    potential_from_structure,
)
from naryalg.errors import (
    DegreeCapExceeded,
    DegreeMismatch,
    NaryError,
    NotCommutative,
    NotInvariant,
    NotOdd,
    NotPureEven,
    NotPureOdd,
    SchemaError,
    SpaceMismatch,
    WrongDegree,
)
from naryalg.frobenius import doubled_space, t_star_extension
from naryalg.poisson import (
    Element,
    nested_bracket,
    nested_bracket_indices,
    poisson_bracket,
)
from naryalg.superspace import Superspace, even_symplectic_space, odd_space

import spaces
from oracles import (
    ad_matrix_by_brackets,
    associative_by_generator_brackets,
    closed_form_by_duals,
    derive_structure_by_all_tuples,
    dual_basis,
    filippov_by_all_tuples,
    generalized_jacobi,
    invariant_by_all_pairs,
    jordan_by_triple_loop,
    nary_jacobi_by_gather,
    operators_by_gather,
    potential_by_solve,
)

V5 = odd_space(5)
V6 = odd_space(6)
E2 = even_symplectic_space(2, max_degree=10)
E4 = even_symplectic_space(4, max_degree=10)


def mono(space, *word, coeff=1):
    return Element.monomial(space, [i - 1 for i in word], coeff)


def random_homogeneous(space, rng, degree, terms=3):
    tuples = canonical_tuples(space, degree)
    acc = Element.zero(space)
    if not tuples:
        return acc
    for _ in range(terms):
        acc = acc + Element.monomial(space, tuples[rng.randrange(len(tuples))],
                                     rng.randint(-3, 3))
    return acc


# ---------------------------------------------------------------------------
# derive_structure


def test_derive_two_step_contraction():
    # frozen from the recursive oracle: {e3,e4} = -b1 e5 for mu = b1 e3e4e5
    mu = Potential.single(V5, mono(V5, 3, 4, 5, coeff=Fraction(7)))
    s = derive_structure(mu)
    assert s.eval_basis((2, 3)) == mono(V5, 5, coeff=-7)
    assert s.eval_basis((3, 2)) == mono(V5, 5, coeff=7)


def test_derive_zero_potential():
    mu = Potential.single(V5, Element.zero(V5), arity=2)
    assert derive_structure(mu).is_zero()


def test_derive_repeated_odd_argument_vanishes():
    mu = Potential.single(V5, mono(V5, 1, 2, 3) + mono(V5, 2, 4, 5))
    s = derive_structure(mu)
    assert s.eval_basis((1, 1)).is_zero()


def test_potential_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        Potential.single(V5, mono(V5, 1, 2, 3), arity=3)


def test_derived_structures_commutative_and_invariant():
    rng = random.Random(21)
    spaces = [V5, odd_space(3, gram=[[2, 1, 0], [1, 1, 0], [0, 0, 3]]),
              Superspace(4, [0, 0, 1, 1],
                         [[0, 1, 0, 0], [-1, 0, 0, 0],
                          [0, 0, 1, 0], [0, 0, 0, 1]], max_degree=8)]
    for _ in range(30):
        sp = rng.choice(spaces)
        n = rng.randint(1, 3)
        el = random_homogeneous(sp, rng, n + 1)
        if el.is_zero():
            continue
        s = derive_structure(Potential.single(sp, el))
        assert check_commutative(s).passed
        assert check_invariant(s).passed


# ---------------------------------------------------------------------------
# inverse construction


def test_round_trip_random_potentials():
    rng = random.Random(33)
    spaces = [odd_space(m) for m in (2, 3, 4, 5)]
    spaces.append(odd_space(3, gram=[[2, 0, 0], [0, 1, 0],
                                     [0, 0, Fraction(1, 3)]]))
    spaces.append(Superspace(4, [0, 0, 1, 1],
                             [[0, 1, 0, 0], [-1, 0, 0, 0],
                              [0, 0, 1, 0], [0, 0, 0, 1]], max_degree=8))
    done = 0
    while done < 60:
        sp = rng.choice(spaces)
        n = rng.randint(1, min(sp.dim - 1, 4))
        el = random_homogeneous(sp, rng, n + 1)
        if el.is_zero():
            continue
        mu = Potential.single(sp, el)
        back = potential_from_structure(derive_structure(mu))
        assert back.element == mu.element
        assert back.arity == n
        done += 1


def test_zero_structure_inverts_to_zero():
    s = NaryStructure(V5, 2, {})
    mu = potential_from_structure(s)
    assert mu.element.is_zero()


def test_non_invariant_structure_rejected():
    sp = odd_space(2)
    s = NaryStructure(sp, 2, {(0, 1): Element.generator(sp, 0)})
    with pytest.raises(NotInvariant) as exc:
        potential_from_structure(s)
    assert exc.value.witness is not None


def test_non_commutative_table_rejected():
    s = NaryStructure(V5, 2, {(0, 0): Element.generator(V5, 1)})
    with pytest.raises(NotCommutative):
        potential_from_structure(s)


def test_degenerate_form_rejected():
    from naryalg.errors import Degenerate
    sp = odd_space(2, gram=[[1, 0], [0, 0]])
    with pytest.raises(Degenerate):
        potential_from_structure(NaryStructure(sp, 1, {}))


# spaces for the closed-form inversion: non-identity Gram matrices of every kind
HALF = Fraction(1, 2)
INVERSION_SPACES = {
    # mixed parity, odd block [[1, 1/2], [1/2, 3]] not diagonal
    "mixed": Superspace(4, [0, 0, 1, 1],
                        [[0, 1, 0, 0], [-1, 0, 0, 0],
                         [0, 0, 1, HALF], [0, 0, HALF, 3]], max_degree=8),
    # pure even, symplectic blocks scaled by 2 and 1/3
    "scaled-symplectic": Superspace(4, [0, 0, 0, 0],
                                    [[0, 2, 0, 0], [-2, 0, 0, 0],
                                     [0, 0, 0, Fraction(1, 3)],
                                     [0, 0, Fraction(-1, 3), 0]],
                                    max_degree=8),
    # scaled symplectic even block interleaved with a full odd block
    "mixed-interleaved": Superspace(5, [1, 0, 1, 0, 1],
                                    [[2, 0, 1, 0, 0], [0, 0, 0, -3, 0],
                                     [1, 0, 1, 0, HALF], [0, 3, 0, 0, 0],
                                     [0, 0, HALF, 0, -1]], max_degree=8),
    "odd-dense": odd_space(3, gram=[[2, 1, 0], [1, 1, 1], [0, 1, 3]]),
    "doubled-2": doubled_space(2),
    "doubled-3": doubled_space(3),
}


def has_even_repeat(space, element):
    return any(a == b and not space.parity[a]
               for mono in element.terms for a, b in zip(mono, mono[1:]))


def test_dual_basis_is_dual():
    for sp in INVERSION_SPACES.values():
        dual = dual_basis(sp)
        for i in range(sp.dim):
            for k in range(sp.dim):
                got = poisson_bracket(dual[i], Element.generator(sp, k))
                assert got == Element.scalar(sp, 1 if i == k else 0)
    # the hyperbolic Gram matrix is its own inverse: one generator each
    ws = doubled_space(3)
    assert [d.terms for d in dual_basis(ws)] == [
        {((i + 3) % 6,): 1} for i in range(6)]


@pytest.mark.parametrize("name", sorted(INVERSION_SPACES))
def test_contraction_constant_matches_literal_contraction(name):
    """kappa_b against the nested brackets of e_b with its dual vectors.

    The same contraction kills every other monomial of the same degree.
    """
    sp = INVERSION_SPACES[name]
    dual = dual_basis(sp)
    for degree in range(2, 6):
        monos = canonical_tuples(sp, degree)
        for b in monos:
            args = [dual[i] for i in b]
            literal = nested_bracket(args, Element.monomial(sp, b))
            assert literal == Element.scalar(sp, contraction_constant(sp, b)), b
            for other in monos[:12]:
                if other != b:
                    assert nested_bracket(
                        args, Element.monomial(sp, other)).is_zero()


def test_closed_form_matches_solve_oracle():
    """The closed form against the dense solve on random derived structures."""
    rng = random.Random(41)
    seen = set()
    repeats = 0
    for _ in range(90):
        name = rng.choice(sorted(INVERSION_SPACES))
        sp = INVERSION_SPACES[name]
        n = rng.randint(1, 4)
        el = random_homogeneous(sp, rng, n + 1, terms=4)
        if el.is_zero():
            continue
        mu = Potential.single(sp, el)
        s = derive_structure(mu)
        closed = potential_from_structure(s)
        oracle = potential_by_solve(s)
        assert closed.element == oracle.element == mu.element, (name, n)
        seen.add((name, n))
        repeats += has_even_repeat(sp, el)
    assert {n for _, n in seen} == {1, 2, 3, 4}
    assert {name for name, _ in seen} == set(INVERSION_SPACES)
    assert repeats >= 10


def with_odd_square(rng, s):
    """s with a random value added at a key that repeats an odd index."""
    space, n = s.space, s.arity
    odd = [i for i in range(space.dim) if space.parity[i]]
    if n < 2 or not odd:
        return s
    o = rng.choice(odd)
    key = tuple(sorted([o, o] + [rng.randrange(space.dim)
                                 for _ in range(n - 2)]))
    table = dict(s.table)
    table[key] = random_degree1(rng, space, 2)
    return NaryStructure(space, n, table)


def closed_form_outcome(closed_form, s):
    try:
        return closed_form(s).element
    except DegreeCapExceeded:
        return DegreeCapExceeded


def test_closed_form_scatter_matches_the_gather_on_random_spaces():
    """The scatter against the gather over dual vectors and the dense
    solve, on invariant tables (derived from random potentials) and on
    random or perturbed ones, some with a repeated odd key, over random
    mixed-parity spaces of dimension <= 9."""
    rng = random.Random(57)
    derived_arities, random_arities = set(), set()
    odd_repeats = rejected = 0
    for trial in range(300):
        n = rng.randint(1, 4)
        m = rng.randint(2, (9, 9, 6, 5)[n - 1])
        space = spaces.random_superspace(rng, m, rng.choice((0.4, 0.7, 1)))
        if not space.nondegenerate:
            continue
        solvable = m <= 5 and n <= 3 and n + 1 <= space.max_degree
        if rng.random() < 0.5:
            if n + 1 > space.max_degree:
                continue
            el = spaces.random_homogeneous(space, rng, n + 1, terms=4)
            if el.is_zero():
                continue
            s = derive_structure(Potential.single(space, el))
            assert closed_form_potential(s).element == el, trial
            assert closed_form_by_duals(s).element == el, trial
            assert potential_from_structure(s).element == el, trial
            if solvable:
                assert potential_by_solve(s).element == el, trial
            derived_arities.add(n)
            continue
        s = random_table(rng, space, n)
        if rng.random() < 0.5 and n + 1 <= space.max_degree:
            # near an invariant table: one derived value perturbed
            el = spaces.random_homogeneous(space, rng, n + 1, terms=4)
            s = perturbed(rng, derive_structure(Potential.single(
                space, el, arity=n)))
        if rng.random() < 0.3:
            s = with_odd_square(rng, s)
        closed = closed_form_outcome(closed_form_potential, s)
        assert closed == closed_form_outcome(closed_form_by_duals, s), trial
        try:
            mu = potential_from_structure(s)
        except (NotInvariant, NotCommutative, DegreeCapExceeded):
            mu = None
            rejected += 1
        else:
            assert mu.element == closed
            assert derive_structure(mu).table == s.table
        repeats = any(a == b and space.parity[a]
                      for key in s.table for a, b in zip(key, key[1:]))
        odd_repeats += repeats
        if solvable and not repeats:
            # the solve sees only the canonical keys
            by_solve = potential_by_solve(s)
            assert (by_solve is None) == (mu is None), trial
        random_arities.add(n)
    assert derived_arities == random_arities == {1, 2, 3, 4}
    assert odd_repeats >= 10 and rejected >= 30


def test_eval_elements_is_the_multilinear_extension():
    """eval_elements against the sum over basis arguments of eval_basis,
    scaled by the product of the coefficients."""
    rng = random.Random(60)
    for _ in range(40):
        space = spaces.random_superspace(rng, rng.randint(2, 6))
        n = rng.randint(1, 3)
        s = random_table(rng, space, n)
        args = [random_degree1(rng, space, rng.randint(1, 3))
                for _ in range(n)]
        want = Element.zero(space)
        for picks in product(*(a.sorted_terms() for a in args)):
            coeff = Fraction(1)
            for _, c in picks:
                coeff *= c
            want = want + s.eval_basis(
                tuple(mono[0] for mono, _ in picks)).scale(coeff)
        assert s.eval_elements(args) == want


def test_operators_scatter_matches_the_gather_on_random_spaces():
    """operators() against the gather through eval_basis, and live against
    the odd squares, on random tables (repeated even indices and odd
    squares included) and derived structures over random mixed-parity
    spaces of dimension <= 6, arity 1 to 4."""
    rng = random.Random(61)
    seen = {"odd-square": 0, "even-repeat": 0, "derived": 0, "negated": 0}
    for trial in range(400):
        n = rng.randint(1, 4)
        space = spaces.random_superspace(rng, rng.randint(2, 6),
                                         rng.choice((0.4, 0.7, 1)))
        par = space.parity
        if rng.random() < 0.3 and n + 1 <= space.max_degree:
            el = spaces.random_homogeneous(space, rng, n + 1, terms=4)
            s = derive_structure(Potential.single(space, el, arity=n))
            seen["derived"] += bool(s.table)
        else:
            s = random_table(rng, space, n)
        squares = {key for key in s.table if any(
            a == b and par[a] for a, b in zip(key, key[1:]))}
        assert set(s.live) == set(s.table) - squares, trial
        seen["odd-square"] += bool(squares)
        seen["even-repeat"] += any(a == b and not par[a] for key in s.live
                                   for a, b in zip(key, key[1:]))
        ops = s.operators()
        want = operators_by_gather(s)
        assert ops == want and list(ops) == list(want), trial
        assert all(col for op in ops.values() for col in op.values())
        seen["negated"] += any(
            col[i] != s.live[tuple(sorted(t + (c,)))].terms[(i,)]
            for t, op in ops.items() for c, col in op.items() for i in col)
    assert all(count >= 20 for count in seen.values()), seen


class ReadCount(dict):
    """The terms of a value, counting the passes operators() makes over
    them (test only)."""

    reads = 0

    def items(self):
        ReadCount.reads += 1
        return dict.items(self)


def test_operators_scatter_each_entry_once():
    """operators() passes over each live value once per distinct index of
    its key: a repeated (even) index gives one t, so its column is written
    once.  Each entry is assigned, not summed, so a second pass would not
    change L_t, only the work; the tables include repeated even indices."""
    rng = random.Random(64)
    repeats = 0
    for trial in range(200):
        n = rng.randint(2, 4)
        space = spaces.random_superspace(rng, rng.randint(2, 6))
        s = random_table(rng, space, n)
        want = operators_by_gather(s)
        for value in s.live.values():
            value.terms = ReadCount(value.terms)
        ReadCount.reads = 0
        assert s.operators() == want, trial
        assert ReadCount.reads == sum(len(set(key)) for key in s.live), trial
        repeats += any(a == b for key in s.live for a, b in zip(key, key[1:]))
    assert repeats >= 20, repeats


def test_inversion_makes_no_general_bracket(monkeypatch):
    """derive_structure and t_star_extension contract generators directly:
    no call of poisson_bracket, through any module's binding of it."""
    from naryalg import poisson
    real = poisson.poisson_bracket
    calls = []

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("naryalg") and \
                getattr(module, "poisson_bracket", None) is real:
            monkeypatch.setattr(module, "poisson_bracket", counted)
    rng = random.Random(59)
    for m in (3, 4, 5):
        space = odd_space(m)
        mu = Potential.single(space, spaces.random_homogeneous(
            space, rng, 3, terms=4))
        s = derive_structure(mu)
        ext = t_star_extension(space, s)
        assert potential_from_structure(s).element == mu.element
        assert derive_structure(ext.potential) == ext.structure
    assert calls == []
    check_l_infinity(mu)  # the counter does see the general bracket
    assert calls


@pytest.mark.parametrize("name", ["mixed", "doubled-2", "odd-dense"])
def test_certificate_rejects_a_flipped_coefficient(name, monkeypatch):
    sp = INVERSION_SPACES[name]
    mu = Potential.single(sp, random_homogeneous(sp, random.Random(43), 3))
    s = derive_structure(mu)
    assert potential_from_structure(s).element == mu.element

    def flipped(s):
        terms = dict(closed_form_potential(s).element.terms)
        first = min(terms)
        terms[first] = -terms[first]
        return Potential.single(s.space, Element(s.space, terms), arity=s.arity)

    monkeypatch.setattr(derived, "closed_form_potential", flipped)
    with pytest.raises(NotInvariant):
        potential_from_structure(s)


# ---------------------------------------------------------------------------
# commutativity / invariance reports


def test_check_commutative_witness():
    bad = NaryStructure(V5, 2, {(1, 1): Element.generator(V5, 0)})
    rep = check_commutative(bad)
    assert not rep.passed and rep.witness == (1, 1)


def test_check_invariant_witness():
    sp = odd_space(2)
    bad = NaryStructure(sp, 2, {(0, 1): Element.generator(sp, 0)})
    rep = check_invariant(bad)
    assert not rep.passed
    assert rep.witness is not None


# ---------------------------------------------------------------------------
# homotopy condition


def test_l_infinity_obstruction_m5():
    # mu = b1*A*e5 + b2*B*e5 with A = e3e4, B = e1e2; the squares vanish and
    # [mu, mu] = 2*b1*b2*[Ae5, Be5] = 2*b1*b2*A*B*(e5, e5) by Leibniz
    for b1, b2 in [(1, 1), (2, 3), (-1, 5)]:
        mu = Potential.single(V5, mono(V5, 3, 4, 5, coeff=b1)
                              + mono(V5, 1, 2, 5, coeff=b2))
        rep = check_l_infinity(mu)
        assert not rep.passed
        assert rep.residual == mono(V5, 1, 2, 3, 4, coeff=2 * b1 * b2)


def test_l_infinity_passes_when_degree_overflows():
    # [mu,mu] would live in degree 2(n+1)-2 > m, hence vanishes
    V7 = odd_space(7)
    mu = Potential.single(V7, Element.monomial(V7, (0, 1, 2, 3, 4)))
    assert check_l_infinity(mu).passed


def test_l_infinity_zero_and_parity():
    assert check_l_infinity(Potential.single(V5, Element.zero(V5), arity=2)).passed
    with pytest.raises(NotOdd):
        check_l_infinity(Potential.single(V5, mono(V5, 1, 2, 3, 4)))


def test_homotopy_family_scalar_square_passes():
    # family e1 + e2e3e4: [mu,mu] = (e1,e1), a nonzero scalar
    el = mono(V5, 1) + mono(V5, 2, 3, 4)
    mu = Potential.homotopy_family(V5, el)
    sq = poisson_bracket(el, el)
    assert not sq.is_zero() and sq.degrees() == [0]
    assert check_l_infinity(mu).passed


# ---------------------------------------------------------------------------
# unshuffle Jacobi


def test_nary_jacobi_failure_m6():
    mu = Potential.single(V6, mono(V6, 3, 4, 5, 6) + mono(V6, 1, 2, 5, 6))
    rep = check_nary_jacobi(derive_structure(mu))
    assert not rep.passed
    assert rep.witness == (0, 1, 2, 3, 4)
    assert rep.residual == mono(V6, 5, coeff=-2)


def test_nary_jacobi_passes_m7_star_of_degree2():
    from naryalg.hodge import HodgeContext, star
    V7 = odd_space(7)
    ctx = HodgeContext(V7)
    v = Element.monomial(V7, (0, 1)) + Element.monomial(V7, (2, 3))
    mu = Potential.single(V7, star(ctx, v))
    assert check_nary_jacobi(derive_structure(mu)).passed


def test_nary_jacobi_zero_structure():
    assert check_nary_jacobi(NaryStructure(V5, 2, {})).passed


def test_nary_jacobi_binary_matches_square_condition():
    # even arity on a pure odd space: Jacobi holds iff [mu,mu] = 0
    rng = random.Random(55)
    seen = {True: 0, False: 0}
    for _ in range(25):
        el = random_homogeneous(V5, rng, 3)
        if el.is_zero():
            continue
        mu = Potential.single(V5, el)
        sq_zero = poisson_bracket(el, el).is_zero()
        jac = check_nary_jacobi(derive_structure(mu)).passed
        assert sq_zero == jac
        seen[jac] += 1
    assert seen[True] and seen[False]


def test_generalized_jacobi_matches_homotopy_condition():
    rng = random.Random(77)
    tested = {True: 0, False: 0}
    for _ in range(30):
        sp = odd_space(rng.choice([3, 4, 5]))
        acc = Element.zero(sp)
        for deg in range(1, sp.dim + 1, 2):
            if rng.random() < 0.6:
                acc = acc + random_homogeneous(sp, rng, deg, terms=2)
        if acc.is_zero():
            continue
        mu = Potential.homotopy_family(sp, acc)
        ok = check_l_infinity(mu).passed
        reports = generalized_jacobi(mu)
        assert ok == all(r.passed for r in reports.values())
        tested[ok] += 1
    assert tested[True] and tested[False]


# ---------------------------------------------------------------------------
# Filippov


def test_filippov_top_form_all_m():
    for m in (4, 5, 6, 7):
        sp = odd_space(m)
        L = Element.monomial(sp, tuple(range(m)))
        assert check_filippov(Potential.single(sp, L)).passed


def test_filippov_star_of_vector():
    from naryalg.hodge import HodgeContext, star
    for m in (5, 6):
        sp = odd_space(m)
        ctx = HodgeContext(sp)
        mu = Potential.single(sp, star(ctx, Element.generator(sp, 0)))
        assert check_filippov(mu).passed


def test_filippov_rank4_fails_with_witness():
    mu = Potential.single(V5, mono(V5, 3, 4, 5) + mono(V5, 1, 2, 5))
    rep = check_filippov(mu)
    assert not rep.passed
    assert rep.witness is not None
    # residual really is [mu_a, mu] for the witness tuple
    mu_a = nested_bracket_indices(rep.witness, mu.element)
    assert rep.residual == poisson_bracket(mu_a, mu.element)


def test_filippov_needs_pure_odd():
    with pytest.raises(NotPureOdd):
        check_filippov(Potential.single(E2, Element.monomial(E2, (0, 0, 0))))


# ---------------------------------------------------------------------------
# Jordan and associative (pure even), with direct law oracles


def _product(s):
    gen = [Element.generator(s.space, i) for i in range(s.space.dim)]
    return gen, (lambda a, b: s.eval_elements([a, b]))


def jordan_law_oracle(s):
    """(x o y) o (x o x) = x o (y o (x o x)), polarized in x."""
    space = s.space
    m = space.dim
    gen, prod = _product(s)
    for y in gen:
        coeffs = {}
        for i, j, k in product(range(m), repeat=3):
            lhs = prod(prod(gen[i], y), prod(gen[j], gen[k]))
            rhs = prod(gen[i], prod(y, prod(gen[j], gen[k])))
            key = tuple(sorted((i, j, k)))
            coeffs[key] = coeffs.get(key, Element.zero(space)) + (lhs - rhs)
        if any(not v.is_zero() for v in coeffs.values()):
            return False
    return True


def associativity_oracle(s):
    m = s.space.dim
    gen, prod = _product(s)
    return all(
        prod(gen[i], prod(gen[j], gen[k])) == prod(prod(gen[i], gen[j]), gen[k])
        for i, j, k in product(range(m), repeat=3))


def test_jordan_cube_of_generator_passes():
    A = Potential.single(E2, Element.monomial(E2, (0, 0, 0)))
    assert check_jordan(A).passed
    assert jordan_law_oracle(derive_structure(A))


def test_jordan_zero_passes():
    assert check_jordan(Potential.single(E2, Element.zero(E2), arity=2)).passed


def test_jordan_and_associative_match_law_oracles():
    rng = random.Random(5)
    seen_j = {True: 0, False: 0}
    for sp in (E2, E4):
        for _ in range(15):
            el = random_homogeneous(sp, rng, 3, terms=2)
            if el.is_zero():
                continue
            mu = Potential.single(sp, el)
            s = derive_structure(mu)
            vj = check_jordan(mu).passed
            va = check_associative(mu).passed
            assert vj == jordan_law_oracle(s)
            assert va == associativity_oracle(s)
            seen_j[vj] += 1
    assert seen_j[True] and seen_j[False]


def test_jordan_failure_carries_witness():
    rng = random.Random(6)
    while True:
        el = random_homogeneous(E4, rng, 3, terms=3)
        if el.is_zero():
            continue
        rep = check_jordan(Potential.single(E4, el))
        if not rep.passed:
            assert rep.witness is not None and not rep.residual.is_zero()
            break


def test_associative_failure_carries_pair():
    rng = random.Random(7)
    while True:
        el = random_homogeneous(E2, rng, 3, terms=3)
        if el.is_zero():
            continue
        rep = check_associative(Potential.single(E2, el))
        if not rep.passed:
            assert rep.witness is not None
            break


def test_jordan_needs_pure_even():
    with pytest.raises(NotPureEven):
        check_jordan(Potential.single(V5, mono(V5, 1, 2, 3)))


# ---------------------------------------------------------------------------
# derivations


def test_derivation_criterion_matches_leibniz_law():
    rng = random.Random(12)
    m = V5.dim
    gen = [Element.generator(V5, i) for i in range(m)]
    agree = {True: 0, False: 0}
    for _ in range(40):
        w = random_homogeneous(V5, rng, 2, terms=2)
        el = random_homogeneous(V5, rng, 3, terms=2)
        if el.is_zero():
            continue
        mu = Potential.single(V5, el)
        s = derive_structure(mu)
        D = ad_matrix_by_brackets(V5, w)

        def apply_d(v):
            return Element(V5, {
                (r,): sum((D[r][mo[0]] * c for mo, c in v.terms.items()),
                          Fraction(0))
                for r in range(m)})

        law = True
        for t in canonical_tuples(V5, 2):
            args = [gen[i] for i in t]
            lhs = apply_d(s.eval_elements(args))
            rhs = Element.zero(V5)
            for j in range(2):
                rhs = rhs + s.eval_elements(
                    args[:j] + [apply_d(args[j])] + args[j + 1:])
            if lhs != rhs:
                law = False
                break
        verdict = check_derivation(w, mu)
        assert verdict == law
        agree[verdict] += 1
    assert agree[True] and agree[False]


def test_every_degree2_element_derives_the_top_form():
    rng = random.Random(17)
    L = Potential.single(V5, Element.monomial(V5, (0, 1, 2, 3, 4)))
    for _ in range(20):
        w = random_homogeneous(V5, rng, 2)
        assert check_derivation(w, L)
    assert check_derivation(Element.zero(V5), L)


def test_exhaustive_mode_collects_all_violations():
    mu = Potential.single(V5, mono(V5, 3, 4, 5) + mono(V5, 1, 2, 5))
    rep = check_filippov(mu, exhaustive=True)
    assert not rep.passed
    assert len(rep.violations) > 1
    first = check_filippov(mu)
    assert first.witness == rep.violations[0][0]


def _failing_verifier_inputs():
    sp = odd_space(4)
    late = NaryStructure(sp, 2, {(2, 3): Element.generator(sp, 1).scale(3)})
    rng = random.Random(5)
    table = {}
    for i in range(4):
        for j in range(i + 1, 4):
            table[(i, j)] = Element(sp, {(k,): Fraction(rng.randint(-2, 2))
                                         for k in range(4)})
    jac6 = derive_structure(Potential.single(
        V6, mono(V6, 3, 4, 5, 6) + mono(V6, 1, 2, 5, 6)))
    fil5 = Potential.single(V5, mono(V5, 3, 4, 5) + mono(V5, 1, 2, 5))
    # witness and residual as reported by the thread-pool version, which
    # evaluated every probe before taking the first violation
    return [
        ("invariant", check_invariant, late, (1, 2, 3), Fraction(3)),
        ("jacobi-random", check_nary_jacobi, NaryStructure(sp, 2, table),
         (0, 1, 2), Element(sp, {(0,): -5, (1,): -3, (2,): 4, (3,): 6})),
        ("jacobi-m6", check_nary_jacobi, jac6, (0, 1, 2, 3, 4),
         mono(V6, 5, coeff=-2)),
        ("filippov", check_filippov, fil5, (0,), mono(V5, 2, 3, 4)),
    ]


@pytest.mark.parametrize("case", _failing_verifier_inputs(),
                         ids=lambda case: case[0])
def test_single_thread_verifiers_keep_first_witness(case):
    _, check, x, witness, residual = case
    full = check(x, exhaustive=True)
    # check_nary_jacobi alone still takes a threads keyword, and ignores it
    jacobi = check is check_nary_jacobi
    for kwargs in ({}, {"threads": 4}) if jacobi else ({},):
        rep = check(x, **kwargs)
        assert not rep.passed
        assert (rep.witness, rep.residual) == (witness, residual)
        assert rep.violations == full.violations[:1]
        assert check(x, exhaustive=True, **kwargs).violations == \
            full.violations


def test_invariant_loop_stops_at_first_violation(monkeypatch):
    _, check, s, witness, _ = _failing_verifier_inputs()[0]
    calls = []
    real = NaryStructure.eval_basis
    monkeypatch.setattr(NaryStructure, "eval_basis",
                        lambda self, key: calls.append(key) or real(self, key))
    check(s)
    first = len(calls)
    rep = check(s, exhaustive=True)
    assert len(rep.violations) == 3 and rep.violations[0][0] == witness
    assert first < len(calls) - first


def _rejected_structures():
    V2, V4 = odd_space(2), odd_space(4)
    # an odd e1 beside an even symplectic pair, with degree cap 2: the
    # closed form of an arity-2 table would need degree-3 monomials
    shape = (3, [1, 0, 0], [[1, 0, 0], [0, 0, 1], [0, -1, 0]])
    capped = Superspace(*shape, max_degree=2)
    free = Superspace(*shape)
    lawful = derive_structure(Potential.single(free, Element.monomial(
        free, (0, 1, 2)))).table

    def gen(sp, i, c=1):
        return Element.generator(sp, i).scale(c)

    rng = random.Random(3)
    table = {(i, j): Element(V4, {(k,): Fraction(rng.randint(-2, 2))
                                  for k in range(4)})
             for i in range(4) for j in range(i + 1, 4)}
    # error type, witness and message as raised when the two laws were
    # checked before the closed form
    return [
        ("noncomm-odd", NaryStructure(V5, 2, {(0, 0): gen(V5, 1)}),
         NotCommutative, (0, 0), "structure is not graded-commutative"),
        ("noncomm-late", NaryStructure(
            V5, 2, {(0, 1): gen(V5, 2), (3, 3): gen(V5, 0, 2)}),
         NotCommutative, (3, 3), "structure is not graded-commutative"),
        ("noninv-m2", NaryStructure(V2, 2, {(0, 1): gen(V2, 0)}),
         NotInvariant, (0, 0, 1), "structure is not invariant"),
        ("noninv-random", NaryStructure(V4, 2, table),
         NotInvariant, (0, 0, 1), "structure is not invariant"),
        ("noninv-even", NaryStructure(E2, 2, {(0, 0): gen(E2, 0)}),
         NotInvariant, (1, 0, 0), "structure is not invariant"),
        ("noncomm-capped", NaryStructure(capped, 2, {(0, 0): gen(capped, 1)}),
         NotCommutative, (0, 0), "structure is not graded-commutative"),
        ("noninv-capped", NaryStructure(capped, 2, {(1, 2): gen(capped, 1)}),
         NotInvariant, (1, 2, 2), "structure is not invariant"),
        # commutative and invariant, but its potential is over the cap
        ("lawful-capped", NaryStructure(capped, 2, {
            key: Element(capped, val.terms) for key, val in lawful.items()}),
         DegreeCapExceeded, None, "monomial degree 3 exceeds cap 2"),
    ]


@pytest.mark.parametrize("case", _rejected_structures(),
                         ids=lambda case: case[0])
def test_rejection_keeps_error_and_witness(case):
    _, s, error, witness, message = case
    with pytest.raises(error) as exc:
        potential_from_structure(s)
    assert type(exc.value) is error
    assert getattr(exc.value, "witness", None) == witness
    assert str(exc.value) == message


def test_inversion_skips_the_law_checks_on_success(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("law check ran on the success path")

    monkeypatch.setattr(derived, "check_commutative", refuse)
    monkeypatch.setattr(derived, "check_invariant", refuse)
    mu = Potential.single(V6, mono(V6, 3, 4, 5, 6) + mono(V6, 1, 2, 5, 6))
    assert potential_from_structure(derive_structure(mu)).element == \
        mu.element


# ---------------------------------------------------------------------------
# support-driven loops against the gather oracles


def random_superspace(rng, m, pure_odd=False):
    """Random parities and a sparse rational Gram matrix, often degenerate."""
    parity = [1] * m if pure_odd else [rng.randint(0, 1) for _ in range(m)]
    gram = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            if parity[i] != parity[j] or rng.random() < 0.5:
                continue
            x = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            if parity[i]:
                gram[i][j] = gram[j][i] = x
            elif i != j:
                gram[i][j], gram[j][i] = x, -x
    return Superspace(m, parity, gram)


def random_degree1(rng, space, terms):
    return Element(space, {(rng.randrange(space.dim),):
                           Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                           for _ in range(terms)})


def random_table(rng, space, n):
    """Up to six non-decreasing keys, repeated odd indices included."""
    keys = {tuple(sorted(rng.randrange(space.dim) for _ in range(n)))
            for _ in range(rng.randint(0, 6))}
    return NaryStructure(space, n, {key: random_degree1(rng, space,
                                                        rng.randint(1, 3))
                                    for key in keys})


def perturbed(rng, s):
    """s with one random degree-1 element added at one key, if any."""
    if not s.table:
        return s
    table = dict(s.table)
    key = rng.choice(sorted(table))
    table[key] = table[key] + random_degree1(rng, s.space, 1)
    return NaryStructure(s.space, s.arity, table)


def report_bytes(rep):
    return io.dumps(io.check_report_to_json(rep))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("pure_odd", [False, True], ids=["mixed", "odd"])
def test_support_loops_match_gather_oracles(n, pure_odd):
    rng = random.Random(100 * n + pure_odd)
    seen = {"degenerate": 0, "fail": 0, "pass": 0}
    if n > 1:
        seen["odd-repeat"] = 0
    for _ in range(40):
        space = random_superspace(rng, rng.randint(2, 6), pure_odd)
        seen["degenerate"] += not space.nondegenerate
        el = random_homogeneous(space, rng, n + 1, terms=rng.randint(1, 3))
        mu = Potential.single(space, el, arity=n)
        s = derive_structure(mu)
        oracle = derive_structure_by_all_tuples(mu)
        assert s == oracle and list(s.table) == list(oracle.table)
        tables = [s, perturbed(rng, s), random_table(rng, space, n)]
        if n > 1:
            seen["odd-repeat"] += any(
                a == b and space.parity[a]
                for key in tables[2].table for a, b in zip(key, key[1:]))
        for exhaustive in (False, True):
            for t in tables:
                for check, gather in ((check_invariant, invariant_by_all_pairs),
                                      (check_nary_jacobi,
                                       nary_jacobi_by_gather)):
                    rep = check(t, exhaustive=exhaustive)
                    assert report_bytes(rep) == report_bytes(
                        gather(t, exhaustive=exhaustive))
                    seen["pass" if rep.passed else "fail"] += 1
            if pure_odd:
                assert report_bytes(check_filippov(
                    mu, exhaustive=exhaustive)) == report_bytes(
                        filippov_by_all_tuples(mu, exhaustive=exhaustive))
    assert all(seen.values()), seen


def test_repeated_odd_key_reads_as_zero():
    # NaryStructure keeps a value on the repeated odd key (1, 1) although
    # eval_basis reads zero there; the scatter and the pair enumeration
    # must skip that key
    g = Element.generator
    only = NaryStructure(V5, 2, {(1, 1): g(V5, 0)})
    mixed = NaryStructure(V5, 2, {(1, 1): g(V5, 0), (0, 1): g(V5, 2),
                                  (1, 2): g(V5, 1).scale(2)})
    assert check_invariant(only).passed and check_nary_jacobi(only).passed
    for s in (only, mixed):
        for exhaustive in (False, True):
            assert report_bytes(check_invariant(s, exhaustive)) == \
                report_bytes(invariant_by_all_pairs(s, exhaustive))
            assert report_bytes(check_nary_jacobi(s, exhaustive)) == \
                report_bytes(nary_jacobi_by_gather(s, exhaustive))
    assert not check_nary_jacobi(mixed).passed
    assert not check_invariant(mixed).passed


def test_derive_brackets_only_the_support():
    # k disjoint cubics on an odd orthonormal space: each pairs only with
    # its own three generators, so 3 suffixes and 3 entries each instead of
    # C(12, 2) = 66, and no per-tuple contraction: derived does not even
    # bind nested_bracket_indices
    assert not hasattr(derived, "nested_bracket_indices")
    space = odd_space(12)
    for k in range(1, 5):
        el = Element.zero(space)
        for c in range(k):
            el = el + Element.monomial(space, (3 * c, 3 * c + 1, 3 * c + 2),
                                       c + 1)
        mu = Potential.single(space, el)
        assert len(contractions(mu, 1)) == 3 * k
        s = derive_structure(mu)
        assert len(s.table) == 3 * k
        assert s == derive_structure_by_all_tuples(mu)


class Count(int):
    """An int that counts the products made with it (test only); sums and
    negations stay Counts, so every product of a level is counted."""

    products = 0

    def __mul__(self, other):
        Count.products += 1
        return Count(int.__mul__(self, other))

    __rmul__ = __mul__

    def __neg__(self):
        return Count(int.__neg__(self))

    def __add__(self, other):
        return Count(int.__add__(self, other))

    __radd__ = __add__


class Tally(Fraction):
    """A Fraction whose numerator is a Count (test only): the integer pass
    of ``contractions`` reads it once to scale the coefficient, and every
    product of a level descends from it."""

    @property
    def numerator(self):
        return Count(self._numerator)


def suffix_work(mu, k):
    """Products made by a pass that contracts each nonzero canonical suffix
    s shorter than k once: one per term w of mu_s, factor x of w and
    generator a pairing with x such that (a,) + s is canonical."""
    space = mu.space
    par = space.parity
    work = 0
    for j in range(k):
        for s in canonical_tuples(space, j):
            for w in nested_bracket_indices(s, mu.element).terms:
                work += sum(1 for x in w for a in space.pairing[x]
                            if not s or a < s[0] or a == s[0] and not par[a])
    return work


def test_contractions_match_the_per_tuple_path_on_random_spaces():
    """contractions(mu, k), k = 0..n, against nested_bracket_indices on
    every canonical k-tuple (values, keys and term order), and its integer
    products against one scaling per term of mu and one contraction per
    canonical suffix, over random mixed-parity spaces with non-identity
    forms, dense ones included, and potentials with repeated even indices;
    the zero potential gives no entry."""
    rng = random.Random(62)
    seen = {"dense": 0, "even-repeat": 0, "odd-partner": 0, "zero": 0}
    for trial in range(400):
        n = rng.randint(1, 4)
        space = spaces.random_superspace(rng, rng.randint(2, 7),
                                         rng.choice((0.4, 0.7, 1)))
        if n + 1 > space.max_degree:
            continue
        par = space.parity
        el = spaces.random_homogeneous(space, rng, n + 1,
                                       terms=rng.randint(0, 10))
        mu = Potential.single(space, Element._trusted(
            space, {w: Tally(c) for w, c in el.terms.items()}), arity=n)
        seen["zero"] += el.is_zero()
        seen["dense"] += any(len(row) >= 2 for row in space.pairing)
        for k in range(n + 1):
            Count.products = 0
            level = contractions(mu, k)
            assert Count.products == len(el.terms) + suffix_work(mu, k), \
                (trial, k)
            want = {}
            for t in canonical_tuples(space, k):
                terms = nested_bracket_indices(t, el).terms
                if terms:
                    want[t] = terms
            assert level == want, (trial, k)
            assert all(list(level[t]) == list(want[t]) for t in want), trial
            seen["even-repeat"] += any(a == b for t in level
                                       for a, b in zip(t, t[1:]))
            # an odd index that still pairs with a factor after its own
            # contraction: the node the canonical prune must not build
            seen["odd-partner"] += k < n and any(
                par[t[0]] and t[0] in space.pairing[x]
                for t in level if t for w in level[t] for x in w)
    assert all(count >= 20 for count in seen.values()), seen


def test_contractions_scale_to_integers_on_mixed_spaces():
    """The integer pass against nested_bracket_indices on the mixed-parity
    spaces of tests/spaces.py, with fractional coefficients in mu and in
    the form: every coefficient returned is a nonzero Fraction, equal to
    the chain of brackets on its tuple.  The trials must include a
    potential with D > 1, a form with E > 1 and a nonempty level k >= 2,
    where dividing by D*E instead of D*E^k would show."""
    rng = random.Random(39)
    seen = {"D>1": 0, "E>1": 0, "k>=2": 0, "all three": 0}
    for trial in range(300):
        space = spaces.random_superspace(rng, rng.randint(3, 6),
                                         rng.choice((0.5, 1)))
        n = rng.randint(1, 3)
        if not 0 < sum(space.parity) < space.dim or n + 1 > space.max_degree:
            continue
        el = spaces.random_homogeneous(space, rng, n + 1,
                                       terms=rng.randint(1, 6))
        el = Element(space, {w: c * spaces.random_scalar(rng)
                             for w, c in el.terms.items()})
        mu = Potential.single(space, el, arity=n)
        D = lcm(*(c.denominator for c in el.terms.values()))
        E = lcm(*(g.denominator for row in space.pairing
                  for g in row.values()))
        for k in range(n + 1):
            level = contractions(mu, k)
            for t in canonical_tuples(space, k):
                want = nested_bracket_indices(t, el).terms
                assert level.get(t, {}) == want, (trial, t)
            assert all(type(c) is Fraction and c
                       for terms in level.values() for c in terms.values())
            if k >= 2 and level:
                seen["D>1"] += D > 1
                seen["E>1"] += E > 1
                seen["k>=2"] += 1
                seen["all three"] += D > 1 and E > 1
    assert all(count >= 20 for count in seen.values()), seen


def test_filippov_matches_the_gather_on_random_odd_spaces():
    """check_filippov against filippov_by_all_tuples (witness, residual
    and every violation) on pure odd spaces with random forms, arity 1 to
    4 and the zero potential included."""
    rng = random.Random(63)
    seen = {"pass": 0, "fail": 0, "arity-1": 0, "zero": 0}
    for trial in range(150):
        n = rng.randint(1, 4)
        m = rng.randint(n + 2, 7)
        space = Superspace(m, [1] * m, spaces.random_gram(
            rng, [1] * m, rng.choice((0.4, 0.7, 1))))
        el = spaces.random_homogeneous(space, rng, n + 1,
                                       terms=rng.randint(0, 4))
        mu = Potential.single(space, el, arity=n)
        for exhaustive in (False, True):
            rep = check_filippov(mu, exhaustive=exhaustive)
            assert report_bytes(rep) == report_bytes(filippov_by_all_tuples(
                mu, exhaustive=exhaustive)), trial
        seen["pass" if rep.passed else "fail"] += 1
        seen["arity-1"] += n == 1
        seen["zero"] += el.is_zero()
    assert all(count >= 20 for count in seen.values()), seen


def test_cubic_operators_match_the_generator_contractions():
    """_cubic_operators against the nonzero [e_i, mu] by
    nested_bracket_indices, in ascending i, on pure even spaces with random
    skew forms."""
    rng = random.Random(64)
    for trial in range(60):
        m = 2 * rng.randint(1, 3)
        space = Superspace(m, [0] * m, spaces.random_gram(
            rng, [0] * m, rng.choice((0.4, 0.7, 1))))
        el = spaces.random_homogeneous(space, rng, 3, terms=rng.randint(0, 5))
        mu = Potential.single(space, el, arity=2)
        ops = derived._cubic_operators(mu, "test")
        want = {i: nested_bracket_indices((i,), el) for i in range(m)}
        assert ops == {i: v for i, v in want.items() if not v.is_zero()}, \
            trial
        assert list(ops) == sorted(ops), trial


def test_jordan_inner_is_level_two_of_the_contractions():
    """[e_j, [e_i, A]] by nested_bracket_indices equals level 2 of
    contractions at sorted((j, i)), both orders of i and j, on pure even
    spaces with random skew forms: [e_i, e_j] is a scalar there."""
    rng = random.Random(66)
    for trial in range(60):
        m = 2 * rng.randint(1, 3)
        space = Superspace(m, [0] * m, spaces.random_gram(
            rng, [0] * m, rng.choice((0.4, 0.7, 1))))
        el = spaces.random_homogeneous(space, rng, 3, terms=rng.randint(0, 5))
        mu = Potential.single(space, el, arity=2)
        level = contractions(mu, 2)
        for i in range(m):
            a_i = nested_bracket_indices((i,), el)
            for j in range(m):
                want = nested_bracket_indices((j,), a_i).terms
                assert level.get(tuple(sorted((j, i))), {}) == want, trial


def test_invariant_pairs_through_the_form_on_random_spaces():
    """check_invariant against invariant_by_all_pairs on derived, perturbed
    and random tables over random mixed-parity spaces whose forms are not
    the identity, dense ones included."""
    rng = random.Random(65)
    seen = {"pass": 0, "fail": 0, "dense": 0}
    for trial in range(150):
        n = rng.randint(1, 3)
        space = spaces.random_superspace(rng, rng.randint(2, 6),
                                         rng.choice((0.4, 0.7, 1)))
        seen["dense"] += any(len(row) >= 2 for row in space.pairing)
        s = random_table(rng, space, n)
        if n + 1 <= space.max_degree and rng.random() < 0.6:
            el = spaces.random_homogeneous(space, rng, n + 1, terms=4)
            s = derive_structure(Potential.single(space, el, arity=n))
            if rng.random() < 0.5:
                s = perturbed(rng, s)
        for exhaustive in (False, True):
            rep = check_invariant(s, exhaustive=exhaustive)
            assert report_bytes(rep) == report_bytes(invariant_by_all_pairs(
                s, exhaustive=exhaustive)), trial
        seen["pass" if rep.passed else "fail"] += 1
    assert all(count >= 20 for count in seen.values()), seen


def test_jordan_brackets_each_inner_once(monkeypatch):
    # [[A_i, e_j], A] does not depend on k, nor on the order of i and j:
    # one bracket with A per unordered pair with a nonzero inner, not m^3;
    # A_i = [e_i, A] and [e_j, A_i] are read off ``contractions``, levels
    # 1 and 2, not general brackets
    assert not hasattr(derived, "nested_bracket_indices")
    rng = random.Random(11)
    for sp in (E2, E4):
        m = sp.dim
        for _ in range(6):
            A = Potential.single(sp, random_homogeneous(sp, rng, 3, terms=3),
                                 arity=2)
            with monkeypatch.context() as patch:
                calls = []
                real = derived.poisson_bracket
                patch.setattr(derived, "poisson_bracket", lambda a, b: (
                    calls.append(b is A.element) or real(a, b)))
                reps = [check_jordan(A, exhaustive=ex) for ex in (False, True)]
            level = contractions(A, 2)
            assert 0 < len(level) <= m * (m + 1) // 2
            assert sum(calls) == 2 * len(level)
            for ex, rep in zip((False, True), reps):
                assert report_bytes(rep) == report_bytes(
                    jordan_by_triple_loop(A, exhaustive=ex))


def test_cubic_criteria_bracket_no_zero_operand(monkeypatch):
    """check_associative and check_jordan against the generator-bracket and
    triple-loop oracles on random cubics over random symplectic forms,
    sparse enough that some [e_i, mu] vanish.  Neither criterion brackets
    a zero operand, and check_associative brackets each pair i <= j of
    nonzero [e_i, mu] once."""
    rng = random.Random(35)
    calls = []
    real = derived.poisson_bracket
    monkeypatch.setattr(derived, "poisson_bracket",
                        lambda a, b: calls.append((a, b)) or real(a, b))
    seen = {"some-zero": 0, "pass": 0, "fail": 0}
    trial = 0
    while min(seen.values()) < 4:
        trial += 1
        m = rng.choice((2, 4, 4, 6))
        space = Superspace(m, [0] * m, spaces.random_gram(
            rng, [0] * m, rng.choice((0.5, 1))), max_degree=3 * m)
        if not space.nondegenerate:
            continue
        el = spaces.random_homogeneous(space, rng, 3,
                                       terms=rng.choice((1, 1, 2, 3)))
        mu = Potential.single(space, el, arity=2)
        nonzero = len(contractions(mu, 1))
        seen["some-zero"] += 0 < nonzero < m
        for ex in (False, True):
            for check, oracle in ((check_associative,
                                   associative_by_generator_brackets),
                                  (check_jordan, jordan_by_triple_loop)):
                calls.clear()
                rep = check(mu, exhaustive=ex)
                assert not any(a.is_zero() or b.is_zero() for a, b in calls)
                if check is check_associative and ex:
                    assert len(calls) == nonzero * (nonzero + 1) // 2
                assert report_bytes(rep) == report_bytes(
                    oracle(mu, exhaustive=ex)), trial
                seen["pass" if rep.passed else "fail"] += ex
    assert trial < 100, seen


@pytest.mark.parametrize("sp", [E2, E4], ids=["E2", "E4"])
def test_associative_matches_the_generator_bracket_oracle(sp):
    rng = random.Random(13 + sp.dim)
    outcomes = set()
    for trial in range(12):
        el = random_homogeneous(sp, rng, 3, terms=1 + trial % 4)
        mu = Potential.single(sp, el, arity=2)
        for ex in (False, True):
            rep = check_associative(mu, exhaustive=ex)
            assert report_bytes(rep) == report_bytes(
                associative_by_generator_brackets(mu, exhaustive=ex))
            outcomes.add(rep.passed)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# the one structure-key rule, and the arguments a structure reads


def _mixed_spaces(seed, count=6):
    """Random spaces of dimension 3..6 with both parities."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        sp = spaces.random_superspace(rng, rng.randint(3, 6))
        if 0 < sum(sp.parity) < sp.dim:
            out.append(sp)
    return out


def test_structure_takes_each_key_by_the_one_rule_on_mixed_spaces():
    """NaryStructure refuses a key of the wrong length, one that descends
    and one with an index outside the basis (negative too), each with a
    plain NaryError, and a value over another space or of another degree;
    the indices are taken by the one index rule before the order is read,
    so a descending key with an index outside the basis is refused for its
    range."""
    for sp in _mixed_spaces(90):
        m = sp.dim
        e = Element.generator(sp, m - 1)
        for n in (1, 2, 3):
            ok = (0,) * (n - 1) + (m - 1,)
            assert NaryStructure(sp, n, {ok: e}).table == {ok: e}
            cases = [((0,) * (n + 1), f"expected {n} indices"),
                     ((0,) * (n - 1), f"expected {n} indices"),
                     ((0,) * (n - 1) + (m,), "key .* has an index outside "
                      f"0..{m - 1}"),
                     ((-1,) * n, f"key .* has an index outside 0..{m - 1}")]
            if n > 1:
                cases += [((1,) + (0,) * (n - 1),
                           "indices must be non-decreasing"),
                          ((m + 2,) + (0,) * (n - 1),
                           f"key .* has an index outside 0..{m - 1}")]
            for key, msg in cases:
                with pytest.raises(NaryError, match=f"^{msg}$") as info:
                    NaryStructure(sp, n, {key: e})
                assert type(info.value) is NaryError, key
            with pytest.raises(SpaceMismatch):
                NaryStructure(sp, n, {ok: Element.generator(odd_space(m), 0)})
            for value in (Element.scalar(sp, 1), Element(sp, {(0, 1): 1}),
                          e + Element.scalar(sp, 2)):
                with pytest.raises(WrongDegree):
                    NaryStructure(sp, n, {ok: value})
        with pytest.raises(NaryError, match="^structure arity must be >= 1$"):
            NaryStructure(sp, 0, {})


def test_parse_structure_refuses_each_key_at_its_args():
    """The document's keys go through the same rule, refused at the args
    field of the constant at fault with the rule's message."""
    value = [{"monomial": [1], "coeff": "1"}]
    for args, msg in (([1, 2, 3], "expected 2 indices"), ([1],
                      "expected 2 indices"),
                      ([3, 1], "indices must be non-decreasing")):
        doc = {"arity": 2, "constants": [{"args": [1, 2], "value": value},
                                         {"args": args, "value": value}]}
        with pytest.raises(SchemaError) as info:
            io.parse_structure(V5, doc)
        assert str(info.value) == f"structure.constants[1].args: {msg}"
    s = io.parse_structure(V5, {"arity": 2, "constants": [
        {"args": [1, 1], "value": value}, {"args": [2, 3], "value": []}]})
    assert s.table == {(0, 0): Element.generator(V5, 0)} and not s.live


def test_eval_basis_refuses_an_index_outside_the_basis():
    """A word with an index outside the basis, negative or past dim, is
    refused before its parity is read: once (9, 1) raised IndexError and
    (-1, 2) read parity[-1] and returned 0."""
    V8 = odd_space(8)
    s = derive_structure(Potential.single(V8, mono(V8, 1, 2, 3)))
    for t in [s] + [random_table(random.Random(sp.dim), sp, 2)
                    for sp in _mixed_spaces(91, 3)]:
        m = t.space.dim
        for word in ((m + 1, 1), (-1, 2), (m, 0), (0, m), (-1, -1)):
            with pytest.raises(NaryError, match=r"^word \(.*\) has an index "
                               rf"outside 0\.\.{m - 1}$") as info:
                t.eval_basis(word)
            assert type(info.value) is NaryError
    assert s.eval_basis((1, 0)) == -s.eval_basis((0, 1)) == mono(V8, 3)


def test_eval_elements_refuses_an_argument_over_another_space():
    """Arguments over another space are refused before any lookup: a space
    of the same dimension with another form once read the table silently,
    and a larger space once raised IndexError."""
    s = derive_structure(Potential.single(V5, mono(V5, 1, 2, 3)))
    doubled = Superspace(5, [1] * 5, [[2 * (i == j) for j in range(5)]
                                      for i in range(5)])
    for other, (i, j) in ((doubled, (0, 1)), (odd_space(7), (5, 6))):
        args = [Element.generator(other, i), Element.generator(other, j)]
        with pytest.raises(SpaceMismatch):
            s.eval_elements(args)
        with pytest.raises(SpaceMismatch):
            s.eval_elements([Element.generator(V5, 0), args[1]])
    assert s.eval_elements([Element.generator(V5, 0),
                            Element.generator(V5, 1)]) == mono(V5, 3).scale(-1)


def test_reports_and_potentials_print_their_fields():
    """A report is truthy exactly when it passes, and prints its fields in
    order; a potential prints its kind and its element."""
    assert not CheckReport("x", False) and CheckReport("x", True)
    assert repr(CheckReport("x", False, witness=(0, 1),
                            residual=Fraction(1, 2))) == (
        "CheckReport(name='x', passed=False, witness=(0, 1), "
        "residual=Fraction(1, 2), detail='', violations=[])")
    V3 = odd_space(3)
    assert repr(Potential.single(V3, mono(V3, 1, 2, 3, coeff=2))) == \
        "Potential(arity=2, (2)*e1e2e3)"
    family = mono(V3, 1) + mono(V3, 1, 2, 3, coeff=2)
    assert repr(Potential.homotopy_family(V3, family)) == \
        "Potential(family, (1)*e1 + (2)*e1e2e3)"
