"""Cotangent extension and the quasi-Frobenius correspondence."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from naryalg import derived
from naryalg.derived import NaryStructure, Potential, derive_structure
from naryalg.errors import NaryError, NotInvariant, OddArity
from naryalg.frobenius import (
    check_quasi_frobenius,
    doubled_space,
    graph_subalgebra_test,
    graph_vectors,
    t_star_extension,
)
from naryalg.poisson import Element, pair_vectors
from naryalg.superspace import odd_space
from oracles import graph_by_pairings, qf_by_ordered_loop

V2 = odd_space(2)


def lie_xy_structure():
    # the two-dimensional algebra {x, y} = y
    return NaryStructure(V2, 2, {(0, 1): Element.generator(V2, 1)})


def random_anticommutative(rng, m, arity=2):
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
    return sp, NaryStructure(sp, arity, table)


def random_phi(rng, m):
    phi = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            c = Fraction(rng.randint(-2, 2))
            phi[i][j] = c
            phi[j][i] = -c
    return phi


def test_doubled_space_pairing():
    ws = doubled_space(3)
    assert ws.dim == 6 and ws.pure_odd and ws.nondegenerate
    assert ws.gram[0][3] == 1 and ws.gram[3][0] == 1 and ws.gram[0][0] == 0


def test_phi_must_be_graded_symmetric():
    s = lie_xy_structure()
    ext = t_star_extension(V2, s)
    with pytest.raises(NaryError):
        check_quasi_frobenius(V2, s, [[1, 0], [0, 1]])
    with pytest.raises(NaryError):
        graph_subalgebra_test(ext, [[1, 0], [0, 1]])
    check_quasi_frobenius(V2, s, [[0, 1], [-1, 0]])
    graph_subalgebra_test(ext, [[0, 1], [-1, 0]])


def test_extension_of_zero_structure():
    ext = t_star_extension(V2, NaryStructure(V2, 2, {}))
    assert ext.potential.element.is_zero()


def test_extension_dual_action_frozen():
    # muT(x, y*)(y) = -y*({x,y}) = -1
    ext = t_star_extension(V2, lie_xy_structure())
    val = ext.structure.eval_basis((0, 3))
    assert val.coefficient((3,)) == -1
    # no component back in V, and no component on x*
    assert val.coefficient((2,)) == 0
    assert all(i >= 2 for monomial in val.terms for i in monomial)


def test_extension_restricts_to_base():
    rng = random.Random(19)
    for _ in range(10):
        sp, s = random_anticommutative(rng, rng.choice([2, 3]))
        ext = t_star_extension(sp, s)
        for key in s.table:
            lifted = ext.structure.eval_basis(key)
            want = s.eval_basis(key)
            assert all(lifted.coefficient((i,)) == want.coefficient((i,))
                       for i in range(sp.dim))


def test_extension_kills_two_dual_arguments():
    rng = random.Random(23)
    sp, s = random_anticommutative(rng, 3)
    ext = t_star_extension(sp, s)
    m = sp.dim
    for i in range(m, 2 * m):
        for j in range(i, 2 * m):
            if i == j:
                continue
            assert ext.structure.eval_basis((i, j)).is_zero()


def test_extension_structure_is_invariant():
    from naryalg.derived import check_commutative, check_invariant
    rng = random.Random(29)
    sp, s = random_anticommutative(rng, 3)
    ext = t_star_extension(sp, s)
    assert check_commutative(ext.structure).passed
    assert check_invariant(ext.structure).passed


def test_extension_structure_is_derived_from_its_potential():
    sp, s = random_anticommutative(random.Random(37), 3)
    ext = t_star_extension(sp, s)
    assert derive_structure(ext.potential) == ext.structure


@pytest.mark.parametrize("duals", [0, 1, 2, 3])
def test_forged_extension_potential_rejected(duals, monkeypatch):
    """One extra monomial with the given number of dual indices.

    Each kind breaks one defining identity: the restriction to the base (0),
    the action on one dual argument (1), or the vanishing on two or more
    dual arguments (2, 3); the single certificate catches all of them.
    """
    sp, s = random_anticommutative(random.Random(37), 3)
    m = sp.dim
    forged = tuple(range(3 - duals)) + tuple(m + i for i in range(duals))
    original = derived.closed_form_potential

    def forge(ext):
        mu = original(ext)
        extra = Element.monomial(ext.space, forged)
        return Potential.single(ext.space, mu.element + extra, arity=ext.arity)

    monkeypatch.setattr(derived, "closed_form_potential", forge)
    with pytest.raises(NotInvariant):
        t_star_extension(sp, s)


def test_quasi_frobenius_zero_structure_any_phi():
    rng = random.Random(31)
    s = NaryStructure(V2, 2, {})
    assert check_quasi_frobenius(V2, s, random_phi(rng, 2)).passed


def test_quasi_frobenius_lie_example():
    # cyclic sums of {x,y} = y with phi(x,y) = 1 cancel on every tuple
    cert = check_quasi_frobenius(V2, lie_xy_structure(), [[0, 1], [-1, 0]])
    assert cert.passed
    assert cert.phi_rank == 2


def test_quasi_frobenius_failure_witness():
    rng = random.Random(37)
    found = False
    for _ in range(40):
        sp, s = random_anticommutative(rng, 3)
        cert = check_quasi_frobenius(sp, s, random_phi(rng, 3))
        if not cert.passed:
            assert cert.witness is not None and cert.residual != 0
            found = True
            break
    assert found


def test_quasi_frobenius_rejects_odd_arity_without_flag():
    sp = odd_space(3)
    s = NaryStructure(sp, 3, {})
    with pytest.raises(OddArity):
        check_quasi_frobenius(sp, s, random_phi(random.Random(0), 3))
    cert = check_quasi_frobenius(sp, s, random_phi(random.Random(0), 3),
                                 allow_odd_arity=True)
    assert cert.passed and cert.odd_arity


def test_degenerate_phi_rank_reported():
    rng = random.Random(41)
    sp, s = random_anticommutative(rng, 3)
    phi = [[Fraction(0)] * 3 for _ in range(3)]
    phi[0][1], phi[1][0] = Fraction(1), Fraction(-1)
    cert = check_quasi_frobenius(sp, s, phi)
    assert cert.phi_rank == 2  # rank of a 3x3 skew matrix with one block


def test_graph_vectors_isotropic():
    rng = random.Random(43)
    for _ in range(10):
        sp, s = random_anticommutative(rng, rng.choice([2, 3, 4]))
        phi = random_phi(rng, sp.dim)
        ext = t_star_extension(sp, s)
        b = graph_vectors(ext, phi)
        for x in b:
            for y in b:
                assert pair_vectors(ext.space, x, y) == 0


def test_graph_with_zero_phi_is_base_space():
    ext = t_star_extension(V2, lie_xy_structure())
    assert graph_subalgebra_test(ext, [[0, 0], [0, 0]])


def test_correspondence_on_random_cases():
    rng = random.Random(47)
    agree = 0
    positive = 0
    for _ in range(100):
        sp, s = random_anticommutative(rng, rng.choice([2, 3, 4]))
        phi = random_phi(rng, sp.dim)
        ext = t_star_extension(sp, s)
        cert = check_quasi_frobenius(sp, s, phi)
        graph_ok = graph_subalgebra_test(ext, phi)
        assert cert.passed == graph_ok
        agree += 1
        positive += cert.passed
    assert agree == 100
    assert 0 < positive < 100


def test_graph_test_matches_the_pairing_oracle():
    rng = random.Random(49)
    verdicts = set()
    for trial in range(40):
        sp, s = random_anticommutative(rng, rng.choice([2, 3, 4, 5]))
        m = sp.dim
        phi = (random_phi(rng, m) if trial % 4
               else [[Fraction(0)] * m for _ in range(m)])
        ext = t_star_extension(sp, s)
        got = graph_subalgebra_test(ext, phi)
        assert got == graph_by_pairings(ext, phi)
        verdicts.add(got)
    assert verdicts == {True, False}


def test_pairing_identity_exact():
    # (muT(b_i1,...,b_in), b_{i_{n+1}}) equals the cyclic sum of phi terms
    rng = random.Random(53)
    for _ in range(20):
        sp, s = random_anticommutative(rng, rng.choice([2, 3]))
        m = sp.dim
        phi = random_phi(rng, m)
        ext = t_star_extension(sp, s)
        b = graph_vectors(ext, phi)
        for args in product(range(m), repeat=3):
            img = ext.structure.eval_elements([b[args[0]], b[args[1]]])
            lhs = pair_vectors(ext.space, img, b[args[2]])
            rhs = Fraction(0)
            for t in range(3):
                rot = args[t:] + args[:t]
                vec = s.eval_basis(rot[1:])
                rhs += sum((phi[rot[0]][mono[0]] * c
                            for mono, c in vec.terms.items()), Fraction(0))
            assert lhs == rhs


def random_table_structure(rng, m, n, density):
    # any table over a pure odd space, invariant or not
    sp = odd_space(m)
    table = {}
    for key in combinations(range(m), n):
        if rng.random() < density:
            vec = {(k,): Fraction(rng.randint(-3, 3)) for k in range(m)
                   if rng.random() < density}
            table[key] = Element(sp, vec)
    return sp, NaryStructure(sp, n, table)


@pytest.mark.parametrize("n, dims", [(1, (2, 3, 4, 5, 6)), (2, (3, 4, 5, 6)),
                                     (3, (4, 5)), (4, (5, 6))])
@pytest.mark.parametrize("exhaustive", [False, True])
def test_quasi_frobenius_matches_ordered_loop(n, dims, exhaustive):
    # the engine keeps one witness, so it agrees with the oracle both ways
    rng = random.Random(1000 * n + exhaustive)
    outcomes = set()
    for trial in range(12):
        m = rng.choice(dims)
        density = rng.choice([0.15, 0.5, 1.0])
        sp, s = random_table_structure(rng, m, n, density)
        phi = (random_phi(rng, m) if trial % 4
               else [[Fraction(0)] * m for _ in range(m)])
        got = check_quasi_frobenius(sp, s, phi, allow_odd_arity=True)
        want = qf_by_ordered_loop(s, phi, exhaustive=exhaustive)
        assert (got.passed, got.witness, got.residual, got.phi_rank,
                got.odd_arity) == (want.passed, want.witness, want.residual,
                                   want.phi_rank, want.odd_arity)
        outcomes.add(got.passed)
    assert outcomes == {True, False}


def test_quasi_frobenius_m12_quartic_answers():
    # 12^5 = 248,832 ordered tuples, but only C(12, 5) = 792 are probed
    rng = random.Random(59)
    sp, s = random_table_structure(rng, 12, 4, 0.05)
    phi = random_phi(rng, 12)
    cert = check_quasi_frobenius(sp, s, phi)
    assert not cert.passed
    w = cert.witness
    assert list(w) == sorted(set(w))

    def cyclic(args):
        return sum((phi[rot[0]][mono[0]] * c
                    for rot in (args[t:] + args[:t] for t in range(5))
                    for mono, c in s.eval_basis(rot[1:]).terms.items()),
                   Fraction(0))

    assert cert.residual == cyclic(w) != 0
    assert all(cyclic(args) == 0 for args in combinations(range(12), 5)
               if args < w)


@pytest.mark.parametrize("m, n", [(8, 5), (23, 6)])
def test_quasi_frobenius_refuses_loop_above_budget(m, n):
    # 8^6 = 262,144 ordered tuples at odd arity; C(23, 7) = 245,157 at even
    sp = odd_space(m)
    s = NaryStructure(sp, n, {})
    phi = [[Fraction(0)] * m for _ in range(m)]
    with pytest.raises(NaryError, match="work budget"):
        check_quasi_frobenius(sp, s, phi, allow_odd_arity=True)
