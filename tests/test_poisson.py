"""Product and bracket laws on S*(V), with the recursive oracle as referee."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from naryalg.errors import (DegreeCapExceeded, InexactCoefficient,
                            NaryError, SpaceMismatch)
from naryalg.poisson import (
    Element,
    multiply,
    nested_bracket_indices,
    pair_vectors,
    poisson_bracket,
)
from naryalg.superspace import Superspace, even_symplectic_space, odd_space
from oracles import bracket_recursive_oracle, nested_bracket_by_chain
from spaces import random_homogeneous, random_superspace

V5 = odd_space(5)
MIXED = Superspace(4, [0, 0, 1, 1],
                   [[0, 1, 0, 0], [-1, 0, 0, 0],
                    [0, 0, 1, 0], [0, 0, 0, 1]],
                   max_degree=8)


def mono(space, *word, coeff=1):
    return Element.monomial(space, [i - 1 for i in word], coeff)


def all_monomials(space, max_degree):
    out = [Element.scalar(space, 1)]
    for d in range(1, max_degree + 1):
        for word in combinations_with_replacement(range(space.dim), d):
            el = Element.monomial(space, word)
            if not el.is_zero():
                out.append(el)
    return out


def test_multiply_examples():
    assert multiply(mono(V5, 1, 2), mono(V5, 3)) == mono(V5, 1, 2, 3)
    assert multiply(mono(V5, 2), mono(V5, 1)) == mono(V5, 1, 2, coeff=-1)
    assert multiply(mono(V5, 1), mono(V5, 1)).is_zero()


def test_multiply_even_repeats():
    e2 = even_symplectic_space(2, max_degree=6)
    sq = multiply(Element.generator(e2, 0), Element.generator(e2, 0))
    assert sq == Element.monomial(e2, (0, 0))


def test_bracket_on_generators_is_the_form():
    sp = odd_space(3, gram=[[2, 1, 0], [1, 3, 0], [0, 0, 1]])
    for i in range(3):
        for j in range(3):
            got = poisson_bracket(Element.generator(sp, i),
                                  Element.generator(sp, j))
            assert got == Element.scalar(sp, sp.gram[i][j])


def test_bracket_leibniz_example():
    # [e1, e1 e2] = e2 with the identity form; frozen from the oracle
    got = poisson_bracket(mono(V5, 1), mono(V5, 1, 2))
    assert got == mono(V5, 2)
    assert got == bracket_recursive_oracle(mono(V5, 1), mono(V5, 1, 2))


def test_bracket_with_scalar_vanishes():
    c = Element.scalar(V5, Fraction(7, 3))
    w = mono(V5, 1, 2, 3)
    assert poisson_bracket(c, w).is_zero()
    assert poisson_bracket(w, c).is_zero()
    assert bracket_recursive_oracle(w, Element.scalar(V5, 1)).is_zero()


def test_nested_bracket_single_step():
    # [e5, L] contracts the top form to a sign times the complement
    L = mono(V5, 1, 2, 3, 4, 5)
    assert nested_bracket_indices([4], L) == mono(V5, 1, 2, 3, 4)
    assert nested_bracket_indices([], L) == L


def test_nested_bracket_unrolls():
    rng = random.Random(0)
    mu = random_homogeneous(V5, rng, 3)
    a1, a2 = Element.generator(V5, 0), Element.generator(V5, 2)
    lhs = nested_bracket_indices([0, 2], mu)
    rhs = poisson_bracket(a1, poisson_bracket(a2, mu))
    assert lhs == rhs


def test_nested_bracket_indices_matches_the_chain_on_random_spaces():
    """The contraction against one general bracket per index, on random
    mixed-parity spaces with non-identity rational Gram matrices."""
    rng = random.Random(20)
    even_repeats = scalars = 0
    for trial in range(150):
        m = rng.randint(1, 9)
        space = random_superspace(rng, m, density=rng.choice((0.3, 0.6, 1)))
        target = Element.scalar(space, rng.randint(0, 2))
        for degree in range(1, min(4, space.max_degree) + 1):
            target = target + random_homogeneous(space, rng, degree, terms=3)
        # unsorted, with repeats
        indices = [rng.randrange(m) for _ in range(rng.randint(0, 4))]
        got = nested_bracket_indices(indices, target)
        assert got == nested_bracket_by_chain(space, indices, target), trial
        even_repeats += any(a == b and not space.parity[a]
                            for w in target.terms for a, b in zip(w, w[1:]))
        scalars += () in target.terms
    assert even_repeats >= 30 and scalars >= 30


def test_nested_bracket_indices_refuses_as_the_chain():
    rng = random.Random(21)
    for _ in range(20):
        m = rng.randint(1, 9)
        space = random_superspace(rng, m)
        target = random_homogeneous(space, rng, 2) + Element.scalar(space, 1)
        indices = [rng.randrange(m) for _ in range(3)]
        indices[rng.randrange(3)] = rng.choice((m, m + 3, -1))
        with pytest.raises(NaryError) as got:
            nested_bracket_indices(indices, target)
        with pytest.raises(NaryError) as want:
            nested_bracket_by_chain(space, indices, target)
        assert type(got.value) is type(want.value) is NaryError
        assert str(got.value) == str(want.value)
        # the bracket of nothing is refused as well
        with pytest.raises(NaryError):
            nested_bracket_indices(indices, Element.zero(space))


def test_nested_bracket_indices_reads_the_space_off_its_target():
    # an element of a 5-dim space stays one, with no index or none
    t = mono(V5, 1, 2, 3, 4, 5)
    assert nested_bracket_indices((), t).space is V5
    assert nested_bracket_indices([4], t).space is V5
    with pytest.raises(NaryError, match="^generator index 5 out of range$"):
        nested_bracket_indices([5], t)


def test_pair_vectors_refuses_vectors_over_different_spaces():
    e = Element.generator
    with pytest.raises(SpaceMismatch):
        pair_vectors(e(V5, 4), e(odd_space(4), 0))
    with pytest.raises(SpaceMismatch):
        pair_vectors(e(odd_space(4), 0), e(V5, 4))
    assert pair_vectors(e(V5, 4), e(V5, 4)) == 1
    assert pair_vectors(e(MIXED, 0), e(MIXED, 1)) == 1


def test_generator_refuses_an_index_outside_the_basis():
    for i in (5, 9, -1):
        with pytest.raises(NaryError,
                           match=rf"^generator index {i} out of range$"):
            Element.generator(V5, i)
    assert Element.generator(V5, 4).terms == {(4,): 1}


@pytest.mark.parametrize("m", [2, 3, 4])
def test_oracle_equivalence_all_pairs_pure_odd(m):
    space = odd_space(m)
    monos = all_monomials(space, m)
    for a in monos:
        for b in monos:
            assert poisson_bracket(a, b) == bracket_recursive_oracle(a, b)


def test_oracle_equivalence_all_pairs_mixed():
    monos = all_monomials(MIXED, 4)
    for a in monos:
        for b in monos:
            assert poisson_bracket(a, b) == bracket_recursive_oracle(a, b)


def test_oracle_equivalence_random_pairs_up_to_m6():
    rng = random.Random(9)
    spaces = [odd_space(5), odd_space(6)]
    for _ in range(1000):
        space = rng.choice(spaces)
        a = random_homogeneous(space, rng, rng.randint(1, 4))
        b = random_homogeneous(space, rng, rng.randint(1, 4))
        assert poisson_bracket(a, b) == bracket_recursive_oracle(a, b)


def test_oracle_equivalence_on_random_mixed_spaces_up_to_m9():
    # random parities and non-identity rational Gram matrices
    rng = random.Random(31)
    mixed = 0
    for _ in range(60):
        space = random_superspace(rng, rng.randint(2, 9),
                                  rng.choice((0.3, 0.6, 0.9)))
        mixed += not (space.pure_odd or space.pure_even)
        for _ in range(5):
            a = random_homogeneous(space, rng, rng.randint(1, 3))
            b = random_homogeneous(space, rng, rng.randint(1, 3))
            assert poisson_bracket(a, b) == bracket_recursive_oracle(a, b)
    assert mixed >= 40


def test_graded_antisymmetry_and_jacobi_random():
    rng = random.Random(4)
    for _ in range(150):
        space = rng.choice([V5, MIXED])
        v = random_homogeneous(space, rng, rng.randint(1, 3))
        w1 = random_homogeneous(space, rng, rng.randint(1, 3))
        w2 = random_homogeneous(space, rng, rng.randint(1, 3))
        pv, p1 = v.parity(), w1.parity()
        flip = poisson_bracket(w1, v)
        if not (pv & p1):
            flip = -flip
        assert poisson_bracket(v, w1) == flip
        t2 = poisson_bracket(w1, poisson_bracket(v, w2))
        if pv & p1:
            t2 = -t2
        assert poisson_bracket(v, poisson_bracket(w1, w2)) == \
            poisson_bracket(poisson_bracket(v, w1), w2) + t2


def test_leibniz_random():
    rng = random.Random(8)
    for _ in range(150):
        space = rng.choice([V5, MIXED])
        v = random_homogeneous(space, rng, rng.randint(1, 3))
        w1 = random_homogeneous(space, rng, rng.randint(1, 2))
        w2 = random_homogeneous(space, rng, rng.randint(1, 2))
        pv, p1 = v.parity(), w1.parity()
        t2 = multiply(w1, poisson_bracket(v, w2))
        if pv & p1:
            t2 = -t2
        assert poisson_bracket(v, multiply(w1, w2)) == \
            multiply(poisson_bracket(v, w1), w2) + t2


def _random_form_spaces(rng, count):
    """Random mixed-parity spaces with non-identity Gram matrices."""
    out = []
    while len(out) < count:
        space = random_superspace(rng, rng.randint(3, 6),
                                  rng.choice((0.3, 0.6, 1)))
        if not space.orthonormal:
            out.append(space)
    return out


def test_graded_antisymmetry_and_jacobi_on_random_spaces():
    rng = random.Random(41)
    mixed = 0
    for space in _random_form_spaces(rng, 150):
        mixed += not (space.pure_odd or space.pure_even)
        v = random_homogeneous(space, rng, rng.randint(1, 3))
        w1 = random_homogeneous(space, rng, rng.randint(1, 3))
        w2 = random_homogeneous(space, rng, rng.randint(1, 3))
        pv, p1 = v.parity(), w1.parity()
        flip = poisson_bracket(w1, v)
        if not (pv & p1):
            flip = -flip
        assert poisson_bracket(v, w1) == flip
        t2 = poisson_bracket(w1, poisson_bracket(v, w2))
        if pv & p1:
            t2 = -t2
        assert poisson_bracket(v, poisson_bracket(w1, w2)) == \
            poisson_bracket(poisson_bracket(v, w1), w2) + t2
    assert mixed >= 100


def test_leibniz_on_random_spaces():
    rng = random.Random(42)
    mixed = 0
    for space in _random_form_spaces(rng, 150):
        mixed += not (space.pure_odd or space.pure_even)
        v = random_homogeneous(space, rng, rng.randint(1, 3))
        w1 = random_homogeneous(space, rng, rng.randint(1, 2))
        w2 = random_homogeneous(space, rng, rng.randint(1, 2))
        pv, p1 = v.parity(), w1.parity()
        t2 = multiply(w1, poisson_bracket(v, w2))
        if pv & p1:
            t2 = -t2
        assert poisson_bracket(v, multiply(w1, w2)) == \
            multiply(poisson_bracket(v, w1), w2) + t2
    assert mixed >= 100


def test_multiply_associative_and_supercommutative_random():
    rng = random.Random(13)
    for _ in range(120):
        space = rng.choice([V5, MIXED])
        a = random_homogeneous(space, rng, rng.randint(1, 2))
        b = random_homogeneous(space, rng, rng.randint(1, 2))
        c = random_homogeneous(space, rng, rng.randint(1, 2))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
        flip = multiply(b, a)
        if a.parity() & b.parity():
            flip = -flip
        assert multiply(a, b) == flip


def test_space_mismatch_rejected():
    with pytest.raises(SpaceMismatch):
        multiply(Element.generator(V5, 0), Element.generator(odd_space(4), 0))
    with pytest.raises(SpaceMismatch):
        poisson_bracket(Element.generator(V5, 0),
                        Element.generator(odd_space(4), 0))


def test_degree_cap_enforced():
    small = even_symplectic_space(2, max_degree=3)
    cubed = Element.monomial(small, (0, 0, 0))
    with pytest.raises(DegreeCapExceeded):
        multiply(cubed, Element.generator(small, 0))


def test_element_refuses_an_index_outside_the_basis():
    for space in (odd_space(3), MIXED):
        m = space.dim
        for mono in [(m,), (-1,), (7,), (0, m), (-1, 0), (0, 1, m + 2)]:
            with pytest.raises(NaryError) as info:
                Element(space, {mono: 1})
            assert type(info.value) is NaryError
        assert Element(space, {(0, m - 1): 1}).terms == {(0, m - 1): 1}


def test_float_coefficients_rejected():
    # Fraction(0.1) would silently store 3602879701896397/36028797018963968
    with pytest.raises(InexactCoefficient):
        Element(V5, {(0,): 0.1})
    with pytest.raises(InexactCoefficient):
        Element.monomial(V5, (0, 1), 0.5)
    with pytest.raises(InexactCoefficient):
        Element.generator(V5, 0).scale(2.0)
    tenth = Fraction(1, 10)
    assert Element(V5, {(0,): tenth}).terms == {(0,): tenth}
    assert Element(V5, {(0,): 3}).terms == {(0,): Fraction(3)}


def test_element_json_round_trip_and_rejections():
    from naryalg import io
    from naryalg.errors import SchemaError
    el = mono(V5, 1, 3, 5, coeff=Fraction(-2, 7)) + mono(V5, 2, 4)
    assert io.parse_element(V5, io.element_to_json(el)) == el
    with pytest.raises(SchemaError):
        io.parse_element(V5, [{"monomial": [3, 1], "coeff": "1"}])
    with pytest.raises(SchemaError):
        io.parse_element(V5, [{"monomial": [1, 1], "coeff": "1"}])
