"""Superspace validation, positive definiteness, exact rank."""

from fractions import Fraction

import pytest

from naryalg import io, linalg
from naryalg.errors import (InexactCoefficient, MixedParityEntry, NotPureOdd,
                            SymmetryViolation)
from naryalg.superspace import (
    Orientation,
    Superspace,
    is_positive_definite,
    odd_space,
)

from oracles import rank_by_minors


def test_odd_identity_valid_nondegenerate():
    sp = Superspace(2, [1, 1], [[1, 0], [0, 1]])
    assert sp.nondegenerate
    assert sp.pure_odd


def test_even_symplectic_valid():
    sp = Superspace(2, [0, 0], [[0, 1], [-1, 0]])
    assert sp.nondegenerate
    assert sp.pure_even


def test_odd_antisymmetric_rejected():
    with pytest.raises(SymmetryViolation):
        Superspace(2, [1, 1], [[0, 1], [-1, 0]])


def test_even_symmetric_rejected():
    with pytest.raises(SymmetryViolation):
        Superspace(2, [0, 0], [[1, 0], [0, 1]])


def test_mixed_parity_entry_rejected():
    with pytest.raises(MixedParityEntry):
        Superspace(2, [0, 1], [[0, 1], [1, 0]])


def test_mixed_parity_zero_entries_ok():
    sp = Superspace(4, [0, 0, 1, 1],
                        [[0, 1, 0, 0], [-1, 0, 0, 0],
                         [0, 0, 1, 0], [0, 0, 0, 1]])
    assert sp.nondegenerate


def test_positive_definite_identity():
    assert is_positive_definite(odd_space(5))


def test_positive_definite_indefinite_diagonal():
    sp = odd_space(2, gram=[[1, 0], [0, -1]])
    assert not is_positive_definite(sp)


def test_positive_definite_off_diagonal():
    # leading minors 2 and 3
    sp = odd_space(2, gram=[[2, 1], [1, 2]])
    assert is_positive_definite(sp)
    assert linalg.det([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]]) == 3


def test_positive_definite_needs_pure_odd():
    with pytest.raises(NotPureOdd):
        is_positive_definite(Superspace(2, [0, 0], [[0, 1], [-1, 0]]))


def test_rank_routines_agree_small_dims():
    import random
    rng = random.Random(1)
    for _ in range(40):
        m = rng.randint(1, 6)
        g = [[Fraction(0)] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                x = Fraction(rng.randint(-3, 3))
                g[i][j] = x
                g[j][i] = x
        sp = odd_space(m, gram=g)
        r1 = sp.rank()
        r2 = linalg.bareiss_rank(g)
        r3 = rank_by_minors(g)
        assert r1 == r2 == r3


def test_serialization_round_trip():
    sp = Superspace(3, [1, 1, 1],
                        [[Fraction(2), 1, 0], [1, Fraction(1, 3), 0],
                         [0, 0, 1]])
    back = io.parse_superspace(io.superspace_to_json(sp))
    assert back == sp


def test_orientation_sign():
    assert Orientation.standard(4).sign == 1
    assert Orientation([1, 0, 2, 3]).sign == -1
    assert Orientation([1, 2, 0]).sign == 1


def test_env_var_sets_degree_cap(monkeypatch):
    monkeypatch.setenv("NARY_MAX_DEGREE", "5")
    sp = Superspace(2, [0, 0], [[0, 1], [-1, 0]])
    assert sp.max_degree == 5
    # explicit argument wins over the environment
    sp = Superspace(2, [0, 0], [[0, 1], [-1, 0]], max_degree=7)
    assert sp.max_degree == 7
    # pure odd spaces are bounded by the dimension regardless
    assert odd_space(3).max_degree == 3


def test_float_gram_rejected():
    # Fraction(0.1) would silently store 3602879701896397/36028797018963968
    with pytest.raises(InexactCoefficient):
        Superspace(1, [1], [[0.1]])
    tenth = Fraction(1, 10)
    assert Superspace(1, [1], [[tenth]]).gram == ((tenth,),)
