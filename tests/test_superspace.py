"""Superspace validation, positive definiteness, exact rank."""

import itertools
import random
from fractions import Fraction

import pytest

from naryalg import io, linalg
from naryalg.errors import (Degenerate, MixedParityEntry, NaryError,
                            NotPureOdd, SymmetryViolation)
from naryalg.superspace import (
    Orientation,
    Superspace,
    is_positive_definite,
    odd_space,
    permutation_sign,
    require_nondegenerate,
)

from oracles import det_by_bareiss, rank_by_minors
from spaces import random_gram, random_scalar, random_superspace


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


@pytest.mark.parametrize("dim, parity", [
    (2, [2, 2]), (1, [3]), (1, [1.5]), (1, [1.0]), (1, ["odd"]), (1, [None]),
    ("2", [1, 1]), (2.0, [1, 1]), (0, []), (None, []),
])
def test_bad_dim_or_parity_refused(dim, parity):
    gram = [[int(i == j) for j in range(len(parity))]
            for i in range(len(parity))]
    with pytest.raises(NaryError) as info:
        Superspace(dim, parity, gram)
    assert type(info.value) is NaryError


def test_gram_rank_is_computed_on_first_use(monkeypatch):
    calls = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank",
                        lambda rows: calls.append(1) or rank(rows))
    full = Superspace(2, [0, 0], [[0, 1], [-1, 0]])
    half = odd_space(3, gram=[[1, 1, 0], [1, 1, 0], [0, 0, 2]])
    assert calls == []
    require_nondegenerate(full)
    assert calls == [1]
    assert full.nondegenerate and full.rank() == 2
    assert half.rank() == 2 and not half.nondegenerate
    with pytest.raises(Degenerate, match="form has rank 2 < 3"):
        require_nondegenerate(half)
    assert calls == [1, 1]


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


def _sylvester(g):
    """All leading principal minors positive, by the Bareiss oracle."""
    return all(det_by_bareiss([row[:k] for row in g[:k]]) > 0
               for k in range(1, len(g) + 1))


def test_positive_definite_matches_sylvester():
    # G = B^T D B: positive definite, semidefinite (B of rank < m, or a
    # zero in D) or indefinite (a negative entry in D)
    rng = random.Random(5)
    seen = {True: 0, False: 0}
    for _ in range(150):
        m, k = rng.randint(1, 6), rng.randint(1, 7)
        b = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
              for _ in range(m)] for _ in range(k)]
        d = [rng.choice((1, 1, 1, 2, Fraction(1, 3), 0, -1)) for _ in range(k)]
        g = [[sum((b[t][i] * d[t] * b[t][j] for t in range(k)), Fraction(0))
              for j in range(m)] for i in range(m)]
        want = _sylvester(g)
        assert is_positive_definite(odd_space(m, gram=g)) == want, g
        seen[want] += 1
    assert seen[True] >= 20 and seen[False] >= 20
    # semidefinite with a positive leading minor: a strict rule is needed
    assert not is_positive_definite(odd_space(2, gram=[[1, 1], [1, 1]]))


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


def test_degree_cap_ignores_the_environment(monkeypatch):
    # the cap comes from the argument alone; NARY_MAX_DEGREE is not read
    monkeypatch.setenv("NARY_MAX_DEGREE", "5")
    sp = Superspace(2, [0, 0], [[0, 1], [-1, 0]])
    assert sp.max_degree == 4
    sp = Superspace(2, [0, 0], [[0, 1], [-1, 0]], max_degree=7)
    assert sp.max_degree == 7
    # pure odd spaces are bounded by the dimension regardless
    assert odd_space(3).max_degree == 3


@pytest.mark.parametrize("cap", ["x", "3", 0, -1, 2.5, True, False, [4]])
def test_degree_cap_must_be_a_positive_int(cap):
    # the space is the cap's one owner, so it refuses a bad cap at once,
    # whatever its parity
    for parity, gram in (([0, 0], [[0, 1], [-1, 0]]),
                         ([1, 1], [[1, 0], [0, 1]])):
        with pytest.raises(NaryError, match="^max_degree must be an int"):
            Superspace(2, parity, gram, max_degree=cap)
    assert Superspace(2, [0, 0], [[0, 1], [-1, 0]], max_degree=1).max_degree \
        == 1


def test_parity_must_be_a_sequence():
    with pytest.raises(NaryError) as info:
        Superspace(2, 5, [[1, 0], [0, 1]])
    assert type(info.value) is NaryError


def _dense_violation(dim, parity, gram):
    """(type, message) of the first violation in row-major order, by the
    dense loop over every pair that Superspace ran before it read the form
    once; None for a valid form."""
    for i in range(dim):
        for j in range(dim):
            if parity[i] != parity[j]:
                if gram[i][j] != 0:
                    return MixedParityEntry, \
                        f"gram[{i}][{j}] pairs generators of different parity"
            elif parity[i] == 1:
                if gram[i][j] != gram[j][i]:
                    return SymmetryViolation, (
                        f"odd-odd entry gram[{i}][{j}] must equal gram[{j}][{i}]")
            elif gram[i][j] != -gram[j][i]:
                return SymmetryViolation, (
                    f"even-even entry gram[{i}][{j}] must equal -gram[{j}][{i}]")
    return None


def test_corrupted_forms_raise_as_the_dense_loop():
    rng = random.Random(17)
    raised = {MixedParityEntry: 0, SymmetryViolation: 0, None: 0}
    for _ in range(400):
        m = rng.randint(1, 9)
        parity = [rng.randint(0, 1) for _ in range(m)]
        g = random_gram(rng, parity, rng.choice((0.2, 0.5, 0.9)))
        i, j = rng.randrange(m), rng.randrange(m)
        g[i][j] = rng.choice((Fraction(0), random_scalar(rng), g[i][j] + 1))
        want = _dense_violation(m, parity, g)
        if want is None:
            Superspace(m, parity, g)
            raised[None] += 1
            continue
        with pytest.raises(want[0]) as info:
            Superspace(m, parity, g)
        assert (type(info.value), str(info.value)) == want
        raised[want[0]] += 1
    assert min(raised.values()) >= 30, raised


def _nonzeros(gram):
    return tuple({j: x for j, x in enumerate(row) if x != 0} for row in gram)


def _is_identity(gram):
    return all(x == (i == j) for i, row in enumerate(gram)
               for j, x in enumerate(row))


def test_pairing_orthonormal_and_rank_on_random_spaces():
    # rank_by_minors is exponential in the rank deficiency, so the larger
    # spaces are drawn dense, with ranks near full
    rng = random.Random(23)
    draws = [(rng.randint(1, 6), rng.choice((0.1, 0.4, 0.8)))
             for _ in range(60)]
    draws += [(rng.randint(7, 9), 0.8) for _ in range(15)]
    deficient = 0
    for m, density in draws:
        sp = random_superspace(rng, m, density)
        assert sp.pairing == _nonzeros(sp.gram)
        assert sp.orthonormal == (sp.pure_odd and _is_identity(sp.gram))
        assert sp.rank() == rank_by_minors(sp.gram)
        deficient += sp.rank() < m
    assert deficient >= 10
    for m in range(1, 10):
        assert odd_space(m).orthonormal
        assert odd_space(m).pairing == tuple({i: 1} for i in range(m))
    unit_diagonal = [[1, 2, 0], [2, 1, Fraction(1, 3)], [0, Fraction(1, 3), 1]]
    for gram in (unit_diagonal, [[1, 0], [0, 2]], [[1, 0], [0, -1]]):
        sp = odd_space(len(gram), gram=gram)
        assert not sp.orthonormal
        assert sp.pairing == _nonzeros(sp.gram)
    assert not Superspace(2, [0, 0], [[0, 1], [-1, 0]]).orthonormal


def _sign_by_cycles(perm):
    sign, seen = 1, set()
    for start in range(len(perm)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = perm[i]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def test_permutation_sign_matches_the_cycle_count():
    for n in range(7):
        for perm in itertools.permutations(range(n)):
            assert permutation_sign(perm) == _sign_by_cycles(perm), perm
            assert Orientation(list(perm)).sign == _sign_by_cycles(perm)
    # any distinct keys: the sign of the permutation that sorts them
    assert permutation_sign((7, 2, 9)) == permutation_sign((1, 0, 2)) == -1
