"""The elimination kernel against independent routines; its rank certificate."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from naryalg import linalg
from naryalg.errors import NaryError

from oracles import rank_by_minors


def random_matrix(rng, rows, cols, rank=None, dens=(1, 2, 3, 5)):
    """Rows x cols rationals with non-unit denominators.

    With ``rank`` given, the rows are random combinations of ``rank`` random
    rows, so the matrix has dependent rows (its rank is at most ``rank``).
    """
    def entry():
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randint(-4, 4), rng.choice(dens))

    if rank is None:
        return [[entry() for _ in range(cols)] for _ in range(rows)]
    basis = [[entry() for _ in range(cols)] for _ in range(rank)]
    out = []
    for _ in range(rows):
        coeffs = [Fraction(rng.randint(-2, 2), rng.choice(dens))
                  for _ in range(rank)]
        out.append([sum((c * b[j] for c, b in zip(coeffs, basis)), Fraction(0))
                    for j in range(cols)])
    return out


def cases():
    """Seeded shapes: empty, zero, square, tall, wide, dependent rows."""
    rng = random.Random(7)
    out = [[], [[]], [[], []], linalg.zeros(3, 4), linalg.zeros(1, 1),
           linalg.identity(4), [[Fraction(1, 3)]], [[Fraction(2), Fraction(4)]]]
    for _ in range(12):
        out.append(random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5)))
    for rows, cols in ((5, 2), (6, 3), (2, 5), (3, 6)):
        out.append(random_matrix(rng, rows, cols))
    for _ in range(10):
        rows, cols = rng.randint(2, 5), rng.randint(2, 5)
        out.append(random_matrix(rng, rows, cols,
                                 rank=rng.randint(0, min(rows, cols) - 1)))
    # a duplicated row and a row that is a rational multiple of another
    row = [Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(5, 3)]
    out.append([row, [2 * x / 7 for x in row], row])
    return out


CASES = cases()


def width(a):
    return len(a[0]) if a else 0


def dense(v, cols):
    return [v.get(c, 0) for c in range(cols)]


@pytest.mark.parametrize("a", CASES)
def test_rank_matches_oracles(a):
    assert linalg.rank(linalg.sparse(a)) == linalg.bareiss_rank(a) \
        == rank_by_minors(a)


@pytest.mark.parametrize("a", CASES)
def test_rref_is_reduced_and_spans_the_row_space(a):
    r, pivots = linalg.rref(a)
    k = len(pivots)
    assert len(r) == len(a)
    assert pivots == sorted(set(pivots))
    for i, row in enumerate(r):
        assert len(row) == width(a)
        assert all(isinstance(x, Fraction) for x in row)
        if i >= k:
            assert all(x == 0 for x in row)
            continue
        p = pivots[i]
        assert row[p] == 1
        assert all(x == 0 for x in row[:p])
        assert all(r[t][p] == 0 for t in range(k) if t != i)
    assert linalg.bareiss_rank(a) == k
    # every echelon row lies in the input's row space, and conversely
    assert linalg.bareiss_rank(a + r[:k]) == k
    assert linalg.row_space(linalg.sparse(a)) == linalg.sparse(r[:k])


@pytest.mark.parametrize("a", CASES)
def test_nullspace_is_annihilated(a):
    basis = linalg.nullspace(linalg.sparse(a), range(width(a)))
    if not a:
        assert basis == []
        return
    assert len(basis) == width(a) - linalg.bareiss_rank(a)
    basis = [dense(v, width(a)) for v in basis]
    for v in basis:
        assert all(x == 0 for x in linalg.mat_vec(a, v))
    assert linalg.bareiss_rank(basis) == len(basis)


# increasing column keys of mixed lengths, as the monomials of hodge
KEYS = sorted(c for p in range(4) for c in combinations(range(4), p))


def keyed(rows):
    return [{KEYS[c]: x for c, x in row.items()} for row in rows]


@pytest.mark.parametrize("a", CASES)
def test_monomial_keys_agree_with_int_keys(a):
    rows, cols = linalg.sparse(a), range(width(a))
    assert linalg.rank(keyed(rows)) == linalg.rank(rows)
    assert linalg.row_space(keyed(rows)) == keyed(linalg.row_space(rows))
    assert linalg.nullspace(keyed(rows), KEYS[:width(a)]) == \
        keyed(linalg.nullspace(rows, cols))


@pytest.mark.parametrize("a", [a for a in CASES if a])
def test_solve_returns_none_exactly_when_inconsistent(a):
    rng = random.Random(len(a) * 31 + width(a))
    cols = width(a)
    x0 = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 7)))
          for _ in range(cols)]
    consistent = linalg.mat_vec(a, x0)
    others = [[Fraction(rng.randint(-3, 3)) for _ in a] for _ in range(4)]
    for b in [consistent] + others:
        aug = [row + [bv] for row, bv in zip(a, b)]
        x = linalg.solve(a, b)
        if linalg.bareiss_rank(aug) > linalg.bareiss_rank(a):
            assert x is None
        else:
            assert x is not None and linalg.mat_vec(a, x) == b


def test_same_subspace_ignores_row_order_and_scaling():
    a = [[Fraction(1), Fraction(2), Fraction(0)],
         [Fraction(0), Fraction(1), Fraction(1, 2)]]
    b = [[Fraction(0), Fraction(-2), Fraction(-1)],
         [Fraction(3), Fraction(6), Fraction(0)],
         [Fraction(1), Fraction(3), Fraction(1, 2)]]
    a, b = linalg.sparse(a), linalg.sparse(b)
    assert linalg.same_subspace(a, b)
    assert not linalg.same_subspace(a, b[:1])


# ---------------------------------------------------------------------------
# a broken kernel must not get a rank past the certificate

FULL = [[Fraction(1), Fraction(2), Fraction(0), Fraction(1)],
        [Fraction(0), Fraction(1, 2), Fraction(3), Fraction(0)],
        [Fraction(2), Fraction(0), Fraction(1), Fraction(-1, 3)]]


def drop_pivot_row(rows, pivots, combos):
    return rows[:-1], pivots[:-1], combos[:-1]


FREE = 3          # the one free column of FULL
UNTOUCHED = 4     # a column that no row of FULL touches


def forge_row_entry(rows, pivots, combos):
    rows = [dict(row) for row in rows]
    rows[0][FREE] = rows[0].get(FREE, 0) + 1
    return rows, pivots, combos


def forge_extra_row(rows, pivots, combos):
    # claims a pivot in the free last column, with a made-up combination
    return (rows + [{FREE: Fraction(1)}], pivots + [FREE],
            combos + [({0: 1}, 1)])


def forge_combination(rows, pivots, combos):
    comb, den = combos[0]
    return rows, pivots, [(comb, 2 * den)] + combos[1:]


def forge_untouched_entry(rows, pivots, combos):
    rows = [dict(row) for row in rows]
    rows[0][UNTOUCHED] = Fraction(1)
    return rows, pivots, combos


@pytest.mark.parametrize("mutate,message", [
    pytest.param(mutate, "rank certificate", id=mutate.__name__)
    for mutate in (drop_pivot_row, forge_row_entry, forge_extra_row,
                   forge_combination)
] + [pytest.param(forge_untouched_entry,
                  "rank certificate: row 0 .* no input row touches",
                  id="forge_untouched_entry")])
def test_certificate_rejects_a_broken_kernel(monkeypatch, mutate, message):
    a = FULL + [[x + y for x, y in zip(FULL[0], FULL[1])]]
    assert linalg.rank(linalg.sparse(a)) == 3
    assert linalg.rref(a)[1] == [0, 1, 2]
    kernel = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda m: mutate(*kernel(m)))
    with pytest.raises(NaryError, match=message):
        linalg.rank(linalg.sparse(a))


def test_inverse_is_two_sided():
    rng = random.Random(13)
    done = 0
    while done < 20:
        n = rng.randint(1, 7)
        a = random_matrix(rng, n, n)
        if linalg.rank(linalg.sparse(a)) < n:
            continue
        inv = linalg.inverse(a)
        assert linalg.mat_mul(a, inv) == linalg.identity(n)
        assert linalg.mat_mul(inv, a) == linalg.identity(n)
        done += 1


def test_inverse_of_singular_matrix_raises():
    with pytest.raises(NaryError):
        linalg.inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
