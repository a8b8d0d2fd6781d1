"""The elimination kernel against independent routines; its rank certificate.

Also the one door for a caller's scalars and matrices, and the determinant
against a dense Bareiss oracle.
"""

import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naryalg import linalg
from naryalg.classify import block_parameters, isomorphic_via, skew_to_element
from naryalg.derived import NaryStructure, Potential
from naryalg.errors import InexactCoefficient, NaryError, NotSkew
from naryalg.frobenius import check_quasi_frobenius
from naryalg.poisson import Element
from naryalg.superspace import Superspace, is_positive_definite, odd_space

from oracles import det_by_bareiss, rank_by_minors


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
# rank against the dense oracle on random sparse rows

ENTRIES = st.builds(Fraction, st.integers(-3, 3).filter(bool),
                    st.sampled_from((1, 2, 3, 7)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_rank_matches_bareiss_on_random_sparse_rows(data):
    cols = KEYS[:data.draw(st.integers(1, len(KEYS)), label="width")]
    row = st.dictionaries(st.sampled_from(cols), ENTRIES, max_size=4)
    rows = data.draw(st.lists(row, max_size=8), label="rows")
    if rows:
        # duplicate rows, and rational multiples of rows
        picks = st.lists(st.sampled_from(range(len(rows))), max_size=3)
        rows += [rows[i] for i in data.draw(picks, label="duplicates")]
        rows += [{c: x / 5 for c, x in rows[i].items()}
                 for i in data.draw(picks, label="multiples")]
    rows += [{}] * data.draw(st.integers(0, 2), label="empty rows")
    rows = data.draw(st.permutations(rows), label="order")
    dense_rows = [[r.get(c, Fraction(0)) for c in cols] for r in rows]
    assert linalg.rank(rows) == linalg.bareiss_rank(dense_rows)


# ---------------------------------------------------------------------------
# a broken forward pass must not get a rank past the certificate

FULL = [[Fraction(1), Fraction(2), Fraction(0), Fraction(1)],
        [Fraction(0), Fraction(1, 2), Fraction(3), Fraction(0)],
        [Fraction(2), Fraction(0), Fraction(1), Fraction(-1, 3)]]
SUM01 = [x + y for x, y in zip(FULL[0], FULL[1])]
# rows 0-2 stored, 3 and 5 dependent, 4 empty
CERTIFIED = FULL + [SUM01, [Fraction(0)] * 4, [2 * x for x in SUM01]]

FREE = 3          # the one column of CERTIFIED that leads no stored row


def copied(lead_rows, deps):
    return ({lead: (dict(vec), dict(comb), scale)
             for lead, (vec, comb, scale) in lead_rows.items()},
            {j: dict(comb) for j, comb in deps.items()})


def drop_pivot_row(lead_rows, deps):
    del lead_rows[max(lead_rows)]
    return lead_rows, deps


def forge_row_entry(lead_rows, deps):
    vec = lead_rows[0][0]
    vec[FREE] = vec.get(FREE, 0) + 1
    return lead_rows, deps


def forge_extra_row(lead_rows, deps):
    # claims a row leading in the free column, with a made-up combination
    lead_rows[FREE] = ({FREE: 1}, {0: 1}, 1)
    return lead_rows, deps


def forge_combination(lead_rows, deps):
    vec, comb, scale = lead_rows[0]
    lead_rows[0] = vec, comb, 2 * scale
    return lead_rows, deps


def forge_dependency(lead_rows, deps):
    # the zero combination vanishes, but proves nothing about row 3
    deps[3] = {j: 0 for j in deps[3]}
    return lead_rows, deps


def dependency_does_not_vanish(lead_rows, deps):
    deps[3][3] *= 2
    return lead_rows, deps


def dependency_names_unstored_row(lead_rows, deps):
    # row 5 is twice row 3: this vanishes, but row 3 is not stored
    deps[5] = {5: 1, 3: -2}
    return lead_rows, deps


def row_neither_stored_nor_dependent(lead_rows, deps):
    del deps[3]
    return lead_rows, deps


def key_not_min_column(lead_rows, deps):
    lead_rows[FREE] = lead_rows.pop(0)
    return lead_rows, deps


@pytest.mark.parametrize("mutate", [
    drop_pivot_row, forge_row_entry, forge_extra_row, forge_combination,
    forge_dependency, dependency_does_not_vanish,
    dependency_names_unstored_row, row_neither_stored_nor_dependent,
    key_not_min_column,
], ids=lambda mutate: mutate.__name__)
def test_certificate_rejects_a_broken_kernel(monkeypatch, mutate):
    rows = linalg.sparse(CERTIFIED)
    assert linalg.rank(rows) == 3
    lead_rows, deps = linalg._forward(rows)
    assert sorted(lead_rows) == [0, 1, 2] and sorted(deps) == [3, 5]
    forward = linalg._forward
    monkeypatch.setattr(linalg, "_forward",
                        lambda m: mutate(*copied(*forward(m))))
    with pytest.raises(NaryError, match="rank certificate"):
        linalg.rank(rows)


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


# ---------------------------------------------------------------------------
# the one door: every entry point takes scalars and matrices through linalg


def test_exact_is_the_one_scalar_rule():
    tenth = Fraction(1, 10)
    assert linalg.exact(tenth) is tenth
    assert Superspace(1, [1], [[tenth]]).gram[0][0] is tenth
    assert linalg.exact(3) == 3 and type(linalg.exact(3)) is Fraction
    assert linalg.exact("-2/6") == Fraction(-1, 3)
    with pytest.raises(InexactCoefficient):
        linalg.exact(0.1)
    for bad in (True, "1/0", "x", None, [1]):
        with pytest.raises(NaryError) as exc:
            linalg.exact(bad)
        assert type(exc.value) is NaryError
    # a numpy int64 is converted through Python ints, so nothing wraps
    big = linalg.exact(np.int64(2 ** 62))
    assert type(big.numerator) is int and big * 4 == 2 ** 64


def test_charpoly_is_called_over_the_integers(monkeypatch):
    calls = []

    def over_ints(b):
        calls.append(all(type(x) is int for row in b for x in row))
        return charpoly(b)

    charpoly = linalg.charpoly
    monkeypatch.setattr(linalg, "charpoly", over_ints)
    half = Fraction(1, 2)
    assert linalg.det([[half, 1], [0, 3]]) == Fraction(3, 2)
    assert is_positive_definite(odd_space(2, gram=[[half, 0], [0, 1]]))
    assert block_parameters([[0, half], [-half, 0]]) == [0.5]
    assert calls == [True] * 3


V3 = odd_space(3)
MU3 = Potential.single(V3, Element.monomial(V3, (0, 1, 2)))
SKEW3 = [[0, 1, 0], [-1, 0, 2], [0, -2, 0]]
IDENTITY3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

# name -> (call, a valid input, whether skew symmetry is required)
DOORS = {
    "Element": (lambda x: Element(V3, {(0,): x}), 1, False),
    "Superspace": (lambda g: Superspace(3, [1, 1, 1], g), IDENTITY3, False),
    "skew_to_element": (lambda a: skew_to_element(V3, a), SKEW3, True),
    "isomorphic_via": (lambda phi: isomorphic_via(MU3, MU3, phi),
                       IDENTITY3, False),
    "block_parameters": (block_parameters, SKEW3, True),
    "check_quasi_frobenius": (
        lambda phi: check_quasi_frobenius(V3, NaryStructure(V3, 2, {}), phi),
        SKEW3, True),
    "det": (linalg.det, SKEW3, False),
}


def _floats(x):
    return float(x) if not isinstance(x, list) else [_floats(y) for y in x]


def _bools(x):
    """0 and 1 given as False and True."""
    if isinstance(x, list):
        return [_bools(y) for y in x]
    return bool(x) if x in (0, 1) else x


def _with(a, i, j, value):
    a = [row[:] for row in a]
    a[i][j] = value
    return a


BAD_SCALARS = [("float", _floats, InexactCoefficient),
               ("bool", _bools, NaryError)]
BAD_SHAPES = [
    ("ragged", lambda a: a[:-1] + [a[-1][:-1]]),
    ("3 rows of 2", lambda a: [row[:2] for row in a]),
    ("flat", lambda a: a[0]),
    ("4 x 4", lambda a: [row + [0] for row in a] + [[0] * 4]),
]
NOT_SKEW = [
    ("diagonal", lambda a: _with(a, 1, 1, 1)),
    ("off-diagonal", lambda a: _with(a, 1, 2, 5)),
]


def _cases():
    for name, (call, valid, skew) in DOORS.items():
        for kind, spoil, error in BAD_SCALARS:
            yield pytest.param(call, spoil(valid), error,
                               id=f"{name}-{kind}")
        if isinstance(valid, list):
            for kind, spoil in BAD_SHAPES:
                if kind == "4 x 4" and name in ("block_parameters", "det"):
                    continue  # any square size is theirs to take
                yield pytest.param(call, spoil(valid), NaryError,
                                   id=f"{name}-{kind}")
        if skew:
            for kind, spoil in NOT_SKEW:
                yield pytest.param(call, spoil(valid), NotSkew,
                                   id=f"{name}-not-skew-{kind}")


@pytest.mark.parametrize("name", sorted(DOORS))
def test_each_door_accepts_its_valid_input(name):
    call, valid, _ = DOORS[name]
    call(valid)


@pytest.mark.parametrize("call, bad, error", _cases())
def test_each_door_refuses_with_a_typed_error(call, bad, error):
    with pytest.raises(NaryError) as exc:
        call(bad)
    assert type(exc.value) is error


# ---------------------------------------------------------------------------
# det over the characteristic polynomial against the Bareiss oracle


def test_det_matches_the_bareiss_oracle():
    rng = random.Random(11)
    cases = [[], [[Fraction(0)]], [[Fraction(-2, 3)]], linalg.zeros(4, 4),
             linalg.identity(8)]
    for m in range(1, 9):
        cases += [random_matrix(rng, m, m) for _ in range(6)]
        # singular: rank below m
        cases += [random_matrix(rng, m, m, rank=rng.randint(0, m - 1))
                  for _ in range(3)]
    for a in cases:
        d = linalg.det(a)
        assert type(d) is Fraction
        assert d == det_by_bareiss(a), a
        if len(a) > 1:  # swapping two rows flips the sign
            assert linalg.det([a[1], a[0]] + a[2:]) == -d
    assert sum(det_by_bareiss(a) == 0 for a in cases) >= 24


def test_charpoly_of_a_diagonal_matrix():
    # det(xI - diag(2, -1, 3)) = x^3 - 4x^2 + x + 6
    assert linalg.charpoly([[2, 0, 0], [0, -1, 0], [0, 0, 3]]) == \
        [1, -4, 1, 6]
    assert linalg.charpoly([]) == [1]


def _operator(a, keys):
    """The dense matrix a as an operator {source key: image} over the keys,
    its columns with the zero ones left out."""
    op = {}
    for j, src in enumerate(keys):
        img = {dst: row[j] for dst, row in zip(keys, a) if row[j]}
        if img:
            op[src] = img
    return op


def test_operator_routines_match_dense_matrices():
    """apply_op, compose_ops and transpose_op against mat_vec, mat_mul and
    transpose on random square matrices, keyed by monomial tuples: no image
    they return is empty, and no entry is zero.  On the skew parts of the
    matrices, the coordinates and the commutator AB - BA against the dense
    entries above the diagonal."""
    rng = random.Random(28)
    for trial in range(200):
        n = rng.randint(1, 6)
        keys = sorted(rng.sample(list(combinations(range(5), 2)), n))
        rank = rng.choice([None, 1, 2])
        a, b = (random_matrix(rng, n, n, rank) for _ in range(2))
        v = random_matrix(rng, 1, n)[0]
        scale = rng.choice([1, -1, Fraction(-2, 3), 3])
        f, g = _operator(a, keys), _operator(b, keys)
        vec = {key: x for key, x in zip(keys, v) if x}
        assert linalg.apply_op(f, vec) == {
            key: x for key, x in zip(keys, linalg.mat_vec(a, v)) if x}, trial
        product = linalg.compose_ops(f, g)
        assert product == _operator(linalg.mat_mul(a, b), keys), trial
        scaled = [[scale * x for x in row] for row in linalg.transpose(a)]
        assert linalg.transpose_op(f, scale) == _operator(scaled, keys), trial
        for op in (product, linalg.transpose_op(f, scale)):
            assert all(img and all(img.values()) for img in op.values())
        sa, sb = ([[x - y for x, y in zip(r, c)]
                   for r, c in zip(m, linalg.transpose(m))] for m in (a, b))
        ab, ba = linalg.mat_mul(sa, sb), linalg.mat_mul(sb, sa)

        def upper(mat):
            return {(keys[i], keys[j]): mat[i][j] for i in range(n)
                    for j in range(i + 1, n) if mat[i][j]}

        fa, fb = _operator(sa, keys), _operator(sb, keys)
        assert linalg.skew_coordinates(fa) == upper(sa), trial
        assert linalg.skew_operator(upper(sa)) == fa, trial
        assert linalg.skew_commutator(fa, fb) == upper(
            [[x - y for x, y in zip(r, s)] for r, s in zip(ab, ba)]), trial
