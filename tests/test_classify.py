"""Skew correspondence, canonical forms, ideals, classification records."""

import random
from fractions import Fraction

import numpy as np
import pytest

from naryalg import classify, linalg
from naryalg.classify import (
    build_m3_algebra,
    canonical_form,
    classify_m3,
    degree2_rowspace,
    element_to_skew,
    find_ideal,
    ider,
    isomorphic_via,
    map_element,
    skew_to_element,
)
from naryalg.derived import (
    NaryStructure,
    Potential,
    canonical_tuples,
    check_filippov,
    derive_structure,
)
from naryalg.errors import (
    DimensionTooSmall,
    NaryError,
    NotHodgeContext,
    NotOrthogonal,
    NotSkew,
)
from naryalg.hodge import HodgeContext, star
from naryalg.poisson import Element, pair_vectors, poisson_bracket
from naryalg.superspace import odd_space
from oracles import commutant_dim_by_kronecker, spin_by_fixed_point

V5 = odd_space(5)
CTX5 = HodgeContext(V5)


def mono(space, *word, coeff=1):
    return Element.monomial(space, [i - 1 for i in word], coeff)


def random_skew(rng, m, denominators=4):
    a = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            x = Fraction(rng.randint(-8, 8), rng.randint(1, denominators))
            a[i][j] = x
            a[j][i] = -x
    return a


# ---------------------------------------------------------------------------
# skew <-> degree-2 correspondence


def test_single_block_maps_to_pair_product():
    a = [[0, 3], [-3, 0]]
    w = skew_to_element(odd_space(2), a)
    assert w == Element.monomial(odd_space(2), (0, 1), 3)


def test_round_trip_exact():
    rng = random.Random(2)
    for m in (2, 3, 5, 6):
        sp = odd_space(m)
        for _ in range(10):
            a = random_skew(rng, m)
            w = skew_to_element(sp, a)
            assert element_to_skew(sp, w) == a


def test_not_skew_rejected():
    with pytest.raises(NotSkew):
        skew_to_element(V5, linalg.identity(5))


def test_adjoint_preserves_the_form():
    rng = random.Random(4)
    for _ in range(10):
        w = skew_to_element(V5, random_skew(rng, 5))
        for i in range(5):
            for j in range(5):
                ei = Element.generator(V5, i)
                ej = Element.generator(V5, j)
                s = pair_vectors(V5, poisson_bracket(w, ei), ej) + \
                    pair_vectors(V5, ei, poisson_bracket(w, ej))
                assert s == 0


# ---------------------------------------------------------------------------
# canonical form


def test_canonical_block_diag_recovered():
    a = np.zeros((4, 4))
    a[0, 1], a[1, 0] = 3.0, -3.0
    a[2, 3], a[3, 2] = 1.0, -1.0
    cf = canonical_form(a)
    assert cf.params == [3.0, 1.0]
    assert cf.residual <= 1e-9


def test_canonical_zero_matrix():
    cf = canonical_form(np.zeros((5, 5)))
    assert cf.params == []
    assert cf.residual == 0.0


def test_canonical_random_round_trip_and_ordering():
    rng = random.Random(10)
    for _ in range(100):
        m = rng.randint(2, 10)
        a = np.array([[float(x) for x in row] for row in random_skew(rng, m)])
        cf = canonical_form(a)
        assert cf.residual <= 1e-9 * max(1.0, np.abs(a).max())
        assert abs(np.linalg.det(cf.q) - 1.0) < 1e-9
        for x, y in zip(cf.params, cf.params[1:]):
            assert abs(y) <= abs(x) + 1e-12
        if m % 2 == 1:
            assert all(p >= -1e-12 for p in cf.params)
        recon = cf.q @ cf.reconstruct() @ cf.q.T
        assert np.abs(recon - a).max() <= 1e-9 * max(1.0, np.abs(a).max())


def test_canonical_rejects_non_skew():
    with pytest.raises(NotSkew):
        canonical_form(np.eye(3))


# ---------------------------------------------------------------------------
# the (m-3)-ary algebra of a degree-2 element


def test_build_m3_frozen_values():
    mu = build_m3_algebra(CTX5, mono(V5, 1, 2, coeff=2) + mono(V5, 3, 4, coeff=3))
    assert mu.element == mono(V5, 3, 4, 5, coeff=-2) + mono(V5, 1, 2, 5, coeff=-3)
    assert mu.arity == 2
    assert build_m3_algebra(CTX5, Element.zero(V5)).element.is_zero()


def test_find_ideal_kernel_case():
    mu = build_m3_algebra(CTX5, mono(V5, 1, 2))
    rep = find_ideal(derive_structure(mu))
    assert rep.found and rep.method == "kernel"
    basis_rows = [[b.coefficient((i,)) for i in range(5)] for b in rep.basis]
    want = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]
    assert linalg.same_subspace(
        linalg.sparse([[Fraction(x) for x in r] for r in basis_rows]),
        linalg.sparse([[Fraction(x) for x in r] for r in want]))


def test_find_ideal_simple_case_certified():
    mu = build_m3_algebra(CTX5, mono(V5, 1, 2) + mono(V5, 3, 4))
    rep = find_ideal(derive_structure(mu))
    assert not rep.found and rep.method == "commutant"
    assert rep.status == "simple (certified)" and rep.rounds == 0


def test_find_ideal_zero_structure_reports_a_line():
    rep = find_ideal(NaryStructure(V5, 2, {}))
    assert rep.found
    assert rep.basis[0] == Element.generator(V5, 0)


def test_find_ideal_rank_shortcut():
    mu = build_m3_algebra(CTX5, mono(V5, 1, 2) + mono(V5, 3, 4))
    rep = find_ideal(derive_structure(mu), rank_hint=4)
    assert not rep.found and rep.method == "rank-criterion"
    assert rep.status == "simple (certified)"


def test_found_ideals_verify_exactly():
    rng = random.Random(31)
    for _ in range(10):
        v = skew_to_element(V5, random_skew(rng, 5, denominators=1))
        s = derive_structure(build_m3_algebra(CTX5, v))
        rep = find_ideal(s)
        if not rep.found:
            continue
        rows = [[b.coefficient((i,)) for i in range(5)] for b in rep.basis]
        rows = linalg.row_space(linalg.sparse(rows))
        for t in canonical_tuples(V5, s.arity - 1):
            cols = s.operator(t)
            mat = [[col.get(i, 0) for col in cols] for i in range(5)]
            for vec in rows:
                img = linalg.mat_vec(mat, [vec.get(i, 0) for i in range(5)])
                assert len(linalg.row_space(rows + linalg.sparse([img]))) \
                    == len(rows)


def _grid_structures(ms):
    for m in ms:
        sp = odd_space(m)
        ctx = HodgeContext(sp)
        for nblocks in range(m // 2 + 1):
            v = Element(sp, {(2 * t, 2 * t + 1): Fraction(t + 1)
                             for t in range(nblocks)})
            yield 2 * nblocks, derive_structure(build_m3_algebra(ctx, v))


def test_simplicity_matches_rank_criterion_on_grids():
    for rank, s in _grid_structures((5, 6, 7)):
        assert find_ideal(s).found == (rank <= 2)


def _rational_rotation(rng, m):
    """Cayley transform (I - A)(I + A)^-1 of a random rational skew A."""
    a = random_skew(rng, m, denominators=3)
    eye = linalg.identity(m)
    minus = [[x - y for x, y in zip(r, s)] for r, s in zip(eye, a)]
    plus = [[x + y for x, y in zip(r, s)] for r, s in zip(eye, a)]
    return linalg.mat_mul(minus, linalg.inverse(plus))


def _so3_plus_so3(rotated):
    """e1e2e3 + e4e5e6 on V6, the structure of so(3) + so(3)."""
    sp = odd_space(6)
    mu = mono(sp, 1, 2, 3) + mono(sp, 4, 5, 6)
    if rotated:
        mu = map_element(sp, _rational_rotation(random.Random(5), 6), mu)
    return derive_structure(Potential.single(sp, mu))


def test_commutant_dimension_matches_kronecker_oracle():
    cases = list(_grid_structures((5, 6, 7, 8)))
    cases += [(None, _so3_plus_so3(False)), (None, _so3_plus_so3(True))]
    dims = []
    for rank, s in cases:
        m = s.space.dim
        ops = [cols for cols in map(s.operator,
                                    canonical_tuples(s.space, s.arity - 1))
               if any(cols)]
        got = classify._commutant(ops, m)[1]
        assert got == commutant_dim_by_kronecker(s)
        dims.append(got)
        if rank is not None and rank > 2:
            assert got == 1
    assert dims[-2:] == [2, 2]


def test_find_ideal_refuses_a_non_skew_operator():
    # {e1, e2} = e1 gives L_1 e2 = e1 but L_1 e1 = 0
    s = NaryStructure(V5, 2, {(0, 1): Element.generator(V5, 0)})
    with pytest.raises(NotSkew):
        find_ideal(s)


def test_find_ideal_refuses_a_space_that_is_not_orthonormal():
    sp = odd_space(5, gram=[[2 if i == j == 0 else int(i == j)
                             for j in range(5)] for i in range(5)])
    mu = Potential.single(sp, mono(sp, 1, 2, 5) + mono(sp, 3, 4, 5))
    with pytest.raises(NotHodgeContext):
        find_ideal(derive_structure(mu))


def test_rotated_so3_plus_so3_is_never_called_simple():
    rep = find_ideal(_so3_plus_so3(rotated=True))
    assert not rep.found and rep.method == "commutant"
    assert rep.status == "undecided (commutant dimension 2)"


def test_aligned_so3_plus_so3_has_an_invariant_proper_ideal():
    s = _so3_plus_so3(rotated=False)
    rep = find_ideal(s)
    assert rep.found and rep.method == "commutant"
    rows = linalg.row_space([{i: c for (i,), c in b.terms.items()}
                             for b in rep.basis])
    assert rows == [{3: 1}, {4: 1}, {5: 1}]
    mats = [[[Fraction(col.get(i, 0)) for col in s.operator(t)]
             for i in range(6)] for t in canonical_tuples(s.space, 1)]
    assert spin_by_fixed_point(mats, rows, 6) == rows


def test_rank_hint_must_agree_with_the_commutant():
    with pytest.raises(NaryError, match="disagrees with the commutant"):
        find_ideal(_so3_plus_so3(rotated=False), rank_hint=4)


def test_classify_records_match_theory():
    rec = classify_m3(V5, mono(V5, 1, 2) + mono(V5, 3, 4))
    assert rec.simple and not rec.filippov and not rec.sh_jacobi
    assert rec.skew_rank == 4
    rec = classify_m3(V5, mono(V5, 1, 2))
    assert not rec.simple and rec.filippov and rec.sh_jacobi
    assert rec.ideal.found
    rec = classify_m3(V5, Element.zero(V5))
    assert not rec.simple and rec.filippov and rec.sh_jacobi


def test_classify_rejects_small_dimension():
    sp = odd_space(4)
    with pytest.raises(DimensionTooSmall):
        classify_m3(sp, Element.monomial(sp, (0, 1)))


def test_filippov_table_small():
    # rank <= 2 derived potentials satisfy the derivation identity; rank 4 not
    for m in (5, 6):
        sp = odd_space(m)
        ctx = HodgeContext(sp)
        good = [Element.zero(sp), Element.monomial(sp, (0, 1))]
        for v in good:
            assert check_filippov(build_m3_algebra(ctx, v)).passed
        bad = Element.monomial(sp, (0, 1)) + Element.monomial(sp, (2, 3))
        assert not check_filippov(build_m3_algebra(ctx, bad)).passed


# ---------------------------------------------------------------------------
# invariant derivations


def test_ider_of_top_form_is_everything():
    L = Potential.single(V5, Element.monomial(V5, (0, 1, 2, 3, 4)))
    assert len(ider(V5, L)) == 10
    zero = Potential.single(V5, Element.zero(V5), arity=2)
    assert len(ider(V5, zero)) == 10


def test_ider_star_duality_random():
    rng = random.Random(14)
    tuples3 = canonical_tuples(V5, 3)
    for _ in range(50):
        el = Element.zero(V5)
        for _ in range(3):
            el = el + Element.monomial(V5, tuples3[rng.randrange(len(tuples3))],
                                       rng.randint(-3, 3))
        if el.is_zero():
            continue
        mu = Potential.single(V5, el)
        dual = Potential.single(V5, star(CTX5, el))
        a = degree2_rowspace(V5, ider(V5, mu))
        b = degree2_rowspace(V5, ider(V5, dual))
        assert a == b


def test_ider_members_satisfy_derivation_criterion():
    from naryalg.derived import check_derivation
    mu = Potential.single(V5, mono(V5, 3, 4, 5))
    for w in ider(V5, mu):
        assert check_derivation(w, mu)


# ---------------------------------------------------------------------------
# isomorphisms


def test_isomorphic_via_identity():
    mu = Potential.single(V5, mono(V5, 1, 2, 5))
    phi = linalg.identity(5)
    assert isomorphic_via(V5, mu, mu, phi)


def test_isomorphic_via_signed_permutation():
    phi = [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 0, 1, 0],
           [0, 0, 1, 0, 0], [0, 0, 0, 0, 1]]
    mu = Potential.single(V5, mono(V5, 1, 2, 5))
    image = map_element(V5, [[Fraction(x) for x in row] for row in phi],
                        mu.element)
    # direct substitution: e1e2e5 -> e2e1e5 = -e1e2e5
    assert image == mono(V5, 1, 2, 5, coeff=-1)
    assert isomorphic_via(V5, mu, Potential.single(V5, image), phi)
    assert not isomorphic_via(V5, mu, mu, phi)


def test_isomorphic_via_rejects_det_minus_one():
    phi = [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 1, 0, 0],
           [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
    mu = Potential.single(V5, mono(V5, 1, 2, 5))
    with pytest.raises(NotOrthogonal):
        isomorphic_via(V5, mu, mu, phi)


def test_isomorphic_orbits_preserve_identities():
    # a rotation in the (e1,e2) plane maps *(e1e2) potentials to themselves
    c, s = Fraction(3, 5), Fraction(4, 5)
    phi = [[c, -s, 0, 0, 0], [s, c, 0, 0, 0], [0, 0, 1, 0, 0],
           [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
    v = mono(V5, 1, 2)
    image = map_element(V5, phi, v)
    assert image == v  # e1e2 is rotation invariant
    mu = build_m3_algebra(CTX5, v)
    assert isomorphic_via(V5, mu, mu, phi)


def test_canonical_recovers_known_blocks_under_rotation():
    import numpy as np
    rng = np.random.default_rng(12)
    a_true = np.zeros((5, 5))
    a_true[0, 1], a_true[1, 0] = 2.0, -2.0
    a_true[2, 3], a_true[3, 2] = 1.0, -1.0
    for _ in range(20):
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        a = q @ a_true @ q.T
        cf = canonical_form(a)
        assert np.allclose(cf.params, [2.0, 1.0], atol=1e-9)
        assert cf.residual <= 1e-9
