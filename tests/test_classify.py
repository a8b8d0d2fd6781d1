"""Skew correspondence, canonical forms, ideals, classification records."""

import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from naryalg import classify, linalg
from naryalg.classify import (
    IdealReport,
    block_parameters,
    build_m3_algebra,
    canonical_form,
    classify_m3,
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
    SpaceMismatch,
)
from naryalg.hodge import HodgeContext, star
from naryalg.poisson import Element, pair_vectors, poisson_bracket
from naryalg.superspace import Superspace, odd_space
from oracles import (
    ad_matrix_by_brackets,
    commutant_dim_by_kronecker,
    operators_by_gather,
    spin_by_fixed_point,
)
from spaces import random_even_isometry, random_homogeneous, random_superspace

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
            assert element_to_skew(w) == a


@pytest.mark.parametrize("m", range(2, 9))
def test_element_to_skew_matches_the_bracket_oracle(m):
    rng = random.Random(60 + m)
    sp = odd_space(m)
    ws = [Element.zero(sp)] + [random_homogeneous(sp, rng, 2, terms=t)
                               for t in (1, 2, 3, 6) for _ in range(3)]
    for w in ws:
        a = element_to_skew(w)
        assert a == ad_matrix_by_brackets(sp, w)
        assert skew_to_element(sp, a) == w


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
                s = pair_vectors(poisson_bracket(w, ei), ej) + \
                    pair_vectors(ei, poisson_bracket(w, ej))
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


def test_canonical_form_takes_exact_parameters_from_block_parameters():
    """On exact input the parameters are the correctly rounded ones of
    block_parameters, and the Schur rotation still carries them onto a."""
    rng = random.Random(44)
    cases = [[[0, 0, 1], [0, 0, 1], [-1, -1, 0]]]
    for _ in range(200):
        m = rng.randint(5, 8)
        a = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                a[i][j] = rng.randint(-3, 3)
                a[j][i] = -a[i][j]
        cases.append(a)
    schur_differs = 0
    for a in cases:
        cf = canonical_form(a)
        assert cf.params == block_parameters(a)
        floats = np.array(a, dtype=float)
        scale = max(1.0, float(np.abs(floats).max()))
        recon = cf.q @ cf.reconstruct() @ cf.q.T
        assert cf.residual == float(np.abs(recon - floats).max()) \
            <= 1e-9 * scale
        assert abs(np.linalg.det(cf.q) - 1.0) < 1e-9
        schur_differs += canonical_form(floats).params != cf.params
    assert canonical_form(cases[0]).params == [math.sqrt(2)]
    assert schur_differs > 100


def test_canonical_rejects_non_skew():
    with pytest.raises(NotSkew):
        canonical_form(np.eye(3))


# ---------------------------------------------------------------------------
# exact block parameters


def _random_skew_sets():
    """The random skew sets of the canonical-form tests above and of
    acceptance criterion 14, drawn the same way, as exact matrices."""
    rng = random.Random(10)
    for _ in range(100):
        yield random_skew(rng, rng.randint(2, 10))
    rng = random.Random(400)
    for _ in range(100):
        m = rng.randint(2, 10)
        a = [[Fraction(0)] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                x = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                a[i][j], a[j][i] = x, -x
        yield a


def _floats(a):
    return [[float(x) for x in row] for row in a]


def _block_diagonal(m, params):
    a = [[Fraction(0)] * m for _ in range(m)]
    for t, x in enumerate(params):
        a[2 * t][2 * t + 1], a[2 * t + 1][2 * t] = Fraction(x), -Fraction(x)
    return a


def _conjugate(q, a):
    return linalg.mat_mul(linalg.mat_mul(q, a), linalg.transpose(q))


def _cell(x):
    """The exact midpoints between the double x and its two neighbours."""
    return ((Fraction(math.nextafter(x, 0)) + Fraction(x)) / 2,
            (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2)


def _no_bisection(f):
    raise AssertionError("the float guidance missed a root")


def test_block_parameters_match_the_canonical_form(monkeypatch):
    # every root is certified from its float guess, with no bisection
    monkeypatch.setattr(classify, "_roots_by_bisection", _no_bisection)
    for a in _random_skew_sets():
        want = canonical_form(_floats(a)).params
        got = block_parameters(a)
        assert len(got) == len(want)
        for x, y in zip(got, want):
            assert abs(x - y) <= 1e-12 * abs(x)


def test_block_parameters_equal_the_canonical_form_on_block_diagonals(
        monkeypatch):
    monkeypatch.setattr(classify, "_roots_by_bisection", _no_bisection)
    for m in (6, 7, 8, 10):
        for params in combinations_with_replacement([3, 2, 1, 0], m // 2):
            a = _block_diagonal(m, params)
            want = [float(x) for x in params if x]
            assert block_parameters(a) == want
            assert canonical_form(_floats(a)).params == want


def test_block_parameters_exact_cases():
    rng = random.Random(7)
    cases = [
        # odd m: the zero block takes the sign, so every parameter is > 0
        (_block_diagonal(5, [-1, 3]), [3.0, 1.0]),
        # zero blocks are not listed
        (_block_diagonal(8, [0, 2, 0, 0]), [2.0]),
        # a negative Pfaffian at even full rank signs the smallest one
        (_block_diagonal(4, [-1, 3]), [3.0, -1.0]),
        (_block_diagonal(6, [2, -2, 2]), [2.0, 2.0, -2.0]),
        # repeated parameters, also behind a dense rational rotation
        (_conjugate(_rational_rotation(rng, 8),
                    _block_diagonal(8, [1, 2, 1, 2])), [2.0, 2.0, 1.0, 1.0]),
        (_conjugate(_rational_rotation(rng, 7),
                    _block_diagonal(7, [3, 3, 3])), [3.0, 3.0, 3.0]),
        # rational, not integral: each value rounded once, exactly
        (_conjugate(_rational_rotation(rng, 6),
                    _block_diagonal(6, [Fraction(1, 3), Fraction(5, 2), 0])),
         [2.5, float(Fraction(1, 3))]),
        (_conjugate(_rational_rotation(rng, 4),
                    _block_diagonal(4, [Fraction(-2, 7), Fraction(1, 10)])),
         [float(Fraction(2, 7)), -float(Fraction(1, 10))]),
        (linalg.zeros(3, 3), []),
        ([], []),
    ]
    for a, want in cases:
        assert block_parameters(a) == want, a


def test_irrational_block_parameters_are_correctly_rounded():
    # [[0, a, b], [-a, 0, c], [-b, -c, 0]] has the one parameter
    # sqrt(a^2 + b^2 + c^2); its double's rounding cell must hold it
    rng = random.Random(8)
    for _ in range(50):
        a, b, c = (Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                   for _ in range(3))
        y = a * a + b * b + c * c
        if not y:
            continue
        (x,) = block_parameters([[0, a, b], [-a, 0, c], [-b, -c, 0]])
        lo, hi = _cell(x)
        assert lo * lo < y < hi * hi or x * x == y


@pytest.mark.parametrize("value, want", [
    # midway between 1 and the next double up: the tie goes to even 1.0
    (1 + Fraction(1, 2 ** 53), 1.0),
    # midway between 1 + 2^-52 (odd) and 1 + 2^-51 (even)
    (1 + Fraction(3, 2 ** 53), 1 + 2.0 ** -51),
])
def test_a_parameter_midway_between_doubles_rounds_to_even(value, want):
    assert block_parameters(_block_diagonal(3, [value])) == [want]


def test_bisection_agrees_with_the_float_guided_roots():
    # the fallback alone, on the squarefree factors of random matrices
    rng = random.Random(9)
    for _ in range(20):
        a = random_skew(rng, rng.randint(2, 8))
        b = [[x * 12 for x in row] for row in a]  # 12 clears denominators
        c = linalg.charpoly([[int(x) for x in row] for row in b])
        k = len(a) // 2
        p = [(-1) ** j * c[2 * (k - j)] for j in range(k + 1)]
        p = p[next(j for j, x in enumerate(p) if x):]
        for f, _ in classify._squarefree_factors(p):
            assert classify._roots_by_bisection(f) == \
                sorted(classify._rounded_roots(f))


def test_block_parameters_beyond_the_float_guidance():
    # y = a^2 overflows a double, so the exact bisection places the root
    big = 3 * 10 ** 200
    assert block_parameters(_block_diagonal(2, [big])) == [float(big)]
    with pytest.raises(NaryError, match="beyond the double range"):
        block_parameters(_block_diagonal(2, [10 ** 400]))


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


def test_classify_m3_labels_a_simple_algebra_by_rank():
    v = mono(V5, 1, 2) + mono(V5, 3, 4)
    rep = classify_m3(v).ideal
    assert not rep.found and rep.method == "rank-criterion"
    assert rep.status == "simple (certified)" and rep.basis == []
    rep = find_ideal(derive_structure(build_m3_algebra(CTX5, v)))
    assert rep.method == "commutant" and rep.status == "simple (certified)"


def _rank2_structures(rng):
    """(m-3)-ary algebras of random rank-2 skew matrices u w^T - w u^T."""
    for m in (5, 6, 7):
        sp = odd_space(m)
        ctx = HodgeContext(sp)
        done = 0
        while done < 3:
            u = [rng.randint(-3, 3) for _ in range(m)]
            w = [rng.randint(-3, 3) for _ in range(m)]
            a = [[Fraction(u[i] * w[j] - w[i] * u[j]) for j in range(m)]
                 for i in range(m)]
            if linalg.rank(linalg.sparse(a)) != 2:
                continue
            v = skew_to_element(sp, a)
            yield derive_structure(build_m3_algebra(ctx, v))
            done += 1


def test_found_ideals_verify_exactly():
    cases = [(s, "kernel") for s in _rank2_structures(random.Random(31))]
    cases += [(_so3_plus_so3(rotated), "commutant")
              for rotated in (False, True)]
    for s, method in cases:
        rep = find_ideal(s)
        assert rep.found and rep.method == method
        m = s.space.dim
        rows = [[b.coefficient((i,)) for i in range(m)] for b in rep.basis]
        rows = linalg.row_space(linalg.sparse(rows))
        assert 0 < len(rows) < m
        # the product with each basis row, by the multilinear extension
        gens = [Element.generator(s.space, i) for i in range(m)]
        prefixes = canonical_tuples(s.space, s.arity - 1)
        probed = 0
        for t in prefixes:
            for vec in rows:
                w = Element(s.space, {(i,): c for i, c in vec.items()})
                img = s.eval_elements([gens[i] for i in t] + [w])
                img = [img.coefficient((i,)) for i in range(m)]
                assert len(linalg.row_space(rows + linalg.sparse([img]))) \
                    == len(rows)
                probed += 1
        assert probed == len(rows) * len(prefixes) > 0


def test_verify_ideal_rejects_a_subspace_that_is_not_invariant():
    s = _so3_plus_so3(rotated=False)
    ops = list(s.operators().values())
    assert classify._verify_ideal(ops, [{3: 1}, {4: 1}, {5: 1}])
    # L_1 maps e_2 to a multiple of e_3, outside the span of e_2 and e_4
    assert not classify._verify_ideal(ops, [{1: 1}, {3: 1}])


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
        mu = map_element(_rational_rotation(random.Random(5), 6), mu)
    return derive_structure(Potential.single(sp, mu))


def test_commutant_dimension_matches_kronecker_oracle():
    cases = list(_grid_structures((5, 6, 7, 8)))
    cases += [(None, _so3_plus_so3(False)), (None, _so3_plus_so3(True))]
    dims = []
    for rank, s in cases:
        m = s.space.dim
        got = classify._commutant(list(s.operators().values()), m)[1]
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


def _commutant_ideal_rows(s):
    """The ideal find_ideal reports from the commutant, checked closed
    under every operator by the dense fixed-point oracle."""
    rep = find_ideal(s)
    assert rep.found and rep.method == "commutant"
    assert rep.status == "ideal found"
    rows = linalg.row_space([{i: c for (i,), c in b.terms.items()}
                             for b in rep.basis])
    assert 0 < len(rows) < 6
    mats = [[[Fraction(op.get(j, {}).get(i, 0)) for j in range(6)]
             for i in range(6)] for op in operators_by_gather(s).values()]
    assert spin_by_fixed_point(mats, rows, 6) == rows
    return rows


def test_rotated_so3_plus_so3_is_never_called_simple():
    # the commutant is span(I, X) with X^2 = aI + bX; the basis elements
    # are invertible, so the ideal is the kernel of X - tI at a rational
    # root t of t^2 = a + b t
    rows = _commutant_ideal_rows(_so3_plus_so3(rotated=True))
    assert len(rows) == 3


def test_aligned_so3_plus_so3_has_an_invariant_proper_ideal():
    rows = _commutant_ideal_rows(_so3_plus_so3(rotated=False))
    assert rows == [{3: 1}, {4: 1}, {5: 1}]


def test_classify_m3_raises_when_the_ideal_search_disagrees(monkeypatch):
    # rank 4 is simple by the paper's criterion, so an undecided search or
    # a found ideal contradicts it
    v = mono(V5, 1, 2) + mono(V5, 3, 4)
    for rep in (IdealReport(False, method="commutant",
                            status="undecided (commutant dimension 2)"),
                IdealReport(True, [Element.generator(V5, 0)],
                            method="kernel", status="ideal found")):
        monkeypatch.setattr(classify, "find_ideal", lambda s, rep=rep: rep)
        with pytest.raises(NaryError, match="disagrees with the ideal search"):
            classify_m3(v)
    # rank 2 is not simple, so a certified simple algebra contradicts it
    monkeypatch.setattr(classify, "find_ideal", lambda s: IdealReport(
        False, method="commutant", status="simple (certified)"))
    with pytest.raises(NaryError, match="disagrees with the ideal search"):
        classify_m3(mono(V5, 1, 2))


def test_classify_records_match_theory():
    rec = classify_m3(mono(V5, 1, 2) + mono(V5, 3, 4))
    assert rec.simple and not rec.filippov and not rec.sh_jacobi
    assert rec.skew_rank == 4
    rec = classify_m3(mono(V5, 1, 2))
    assert not rec.simple and rec.filippov and rec.sh_jacobi
    assert rec.ideal.found
    rec = classify_m3(Element.zero(V5))
    assert not rec.simple and rec.filippov and rec.sh_jacobi


def test_classify_rejects_small_dimension():
    sp = odd_space(4)
    with pytest.raises(DimensionTooSmall):
        classify_m3(Element.monomial(sp, (0, 1)))


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
    assert len(ider(L)) == 10
    zero = Potential.single(V5, Element.zero(V5), arity=2)
    assert len(ider(zero)) == 10


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
        a = linalg.row_space([w.terms for w in ider(mu)])
        b = linalg.row_space([w.terms for w in ider(dual)])
        assert a == b


def test_ider_members_satisfy_derivation_criterion():
    from naryalg.derived import check_derivation
    mu = Potential.single(V5, mono(V5, 3, 4, 5))
    for w in ider(mu):
        assert check_derivation(w, mu)


# ---------------------------------------------------------------------------
# isomorphisms


def test_isomorphic_via_identity():
    mu = Potential.single(V5, mono(V5, 1, 2, 5))
    phi = linalg.identity(5)
    assert isomorphic_via(mu, mu, phi)


def test_isomorphic_via_refuses_potentials_over_different_spaces():
    # the map is read at the potentials' size: an identity of another
    # size is refused as a matrix of the wrong shape
    mu = Potential.single(V5, mono(V5, 1, 2, 5))
    V6 = odd_space(6)
    mu6 = Potential.single(V6, mono(V6, 1, 2, 5))
    for first, second in ((mu, mu6), (mu6, mu)):
        with pytest.raises(SpaceMismatch):
            isomorphic_via(first, second, linalg.identity(5))
    with pytest.raises(NaryError) as info:
        isomorphic_via(mu, mu, linalg.identity(6))
    assert type(info.value) is NaryError
    assert isomorphic_via(mu6, mu6, linalg.identity(6))
    assert map_element(linalg.identity(6), mu6.element) == mu6.element


def test_isomorphic_via_signed_permutation():
    phi = [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 0, 1, 0],
           [0, 0, 1, 0, 0], [0, 0, 0, 0, 1]]
    mu = Potential.single(V5, mono(V5, 1, 2, 5))
    image = map_element([[Fraction(x) for x in row] for row in phi],
                        mu.element)
    # direct substitution: e1e2e5 -> e2e1e5 = -e1e2e5
    assert image == mono(V5, 1, 2, 5, coeff=-1)
    assert isomorphic_via(mu, Potential.single(V5, image), phi)
    assert not isomorphic_via(mu, mu, phi)


def test_isomorphic_via_rejects_det_minus_one():
    phi = [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 1, 0, 0],
           [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
    mu = Potential.single(V5, mono(V5, 1, 2, 5))
    with pytest.raises(NotOrthogonal):
        isomorphic_via(mu, mu, phi)


def test_isomorphic_orbits_preserve_identities():
    # a rotation in the (e1,e2) plane maps *(e1e2) potentials to themselves
    c, s = Fraction(3, 5), Fraction(4, 5)
    phi = [[c, -s, 0, 0, 0], [s, c, 0, 0, 0], [0, 0, 1, 0, 0],
           [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
    v = mono(V5, 1, 2)
    image = map_element(phi, v)
    assert image == v  # e1e2 is rotation invariant
    mu = build_m3_algebra(CTX5, v)
    assert isomorphic_via(mu, mu, phi)


def test_isomorphic_via_refuses_a_map_that_mixes_parities():
    # phi sends the odd e2 to e1 + e2 and preserves this degenerate form
    # with det 1; the image e1^2 + e1e2 of e1e2 has no parity
    space = Superspace(2, [0, 1], [[0, 0], [0, 1]])
    phi = [[1, 1], [0, 1]]
    mu = Potential.single(space, Element.monomial(space, (0, 1)))
    image = map_element(phi, mu.element)
    assert image.parity() is None
    with pytest.raises(NotOrthogonal, match="other parity"):
        isomorphic_via(mu, Potential.single(space, image), phi)


def test_map_element_refuses_a_matrix_of_the_wrong_shape():
    space = odd_space(3)
    with pytest.raises(NaryError) as info:
        map_element([[1]], Element.generator(space, 2))
    assert type(info.value) is NaryError


def test_even_isometries_are_bracket_morphisms():
    # what isomorphic_via no longer samples: an even phi with
    # phi^T G phi = G preserves the bracket on all of S*V
    rng = random.Random(41)
    moved = 0
    for _ in range(25):
        space = random_superspace(rng, rng.randint(2, 6))
        phi = random_even_isometry(rng, space)
        moved += phi != linalg.identity(space.dim)
        for _ in range(3):
            a = random_homogeneous(space, rng, rng.randint(1, 3))
            b = random_homogeneous(space, rng, rng.randint(1, 3))
            assert map_element(phi, poisson_bracket(a, b)) == \
                poisson_bracket(map_element(phi, a),
                                map_element(phi, b))
        mu = random_homogeneous(space, rng, 3)
        if not mu.is_zero():
            image = Potential.single(space, map_element(phi, mu))
            assert isomorphic_via(Potential.single(space, mu),
                                  image, phi)
    assert moved >= 15


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
