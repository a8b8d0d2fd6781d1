"""Star operator, inner product, adjointness, and the decomposition."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from naryalg import hodge, linalg
from naryalg.derived import Potential, canonical_tuples
from naryalg.errors import NotHodgeContext, NotLInfinity
from naryalg.hodge import (
    HodgeContext,
    codifferential,
    differential,
    hodge_decomposition,
    inner_product,
    laplacian,
    op_apply,
    star,
    star_matrix,
)
from naryalg.poisson import Element, nested_bracket_indices, poisson_bracket
from naryalg.superspace import Orientation, even_symplectic_space, odd_space
from oracles import hodge_operators_by_compose

V5 = odd_space(5)
CTX5 = HodgeContext(V5)


def mono(space, *word, coeff=1):
    return Element.monomial(space, [i - 1 for i in word], coeff)


def monomials(space, p):
    return [Element(space, {c: Fraction(1)})
            for c in combinations(range(space.dim), p)]


def all_monomials(space):
    return [el for p in range(space.dim + 1) for el in monomials(space, p)]


def full_matrix(ctx, op):
    """Dense matrix of a block map, read image by image through op_apply."""
    basis = [mono for monos in ctx.degree_monomials for mono in monos]
    cols = [op_apply(op, Element(ctx.space, {mono: Fraction(1)}))
            for mono in basis]
    return [[col.coefficient(row) for col in cols] for row in basis]


def test_context_requires_pure_odd_orthonormal():
    with pytest.raises(NotHodgeContext):
        HodgeContext(even_symplectic_space(2))
    with pytest.raises(NotHodgeContext):
        HodgeContext(odd_space(3, gram=[[2, 0, 0], [0, 1, 0], [0, 0, 1]]))


def test_star_of_one_is_top_form():
    assert star(CTX5, Element.scalar(V5, 1)) == mono(V5, 1, 2, 3, 4, 5)


def test_star_basics_frozen():
    assert star(CTX5, mono(V5, 1, 2)) == mono(V5, 3, 4, 5, coeff=-1)
    assert star(CTX5, mono(V5, 1)) == mono(V5, 2, 3, 4, 5)


def test_star_matches_nested_brackets():
    for m in (2, 3, 4, 5, 6):
        ctx = HodgeContext(odd_space(m))
        for v in all_monomials(ctx.space):
            assert star(ctx, v) == nested_bracket_indices(
                ctx.space, sorted(next(iter(v.terms))), ctx.top)


@pytest.mark.parametrize("m", range(2, 9))
def test_double_star_sign_law(m):
    ctx = HodgeContext(odd_space(m))
    sign = -1 if (m * (m - 1) // 2) % 2 else 1
    for v in all_monomials(ctx.space):
        assert star(ctx, star(ctx, v)) == v.scale(sign)


def test_star_matrices_invertible():
    for m in (2, 3, 4, 5, 6):
        ctx = HodgeContext(odd_space(m))
        for p in range(m + 1):
            assert linalg.det(star_matrix(ctx, p)) != 0


def test_star_respects_orientation():
    ctx_rev = HodgeContext(V5, Orientation([1, 0, 2, 3, 4]))
    assert star(ctx_rev, Element.scalar(V5, 1)) == mono(V5, 1, 2, 3, 4, 5,
                                                        coeff=-1)


def test_star_is_so_equivariant():
    rng = random.Random(3)
    pairs = canonical_tuples(V5, 2)
    for _ in range(60):
        w = Element.monomial(V5, pairs[rng.randrange(len(pairs))],
                             rng.randint(-3, 3))
        x = rng.choice(all_monomials(V5))
        assert star(CTX5, poisson_bracket(w, x)) == \
            poisson_bracket(w, star(CTX5, x))


def test_inner_product_orthonormal_m5():
    basis = all_monomials(V5)
    for a in basis:
        for b in basis:
            want = 1 if a == b else 0
            assert inner_product(CTX5, a, b) == want


def test_inner_product_mixed_degree_zero():
    assert inner_product(CTX5, mono(V5, 1, 2), mono(V5, 3)) == 0


def test_differential_of_zero_and_of_scalars():
    mu = Potential.single(V5, Element.zero(V5), arity=2)
    d = differential(CTX5, mu)
    assert d == {}
    mu = Potential.single(V5, star(CTX5, mono(V5, 1, 2)))
    d = differential(CTX5, mu)
    # bracket with scalars vanishes
    assert op_apply(d, Element.scalar(V5, 1)).is_zero()
    assert all(() not in block for block in d.values())


def test_differential_squares_to_zero_checked():
    mu = Potential.single(V5, star(CTX5, mono(V5, 1, 2)))
    d = differential(CTX5, mu)
    assert all(op_apply(d, op_apply(d, v)).is_zero()
               for v in all_monomials(V5))
    # [mu,mu] has a degree-4 part here, so d fails to square to zero
    bad = Potential.single(V5, mono(V5, 3, 4, 5) + mono(V5, 1, 2, 5))
    with pytest.raises(NotLInfinity):
        differential(CTX5, bad)


def test_codifferential_single_layer_is_conjugated_differential():
    mu = Potential.single(V5, star(CTX5, mono(V5, 1, 2)))
    k = mu.element.degree() - 2
    sign = -1 if (k * (1 - k) // 2) % 2 else 1
    d = differential(CTX5, mu)
    delta = codifferential(CTX5, d)
    for v in all_monomials(V5):
        assert op_apply(delta, v) == \
            star(CTX5, op_apply(d, star(CTX5, v))).scale(sign)


@pytest.mark.parametrize("name", ["star12", "top"])
def test_adjointness_all_pairs_m5(name):
    el = star(CTX5, mono(V5, 1, 2)) if name == "star12" else mono(V5, 1, 2, 3, 4, 5)
    mu = Potential.single(V5, el)
    d = differential(CTX5, mu)
    delta = codifferential(CTX5, d)
    sign = -1 if (5 * 4 // 2) % 2 else 1
    basis = all_monomials(V5)
    for v in basis:
        for w in basis:
            assert inner_product(CTX5, op_apply(d, v), w) == \
                -sign * inner_product(CTX5, v, op_apply(delta, w))


def test_disjointness_on_kernel_bases():
    # d(delta(x)) = 0 forces delta(x) = 0, and symmetrically
    mu = Potential.single(V5, star(CTX5, mono(V5, 1, 2)))
    d = differential(CTX5, mu)
    delta = codifferential(CTX5, d)
    delta_m = full_matrix(CTX5, delta)
    d_m = full_matrix(CTX5, d)
    dd = linalg.mat_mul(d_m, delta_m)
    dm = linalg.mat_mul(delta_m, d_m)
    for vec in linalg.nullspace(dd):
        assert all(x == 0 for x in linalg.mat_vec(delta_m, vec))
    for vec in linalg.nullspace(dm):
        assert all(x == 0 for x in linalg.mat_vec(d_m, vec))


@pytest.mark.parametrize("name", ["zero", "star12", "top"])
def test_decomposition_certificate_m5(name):
    if name == "zero":
        mu = Potential.single(V5, Element.zero(V5), arity=2)
    elif name == "star12":
        mu = Potential.single(V5, star(CTX5, mono(V5, 1, 2)))
    else:
        mu = Potential.single(V5, mono(V5, 1, 2, 3, 4, 5))
    rep = hodge_decomposition(CTX5, mu)
    assert rep.direct_sum_ok
    assert rep.kernel_intersection_ok
    assert rep.rank_d + rep.rank_delta + rep.ker_laplacian == 32
    assert rep.ker_laplacian == rep.cohomology_total
    for row in rep.degrees:
        assert row.im_d + row.im_delta + row.ker_laplacian == row.dim
        assert row.cohomology == row.ker_laplacian
    if name == "zero":
        assert rep.ker_laplacian == 32


def test_decomposition_zero_harmonics_span_everything():
    mu = Potential.single(V5, Element.zero(V5), arity=2)
    rep = hodge_decomposition(CTX5, mu)
    assert sum(len(h) for h in rep.harmonic.values()) == 32


def test_decomposition_mixed_family():
    # layers of arity 0 and 2 with disjoint supports: [mu,mu] = (e1,e1)
    V4 = odd_space(4)
    ctx = HodgeContext(V4)
    el = Element.generator(V4, 0) + Element.monomial(V4, (1, 2, 3))
    mu = Potential.homotopy_family(V4, el)
    rep = hodge_decomposition(ctx, mu)
    assert not rep.homogeneous
    assert rep.direct_sum_ok
    assert rep.kernel_intersection_ok
    assert rep.rank_d + rep.rank_delta + rep.ker_laplacian == 16


def test_laplacian_of_harmonics_vanishes():
    mu = Potential.single(V5, star(CTX5, mono(V5, 1, 2)))
    d = differential(CTX5, mu)
    delta = codifferential(CTX5, d)
    lap = laplacian(CTX5, d, delta)
    rep = hodge_decomposition(CTX5, mu)
    for p, elems in rep.harmonic.items():
        for h in elems:
            assert op_apply(lap, h).is_zero()
            assert op_apply(d, h).is_zero()
            assert op_apply(delta, h).is_zero()


def test_codifferential_of_zero_potential_is_zero():
    mu = Potential.single(V5, Element.zero(V5), arity=2)
    delta = codifferential(CTX5, differential(CTX5, mu))
    assert delta == {}
    assert all(op_apply(delta, v).is_zero() for v in all_monomials(V5))


def test_operator_blocks_shapes():
    mu = Potential.single(V5, star(CTX5, mono(V5, 1, 2)))
    d = differential(CTX5, mu)
    # the cubic layer raises degree by exactly one
    assert d and all(q == p + 1 for (p, q) in d)
    for (p, q), block in d.items():
        assert set(block) <= set(CTX5.degree_monomials[p])
        for img in block.values():
            assert img and set(img) <= set(CTX5.degree_monomials[q])


def _case(m, name, orientation=None):
    space = odd_space(m)
    ctx = HodgeContext(space, orientation and Orientation(orientation))

    def e(*word):
        return mono(space, *word)

    if name == "cubic":
        return ctx, Potential.single(space, e(1, 2, 3))
    if name == "quintic":
        return ctx, Potential.single(space, e(1, 2, 3, 4, 5))
    if name == "star12":
        return ctx, Potential.single(space, star(ctx, e(1, 2)))
    if name == "top":
        return ctx, Potential.single(space, e(*range(1, m + 1)))
    if name == "zero":
        return ctx, Potential.single(space, Element.zero(space), arity=2)
    if name == "family13":
        # layers of degree 1 and 3 (arity 0 and 2) with disjoint supports
        return ctx, Potential.homotopy_family(space, e(1) + e(2, 3, 4))
    assert name == "family13-scaled"
    return ctx, Potential.homotopy_family(
        space, mono(space, m, coeff=3) + mono(space, 1, 2, 3, coeff=-2))


HODGE_CASES = [
    (5, "cubic", None), (6, "cubic", None), (6, "quintic", None),
    (5, "star12", None), (6, "star12", None),
    (5, "top", None), (6, "top", None), (3, "zero", None), (6, "zero", None),
    (4, "family13", None), (6, "family13", None), (5, "family13-scaled", None),
    (5, "star12", [1, 0, 2, 3, 4]), (5, "cubic", [1, 0, 2, 3, 4]),
    (4, "family13", [0, 1, 3, 2]),
]


@pytest.mark.parametrize("m,name,orientation", HODGE_CASES)
def test_block_operators_match_compose_oracle(m, name, orientation):
    ctx, mu = _case(m, name, orientation)
    if orientation:
        assert ctx.orientation.sign == -1
    d = differential(ctx, mu)
    delta = codifferential(ctx, d)
    lap = laplacian(ctx, d, delta)
    want = hodge_operators_by_compose(ctx, mu)
    for op, oracle in zip((d, delta, lap), want):
        for v in all_monomials(ctx.space):
            assert op_apply(op, v) == oracle[next(iter(v.terms))]
        for (p, q), block in op.items():
            for src, img in block.items():
                assert len(src) == p and img
                assert all(len(dst) == q and c != 0 for dst, c in img.items())


def _counting_brackets(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append(1)
        return poisson_bracket(a, b)

    monkeypatch.setattr(hodge, "poisson_bracket", counted)
    return calls


@pytest.mark.parametrize("m,name", [(5, "star12"), (6, "family13"),
                                    (5, "zero")])
def test_one_bracket_per_layer_and_monomial(monkeypatch, m, name):
    ctx, mu = _case(m, name)
    layers = len(mu.element.degrees())
    calls = _counting_brackets(monkeypatch)
    d = differential(ctx, mu)
    assert len(calls) == layers * 2 ** m
    codifferential(ctx, d)
    assert len(calls) == layers * 2 ** m   # delta takes no bracket
    del calls[:]
    hodge_decomposition(ctx, mu)
    # plus the one [mu, mu] of the homotopy check
    assert len(calls) == layers * 2 ** m + 1


def test_square_zero_checks_raise():
    # two cubic terms sharing e5: [mu, mu] has a degree-4 part
    bad = mono(V5, 3, 4, 5) + mono(V5, 1, 2, 5)
    with pytest.raises(NotLInfinity):
        differential(CTX5, Potential.single(V5, bad))
    # delta of a block map with d^2 != 0 fails its own square-zero check
    blocks = {}
    for v in all_monomials(V5):
        (src,) = v.terms
        img = poisson_bracket(bad, v).terms
        if img:
            blocks.setdefault((len(src), len(src) + 1), {})[src] = img
    with pytest.raises(NotLInfinity):
        codifferential(CTX5, blocks)
