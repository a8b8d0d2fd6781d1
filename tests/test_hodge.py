"""Star operator, inner product, adjointness, and the decomposition."""

import hashlib
import json
import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from naryalg import cli, hodge, io, linalg
from naryalg.classify import map_element
from naryalg.derived import Potential, canonical_tuples
from naryalg.errors import NotHodgeContext, NotLInfinity
from naryalg.hodge import (
    HodgeContext,
    codifferential,
    differential,
    hodge_decomposition,
    inner_product,
    laplacian,
    star,
    star_monomial,
)
from naryalg.poisson import Element, nested_bracket_indices, poisson_bracket
from naryalg.superspace import (
    Orientation,
    even_symplectic_space,
    odd_space,
    permutation_sign,
)
from oracles import (
    all_monomials as monomial_tuples,
    differential_by_brackets,
    hodge_by_global_ranks,
    hodge_by_laplacian,
    hodge_operators_by_compose,
)

V5 = odd_space(5)
CTX5 = HodgeContext(V5)


def mono(space, *word, coeff=1):
    return Element.monomial(space, [i - 1 for i in word], coeff)


def monomials(space, p):
    return [Element(space, {c: Fraction(1)})
            for c in combinations(range(space.dim), p)]


def all_monomials(space):
    return [el for p in range(space.dim + 1) for el in monomials(space, p)]


def image(op, v):
    """The image of the element v under the operator op."""
    return Element(v.space, linalg.apply_op(op, v.terms))


def full_matrix(ctx, op):
    """Dense matrix of an operator, read image by image."""
    basis = monomial_tuples(ctx.m)
    cols = [linalg.apply_op(op, {mono: 1}) for mono in basis]
    return [[Fraction(col.get(row, 0)) for col in cols] for row in basis]


def test_context_requires_pure_odd_orthonormal():
    with pytest.raises(NotHodgeContext):
        HodgeContext(even_symplectic_space(2))
    with pytest.raises(NotHodgeContext):
        HodgeContext(odd_space(3, gram=[[2, 0, 0], [0, 1, 0], [0, 0, 1]]))


def test_context_refuses_an_orientation_of_another_dimension():
    # the sign of a 2-element order is no orientation of a 5-dim space
    for order in ([1, 0], [0, 1, 2, 3], [0, 1, 2, 3, 4, 5]):
        with pytest.raises(NotHodgeContext):
            HodgeContext(V5, Orientation(order))
    ctx = HodgeContext(V5, Orientation([1, 0, 2, 3, 4]))
    assert ctx.top == -mono(V5, 1, 2, 3, 4, 5)


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
                sorted(next(iter(v.terms))), ctx.top)


@pytest.mark.parametrize("m", range(2, 9))
def test_double_star_sign_law(m):
    ctx = HodgeContext(odd_space(m))
    sign = -1 if (m * (m - 1) // 2) % 2 else 1
    for v in all_monomials(ctx.space):
        assert star(ctx, star(ctx, v)) == v.scale(sign)


def test_star_matrices_invertible():
    # so the matrix of star from degree p to degree m - p is a signed
    # permutation matrix, and invertible
    for m in (2, 3, 4, 5, 6):
        ctx = HodgeContext(odd_space(m))
        for p in range(m + 1):
            images = [star_monomial(ctx, mono)
                      for mono in combinations(range(m), p)]
            assert all(sign in (1, -1) for sign, _ in images)
            assert sorted(comp for _, comp in images) == \
                list(combinations(range(m), m - p))


@pytest.mark.parametrize("m", range(1, 10))
def test_star_sign_closed_form_matches_permutation_sign(m):
    # the signature of (x reversed, complement) is (-1)^{sum x}, 0-based
    turned = list(range(m))
    turned[:2] = turned[1::-1]
    for order in {tuple(range(m)), tuple(turned)}:
        ctx = HodgeContext(odd_space(m), Orientation(order))
        for mono in monomial_tuples(m):
            comp = tuple(i for i in range(m) if i not in mono)
            want = ctx.orientation.sign * permutation_sign(mono[::-1] + comp)
            assert star_monomial(ctx, mono) == (want, comp)


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
    assert not linalg.apply_op(d, {(): 1})
    assert () not in d


def test_differential_squares_to_zero_checked():
    mu = Potential.single(V5, star(CTX5, mono(V5, 1, 2)))
    d = differential(CTX5, mu)
    assert all(not image(d, image(d, v)).terms for v in all_monomials(V5))
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
        assert image(delta, v) == \
            star(CTX5, image(d, star(CTX5, v))).scale(sign)


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
            assert inner_product(CTX5, image(d, v), w) == \
                -sign * inner_product(CTX5, v, image(delta, w))


def test_disjointness_on_kernel_bases():
    # d(delta(x)) = 0 forces delta(x) = 0, and symmetrically
    mu = Potential.single(V5, star(CTX5, mono(V5, 1, 2)))
    d = differential(CTX5, mu)
    delta = codifferential(CTX5, d)
    delta_m = full_matrix(CTX5, delta)
    d_m = full_matrix(CTX5, d)
    dd = linalg.mat_mul(d_m, delta_m)
    dm = linalg.mat_mul(delta_m, d_m)
    cols = range(len(d_m))
    for vec in linalg.nullspace(linalg.sparse(dd), cols):
        dense = [vec.get(c, 0) for c in cols]
        assert all(x == 0 for x in linalg.mat_vec(delta_m, dense))
    for vec in linalg.nullspace(linalg.sparse(dm), cols):
        dense = [vec.get(c, 0) for c in cols]
        assert all(x == 0 for x in linalg.mat_vec(d_m, dense))


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
    # shifts -1 and 1 split S*V into the even and the odd degrees; the
    # pinned totals are those of the Laplacian route on that split
    want = hodge_by_laplacian(ctx, mu)
    assert rep.rank_d == want.rank_d == 8
    assert rep.ker_laplacian == want.ker_laplacian == 0


def test_context_refuses_dimension_above_guard():
    with pytest.raises(NotHodgeContext):
        HodgeContext(odd_space(15))


def test_mixed_family_certifies_at_m11():
    # a mixed family is admitted up to MAX_DIM, like a single layer
    space = odd_space(11)
    mu = Potential.homotopy_family(space, mono(space, 1) + mono(space, 2, 3, 4))
    rep = hodge_decomposition(HodgeContext(space), mu)
    assert rep.direct_sum_ok and rep.kernel_intersection_ok
    assert rep.rank_d == rep.rank_delta == 1024
    assert rep.ker_laplacian == rep.cohomology_total == 0


# disjoint families e1e2e3 + e4...e_m with no degree-1 layer, so Ker L is
# not zero: shifts 1 and 3 (g = 2) and 1 and 5 (g = 4).  Ker L has the
# Kunneth dimension, the product of the layers' cohomology on their own
# variables: 2 * 22 and 2 * 114.
MIXED_KERNEL_CASES = [(8, 44), (10, 228)]


@pytest.mark.parametrize("m,ker", MIXED_KERNEL_CASES)
def test_mixed_sectors_match_global_oracle(m, ker):
    space = odd_space(m)
    ctx = HodgeContext(space)
    mu = Potential.homotopy_family(
        space, mono(space, 1, 2, 3) + mono(space, *range(4, m + 1)))
    rep = hodge_decomposition(ctx, mu)
    want = hodge_by_global_ranks(ctx, mu)
    assert rep.ker_laplacian == want.ker_laplacian == ker
    assert rep.direct_sum_ok and rep.kernel_intersection_ok
    assert io.hodge_report_to_json(rep) == io.hodge_report_to_json(want)
    assert not rep.harmonic


def test_laplacian_of_harmonics_vanishes():
    mu = Potential.single(V5, star(CTX5, mono(V5, 1, 2)))
    d = differential(CTX5, mu)
    delta = codifferential(CTX5, d)
    lap = laplacian(CTX5, d, delta)
    rep = hodge_decomposition(CTX5, mu)
    for p, elems in rep.harmonic.items():
        for h in elems:
            assert image(lap, h).is_zero()
            assert image(d, h).is_zero()
            assert image(delta, h).is_zero()


def test_codifferential_of_zero_potential_is_zero():
    mu = Potential.single(V5, Element.zero(V5), arity=2)
    delta = codifferential(CTX5, differential(CTX5, mu))
    assert delta == {}
    assert all(image(delta, v).is_zero() for v in all_monomials(V5))


def test_operator_flat_shapes():
    mu = Potential.single(V5, star(CTX5, mono(V5, 1, 2)))
    d = differential(CTX5, mu)
    delta = codifferential(CTX5, d)
    # flat maps keyed by monomial with no empty image and no zero entry;
    # the cubic layer raises degree by exactly one, and delta lowers it
    monos = set(monomial_tuples(5))
    assert d and delta
    for op, shift in ((d, 1), (delta, -1)):
        assert set(op) <= monos
        for src, img in op.items():
            assert img and set(img) <= monos
            assert all(len(dst) == len(src) + shift and c != 0
                       for dst, c in img.items())


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
    # d moves degree by a layer shift s - 2, delta by minus one, and L
    # keeps it
    shifts = {s - 2 for s in mu.element.degrees()}
    for op, oracle, moves in zip((d, delta, lap), want, (
            shifts, {-k for k in shifts}, {0})):
        for v in all_monomials(ctx.space):
            assert image(op, v) == oracle[next(iter(v.terms))]
        for src, img in op.items():
            assert img
            assert all(len(dst) - len(src) in moves and c != 0
                       for dst, c in img.items())


def _counting_brackets(monkeypatch):
    """Count poisson_bracket calls through every naryalg module's name."""
    calls = []

    def counted(a, b):
        calls.append(1)
        return poisson_bracket(a, b)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "naryalg" and \
                getattr(module, "poisson_bracket", None) is poisson_bracket:
            monkeypatch.setattr(module, "poisson_bracket", counted)
    return calls


@pytest.mark.parametrize("m,name", [(5, "star12"), (6, "star12"),
                                    (6, "family13"), (5, "zero"),
                                    (9, "star12")])
def test_differential_takes_no_bracket(monkeypatch, m, name):
    ctx, mu = _case(m, name)
    calls = _counting_brackets(monkeypatch)
    codifferential(ctx, differential(ctx, mu))
    assert calls == []
    if mu.is_odd():
        hodge_decomposition(ctx, mu)
        # only the [mu, mu] of the homotopy check
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# d by the Leibniz rule against one bracket per reached monomial


def _random_leibniz_case(rng):
    """(ctx, mu) with m = 3..9.

    A seeded single layer, star of a degree-2 monomial (an even layer when
    m is even) or odd family, rotated to a connected support when its
    turns are > 0; the zero potential; or one to three random monomials,
    of one degree or of odd degrees in a family, whose supports may
    overlap so that d^2 = 0 can fail.
    """
    m = rng.randint(3, 9)
    kind = rng.choice(["single", "star", "family", "random", "random",
                       "zero"])
    if kind == "zero":
        return _case(m, "zero")
    if kind == "random":
        space = odd_space(m)
        family = rng.random() < 0.5
        deg = rng.randint(2, m)
        el = Element.zero(space)
        for _ in range(rng.randint(1, 3)):
            if family:
                deg = rng.choice(range(1, m + 1, 2))
            coeff = Fraction(rng.choice([1, -1, 2, -3]), rng.choice([1, 2]))
            word = sorted(rng.sample(range(m), deg))
            el = el + Element.monomial(space, word, coeff)
        if el.is_zero():
            return _case(m, "zero")
        if family:
            return HodgeContext(space), Potential.homotopy_family(space, el)
        return HodgeContext(space), Potential.single(space, el)
    sizes = None
    if kind == "single":
        s = rng.choice([s for s in (3, 5, 7) if s <= m])
        sizes = [s] * rng.randint(1, m // s)
    else:
        m = max(m, 4)
    if kind == "family":
        sizes = rng.sample([1, 3, 5, 7], 2)
        while sum(sizes) > m:
            sizes = rng.sample([1, 3, 5, 7], 2)
    return _seeded_case(m, kind, sizes, rng.randint(0, 3),
                        rng.randrange(10**6))


def test_differential_matches_the_bracket_oracle():
    rng = random.Random(27)
    seen = {"even": 0, "refused": 0, "zero": 0, "rotated": 0}
    for _ in range(240):
        ctx, mu = _random_leibniz_case(rng)
        seen["even"] += any(s % 2 == 0 for s in mu.element.degrees())
        seen["zero"] += mu.element.is_zero()
        seen["rotated"] += any(c.denominator > 3
                               for c in mu.element.terms.values())
        try:
            want = differential_by_brackets(ctx, mu)
        except NotLInfinity:
            seen["refused"] += 1
            with pytest.raises(NotLInfinity):
                differential(ctx, mu)
            continue
        assert differential(ctx, mu) == want
    assert min(seen.values()) >= 10, seen
    ctx, mu = _case(6, "star12")
    assert differential(ctx, mu) == differential_by_brackets(ctx, mu)


# ---------------------------------------------------------------------------
# report bytes pinned on seeded potentials
#
# A homogeneous potential is a sum of disjoint monomials with rational
# coefficients (or star of a degree-2 monomial), turned by a product of
# rational Givens rotations (Pythagorean triples), so that [mu, mu] stays a
# scalar while the coefficients stop being +-1.  The digest covers
# io.hodge_report_to_json and the harmonic bases, which the report JSON
# leaves out.  The digests were recorded before the elimination routines
# took sparse rows.

TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17))


def _rotation(rng, m, turns, support):
    phi = linalg.identity(m)
    for _ in range(turns):
        a, b, c = rng.choice(TRIPLES)
        i = rng.choice(support)
        j = rng.choice([x for x in range(m) if x != i])
        support = sorted(set(support) | {j})
        g = linalg.identity(m)
        g[i][i] = g[j][j] = Fraction(a, c)
        g[i][j], g[j][i] = Fraction(-b, c), Fraction(b, c)
        phi = linalg.mat_mul(phi, g)
    return phi


def _seeded_case(m, kind, sizes, turns, seed):
    rng = random.Random(seed)
    space = odd_space(m)
    ctx = HodgeContext(space)
    if kind == "star":
        pair = sorted(rng.sample(range(m), 2))
        el = star(ctx, Element.monomial(space, pair,
                                        Fraction(rng.choice([1, -2]))))
    else:
        pool = list(range(m))
        rng.shuffle(pool)
        el = Element.zero(space)
        for s in sizes:
            coeff = Fraction(rng.choice([1, -1, 2, -3]),
                             rng.choice([1, 1, 2, 3]))
            el = el + Element.monomial(space, sorted(pool[:s]), coeff)
            pool = pool[s:]
    if turns:
        support = sorted({i for mono in el.terms for i in mono})
        el = map_element(_rotation(rng, m, turns, support), el)
    if kind == "family":
        return ctx, Potential.homotopy_family(space, el)
    return ctx, Potential.single(space, el)


PINNED_REPORTS = [
    (5, "single", [3], 3,
     "08bee6332582d348f6a390aa0b6c3c177f9f8325acc49e95fb78c4e696970509"),
    (5, "star", None, 3,
     "1fb5b26ace801bda01fd71a65bf721a669a8fd509ec304313cc745f2cdd1eb7f"),
    (5, "single", [5], 2,
     "4853daa01fc33501bddf8e434eef0c3978865abdd8a4e8e13c26fa4dd0b1c649"),
    (6, "single", [3, 3], 3,
     "35e5b6c67791d0d5bdd0c43da6054ba5a3b998999fc0609a68283a652e2c5767"),
    (6, "single", [5], 3,
     "f4b3977a822f3243da4f95ad595e1c3f9719567889352e0d2224f51af5329599"),
    (7, "star", None, 2,
     "2cef3f0484d2f28c85d7d7f86dace48b089d07be9afb654aee4c2a141944d153"),
    (7, "single", [3, 3], 2,
     "857b50df0a004f65b1881f7e114917bc2ba7640e277c0cde78eb41448db774a7"),
    (8, "single", [3], 2,
     "0b3602cba38ce4d70cd5ad0c0a1638833767a9e13d49cfe09cf8ce0b4fa97fc0"),
    (8, "single", [3, 3], 0,
     "6161a71661abe83f1426357debafd87531e9798fe0620bdb951a4bf3d690dae5"),
    (8, "single", [5], 1,
     "85d7761e6d695c1a0078817e0cf6fd1bf655d6cc7dfea52f47d95aba011509e9"),
    (5, "family", [1, 3], 3,
     "ffa46823549afc0c195b84b355d886ef49b5cf10ebc398a22015d01f2acfe21c"),
    (6, "family", [1, 3], 2,
     "261b25fbe45944c360c080859573ce97737c333e45ae487281c60a80de700ce1"),
    (6, "family", [1, 5], 1,
     "532aeaa943c6d2963091d3c128aada23def447d947e9a1753a546ca573f2ae52"),
    (7, "family", [3, 1], 2,
     "1c27138aa2e24334d1b6bf0ff9ab04493ce1680b80d22b82f33ca547f4e83b88"),
    (7, "family", [1, 5], 0,
     "08108cb9e2c7d8b2b7b160099a6d5a2e2df76575852b766e7d3ffa4718df5c22"),
]


@pytest.mark.parametrize("index", range(len(PINNED_REPORTS)))
def test_report_bytes_pinned(index):
    m, kind, sizes, turns, digest = PINNED_REPORTS[index]
    ctx, mu = _seeded_case(m, kind, sizes, turns, 100 + index)
    rep = hodge_decomposition(ctx, mu)
    assert rep.direct_sum_ok and rep.kernel_intersection_ok
    harmonic = {str(p): [io.element_to_json(h) for h in elems]
                for p, elems in sorted(rep.harmonic.items())}
    payload = io.dumps({"report": io.hodge_report_to_json(rep),
                        "harmonic": harmonic})
    assert hashlib.sha256(payload.encode()).hexdigest() == digest


@pytest.mark.parametrize("index", range(len(PINNED_REPORTS)))
def test_delta_ranks_read_from_d_match_delta_ranked_directly(index):
    m, kind, sizes, turns, _ = PINNED_REPORTS[index]
    ctx, mu = _seeded_case(m, kind, sizes, turns, 100 + index)
    rep = hodge_decomposition(ctx, mu)
    delta = codifferential(ctx, differential(ctx, mu))
    by_degree = [linalg.rank([img for x, img in delta.items() if len(x) == p])
                 for p in range(m + 1)]
    assert [row.rank_delta for row in rep.degrees] == by_degree
    assert rep.rank_delta == linalg.rank(list(delta.values()))


# ---------------------------------------------------------------------------
# delta == eps d^T against the Laplacian route
#
# hodge_by_laplacian certifies each sector through the kernels of L, the
# kernel of d and delta stacked, and the direct-sum rank.  The report read
# off the ranks of d must give the same JSON bytes, the same degree rows
# and the same harmonic bases.


def _random_hodge_cases(count, seed):
    """(m, kind, sizes, turns, seed) for _seeded_case, with m <= 10.

    Single layers of degree 3, 5 or 7, stars of a degree-2 monomial (odd
    m), and families of two or three layers with distinct degrees (g != 0);
    turns > 0 rotates the support so that it is connected.
    """
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        kind = rng.choice(["single", "star", "family"])
        m = rng.randint(4 if kind == "family" else 3, 10)
        sizes = None
        if kind == "single":
            s = rng.choice([s for s in (3, 5, 7) if s <= m])
            sizes = [s] * rng.randint(1, min(3, m // s))
        elif kind == "family":
            sizes = rng.sample([1, 3, 5, 7], 2)
            while sum(sizes) > m:
                sizes = rng.sample([1, 3, 5, 7], 2)
            if m >= 9 and rng.random() < 0.5:
                sizes = [1, 3, 5]
        else:
            m = max(5, m - 1 + m % 2)
        cases.append((m, kind, sizes, rng.randint(0, 3), rng.randrange(10**6)))
    return cases


ORACLE_CASES = [case[:4] + (100 + i,) for i, case in enumerate(PINNED_REPORTS)]
ORACLE_CASES += _random_hodge_cases(40, 26)


def _matches_laplacian_route(ctx, mu):
    got = hodge_decomposition(ctx, mu)
    want = hodge_by_laplacian(ctx, mu)
    assert want.direct_sum_ok and want.kernel_intersection_ok
    assert io.dumps(io.hodge_report_to_json(got)) == \
        io.dumps(io.hodge_report_to_json(want))
    assert got.degrees == want.degrees
    assert got.harmonic == want.harmonic
    return got


def _case_id(case):
    m, kind, sizes, turns, seed = case
    return "-".join([f"m{m}", kind, *map(str, sizes or []), f"t{turns}",
                     f"seed{seed}"])


@pytest.mark.parametrize("case", ORACLE_CASES, ids=_case_id)
def test_report_matches_the_laplacian_oracle(case):
    _matches_laplacian_route(*_seeded_case(*case))


@pytest.mark.parametrize("m", [3, 6])
def test_zero_potential_matches_the_laplacian_oracle(m):
    ctx, mu = _case(m, "zero")
    assert differential(ctx, mu) == {}
    rep = _matches_laplacian_route(ctx, mu)
    assert rep.ker_laplacian == 2 ** m


@pytest.mark.parametrize("m,ker", MIXED_KERNEL_CASES)
def test_mixed_kernels_match_the_laplacian_oracle(m, ker):
    space = odd_space(m)
    mu = Potential.homotopy_family(
        space, mono(space, 1, 2, 3) + mono(space, *range(4, m + 1)))
    rep = _matches_laplacian_route(HodgeContext(space), mu)
    assert rep.ker_laplacian == ker and not rep.homogeneous


def _counting(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def counted(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("first", ["harmonic", "kernels"])
def test_no_laplacian_and_no_kernel_until_the_bases_are_read(monkeypatch,
                                                             first):
    calls = []
    _counting(monkeypatch, hodge, "laplacian", calls)
    _counting(monkeypatch, linalg, "nullspace", calls)
    m, kind, sizes, turns, _ = PINNED_REPORTS[10]   # a family, g = 2
    rep = hodge_decomposition(*_seeded_case(m, kind, sizes, turns, 110))
    assert not rep.homogeneous and rep.harmonic == {} and calls == []
    m, kind, sizes, turns, _ = PINNED_REPORTS[3]    # two rotated cubics
    rep = hodge_decomposition(*_seeded_case(m, kind, sizes, turns, 103))
    assert calls == []
    getattr(rep, first)
    assert calls == ["nullspace"] * (m + 1)
    assert sum(map(len, rep.harmonic.values())) == rep.ker_laplacian
    assert calls == ["nullspace"] * (m + 1)


class _CountingOperator(dict):
    """An operator that counts the passes made over its items."""
    passes = 0

    def items(self):
        self.passes += 1
        return super().items()


@pytest.mark.parametrize("index", [3, 7, 9])
def test_rank_d_groups_the_sources_of_d_once(monkeypatch, index):
    # the adjoint check reads d twice (codifferential and transpose_op)
    # and the ranks read it once more, however many degrees they rank
    m, kind, sizes, turns, _ = PINNED_REPORTS[index]
    ctx, mu = _seeded_case(m, kind, sizes, turns, 100 + index)
    real = hodge.differential
    seen = []

    def counted(ctx, mu):
        seen.append(_CountingOperator(real(ctx, mu)))
        return seen[-1]

    monkeypatch.setattr(hodge, "differential", counted)
    rep = hodge_decomposition(ctx, mu)
    assert rep.homogeneous and rep.direct_sum_ok
    assert seen[0].passes == 3


SPACE5_DOC = {"schema": "nary/1", "dim": 5, "parity": ["odd"] * 5,
              "gram": [["1" if i == j else "0" for j in range(5)]
                       for i in range(5)]}
CUBIC345_DOC = {"schema": "nary/1", "arity": 2,
                "element": [{"monomial": [3, 4, 5], "coeff": "-1"}]}


def _refused_by_the_certificate(monkeypatch, tmp_path, capsys, forged):
    """With codifferential replaced by forged, the report of the cubic
    e3e4e5 at m = 5 has both flags false, and ``naryalg hodge`` exits 1."""
    monkeypatch.setattr(hodge, "codifferential", forged)
    ctx, mu = _case(5, "cubic")
    rep = hodge_decomposition(ctx, mu)
    assert not rep.direct_sum_ok and not rep.kernel_intersection_ok
    paths = []
    for name, doc in (("space", SPACE5_DOC), ("mu", CUBIC345_DOC)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(doc))
    code = cli.main(["hodge", "--space", str(paths[0]),
                     "--potential", str(paths[1])])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["direct_sum_ok"] is False
    assert out["kernel_intersection_ok"] is False


def test_a_forged_sign_of_delta_fails_the_certificate(monkeypatch, tmp_path,
                                                      capsys):
    real = hodge.codifferential

    def forged(ctx, d):
        # delta with one entry negated
        delta = real(ctx, d)
        img = delta[min(delta)]
        img[min(img)] *= -1
        return delta

    _refused_by_the_certificate(monkeypatch, tmp_path, capsys, forged)


def test_square_zero_checks_raise(monkeypatch, tmp_path, capsys):
    # two cubic terms sharing e5: [mu, mu] has a degree-4 part
    bad = mono(V5, 3, 4, 5) + mono(V5, 1, 2, 5)
    with pytest.raises(NotLInfinity):
        differential(CTX5, Potential.single(V5, bad))
    # delta of that bad d does not square to zero; no square of delta is
    # taken, and the adjoint check refuses it
    d = {}
    for v in all_monomials(V5):
        (src,) = v.terms
        img = poisson_bracket(bad, v).terms
        if img:
            d[src] = img
    delta = codifferential(CTX5, d)
    assert linalg.compose_ops(delta, delta)
    _refused_by_the_certificate(monkeypatch, tmp_path, capsys,
                                lambda ctx, d: delta)
