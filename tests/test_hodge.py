"""Star operator, inner product, adjointness, and the decomposition."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest

from naryalg import hodge, io, linalg
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
    op_apply,
    star,
    star_monomial,
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
    # so the matrix of star from degree p to degree m - p is a signed
    # permutation matrix, and invertible
    for m in (2, 3, 4, 5, 6):
        ctx = HodgeContext(odd_space(m))
        for p in range(m + 1):
            images = [star_monomial(ctx, mono)
                      for mono in ctx.degree_monomials[p]]
            assert all(sign in (1, -1) for sign, _ in images)
            assert sorted(comp for _, comp in images) == \
                ctx.degree_monomials[m - p]


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


def _reached_count(ctx, mu):
    """Sum over the layers of #{x : some term u has |u n x| = 1}."""
    count = 0
    for deg in mu.element.degrees():
        terms = mu.element.homogeneous_part(deg).terms
        count += sum(
            1 for v in all_monomials(ctx.space)
            if any(len(set(u) & set(next(iter(v.terms)))) == 1
                   for u in terms))
    return count


# star(e1e2) at m=9 is one monomial u of degree 7: x reaches it through one
# of the 7 factors of u and any subset of {e1, e2}, 28 of the 512 monomials
PINNED_BRACKETS = {(9, "star12"): 28}


@pytest.mark.parametrize("m,name", [(5, "star12"), (6, "family13"),
                                    (5, "zero"), (9, "star12")])
def test_one_bracket_per_layer_and_monomial(monkeypatch, m, name):
    ctx, mu = _case(m, name)
    reached = _reached_count(ctx, mu)
    assert reached == PINNED_BRACKETS.get((m, name), reached)
    calls = _counting_brackets(monkeypatch)
    d = differential(ctx, mu)
    assert len(calls) == reached
    codifferential(ctx, d)
    assert len(calls) == reached   # delta takes no bracket
    del calls[:]
    hodge_decomposition(ctx, mu)
    # plus the one [mu, mu] of the homotopy check
    assert len(calls) == reached + 1


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
        el = map_element(space, _rotation(rng, m, turns, support), el)
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
    by_degree = [linalg.rank(hodge._columns(delta, (p,)).values())
                 for p in range(m + 1)]
    assert [row.rank_delta for row in rep.degrees] == by_degree
    total = linalg.rank(hodge._columns(delta, range(m + 1)).values())
    assert rep.rank_delta == total
