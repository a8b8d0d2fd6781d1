"""Combinatorial Hodge theory on a pure odd orthonormal space.

With an orthonormal basis of a pure odd V and the top form L = e_1...e_m,
the degree-reversing star operator is *(x_1...x_p) = [x_1,[...[x_p, L]]];
on monomials it acts by a signed complement.  The pairing
<v,w> L = (-1)^{p(p-1)/2} v * (star w) is symmetric positive definite with
<e_I, e_J> = delta_IJ.  A potential mu with square-zero differential
d = [mu, -] then yields a codifferential delta (conjugate of d by star,
with a per-layer sign), a Laplacian, and an exact three-way decomposition

    S*V = Im(d) (+) Im(delta) (+) Ker(Laplacian),

with Ker(Laplacian) = Ker(d) n Ker(delta) isomorphic to the cohomology of d.

The operators are sparse block maps: one block per source degree p and
target degree q, mapping each source monomial to its image.
``differential`` brackets each layer of mu once with each monomial it
reaches, one that shares exactly one index with some term of the layer;
every other monomial has a zero image.  The layer of degree s fills the
blocks (p, p + s - 2).  Star is a signed permutation of monomials, so
``codifferential(ctx, d)`` re-indexes each block of d through
``star_monomial``, with the sign (-1)^{k(1-k)/2} read from the block's
shift k, and takes no bracket.  The Laplacian and both square-zero
checks are sparse block products.

The decomposition is certified sector by sector.  A layer of degree s has
shift k = s - 2, and g is the gcd of the differences of the shifts.  L
keeps each class of degrees mod g (each degree when g = 0), and d maps the
class of p onto that of p + k.  On such a sector S, Im d and Im delta are
the images of the sectors that d and delta map onto S, and delta on a
sector T has the rank of d on star T.  Every total is a sum over sectors;
the per-degree images, cohomology and harmonic bases are filled in when
g = 0.

Everything here is exact rational arithmetic.  The blocks go to ``linalg``
as they are, with no dense matrix in between: the columns of an operator
on a set of degrees are the images of their monomials, sparse rows keyed
by monomial, and its rows are their transpose.  ``linalg.rank`` checks an
exact certificate of every rank it returns.  ``linalg.nullspace`` returns
a basis that is a function of the kernel alone, so Ker L = Ker d n Ker
delta is checked on each sector by comparing the two bases for equality.
The direct sum is checked by ranking the columns of d and delta landing in
the sector together with the kernel rows.  The harmonic elements are read
from the canonical sparse kernel rows, keyed by monomial, when the
report's ``harmonic`` is first read.
"""

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd

from . import linalg
from .derived import check_l_infinity
from .errors import NotHodgeContext, NotLInfinity
from .poisson import Element, multiply, poisson_bracket
from .superspace import Orientation

ZERO = Fraction(0)
ONE = Fraction(1)

MAX_DIM = 14


def require_dim(m):
    """Refuse a dimension above MAX_DIM, as every HodgeContext does."""
    if m > MAX_DIM:
        raise NotHodgeContext(f"dimension {m} above guard {MAX_DIM}")


class HodgeContext:
    """Pure odd space, identity Gram matrix, a choice of orientation."""

    __slots__ = ("space", "orientation", "top", "degree_monomials")

    def __init__(self, space, orientation=None):
        if not space.pure_odd:
            raise NotHodgeContext("star operator needs a pure odd space")
        if space.gram != tuple(tuple(row) for row in linalg.identity(space.dim)):
            raise NotHodgeContext("star operator needs an orthonormal basis "
                                  "(identity Gram matrix)")
        require_dim(space.dim)
        self.space = space
        self.orientation = orientation or Orientation.standard(space.dim)
        full = tuple(range(space.dim))
        self.top = Element(space, {full: Fraction(self.orientation.sign)})
        self.degree_monomials = [
            [tuple(c) for c in combinations(range(space.dim), p)]
            for p in range(space.dim + 1)
        ]

    @property
    def m(self):
        return self.space.dim


def _require_ctx_element(ctx, v):
    if v.space != ctx.space:
        raise NotHodgeContext("element does not live over the context space")


def star_monomial(ctx, mono):
    """(sign, complement) of a single monomial under the star operator.

    The sign is the signature of (i_p,...,i_1, j_1,...,j_{m-p}) as a
    permutation of (1,...,m), times the orientation sign.
    """
    m = ctx.m
    inside = set(mono)
    comp = tuple(i for i in range(m) if i not in inside)
    seq = tuple(reversed(mono)) + comp
    sign = ctx.orientation.sign
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                sign = -sign
    return sign, comp


def star(ctx, v):
    """Linear extension of the star operator."""
    _require_ctx_element(ctx, v)
    acc = {}
    for mono, c in v.terms.items():
        sign, comp = star_monomial(ctx, mono)
        acc[comp] = acc.get(comp, ZERO) + sign * c
    return Element(ctx.space, acc)


def inner_product(ctx, v, w):
    """<v, w>: zero across degrees, computed through v * (star w)."""
    _require_ctx_element(ctx, v)
    _require_ctx_element(ctx, w)
    total = ZERO
    full = tuple(range(ctx.m))
    top_coeff = ctx.top.terms.get(full, ONE)
    for p in set(v.degrees()) & set(w.degrees()):
        prod = multiply(v.homogeneous_part(p), star(ctx, w.homogeneous_part(p)))
        c = prod.terms.get(full, ZERO)
        sign = -1 if (p * (p - 1) // 2) % 2 else 1
        total += sign * c / top_coeff
    return total


# ---------------------------------------------------------------------------
# operators on S*V as sparse block maps
#
# An operator is a dict {(p, q): block}, one block for each source degree p
# and target degree q that it connects.  A block maps a source monomial of
# degree p to its image, a dict {target monomial: coefficient} without
# zeros.  Monomials with a zero image and empty blocks are left out, so the
# zero operator is {}.


def op_apply(op, v):
    """The image of the element v under the block map op."""
    acc = {}
    for block in op.values():
        for mono, c in v.terms.items():
            for out, x in block.get(mono, {}).items():
                acc[out] = acc.get(out, ZERO) + c * x
    return Element(v.space, acc)


def _product_sum(pairs):
    """Block map of x -> sum of f(g(x)) over the pairs (f, g)."""
    out = {}
    for f, g in pairs:
        for (p, q), g_block in g.items():
            for (q2, r), f_block in f.items():
                if q2 != q:
                    continue
                block = out.setdefault((p, r), {})
                for src, img in g_block.items():
                    acc = block.setdefault(src, {})
                    for mid, c in img.items():
                        for dst, x in f_block.get(mid, {}).items():
                            acc[dst] = acc.get(dst, ZERO) + c * x
    out = {key: {src: {dst: c for dst, c in img.items() if c}
                 for src, img in block.items()} for key, block in out.items()}
    return {key: {src: img for src, img in block.items() if img}
            for key, block in out.items() if any(block.values())}


def _columns(op, degrees):
    """The images of the source monomials of op whose degree is in degrees.

    These are the operator's columns, as sparse rows keyed by target
    monomial; a monomial's images in several target degrees are merged.
    """
    cols = {}
    for (p, _), block in op.items():
        if p in degrees:
            for src, img in block.items():
                cols.setdefault(src, {}).update(img)
    return cols


def _rows(cols):
    """The rows of an operator given by its columns, keyed by source."""
    rows = {}
    for src, img in cols.items():
        for dst, c in img.items():
            rows.setdefault(dst, {})[src] = c
    return list(rows.values())


# ---------------------------------------------------------------------------
# differential, codifferential, Laplacian


def _layer_shift(deg):
    # a layer of degree s raises polynomial degree by s - 2 under [mu_s, -]
    return deg - 2


def _reached(layer, monos):
    """The monomials x among monos with |u n x| = 1 for some term u of layer.

    On a pure odd orthonormal space [e_u, e_x] contracts one index shared
    by u and x and leaves any other shared index on both sides, where it
    squares to zero; so the layer brackets every other monomial to zero.
    """
    terms = [set(u) for u in layer.terms]
    return [x for x in monos if any(len(u.intersection(x)) == 1
                                    for u in terms)]


def differential(ctx, mu):
    """The operator d = [mu, -], verified to square to zero.

    Each layer is bracketed once with each monomial it reaches (``_reached``);
    the others have a zero image, which a block leaves out.  A layer of
    degree s maps degree p to degree p + s - 2, so each block belongs to one
    layer.
    """
    _require_ctx_element(ctx, mu.element)
    d = {}
    for deg in mu.element.degrees():
        layer = mu.element.homogeneous_part(deg)
        k = _layer_shift(deg)
        for p, monos in enumerate(ctx.degree_monomials):
            block = {}
            for mono in _reached(layer, monos):
                img = poisson_bracket(layer, Element(ctx.space, {mono: ONE}))
                if img.terms:
                    block[mono] = img.terms
            if block:
                d[(p, p + k)] = block
    if _product_sum([(d, d)]):
        raise NotLInfinity("d = [mu,-] does not square to zero")
    return d


def codifferential(ctx, d):
    """delta = sum over layers of (-1)^{k(1-k)/2} star d_k star, k = deg - 2.

    Star is a signed permutation of monomials, star(x) = sigma(x) x' with x'
    the complement of x.  So an entry c of d from u to y becomes the entry
    (-1)^{k(1-k)/2} sigma(u') sigma(y) c of delta from u' to y', and the
    block (p, p + k) of d, whose shift k names its layer, becomes the block
    (m - p, m - p - k) of delta.  No bracket is taken.
    """
    star_of = functools.cache(lambda mono: star_monomial(ctx, mono))
    delta = {}
    for (p, q), block in d.items():
        k = q - p
        sign = -1 if (k * (1 - k) // 2) % 2 else 1
        out = delta[(ctx.m - p, ctx.m - q)] = {}
        for u, img in block.items():
            u_comp = star_of(u)[1]
            scale = sign * star_of(u_comp)[0]
            out[u_comp] = {}
            for y, c in img.items():
                sigma, y_comp = star_of(y)
                out[u_comp][y_comp] = scale * sigma * c
    if _product_sum([(delta, delta)]):
        raise NotLInfinity("delta does not square to zero")
    return delta


def laplacian(ctx, d, delta):
    """L = delta d + d delta."""
    return _product_sum([(delta, d), (d, delta)])


def _validate_homotopy(mu):
    if not mu.is_odd():
        raise NotLInfinity("decomposition needs an odd potential")
    if not check_l_infinity(mu).passed:
        raise NotLInfinity("[mu, mu] is not a scalar")


@dataclass
class HodgeDegreeRow:
    p: int
    dim: int
    rank_d: int          # rank of d restricted to degree p
    rank_delta: int      # rank of delta restricted to degree p
    im_d: int            # dimension of Im(d) landing in degree p
    im_delta: int        # dimension of Im(delta) landing in degree p
    ker_laplacian: int
    cohomology: int = None


@dataclass
class HodgeReport:
    m: int
    degrees: list
    total_dim: int
    rank_d: int
    rank_delta: int
    ker_laplacian: int
    direct_sum_ok: bool
    kernel_intersection_ok: bool   # Ker L == Ker d n Ker delta
    cohomology_total: int
    homogeneous: bool = True
    space: object = field(default=None, repr=False)
    # degree -> canonical sparse rows of Ker L on that degree
    kernels: dict = field(default_factory=dict, repr=False)

    @functools.cached_property
    def harmonic(self):
        """Degree -> the canonical basis of Ker L there, as elements."""
        return {p: [Element(self.space, vec) for vec in linalg.row_space(ker)]
                for p, ker in self.kernels.items()}


def hodge_decomposition(ctx, mu):
    """Exact decomposition certificate for a homotopy potential.

    Each sector, a class of degrees mod g (a single degree when g = 0),
    is certified on its own; see the module docstring.
    """
    _validate_homotopy(mu)
    degrees = mu.element.degrees()
    d = differential(ctx, mu)
    delta = codifferential(ctx, d)
    lap = laplacian(ctx, d, delta)
    m = ctx.m
    monos = ctx.degree_monomials
    shifts = [_layer_shift(s) for s in degrees] or [0]
    k = shifts[0]
    g = gcd(*(s - k for s in shifts))

    def sector(p):
        return p % g if g else p

    sectors = {}
    for p in range(m + 1):
        sectors[sector(p)] = sectors.get(sector(p), ()) + (p,)

    def basis(ps):
        return sorted(mono for p in ps for mono in monos[p])

    @functools.cache
    def rank_d(ps):
        """Rank of d on the degrees ps."""
        return linalg.rank(_columns(d, ps).values())

    @functools.cache
    def kernel(ps):
        """Canonical basis of Ker L on the degrees ps."""
        return linalg.nullspace(_rows(_columns(lap, ps)), basis(ps))

    images = {}
    direct_ok = kernels_match = True
    for key, ps in sectors.items():
        cols = basis(ps)
        dim = len(cols)
        ker = kernel(ps)
        # Ker L == Ker d n Ker delta on the sector; both bases are
        # canonical, so they are equal exactly when the kernels are
        ker_both = linalg.nullspace(
            _rows(_columns(d, ps)) + _rows(_columns(delta, ps)), cols)
        kernels_match = kernels_match and ker == ker_both
        # Im d here is the image of the sector that d maps here, and Im
        # delta that of the sector that delta maps here.  delta = sum_k s_k
        # star d_k star with s_k = (-1)^{k(1-k)/2}; on the odd shifts of an
        # odd potential s_k = -i i^k, and sum_k i^k d_k is d conjugated by
        # the map i^p on degree p, diagonal per degree.  So delta on T has
        # the rank of d on star T, over C and hence over Q.
        from_d = sectors.get(sector(ps[0] - k), ())
        from_delta = sectors.get(sector(ps[0] + k), ())
        im_d = rank_d(from_d) if from_d else 0
        im_delta = rank_d(tuple(sorted(m - p for p in from_delta))) \
            if from_delta else 0
        images[key] = im_d, im_delta
        # three-way independence: the images and the kernel rows, stacked,
        # span the sector, and their dimensions add up to it
        pieces = list(_columns(d, from_d).values())
        pieces += _columns(delta, from_delta).values()
        pieces += ker
        if im_d + im_delta + len(ker) != dim or \
                (pieces and linalg.rank(pieces) != dim):
            direct_ok = False
        if (dim - rank_d(ps)) - im_d != len(ker):
            direct_ok = False

    rows = []
    for p in range(m + 1):
        dim, rank_d_p = len(monos[p]), rank_d((p,))
        im_d, im_delta = (None, None) if g else images[p]
        rows.append(HodgeDegreeRow(
            p, dim, rank_d_p, rank_d((m - p,)), im_d, im_delta,
            len(kernel((p,))), None if g else (dim - rank_d_p) - im_d))
    total = sum(len(x) for x in monos)
    rank_total = sum(rank_d(ps) for ps in sectors.values())
    return HodgeReport(
        m=m,
        degrees=rows,
        total_dim=total,
        rank_d=rank_total,
        rank_delta=rank_total,
        ker_laplacian=sum(len(kernel(ps)) for ps in sectors.values()),
        direct_sum_ok=direct_ok,
        kernel_intersection_ok=kernels_match,
        cohomology_total=total - 2 * rank_total,
        homogeneous=not g,
        space=ctx.space,
        kernels={} if g else {p: kernel((p,)) for p in range(m + 1)},
    )
