"""Combinatorial Hodge theory on a pure odd orthonormal space.

With an orthonormal basis of a pure odd V and the top form L = e_1...e_m,
the degree-reversing star operator is *(x_1...x_p) = [x_1,[...[x_p, L]]];
on monomials it acts by a signed complement, and ** = (-1)^{m(m-1)/2}.
The pairing <v,w> L = (-1)^{p(p-1)/2} v * (star w) is symmetric positive
definite with <e_I, e_J> = delta_IJ.  A potential mu with square-zero
differential d = [mu, -] then yields a codifferential delta (conjugate of
d by star, with a per-layer sign), a Laplacian L = delta d + d delta, and
an exact three-way decomposition

    S*V = Im(d) (+) Im(delta) (+) Ker(Laplacian),

with Ker(Laplacian) = Ker(d) n Ker(delta) isomorphic to the cohomology of d.

The operators are ``linalg`` operators keyed by monomial (the format is
stated once, in the ``linalg`` docstring): each source monomial maps to
its image, and ``linalg`` applies, composes and transposes them.
``differential`` builds d = [mu, -] by the Leibniz rule from its values on
the generators.  The bracket is even, so [a, v w] = [a, v] w +
(-1)^{|a||v|} v [a, w], and [mu, e_i] = -(-1)^{|mu|} mu_i with mu_i =
[e_i, mu], level 1 of ``derived.contractions``.  For x = x_0 ... x_{p-1}
(j counted from 0), [mu, -] passes e_{x_0} ... e_{x_{j-1}} with the sign
(-1)^{|mu| j}, and mu_{x_j}, of parity |mu| + 1, moves back past them
with (-1)^{(|mu|+1) j}; together (-1)^j, so

    [mu, e_x] = -(-1)^{|mu|} sum_j (-1)^j mu_{x_j} e_{x minus x_j}:

the sign is (-1)^j on an odd layer and -(-1)^j on an even one.  A term
e_w of mu_{x_j} times e_r, r = x minus x_j, is zero when w and r share an
index, and otherwise (-1)^n e_{w u r}, where n counts the pairs a in w,
b in r with a > b.  The layer of degree s maps degree p to p + s - 2.
Star is a signed permutation of monomials, so ``codifferential(ctx, d)``
re-indexes each entry of d through ``star_monomial``, with the sign
(-1)^{k(1-k)/2} read from the entry's shift k, the degree of its target
less that of its source; ``star_monomial`` reads its sign in closed form,
and ``HodgeContext`` reads ``space.orthonormal`` from ``superspace``.  No
bracket is taken in either.

delta is the adjoint of d up to one sign.  Let d_k = [mu_s, -] be the
layer of degree s = k + 2, so delta = sum_k s_k * d_k * with s_k =
(-1)^{k(1-k)/2}, and write I(z) for the coefficient of L in z.

  (a) I([mu_s, z]) = 0: the bracket of two monomials is zero unless they
      share exactly one index, which it removes, so it never reaches L.
  (b) mu_s is odd, so [mu_s, -] is an odd derivation:
      [mu_s, v w] = [mu_s, v] w + (-1)^p v [mu_s, w] for v of degree p.

So I((d_k v) w) = -(-1)^p I(v d_k w).  Take x of degree p and y of degree
q = p + k.  Then d_k * y = * z with z = (-1)^{m(m-1)/2} * d_k * y =
(-1)^{m(m-1)/2} s_k delta_k y, of degree p, and

    <d_k x, y> = (-1)^{q(q-1)/2} I((d_k x) * y)
               = -(-1)^{q(q-1)/2 + p} I(x * z)
               = -(-1)^{q(q-1)/2 + p + p(p-1)/2 + m(m-1)/2} s_k <x, delta_k y>.

Here q(q-1)/2 + p(p-1)/2 = p(p-1) + pk + k(k-1)/2, and k is odd, so the
exponent reduces to k(k-1)/2 + m(m-1)/2, and (-1)^{k(k-1)/2} s_k = 1.
Summed over the layers, <d x, y> = eps <x, delta y> for all x and y, with
eps = -(-1)^{m(m-1)/2}: -1 for m = 0, 1 (mod 4) and +1 for m = 2, 3.  The
monomials are orthonormal, so delta = eps d^T entrywise: an entry c of d
from u to y is the entry eps c of delta from y to u.

The Hodge lemma then holds over Q (Eckmann 1944; Warner, ch. 6).  L =
eps (d^T d + d d^T), so <L x, x> = eps (|dx|^2 + |d^T x|^2), a sum of
rational squares: L x = 0 exactly when dx = 0 and d^T x = 0, and Ker L =
Ker d n Ker delta.  With d^2 = 0, Im d, Im d^T and Ker d n Ker d^T are
pairwise orthogonal and span S*V, and Ker d = Im d (+) Ker L.

So every count is a rank of d.  A layer of degree s has shift k = s - 2,
and g is the gcd of the differences of the shifts.  L keeps each class of
degrees mod g (each degree when g = 0), and d maps the class of p into
that of p + k.  On such a sector S, Im d is the image of the sector T
that d maps into S, Im delta = Im d^T has the rank of d on S, and Ker L
has dimension dim S - rank d(S) - rank d(T); in all, total - 2 rank d.
delta on degree p has the rank of d on degree m - p: on the odd shifts of
an odd potential s_k = -i i^k, and sum_k i^k d_k is d conjugated by the
map i^p on degree p, so delta on p is d on star p up to invertible maps,
over C and hence over Q.  Per degree p, when g != 0, Ker L is the common
kernel on degree p of the rows of d out of p and the columns of d into p,
cut to degree p.

``hodge_decomposition`` rests on two exact checks: d^2 = 0 in
``differential``, one ``linalg.compose_ops`` and the certificate of the
Leibniz construction, and delta == eps d^T entry by entry, against
``linalg.transpose_op``.  delta^2 = (eps d^T)^2 = (d^2)^T then vanishes
too, and is not computed.  The adjoint check is the certificate that
``direct_sum_ok`` and ``kernel_intersection_ok`` report; no Laplacian is
built.

Everything here is exact rational arithmetic.  d goes to ``linalg`` as
it is, with no dense matrix in between: its columns on a set of degrees
are the images of their monomials, and its rows are the images of its
transpose.  ``linalg.rank`` checks an exact certificate of every rank it
returns.  The harmonic elements (g = 0) are the canonical
``linalg.nullspace`` rows of Ker d n Ker d^T on each degree, taken when
the report's ``kernels`` or ``harmonic`` is first read.
"""

import functools
from bisect import bisect
from dataclasses import dataclass, field
from itertools import chain, combinations
from math import comb, gcd

from . import linalg
from .derived import check_l_infinity, contractions
from .errors import NotHodgeContext, NotLInfinity
from .linalg import ONE, ZERO
from .poisson import Element, multiply
from .superspace import Orientation

MAX_DIM = 14


def require_dim(m):
    """Refuse a dimension above MAX_DIM, as every HodgeContext does."""
    if m > MAX_DIM:
        raise NotHodgeContext(f"dimension {m} above guard {MAX_DIM}")


class HodgeContext:
    """Pure odd space, identity Gram matrix, a choice of orientation."""

    __slots__ = ("space", "orientation", "top")

    def __init__(self, space, orientation=None):
        if not space.pure_odd:
            raise NotHodgeContext("star operator needs a pure odd space")
        if not space.orthonormal:
            raise NotHodgeContext("star operator needs an orthonormal basis "
                                  "(identity Gram matrix)")
        require_dim(space.dim)
        if orientation is not None and len(orientation.order) != space.dim:
            raise NotHodgeContext(f"orientation of {len(orientation.order)} "
                                  f"elements for dimension {space.dim}")
        self.space = space
        self.orientation = orientation or Orientation.standard(space.dim)
        full = tuple(range(space.dim))
        self.top = Element(space, {full: self.orientation.sign * ONE})

    @property
    def m(self):
        return self.space.dim


def _require_ctx_element(ctx, v):
    if v.space != ctx.space:
        raise NotHodgeContext("element does not live over the context space")


def star_monomial(ctx, mono):
    """(sign, complement) of a single monomial under the star operator.

    The sign is the orientation sign times the signature of the word
    (x_p, ..., x_1, y_1, ..., y_{m-p}), where x = mono and y, its
    complement, increase.  With 0-based indices that signature is
    (-1)^{x_1 + ... + x_p}.  The reversed x has p(p-1)/2 inversions and y
    none.  Each x_i has x_i indices below it, i - 1 of them in x, so the
    pairs across x and y add sum_i (x_i - (i - 1)) = sum x - p(p-1)/2,
    and the inversions total sum x.
    """
    inside = set(mono)
    comp = tuple(i for i in range(ctx.m) if i not in inside)
    return ctx.orientation.sign * (-1) ** sum(mono), comp


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
# differential, codifferential, Laplacian


def differential(ctx, mu):
    """The operator d = [mu, -] by the Leibniz rule, verified to square to
    zero.

    mu_i = [e_i, mu] is read once from ``derived.contractions``.  For each
    monomial x and each factor x_j, every term w of mu_{x_j} that misses x
    is multiplied into the rest r of x: the merged word, with the sign
    (-1)^n of the n pairs a in w, b in r with a > b, times (-1)^j, and one
    more -1 on an even layer (see the module docstring).  No bracket is
    taken.
    """
    _require_ctx_element(ctx, mu.element)
    mu_at = {i: terms for (i,), terms in contractions(mu, 1).items()}
    m = ctx.m
    d = {}
    for x in chain.from_iterable(combinations(range(m), p)
                                 for p in range(m + 1)):
        img = {}
        inside = set(x)
        for j, i in enumerate(x):
            rest = x[:j] + x[j + 1:]
            for w, c in mu_at.get(i, {}).items():
                # w lacks i, so it meets rest exactly where it meets x
                if inside.isdisjoint(w):
                    out = tuple(sorted(w + rest))
                    # (-1)^j, the merge sign, and -1 on an even layer,
                    # whose terms w have odd length
                    n = j + len(w) + sum(len(w) - bisect(w, b) for b in rest)
                    img[out] = img.get(out, ZERO) + (-c if n % 2 else c)
        img = {out: c for out, c in img.items() if c}
        if img:
            d[x] = img
    if linalg.compose_ops(d, d):
        raise NotLInfinity("d = [mu,-] does not square to zero")
    return d


def codifferential(ctx, d):
    """delta = sum over layers of (-1)^{k(1-k)/2} star d_k star, k = deg - 2.

    Star is a signed permutation of monomials, star(x) = sigma(x) x' with x'
    the complement of x.  So an entry c of d from u to y, whose shift k =
    len(y) - len(u) names its layer, becomes the entry
    (-1)^{k(1-k)/2} sigma(u') sigma(y) c of delta from u' to y'.  No
    bracket is taken.
    """
    star_of = functools.cache(lambda mono: star_monomial(ctx, mono))
    delta = {}
    for u, img in d.items():
        u_comp = star_of(u)[1]
        sigma_u = star_of(u_comp)[0]
        out = delta[u_comp] = {}
        for y, c in img.items():
            k = len(y) - len(u)
            sigma, y_comp = star_of(y)
            scale = -sigma_u if (k * (1 - k) // 2) % 2 else sigma_u
            out[y_comp] = scale * sigma * c
    return delta


def laplacian(ctx, d, delta):
    """L = delta d + d delta, the sum of two ``linalg.compose_ops``."""
    lap = linalg.compose_ops(delta, d)
    for src, img in linalg.compose_ops(d, delta).items():
        acc = lap.pop(src, {})
        for dst, c in img.items():
            acc[dst] = acc.get(dst, ZERO) + c
        acc = {dst: c for dst, c in acc.items() if c}
        if acc:
            lap[src] = acc
    return lap


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
    direct_sum_ok: bool            # both flags carry delta == eps d^T,
    kernel_intersection_ok: bool   # from which the Hodge lemma follows
    cohomology_total: int
    homogeneous: bool = True
    space: object = field(default=None, repr=False)
    d: dict = field(default_factory=dict, repr=False)

    @functools.cached_property
    def kernels(self):
        """Degree -> canonical sparse rows of Ker d n Ker d^T there, which
        is Ker L there; {} unless the report is homogeneous (g = 0)."""
        if not self.homogeneous:
            return {}
        return {p: linalg.nullspace(_harmonic_rows(self.d, p),
                                    list(combinations(range(self.m), p)))
                for p in range(self.m + 1)}

    @functools.cached_property
    def harmonic(self):
        """Degree -> the canonical basis of Ker L there, as elements."""
        return {p: [Element(self.space, vec) for vec in linalg.row_space(ker)]
                for p, ker in self.kernels.items()}


def _harmonic_rows(d, p):
    """Rows whose common kernel on degree p is Ker d n Ker d^T there.

    These are the rows of d out of p, the images of the transpose of d
    cut to the sources of degree p, and the columns of d cut to degree p.
    """
    out_of = {x: img for x, img in d.items() if len(x) == p}
    into = ({y: c for y, c in img.items() if len(y) == p}
            for img in d.values())
    return list(linalg.transpose_op(out_of).values()) + \
        [row for row in into if row]


def hodge_decomposition(ctx, mu):
    """Exact decomposition certificate for a homotopy potential.

    Certified by d^2 = 0 and delta == eps d^T; every count is a rank of
    d.  See the module docstring.
    """
    _validate_homotopy(mu)
    d = differential(ctx, mu)
    m = ctx.m
    eps = 1 if (m * (m - 1) // 2) % 2 else -1
    adjoint = codifferential(ctx, d) == linalg.transpose_op(d, eps)
    shifts = [s - 2 for s in mu.element.degrees()] or [0]
    k = shifts[0]
    g = gcd(*(s - k for s in shifts))

    images = {}  # source degree -> the images of d out of it
    for x, img in d.items():
        images.setdefault(len(x), []).append(img)

    @functools.cache
    def rank_d(ps):
        """Rank of d on the degrees ps."""
        return linalg.rank([img for p in ps for img in images.get(p, ())])

    sectors = {}
    for p in range(m + 1):
        sectors.setdefault(p % g if g else p, []).append(p)
    rank_total = sum(rank_d(tuple(ps)) for ps in sectors.values())
    rows = []
    for p in range(m + 1):
        dim, rank_d_p = comb(m, p), rank_d((p,))
        if g:
            im_d = im_delta = cohomology = None
            ker = dim - linalg.rank(_harmonic_rows(d, p))
        else:
            im_d = rank_d((p - k,)) if 0 <= p - k <= m else 0
            im_delta = rank_d_p
            ker = cohomology = dim - rank_d_p - im_d
        rows.append(HodgeDegreeRow(p, dim, rank_d_p, rank_d((m - p,)), im_d,
                                   im_delta, ker, cohomology))
    total = 2 ** m
    return HodgeReport(
        m=m,
        degrees=rows,
        total_dim=total,
        rank_d=rank_total,
        rank_delta=rank_total,
        ker_laplacian=total - 2 * rank_total,
        direct_sum_ok=adjoint,
        kernel_intersection_ok=adjoint,
        cohomology_total=total - 2 * rank_total,
        homogeneous=not g,
        space=ctx.space,
        d=d,
    )
