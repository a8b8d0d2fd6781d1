"""Combinatorial Hodge theory on a pure odd orthonormal space.

With an orthonormal basis of a pure odd V and the top form L = e_1...e_m,
the degree-reversing star operator is *(x_1...x_p) = [x_1,[...[x_p, L]]];
on monomials it acts by a signed complement, and ** = (-1)^{m(m-1)/2}.
The pairing <v,w> L = (-1)^{p(p-1)/2} v * (star w), v and w of degree p,
is symmetric positive definite with <e_I, e_J> = delta_IJ.  For monomials
x and y of degree p, x * (star y) is zero unless x misses the complement
y' of y, that is unless x = y.  star(x) is the orientation sign times the
signature of (x reversed, x') times e_{x'}, and reversing x moves that
signature by (-1)^{p(p-1)/2} from the signature of (x, x'), which
x * e_{x'} carries; so x * (star x) = (-1)^{p(p-1)/2} L and <x, x> = 1.
So ``inner_product`` is sum_I v_I w_I, and takes no product and no star.

A potential mu with square-zero differential d = [mu, -] then yields a
codifferential delta (conjugate of d by star, with a per-layer sign), a
Laplacian L = delta d + d delta, and an exact three-way decomposition

    S*V = Im(d) (+) Im(delta) (+) Ker(Laplacian),

with Ker(Laplacian) = Ker(d) n Ker(delta) isomorphic to the cohomology of d.

The homotopy condition is the square-zero check of d.  The bracket is
even and mu is odd, so the graded Jacobi identity [a, [b, z]] =
[[a, b], z] + (-1)^{|a||b|} [b, [a, z]] at a = b = mu reads
[mu, [mu, z]] = [[mu, mu], z] - [mu, [mu, z]], that is

    d^2 = 1/2 [[mu, mu], -],

and d^2 = 0 exactly when c = [mu, mu] is central.  A scalar is central.
Conversely, [e_i, -] and sum_j G_ij d/de_j are derivations of the parity
of e_i (G_ij = 0 across parities) that agree on the generators, so they
are equal; with G invertible, a central c then has d c/de_j = 0 for
every j.  Removing one e_j from the monomials of c that contain it is
one to one and scales by a nonzero multiplicity, so no monomial of c
contains any e_j: a nondegenerate form leaves only the scalars central.
So d^2 = 0 exactly when [mu, mu] is a scalar, and ``differential``'s
exact check of d^2 = 0 is the homotopy check; ``hodge_decomposition``
checks only the parity of mu before it, and takes no bracket.

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
So d is read off its entries: a term c e_w of mu_i and a set r of
generators outside w u {i} give the entry (-1)^{j + |w| + n} c from e_x,
x = r u {i}, with j the place of i in x, to e_{w u r} (|w| = s - 1 is
odd exactly on an even layer).  No two entries meet: the target meets x
in r = x minus i, which names i, and the rest of it is w.  So building d
costs sum_i sum_w 2^{m-1-|w|}, its entry count, and not the m 2^{m-1}
factors of all monomials.
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
``differential``, one ``linalg.compose_ops`` that is both the homotopy
check and the certificate of the Leibniz construction, and delta ==
eps d^T, read off d's own entries with neither delta nor d^T built.
Write x' for the complement of x and sigma(x) = o (-1)^{sum x} for the
star sign, o the orientation sign.  An entry c of d from u to y, of
shift k = |y| - |u|, is the entry s_k sigma(u') sigma(y) c of delta
from u' to y' (``codifferential``), and eps d^T has there eps times the
entry of d from y' to u'.  Now sum u' = m(m-1)/2 - sum u, so o^2 = 1
and sigma(u') sigma(y) = (-1)^{m(m-1)/2} (-1)^{sum y - sum u}, and
eps (-1)^{m(m-1)/2} = -1.  So delta and eps d^T agree at (u', y')
exactly when d has the entry

    -(-1)^{sum y - sum u} s_k c  from y' to u',

the mirror of the entry at (u, y).  The positions of delta are the
(u', y') over d's positions (u, y), and those of d^T the (u', y') over
d's positions (y', u').  The map (u, y) -> (y', u') keeps the shift k
and sum y - sum u, and applied twice it is the identity: it is an
involution on positions.  If every entry of d has its mirror, equal to
the value above, then every position of delta is one of d^T with the
same value, and every position (u', y') of d^T has its entry (y', u') of
d, whose mirror (u, y) is in d, so it is a position of delta too.
Conversely a missing or unequal mirror is a position where the two
differ.  So "every entry's mirror is present and equal" is the whole
equality, with no count of entries, and the orientation drops out.
delta^2 = (eps d^T)^2 = (d^2)^T then vanishes too, and is not computed.
The adjoint check is the certificate that ``direct_sum_ok`` and
``kernel_intersection_ok`` report; no Laplacian is built.

Everything here is exact rational arithmetic.  d goes to ``linalg`` as
it is, with no dense matrix in between: its columns on a set of degrees
are the images of their monomials, and its rows are the images of its
transpose.  ``linalg.rank`` checks an exact certificate of every rank it
returns.  The harmonic elements (g = 0) are the canonical
``linalg.nullspace`` rows of Ker d n Ker d^T on each degree, taken when
the report's ``kernels`` or ``harmonic`` is first read.
"""

import functools
from itertools import combinations
from math import comb, gcd

from . import linalg
from .derived import contractions
from .errors import NotHodgeContext, NotLInfinity
from .linalg import ZERO
from .poisson import Element
from .record import Record
from .superspace import Orientation

MAX_DIM = 14


def require_dim(m):
    """Refuse a dimension above MAX_DIM, as every HodgeContext does."""
    if m > MAX_DIM:
        raise NotHodgeContext(f"dimension {m} above guard {MAX_DIM}")


class HodgeContext:
    """Pure odd space, identity Gram matrix, a choice of orientation."""

    __slots__ = ("space", "orientation")

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
    """<v, w> = sum_I v_I w_I: the monomials are orthonormal (module
    docstring), so no product and no star is taken."""
    _require_ctx_element(ctx, v)
    _require_ctx_element(ctx, w)
    return sum((c * w.terms[x] for x, c in v.terms.items() if x in w.terms),
               ZERO)


# ---------------------------------------------------------------------------
# differential, codifferential, Laplacian


def differential(ctx, mu):
    """The operator d = [mu, -], entry by entry from the terms of the
    mu_i = [e_i, mu], verified to square to zero.

    mu_i is read once from ``derived.contractions``.  A term c e_w of mu_i
    gives d one entry for each set r of generators outside w and i: from
    e_x, x = r u {i}, to e_{w u r}, with the sign (-1)^{j + |w| + n} of the
    module docstring.  One walk over the indices builds both words: i
    joins x, an index of w joins the target, and any other index joins
    both or neither; one that joins moves i's place j on when it precedes
    i, and adds to n the indices of w still to come.  No two entries meet
    (module docstring), so each is written once.  No bracket is taken.

    For an odd mu, d^2 = 0 exactly when [mu, mu] is a scalar (module
    docstring), and the refusal names that condition.  An even mu is no
    homotopy potential, and ``hodge_decomposition`` refuses it first; its
    d is checked all the same, and refused as d not squaring to zero,
    since [mu, mu] = 0 for every even mu.
    """
    _require_ctx_element(ctx, mu.element)
    d = {}
    for (i,), terms in contractions(mu, 1).items():
        for w, c in terms.items():
            # (x, w u r, parity of the sign), which |w| starts: -1 on an
            # even layer, whose terms w have odd length
            entries = [((), (), len(w) % 2)]
            before_i, after = 1, len(w)
            for b in range(ctx.m):
                if b == i:
                    entries = [(x + (b,), y, s) for x, y, s in entries]
                    before_i = 0
                elif b in w:
                    entries = [(x, y + (b,), s) for x, y, s in entries]
                    after -= 1
                else:
                    flip = (before_i + after) % 2
                    entries += [(x + (b,), y + (b,), s ^ flip)
                                for x, y, s in entries]
            for x, y, s in entries:
                d.setdefault(x, {})[y] = -c if s else c
    if linalg.compose_ops(d, d):
        raise NotLInfinity("[mu, mu] is not a scalar" if mu.is_odd()
                           else "d does not square to zero")
    return d


def codifferential(ctx, d):
    """delta = sum over layers of (-1)^{k(1-k)/2} star d_k star, k = deg - 2.

    Star is a signed permutation of monomials, star(x) = sigma(x) x' with x'
    the complement of x.  So an entry c of d from u to y, whose shift k =
    len(y) - len(u) names its layer, becomes the entry
    (-1)^{k(1-k)/2} sigma(u') sigma(y) c of delta from u' to y'.  No
    bracket is taken.

    ``hodge_decomposition`` builds no delta: it checks delta == eps d^T
    on d's own entries (``_adjoint_ok``), and this operator is that
    check's oracle.
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


_NO_IMAGE = {}  # what d.get reads for a monomial that d does not map


def _adjoint_ok(m, d):
    """delta == eps d^T, read off the entries of d: each entry c from u to
    y has its mirror -(-1)^{sum y - sum u} s_k c from y' to u' (module
    docstring).  Neither delta nor d^T is built."""
    seen = {}  # monomial -> (its complement, parity of its index sum)

    def complement(x):
        got = seen.get(x)
        if got is None:
            inside = set(x)
            got = seen[x] = (tuple(i for i in range(m) if i not in inside),
                             sum(x) % 2)
        return got

    for u, img in d.items():
        u_comp, su = complement(u)
        for y, c in img.items():
            y_comp, sy = complement(y)
            k = len(y) - len(u)
            want = c if (sy + su + k * (1 - k) // 2) % 2 else -c
            if d.get(y_comp, _NO_IMAGE).get(u_comp) != want:
                return False
    return True


def laplacian(d, delta):
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


class HodgeDegreeRow(Record):
    def __init__(self, p, dim, rank_d, rank_delta, im_d, im_delta,
                 ker_laplacian, cohomology=None):
        self.p = p
        self.dim = dim
        self.rank_d = rank_d            # rank of d restricted to degree p
        self.rank_delta = rank_delta    # rank of delta restricted to degree p
        self.im_d = im_d                # dimension of Im(d) in degree p
        self.im_delta = im_delta        # dimension of Im(delta) in degree p
        self.ker_laplacian = ker_laplacian
        self.cohomology = cohomology


class HodgeReport(Record):
    def __init__(self, m, degrees, total_dim, rank_d, rank_delta,
                 ker_laplacian, direct_sum_ok, kernel_intersection_ok,
                 cohomology_total, homogeneous=True, space=None, d=None):
        self.m = m
        self.degrees = degrees
        self.total_dim = total_dim
        self.rank_d = rank_d
        self.rank_delta = rank_delta
        self.ker_laplacian = ker_laplacian
        # both flags carry delta == eps d^T, from which the Hodge lemma
        # follows
        self.direct_sum_ok = direct_sum_ok
        self.kernel_intersection_ok = kernel_intersection_ok
        self.cohomology_total = cohomology_total
        self.homogeneous = homogeneous
        self.space = space
        self.d = {} if d is None else d

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
    adjoint = _adjoint_ok(m, d)
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
