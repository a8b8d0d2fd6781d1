"""Cotangent extension and quasi-Frobenius structures.

An anticommutative n-ary structure mu on a pure odd V extends to the
doubled space V + V* with the hyperbolic pairing (a, alpha) = alpha(a):
the extended product restricts to mu on V, kills two or more dual
arguments, and acts on one dual argument by

    muT(a_1,...,a_{n-1}, b*)(c) = -b*( mu(a_1,...,a_{n-1}, c) ).

The one-dual entries are read off the operators L_t = mu(e_t1, ...,
e_t(n-1), -), which the structure scatters in one pass over its table
(``NaryStructure.operators``): muT(t, e*_b) = -sum_c L_t[b][c] e*_c, so
the entries at (t, e*_b) are the image of b under -L_t^T, one
``linalg.transpose_op``.  The entries on V lift the whole table of mu,
odd squares included.

The derived potential of the extension is written down, not solved for.
With e*_i = e_{m+i} and kappa = (-1)^{n(n+1)/2},

    muT = kappa sum_K sum_y x_{K,y} e_y e*_K1 ... e*_Kn,

one monomial for each term x_{K,y} e_y of each live entry s(K), in one
pass over ``s.live``.  The sign: e_a pairs only with e*_a, so [e_a, -]
contracts the factor e*_a, negated when an odd number of (odd) factors
stand before it (``derived.contractions``).  In e_y e*_K1 ... e*_Kn the
factor e*_Kj stands after j factors, and {e_K1, ..., e_Kn} =
[e_K1, [..., [e_Kn, muT]...]] contracts e*_Kn first, with (-1)^n, then
e*_K(n-1) with (-1)^(n-1), down to e*_K1 with (-1)^1: kappa in all, so
the entry at K is kappa^2 x_{K,y} e_y = x_{K,y} e_y.  No other monomial
reaches a key in V (e_y, y < m, pairs with no generator of V), and K is
the only canonical ordering of its dual factors.  This is the closed form
of ``derived`` for the doubled Gram matrix, which is its own inverse: its
scatter reaches only these monomials, each with kappa_b = kappa.
The one certificate is that derive_structure(muT), compared as plain term
dicts, equals the table built from the formulas above: the entries of mu
on V, the -L_t^T entries, and no other key, so the derived extension
restricts to mu, acts on one dual argument as stated and kills two or
more.  That derived structure is the extension.  On a mismatch the table
of the formulas is refused as ``derived.potential_from_structure`` would
refuse it (``derived.refuse_structure``): an odd square of mu is no
derived entry, and is reported as a commutativity violation.

A graded-symmetric bilinear form phi (an ordinary skew matrix on a pure
odd space) is quasi-Frobenius for mu when every cyclic sum
sum phi(a_1, mu(a_2,...,a_{n+1})) vanishes; for even n this happens exactly
when the graph {a + phi(a,-)} is a subalgebra of the extension.  On a pure
odd space mu is alternating, so for even n the cyclic sum is alternating
too and is checked on strictly increasing tuples only (see
check_quasi_frobenius).
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb

from . import linalg
from .derived import NaryStructure, Potential, derive_structure, \
    refuse_structure
from .errors import NaryError, NotInvariant, NotPureOdd, OddArity, \
    SpaceMismatch
from .linalg import ONE, ZERO
from .poisson import Element
from .superspace import ODD, Superspace

# work budget of the cyclic-sum loop, in tuples probed
_TUPLE_BUDGET = 200000


def doubled_space(m):
    """Pure odd space on V + V* with the hyperbolic Gram matrix."""
    g = linalg.zeros(2 * m, 2 * m)
    for i in range(m):
        g[i][m + i] = ONE
        g[m + i][i] = ONE
    return Superspace(2 * m, [ODD] * (2 * m), g)


@dataclass
class TStarExtension:
    base_space: object
    space: object            # the doubled space
    arity: int
    base: NaryStructure
    potential: object        # derived potential of the extension
    structure: NaryStructure # extended product = derive_structure(potential)


def _as_structure(space, mu):
    """The structure of mu, a structure or a potential over space; refused
    with SpaceMismatch, before any work, when mu lives over another."""
    if mu.space != space:
        raise SpaceMismatch("the structure lives over a different space")
    if isinstance(mu, NaryStructure):
        return mu
    return derive_structure(mu)


def t_star_extension(space, mu):
    """Build the cotangent extension and its certified derived potential.

    mu is a structure or a potential over space, or SpaceMismatch is
    raised."""
    if not space.pure_odd:
        raise NotPureOdd("the extension is defined for pure odd spaces")
    s = _as_structure(space, mu)
    m = space.dim
    n = s.arity
    ws = doubled_space(m)
    muT = cotangent_potential(s, ws)
    ext_structure = derive_structure(muT)
    want = {t: value.terms for t, value in s.table.items()}
    for t, op in s.operators().items():
        # one dual argument, canonically in the last slot
        for b, img in linalg.transpose_op(op, -1).items():
            want[t + (m + b,)] = {(m + c,): x for c, x in img.items()}
    # the one certificate: the derived table, as plain term dicts, is the
    # table of the formulas; otherwise that table is refused as
    # potential_from_structure refuses it
    if {t: value.terms for t, value in ext_structure.table.items()} != want:
        refuse_structure(NaryStructure(ws, n, {
            t: Element._trusted(ws, terms) for t, terms in want.items()}),
            NotInvariant("structure is not derived from any potential"))
    return TStarExtension(base_space=space, space=ws, arity=n, base=s,
                          potential=muT, structure=ext_structure)


def cotangent_potential(s, ws):
    """kappa x e_y e*_K1 ... e*_Kn for each term x e_y of each live s(K),
    kappa = (-1)^{n(n+1)/2}, on the doubled space ws (module docstring)."""
    m = ws.dim // 2
    n = s.arity
    flip = n * (n + 1) // 2 % 2
    terms = {}
    for key, value in s.live.items():
        duals = tuple(m + i for i in key)
        for (y,), x in value.terms.items():
            terms[(y,) + duals] = -x if flip else x
    # in canonical order, as the closed form of ``derived`` gives them
    return Potential.single(ws, Element._trusted(ws, dict(sorted(
        terms.items()))), arity=n)


@dataclass
class QFCertificate:
    passed: bool
    witness: tuple = None
    residual: Fraction = None
    phi_rank: int = 0
    odd_arity: bool = False


def check_quasi_frobenius(space, mu, phi, allow_odd_arity=False):
    """Cyclic-sum criterion sum_t phi(a_t, s(a_{t+1}, ..., a_{t+n})) = 0.

    mu is a structure or a potential over space, or SpaceMismatch is
    raised before any work; phi is a skew matrix of the size of space.

    On a pure odd space s is alternating in its n arguments (eval_basis
    sorts with the permutation sign and vanishes on a repeat), and a
    rotation of the n+1 slots has sign (-1)^n.  For even n the cyclic sum
    is therefore the antisymmetrization of phi(a_0, s(a_1, ..., a_n))
    divided by n!: it is alternating, vanishes on every tuple with a
    repeat, and only the C(m, n+1) strictly increasing tuples are probed.
    The first violation among them is the lex-least violating ordered
    tuple, so the witness and residual are those of a loop over every
    ordered tuple.  For odd n (allow_odd_arity) the sum is not alternating
    and all m^(n+1) ordered tuples are probed, in product order.

    The certificate holds one witness, so the loop stops at the first
    violation.  A loop that would probe more than _TUPLE_BUDGET tuples is
    refused before it starts.
    """
    if not space.pure_odd:
        raise NotPureOdd("quasi-Frobenius structures live on pure odd spaces")
    s = _as_structure(space, mu)
    n = s.arity
    odd = n % 2 == 1
    if odd and not allow_odd_arity:
        raise OddArity("the correspondence is stated for even arity; "
                       "pass allow_odd_arity=True for the raw cyclic check")
    phi = linalg.skew_matrix(phi, space.dim)
    m = space.dim
    count = m ** (n + 1) if odd else comb(m, n + 1)
    if count > _TUPLE_BUDGET:
        raise NaryError(f"the cyclic-sum loop would probe {count} "
                        f"tuples, above the work budget of {_TUPLE_BUDGET}")

    def phi_pair(i, vec):
        total = ZERO
        for mono, c in vec.terms.items():
            total += phi[i][mono[0]] * c
        return total

    def cyclic_sum(args):
        total = ZERO
        for t in range(n + 1):
            rotated = args[t:] + args[:t]
            total += phi_pair(rotated[0], s.eval_basis(rotated[1:]))
        return total

    if odd:
        tuples = product(range(m), repeat=n + 1)
    else:
        tuples = combinations(range(m), n + 1)
    witness = residual = None
    for args in tuples:
        r = cyclic_sum(args)
        if r != 0:
            witness, residual = args, r
            break
    rank_phi = linalg.rank(linalg.sparse(phi))
    return QFCertificate(witness is None, witness=witness, residual=residual,
                         phi_rank=rank_phi, odd_arity=odd)


def graph_vectors(ext, phi):
    """Basis of the graph subspace {a + phi(a,-)} inside V + V*."""
    m = ext.base_space.dim
    ws = ext.space
    out = []
    for i in range(m):
        acc = {(i,): ONE}
        for j in range(m):
            if phi[i][j] != 0:
                acc[(m + j,)] = phi[i][j]
        out.append(Element(ws, acc))
    return out


def graph_subalgebra_test(ext, phi):
    """Is the graph of phi closed under the extended product?

    The graph is maximal isotropic: the hyperbolic pairing gives
    (b_i, b_k) = phi[k][i] + phi[i][k], which vanishes for the skew phi
    that ``linalg.skew_matrix`` accepts.  So the image lies inside the
    graph exactly when it pairs to zero with the graph itself: one pass
    over the image's terms gives every
    (img, b_j) = img[e*_j] + sum_k phi[j][k] img[e_k].
    """
    n = ext.arity
    if n % 2 == 1:
        raise OddArity("the correspondence is stated for even arity")
    phi = linalg.skew_matrix(phi, ext.base_space.dim)
    b = graph_vectors(ext, phi)
    m = ext.base_space.dim
    for args in combinations(range(m), n):
        img = ext.structure.eval_elements([b[i] for i in args])
        pairings = [ZERO] * m
        for (x,), c in img.terms.items():
            if x >= m:
                pairings[x - m] += c
            else:
                for j in range(m):
                    pairings[j] += phi[j][x] * c
        if any(pairings):
            return False
    return True
