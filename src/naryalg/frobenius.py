"""Cotangent extension and quasi-Frobenius structures.

An anticommutative n-ary structure mu on a pure odd V extends to the
doubled space V + V* with the hyperbolic pairing (a, alpha) = alpha(a):
the extended product restricts to mu on V, kills two or more dual
arguments, and acts on one dual argument by

    muT(a_1,...,a_{n-1}, b*)(c) = -b*( mu(a_1,...,a_{n-1}, c) ).

The extension is commutative and invariant for the doubled pairing, so it
has a derived potential muT.  The doubled Gram matrix is its own inverse,
so each dual basis vector of the closed-form inversion is one generator.
The inversion returns muT only once derive_structure(muT) equals the table
built from the formulas above, and that one comparison is the only check
the extension needs.

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
from .derived import NaryStructure, canonical_tuples, derive_structure, \
    potential_from_structure
from .errors import NaryError, NotPureOdd, OddArity
from .poisson import Element, pair_vectors
from .superspace import ODD, Superspace

ZERO = Fraction(0)
ONE = Fraction(1)

# work budget of the cyclic-sum loop, in tuples probed
_TUPLE_BUDGET = 200000


def doubled_space(m):
    """Pure odd space on V + V* with the hyperbolic Gram matrix."""
    g = linalg.zeros(2 * m, 2 * m)
    for i in range(m):
        g[i][m + i] = ONE
        g[m + i][i] = ONE
    return Superspace(2 * m, [ODD] * (2 * m), g)


def validate_phi(space, phi):
    """A graded-symmetric form on a pure odd space: an ordinary skew matrix."""
    m = space.dim
    phi = [[linalg.exact(x) for x in row] for row in phi]
    if len(phi) != m or any(len(row) != m for row in phi):
        raise NaryError("phi must be a dim x dim matrix")
    for i in range(m):
        for j in range(m):
            if phi[i][j] != -phi[j][i]:
                raise NaryError(
                    f"phi[{i}][{j}] breaks graded symmetry (skew on odd)")
    return phi


@dataclass
class TStarExtension:
    base_space: object
    space: object            # the doubled space
    arity: int
    base: NaryStructure
    potential: object        # derived potential of the extension
    structure: NaryStructure # extended product = derive_structure(potential)


def _as_structure(space, mu):
    if isinstance(mu, NaryStructure):
        return mu
    return derive_structure(mu)


def t_star_extension(space, mu):
    """Build the cotangent extension and its certified derived potential."""
    if not space.pure_odd:
        raise NotPureOdd("the extension is defined for pure odd spaces")
    s = _as_structure(space, mu)
    m = space.dim
    n = s.arity
    ws = doubled_space(m)

    table = {}
    for t, value in s.table.items():
        lifted = Element(ws, {mono: c for mono, c in value.terms.items()})
        table[t] = lifted
    for t in canonical_tuples(space, n - 1):
        cols = s.operator(t)  # cols[c][b] = coefficient of e_b in s(t, e_c)
        for b in range(m):
            # one dual argument, canonically in the last slot
            img = {(m + c,): -col[b] for c, col in enumerate(cols) if b in col}
            if img:
                table[t + (m + b,)] = Element(ws, img)
    ext_structure = NaryStructure(ws, n, table)
    # certified: derive_structure(muT) equals this table, so the derived
    # extension restricts to s, acts on one dual argument as stated and
    # kills two or more
    muT = potential_from_structure(ext_structure, ws)
    return TStarExtension(base_space=space, space=ws, arity=n, base=s,
                          potential=muT, structure=ext_structure)


@dataclass
class QFCertificate:
    passed: bool
    witness: tuple = None
    residual: Fraction = None
    phi_rank: int = 0
    odd_arity: bool = False


def check_quasi_frobenius(space, mu, phi, allow_odd_arity=False):
    """Cyclic-sum criterion sum_t phi(a_t, s(a_{t+1}, ..., a_{t+n})) = 0.

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
    phi = validate_phi(space, phi)
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
    that validate_phi accepts.  So the image lies inside the graph exactly
    when it pairs to zero with the graph itself.
    """
    n = ext.arity
    if n % 2 == 1:
        raise OddArity("the correspondence is stated for even arity")
    phi = validate_phi(ext.base_space, phi)
    b = graph_vectors(ext, phi)
    ws = ext.space
    m = ext.base_space.dim
    for args in combinations(range(m), n):
        img = ext.structure.eval_elements([b[i] for i in args])
        if img.is_zero():
            continue
        for j in range(m):
            if pair_vectors(ws, img, b[j]) != 0:
                return False
    return True
