"""Classification of invariant (m-3)-ary algebras on an odd orthonormal space.

Degree-2 elements correspond to skew-symmetric matrices through the adjoint
action: a bracket with a basis vector is a contraction through the form,
here the identity, so the adjoint matrix of v is its coefficient table,
a[i][j] = c(e_i e_j) = -a[j][i] for i < j, read off with no bracket.  The
orthogonal group acts by conjugation, so orbits are labelled by the block
parameters of the real skew canonical form.  ``block_parameters`` computes
them exactly from the roots of ``linalg.charpoly``, each printed as its
correctly rounded double, and the skew rank is twice their number;
``canonical_form`` also returns the rotation, from a real Schur form
(it alone loads numpy and scipy), and on exact input reads its parameters
from ``block_parameters``.  ``linalg`` checks every matrix a caller
gives.  The (m-3)-ary algebra attached to v is the derived algebra of
star(v); the space must be ``orthonormal`` (read off ``Superspace``).
Simplicity is decided twice, independently: by the rank of v (the paper's
criterion) and by an exact certificate, the common kernel of the
multiplication operators L_t (``NaryStructure.operators``) or the
dimension of their commutant; ``classify_m3`` compares the two.
``isomorphic_via`` checks that phi is even and orthogonal, with no
sampled check.
"""

import math
import struct
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .derived import (
    Potential,
    canonical_tuples,
    check_filippov,
    check_nary_jacobi,
    derive_structure,
)
from .errors import (
    ConvergenceFailure,
    DimensionTooSmall,
    InexactCoefficient,
    NaryError,
    NotHodgeContext,
    NotOrthogonal,
    NotPureOdd,
    NotSkew,
    SpaceMismatch,
    WrongDegree,
)
from .hodge import HodgeContext, star
from .poisson import Element, multiply, poisson_bracket


# ---------------------------------------------------------------------------
# degree-2 elements <-> skew matrices


def _require_orthonormal_odd(space):
    if not space.pure_odd:
        raise NotPureOdd("correspondence needs a pure odd space")
    if not space.orthonormal:
        raise NotHodgeContext("correspondence is normalized for the identity "
                              "Gram matrix")


def skew_to_element(space, a):
    """Degree-2 element whose adjoint matrix is exactly a.

    Sign convention: e_i e_j (i < j) has adjoint matrix E_ij - E_ji, so the
    coefficient of e_i e_j is a[i][j].
    """
    _require_orthonormal_odd(space)
    m = space.dim
    a = linalg.skew_matrix(a, m)
    return Element(space, {(i, j): a[i][j]
                           for i in range(m) for j in range(i + 1, m)})


def element_to_skew(w):
    """Adjoint matrix of w, read off its coefficients: a[i][j] = c(e_i e_j)
    = -a[j][i] for i < j (the exact inverse of skew_to_element)."""
    space = w.space
    _require_orthonormal_odd(space)
    if not w.is_zero() and w.degree() != 2:
        raise WrongDegree("expected a degree-2 element")
    a = linalg.zeros(space.dim, space.dim)
    for (i, j), c in w.terms.items():
        a[i][j], a[j][i] = c, -c
    return a


# ---------------------------------------------------------------------------
# exact block parameters
#
# Polynomials are lists of integer coefficients, lowest degree first, with
# no trailing zero; an empty list is the zero polynomial.


def _trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _primitive(p):
    """p divided by its content, with a positive leading coefficient."""
    g = math.gcd(*p)
    g = g if p[-1] > 0 else -g
    return [c // g for c in p]


def _derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def _gcd(p, q):
    """Primitive greatest common divisor of p and q, p nonzero, by the
    primitive pseudo-remainder sequence."""
    p = _primitive(p)
    while q:
        p, q = _primitive(q), p
        lead, top = p[-1], len(p) - 1
        while len(q) > top:  # q becomes the pseudo-remainder of q by p
            shift, c = len(q) - len(p), q[-1]
            q = [x * lead for x in q]
            for j, x in enumerate(p):
                q[shift + j] -= c * x
            _trim(q)
    return p


def _quotient(p, q):
    """p / q, for a primitive q that divides p (the quotient is integral by
    Gauss's lemma)."""
    rem = list(p)
    quot = [0] * (len(p) - len(q) + 1)
    for i in reversed(range(len(quot))):
        c = quot[i] = rem[i + len(q) - 1] // q[-1]
        for j, x in enumerate(q):
            rem[i + j] -= c * x
    return quot


def _squarefree_factors(p):
    """Pairs (f, j), j = 1, 2, ...: f the product of the distinct
    irreducible factors that divide p exactly j times, if there are any.

    With g_0 = p and g_j = gcd(g_(j-1), g_(j-1)'), the quotient g_(j-1) / g_j
    is squarefree and holds the factors of multiplicity at least j.
    """
    factors, g, above, j = [], p, None, 0
    while len(g) > 1:
        h = _gcd(g, _derivative(g))
        at_least = _quotient(g, h)
        if above is not None and len(above) > len(at_least):
            factors.append((_quotient(above, at_least), j))
        above, g, j = at_least, h, j + 1
    if above is not None:
        factors.append((above, j))
    return factors


def _sign_at_square(f, x):
    """Sign of f(x * x) for a rational x, in integer arithmetic."""
    n, d = x.as_integer_ratio()
    n, d = n * n, d * d
    acc, dpow = 0, 1
    for c in reversed(f):  # d^r f(n/d) by Horner
        acc = acc * n + c * dpow
        dpow *= d
    return (acc > 0) - (acc < 0)


def _roots_above_square(f, x):
    """Number of roots y of the real-rooted f with y > x * x, x rational.

    The roots of f(x*x + u) in u > 0 are counted by the sign changes of its
    coefficients (Descartes' rule of signs), exactly because every root is
    real (Collins and Akritas, "Polynomial real root isolation using
    Descartes' rule of signs", 1976).
    """
    n, d = x.as_integer_ratio()
    n, d = n * n, d * d
    r = len(f) - 1
    c = [coef * d ** (r - i) for i, coef in enumerate(f)]  # d^r f(z/d) ...
    for i in range(r):                                # ... at z = n + u
        for j in range(r - 1, i - 1, -1):
            c[j] += n * c[j + 1]
    signs = [v > 0 for v in c if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _double(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


_MAX_BITS = struct.unpack("<q", struct.pack("<d", sys.float_info.max))[0]


def _midpoint(x, toward):
    """The exact midpoint between the double x and its neighbour toward
    the given side."""
    return (Fraction(x) + Fraction(math.nextafter(x, toward))) / 2


def _roots_by_bisection(f):
    """The correctly rounded sqrt(y) of each root y of f, in ascending order.

    f has integer coefficients and real, positive, simple roots.  The
    positive doubles are ordered as their bit patterns, so for the j-th
    root an exact bisection over the patterns finds the least double x
    whose upper midpoint has at least j roots at or below its square.  A
    root at that midpoint is a tie, which rounds to the even neighbour.
    """
    r = len(f) - 1
    out = []
    for j in range(1, r + 1):
        lo, hi = 0, _MAX_BITS
        while lo < hi:
            mid = (lo + hi) // 2
            edge = _midpoint(_double(mid), math.inf)
            if r - _roots_above_square(f, edge) >= j:
                hi = mid
            else:
                lo = mid + 1
        if lo == _MAX_BITS:
            raise NaryError("a block parameter is beyond the double range")
        edge = _midpoint(_double(lo), math.inf)
        if lo & 1 and _sign_at_square(f, edge) == 0 and \
                r - _roots_above_square(f, edge) == j:
            lo += 1
        out.append(_double(lo))
    return out


def _float_roots(g):
    """Float approximations of the roots of g, monic with float
    coefficients, whose roots are real, positive and simple, largest first.

    Above its largest root such a polynomial is increasing and convex, so
    Newton's method started at the sum of the roots, which bounds the
    largest, descends monotonically onto it.  The root is then divided out
    by backward deflation, which is stable for the largest root.
    """
    roots = []
    while len(g) > 1:
        x = -g[-2]
        while True:
            p = dp = 0.0
            for c in reversed(g):
                dp = dp * x + p
                p = p * x + c
            if p <= 0 or dp <= 0:
                break
            step = x - p / dp
            if not step < x:
                break
            x = step
        if not x > 0:
            break
        roots.append(x)
        q, acc = [], 0.0
        for c in g[:-2]:
            acc = (acc - c) / x
            q.append(acc)
        g = q + [1.0]
    return roots


def _certified(f, x):
    """Does some root y of f have sqrt(y) = x or lie strictly inside the
    rounding cell of the double x?  Exact."""
    if _sign_at_square(f, x) == 0:
        return True
    return _sign_at_square(f, _midpoint(x, 0)) * \
        _sign_at_square(f, _midpoint(x, math.inf)) < 0


def _newton_step(f, x):
    """One Newton step on f(t * t) = 0 from the double x, taken exactly and
    rounded to a double."""
    t = Fraction(x)
    y, val, der = t * t, 0, 0
    for c in reversed(f):
        der = der * y + val
        val = val * y + c
    return float(t - val / (2 * t * der)) if der else x


def _rounded_roots(f):
    """The correctly rounded sqrt(y) of each root y of f, whose roots are
    real, positive and simple.

    Float guidance proposes a double x for each root; the proposal, or else
    the rounded result of one exact Newton step from it, is certified
    exactly.  The cells of distinct doubles are disjoint and f has as many
    roots as its degree, so one certified cell per root leaves no root
    unplaced.  When the guidance falls short, every root is placed by exact
    bisection.
    """
    try:
        guesses = _float_roots([c / f[-1] for c in f])
    except OverflowError:  # a coefficient beyond the double range
        guesses = []
    found = []
    for y in guesses:
        x = math.sqrt(y)
        if x in found or not _certified(f, x):
            x = _newton_step(f, x)
            if not (x > 0 and x not in found and _certified(f, x)):
                continue
        found.append(x)
    if len(found) == len(f) - 1:
        return found
    return _roots_by_bisection(f)


def _pfaffian(a):
    """Pfaffian of an even skew rational matrix, by skew elimination:
    Pf [[J, U], [-U^T, C]] = Pf J * Pf(C + U^T J^-1 U) for a 2 x 2 J."""
    a = [list(row) for row in a]
    n = len(a)
    pf = 1
    for k in range(0, n, 2):
        p = next((j for j in range(k + 1, n) if a[k][j]), None)
        if p is None:
            return 0
        if p != k + 1:  # swap rows and columns k+1 and p: the sign flips
            a[k + 1], a[p] = a[p], a[k + 1]
            for row in a:
                row[k + 1], row[p] = row[p], row[k + 1]
            pf = -pf
        u, w, alpha = a[k], a[k + 1], a[k][k + 1]
        pf *= alpha
        support = [i for i in range(k + 2, n) if u[i] or w[i]]
        for i in support:
            for j in support:
                a[i][j] -= Fraction(u[i] * w[j] - w[i] * u[j]) / alpha
    return pf


def block_parameters(a):
    """Block parameters of the real skew canonical form of a, exactly.

    a is a square skew matrix of exact rationals (``linalg.skew_matrix``).
    The result lists a_1 >= a_2 >= ... > 0, one per nonzero 2 x 2 block,
    each the correctly rounded double of the exact value; for even m with
    no zero block the last one carries the sign of the Pfaffian, the
    product of the parameters.  With k = m // 2, the characteristic polynomial of a is
    x^(m - 2k) times a polynomial in x^2, and y = -x^2 turns it into a
    polynomial p of degree k whose roots are the a_t^2, counted with
    multiplicity, and zeros for the zero blocks.  It is computed over the
    integers from a scaled by its common denominator, split into squarefree
    factors, and each root's square root rounded with an exact certificate.
    """
    b, den = linalg.clear_denominators(linalg.skew_matrix(a))
    m = len(b)
    c = linalg.charpoly(b)
    k = m // 2
    # det(xI - b) = sum_i c[2i] x^(m - 2i); at x^2 = -z this is x^(m - 2k)
    # times sum_j (-1)^j c[2(k - j)] z^j, whose roots z are den^2 a_t^2
    p = [(-1) ** j * c[2 * (k - j)] for j in range(k + 1)]
    zero_blocks = next(j for j, x in enumerate(p) if x)
    params = []
    for f, multiplicity in _squarefree_factors(p[zero_blocks:]):
        # f(den^2 y), whose roots y are the a_t^2 themselves
        f = _primitive([x * den ** (2 * i) for i, x in enumerate(f)])
        params += _rounded_roots(f) * multiplicity
    params.sort(reverse=True)
    if m % 2 == 0 and m and not zero_blocks and _pfaffian(b) < 0:
        params[-1] = -params[-1]
    return params


# ---------------------------------------------------------------------------
# real canonical form (numerical: the block parameters with a rotation)

SKEW_TOL = 1e-12
RESIDUAL_TOL = 1e-9


@dataclass
class CanonicalForm:
    params: list            # a_1 >= a_2 >= ...; last may be negative if m even
    q: object               # orthogonal matrix with det +1 (numpy array)
    residual: float
    m: int

    def reconstruct(self):
        import numpy as np
        a = np.zeros((self.m, self.m))
        for t, val in enumerate(self.params):
            a[2 * t, 2 * t + 1] = val
            a[2 * t + 1, 2 * t] = -val
        return a


def canonical_form(a):
    """Block parameters and transforming rotation of a real skew matrix;
    with s = max(1, |a|) in the max norm, NotSkew if |a + a^T| > SKEW_TOL * s
    and ConvergenceFailure if |q A q^T - a| > RESIDUAL_TOL * s.

    For exact input (every entry an int or a rational) the parameters are
    ``block_parameters(a)``, each correctly rounded, and the real Schur
    form supplies only q; the residual check then covers both.  A float
    entry anywhere makes the parameters those of the Schur form."""
    # imported here, so that only the canonical form loads numpy and scipy
    import numpy as np
    from scipy.linalg import schur

    A = np.asarray(a, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotSkew("input is not a square matrix")
    m = A.shape[0]
    scale = max(1.0, float(np.abs(A).max()))
    if float(np.abs(A + A.T).max()) > SKEW_TOL * scale:
        raise NotSkew("matrix is not skew-symmetric within tolerance")
    try:
        exact = linalg.skew_matrix([list(row) for row in a])
    except InexactCoefficient:
        exact = None
    T, Z = schur(A, output="real")
    q = Z.copy()
    blocks = []      # (value, first column index)
    zero_cols = []
    i = 0
    while i < m:
        if i + 1 < m and abs(T[i + 1, i]) > 1e-12 * scale:
            val = float((T[i, i + 1] - T[i + 1, i]) / 2.0)
            if val < 0:
                # swap the two basis vectors: flips the block sign
                q[:, [i, i + 1]] = q[:, [i + 1, i]]
                val = -val
            blocks.append((val, i))
            i += 2
        else:
            zero_cols.append(i)
            i += 1
    blocks.sort(key=lambda bv: -bv[0])
    order = []
    for _, col in blocks:
        order.extend([col, col + 1])
    order.extend(zero_cols)
    q = q[:, order]
    params = [val for val, _ in blocks]
    det = float(np.linalg.det(q))
    if det < 0:
        if zero_cols:
            q[:, m - 1] = -q[:, m - 1]
        elif blocks:
            # flip one vector of the smallest block: its parameter changes sign
            q[:, m - 1] = -q[:, m - 1]
            params[-1] = -params[-1]
        else:
            raise ConvergenceFailure("cannot normalize determinant")
    if exact is not None:
        params = block_parameters(exact)
    form = CanonicalForm(params=params, q=q, residual=0.0, m=m)
    recon = q @ form.reconstruct() @ q.T
    form.residual = float(np.abs(recon - A).max())
    if form.residual > RESIDUAL_TOL * scale:
        raise ConvergenceFailure(f"residual {form.residual} above tolerance")
    return form


# ---------------------------------------------------------------------------
# the (m-3)-ary algebra of a degree-2 element


def build_m3_algebra(ctx, v):
    """Derived potential star(v) of the (m-3)-ary algebra attached to v."""
    if not v.is_zero() and v.degree() != 2:
        raise WrongDegree("expected a degree-2 element")
    m = ctx.m
    if m < 4:
        raise DimensionTooSmall("need dimension >= 4 for an (m-3)-ary algebra")
    return Potential.single(ctx.space, star(ctx, v), arity=m - 3)


def ider(mu):
    """Basis of the invariant derivations of (V, mu), inside degree 2.

    Exact kernel of w -> [w, mu] on the degree-2 component.
    """
    space = mu.space
    basis2 = canonical_tuples(space, 2)
    rows = {}
    for j, b in enumerate(basis2):
        img = poisson_bracket(Element.monomial(space, b), mu.element)
        for mono, c in img.terms.items():
            rows.setdefault(mono, {})[j] = c
    kernel = linalg.nullspace(list(rows.values()), range(len(basis2)))
    return [Element(space, {basis2[j]: c for j, c in vec.items()})
            for vec in linalg.row_space(kernel)]


# ---------------------------------------------------------------------------
# ideal search


@dataclass
class IdealReport:
    found: bool
    basis: list = field(default_factory=list)   # degree-1 elements
    method: str = ""
    status: str = ""
    rounds: int = 0       # always 0: the report format keeps the field


def _verify_ideal(ops, rows):
    """Does every operator map the span of the sparse rows into itself?"""
    images = [linalg.apply_op(op, vec) for op in ops for vec in rows]
    return linalg.rank(rows + images) == linalg.rank(rows)


def _rows_to_elements(space, rows):
    return [Element(space, {(i,): c for i, c in vec.items()}) for vec in rows]


def _commutant(operators, m):
    """(system, dim): the rows of X L - L X = 0 and the commutant's dimension.

    The unknown X[a][b] is column a*m + b.  For a skew L given by its
    columns, entry (i, j) of X L - L X is sum_k X[i][k] L[k][j] +
    sum_k L[k][i] X[k][j]; the diagonal of L is zero, so the two sums share
    no unknown.  The dimension is m^2 minus the certified rank.
    """
    system = []
    for op in operators:
        for i in range(m):
            for j in range(m):
                eq = {i * m + k: x for k, x in op.get(j, {}).items()}
                eq.update((k * m + j, x) for k, x in op.get(i, {}).items())
                if eq:
                    system.append(eq)
    return system, m * m - linalg.rank(system)


def _minus_scalar(x, c):
    """The sparse rows of X - cI."""
    rows = [dict(row) for row in x]
    for i, row in enumerate(rows):
        row[i] = row.get(i, 0) - c
        if not row[i]:
            del row[i]
    return rows


def _rational_eigenvalues(x):
    """The rational roots of t^2 = a + b t if X^2 = aI + bX, for X by
    sparse rows; otherwise, or if X is scalar, none.

    The nonzero rows {i: row i} are X^T as a ``linalg`` operator, which
    maps row i of X to row i of X^2.  b and a are read from two entries,
    an off-diagonal entry of X or two unequal diagonal ones, and the
    equation is then checked exactly.
    """
    m = len(x)
    op = {i: row for i, row in enumerate(x) if row}
    square = [linalg.apply_op(op, row) for row in x]  # row i of X^2
    diag = [row.get(i, 0) for i, row in enumerate(x)]
    off = next(((i, j) for i in range(m) for j in x[i] if j != i), None)
    if off:
        i, j = off
        b = Fraction(square[i].get(j, 0)) / x[i][j]
    else:
        j = next((j for j in range(m) if diag[j] != diag[0]), None)
        if j is None:
            return []
        b = Fraction(square[j].get(j, 0) - square[0].get(0, 0)) / \
            (diag[j] - diag[0])
    a = square[0].get(0, 0) - b * diag[0]
    for i, row in enumerate(x):
        want = {k: b * y for k, y in row.items()}
        want[i] = want.get(i, 0) + a
        if square[i] != {k: y for k, y in want.items() if y}:
            return []
    disc = b * b + 4 * a
    if disc < 0:
        return []
    num, den = math.isqrt(disc.numerator), math.isqrt(disc.denominator)
    if num * num != disc.numerator or den * den != disc.denominator:
        return []
    root = Fraction(num, den)
    return [(b + root) / 2, (b - root) / 2]


def find_ideal(s):
    """Decide exactly whether an n-ary structure has a proper ideal.

    The space must be pure odd and orthonormal, and every operator
    L_t = s(e_t1, ..., e_t(n-1), -) skew, as for an invariant structure:
    -L_t^T == L_t.  The operators are read once from the structure
    (``s.operators()``), in the operator format of the ``linalg``
    docstring, which applies and transposes them.
    Stage 1 returns the common kernel of the L_t if it is a proper ideal.
    Then the commutant {X : X L_t = L_t X for all t} decides, its dimension
    read from one certified ``linalg.rank``.  If W is a proper ideal, so is
    its orthogonal complement, and the orthogonal projection onto W
    commutes with every L_t: dimension 1 proves the algebra simple.  Above
    1 the kernel of every commutant element is an invariant subspace; the
    first proper kernel of a canonical basis element is returned.  At
    dimension 2 the commutant is span(I, X) for a non-scalar basis element
    X, so X^2 = aI + bX, and at each rational root t of t^2 = a + b t the
    kernel of X - tI, also in the commutant, is tried as well.  If no
    kernel is proper the status is "undecided", never "simple".
    """
    space = s.space
    _require_orthonormal_odd(space)
    m = space.dim
    operators = list(s.operators().values())

    if not operators:
        # zero structure: every line is an ideal
        return IdealReport(True, [Element.generator(space, 0)],
                           method="kernel", status="ideal found")
    if any(linalg.transpose_op(op, -1) != op for op in operators):
        raise NotSkew("an operator of the structure is not skew")

    # stage 1: common kernel; the columns of a skew L are its rows negated
    kernel = linalg.nullspace([col for op in operators
                               for col in op.values()], range(m))
    if kernel:
        rows = linalg.row_space(kernel)
        if 0 < len(rows) < m and _verify_ideal(operators, rows):
            return IdealReport(True, _rows_to_elements(space, rows),
                               method="kernel", status="ideal found")

    # the identity commutes with everything, so dim >= 1
    system, dim = _commutant(operators, m)
    if dim == 1:
        return IdealReport(False, method="commutant",
                           status="simple (certified)")
    for x in linalg.nullspace(system, range(m * m)):
        x_rows = [{} for _ in range(m)]
        for ab, c in x.items():
            x_rows[ab // m][ab % m] = c
        shifts = [0] + (_rational_eigenvalues(x_rows) if dim == 2 else [])
        for shift in shifts:
            rows = linalg.nullspace(_minus_scalar(x_rows, shift), range(m))
            if 0 < len(rows) < m and _verify_ideal(operators, rows):
                return IdealReport(True, _rows_to_elements(space, rows),
                                   method="commutant", status="ideal found")
    return IdealReport(False, method="commutant",
                       status=f"undecided (commutant dimension {dim})")


# ---------------------------------------------------------------------------
# classification records


@dataclass
class ClassificationRecord:
    m: int
    v: object                # degree-2 element
    skew_rank: int
    canonical_params: list   # block_parameters: correctly rounded doubles
    simple: bool
    simple_method: str
    filippov: bool
    sh_jacobi: bool
    ideal: IdealReport


def classify_m3(v):
    """Full record for the (m-3)-ary algebra of a degree-2 element v,
    over the space of v.

    Simple means rank > 2 (the paper's criterion).  find_ideal must certify
    it, or find an ideal if not, or NaryError is raised.
    """
    space = v.space
    if space.dim <= 4:
        raise DimensionTooSmall("classification needs dimension > 4")
    ctx = HodgeContext(space)
    a = element_to_skew(v)
    params = block_parameters(a)
    rank = 2 * len(params)
    mu = build_m3_algebra(ctx, v)
    s = derive_structure(mu)
    filippov = check_filippov(mu).passed
    sh = check_nary_jacobi(s).passed
    simple = rank > 2
    ideal = find_ideal(s)
    if ideal.status != ("simple (certified)" if simple else "ideal found"):
        raise NaryError("rank criterion disagrees with the ideal search "
                        f"({ideal.status})")
    if simple:
        ideal.method = "rank-criterion"
    return ClassificationRecord(
        m=space.dim, v=v, skew_rank=rank, canonical_params=params,
        simple=simple, simple_method="rank-criterion", filippov=filippov,
        sh_jacobi=sh, ideal=ideal)


# ---------------------------------------------------------------------------
# isomorphisms


def map_element(phi, el):
    """Induced action of a linear map on S*V, V the space of el: substitute
    generator images."""
    space = el.space
    phi = linalg.square_matrix(phi, space.dim)
    out = Element.zero(space)
    images = [Element(space, {(j,): phi[j][i] for j in range(space.dim)})
              for i in range(space.dim)]
    for mono, c in el.terms.items():
        term = Element.scalar(space, c)
        for i in mono:
            term = multiply(term, images[i])
        out = out + term
    return out


def isomorphic_via(mu1, mu2, phi):
    """Does phi in SO(V) carry the first potential to the second?

    Both potentials must live over one space V, or SpaceMismatch is
    raised.  phi must be even (phi[j][i] = 0 when e_i, e_j differ in
    parity), with phi^T G phi = G and det +1, or NotOrthogonal is raised.
    Then it needs no sampled check: it preserves the bracket on
    generators, [phi e_i, phi e_j] = (phi^T G phi)[i][j], and the Leibniz
    rule extends that to all of S*V."""
    space = mu1.space
    if mu2.space != space:
        raise SpaceMismatch("potentials live over different superspaces")
    phi = linalg.square_matrix(phi, space.dim)
    par = space.parity
    if any(x and par[i] != par[j] for j, row in enumerate(phi)
           for i, x in enumerate(row)):
        raise NotOrthogonal("phi maps a generator onto the other parity")
    g = [list(row) for row in space.gram]
    if linalg.mat_mul(linalg.mat_mul(linalg.transpose(phi), g), phi) != g \
            or linalg.det(phi) != 1:
        raise NotOrthogonal("phi does not preserve the form with det +1")
    return map_element(phi, mu1.element) == mu2.element
