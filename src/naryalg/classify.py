"""Classification of invariant (m-3)-ary algebras on an odd orthonormal space.

Degree-2 elements correspond to skew-symmetric matrices through the adjoint
action; the orthogonal group acts by conjugation, so orbits are labelled by
the block parameters of the real skew canonical form.  The (m-3)-ary
algebra attached to a degree-2 element v is the derived algebra of star(v).
Simplicity is decided twice, independently: by the rank of v (the paper's
criterion) and by an exact certificate, the common kernel of the adjoint
operators or the dimension of their commutant.
"""

import random
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
    NaryError,
    NotHodgeContext,
    NotOrthogonal,
    NotPureOdd,
    NotSkew,
    WrongDegree,
)
from .hodge import HodgeContext, star
from .poisson import Element, multiply, poisson_bracket


# ---------------------------------------------------------------------------
# degree-2 elements <-> skew matrices


def _require_orthonormal_odd(space):
    if not space.pure_odd:
        raise NotPureOdd("correspondence needs a pure odd space")
    ident = tuple(tuple(row) for row in linalg.identity(space.dim))
    if space.gram != ident:
        raise NotHodgeContext("correspondence is normalized for the identity "
                              "Gram matrix")


def ad_matrix(space, w):
    """Matrix of ad w: v -> [w, v] on generators."""
    m = space.dim
    mat = linalg.zeros(m, m)
    for k in range(m):
        img = poisson_bracket(w, Element.generator(space, k))
        for mono, c in img.terms.items():
            if len(mono) != 1:
                raise WrongDegree("ad w does not preserve degree 1")
            mat[mono[0]][k] = c
    return mat


def skew_to_element(space, a):
    """Degree-2 element whose adjoint matrix is exactly a.

    Sign convention: e_i e_j (i < j) has adjoint matrix E_ij - E_ji, so the
    coefficient of e_i e_j is a[i][j].  Verified after construction.
    """
    _require_orthonormal_odd(space)
    m = space.dim
    a = [[Fraction(x) for x in row] for row in a]
    for i in range(m):
        for j in range(m):
            if a[i][j] != -a[j][i]:
                raise NotSkew(f"entry ({i},{j}) breaks skew symmetry")
    acc = {}
    for i in range(m):
        for j in range(i + 1, m):
            if a[i][j] != 0:
                acc[(i, j)] = a[i][j]
    w = Element(space, acc)
    if ad_matrix(space, w) != a:
        raise NaryError("adjoint matrix does not reproduce the input")
    return w


def element_to_skew(space, w):
    """Inverse of skew_to_element (exact round-trip)."""
    _require_orthonormal_odd(space)
    if not w.is_zero() and w.degree() != 2:
        raise WrongDegree("expected a degree-2 element")
    return ad_matrix(space, w)


# ---------------------------------------------------------------------------
# real canonical form (the one numerical component of the engine)


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


def canonical_form(a, skew_tol=1e-12, residual_tol=1e-9):
    """Block parameters and transforming rotation of a real skew matrix."""
    # imported here, so that only the canonical form loads numpy and scipy
    import numpy as np
    from scipy.linalg import schur

    A = np.asarray(a, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotSkew("input is not a square matrix")
    m = A.shape[0]
    scale = max(1.0, float(np.abs(A).max()))
    if float(np.abs(A + A.T).max()) > skew_tol * scale:
        raise NotSkew("matrix is not skew-symmetric within tolerance")
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
    form = CanonicalForm(params=params, q=q, residual=0.0, m=m)
    recon = q @ form.reconstruct() @ q.T
    form.residual = float(np.abs(recon - A).max())
    if form.residual > residual_tol * scale:
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


def ider(space, mu):
    """Basis of the invariant derivations of (V, mu), inside degree 2.

    Exact kernel of w -> [w, mu] on the degree-2 component.
    """
    basis2 = canonical_tuples(space, 2)
    rows = {}
    for j, b in enumerate(basis2):
        img = poisson_bracket(Element.monomial(space, b), mu.element)
        for mono, c in img.terms.items():
            rows.setdefault(mono, {})[j] = c
    kernel = linalg.nullspace(list(rows.values()), range(len(basis2)))
    return [Element(space, {basis2[j]: c for j, c in vec.items()})
            for vec in linalg.row_space(kernel)]


def degree2_rowspace(space, elements):
    """Canonical row space of degree-2 elements (for subspace comparison)."""
    return linalg.row_space([el.terms for el in elements])


# ---------------------------------------------------------------------------
# ideal search


@dataclass
class IdealReport:
    found: bool
    basis: list = field(default_factory=list)   # degree-1 elements
    method: str = ""
    status: str = ""
    rounds: int = 0       # always 0: the report format keeps the field


def _apply(cols, vec):
    """The image of the sparse vector vec under the operator cols."""
    img = {}
    for j, x in vec.items():
        for i, y in cols[j].items():
            img[i] = img.get(i, 0) + x * y
    return {i: y for i, y in img.items() if y}


def _verify_ideal(ops, rows):
    """Does every operator map the span of the sparse rows into itself?"""
    images = [_apply(cols, vec) for cols in ops for vec in rows]
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
    for cols in operators:
        for i in range(m):
            for j in range(m):
                eq = {i * m + k: x for k, x in cols[j].items()}
                eq.update((k * m + j, x) for k, x in cols[i].items())
                if eq:
                    system.append(eq)
    return system, m * m - linalg.rank(system)


def find_ideal(s, rank_hint=None):
    """Decide exactly whether an n-ary structure has a proper ideal.

    The space must be pure odd and orthonormal, and every operator
    L_t = s(e_t1, ..., e_t(n-1), -) skew, as for an invariant structure.
    Stage 1 returns the common kernel of the L_t if it is a proper ideal.
    Then the commutant {X : X L_t = L_t X for all t} decides, its dimension
    read from one certified ``linalg.rank``.  If W is a proper ideal, so is
    its orthogonal complement, and the orthogonal projection onto W
    commutes with every L_t: dimension 1 proves the algebra simple.  Above
    1 the kernel of every commutant element is an invariant subspace; the
    first proper kernel of a canonical basis element is returned, and if
    there is none the status is "undecided", never "simple".  A rank hint
    above 2 (m > 4) means simple by the paper's rank criterion, and the
    commutant must agree, or NaryError is raised.
    """
    space = s.space
    _require_orthonormal_odd(space)
    m = space.dim
    # each operator v -> product(prefix..., v) by its exact sparse columns
    operators = [cols for cols in map(s.operator,
                                      canonical_tuples(space, s.arity - 1))
                 if any(cols)]

    if not operators:
        # zero structure: every line is an ideal
        return IdealReport(True, [Element.generator(space, 0)],
                           method="kernel", status="ideal found")
    if any(cols[i].get(j) != -x for cols in operators
           for j, col in enumerate(cols) for i, x in col.items()):
        raise NotSkew("an operator of the structure is not skew")

    # stage 1: common kernel; the columns of a skew L are its rows negated
    kernel = linalg.nullspace([col for cols in operators for col in cols],
                              range(m))
    if kernel:
        rows = linalg.row_space(kernel)
        if 0 < len(rows) < m and _verify_ideal(operators, rows):
            return IdealReport(True, _rows_to_elements(space, rows),
                               method="kernel", status="ideal found")

    # the identity commutes with everything, so dim >= 1
    system, dim = _commutant(operators, m)
    if rank_hint is not None and rank_hint > 2 and m > 4:
        if dim != 1:
            raise NaryError("rank criterion disagrees with the commutant "
                            f"(dimension {dim})")
        return IdealReport(False, method="rank-criterion",
                           status="simple (certified)")
    if dim == 1:
        return IdealReport(False, method="commutant",
                           status="simple (certified)")
    for x in linalg.nullspace(system, range(m * m)):
        x_rows = [{} for _ in range(m)]
        for ab, c in x.items():
            x_rows[ab // m][ab % m] = c
        rows = linalg.nullspace(x_rows, range(m))
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
    canonical_params: list   # approximate block parameters
    simple: bool
    simple_method: str
    filippov: bool
    sh_jacobi: bool
    ideal: IdealReport


def classify_m3(space, v, tolerance=1e-9):
    """Full record for the (m-3)-ary algebra of a degree-2 element."""
    if space.dim <= 4:
        raise DimensionTooSmall("classification needs dimension > 4")
    ctx = HodgeContext(space)
    a = element_to_skew(space, v)
    rank = linalg.rank(linalg.sparse(a))
    mu = build_m3_algebra(ctx, v)
    s = derive_structure(mu)
    filippov = check_filippov(mu).passed
    sh = check_nary_jacobi(s).passed
    simple = rank > 2
    method = "rank-criterion"
    ideal = find_ideal(s, rank_hint=rank)
    if ideal.found == simple:
        raise NaryError("rank criterion disagrees with the ideal search")
    params = canonical_form([[float(x) for x in row] for row in a],
                            residual_tol=tolerance).params
    return ClassificationRecord(
        m=space.dim, v=v, skew_rank=rank, canonical_params=params,
        simple=simple, simple_method=method, filippov=filippov,
        sh_jacobi=sh, ideal=ideal)


# ---------------------------------------------------------------------------
# isomorphisms


def _is_special_orthogonal(space, phi):
    m = space.dim
    g = [list(row) for row in space.gram]
    pgp = linalg.mat_mul(linalg.mat_mul(linalg.transpose(phi), g), phi)
    if pgp != g:
        return False
    return linalg.det(phi) == 1


def map_element(space, phi, el):
    """Induced action of a linear map on S*V: substitute generator images."""
    out = Element.zero(space)
    images = [Element(space, {(j,): phi[j][i] for j in range(space.dim)
                              if phi[j][i] != 0})
              for i in range(space.dim)]
    for mono, c in el.terms.items():
        term = Element.scalar(space, c)
        for i in mono:
            term = multiply(term, images[i])
        out = out + term
    return out


def isomorphic_via(space, mu1, mu2, phi):
    """Does phi in SO(V) carry the first potential to the second?"""
    phi = [[Fraction(x) for x in row] for row in phi]
    if not _is_special_orthogonal(space, phi):
        raise NotOrthogonal("phi does not preserve the form with det +1")
    # bracket morphism property on a few fixed pairs
    rng = random.Random(2)
    for _ in range(4):
        deg = rng.randint(1, min(3, space.dim))
        t1 = canonical_tuples(space, deg)
        t2 = canonical_tuples(space, deg)
        if not t1 or not t2:
            continue
        a = Element.monomial(space, t1[rng.randrange(len(t1))])
        b = Element.monomial(space, t2[rng.randrange(len(t2))])
        lhs = map_element(space, phi, poisson_bracket(a, b))
        rhs = poisson_bracket(map_element(space, phi, a),
                              map_element(space, phi, b))
        if lhs != rhs:
            raise NaryError("form-preserving map failed the bracket "
                            "morphism self-check")
    return map_element(space, phi, mu1.element) == mu2.element
