"""Reference routines the tests compare the engine against."""

from fractions import Fraction
from itertools import combinations, product

from naryalg import linalg
from naryalg.derived import (
    CheckReport,
    NaryStructure,
    Potential,
    canonical_tuples,
    koszul_selection_sign,
)
from naryalg.frobenius import QFCertificate, validate_phi
from naryalg.hodge import star
from naryalg.linalg import det
from naryalg.poisson import (
    Element,
    nested_bracket_indices,
    pair_vectors,
    poisson_bracket,
)


def rank_by_minors(a):
    """Largest k with a nonvanishing k x k minor.  Exponential; small m only."""
    if not a or not a[0]:
        return 0
    rows, cols = len(a), len(a[0])
    for k in range(min(rows, cols), 0, -1):
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                sub = [[a[i][j] for j in ci] for i in ri]
                if det(sub) != 0:
                    return k
    return 0


def potential_by_solve(s):
    """Invert the derived bracket by a dense linear solve.  Slow; oracle only.

    One unknown per canonical (n+1)-monomial, one equation per canonical
    n-tuple and output coordinate: the nested brackets of the monomials
    must reproduce the structure table.  Returns None when the system is
    inconsistent.
    """
    space = s.space
    n = s.arity
    basis = canonical_tuples(space, n + 1)
    keys = canonical_tuples(space, n)
    columns = []
    for b in basis:
        mono = Element.monomial(space, b)
        col = []
        for t in keys:
            img = nested_bracket_indices(space, t, mono)
            for r in range(space.dim):
                col.append(img.coefficient((r,)))
        columns.append(col)
    rhs = []
    for t in keys:
        img = s.eval_basis(t)
        for r in range(space.dim):
            rhs.append(img.coefficient((r,)))
    matrix = [[columns[b][row] for b in range(len(basis))]
              for row in range(len(rhs))]
    x = linalg.solve(matrix, rhs)
    if x is None:
        return None
    acc = {b: c for b, c in zip(basis, x) if c != 0}
    return Potential.single(space, Element(space, acc), arity=n)


def spin_by_fixed_point(mats, seed_rows, m):
    """Invariant closure of the seeds by a dense fixed-point loop.  Oracle only.

    Every round maps every basis row by every dense Fraction matrix and
    re-eliminates the whole stack, until a round adds nothing.  The seeds
    and the returned basis are sparse rows.
    """
    rows = linalg.row_space(seed_rows)
    changed = True
    while changed and len(rows) < m:
        changed = False
        new_rows = list(rows)
        for mat in mats:
            for vec in rows:
                img = linalg.mat_vec(mat, [vec.get(c, 0) for c in range(m)])
                if any(x != 0 for x in img):
                    new_rows += linalg.sparse([img])
        reduced = linalg.row_space(new_rows)
        if len(reduced) > len(rows):
            rows = reduced
            changed = True
    return rows


def commutant_dim_by_kronecker(s):
    """Dimension of {X : X L = L X for every operator L of s}.  Oracle only.

    With X flattened row by row, X L - L X = 0 reads (I (x) L^T - L (x) I)
    x = 0.  The dense Kronecker blocks of all operators are stacked, zero
    and repeated rows dropped, and ranked by ``bareiss_rank``; the
    dimension is m^2 minus that rank.
    """
    m = s.space.dim
    rows = set()
    for t in canonical_tuples(s.space, s.arity - 1):
        cols = s.operator(t)
        op = [[Fraction(cols[j].get(i, 0)) for j in range(m)]
              for i in range(m)]
        for i, j in product(range(m), repeat=2):
            row = [Fraction(0)] * (m * m)
            for k in range(m):
                row[i * m + k] += op[k][j]
                row[k * m + j] -= op[i][k]
            if any(row):
                rows.add(tuple(row))
    return m * m - linalg.bareiss_rank(sorted(rows))


def qf_by_ordered_loop(s, phi, exhaustive=False):
    """Quasi-Frobenius certificate from every ordered tuple.  Oracle only.

    Evaluates the cyclic sum on all m^(n+1) ordered basis tuples, repeats
    included, in product order, with no use of alternation or rotation
    invariance; the first violation is the witness.  The rank of phi comes
    from rank_by_minors.
    """
    phi = validate_phi(s.space, phi)
    n = s.arity
    violations = []
    for args in product(range(s.space.dim), repeat=n + 1):
        total = Fraction(0)
        for t in range(n + 1):
            rotated = args[t:] + args[:t]
            vec = s.eval_basis(rotated[1:])
            for mono, c in vec.terms.items():
                total += phi[rotated[0]][mono[0]] * c
        if total != 0:
            violations.append((args, total))
            if not exhaustive:
                break
    odd = n % 2 == 1
    rank_phi = rank_by_minors(phi)
    if violations:
        w, r = violations[0]
        return QFCertificate(False, witness=w, residual=r, phi_rank=rank_phi,
                             odd_arity=odd)
    return QFCertificate(True, phi_rank=rank_phi, odd_arity=odd)


def hodge_operators_by_compose(ctx, mu):
    """d, delta and L as 2^m-entry dicts {monomial: image}.  Oracle only.

    Builds every operator image by image on whole Elements: d brackets mu
    with each monomial, and each layer's delta_k = star d_k star is
    composed from the star operator and its own brackets, with the sign
    (-1)^{k(1-k)/2} of its shift k = deg - 2.  No block structure and no
    star re-indexing is used.
    """
    space = ctx.space
    basis = [mono for monos in ctx.degree_monomials for mono in monos]

    def from_function(fn):
        return {mono: fn(Element(space, {mono: Fraction(1)}))
                for mono in basis}

    def apply(op, v):
        out = Element.zero(space)
        for mono, c in v.terms.items():
            out = out + op[mono].scale(c)
        return out

    def compose(f, g):
        return {mono: apply(f, g[mono]) for mono in basis}

    def add(f, g):
        return {mono: f[mono] + g[mono] for mono in basis}

    d = from_function(lambda v: poisson_bracket(mu.element, v))
    star_op = from_function(lambda v: star(ctx, v))
    delta = from_function(lambda v: Element.zero(space))
    for deg in mu.element.degrees():
        layer = mu.element.homogeneous_part(deg)
        k = deg - 2
        d_k = from_function(lambda v, el=layer: poisson_bracket(el, v))
        sign = -1 if (k * (1 - k) // 2) % 2 else 1
        delta = add(delta, {mono: img.scale(sign) for mono, img in
                            compose(star_op, compose(d_k, star_op)).items()})
    lap = add(compose(delta, d), compose(d, delta))
    return d, delta, lap


def _report(name, violations, exhaustive):
    if not violations:
        return CheckReport(name, True)
    if not exhaustive:
        violations = violations[:1]
    w, r = violations[0]
    return CheckReport(name, False, witness=w, residual=r,
                       violations=violations)


def derive_structure_by_all_tuples(mu):
    """Nested brackets of mu with every canonical n-tuple.  Oracle only."""
    space = mu.space
    table = {}
    for t in canonical_tuples(space, mu.arity):
        val = nested_bracket_indices(space, t, mu.element)
        if not val.is_zero():
            table[t] = val
    return NaryStructure(space, mu.arity, table)


def invariant_by_all_pairs(s, exhaustive=False):
    """Invariance probed at every (a_0, canonical key) pair.  Oracle only."""
    space = s.space
    gen = [Element.generator(space, i) for i in range(space.dim)]
    violations = []
    for a0 in range(space.dim):
        for key in canonical_tuples(space, s.arity):
            lhs = pair_vectors(space, gen[a0], s.eval_basis(key))
            swapped = s.eval_basis((a0,) + key[1:])
            rhs = pair_vectors(space, gen[key[0]], swapped)
            if space.parity[a0] & space.parity[key[0]]:
                rhs = -rhs
            if lhs != rhs:
                violations.append(((a0,) + key, lhs - rhs))
    return _report("invariant", violations, exhaustive)


def nary_jacobi_by_gather(s, exhaustive=False):
    """Unshuffle Jacobiator gathered at every canonical (2n-1)-tuple.

    Sums {{a_I}, a_J} over all C(2n-1, n) position splits of each tuple,
    repeats of an even index included, with the Koszul sign of each
    split.  Oracle only.
    """
    space = s.space
    n = s.arity
    width = 2 * n - 1
    splits = list(combinations(range(width), n))
    violations = []
    for args in canonical_tuples(space, width):
        pars = [space.parity[i] for i in args]
        total = Element.zero(space)
        for inner_pos in splits:
            outer = tuple(args[p] for p in range(width) if p not in inner_pos)
            inner = s.eval_basis(tuple(args[p] for p in inner_pos))
            term = Element.zero(space)
            for mono, c in inner.terms.items():
                term = term + s.eval_basis((mono[0],) + outer).scale(c)
            if koszul_selection_sign(pars, inner_pos) == 1:
                total = total + term
            else:
                total = total - term
        if not total.is_zero():
            violations.append((args, total))
    return _report("nary-jacobi", violations, exhaustive)


def filippov_by_all_tuples(mu, exhaustive=False):
    """[mu_t, mu] at every canonical (n-1)-tuple t.  Oracle only."""
    space = mu.space
    violations = []
    for t in canonical_tuples(space, mu.arity - 1):
        res = poisson_bracket(nested_bracket_indices(space, t, mu.element),
                              mu.element)
        if not res.is_zero():
            violations.append((t, res))
    return _report("filippov", violations, exhaustive)


def jordan_by_triple_loop(A, exhaustive=False):
    """Jordan bracket criterion with the inner bracket inside the k loop.

    Evaluates [A_k, [[A_i, e_j], A]] for every ordered (k, i, j), m^3
    inner brackets, and sums each into its sorted triple.  Oracle only.
    """
    space = A.space
    m = space.dim
    gen = [Element.generator(space, i) for i in range(m)]
    A_ = [poisson_bracket(gen[i], A.element) for i in range(m)]
    coeffs = {}
    for k, i, j in product(range(m), repeat=3):
        inner = poisson_bracket(poisson_bracket(A_[i], gen[j]), A.element)
        key = tuple(sorted((k, i, j)))
        coeffs[key] = coeffs.get(key, Element.zero(space)) + \
            poisson_bracket(A_[k], inner)
    violations = [(key, val) for key, val in sorted(coeffs.items())
                  if not val.is_zero()]
    return _report("jordan", violations, exhaustive)
