"""Reference routines the tests compare the engine against."""

from fractions import Fraction
from itertools import combinations, product

from naryalg import linalg
from naryalg.derived import Potential, canonical_tuples
from naryalg.frobenius import QFCertificate, validate_phi
from naryalg.hodge import star
from naryalg.linalg import det
from naryalg.poisson import Element, nested_bracket_indices, poisson_bracket


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
    and the returned basis are sparse rows, as in ``classify._spin``.
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
