"""Reference routines the tests compare the engine against."""

import functools
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd

from naryalg import linalg
from naryalg.derived import (
    CheckReport,
    NaryStructure,
    Potential,
    canonical_tuples,
    contraction_constant,
    potential_from_structure,
)
from naryalg.errors import NotLInfinity, WrongDegree
from naryalg.frobenius import (
    QFCertificate,
    TStarExtension,
    doubled_space,
    graph_vectors,
)
from naryalg.hodge import (
    HodgeDegreeRow,
    HodgeReport,
    _require_ctx_element,
    _validate_homotopy,
    codifferential,
    differential,
    laplacian,
    star,
)
from naryalg.poisson import (
    ONE,
    Element,
    mono_parity,
    multiply,
    nested_bracket,
    nested_bracket_indices,
    pair_vectors,
    poisson_bracket,
)


def det_by_bareiss(a):
    """Determinant by dense fraction-free Bareiss elimination on a copy.

    Shares no code with ``linalg.det``, which reads Berkowitz's
    characteristic polynomial.
    """
    n = len(a)
    if n == 0:
        return ONE
    m = [[Fraction(x) for x in row] for row in a]
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = None
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    piv = i
                    break
            if piv is None:
                return Fraction(0)
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) / prev
            m[i][k] = Fraction(0)
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rank_by_minors(a):
    """Largest k with a nonvanishing k x k minor.  Exponential; small m only."""
    if not a or not a[0]:
        return 0
    rows, cols = len(a), len(a[0])
    for k in range(min(rows, cols), 0, -1):
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                sub = [[a[i][j] for j in ci] for i in ri]
                if det_by_bareiss(sub) != 0:
                    return k
    return 0


def bracket_recursive_oracle(a, b):
    """Bracket by literal recursion on the defining rules.  Slow; oracle only.

    [x, y] = (x, y) on generators, the Leibniz rule in the right argument
    and graded antisymmetry, with no contraction formula: independent of
    the closed form in ``poisson_bracket``.
    """
    a._require_same_space(b)
    space = a.space
    out = Element.zero(space)
    for u, cu in a.terms.items():
        for w, cw in b.terms.items():
            out = out + _bracket_mono_rec(space, u, w).scale(cu * cw)
    return out


def _bracket_mono_rec(space, u, w):
    if not u or not w:
        return Element.zero(space)
    if len(u) == 1 and len(w) == 1:
        return Element.scalar(space, space.gram[u[0]][w[0]])
    if len(w) >= 2:
        w1, wrest = w[:1], w[1:]
        t1 = multiply(_bracket_mono_rec(space, u, w1),
                      Element(space, {wrest: ONE}))
        t2 = multiply(Element(space, {w1: ONE}),
                      _bracket_mono_rec(space, u, wrest))
        if mono_parity(space, u) & mono_parity(space, w1):
            t2 = -t2
        return t1 + t2
    # single generator on the right: flip with the antisymmetry rule
    flipped = _bracket_mono_rec(space, w, u)
    if mono_parity(space, u) & mono_parity(space, w):
        return flipped
    return -flipped


def nested_bracket_by_chain(space, indices, target):
    """[e_{i_1}, [... [e_{i_s}, target] ...]] by the general bracket, one
    ``poisson_bracket`` per index.  Oracle for the contraction in
    ``nested_bracket_indices``."""
    out = target
    for i in reversed(list(indices)):
        out = poisson_bracket(Element.generator(space, i), out)
    return out


def dual_basis(space):
    """dual[i] = sum_j (G^-1)[i][j] e_j, so that [dual[i], e_k] = delta_ik."""
    return [Element(space, {(j,): c for j, c in enumerate(row)})
            for row in linalg.inverse(space.gram)]


def closed_form_by_duals(s):
    """The closed-form inverse gathered per canonical (n+1)-tuple b:
    F_b = (dual[b_0], s(dual[b_1], ..., dual[b_n])), divided by kappa_b.
    Oracle for the scatter in ``closed_form_potential``."""
    space = s.space
    dual = dual_basis(space)
    acc = {}
    for b in canonical_tuples(space, s.arity + 1):
        # (dual[i], v) is the coefficient of e_i in v
        f = s.eval_elements([dual[i] for i in b[1:]]).coefficient((b[0],))
        if f:
            acc[b] = f / contraction_constant(space, b)
    return Potential.single(space, Element(space, acc), arity=s.arity)


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
            img = nested_bracket_by_chain(space, t, mono)
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


def operators_by_gather(s):
    """{t: L_t} for every nonzero L_t = s(e_t1, ..., e_t(n-1), -), t
    canonical, in lexicographic order, as ``linalg`` operators {k: column
    k} without zero columns.  Oracle only.

    Column k of L_t is read through ``eval_basis(t + (k,))``, which sorts
    the word with its Koszul sign, for every canonical (n-1)-tuple t.
    """
    out = {}
    for t in canonical_tuples(s.space, s.arity - 1):
        cols = {k: {mono[0]: c for mono, c in
                    s.eval_basis(t + (k,)).terms.items()}
                for k in range(s.space.dim)}
        cols = {k: col for k, col in cols.items() if col}
        if cols:
            out[t] = cols
    return out


def commutant_dim_by_kronecker(s):
    """Dimension of {X : X L = L X for every operator L of s}.  Oracle only.

    With X flattened row by row, X L - L X = 0 reads (I (x) L^T - L (x) I)
    x = 0.  The dense Kronecker blocks of all operators are stacked, zero
    and repeated rows dropped, and ranked by ``bareiss_rank``; the
    dimension is m^2 minus that rank.
    """
    m = s.space.dim
    rows = set()
    for cols in operators_by_gather(s).values():
        op = [[Fraction(cols.get(j, {}).get(i, 0)) for j in range(m)]
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
    phi = linalg.skew_matrix(phi, s.space.dim)
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


def ad_matrix_by_brackets(space, w):
    """Matrix of ad w: v -> [w, v], one general bracket per generator.
    Oracle only."""
    m = space.dim
    mat = linalg.zeros(m, m)
    for k in range(m):
        img = poisson_bracket(w, Element.generator(space, k))
        for mono, c in img.terms.items():
            if len(mono) != 1:
                raise WrongDegree("ad w does not preserve degree 1")
            mat[mono[0]][k] = c
    return mat


def graph_by_pairings(ext, phi):
    """Graph-subalgebra test pairing each image with every graph vector
    through ``pair_vectors``, m pairings per tuple.  Oracle only."""
    phi = linalg.skew_matrix(phi, ext.base_space.dim)
    b = graph_vectors(ext, phi)
    m = ext.base_space.dim
    for args in combinations(range(m), ext.arity):
        img = ext.structure.eval_elements([b[i] for i in args])
        if any(pair_vectors(img, b[j]) for j in range(m)):
            return False
    return True


def cotangent_table(space, s):
    """The cotangent extension's table built by hand on the doubled space:
    s on V, odd squares included, and -L_t^T at (t, e*_b).  Oracle only."""
    m = space.dim
    ws = doubled_space(m)
    table = {t: Element(ws, dict(value.terms)) for t, value in s.table.items()}
    for t, op in s.operators().items():
        for b, img in linalg.transpose_op(op, -1).items():
            table[t + (m + b,)] = Element(ws, {(m + c,): x
                                               for c, x in img.items()})
    return NaryStructure(ws, s.arity, table)


def t_star_by_inversion(space, s):
    """The cotangent extension whose potential is the generic inversion
    ``potential_from_structure`` of the hand-built table.  Oracle only."""
    table = cotangent_table(space, s)
    return TStarExtension(base_space=space, space=table.space,
                          arity=s.arity, base=s,
                          potential=potential_from_structure(table),
                          structure=table)


def _reached(layer, monos):
    """The monomials x among monos with |u n x| = 1 for some term u of layer.

    On a pure odd orthonormal space [e_u, e_x] contracts one index shared
    by u and x and leaves any other shared index on both sides, where it
    squares to zero; so the layer brackets every other monomial to zero.
    """
    terms = [set(u) for u in layer.terms]
    return [x for x in monos if any(len(u.intersection(x)) == 1
                                    for u in terms)]


def all_monomials(m):
    """Every monomial of S*V, m = dim V, by degree."""
    return [x for p in range(m + 1) for x in combinations(range(m), p)]


def differential_by_brackets(ctx, mu):
    """The operator d = [mu, -], verified to square to zero.  Oracle only.

    Each layer is bracketed once with each monomial it reaches
    (``_reached``); the others have a zero image, which the operator
    leaves out.  A layer of degree s maps degree p to degree p + s - 2, so
    the layers' images of one monomial share no target.
    """
    _require_ctx_element(ctx, mu.element)
    d = {}
    for deg in mu.element.degrees():
        layer = mu.element.homogeneous_part(deg)
        for mono in _reached(layer, all_monomials(ctx.m)):
            img = poisson_bracket(layer, Element(ctx.space, {mono: ONE}))
            if img.terms:
                d.setdefault(mono, {}).update(img.terms)
    if linalg.compose_ops(d, d):
        raise NotLInfinity("d = [mu,-] does not square to zero")
    return d


def hodge_operators_by_compose(ctx, mu):
    """d, delta and L as 2^m-entry dicts {monomial: image}.  Oracle only.

    Builds every operator image by image on whole Elements: d brackets mu
    with each monomial, and each layer's delta_k = star d_k star is
    composed from the star operator and its own brackets, with the sign
    (-1)^{k(1-k)/2} of its shift k = deg - 2.  No block structure and no
    star re-indexing is used.
    """
    space = ctx.space
    basis = all_monomials(ctx.m)

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


def columns_of(op, degrees=None):
    """The images of the sources of op whose degree is in degrees (all
    sources when degrees is None)."""
    return [img for src, img in op.items()
            if degrees is None or len(src) in degrees]


def rows_of(op, degrees=None):
    """The rows of op on the sources of the given degrees: the images of
    its transpose cut to those sources."""
    cut = {src: img for src, img in op.items()
           if degrees is None or len(src) in degrees}
    return list(linalg.transpose_op(cut).values())


def hodge_by_global_ranks(ctx, mu):
    """Hodge report of a mixed-layer potential over all of S*V.  Oracle only.

    Ranks every column of d, and of delta, at once; compares one nullspace
    of L with one of [d; delta] over the whole space; checks the direct sum
    with one rank of all columns and kernel rows.  The per-degree rows rank
    d, delta and L on each degree.  No sector is used.
    """
    d = differential(ctx, mu)
    delta = codifferential(ctx, d)
    lap = laplacian(ctx, d, delta)
    m = ctx.m
    dims = [comb(m, p) for p in range(m + 1)]
    total = sum(dims)
    everything = range(m + 1)
    columns = sorted(all_monomials(m))
    d_cols = list(d.values())
    delta_cols = list(delta.values())
    rank_d = linalg.rank(d_cols)
    rank_delta = linalg.rank(delta_cols)
    ker_lap = linalg.nullspace(rows_of(lap), columns)
    ker_both = linalg.nullspace(rows_of(d) + rows_of(delta), columns)
    pieces = d_cols + delta_cols + ker_lap
    direct_ok = (rank_d + rank_delta + len(ker_lap) == total
                 and (not pieces or linalg.rank(pieces) == total))

    def rank_on(op, p):
        return linalg.rank(columns_of(op, (p,)))

    rows = [HodgeDegreeRow(p, dims[p], rank_on(d, p), rank_on(delta, p),
                           None, None, dims[p] - rank_on(lap, p), None)
            for p in everything]
    return HodgeReport(m=m, degrees=rows, total_dim=total, rank_d=rank_d,
                       rank_delta=rank_delta, ker_laplacian=len(ker_lap),
                       direct_sum_ok=direct_ok,
                       kernel_intersection_ok=ker_lap == ker_both,
                       cohomology_total=total - 2 * rank_d, homogeneous=False)


def hodge_by_laplacian(ctx, mu):
    """Hodge report certified through the Laplacian, sector by sector.
    Oracle only.

    On each sector, a class of degrees mod g (a single degree when g = 0),
    takes the canonical kernel of L and compares it with that of d and
    delta stacked, and ranks the columns of d and delta landing there
    with the kernel rows.  The report's kernels are set when it is made.
    """
    _validate_homotopy(mu)
    degrees = mu.element.degrees()
    d = differential(ctx, mu)
    delta = codifferential(ctx, d)
    lap = laplacian(ctx, d, delta)
    m = ctx.m
    shifts = [s - 2 for s in degrees] or [0]
    k = shifts[0]
    g = gcd(*(s - k for s in shifts))

    def sector(p):
        return p % g if g else p

    sectors = {}
    for p in range(m + 1):
        sectors[sector(p)] = sectors.get(sector(p), ()) + (p,)

    def basis(ps):
        return sorted(mono for p in ps for mono in combinations(range(m), p))

    @functools.cache
    def rank_d(ps):
        """Rank of d on the degrees ps."""
        return linalg.rank(columns_of(d, ps))

    @functools.cache
    def kernel(ps):
        """Canonical basis of Ker L on the degrees ps."""
        return linalg.nullspace(rows_of(lap, ps), basis(ps))

    images = {}
    direct_ok = kernels_match = True
    for key, ps in sectors.items():
        cols = basis(ps)
        dim = len(cols)
        ker = kernel(ps)
        # Ker L == Ker d n Ker delta on the sector; both bases are
        # canonical, so they are equal exactly when the kernels are
        ker_both = linalg.nullspace(rows_of(d, ps) + rows_of(delta, ps),
                                    cols)
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
        pieces = columns_of(d, from_d) + columns_of(delta, from_delta) + ker
        if im_d + im_delta + len(ker) != dim or \
                (pieces and linalg.rank(pieces) != dim):
            direct_ok = False
        if (dim - rank_d(ps)) - im_d != len(ker):
            direct_ok = False

    rows = []
    for p in range(m + 1):
        dim, rank_d_p = comb(m, p), rank_d((p,))
        im_d, im_delta = (None, None) if g else images[p]
        rows.append(HodgeDegreeRow(
            p, dim, rank_d_p, rank_d((m - p,)), im_d, im_delta,
            len(kernel((p,))), None if g else (dim - rank_d_p) - im_d))
    total = 2 ** m
    rank_total = sum(rank_d(ps) for ps in sectors.values())
    report = HodgeReport(
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
    )
    report.kernels = {} if g else {p: kernel((p,)) for p in range(m + 1)}
    return report


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
        val = nested_bracket_indices(t, mu.element)
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
            lhs = pair_vectors(gen[a0], s.eval_basis(key))
            swapped = s.eval_basis((a0,) + key[1:])
            rhs = pair_vectors(gen[key[0]], swapped)
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
        res = poisson_bracket(nested_bracket_indices(t, mu.element),
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


def associative_by_generator_brackets(mu, exhaustive=False):
    """[mu_a, mu_b] for a <= b, with mu_a the general bracket of the
    generator e_a and mu.  Oracle only."""
    space = mu.space
    m = space.dim
    mu_ = [poisson_bracket(Element.generator(space, i), mu.element)
           for i in range(m)]
    violations = []
    for i in range(m):
        for j in range(i, m):
            res = poisson_bracket(mu_[i], mu_[j])
            if not res.is_zero():
                violations.append(((i, j), res))
    return _report("associative", violations, exhaustive)


def koszul_selection_sign(parities, chosen):
    """Sign of reordering (a_0,...,a_{N-1}) to (a_chosen, a_rest).

    chosen is an ascending position list; the sign is -1 for every pair of
    odd arguments that crosses.
    """
    chosen_set = set(chosen)
    sign = 1
    for p in chosen:
        if not parities[p]:
            continue
        for q in range(p):
            if q not in chosen_set and parities[q]:
                sign = -sign
    return sign


def potential_layers(mu):
    """Map arity -> homogeneous layer element of a potential."""
    return {p - 1: mu.element.homogeneous_part(p)
            for p in mu.element.degrees()}


def generalized_jacobi(mu, exhaustive=False):
    """The generalized Jacobi identities of a graded family, term by term.

    Identity number q constrains q arguments: summed over splittings of
    the arguments into an outer block J and an inner block I,

        sum  sign(J, I) * op_{|J|+1}(a_J, op_{|I|}(a_I)) = 0,

    where op_s is the s-ary product of the degree-(s+1) layer and the sign
    is the Koszul sign of the reordering.  One report per identity index.
    Together they hold exactly when check_l_infinity passes.  Oracle only.
    """
    space = mu.space
    layers = potential_layers(mu)
    reports = {}
    if not layers:
        return reports
    for q in range(0, 2 * max(layers)):
        # splittings |J| = k', |I| = l with k'+l = q, needing layers k'+1, l
        pairs = [(kp, q - kp) for kp in range(q + 1)
                 if (kp + 1) in layers and (q - kp) in layers]
        if not pairs:
            continue
        violations = []
        for args in canonical_tuples(space, q):
            pars = [space.parity[i] for i in args]
            total = Element.zero(space)
            for kp, l in pairs:
                for outer_pos in combinations(range(q), kp):
                    inner_pos = [p for p in range(q) if p not in outer_pos]
                    sign = koszul_selection_sign(pars, list(outer_pos))
                    inner = nested_bracket_indices(
                        [args[p] for p in inner_pos], layers[l])
                    if inner.is_zero():
                        continue
                    outer = nested_bracket(
                        [Element.generator(space, args[p]) for p in outer_pos]
                        + [inner],
                        layers[kp + 1])
                    total = total + (outer if sign == 1 else -outer)
            if not total.is_zero():
                violations.append((args, total))
                if not exhaustive:
                    break
        reports[q] = _report(f"generalized-jacobi-{q}", violations, exhaustive)
    return reports
