"""Exact linear algebra over the rationals.

The subspace routines ``rank``, ``row_space``, ``same_subspace`` and
``nullspace`` take a sized collection of sparse rows and return lists of
them.  A sparse row is a dict {column: coefficient} with no zeros stored;
its column keys are any mutually comparable hashables (ints, or the
monomial tuples of ``hodge``).  A sparse row does not know its width, so
``nullspace`` is also given the ordered column keys.

Dense matrices, lists of rows of Fractions (ints are accepted as entries),
stay only in ``rref``, ``solve``, ``inverse``, ``det`` and the
matrix-arithmetic helpers, which serve small square matrices; ``sparse``
converts a dense matrix at that boundary.

Every elimination runs through one kernel: a fraction-free sparse
Gauss-Jordan elimination over integer rows, in the sense of Bareiss,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination" (1968).  Each input row is cleared of denominators and every
working row is kept primitive (divided by the gcd of its entries).  The
kernel has two halves:

* the forward pass, ``reduce_into`` over the input rows, which stores one
  working row per leading column;
* the back-substitution in ``_eliminate``, which turns the stored rows into
  the reduced row echelon form.

``rref``, ``nullspace``, ``row_space`` and ``same_subspace`` run both and
read the reduced row echelon form, which is unique, so no answer depends on
the kernel's pivot order.  ``rank`` runs the forward pass alone, in
``_forward``, where each working row also records the integer combination
of input rows it comes from, and an input row that reduces to zero leaves
that combination behind as a dependency.  ``rank`` returns only after
``_check_rank_certificate`` has checked the forward pass against the input
rows by multiply-and-compare code that shares nothing with the kernel:

* rank >= r: each of the r stored rows is nonzero with its least column as
  its key, so they are independent, and each is its recorded combination
  of input rows divided by its scale;
* rank <= r: the stored rows come from r distinct input rows, and every
  other input row is empty or carries a dependency that names it and
  otherwise stored rows only and that the input annihilates, so it lies in
  the span of the stored rows.

``bareiss_rank`` is a dense fraction-free rank kept as a test oracle; no
engine code calls it.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import InexactCoefficient, NaryError

ZERO = Fraction(0)
ONE = Fraction(1)


def exact(c):
    """c as a Fraction; a float is refused, not expanded in binary."""
    if isinstance(c, float):
        raise InexactCoefficient(f"float coefficient {c!r}: give an int, "
                                 "a Fraction or a 'p/q' string")
    return Fraction(c)


def zeros(rows, cols):
    return [[ZERO] * cols for _ in range(rows)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = ONE
    return m


def copy_matrix(a):
    return [row[:] for row in a]


def transpose(a):
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def mat_mul(a, b):
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    out = zeros(n, m)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c == 0:
                continue
            bt = b[t]
            for j in range(m):
                if bt[j] != 0:
                    oi[j] += c * bt[j]
    return out


def mat_vec(a, v):
    return [sum((c * x for c, x in zip(row, v) if c != 0), ZERO) for row in a]


def is_zero_matrix(a):
    return all(x == 0 for row in a for x in row)


def sparse(a):
    """The rows of a dense matrix as sparse rows {column index: entry}."""
    return [{c: x for c, x in enumerate(row) if x} for row in a]


# ---------------------------------------------------------------------------
# the elimination kernel
#
# A working row is a triple (vec, comb, scale): vec is a primitive sparse
# integer row {column: int}, comb a sparse integer combination
# {input row index: int}, and scale a positive int, with
#     scale * vec == sum(comb[j] * a[j] for j in comb).
# ``_eliminate`` needs no combination: it starts every row with comb {} and
# scale 1, and they stay so.


def _primitive(vec, comb, scale):
    """Divide vec by its content, then comb and scale by their common gcd."""
    h = gcd(*vec.values())
    if h > 1:
        vec = {c: x // h for c, x in vec.items()}
        scale *= h
    g = gcd(scale, *comb.values())
    if g > 1:
        comb = {j: x // g for j, x in comb.items()}
        scale //= g
    return vec, comb, scale


def _clear(work, piv, col):
    """Integer combination of work and piv with a zero in column col.

    The combination is merged even when the row vanishes: it is then a
    dependency among the input rows.
    """
    vec, comb, scale = work
    pvec, pcomb, pscale = piv
    a, b = pvec[col], vec[col]
    g = gcd(a, b)
    a, b = a // g, b // g                     # new vec = a*vec - b*pvec
    s = lcm(scale, pscale)
    new = {c: a * x for c, x in vec.items()} if a != 1 else dict(vec)
    for c, x in pvec.items():
        y = new.get(c, 0) - b * x
        if y:
            new[c] = y
        else:
            del new[c]
    fu, fw = a * (s // scale), b * (s // pscale)
    merged = {j: fu * x for j, x in comb.items()}
    for j, x in pcomb.items():
        y = merged.get(j, 0) - fw * x
        if y:
            merged[j] = y
        else:
            del merged[j]
    return _primitive(new, merged, s)


def reduce_into(lead_rows, vec, comb, scale):
    """The kernel's forward step: reduce a working row against lead_rows.

    lead_rows maps each leading column to a stored working row.  The row
    (vec, comb, scale) is cleared at each leading column it shares with a
    stored row; if anything survives, it is stored under its new leading
    column with a positive leading entry.  Returns ``(lead, comb)``: the
    leading column it is stored under and its combination, or None and the
    combination that reduced to zero.
    """
    vec, comb, scale = _primitive(vec, comb, scale)
    while vec:
        lead = min(vec)
        piv = lead_rows.get(lead)
        if piv is None:
            if vec[lead] < 0:
                vec = {c: -x for c, x in vec.items()}
                comb = {i: -x for i, x in comb.items()}
            lead_rows[lead] = (vec, comb, scale)
            return lead, comb
        vec, comb, scale = _clear((vec, comb, scale), piv, lead)
    return None, comb


def _integral(row):
    """(ints, den): the sparse row times den, the lcm of its denominators."""
    entries = [(c, x) for c, x in row.items() if x]
    if not entries:
        return {}, 1
    den = lcm(*(x.denominator for _, x in entries))
    return {c: x.numerator * (den // x.denominator) for c, x in entries}, den


def _forward(rows):
    """The kernel's forward pass over the sparse rows, with combinations.

    Returns ``(lead_rows, deps)``.  lead_rows maps each leading column to a
    stored working row (vec, comb, scale); the largest index in comb is the
    input row it comes from.  deps maps the index j of each nonzero input
    row that reduced to zero to its dependency comb: comb[j] != 0, its
    other indices are those of stored rows, and
    ``sum(comb[i] * rows[i] for i in comb) == 0``.
    """
    lead_rows, deps = {}, {}
    for j, row in enumerate(rows):
        vec, den = _integral(row)
        if vec:
            lead, comb = reduce_into(lead_rows, vec, {j: den}, 1)
            if lead is None:
                deps[j] = comb
    return lead_rows, deps


def _eliminate(rows):
    """Fraction-free Gauss-Jordan elimination of the sparse rows.

    Returns ``(echelon, pivots)``: the nonzero rows of the reduced row
    echelon form as sparse Fraction rows, and their pivot columns in
    increasing order.  No combination is tracked.
    """
    lead_rows = {}                            # leading column -> working row
    for row in rows:
        vec, _ = _integral(row)
        if vec:
            reduce_into(lead_rows, vec, {}, 1)
    pivots = sorted(lead_rows)
    # back substitution, last pivot first: a pivot row is already clear of
    # every later pivot column when it is used to clear the rows above it
    for k in range(len(pivots) - 1, 0, -1):
        p = pivots[k]
        piv = lead_rows[p]
        for q in pivots[:k]:
            if p in lead_rows[q][0]:
                lead_rows[q] = _clear(lead_rows[q], piv, p)
    echelon = []
    for p in pivots:
        vec = lead_rows[p][0]
        head = vec[p]
        echelon.append({c: Fraction(x, head) for c, x in vec.items()})
    return echelon, pivots


def _check_rank_certificate(rows, lead_rows, deps):
    """Raise NaryError unless the forward pass proves rank == len(lead_rows).

    Uses nothing but products of the input rows with the stored rows and
    the recorded combinations.
    """
    # integral entries as ints, which multiply faster than Fractions
    given = [{c: x.numerator if x.denominator == 1 else x
              for c, x in row.items() if x} for row in rows]
    n = len(given)

    def combine(comb):
        acc = {}
        for j, c in comb.items():
            if j not in range(n):
                raise NaryError(f"rank certificate: no input row {j!r}")
            for col, x in given[j].items():
                acc[col] = acc.get(col, 0) + c * x
        return {col: x for col, x in acc.items() if x}

    # rank >= r: nonzero rows with distinct least columns, in the row space
    origins = []
    for lead, (vec, comb, scale) in lead_rows.items():
        if not vec or min(vec) != lead:
            raise NaryError(f"rank certificate: stored row {lead!r} does "
                            "not lead at its key")
        if not scale or combine(comb) != {c: scale * x
                                          for c, x in vec.items()}:
            raise NaryError(f"rank certificate: combination does not give "
                            f"stored row {lead!r}")
        origins.append(max(comb))
    # rank <= r: every other input row is empty or depends on stored rows
    stored = set(origins)
    empty = [j for j, row in enumerate(given) if not row]
    indices = origins + list(deps) + empty
    if len(indices) != n or set(indices) != set(range(n)):
        raise NaryError("rank certificate: input rows are not each stored, "
                        "dependent or empty exactly once")
    for j, comb in deps.items():
        if not comb.get(j) or not comb.keys() - {j} <= stored:
            raise NaryError(f"rank certificate: dependency of row {j} does "
                            "not name it and stored rows only")
        if combine(comb):
            raise NaryError(f"rank certificate: dependency of row {j} does "
                            "not vanish")


# ---------------------------------------------------------------------------
# public routines, all on top of the kernel


def rref(a):
    """Reduced row echelon form of a dense matrix.  Returns (R, pivots)."""
    echelon, pivots = _eliminate(sparse(a))
    cols = len(a[0]) if a else 0
    dense = [[row.get(c, ZERO) for c in range(cols)] for row in echelon]
    return dense + [[ZERO] * cols for _ in range(len(a) - len(dense))], pivots


def rank(rows):
    """Rank of the sparse rows, returned once its certificate is checked.

    Runs the forward pass alone: no back-substitution, no Fraction.
    """
    lead_rows, deps = _forward(rows)
    _check_rank_certificate(rows, lead_rows, deps)
    return len(lead_rows)


def nullspace(rows, columns):
    """Canonical kernel basis of the sparse rows over the column keys.

    columns lists every column key, in increasing order; the basis has one
    sparse vector per free column of the reduced row echelon form.
    """
    echelon, pivots = _eliminate(rows)
    pivset = set(pivots)
    basis = []
    for f in columns:
        if f in pivset:
            continue
        v = {f: ONE}
        for row, p in zip(echelon, pivots):
            x = row.get(f)
            if x:
                v[p] = -x
        basis.append(v)
    return basis


def solve(a, b):
    """One solution of A x = b, or None if inconsistent."""
    if not a:
        return None
    cols = len(a[0])
    aug = [row + [bv] for row, bv in zip(a, b)]
    r, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for ri, pc in enumerate(pivots):
        x[pc] = r[ri][cols]
    return x


def inverse(a):
    """Exact inverse of a square matrix: the RREF of [a | I] is [I | a^-1]."""
    n = len(a)
    eye = identity(n)
    r, pivots = rref([list(row) + eye[i] for i, row in enumerate(a)])
    if pivots != list(range(n)):
        raise NaryError("matrix is singular")
    return [row[n:] for row in r]


def row_space(rows):
    """The nonzero RREF rows: a canonical basis of the span of the rows."""
    return _eliminate(rows)[0]


def same_subspace(a, b):
    """Do the sparse rows a and b span the same subspace?"""
    return row_space(a) == row_space(b)


# ---------------------------------------------------------------------------
# independent routines


def bareiss_rank(a):
    """Dense fraction-free rank, sharing no code with the kernel.

    A test oracle for ``rank``; no engine code calls it.
    """
    if not a or not a[0]:
        return 0
    # clear denominators row by row so all entries are integers
    m = []
    for row in a:
        den = lcm(*(x.denominator for x in row))
        m.append([int(x * den) for x in row])
    rows, cols = len(m), len(m[0])
    prev = 1
    rk = 0
    pr = 0
    for pc in range(cols):
        piv = None
        for i in range(pr, rows):
            if m[i][pc] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[pr], m[piv] = m[piv], m[pr]
        for i in range(pr + 1, rows):
            for j in range(pc + 1, cols):
                m[i][j] = (m[pr][pc] * m[i][j] - m[i][pc] * m[pr][j]) // prev
            m[i][pc] = 0
        prev = m[pr][pc]
        rk += 1
        pr += 1
        if pr == rows:
            break
    return rk


def det(a):
    """Determinant by fraction-free Bareiss on a copy."""
    n = len(a)
    if n == 0:
        return ONE
    m = copy_matrix(a)
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
                return ZERO
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) / prev
            m[i][k] = ZERO
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
