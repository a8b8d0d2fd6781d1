"""Derived n-ary multiplications and their identity verifiers.

An element mu in S^{n+1}V defines an n-ary product on V through iterated
brackets, {a_1,...,a_n} = [a_1,[...,[a_n, mu]...]].  Such products are
always graded-commutative and invariant with respect to the form; when the
form is nondegenerate every commutative invariant structure arises this
way, and ``potential_from_structure`` inverts the construction exactly.

Bracketing with a generator is a signed contraction of one factor through
the form.  ``contractions`` computes every nested contraction of a
potential at once, contracting each shared suffix of the canonical tuples
once; derive_structure, check_filippov, the cubic criteria and Jordan's
inner [e_j, A_i] read it.  Its levels run on Python ints: mu's
coefficients are scaled by D, the lcm of their denominators, and the
form's entries by E, the lcm of theirs, so level j holds exactly D*E^j
times the true values, and each coefficient that survives level k is
turned back into a Fraction once, by one division by D*E^k (the proof is
in its docstring).  The inverse is a closed form
(Kosmann-Schwarzbach, "Derived brackets", 2004): with the dual basis
[dual[i], e_k] = delta_ik, the coefficient of e_b is
(dual[b_0], {dual[b_1],...,dual[b_n]}), the contraction of mu with those
dual vectors, divided by ``contraction_constant``, the same contraction of
e_b alone; it kills every other monomial.  ``closed_form_potential``
scatters the table through G^-1 onto the canonical b it reaches instead
of evaluating every b; the gather over dual vectors is the oracle
``tests/oracles.py::closed_form_by_duals``.  The potential is returned
only once derive_structure reproduces the input table; the inverse is
unique, so that comparison certifies it.

The verifiers reduce each universally quantified identity to finitely many
basis instances.  Multilinearity makes basis tuples sufficient, and the
built-in symmetry of the structures makes canonical tuples (indices
non-decreasing, odd indices strict) sufficient.  The work then follows the
nonzero structure constants instead of every canonical tuple: bracketing
with e_a contracts a against one factor of a monomial through the form,
so the suffix pass of derive_structure and check_filippov reaches only the
tuples whose contraction with the potential is nonzero; check_invariant
probes only the pairs where a table value can pair with a_0, reading
``space.pairing`` against the value's terms; and check_nary_jacobi
scatters each table entry into the Jacobiators it feeds.  A structure
decides once which of its entries are live (not odd squares) and reads its
operators L_t = s(e_t1, ..., e_t(n-1), -) in one pass over them
(``NaryStructure.operators``, which classify and frobenius read); the
checks loop over the live entries and
``check_commutative`` reports the rest.  Each check yields its violations
lazily in canonical order, and ``_report`` keeps the first, or every one
when ``exhaustive``, so a loop stops at the first violation otherwise.  The
gather loops over every canonical tuple are the oracles in
``tests/oracles.py``.  The loops run in one thread, since exact Fraction
work cannot run in parallel under the GIL.  Only check_nary_jacobi still
accepts a ``threads`` keyword, and ignores it: the baselines in
``perfbench/baselines.py`` pass it.

A structure's keys obey one rule, ``_check_key``: arity indices, each
taken by ``poisson._checked_word``'s one index rule (an ``int`` in
0..dim-1), non-decreasing, as ``poisson._check_mono`` is the one rule for
monomials.  ``NaryStructure(...)`` enforces it, with each value's space
and degree 1; what the engine builds itself (derive_structure, the refusal
path of ``frobenius.t_star_extension``, and ``io.parse_structure`` once
each key has passed the rule at its field) goes through
``NaryStructure._trusted``, so no key is checked twice.  A word given to
``eval_basis`` passes the same index rule before its parity is read, and
``eval_elements`` refuses an argument over another space.  Every count a
caller gives (a structure's or a potential's arity, the length n of
``canonical_tuples``) is an ``int``, never a ``bool`` or a float, at or
above its bound, as ``superspace`` takes a dimension.

The homotopy condition has one check here, check_l_infinity: [mu, mu] is
a scalar.  ``hodge`` reads the same condition off d^2 = 0, with no
bracket, as its module docstring proves.  The generalized Jacobi
identities it is equivalent to are evaluated term by term only by the
oracle ``generalized_jacobi`` in ``tests/oracles.py``.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, islice, product
from math import comb, factorial, lcm, prod

from . import linalg
from .errors import (
    DegreeCapExceeded,
    DegreeMismatch,
    NaryError,
    NotCommutative,
    NotInvariant,
    NotOdd,
    NotPureEven,
    NotPureOdd,
    SpaceMismatch,
    WrongDegree,
)
from .linalg import ZERO
from .poisson import Element, _checked_word, normalize_word, poisson_bracket
from .record import Record
from .superspace import _check_count, require_nondegenerate


# ---------------------------------------------------------------------------
# shared helpers


def canonical_tuples(space, n):
    """Non-decreasing index tuples of length n over the basis, in
    lexicographic order; odd indices never repeat."""
    _check_count(n, "tuple length", 0)
    parity = space.parity
    out = []

    def rec(start, k, prefix):
        if k == 0:
            out.append(tuple(prefix))
            return
        for i in range(start, space.dim):
            rec(i if parity[i] == 0 else i + 1, k - 1, prefix + [i])

    rec(0, n, [])
    return out


def _check_key(space, arity, key):
    """The engine's one structure-key rule: a word that
    ``poisson._checked_word``'s index rule takes, of ``arity`` indices,
    non-decreasing.  Returns it as a tuple."""
    key = _checked_word(space, key, "key")
    if len(key) != arity:
        raise NaryError(f"expected {arity} indices")
    if any(a > b for a, b in zip(key, key[1:])):
        raise NaryError("indices must be non-decreasing")
    return key


def contractions(mu, k):
    """{t: terms} of [e_t1, [..., [e_tk, mu]...]] for every canonical k-tuple
    t where it is nonzero, in one pass over the suffixes of t.

    The nested bracket takes the last index first, so the tuples that
    share the suffix (t_j, ..., t_k) share its contraction exactly.  Level
    0 is {(): mu}; level j+1 contracts each factor x of each term of each
    suffix s with every generator a that pairs with x (the partners
    (a, G[a][x]) are read once from ``space.pairing``), keeping a only
    where (a,) + s is canonical: a < s[0], or a == s[0] with a even.  This
    is ``poisson_bracket``'s closed form with u = (a,): the word left is
    still sorted, and each term is negated when a is odd and the factors
    before x have odd total parity.  The results are summed into one plain
    dict per new suffix, and zero coefficients are dropped between levels.
    Each suffix is contracted once; ``poisson.nested_bracket_indices`` is
    the per-tuple chain of brackets that the tests compare it with.

    The levels run on Python ints.  D is the lcm of the denominators of
    mu's coefficients and E that of the entries of ``space.pairing``;
    level 0 holds D*c for each coefficient c, and each partner carries E*g
    for its entry g.  Level j holds exactly D*E^j times the true values:
    at j = 0 by construction, and a level j+1 coefficient is a signed sum
    of products (D*E^j*c)(E*g) = D*E^(j+1)*(c*g), each the true product
    scaled by the same D*E^(j+1), so the sum is the true sum scaled by it.
    D*E^j > 0, so a scaled coefficient is zero exactly when the true one
    is, and the zero filter drops the same entries as on the true values;
    each surviving coefficient of level k is Fraction(c, D*E^k), exactly
    the true value, and nothing else is divided.
    """
    space = mu.space
    par = space.parity
    terms = mu.element.terms
    D = lcm(*(c.denominator for c in terms.values()))
    E = lcm(*(g.denominator for row in space.pairing for g in row.values()))
    partners = [[] for _ in range(space.dim)]
    for a, row in enumerate(space.pairing):  # ascending a, for the prune
        for x, g in row.items():
            partners[x].append((a, g.numerator * (E // g.denominator)))
    level = {(): {w: c.numerator * (D // c.denominator)
                  for w, c in terms.items()}} if terms else {}
    for _ in range(k):
        acc = {}
        for s, scaled in level.items():
            first = s[0] if s else space.dim
            for w, c in scaled.items():
                p = 0
                for j, x in enumerate(w):
                    for a, g in partners[x]:
                        if a > first or a == first and par[a]:
                            break
                        t = (a,) + s
                        node = acc.get(t)
                        if node is None:
                            node = acc[t] = {}
                        mono = w[:j] + w[j + 1:]
                        v = -c * g if par[a] and p else c * g
                        node[mono] = node.get(mono, 0) + v
                    p ^= par[x]
        level = {}
        for t, node in acc.items():
            node = {mono: c for mono, c in node.items() if c}
            if node:
                level[t] = node
    scale = D * E ** k
    return {t: {mono: Fraction(c, scale) for mono, c in node.items()}
            for t, node in level.items()}


def _report(name, violations, exhaustive, detail=""):
    """The report on lazy (witness, residual) violations in canonical
    order: the first, or all of them when ``exhaustive``."""
    found = list(violations if exhaustive else islice(violations, 1))
    if not found:
        return CheckReport(name, True)
    witness, residual = found[0]
    return CheckReport(name, False, witness=witness, residual=residual,
                       detail=detail, violations=found)


class CheckReport(Record):
    def __init__(self, name, passed, witness=None, residual=None, detail="",
                 violations=None):
        self.name = name
        self.passed = passed
        self.witness = witness  # a tuple
        self.residual = residual
        self.detail = detail
        self.violations = [] if violations is None else violations

    def __bool__(self):
        return self.passed


# ---------------------------------------------------------------------------
# potentials


class Potential:
    """A derived potential: one homogeneous element, or a graded family.

    Single-arity mode stores an element of S^{n+1}V for an n-ary product,
    n >= 1.  Family mode (for strong homotopy structures) stores an odd
    element whose homogeneous layer of degree k+1 encodes the k-ary
    operation, k >= 0.
    """

    __slots__ = ("space", "element", "arity", "family")

    def __init__(self, space, element, arity=None, family=False):
        if element.space != space:
            raise SpaceMismatch("potential element over a different space")
        self.space = space
        self.element = element
        self.family = family
        if family:
            self.arity = None
            for mono in element.terms:
                if len(mono) < 1:
                    raise DegreeMismatch("family layers must have degree >= 1")
            if not element.is_zero() and element.parity() != 1:
                raise NotOdd("a homotopy family must be an odd element")
        else:
            if arity is None:
                if element.is_zero():
                    raise DegreeMismatch("zero potential needs an explicit arity")
                arity = element.degree() - 1
            if type(arity) is not int or arity < 1:
                raise DegreeMismatch("single-arity potentials need arity >= 1")
            if not element.is_zero() and element.degree() != arity + 1:
                raise DegreeMismatch(
                    f"element degree {element.degree()} != arity {arity} + 1")
            self.arity = arity

    @classmethod
    def single(cls, space, element, arity=None):
        return cls(space, element, arity=arity)

    @classmethod
    def homotopy_family(cls, space, element):
        return cls(space, element, family=True)

    def is_odd(self):
        return self.element.is_zero() or self.element.parity() == 1

    def __repr__(self):
        kind = "family" if self.family else f"arity={self.arity}"
        return f"Potential({kind}, {self.element!r})"


# ---------------------------------------------------------------------------
# structures


class NaryStructure:
    """Structure constants of an n-ary product on V.

    The table maps non-decreasing index tuples to nonzero degree-1 elements
    (the value of the product on those basis vectors).  Values on permuted
    tuples are recovered through the Koszul sign rule, so the graded
    symmetry law is built into the representation; the only violation a
    table can encode is a nonzero value on a repeated odd index (an odd
    square), which the symmetry law forces to vanish.  ``live`` holds the
    entries that are not odd squares, the ones the product reads; it is
    decided once, here, for every loop over the values the product reads.
    """

    __slots__ = ("space", "arity", "table", "live")

    def __init__(self, space, arity, table):
        if type(arity) is not int or arity < 1:
            raise NaryError("structure arity must be >= 1")
        checked = {}
        for key, value in table.items():
            key = _check_key(space, arity, key)
            if value.space != space:
                raise SpaceMismatch("structure value over a different space")
            if any(len(m) != 1 for m in value.terms):
                raise WrongDegree(f"value at {key} is not a degree-1 element")
            checked[key] = value
        s = self._trusted(space, arity, checked)
        self.space, self.arity, self.table, self.live = \
            space, arity, s.table, s.live

    @classmethod
    def _trusted(cls, space, arity, table):
        """A structure on ``table`` as given: keys that ``_check_key``
        admits, degree-1 values over ``space``.  The zero values are
        dropped, and the odd squares are kept out of ``live``."""
        s = cls.__new__(cls)
        s.space, s.arity = space, arity
        parity = space.parity
        s.table, s.live = {}, {}
        for key, value in table.items():
            if not value.terms:
                continue
            s.table[key] = value
            if not any(a == b and parity[a] for a, b in zip(key, key[1:])):
                s.live[key] = value
        return s

    def _lookup(self, args):
        """(sign, table value) for basis arguments in any order, or None
        where the product is zero."""
        word = _checked_word(self.space, args)
        if len(word) != self.arity:
            raise NaryError(f"expected {self.arity} arguments")
        r = normalize_word(self.space, word)
        if r is None:
            return None
        sign, key = r
        value = self.table.get(key)
        return None if value is None else (sign, value)

    def eval_basis(self, args):
        """Product of basis vectors, arguments in any order."""
        hit = self._lookup(args)
        if hit is None:
            return Element.zero(self.space)
        sign, value = hit
        return value if sign == 1 else -value

    def eval_elements(self, args):
        """Multilinear extension to degree-1 elements, summed in one dict:
        one basis product per choice of a term from each argument."""
        if any(a.space != self.space for a in args):
            raise SpaceMismatch("argument over a different space")
        terms = [list(a.terms.items()) for a in args]
        if any(len(mono) != 1 for t in terms for mono, _ in t):
            raise WrongDegree("arguments must be degree-1 elements")
        acc = {}
        for picks in product(*terms):
            hit = self._lookup([mono[0] for mono, _ in picks])
            if hit is not None:
                sign, value = hit
                coeff = sign * prod(c for _, c in picks)
                for mono, v in value.terms.items():
                    acc[mono] = acc.get(mono, ZERO) + coeff * v
        return Element._trusted(
            self.space, {mono: c for mono, c in acc.items() if c})

    def is_zero(self):
        return not self.table

    def operators(self):
        """{t: L_t} for every nonzero L_t = s(e_t1, ..., e_t(n-1), -), t
        canonical, in lexicographic order of t.

        L_t is an operator in the format of the ``linalg`` docstring: it
        maps c to its column, the image of e_c as a sparse row
        {i: coefficient of e_i}, and leaves out the zero columns.
        It is scattered from the live entries in one pass: column c of L_t
        with t = K without c is s(K), and sorting t + (c,) into K moves c
        past the indices that follow it in K, so it is negated exactly when
        c is odd and an odd number of odd indices follow it.  Each (t, c)
        comes from the one key sorted(t + (c,)), once: a repeated (even)
        index gives one t.  So each entry of a column is written once, never
        summed.  The gather through ``eval_basis`` is the oracle
        ``tests/oracles.py::operators_by_gather``.
        """
        parity = self.space.parity
        ops = {}
        for key, value in self.live.items():
            for pos, c in enumerate(key):
                if pos and key[pos - 1] == c:
                    continue  # a repeated (even) index: one t
                t = key[:pos] + key[pos + 1:]
                flip = parity[c] and sum(parity[i] for i in t[pos:]) % 2
                col = ops.setdefault(t, {}).setdefault(c, {})
                for (i,), x in value.terms.items():
                    col[i] = -x if flip else x
        return dict(sorted(ops.items()))

    def __eq__(self, other):
        return (isinstance(other, NaryStructure) and self.space == other.space
                and self.arity == other.arity and self.table == other.table)


def derive_structure(mu):
    """Structure constants of the product derived from a potential.

    The nonzero entries are the n-th level of ``contractions``; the table
    is built in lexicographic key order.
    """
    if mu.family:
        raise NaryError("derive_structure needs a single-arity potential")
    space = mu.space
    level = contractions(mu, mu.arity)
    return NaryStructure._trusted(space, mu.arity, {
        t: Element._trusted(space, level[t]) for t in sorted(level)})


def check_commutative(s, exhaustive=False):
    """Graded symmetry (the only representable violation: odd squares)."""
    return _report("commutative",
                   ((key, s.table[key]) for key in sorted(s.table)
                    if key not in s.live),
                   exhaustive, "nonzero product on a repeated odd argument")


def check_invariant(s, exhaustive=False):
    """(a_0, {a_1,...,a_n}) = (-1)^{|a_0||a_1|} (a_1, {a_0, a_2,...,a_n}).

    Probed at the pairs (a_0, key), key canonical, where one side can be
    nonzero: key is live and a_0 pairs with a generator in the support of
    its value, or the word (a_0, key[1:]) normalizes to a live key and
    key[0] pairs with the support of that value.  Every other pair reads
    0 = 0.  Pairs are probed in (a_0, key) order.
    """
    space = s.space
    parity = space.parity
    items = set()
    for key, value in s.live.items():
        # the indices that pair with a generator of the value
        support = frozenset().union(*(space.pairing[x]
                                      for (x,) in value.terms))
        items.update((a0, key) for a0 in support)
        # the keys (k0,) + rest with (a0,) + rest normalizing to key
        for pos, a0 in enumerate(key):
            rest = key[:pos] + key[pos + 1:]
            for k0 in support:
                if rest and (k0 > rest[0] or k0 == rest[0] and parity[k0]):
                    continue
                items.add((a0, (k0,) + rest))

    def pair(a, value):
        # (e_a, value): the row of a read against the value's terms
        row = space.pairing[a]
        return sum((c * row[x] for (x,), c in value.terms.items()
                    if x in row), ZERO)

    def violations():
        for a0, key in sorted(items):
            lhs = pair(a0, s.eval_basis(key))
            rhs = pair(key[0], s.eval_basis((a0,) + key[1:]))
            if parity[a0] & parity[key[0]]:
                rhs = -rhs
            if lhs != rhs:
                yield (a0,) + key, lhs - rhs

    return _report("invariant", violations(), exhaustive)


def contraction_constant(space, b):
    """Full contraction of the monomial e_b with its own dual vectors.

    [dual[b_0], [dual[b_1], ... [dual[b_n], e_b] ...]] is
    (-1)^{k(k-1)/2} times the product of m! over the even indices of b with
    multiplicity m, where k counts the odd indices of b: bracketing with
    dual[i] differentiates by e_i, and the odd derivations pass the odd
    factors in front of them.
    """
    k = sum(space.parity[i] for i in b)
    kappa = -1 if k * (k - 1) // 2 % 2 else 1
    for i in set(b):  # an odd index occurs once, so its factor is 1
        kappa *= factorial(b.count(i))
    return kappa


def closed_form_potential(s):
    """The potential whose derived structure is s, if there is one.

    The coefficient of e_b is F_b / kappa_b with
    F_b = (dual[b_0], s(dual[b_1], ..., dual[b_n])) and
    dual[i] = sum_j (G^-1)[i][j] e_j: contracting mu with dual vectors
    kills every monomial but e_b.  F is scattered from the table instead
    of gathered per b.  Expanding the dual vectors, each key t with
    nonzero value, each e_y in that value and each distinct ordering j of
    t, with the Koszul sign of sorting j, add
    sign * v_y * prod_k (G^-1)[b_k][j_k] to F at b = (y, b_1, ..., b_n).
    The b_k are chosen slot by slot from the column supports of G^-1, and
    a branch stops as soon as its prefix of b is not canonical; for a
    permutation-like G^-1 (the identity, or the hyperbolic form of V + V*)
    at most one ordering per key survives.  Only the live keys are read: an
    odd square reads zero.  Not checked here; see
    ``potential_from_structure``.
    """
    space = s.space
    par = space.parity
    inv = linalg.inverse(space.gram)
    columns = [[(b, row[x]) for b, row in enumerate(inv) if row[x]]
               for x in range(space.dim)]
    acc = {}

    def scatter(prefix, rest, coeff):
        # prefix: canonical b_0..b_k so far; rest: sorted indices of the
        # key not yet placed
        if not rest:
            b = tuple(prefix)
            acc[b] = acc.get(b, ZERO) + coeff
            return
        last = prefix[-1]
        odd_before = 0
        for pos, x in enumerate(rest):
            if pos and x == rest[pos - 1]:
                continue  # a repeated (even) index: one ordering
            # placing x first passes the odd indices before it in rest
            flip = par[x] and odd_before % 2
            remaining = rest[:pos] + rest[pos + 1:]
            for b, g in columns[x]:
                if b > last or b == last and not par[b]:
                    prefix.append(b)
                    scatter(prefix, remaining, -coeff * g if flip
                            else coeff * g)
                    prefix.pop()
            odd_before += par[x]

    for key, value in s.live.items():
        for (y,), v in value.terms.items():
            scatter([y], list(key), v)
    terms = {b: acc[b] / contraction_constant(space, b)
             for b in sorted(acc) if acc[b]}
    return Potential.single(space, Element(space, terms), arity=s.arity)


def potential_from_structure(s):
    """Invert the derived-bracket construction (exact, unique).

    Requires a nondegenerate form and a commutative invariant structure.
    The potential is read off in closed form (``closed_form_potential``)
    and returned once its derived structure equals s; the inverse is
    unique, so that equality proves it.  Every derived structure is
    commutative and invariant, so only when the equality fails are the two
    laws checked, to report the broken one with its witness.  A closed
    form over the degree cap is likewise reported only for a structure
    that obeys both laws.
    """
    require_nondegenerate(s.space)
    try:
        mu = closed_form_potential(s)
    except DegreeCapExceeded as exc:
        failure = exc
    else:
        if derive_structure(mu).table == s.table:
            return mu
        failure = NotInvariant("structure is not derived from any potential")
    refuse_structure(s, failure)


def refuse_structure(s, failure):
    """Raise the law that s breaks, with its witness, else ``failure``.

    The refusal of a structure that no potential derives: graded
    commutativity is checked first, then invariance, and ``failure``
    (the inversion's own error) is raised only when s obeys both.
    ``potential_from_structure`` and ``frobenius.t_star_extension`` share
    it, so the two refuse alike.
    """
    rep = check_commutative(s)
    if not rep.passed:
        raise NotCommutative("structure is not graded-commutative",
                             witness=rep.witness)
    rep = check_invariant(s)
    if not rep.passed:
        raise NotInvariant("structure is not invariant", witness=rep.witness)
    raise failure


# ---------------------------------------------------------------------------
# identity checks


def check_l_infinity(mu):
    """Strong homotopy condition: [mu, mu] must be a scalar.

    Returns a report whose residual is the positive-degree part of
    [mu, mu] (the obstruction).
    """
    if not mu.is_odd():
        raise NotOdd("the homotopy condition is stated for odd elements")
    sq = poisson_bracket(mu.element, mu.element)
    obstruction = sq - sq.homogeneous_part(0)
    return CheckReport("l-infinity", obstruction.is_zero(),
                       residual=obstruction)


def check_nary_jacobi(s, exhaustive=False, threads=1):
    """Unshuffle Jacobi identity for an n-ary structure.

    For every canonical tuple (a_1,...,a_{2n-1}) the signed sum of
    {{a_I}, a_J} over unshuffles |I| = n, |J| = n-1 must vanish.

    The sum is scattered from the table instead of gathered per tuple:
    each live key I adds {{I}, J} into the residual of
    sorted(I + J), for every canonical J with no odd index in common with
    I.  The sign is -1 per pair (x in I, y in J) of odd indices with
    y < x, and the multiplicity counts the position splits of the sorted
    tuple that select I, prod_v C(#v in I + J, #v in I), more than 1 only
    for a repeated even v.  {{I}, J} vanishes unless (i,) + J normalizes
    to a live key for some i in the support of {I}, so J runs over the
    live keys with one index removed.  This is the same finite sum,
    reindexed; only nonzero accumulators are kept, and residuals are
    reported in canonical order.
    """
    space = s.space
    parity = space.parity
    outers = {}  # i -> the J with (i,) + J a permutation of a live key
    for key in s.live:
        for pos, i in enumerate(key):
            outers.setdefault(i, set()).add(key[:pos] + key[pos + 1:])
    acc = {}
    for inner, value in s.live.items():
        inner_odd = [x for x in inner if parity[x]]
        for J in set().union(*(outers.get(m[0], ()) for m in value.terms)):
            if any(parity[y] and y in inner_odd for y in J):
                continue
            crossings = sum(1 for y in J if parity[y]
                            for x in inner_odd if y < x)
            coeff = -1 if crossings % 2 else 1
            for v in set(inner):
                if not parity[v]:
                    coeff *= comb(inner.count(v) + J.count(v), inner.count(v))
            slot = acc.setdefault(tuple(sorted(inner + J)), {})
            for mono, c in value.terms.items():
                for (r,), d in s.eval_basis((mono[0],) + J).terms.items():
                    total = slot.get(r, 0) + coeff * c * d
                    if total:
                        slot[r] = total
                    else:
                        del slot[r]
    violations = ((args, Element(space, {(r,): c for r, c in slot.items()}))
                  for args, slot in sorted(acc.items()) if slot)
    return _report("nary-jacobi", violations, exhaustive)


def check_filippov(mu, exhaustive=False):
    """Derivation-style Jacobi: [mu_{a^{n-1}}, mu] = 0 for all a^{n-1}.

    Only the tuples t with mu_t nonzero, level n-1 of ``contractions``, are
    probed, in lexicographic order.
    """
    if not mu.space.pure_odd:
        raise NotPureOdd("the Filippov criterion is stated for pure odd spaces")
    if mu.family:
        raise NaryError("check_filippov needs a single-arity potential")
    space = mu.space
    level = contractions(mu, mu.arity - 1)

    def violations():
        for t in sorted(level):
            res = poisson_bracket(Element._trusted(space, level[t]),
                                  mu.element)
            if not res.is_zero():
                yield t, res

    return _report("filippov", violations(), exhaustive)


def _cubic_operators(mu, what):
    """{i: [e_i, mu]} for each generator e_i where it is nonzero, in
    ascending i, of a cubic potential on a pure even space."""
    if not mu.space.pure_even:
        raise NotPureEven(f"{what} is stated for pure even spaces")
    if mu.family:
        raise NaryError(f"{what} needs a single-arity potential")
    if mu.arity != 2:
        raise WrongDegree(f"{what} needs a cubic potential (arity 2)")
    level = contractions(mu, 1)
    return {i: Element._trusted(mu.space, level[(i,)])
            for (i,) in sorted(level)}


def check_jordan(A, exhaustive=False):
    """Jordan identity through the bracket criterion [A_x, A_{[A_x, x]}] = 0.

    The identity is cubic in x, so x is replaced by a formal combination
    sum t_i e_i and every coefficient of the expansion must vanish; over
    the rationals this is equivalent to the identity for all x.
    """
    A_ = _cubic_operators(A, "the Jordan criterion")
    space = A.space
    coeffs = {}
    # [e_j, A_i] = [e_j, [e_i, A]] is level 2 of contractions at
    # (a, b) = sorted((j, i)): on a pure even space [e_i, e_j] is a
    # scalar, so by Jacobi the two orders agree, and for a < b the pairs
    # (i, j) = (a, b) and (b, a) add the same term
    for (a, b), terms in contractions(A, 2).items():
        # A_i and e_j are even, so [A_i, e_j] = -[e_j, A_i]
        inner = poisson_bracket(-Element._trusted(space, terms), A.element)
        if inner.is_zero():
            continue
        for k, A_k in A_.items():
            term = poisson_bracket(A_k, inner)
            if term.is_zero():
                continue
            key = tuple(sorted((k, a, b)))
            coeffs[key] = coeffs.get(key, Element.zero(space)) + \
                (term if a == b else term.scale(2))
    violations = ((key, val) for key, val in sorted(coeffs.items())
                  if not val.is_zero())
    return _report("jordan", violations, exhaustive)


def check_associative(mu, exhaustive=False):
    """Associativity criterion: [mu_a, mu_b] = 0 on basis vectors; a pair
    with a zero mu_a or mu_b reads 0 = 0 and is not bracketed."""
    mu_ = _cubic_operators(mu, "the associativity criterion")

    def violations():
        for i, j in combinations_with_replacement(mu_, 2):
            res = poisson_bracket(mu_[i], mu_[j])
            if not res.is_zero():
                yield (i, j), res

    return _report("associative", violations(), exhaustive)


def check_derivation(w, mu):
    """Is ad w an invariant derivation of the derived product?  [w, mu] = 0."""
    if not w.is_zero() and w.degree() != 2:
        raise WrongDegree("derivations correspond to degree-2 elements")
    return poisson_bracket(w, mu.element).is_zero()
