"""Elements of the symmetric superalgebra S*(V) and its Poisson bracket.

Monomials are tuples of generator indices, sorted ascending, with repeats
allowed only for even generators (odd squares vanish).  ``_checked_word``
is the engine's one index rule, as ``linalg.exact`` is its one scalar
rule: every generator index a caller gives is an ``int`` (not a ``bool``)
in 0..dim-1, or it is refused with a plain ``NaryError`` naming the word
("{what} {word} has an index outside 0..dim-1").  ``Element.generator``,
``Element.monomial``, ``Element.coefficient``, ``derived``'s structure
keys and lookups all pass through it.  ``_check_mono`` is the engine's one
monomial rule: the index rule first, then that order, no odd square and
the length within the degree cap.  ``Element`` enforces it on every term
it is given, and ``io.parse_element`` refuses a document's monomial by the
same rule at its field.  The canonical sign
of a reordering is the Koszul sign: -1 for every transposition of two odd
factors.  Elements are sparse maps monomial -> Fraction.

The bracket is the even Poisson structure determined by three rules:

    [x, y] = (x, y)                      on generators,
    [v, w1*w2] = [v,w1]*w2 + (-1)^{|v||w1|} w1*[v,w2],
    [v, w] = -(-1)^{|v||w|} [w, v].

``poisson_bracket`` implements the closed form these rules force: a double
sum over factor pairs, where pairing factor i of u with factor j of w
carries the sign (-1)^{|u| |w_<j| + |u_>i| |w_j|} and the surviving factors
are merged as w_<j, u-with-i-removed, w_>j; only the pairs that
``space.pairing`` lists as nonzero are visited.  It is the engine's one
bracket; the tests compare it with a literal recursion on the three rules,
``tests/oracles.py::bracket_recursive_oracle``.  ``nested_bracket`` chains
it, and ``nested_bracket_indices`` chains it with generators.  A bracket
with a basis vector (u = (a,)) is a signed contraction of one factor of
w; ``derived.contractions`` is the one pass that takes those contractions
for every canonical tuple of a potential at once.

Every element carries its space, so no function here takes one beside
an element: each reads it off its elements, and one that takes two
refuses a pair over different spaces with ``SpaceMismatch``.  The space
also carries the degree cap that each new monomial is checked against.
"""

from fractions import Fraction

from .errors import DegreeCapExceeded, NaryError, SpaceMismatch, WrongDegree
from .linalg import ONE, ZERO, exact


def mono_parity(space, mono):
    p = 0
    for i in mono:
        p ^= space.parity[i]
    return p


def normalize_word(space, word):
    """Sort a generator word; return (koszul sign, tuple) or None on an odd square."""
    w = list(word)
    par = space.parity
    sign = 1
    for i in range(1, len(w)):
        x = w[i]
        px = par[x]
        j = i - 1
        while j >= 0 and w[j] > x:
            if px and par[w[j]]:
                sign = -sign
            w[j + 1] = w[j]
            j -= 1
        w[j + 1] = x
    for a, b in zip(w, w[1:]):
        if a == b and par[a]:
            return None
    return sign, tuple(w)


def _checked_word(space, word, what="word"):
    """``word`` as a tuple of generator indices: the engine's one index
    rule.  Each index is an ``int`` (never a ``bool``) in 0..dim-1, and it
    is checked before ``normalize_word`` or a monomial rule reads its
    parity."""
    word = tuple(word)
    dim = space.dim
    for i in word:
        if type(i) is not int or not 0 <= i < dim:
            raise NaryError(f"{what} {word} has an index outside "
                            f"0..{dim - 1}")
    return word


def _check_mono(space, mono):
    """The engine's one monomial rule: indices inside the basis (by
    ``_checked_word``), ascending, no odd generator twice, and at most the
    degree cap.  The pairs are read in order and the first bad one is
    named."""
    _checked_word(space, mono, "monomial")
    par = space.parity
    for a, b in zip(mono, mono[1:]):
        if a >= b:
            if a > b:
                raise NaryError("indices must be ascending")
            if par[b]:
                raise NaryError("repeated odd generator")
    if len(mono) > space.max_degree:
        raise DegreeCapExceeded(
            f"monomial degree {len(mono)} exceeds cap {space.max_degree}")


class Element:
    """Sparse element of S*(V); immutable by convention."""

    __slots__ = ("space", "terms")

    def __init__(self, space, terms=None):
        self.space = space
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                # exact's fast path, inline: this is the hot path
                c = coeff if type(coeff) is Fraction else exact(coeff)
                if c == 0:
                    continue
                _check_mono(space, mono)
                clean[mono] = c
        self.terms = clean

    # ---- constructors ----

    @classmethod
    def _trusted(cls, space, terms):
        """An element on ``terms`` as given: nonzero Fraction coefficients
        on monomials already checked against the space."""
        el = cls.__new__(cls)
        el.space = space
        el.terms = terms
        return el

    @classmethod
    def zero(cls, space):
        return cls(space)

    @classmethod
    def scalar(cls, space, c):
        return cls(space, {(): exact(c)})

    @classmethod
    def generator(cls, space, i):
        word = _checked_word(space, (i,), "generator")
        return cls._trusted(space, {word: ONE})

    @classmethod
    def monomial(cls, space, word, coeff=ONE):
        """Product of generators in the given order (canonicalized with sign)."""
        r = normalize_word(space, _checked_word(space, word))
        if r is None:
            return cls.zero(space)
        sign, mono = r
        return cls(space, {mono: sign * exact(coeff)})

    # ---- structure ----

    def is_zero(self):
        return not self.terms

    def degrees(self):
        return sorted({len(m) for m in self.terms})

    def degree(self):
        ds = self.degrees()
        if len(ds) != 1:
            raise WrongDegree(f"element is not homogeneous: degrees {ds}")
        return ds[0]

    def parity(self):
        ps = {mono_parity(self.space, m) for m in self.terms}
        if len(ps) > 1:
            return None
        return ps.pop() if ps else 0

    def homogeneous_part(self, p):
        return Element(self.space,
                       {m: c for m, c in self.terms.items() if len(m) == p})

    def coefficient(self, word):
        r = normalize_word(self.space, _checked_word(self.space, word))
        if r is None:
            return ZERO
        sign, mono = r
        return sign * self.terms.get(mono, ZERO)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    # ---- arithmetic ----

    def _require_same_space(self, other):
        if self.space != other.space:
            raise SpaceMismatch("elements live over different superspaces")

    def __add__(self, other):
        self._require_same_space(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, ZERO) + c
        return Element(self.space, acc)

    def __sub__(self, other):
        self._require_same_space(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, ZERO) - c
        return Element(self.space, acc)

    def __neg__(self):
        return Element(self.space, {m: -c for m, c in self.terms.items()})

    def scale(self, c):
        c = exact(c)
        if c == 0:
            return Element.zero(self.space)
        return Element(self.space, {m: c * v for m, v in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, Element) and self.space == other.space
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.space, tuple(self.sorted_terms())))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono, c in self.sorted_terms():
            name = "1" if not mono else "".join(f"e{i + 1}" for i in mono)
            bits.append(f"({c})*{name}")
        return " + ".join(bits)


def multiply(a, b):
    """Supercommutative product in S*(V)."""
    a._require_same_space(b)
    space = a.space
    acc = {}
    for u, cu in a.terms.items():
        for w, cw in b.terms.items():
            r = normalize_word(space, u + w)
            if r is None:
                continue
            sign, mono = r
            acc[mono] = acc.get(mono, ZERO) + sign * cu * cw
    return Element(space, acc)


def _word_parity_prefix(space, word):
    """prefix[k] = parity of word[:k]."""
    pre = [0] * (len(word) + 1)
    p = 0
    for k, i in enumerate(word):
        p ^= space.parity[i]
        pre[k + 1] = p
    return pre


def _bracket_monomials(space, u, w, acc, scale):
    pairing = space.pairing
    par = space.parity
    pu = _word_parity_prefix(space, u)
    pw = _word_parity_prefix(space, w)
    u_par = pu[len(u)]
    for i, ui in enumerate(u):
        # parity of the factors of u after position i
        u_after = pu[len(u)] ^ pu[i + 1]
        row = pairing[ui]
        for j, wj in enumerate(w):
            g = row.get(wj)
            if g is None:
                continue
            exp = (u_par & pw[j]) ^ (u_after & par[wj])
            r = normalize_word(space, w[:j] + u[:i] + u[i + 1:] + w[j + 1:])
            if r is None:
                continue
            sign, mono = r
            c = scale * g * sign
            if exp:
                c = -c
            acc[mono] = acc.get(mono, ZERO) + c


def poisson_bracket(a, b):
    """The bracket of two elements (closed form)."""
    a._require_same_space(b)
    space = a.space
    acc = {}
    for u, cu in a.terms.items():
        for w, cw in b.terms.items():
            if not u or not w:
                continue  # bracket with scalars vanishes
            _bracket_monomials(space, u, w, acc, cu * cw)
    return Element(space, acc)


def nested_bracket(args, target):
    """[a_1, [a_2, ... [a_s, target] ... ]] for a list of elements."""
    out = target
    for a in reversed(list(args)):
        out = poisson_bracket(a, out)
    return out


def nested_bracket_indices(indices, target):
    """[e_{i_1}, [e_{i_2}, ... [e_{i_s}, target] ... ]]: ``nested_bracket``
    of the generators of target's space.  ``Element.generator`` takes
    every index by the one index rule before any bracket is taken."""
    space = target.space
    return nested_bracket([Element.generator(space, i) for i in indices],
                          target)


def pair_vectors(a, b):
    """(a, b) for two degree-1 elements over one space, through its
    ``pairing``."""
    a._require_same_space(b)
    total = ZERO
    for u, cu in a.terms.items():
        if len(u) != 1:
            raise WrongDegree("pairing is defined on degree-1 elements")
        for w, cw in b.terms.items():
            if len(w) != 1:
                raise WrongDegree("pairing is defined on degree-1 elements")
            total += cu * cw * a.space.pairing[u[0]].get(w[0], ZERO)
    return total
