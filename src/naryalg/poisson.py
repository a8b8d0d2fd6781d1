"""Elements of the symmetric superalgebra S*(V) and its Poisson bracket.

Monomials are tuples of generator indices, sorted ascending, with repeats
allowed only for even generators (odd squares vanish).  The canonical sign
of a reordering is the Koszul sign: -1 for every transposition of two odd
factors.  Elements are sparse maps monomial -> Fraction.

The bracket is the even Poisson structure determined by three rules:

    [x, y] = (x, y)                      on generators,
    [v, w1*w2] = [v,w1]*w2 + (-1)^{|v||w1|} w1*[v,w2],
    [v, w] = -(-1)^{|v||w|} [w, v].

``poisson_bracket`` implements the closed form these rules force: a double
sum over factor pairs, where pairing factor i of u with factor j of w
carries the sign (-1)^{|u| |w_<j| + |u_>i| |w_j|} and the surviving factors
are merged as w_<j, u-with-i-removed, w_>j.  ``bracket_recursive_oracle``
applies the defining rules literally with no contraction formula and is
kept as an independent cross-check.
"""

from fractions import Fraction

from .errors import DegreeCapExceeded, NaryError, SpaceMismatch, WrongDegree
from .linalg import exact

ZERO = Fraction(0)
ONE = Fraction(1)


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


def _check_cap(space, mono):
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
                c = coeff if type(coeff) is Fraction else exact(coeff)
                if c == 0:
                    continue
                _check_cap(space, mono)
                clean[mono] = c
        self.terms = clean

    # ---- constructors ----

    @classmethod
    def zero(cls, space):
        return cls(space)

    @classmethod
    def scalar(cls, space, c):
        return cls(space, {(): exact(c)})

    @classmethod
    def generator(cls, space, i):
        if not 0 <= i < space.dim:
            raise NaryError(f"generator index {i} out of range")
        return cls(space, {(i,): ONE})

    @classmethod
    def monomial(cls, space, word, coeff=ONE):
        """Product of generators in the given order (canonicalized with sign)."""
        r = normalize_word(space, tuple(word))
        if r is None:
            return cls.zero(space)
        sign, mono = r
        return cls(space, {mono: sign * exact(coeff)})

    # ---- structure ----

    def is_zero(self):
        return not self.terms

    def degrees(self):
        return sorted({len(m) for m in self.terms})

    def is_homogeneous(self):
        return len(self.degrees()) <= 1

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
        r = normalize_word(self.space, tuple(word))
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
            _check_cap(space, mono)
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
    gram = space.gram
    par = space.parity
    pu = _word_parity_prefix(space, u)
    pw = _word_parity_prefix(space, w)
    u_par = pu[len(u)]
    for i, ui in enumerate(u):
        # parity of the factors of u after position i
        u_after = pu[len(u)] ^ pu[i + 1]
        for j, wj in enumerate(w):
            g = gram[ui][wj]
            if g == 0:
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


def bracket_recursive_oracle(a, b):
    """Bracket by literal recursion on the defining rules.  Slow; oracle only."""
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


def nested_bracket(args, target):
    """[a_1, [a_2, ... [a_s, target] ... ]] for a list of elements."""
    out = target
    for a in reversed(list(args)):
        out = poisson_bracket(a, out)
    return out


def nested_bracket_indices(space, indices, target):
    out = target
    for i in reversed(list(indices)):
        out = poisson_bracket(Element.generator(space, i), out)
    return out


def pair_vectors(space, a, b):
    """(a, b) for two degree <= 1 elements, through the Gram matrix."""
    total = ZERO
    for u, cu in a.terms.items():
        if len(u) != 1:
            raise WrongDegree("pairing is defined on degree-1 elements")
        for w, cw in b.terms.items():
            if len(w) != 1:
                raise WrongDegree("pairing is defined on degree-1 elements")
            total += cu * cw * space.gram[u[0]][w[0]]
    return total
