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
are merged as w_<j, u-with-i-removed, w_>j; only the pairs that
``space.pairing`` lists as nonzero are visited.  It is the general bracket;
the tests compare it with a literal recursion on the three rules,
``tests/oracles.py::bracket_recursive_oracle``.  A bracket with a basis
vector (u = (a,)) is a signed contraction of one factor of w:
``nested_bracket_indices`` for one element, and ``derived.contractions``
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


def _check_degree(space, degree):
    if degree > space.max_degree:
        raise DegreeCapExceeded(
            f"monomial degree {degree} exceeds cap {space.max_degree}")


def _check_mono(space, mono):
    """Refuse a monomial above the degree cap or with an index outside the
    basis, read off its ends; its ascending order is not checked."""
    _check_degree(space, len(mono))
    if mono and (mono[0] < 0 or mono[-1] >= space.dim):
        raise NaryError(f"monomial {mono} has an index outside "
                        f"0..{space.dim - 1}")


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
        if not 0 <= i < space.dim:
            raise NaryError(f"generator index {i} out of range")
        _check_degree(space, 1)
        return cls._trusted(space, {(i,): ONE})

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
            _check_mono(space, mono)
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
    """[e_{i_1}, [e_{i_2}, ... [e_{i_s}, target] ... ]] by direct contraction.

    Bracketing a generator e_a with a sorted monomial w contracts a against
    one factor of w through the form:

        [e_a, w] = sum_j G[a][w_j] (-1)^{|a| |w_<j|} (w with w_j removed).

    The remaining word is still sorted and has no odd square, so each step
    reads ``space.pairing[a]`` of target's space, carries the running
    parity of w and needs no reordering; scalar terms vanish.  Every index
    is checked against the basis before any contraction.
    """
    space = target.space
    indices = list(indices)
    for i in reversed(indices):
        if not 0 <= i < space.dim:
            raise NaryError(f"generator index {i} out of range")
    pairing = space.pairing
    par = space.parity
    terms = target.terms
    for a in reversed(indices):
        if not terms:
            break
        row = pairing[a]
        odd = par[a]
        acc = {}
        for w, c in terms.items():
            p = 0
            for j, x in enumerate(w):
                g = row.get(x)
                if g is not None:
                    mono = w[:j] + w[j + 1:]
                    v = -c * g if odd and p else c * g
                    acc[mono] = acc.get(mono, ZERO) + v
                p ^= par[x]
        terms = {mono: c for mono, c in acc.items() if c}
    return Element._trusted(space, terms)


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
