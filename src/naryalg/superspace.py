"""Superspaces: a graded basis with parities and an even bilinear form.

The form is skew-symmetric in the graded sense, (a,b) = -(-1)^{|a||b|}(b,a).
Concretely the Gram matrix must be antisymmetric on even-even pairs,
symmetric on odd-odd pairs, and zero on mixed pairs; its shape and
entries are checked by ``linalg.square_matrix``.  Basis indices are
0-based everywhere inside the engine; serialization converts to 1-based.

``Superspace`` reads the form once: one row-major pass checks each pair
with a nonzero entry on either side, skipping two zeros uncompared, and
records ``pairing`` (each row's nonzeros as a ``linalg`` sparse row, by
graded symmetry also the column's) and ``orthonormal`` (pure odd with the
identity form), which the engine reads instead of ``gram``.
``permutation_sign`` signs the orientation and the Hodge star.

Every integer a caller gives a space is taken by one test, ``type(x) is
int`` and then its bound, so a float or a ``bool`` is refused with
``NaryError`` and never kept: each parity entry (0 or 1), and the counts
that ``_check_count`` decides, the dimension (which ``odd_space`` and
``even_symplectic_space`` check before building a matrix of that size)
and the degree cap; ``derived.canonical_tuples`` takes its length by the
same function, and each entry of an ``Orientation`` takes the same test.
An index into the basis is ``poisson._checked_word``'s to decide.

The space is the one owner of the degree cap ``max_degree``: a positive
int, 2 * dim when not given, and dim on a pure odd space, where no
monomial is longer; the space document's ``max_degree`` is read into it.
Every other object reads the space, and so the cap, off the element,
potential or structure it is given.
"""

from . import linalg
from .errors import (
    Degenerate,
    MixedParityEntry,
    NaryError,
    NotPureOdd,
    SymmetryViolation,
)

EVEN = 0
ODD = 1


def _check_count(x, what, least=1):
    """The engine's one count test: an int (not a bool) >= least."""
    if type(x) is not int or x < least:
        raise NaryError(f"{what} must be an int >= {least}, got {x!r}")


class Superspace:
    """Immutable: dimension, parity vector, Gram matrix, degree cap."""

    __slots__ = ("dim", "parity", "gram", "pairing", "orthonormal",
                 "max_degree", "pure_odd", "pure_even", "_rank")

    def __init__(self, dim, parity, gram, max_degree=None):
        _check_count(dim, "dimension")
        if max_degree is not None:
            _check_count(max_degree, "max_degree")
        if not isinstance(parity, (list, tuple)):
            raise NaryError(f"parity must be a list or tuple, got {parity!r}")
        if len(parity) != dim:
            raise NaryError("parity vector length != dim")
        for i, p in enumerate(parity):
            if type(p) is not int or p not in (EVEN, ODD):
                raise NaryError(f"parity[{i}] must be 0 (even) or 1 (odd), "
                                f"got {p!r}")
        parity = tuple(parity)
        gram = tuple(map(tuple, linalg.square_matrix(gram, dim)))
        pairing = []
        for i, row in enumerate(gram):
            pairing.append({})
            for j, x in enumerate(row):
                y = gram[j][i]
                if not x and not y:
                    continue
                if parity[i] != parity[j]:
                    if x:
                        raise MixedParityEntry(
                            f"gram[{i}][{j}] pairs generators of different parity")
                    continue
                if parity[i] == ODD and x != y:
                    raise SymmetryViolation(
                        f"odd-odd entry gram[{i}][{j}] must equal gram[{j}][{i}]")
                if parity[i] == EVEN and x != -y:
                    raise SymmetryViolation(
                        f"even-even entry gram[{i}][{j}] must equal -gram[{j}][{i}]")
                pairing[i][j] = x
        self.dim = dim
        self.parity = parity
        self.gram = gram
        self.pairing = tuple(pairing)  # read-only
        self.pure_odd = all(p == ODD for p in parity)
        self.pure_even = all(p == EVEN for p in parity)
        self.orthonormal = self.pure_odd and all(
            row == {i: 1} for i, row in enumerate(pairing))
        self._rank = None
        # pure odd spaces are bounded by dim automatically
        self.max_degree = dim if self.pure_odd else (
            max_degree if max_degree is not None else 2 * dim)

    def rank(self):
        """Rank of the Gram matrix, computed on first use."""
        if self._rank is None:
            self._rank = linalg.rank(self.pairing)
        return self._rank

    @property
    def nondegenerate(self):
        return self.rank() == self.dim

    def __eq__(self, other):
        return (isinstance(other, Superspace) and self.dim == other.dim
                and self.parity == other.parity and self.gram == other.gram)

    def __hash__(self):
        return hash((self.dim, self.parity, self.gram))

    def __repr__(self):
        kinds = "".join("o" if p else "e" for p in self.parity)
        return f"Superspace(dim={self.dim}, parity={kinds})"


def odd_space(m, gram=None):
    """Pure odd space; identity Gram matrix by default."""
    _check_count(m, "dimension")  # before a matrix of that size is built
    if gram is None:
        gram = linalg.identity(m)
    return Superspace(m, [ODD] * m, gram)


def even_symplectic_space(m, max_degree=None):
    """Pure even space of even dimension with the standard symplectic form."""
    _check_count(m, "dimension")
    if m % 2 != 0:
        raise NaryError("symplectic space needs even dimension")
    g = linalg.zeros(m, m)
    for i in range(0, m, 2):
        g[i][i + 1] = linalg.ONE
        g[i + 1][i] = -linalg.ONE
    return Superspace(m, [EVEN] * m, g, max_degree=max_degree)


def is_positive_definite(space):
    """Is the Gram matrix G of a pure odd space (symmetric there) positive
    definite?  Exactly when the coefficients of det(xI - G) strictly
    alternate in sign: G is symmetric, so every root is real and Descartes'
    rule of signs counts the positive ones exactly, m of them only if all
    m + 1 coefficients are nonzero and alternate.  Scaling G to integers by
    a positive factor keeps every sign.
    """
    if not space.pure_odd:
        raise NotPureOdd("positive definiteness is defined for pure odd spaces")
    b, _ = linalg.clear_denominators(space.gram)
    return all((-1) ** k * c > 0 for k, c in enumerate(linalg.charpoly(b)))


def require_nondegenerate(space):
    if not space.nondegenerate:
        raise Degenerate(f"form has rank {space.rank()} < {space.dim}")


def permutation_sign(seq):
    """(-1)^(number of inversions): the sign of the permutation sorting seq."""
    sign = 1
    for a, x in enumerate(seq):
        for y in seq[a + 1:]:
            if x > y:
                sign = -sign
    return sign


class Orientation:
    """An ordering of the basis fixing the sign of the top form: a list or
    tuple of ints (each by the one integer test) that permutes
    0..len(order)-1."""

    __slots__ = ("order", "sign")

    def __init__(self, order):
        if not isinstance(order, (list, tuple)):
            raise NaryError("orientation must be a list or tuple, "
                            f"got {order!r}")
        for i, x in enumerate(order):
            if type(x) is not int:
                raise NaryError(f"orientation[{i}] must be an int, got {x!r}")
        if sorted(order) != list(range(len(order))):
            raise NaryError("orientation must be a permutation of the basis indices")
        self.order = tuple(order)
        self.sign = permutation_sign(order)

    @classmethod
    def standard(cls, m):
        return cls(list(range(m)))
