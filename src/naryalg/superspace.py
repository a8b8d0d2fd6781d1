"""Superspaces: a graded basis with parities and an even bilinear form.

The form is skew-symmetric in the graded sense, (a,b) = -(-1)^{|a||b|}(b,a).
Concretely the Gram matrix must be antisymmetric on even-even pairs,
symmetric on odd-odd pairs, and zero on mixed pairs.  Basis indices are
0-based everywhere inside the engine; serialization converts to 1-based.
"""

import os
from fractions import Fraction

from . import linalg
from .errors import (
    Degenerate,
    MixedParityEntry,
    NaryError,
    NotPureOdd,
    SchemaError,
    SymmetryViolation,
)

EVEN = 0
ODD = 1

_ENV_MAX_DEGREE = "NARY_MAX_DEGREE"


def _env_max_degree(env):
    """The degree cap set by NARY_MAX_DEGREE: a positive int, or an error."""
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise SchemaError(_ENV_MAX_DEGREE,
                          f"expected a positive integer, got {env!r}")
    return cap


class Superspace:
    """Immutable: dimension, parity vector, Gram matrix, degree cap."""

    __slots__ = ("dim", "parity", "gram", "nondegenerate", "max_degree",
                 "pure_odd", "pure_even", "_rank")

    def __init__(self, dim, parity, gram, max_degree=None):
        if dim < 1:
            raise NaryError("dimension must be >= 1")
        if len(parity) != dim:
            raise NaryError("parity vector length != dim")
        if len(gram) != dim or any(len(row) != dim for row in gram):
            raise NaryError("gram must be dim x dim")
        parity = tuple(int(p) & 1 for p in parity)
        gram = tuple(tuple(linalg.exact(x) for x in row) for row in gram)
        for i in range(dim):
            for j in range(dim):
                if parity[i] != parity[j]:
                    if gram[i][j] != 0:
                        raise MixedParityEntry(
                            f"gram[{i}][{j}] pairs generators of different parity")
                elif parity[i] == ODD:
                    if gram[i][j] != gram[j][i]:
                        raise SymmetryViolation(
                            f"odd-odd entry gram[{i}][{j}] must equal gram[{j}][{i}]")
                else:
                    if gram[i][j] != -gram[j][i]:
                        raise SymmetryViolation(
                            f"even-even entry gram[{i}][{j}] must equal -gram[{j}][{i}]")
        self.dim = dim
        self.parity = parity
        self.gram = gram
        self.pure_odd = all(p == ODD for p in parity)
        self.pure_even = all(p == EVEN for p in parity)
        self._rank = linalg.rank(linalg.sparse(gram))
        self.nondegenerate = self._rank == dim
        if max_degree is None:
            env = os.environ.get(_ENV_MAX_DEGREE)
            if env is not None:
                max_degree = _env_max_degree(env)
        # pure odd spaces are bounded by dim automatically
        self.max_degree = dim if self.pure_odd else (
            max_degree if max_degree is not None else 2 * dim)

    def rank(self):
        return self._rank

    def __eq__(self, other):
        return (isinstance(other, Superspace) and self.dim == other.dim
                and self.parity == other.parity and self.gram == other.gram)

    def __hash__(self):
        return hash((self.dim, self.parity, self.gram))

    def __repr__(self):
        kinds = "".join("o" if p else "e" for p in self.parity)
        return f"Superspace(dim={self.dim}, parity={kinds})"


def odd_space(m, gram=None, max_degree=None):
    """Pure odd space; identity Gram matrix by default."""
    if gram is None:
        gram = linalg.identity(m)
    return Superspace(m, [ODD] * m, gram, max_degree=max_degree)


def even_symplectic_space(m, max_degree=None):
    """Pure even space of even dimension with the standard symplectic form."""
    if m % 2 != 0:
        raise NaryError("symplectic space needs even dimension")
    g = linalg.zeros(m, m)
    for i in range(0, m, 2):
        g[i][i + 1] = Fraction(1)
        g[i + 1][i] = Fraction(-1)
    return Superspace(m, [EVEN] * m, g, max_degree=max_degree)


def is_positive_definite(space):
    """Exact Sylvester test on a pure odd (hence symmetric) Gram matrix."""
    if not space.pure_odd:
        raise NotPureOdd("positive definiteness is defined for pure odd spaces")
    g = space.gram
    for k in range(1, space.dim + 1):
        minor = [[g[i][j] for j in range(k)] for i in range(k)]
        if linalg.det(minor) <= 0:
            return False
    return True


def require_nondegenerate(space):
    if not space.nondegenerate:
        raise Degenerate(f"form has rank {space.rank()} < {space.dim}")


class Orientation:
    """An ordering of the basis fixing the sign of the top form."""

    __slots__ = ("order", "sign")

    def __init__(self, order):
        if sorted(order) != list(range(len(order))):
            raise NaryError("orientation must be a permutation of the basis indices")
        self.order = tuple(order)
        sign = 1
        seen = [False] * len(order)
        for i in range(len(order)):
            if seen[i]:
                continue
            # cycle length parity
            j, clen = i, 0
            while not seen[j]:
                seen[j] = True
                j = order[j]
                clen += 1
            if clen % 2 == 0:
                sign = -sign
        self.sign = sign

    @classmethod
    def standard(cls, m):
        return cls(list(range(m)))
