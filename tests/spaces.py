"""Random superspaces, elements and even isometries for property tests."""

import operator
from fractions import Fraction

from naryalg import linalg
from naryalg.poisson import Element
from naryalg.superspace import EVEN, ODD, Superspace


def random_scalar(rng):
    return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))


def random_gram(rng, parity, density=0.5):
    """A graded symmetric rational Gram matrix: skew on the even indices,
    symmetric on the odd ones, zero across; about ``density`` nonzero."""
    m = len(parity)
    g = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            if parity[i] != parity[j] or rng.random() > density:
                continue
            x = random_scalar(rng)
            if parity[i] == ODD:
                g[i][j] = g[j][i] = x
            elif i != j:
                g[i][j], g[j][i] = x, -x
    return g


def random_superspace(rng, m, density=0.5):
    """A space of dimension m with random parities and ``random_gram``."""
    parity = [rng.choice((EVEN, ODD)) for _ in range(m)]
    return Superspace(m, parity, random_gram(rng, parity, density))


def random_homogeneous(space, rng, degree, terms=3):
    """Random element, homogeneous in degree and parity."""
    acc = Element.zero(space)
    want_parity = None
    for _ in range(terms * 3):
        word = tuple(sorted(rng.randrange(space.dim) for _ in range(degree)))
        el = Element.monomial(space, word, rng.randint(-4, 4))
        if el.is_zero():
            continue
        if want_parity is None:
            want_parity = el.parity()
        if el.parity() != want_parity:
            continue
        acc = acc + el
        if len(acc.terms) >= terms:
            break
    return acc


def random_even_isometry(rng, space, steps=3):
    """An even phi with phi^T G phi = G and det +1.

    A product of symplectic transvections x -> x + c (v, x) v with v even
    (they preserve the skew even part) and of pairs of reflections
    x -> x - 2 (v, x) / (v, v) v with v odd and (v, v) != 0 (they preserve
    the symmetric odd part; two of them keep det +1).
    """
    m, g = space.dim, space.gram
    phi = linalg.identity(m)

    def vector(parity):
        return [random_scalar(rng) if p == parity else Fraction(0)
                for p in space.parity]

    def covector(v):
        # w with (v, x) = w . x
        return [sum((v[i] * g[i][j] for i in range(m)), Fraction(0))
                for j in range(m)]

    def apply(v, c):
        # x -> x + c (v, x) v is the matrix I + c v w^T
        w = covector(v)
        t = [[int(i == j) + c * v[i] * w[j] for j in range(m)]
             for i in range(m)]
        return linalg.mat_mul(t, phi)

    def norm(v):
        return sum(map(operator.mul, covector(v), v))

    for _ in range(steps):
        if EVEN in space.parity:
            phi = apply(vector(EVEN), random_scalar(rng))
        if ODD in space.parity:
            pair = [v for v in (vector(ODD) for _ in range(6)) if norm(v)][:2]
            if len(pair) == 2:
                for v in pair:
                    phi = apply(v, -2 / norm(v))
    return phi
