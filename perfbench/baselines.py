"""Reproduce the hand-taken baselines quoted in ROADMAP.md ("Recent").

Not a workload and not gated: prints each measurement beside the value
the ROADMAP quotes.  Run through ``python3 perfbench/run.py --baselines``
(which puts src/ on the path); the m=11 Hodge case alone takes ~20 s.
"""

import random
import statistics
import time
from fractions import Fraction

from naryalg import (Element, HodgeContext, NaryStructure, Potential,
                     check_nary_jacobi, check_quasi_frobenius,
                     derive_structure, graph_subalgebra_test,
                     hodge_decomposition, odd_space, star,
                     t_star_extension)


def seconds(fn, repeat=1):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def hodge_star12(m):
    space = odd_space(m)
    ctx = HodgeContext(space)
    mu = Potential.single(space, star(ctx, Element.monomial(space, (0, 1))))
    return lambda: hodge_decomposition(ctx, mu)


def random_binary(rng, m):
    """The generator of acceptance criterion 11."""
    space = odd_space(m)
    table = {}
    for i in range(m):
        for j in range(i + 1, m):
            vec = {}
            for k in range(m):
                c = rng.randint(-2, 2)
                if c and rng.random() < 0.5:
                    vec[(k,)] = Fraction(c)
            if vec:
                table[(i, j)] = Element(space, vec)
    phi = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            c = Fraction(rng.randint(-2, 2))
            phi[i][j], phi[j][i] = c, -c
    return space, NaryStructure(space, 2, table), phi


def tstar_x30():
    rng = random.Random(200)
    cases = [random_binary(rng, 4) for _ in range(30)]
    return lambda: [t_star_extension(sp, s) for sp, s, _ in cases]


def criterion_11():
    def loop():
        rng = random.Random(200)
        for _ in range(100):
            sp, s, phi = random_binary(rng, rng.choice([2, 3, 4]))
            ext = t_star_extension(sp, s)
            assert check_quasi_frobenius(sp, s, phi).passed == \
                graph_subalgebra_test(ext, phi)
    return loop


def jacobi_m11(threads):
    space = odd_space(11)
    mu = Potential.single(space, Element.monomial(space, (0, 1, 2, 3))
                          + Element.monomial(space, (4, 5, 6, 7)))
    s = derive_structure(mu)
    return lambda: check_nary_jacobi(s, threads=threads)


BASELINES = [
    ("hodge_decomposition star(e1e2) m=9", 0.63, hodge_star12(9), 3),
    ("hodge_decomposition star(e1e2) m=11", 18.5, hodge_star12(11), 1),
    ("t_star_extension x30 at m=4", 2.8, tstar_x30(), 3),
    ("acceptance criterion 11 loop", 6.7, criterion_11(), 1),
    ("check_nary_jacobi m=11 arity 3 threads=1", 0.029, jacobi_m11(1), 5),
    ("check_nary_jacobi m=11 arity 3 threads=2", 0.037, jacobi_m11(2), 5),
]


def main():
    print(f"{'baseline':44s} {'measured s':>11s} {'ROADMAP s':>10s} "
          f"{'ratio':>7s}")
    for name, quoted, fn, repeat in BASELINES:
        got = seconds(fn, repeat)
        print(f"{name:44s} {got:11.3f} {quoted:10.3f} {got / quoted:7.2f}",
              flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
