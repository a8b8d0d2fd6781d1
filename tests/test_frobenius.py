"""Cotangent extension and the quasi-Frobenius correspondence."""

import json
import random
from fractions import Fraction
from itertools import combinations, count, product

import pytest

from naryalg import cli, derived, frobenius, io, linalg
from naryalg.cli import main
from naryalg.derived import NaryStructure, Potential, derive_structure
from naryalg.errors import NaryError, NotCommutative, NotInvariant, \
    OddArity, SpaceMismatch
from naryalg.frobenius import (
    check_quasi_frobenius,
    doubled_space,
    graph_subalgebra_test,
    graph_vectors,
    t_star_extension,
)
from naryalg.poisson import Element, pair_vectors
from naryalg.superspace import odd_space
from oracles import (
    cotangent_table,
    graph_by_pairings,
    qf_by_ordered_loop,
    t_star_by_inversion,
)

V2 = odd_space(2)


def odd_space_doc(m):
    return {"schema": io.SCHEMA, "dim": m, "parity": ["odd"] * m,
            "gram": [["1" if i == j else "0" for j in range(m)]
                     for i in range(m)]}


@pytest.fixture
def write_json(tmp_path):
    names = count()

    def write(obj):
        path = tmp_path / f"{next(names)}.json"
        path.write_text(json.dumps(obj))
        return str(path)
    return write


def lie_xy_structure():
    # the two-dimensional algebra {x, y} = y
    return NaryStructure(V2, 2, {(0, 1): Element.generator(V2, 1)})


def random_anticommutative(rng, m, arity=2):
    sp = odd_space(m)
    table = {}
    for i in range(m):
        for j in range(i + 1, m):
            vec = {}
            for k in range(m):
                c = rng.randint(-2, 2)
                if c and rng.random() < 0.5:
                    vec[(k,)] = Fraction(c)
            if vec:
                table[(i, j)] = Element(sp, vec)
    return sp, NaryStructure(sp, arity, table)


def random_phi(rng, m):
    phi = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            c = Fraction(rng.randint(-2, 2))
            phi[i][j] = c
            phi[j][i] = -c
    return phi


def test_doubled_space_pairing():
    ws = doubled_space(3)
    assert ws.dim == 6 and ws.pure_odd and ws.nondegenerate
    assert ws.gram[0][3] == 1 and ws.gram[3][0] == 1 and ws.gram[0][0] == 0


def test_phi_must_be_graded_symmetric():
    s = lie_xy_structure()
    ext = t_star_extension(V2, s)
    with pytest.raises(NaryError):
        check_quasi_frobenius(V2, s, [[1, 0], [0, 1]])
    with pytest.raises(NaryError):
        graph_subalgebra_test(ext, [[1, 0], [0, 1]])
    check_quasi_frobenius(V2, s, [[0, 1], [-1, 0]])
    graph_subalgebra_test(ext, [[0, 1], [-1, 0]])


def test_extension_of_zero_structure():
    ext = t_star_extension(V2, NaryStructure(V2, 2, {}))
    assert ext.potential.element.is_zero()


def test_extension_dual_action_frozen():
    # muT(x, y*)(y) = -y*({x,y}) = -1
    ext = t_star_extension(V2, lie_xy_structure())
    val = ext.structure.eval_basis((0, 3))
    assert val.coefficient((3,)) == -1
    # no component back in V, and no component on x*
    assert val.coefficient((2,)) == 0
    assert all(i >= 2 for monomial in val.terms for i in monomial)


def test_extension_restricts_to_base():
    rng = random.Random(19)
    for _ in range(10):
        sp, s = random_anticommutative(rng, rng.choice([2, 3]))
        ext = t_star_extension(sp, s)
        for key in s.table:
            lifted = ext.structure.eval_basis(key)
            want = s.eval_basis(key)
            assert all(lifted.coefficient((i,)) == want.coefficient((i,))
                       for i in range(sp.dim))


def test_extension_kills_two_dual_arguments():
    rng = random.Random(23)
    sp, s = random_anticommutative(rng, 3)
    ext = t_star_extension(sp, s)
    m = sp.dim
    for i in range(m, 2 * m):
        for j in range(i, 2 * m):
            if i == j:
                continue
            assert ext.structure.eval_basis((i, j)).is_zero()


def test_extension_structure_is_invariant():
    from naryalg.derived import check_commutative, check_invariant
    rng = random.Random(29)
    sp, s = random_anticommutative(rng, 3)
    ext = t_star_extension(sp, s)
    assert check_commutative(ext.structure).passed
    assert check_invariant(ext.structure).passed


def test_extension_structure_is_derived_from_its_potential():
    sp, s = random_anticommutative(random.Random(37), 3)
    ext = t_star_extension(sp, s)
    assert derive_structure(ext.potential) == ext.structure


@pytest.mark.parametrize("duals", [0, 1, 2, 3])
def test_forged_extension_potential_rejected(duals, monkeypatch):
    """One extra monomial with the given number of dual indices.

    Each kind breaks one defining identity: the restriction to the base (0),
    the action on one dual argument (1), or the vanishing on two or more
    dual arguments (2, 3); the single certificate catches all of them.
    """
    sp, s = random_anticommutative(random.Random(37), 3)
    m = sp.dim
    forged = tuple(range(3 - duals)) + tuple(m + i for i in range(duals))
    original = frobenius.cotangent_potential

    def forge(s, ws):
        mu = original(s, ws)
        extra = Element.monomial(ws, forged)
        return Potential.single(ws, mu.element + extra, arity=s.arity)

    monkeypatch.setattr(frobenius, "cotangent_potential", forge)
    with pytest.raises(NotInvariant):
        t_star_extension(sp, s)


def _fraction(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 4))


def random_cotangent_case(rng, m, n, density, odd_squares=0):
    """Any table over a pure odd space with fractional coefficients, plus
    ``odd_squares`` entries on keys with a repeated index."""
    sp = odd_space(m)
    table = {}
    for key in combinations(range(m), n):
        if rng.random() < density:
            vec = {(k,): _fraction(rng) for k in range(m)
                   if rng.random() < density}
            if vec:
                table[key] = Element(sp, vec)
    while odd_squares:
        key = tuple(sorted(rng.choice(range(m)) for _ in range(n)))
        if len(set(key)) < n and key not in table:
            table[key] = Element(sp, {(rng.randrange(m),): _fraction(rng)})
            odd_squares -= 1
    return sp, NaryStructure(sp, n, table)


def test_cotangent_potential_matches_the_closed_form():
    """muT in one pass equals the closed-form inversion of the hand-built
    table, and the derived extension equals that table, on 240 seeded
    structures with m = 1-6, arity 1-4 and fractional coefficients."""
    rng = random.Random(61)
    seen = {"arity-1": 0, "arity-4": 0, "zero": 0, "nonzero": 0}
    for trial in range(240):
        m = rng.randint(1, 6)
        n = rng.randint(1, min(4, m))
        density = 0.0 if trial % 10 == 0 else rng.choice([0.2, 0.5, 1.0])
        sp, s = random_cotangent_case(rng, m, n, density)
        hand = cotangent_table(sp, s)
        muT = frobenius.cotangent_potential(s, doubled_space(m))
        want = derived.closed_form_potential(hand)
        assert list(muT.element.terms.items()) == \
            list(want.element.terms.items()), trial
        assert muT.arity == want.arity == n
        ext = t_star_extension(sp, s)
        assert ext.structure == hand
        assert ext.potential.element == muT.element
        old = t_star_by_inversion(sp, s)
        assert (ext.potential.element, ext.structure) == \
            (old.potential.element, old.structure)
        seen["arity-1"] += n == 1
        seen["zero"] += s.is_zero()
        seen["arity-4"] += n == 4
        seen["nonzero"] += not s.is_zero()
    assert all(count >= 20 for count in seen.values()), seen


def _refusal(build, space, s):
    try:
        build(space, s)
    except (NotCommutative, NotInvariant) as ex:
        return type(ex), str(ex), ex.witness
    raise AssertionError("no refusal")


def test_odd_squares_refused_as_by_the_inversion(write_json, capsys,
                                                 monkeypatch):
    """An odd square is refused with the inversion's error, witness and
    CLI stderr bytes, alone or among live entries, at every position."""
    rng = random.Random(67)
    witnesses = set()
    for trial in range(60):
        n = 2 + trial % 3
        m = rng.randint(n, 5)
        density = rng.choice([0.0, 0.3, 1.0])
        sp, s = random_cotangent_case(rng, m, n, density,
                                      odd_squares=1 + trial % 2)
        got = _refusal(t_star_extension, sp, s)
        assert got == _refusal(t_star_by_inversion, sp, s)
        assert got[0] is NotCommutative and got[2] not in s.live
        key = got[2]
        witnesses.add(next(i for i in range(n - 1) if key[i] == key[i + 1]))
        if trial % 4 or n % 2:  # odd arity is refused before the extension
            continue
        phi = {"schema": io.SCHEMA, "matrix": [["0"] * m for _ in range(m)]}
        argv = ["frobenius", "--space", write_json(odd_space_doc(m)),
                "--structure", write_json(io.structure_to_json(s)),
                "--phi", write_json(phi), "--graph"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert json.loads(err)["kind"] == "NotCommutative"
        monkeypatch.setattr(cli, "t_star_extension", t_star_by_inversion)
        assert main(argv) == 2
        assert capsys.readouterr().err == err
        monkeypatch.undo()
    assert witnesses == {0, 1, 2}


def test_extension_makes_no_generic_inversion(monkeypatch):
    """The success path calls neither linalg.inverse nor the inversion
    ``potential_from_structure``, and builds one doubled table."""
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(linalg, "inverse", counted("inverse", linalg.inverse))
    for module in (derived, frobenius):
        for name in ("potential_from_structure", "closed_form_potential",
                     "require_nondegenerate"):
            fn = getattr(module, name, None)
            if fn is not None:
                monkeypatch.setattr(module, name, counted(name, fn))
    trusted = NaryStructure._trusted  # every structure is built through it

    def counted_trusted(space, arity, table):
        if space.dim == 2 * m:
            calls["doubled table"] = calls.get("doubled table", 0) + 1
        return trusted(space, arity, table)

    monkeypatch.setattr(NaryStructure, "_trusted",
                        staticmethod(counted_trusted))
    rng = random.Random(71)
    for trial in range(20):
        m = rng.randint(2, 5)
        sp, s = random_anticommutative(rng, m)
        calls.clear()
        t_star_extension(sp, s)
        assert calls == {"doubled table": 1}, trial


def test_quasi_frobenius_zero_structure_any_phi():
    rng = random.Random(31)
    s = NaryStructure(V2, 2, {})
    assert check_quasi_frobenius(V2, s, random_phi(rng, 2)).passed


def test_quasi_frobenius_lie_example():
    # cyclic sums of {x,y} = y with phi(x,y) = 1 cancel on every tuple
    cert = check_quasi_frobenius(V2, lie_xy_structure(), [[0, 1], [-1, 0]])
    assert cert.passed
    assert cert.phi_rank == 2


def test_quasi_frobenius_failure_witness():
    rng = random.Random(37)
    found = False
    for _ in range(40):
        sp, s = random_anticommutative(rng, 3)
        cert = check_quasi_frobenius(sp, s, random_phi(rng, 3))
        if not cert.passed:
            assert cert.witness is not None and cert.residual != 0
            found = True
            break
    assert found


def test_frobenius_refuses_a_structure_over_another_space(monkeypatch):
    # the space given must be the structure's own: a mismatch is refused
    # before any work, never read as a smaller or a larger space
    V4, V6 = odd_space(4), odd_space(6)
    _, s4 = random_anticommutative(random.Random(7), 4)
    s6 = NaryStructure(V6, 2, {(3, 5): Element.generator(V6, 0)})
    phi6 = [[Fraction(0)] * 6 for _ in range(6)]
    phi6[1][0], phi6[0][1] = Fraction(1), Fraction(-1)
    cert = check_quasi_frobenius(V6, s6, phi6)
    assert (cert.passed, cert.witness) == (False, (1, 3, 5))
    phi4 = [row[:4] for row in phi6[:4]]
    mu6 = Potential.single(V6, Element.monomial(V6, (0, 3, 5)))

    def no_work(*args):
        raise AssertionError("derived a structure before the refusal")

    monkeypatch.setattr(frobenius, "derive_structure", no_work)
    for refused in (lambda: check_quasi_frobenius(V6, s4, phi6),
                    lambda: t_star_extension(V4, s6),
                    lambda: t_star_extension(V6, s4),
                    lambda: check_quasi_frobenius(V4, s6, phi4),
                    lambda: t_star_extension(V4, mu6),
                    lambda: check_quasi_frobenius(V4, mu6, phi4)):
        with pytest.raises(SpaceMismatch):
            refused()


def test_quasi_frobenius_rejects_odd_arity_without_flag():
    sp = odd_space(3)
    s = NaryStructure(sp, 3, {})
    with pytest.raises(OddArity):
        check_quasi_frobenius(sp, s, random_phi(random.Random(0), 3))
    cert = check_quasi_frobenius(sp, s, random_phi(random.Random(0), 3),
                                 allow_odd_arity=True)
    assert cert.passed and cert.odd_arity


def test_degenerate_phi_rank_reported():
    rng = random.Random(41)
    sp, s = random_anticommutative(rng, 3)
    phi = [[Fraction(0)] * 3 for _ in range(3)]
    phi[0][1], phi[1][0] = Fraction(1), Fraction(-1)
    cert = check_quasi_frobenius(sp, s, phi)
    assert cert.phi_rank == 2  # rank of a 3x3 skew matrix with one block


def test_graph_vectors_isotropic():
    rng = random.Random(43)
    for _ in range(10):
        sp, s = random_anticommutative(rng, rng.choice([2, 3, 4]))
        phi = random_phi(rng, sp.dim)
        ext = t_star_extension(sp, s)
        b = graph_vectors(ext, phi)
        for x in b:
            for y in b:
                assert pair_vectors(x, y) == 0


def test_graph_with_zero_phi_is_base_space():
    ext = t_star_extension(V2, lie_xy_structure())
    assert graph_subalgebra_test(ext, [[0, 0], [0, 0]])


def test_correspondence_on_random_cases():
    rng = random.Random(47)
    agree = 0
    positive = 0
    for _ in range(100):
        sp, s = random_anticommutative(rng, rng.choice([2, 3, 4]))
        phi = random_phi(rng, sp.dim)
        ext = t_star_extension(sp, s)
        cert = check_quasi_frobenius(sp, s, phi)
        graph_ok = graph_subalgebra_test(ext, phi)
        assert cert.passed == graph_ok
        agree += 1
        positive += cert.passed
    assert agree == 100
    assert 0 < positive < 100


def test_graph_test_matches_the_pairing_oracle():
    rng = random.Random(49)
    verdicts = set()
    for trial in range(40):
        sp, s = random_anticommutative(rng, rng.choice([2, 3, 4, 5]))
        m = sp.dim
        phi = (random_phi(rng, m) if trial % 4
               else [[Fraction(0)] * m for _ in range(m)])
        ext = t_star_extension(sp, s)
        got = graph_subalgebra_test(ext, phi)
        assert got == graph_by_pairings(ext, phi)
        verdicts.add(got)
    assert verdicts == {True, False}


def test_pairing_identity_exact():
    # (muT(b_i1,...,b_in), b_{i_{n+1}}) equals the cyclic sum of phi terms
    rng = random.Random(53)
    for _ in range(20):
        sp, s = random_anticommutative(rng, rng.choice([2, 3]))
        m = sp.dim
        phi = random_phi(rng, m)
        ext = t_star_extension(sp, s)
        b = graph_vectors(ext, phi)
        for args in product(range(m), repeat=3):
            img = ext.structure.eval_elements([b[args[0]], b[args[1]]])
            lhs = pair_vectors(img, b[args[2]])
            rhs = Fraction(0)
            for t in range(3):
                rot = args[t:] + args[:t]
                vec = s.eval_basis(rot[1:])
                rhs += sum((phi[rot[0]][mono[0]] * c
                            for mono, c in vec.terms.items()), Fraction(0))
            assert lhs == rhs


def random_table_structure(rng, m, n, density):
    # any table over a pure odd space, invariant or not
    sp = odd_space(m)
    table = {}
    for key in combinations(range(m), n):
        if rng.random() < density:
            vec = {(k,): Fraction(rng.randint(-3, 3)) for k in range(m)
                   if rng.random() < density}
            table[key] = Element(sp, vec)
    return sp, NaryStructure(sp, n, table)


@pytest.mark.parametrize("n, dims", [(1, (2, 3, 4, 5, 6)), (2, (3, 4, 5, 6)),
                                     (3, (4, 5)), (4, (5, 6))])
@pytest.mark.parametrize("exhaustive", [False, True])
def test_quasi_frobenius_matches_ordered_loop(n, dims, exhaustive):
    # the engine keeps one witness, so it agrees with the oracle both ways
    rng = random.Random(1000 * n + exhaustive)
    outcomes = set()
    for trial in range(12):
        m = rng.choice(dims)
        density = rng.choice([0.15, 0.5, 1.0])
        sp, s = random_table_structure(rng, m, n, density)
        phi = (random_phi(rng, m) if trial % 4
               else [[Fraction(0)] * m for _ in range(m)])
        got = check_quasi_frobenius(sp, s, phi, allow_odd_arity=True)
        want = qf_by_ordered_loop(s, phi, exhaustive=exhaustive)
        assert (got.passed, got.witness, got.residual, got.phi_rank,
                got.odd_arity) == (want.passed, want.witness, want.residual,
                                   want.phi_rank, want.odd_arity)
        outcomes.add(got.passed)
    assert outcomes == {True, False}


def test_quasi_frobenius_m12_quartic_answers():
    # 12^5 = 248,832 ordered tuples, but only C(12, 5) = 792 are probed
    rng = random.Random(59)
    sp, s = random_table_structure(rng, 12, 4, 0.05)
    phi = random_phi(rng, 12)
    cert = check_quasi_frobenius(sp, s, phi)
    assert not cert.passed
    w = cert.witness
    assert list(w) == sorted(set(w))

    def cyclic(args):
        return sum((phi[rot[0]][mono[0]] * c
                    for rot in (args[t:] + args[:t] for t in range(5))
                    for mono, c in s.eval_basis(rot[1:]).terms.items()),
                   Fraction(0))

    assert cert.residual == cyclic(w) != 0
    assert all(cyclic(args) == 0 for args in combinations(range(12), 5)
               if args < w)


@pytest.mark.parametrize("m, n", [(8, 5), (23, 6)])
def test_quasi_frobenius_refuses_loop_above_budget(m, n):
    # 8^6 = 262,144 ordered tuples at odd arity; C(23, 7) = 245,157 at even
    sp = odd_space(m)
    s = NaryStructure(sp, n, {})
    phi = [[Fraction(0)] * m for _ in range(m)]
    with pytest.raises(NaryError, match="work budget"):
        check_quasi_frobenius(sp, s, phi, allow_odd_arity=True)
