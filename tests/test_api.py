"""One source per input: a public function takes a space only where
nothing else it is given carries one, and the degree cap only where a
space is built.  No function takes a parameter that it never reads, and
every index, arity and dimension a caller gives is an int inside its
bound or refused with the site's own NaryError."""

import ast
import importlib
import inspect
import os
import pkgutil
import random

import pytest

import naryalg
from naryalg.derived import NaryStructure, Potential, canonical_tuples
from naryalg.errors import DegreeMismatch, NaryError
from naryalg.poisson import Element, nested_bracket_indices
from naryalg.superspace import (
    Superspace,
    even_symplectic_space,
    odd_space,
)
from spaces import random_superspace

# every public function, method and record of naryalg.* with a ``space``
# parameter
SPACE_TAKERS = {
    # constructors of what carries a space, and their records
    "poisson.Element", "poisson.Element.zero", "poisson.Element.scalar",
    "poisson.Element.generator", "poisson.Element.monomial",
    "derived.Potential", "derived.Potential.single",
    "derived.Potential.homotopy_family", "derived.NaryStructure",
    "hodge.HodgeContext", "hodge.HodgeReport", "frobenius.TStarExtension",
    # readers given nothing else that carries a space
    "poisson.mono_parity", "poisson.normalize_word",
    "superspace.is_positive_definite", "superspace.require_nondegenerate",
    "derived.canonical_tuples", "derived.contraction_constant",
    "classify.skew_to_element", "io.parse_element", "io.parse_potential",
    "io.parse_structure",
    # given a structure too, which must live over the space given
    # (SpaceMismatch otherwise)
    "frobenius.t_star_extension", "frobenius.check_quasi_frobenius",
}


def public_callables():
    """{qualified name: parameter names} over the modules of naryalg."""
    out = {}
    for info in pkgutil.iter_modules(naryalg.__path__):
        module = importlib.import_module(f"naryalg.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or \
                    getattr(obj, "__module__", None) != module.__name__:
                continue
            where = f"{info.name}.{name}"
            if inspect.isfunction(obj):
                out[where] = list(inspect.signature(obj).parameters)
            if not inspect.isclass(obj):
                continue
            for attr, member in vars(obj).items():
                fn = getattr(member, "__func__", member)
                if not inspect.isfunction(fn) or \
                        attr.startswith("_") and attr != "__init__":
                    continue
                key = where if attr == "__init__" else f"{where}.{attr}"
                out[key] = list(inspect.signature(fn).parameters)
    return out


def test_only_the_allowlisted_callables_take_a_space():
    params = public_callables()
    assert len(params) > 100
    takers = {name for name, names in params.items() if "space" in names}
    assert takers == SPACE_TAKERS


def test_the_degree_cap_is_set_only_where_a_space_is_built():
    params = public_callables()
    assert {name for name, names in params.items()
            if "max_degree" in names} == {"superspace.Superspace",
                                          "superspace.even_symplectic_space"}
    assert params["derived.canonical_tuples"] == ["space", "n"]
    assert params["superspace.odd_space"] == ["m", "gram"]
    assert params["io.parse_superspace"] == ["obj", "path"]


# record -> (its fields in order, the number without a default, and the
# values of the others when they are left out)
RECORDS = {
    "classify.CanonicalForm": (["params", "q", "residual", "m"], 4, {}),
    "classify.IdealReport": (
        ["found", "basis", "method", "status"], 1,
        {"basis": [], "method": "", "status": ""}),
    "classify.ClassificationRecord": (
        ["m", "v", "skew_rank", "canonical_params", "simple",
         "simple_method", "filippov", "sh_jacobi", "ideal"], 9, {}),
    "derived.CheckReport": (
        ["name", "passed", "witness", "residual", "detail", "violations"], 2,
        {"witness": None, "residual": None, "detail": "", "violations": []}),
    "frobenius.TStarExtension": (
        ["base_space", "space", "arity", "base", "potential", "structure"],
        6, {}),
    "frobenius.QFCertificate": (
        ["passed", "witness", "residual", "phi_rank", "odd_arity"], 1,
        {"witness": None, "residual": None, "phi_rank": 0,
         "odd_arity": False}),
    "hodge.HodgeDegreeRow": (
        ["p", "dim", "rank_d", "rank_delta", "im_d", "im_delta",
         "ker_laplacian", "cohomology"], 7, {"cohomology": None}),
    "hodge.HodgeReport": (
        ["m", "degrees", "total_dim", "rank_d", "rank_delta",
         "ker_laplacian", "direct_sum_ok", "kernel_intersection_ok",
         "cohomology_total", "homogeneous", "space", "d"], 9,
        {"homogeneous": True, "space": None, "d": {}}),
}


def test_records_keep_their_fields_and_compare_by_value():
    params = public_callables()
    for where, (fields, required, defaults) in RECORDS.items():
        assert params[where] == ["self"] + fields
        module, name = where.split(".")
        cls = getattr(importlib.import_module(f"naryalg.{module}"), name)
        a, b = cls(*range(required)), cls(*range(required))
        assert {f: getattr(a, f) for f in fields[required:]} == defaults
        for f in fields[required:]:
            if isinstance(getattr(a, f), (list, dict)):
                assert getattr(a, f) is not getattr(b, f)  # fresh
        assert a == b and not a != b
        with pytest.raises(TypeError):
            hash(a)
        for i in range(required):
            changed = cls(*(-1 if j == i else j for j in range(required)))
            assert changed != a
    ideal = naryalg.classify.IdealReport
    assert ideal(True) != ideal(True, method="kernel")
    assert ideal(True) != naryalg.derived.CheckReport(True, True)


# parameters that no body reads, each with the reason it stays
UNREAD = {
    "derived.check_nary_jacobi.threads":
        "perfbench/baselines.py times the check with threads=1 and 2",
    "cli.IDENTITIES[l-infinity].<lambda>.ex":
        "every identity is called with exhaustive; this report has one "
        "obstruction",
}


def _parameters(node, where, out):
    """(qualified parameter name, read in its body) for every function and
    lambda under node; a lambda is named by the definition, assignment
    and dict key it sits in."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        a = node.args
        names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
        names += [x.arg for x in (a.vararg, a.kwarg) if x is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(f"{where}.{name}", name in read) for name in names]
    if isinstance(node, ast.Dict):
        for key, value in zip(node.keys, node.values):
            label = f"[{key.value}]" if isinstance(key, ast.Constant) else ""
            _parameters(value, where + label, out)
        return
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = f"{where}.{child.name}"
        elif isinstance(child, ast.Lambda):
            inner = f"{where}.<lambda>"
        elif isinstance(child, ast.Assign) and len(child.targets) == 1 \
                and isinstance(child.targets[0], ast.Name):
            inner = f"{where}.{child.targets[0].id}"
        _parameters(child, inner, out)


def test_every_parameter_is_read_or_allowlisted():
    out = []
    for info in pkgutil.iter_modules(naryalg.__path__):
        path = os.path.join(os.path.dirname(naryalg.__file__),
                            f"{info.name}.py")
        with open(path, encoding="utf-8") as fh:
            _parameters(ast.parse(fh.read()), info.name, out)
    assert len(out) > 400
    assert sorted(name for name, read in out if not read) == sorted(UNREAD)


def _probe_spaces():
    """Pure odd spaces and random spaces with both parities."""
    rng = random.Random(38)
    out = [odd_space(3), odd_space(5)]
    while len(out) < 6:
        sp = random_superspace(rng, rng.randint(3, 6))
        if 0 < sum(sp.parity) < sp.dim:
            out.append(sp)
    return out


# entry point -> (its call on a space and an integer, the error it raises,
# the bad integers on a space of dimension m: a float, a bool, a negative
# value and one past the bound, and an int the rule admits on the space)
INDEX = lambda m: [0.0, True, -1, m]  # noqa: E731
COUNT = lambda m: [2.0, True, -1, 0]  # noqa: E731
ONE = lambda V: 1  # noqa: E731
INTEGER_PROBES = {
    "Element": (lambda V, i: Element(V, {(i,): 1}), NaryError, INDEX, ONE),
    "Element-pair": (lambda V, i: Element(V, {(i, V.dim - 1): 1}),
                     NaryError, INDEX, ONE),
    "Element.generator": (Element.generator, NaryError, INDEX, ONE),
    "Element.monomial": (lambda V, i: Element.monomial(V, (i, 0)),
                         NaryError, INDEX, ONE),
    "Element.coefficient": (
        lambda V, i: Element.generator(V, 0).coefficient((i,)), NaryError,
        INDEX, ONE),
    "nested_bracket_indices": (
        lambda V, i: nested_bracket_indices((i,), Element.monomial(
            V, (0, 1))), NaryError, INDEX, ONE),
    "NaryStructure-key": (
        lambda V, i: NaryStructure(V, 2, {(i, 1): Element.generator(V, 2)}),
        NaryError, INDEX, ONE),
    "NaryStructure.eval_basis": (
        lambda V, i: NaryStructure(V, 2, {(0, 1): Element.generator(V, 2)})
        .eval_basis((i, 1)), NaryError, INDEX, ONE),
    "NaryStructure-arity": (lambda V, n: NaryStructure(V, n, {}),
                            NaryError, COUNT, ONE),
    "Potential.single-arity": (
        lambda V, n: Potential.single(V, Element.monomial(V, (0, 1, 2)),
                                      arity=n), DegreeMismatch, COUNT,
        lambda V: 2),
    "canonical_tuples": (canonical_tuples, NaryError,
                         lambda m: [2.0, True, -1, -5], lambda V: 0),
    "Superspace-dim": (lambda V, m: Superspace(m, [1], [[1]]), NaryError,
                       COUNT, ONE),
    "Superspace-parity": (
        lambda V, p: Superspace(V.dim, [p] + list(V.parity[1:]), V.gram),
        NaryError, lambda m: [1.0, True, -1, 2], lambda V: V.parity[0]),
    "odd_space": (lambda V, m: odd_space(m), NaryError, COUNT, ONE),
    "even_symplectic_space": (lambda V, m: even_symplectic_space(m),
                              NaryError, lambda m: [4.0, True, -2, 0],
                              lambda V: 2),
}


@pytest.mark.parametrize("name", sorted(INTEGER_PROBES))
def test_every_integer_a_caller_gives_passes_one_rule(name):
    """A float, a bool, a negative value and a value past the bound are
    each refused with the site's own NaryError subclass, never kept and
    never left to fail later as a TypeError or an IndexError; an int
    inside the bound is taken."""
    call, error, bad, good = INTEGER_PROBES[name]
    for V in _probe_spaces():
        for x in bad(V.dim):
            with pytest.raises(NaryError) as info:
                call(V, x)
            assert type(info.value) is error, (name, V, x)
        call(V, good(V))
