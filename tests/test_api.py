"""One source per input: a public function takes a space only where
nothing else it is given carries one, and the degree cap only where a
space is built."""

import importlib
import inspect
import pkgutil

import naryalg

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
    "classify.skew_to_element", "io.superspace_to_json",
    "io.parse_element", "io.parse_potential", "io.parse_structure",
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
