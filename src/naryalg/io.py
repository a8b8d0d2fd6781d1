"""JSON codecs for every external format.

Scalars travel as exact "p/q" strings (plain integers allowed); basis
indices are 1-based outside the engine.  Object-rooted documents carry a
"schema": "nary/1" version field, which is required on output and checked
when present on input.  Parse errors carry the offending field path, and
so does the engine's refusal of a document that the schema admits: a
monomial above the space's degree cap, a potential whose arity is not its
degree less one or whose element has mixed degrees, or an ``linf`` family
that is not odd.
Basis index lists and square matrices (the Gram matrix, --phi, --skew)
each have one reader.  A structure gives each key once, with arity
indices; a potential is one element or an "linf" family, not both.
"""

import json
from fractions import Fraction

from .derived import NaryStructure, Potential
from .errors import DegreeMismatch, NaryError, SchemaError, WrongDegree
from .linalg import ZERO, exact
from .poisson import Element
from .superspace import Superspace

SCHEMA = "nary/1"


def parse_scalar(value, path="scalar"):
    if isinstance(value, bool):
        raise SchemaError(path, "expected a rational scalar")
    if not isinstance(value, (int, str)):
        raise SchemaError(path, "expected int or 'p/q' string, got "
                          f"{type(value).__name__}")
    try:
        return exact(value)
    except NaryError as ex:
        raise SchemaError(path, str(ex)) from None


def fmt_scalar(q):
    return str(Fraction(q))


def _check_document(obj, path):
    """A document's root: an object, of our schema when it names one."""
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    if "schema" in obj and obj["schema"] != SCHEMA:
        raise SchemaError(f"{path}.schema", f"unsupported schema {obj['schema']!r}")


def _check_positive_int(value, path, most=None):
    """A positive int (no bool), at most ``most`` when given: a basis index."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise SchemaError(path, "expected a positive integer")
    if most is not None and value > most:
        raise SchemaError(path, f"index out of range 1..{most}")


def _check_list(value, path, what="a list"):
    if not isinstance(value, list):
        raise SchemaError(path, f"expected {what}")


def _parse_indices(raw, dim, path):
    """0-based basis indices from a JSON list of 1-based ones."""
    _check_list(raw, path)
    for k, idx in enumerate(raw):
        _check_positive_int(idx, f"{path}[{k}]", dim)
    return tuple(idx - 1 for idx in raw)


def _parse_rows(rows, dim, path):
    """A dim x dim matrix of exact scalars from a JSON list of rows."""
    _check_list(rows, path, "a list of rows")
    if len(rows) != dim:
        raise SchemaError(path, f"expected {dim} rows")
    out = []
    for i, row in enumerate(rows):
        _check_list(row, f"{path}[{i}]")
        if len(row) != dim:
            raise SchemaError(f"{path}[{i}]", f"expected {dim} entries")
        out.append([parse_scalar(x, f"{path}[{i}][{j}]")
                    for j, x in enumerate(row)])
    return out


# ---------------------------------------------------------------------------
# superspace


def parse_superspace(obj, path="superspace"):
    """Superspace from its JSON document.

    The document's optional max_degree, a positive integer, is the
    space's degree cap, the only one.
    """
    _check_document(obj, path)
    for key in ("dim", "parity", "gram"):
        if key not in obj:
            raise SchemaError(f"{path}.{key}", "missing field")
    dim = obj["dim"]
    _check_positive_int(dim, f"{path}.dim")
    parity_names = obj["parity"]
    _check_list(parity_names, f"{path}.parity")
    if len(parity_names) != dim:
        raise SchemaError(f"{path}.parity", f"expected {dim} entries")
    parity = []
    for i, name in enumerate(parity_names):
        if name not in ("even", "odd"):
            raise SchemaError(f"{path}.parity[{i}]", "expected 'even' or 'odd'")
        parity.append(1 if name == "odd" else 0)
    gram = _parse_rows(obj["gram"], dim, f"{path}.gram")
    if "max_degree" in obj:
        _check_positive_int(obj["max_degree"], f"{path}.max_degree")
    return Superspace(dim, parity, gram, max_degree=obj.get("max_degree"))


def superspace_to_json(space):
    return {
        "schema": SCHEMA,
        "dim": space.dim,
        "parity": ["odd" if p else "even" for p in space.parity],
        "gram": [[fmt_scalar(x) for x in row] for row in space.gram],
    }


# ---------------------------------------------------------------------------
# elements


def parse_element(space, arr, path="element"):
    _check_list(arr, path, "a list of terms")
    terms = {}
    for t, item in enumerate(arr):
        where = f"{path}[{t}]"
        if not isinstance(item, dict) or "monomial" not in item or "coeff" not in item:
            raise SchemaError(where, "expected {'monomial': [...], 'coeff': ...}")
        mono = _parse_indices(item["monomial"], space.dim, f"{where}.monomial")
        for a, b in zip(mono, mono[1:]):
            if a > b:
                raise SchemaError(f"{where}.monomial",
                                  "indices must be ascending")
            if a == b and space.parity[a] == 1:
                raise SchemaError(f"{where}.monomial",
                                  "repeated odd generator")
        if len(mono) > space.max_degree:
            raise SchemaError(f"{where}.monomial", f"monomial degree "
                              f"{len(mono)} exceeds cap {space.max_degree}")
        coeff = parse_scalar(item["coeff"], f"{where}.coeff")
        terms[mono] = terms.get(mono, ZERO) + coeff
    return Element(space, terms)


def element_to_json(el):
    return [{"monomial": [i + 1 for i in mono], "coeff": fmt_scalar(c)}
            for mono, c in el.sorted_terms()]


# ---------------------------------------------------------------------------
# potentials and structures


def parse_potential(space, obj, path="potential"):
    _check_document(obj, path)
    if "linf" in obj and "element" in obj:
        raise SchemaError(path, "expected 'linf' or 'element', not both")
    if "linf" in obj:
        layers = obj["linf"]
        _check_list(layers, f"{path}.linf", "a list of elements")
        total = Element.zero(space)
        for i, layer in enumerate(layers):
            total = total + parse_element(space, layer, f"{path}.linf[{i}]")
        try:
            return Potential.homotopy_family(space, total)
        except NaryError as ex:
            raise SchemaError(f"{path}.linf", str(ex)) from None
    if "element" not in obj:
        raise SchemaError(f"{path}.element", "missing field")
    el = parse_element(space, obj["element"], f"{path}.element")
    arity = obj.get("arity")
    if arity is not None:
        _check_positive_int(arity, f"{path}.arity")
    try:
        return Potential.single(space, el, arity=arity)
    except DegreeMismatch as ex:  # the arity given, missing or implied
        raise SchemaError(f"{path}.arity", str(ex)) from None
    except WrongDegree as ex:  # an element of mixed degrees
        raise SchemaError(f"{path}.element", str(ex)) from None


def parse_structure(space, obj, path="structure"):
    _check_document(obj, path)
    if "arity" not in obj or "constants" not in obj:
        raise SchemaError(path, "expected 'arity' and 'constants'")
    arity = obj["arity"]
    _check_positive_int(arity, f"{path}.arity")
    _check_list(obj["constants"], f"{path}.constants")
    table = {}
    for t, item in enumerate(obj["constants"]):
        where = f"{path}.constants[{t}]"
        if not isinstance(item, dict) or "args" not in item or "value" not in item:
            raise SchemaError(where, "expected {'args': [...], 'value': [...]}")
        key = _parse_indices(item["args"], space.dim, f"{where}.args")
        if len(key) != arity:
            raise SchemaError(f"{where}.args", f"expected {arity} indices")
        if any(a > b for a, b in zip(key, key[1:])):
            raise SchemaError(f"{where}.args", "indices must be non-decreasing")
        if key in table:  # table holds one key per earlier entry, in order
            raise SchemaError(f"{where}.args", "duplicates "
                              f"{path}.constants[{list(table).index(key)}]")
        table[key] = parse_element(space, item["value"], f"{where}.value")
    try:
        return NaryStructure(space, arity, table)
    except NaryError as ex:
        raise SchemaError(path, str(ex))


def structure_to_json(s):
    return {
        "schema": SCHEMA,
        "arity": s.arity,
        "constants": [
            {"args": [i + 1 for i in key], "value": element_to_json(value)}
            for key, value in sorted(s.table.items())
        ],
    }


# ---------------------------------------------------------------------------
# matrices


def parse_matrix(obj, dim, path="matrix"):
    """A dim x dim matrix: a list of rows, bare or as an object's "matrix"."""
    if isinstance(obj, dict):
        _check_document(obj, path)
        obj = obj.get("matrix")
    return _parse_rows(obj, dim, path)


# ---------------------------------------------------------------------------
# reports


def _witness_json(witness):
    if witness is None:
        return None
    return [i + 1 for i in witness]


def check_report_to_json(rep):
    residual = rep.residual
    if isinstance(residual, Element):
        residual = element_to_json(residual)
    elif isinstance(residual, Fraction):
        residual = fmt_scalar(residual)
    out = {
        "schema": SCHEMA,
        "check": rep.name,
        "pass": rep.passed,
        "witness": _witness_json(rep.witness),
        "residual": residual,
    }
    if rep.detail:
        out["detail"] = rep.detail
    if rep.violations and len(rep.violations) > 1:
        out["violations"] = [
            {"witness": _witness_json(w),
             "residual": element_to_json(r) if isinstance(r, Element)
             else fmt_scalar(r)}
            for w, r in rep.violations
        ]
    return out


def hodge_report_to_json(rep):
    return {
        "schema": SCHEMA,
        "m": rep.m,
        "degrees": [
            {"p": row.p, "dim": row.dim, "rank_d": row.rank_d,
             "rank_delta": row.rank_delta,
             "ker_laplacian": row.ker_laplacian,
             "cohomology": row.cohomology}
            for row in rep.degrees
        ],
        "total_dim": rep.total_dim,
        "rank_d": rep.rank_d,
        "rank_delta": rep.rank_delta,
        "ker_laplacian": rep.ker_laplacian,
        "cohomology_total": rep.cohomology_total,
        "direct_sum_ok": rep.direct_sum_ok,
        "kernel_intersection_ok": rep.kernel_intersection_ok,
        "homogeneous": rep.homogeneous,
    }


def qf_certificate_to_json(cert):
    return {
        "schema": SCHEMA,
        "pass": cert.passed,
        "witness": _witness_json(cert.witness),
        "residual": None if cert.residual is None else fmt_scalar(cert.residual),
        "phi_rank": cert.phi_rank,
        "odd_arity": cert.odd_arity,
    }


def ideal_report_to_json(rep):
    return {
        "found": rep.found,
        "basis": [element_to_json(b) for b in rep.basis],
        "method": rep.method,
        "status": rep.status,
        "rounds": rep.rounds,
    }


def classification_record_to_json(rec):
    return {
        "schema": SCHEMA,
        "m": rec.m,
        "v": element_to_json(rec.v),
        "skew_rank": rec.skew_rank,
        "canonical_params": [float(p) for p in rec.canonical_params],
        "approx": True,
        "simple": rec.simple,
        "simple_method": rec.simple_method,
        "filippov": rec.filippov,
        "sh_jacobi": rec.sh_jacobi,
        "ideal": ideal_report_to_json(rec.ideal),
    }


def dumps(obj, pretty=False):
    if pretty:
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def load_file(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as ex:
        raise SchemaError(path, f"cannot read file: {ex}")
    except json.JSONDecodeError as ex:
        raise SchemaError(f"{path}:{ex.lineno}:{ex.colno}", ex.msg)
    except (ValueError, RecursionError) as ex:
        # bytes that are not UTF-8, an integer literal past Python's digit
        # limit, or arrays nested past the recursion limit
        raise SchemaError(path, f"unreadable JSON: {ex}")
