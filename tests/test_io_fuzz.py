"""Mutated input documents never crash the CLI.

Every document kind that an ``io.parse_*`` routine reads is mutated and
run through ``cli.main`` in-process.  A schema mutation puts a value the
schema refuses at one field, or drops a required field; it must exit 2
with that field's path and no traceback.  A semantic document, which
every schema rule admits but the engine refuses (an arity that is not
the degree less one, an element of mixed degrees, a family that is not
odd, a monomial above the space's degree cap), exits 2 with the path of
the field at fault.  A byte mutation edits the file
text itself; whatever it yields, the CLI answers with exit 0, 1 or 2 and
never a traceback.  The examples are derandomized, so every run draws the
same ones.
"""

import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from naryalg.cli import main

FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                database=None)

DIM = 3
ODD = ["odd"] * DIM
SPACE = {"schema": "nary/1", "dim": DIM, "parity": ODD, "max_degree": 3,
         "gram": [["2", "1", "0"], ["1", "1", "0"], ["0", "0", "-1/2"]]}
TERMS = [{"monomial": [1, 2, 3], "coeff": "-3/2"},
         {"monomial": [2, 3], "coeff": 4}]
POTENTIAL = {"schema": "nary/1", "arity": 2,
             "element": [{"monomial": [1, 2, 3], "coeff": "1/3"}]}
FAMILY = {"schema": "nary/1", "linf": [[{"monomial": [1], "coeff": 1}],
                                       [{"monomial": [1, 2, 3], "coeff": 2}]]}
STRUCTURE = {"schema": "nary/1", "arity": 2, "constants": [
    {"args": [1, 2], "value": [{"monomial": [3], "coeff": "1/2"}]},
    {"args": [2, 3], "value": [{"monomial": [1], "coeff": -1}]}]}
ROWS = [["0", "1", "0"], ["-1", "0", "2"], ["0", "-2", "0"]]

# document kind -> (its document, the flag it is read from, the command
# that reads it, with documents for its other inputs, the path of its root)
KINDS = {
    "superspace": (SPACE, "--space",
                   ["verify", "--identity", "l-infinity",
                    "--potential", POTENTIAL], "superspace"),
    "element": (TERMS, "--a", ["bracket", "--b", TERMS], "element"),
    "potential": (POTENTIAL, "--potential",
                  ["verify", "--identity", "l-infinity"], "potential"),
    "family": (FAMILY, "--potential",
               ["verify", "--identity", "l-infinity"], "potential"),
    "structure": (STRUCTURE, "--structure",
                  ["verify", "--identity", "invariant"], "structure"),
    "matrix": (ROWS, "--phi",
               ["verify", "--identity", "quasi-frobenius",
                "--structure", STRUCTURE], "matrix"),
    "matrix-object": ({"schema": "nary/1", "matrix": ROWS}, "--phi",
                      ["verify", "--identity", "quasi-frobenius",
                       "--structure", STRUCTURE], "matrix"),
}


def _posint(most=None):
    return lambda v: (type(v) is int and v >= 1
                      and (most is None or v <= most))


def _scalar(v):
    if type(v) is int:
        return True
    if type(v) is not str:
        return False
    try:
        Fraction(v)
    except (ValueError, ZeroDivisionError):
        return False
    return True


def _is(kind):
    return lambda v: isinstance(v, kind)


def _element_sites(keys, path, terms):
    for t, term in enumerate(terms):
        where = f"{path}[{t}]"
        yield keys + [t], where, _is(dict)
        yield keys + [t, "monomial"], where, None
        yield keys + [t, "coeff"], where, None
        yield keys + [t, "monomial"], f"{where}.monomial", _is(list)
        for k, _ in enumerate(term["monomial"]):
            yield (keys + [t, "monomial", k], f"{where}.monomial[{k}]",
                   _posint(DIM))
        yield keys + [t, "coeff"], f"{where}.coeff", _scalar


def _matrix_sites(keys, path, rows):
    for i, row in enumerate(rows):
        yield keys + [i], f"{path}[{i}]", _is(list)
        for j, _ in enumerate(row):
            yield keys + [i, j], f"{path}[{i}][{j}]", _scalar


def sites(kind):
    """(keys into the document, field path, which values are valid there).

    A predicate of ``None`` marks a required field to delete instead.
    """
    doc, _, _, path = KINDS[kind]
    out = [([], path, _is(type(doc)))]
    if isinstance(doc, dict) and "schema" in doc:
        out.append((["schema"], f"{path}.schema", lambda v: v == "nary/1"))
    if kind == "superspace":
        out += [(["dim"], f"{path}.dim", _posint()),
                (["parity"], f"{path}.parity", _is(list)),
                (["gram"], f"{path}.gram", _is(list)),
                (["max_degree"], f"{path}.max_degree", _posint())]
        out += [([key], f"{path}.{key}", None)
                for key in ("dim", "parity", "gram")]
        out += [(["parity", i], f"{path}.parity[{i}]",
                 lambda v: v in ("even", "odd")) for i in range(DIM)]
        out += _matrix_sites(["gram"], f"{path}.gram", doc["gram"])
    elif kind == "element":
        out += _element_sites([], path, doc)
    elif kind == "potential":
        out += [(["arity"], f"{path}.arity",
                 lambda v: v is None or _posint()(v)),
                (["element"], f"{path}.element", _is(list)),
                (["element"], f"{path}.element", None)]
        out += _element_sites(["element"], f"{path}.element", doc["element"])
    elif kind == "family":
        out.append((["linf"], f"{path}.linf", _is(list)))
        for i, layer in enumerate(doc["linf"]):
            where = f"{path}.linf[{i}]"
            out.append((["linf", i], where, _is(list)))
            out += _element_sites(["linf", i], where, layer)
    elif kind == "structure":
        out += [(["arity"], f"{path}.arity", _posint()),
                (["constants"], f"{path}.constants", _is(list)),
                (["arity"], path, None), (["constants"], path, None)]
        for t, item in enumerate(doc["constants"]):
            where = f"{path}.constants[{t}]"
            out += [(["constants", t], where, _is(dict)),
                    (["constants", t, "args"], where, None),
                    (["constants", t, "value"], where, None),
                    (["constants", t, "args"], f"{where}.args", _is(list)),
                    (["constants", t, "value"], f"{where}.value",
                     _is(list))]
            out += [(["constants", t, "args", k], f"{where}.args[{k}]",
                     _posint(DIM)) for k, _ in enumerate(item["args"])]
            out += _element_sites(["constants", t, "value"],
                                  f"{where}.value", item["value"])
    elif kind == "matrix":
        out += _matrix_sites([], path, doc)
    else:  # matrix-object
        out.append((["matrix"], path, _is(list)))
        out += _matrix_sites(["matrix"], path, doc["matrix"])
    return out


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6)


_DELETE = object()


def _replace(doc, keys, value):
    """A deep copy of doc with the node at keys replaced, or deleted."""
    if not keys:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in keys[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[keys[-1]]
    else:
        node[keys[-1]] = value
    return doc


def run_cli(kind, text, space=SPACE):
    """Run the kind's command on the document bytes: (exit, out, err, file)."""
    _, flag, command, _ = KINDS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        def write(name, data):
            path = os.path.join(tmp, name)
            with open(path, "wb") as fh:
                fh.write(data)
            return path

        argv = [item if isinstance(item, str)
                else write(f"arg{i}.json", json.dumps(item).encode())
                for i, item in enumerate(command)]
        if kind != "superspace":
            argv += ["--space",
                     write("space.json", json.dumps(space).encode())]
        target = write("target.json", text)
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv + [flag, target])
        return code, out.getvalue(), err.getvalue(), target


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_valid_documents_run(kind):
    doc = KINDS[kind][0]
    code, out, err, _ = run_cli(kind, json.dumps(doc).encode())
    assert code in (0, 1) and out and not err


@pytest.mark.parametrize("kind", sorted(KINDS))
@FUZZ
@given(data=st.data())
def test_schema_mutation_exits_2_with_its_path(kind, data):
    keys, path, valid = data.draw(st.sampled_from(sites(kind)))
    if valid is None:
        value = _DELETE
    else:
        value = data.draw(JSON_VALUES.filter(lambda v: not valid(v)))
    doc = _replace(KINDS[kind][0], keys, value)
    code, out, err, _ = run_cli(kind, json.dumps(doc).encode())
    assert "Traceback" not in err
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["kind"] == "SchemaError"
    assert report["error"].startswith(path + ": "), (path, report["error"])


def _terms(*monomials):
    return [{"monomial": list(mono), "coeff": 1} for mono in monomials]


CAPPED = {"schema": "nary/1", "dim": 3, "parity": ["even", "even", "odd"],
          "max_degree": 2,
          "gram": [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "1"]]}

# documents that every schema rule admits but the engine refuses: (kind,
# document, space, the field at fault)
SEMANTIC = [
    # an arity that is not the degree less one
    ("potential", dict(POTENTIAL, arity=3), SPACE, "potential.arity"),
    ("potential", {"element": []}, SPACE, "potential.arity"),
    ("potential", {"element": _terms((1,))}, SPACE, "potential.arity"),
    # mixed degrees, with an arity or without
    ("potential", {"element": _terms((1, 2, 3), (2, 3))}, SPACE,
     "potential.element"),
    ("potential", {"arity": 2, "element": _terms((1, 2, 3), (2, 3))}, SPACE,
     "potential.element"),
    # a family that is not odd, or with a scalar layer
    ("family", {"linf": [_terms((1, 2))]}, SPACE, "potential.linf"),
    ("family", {"linf": [_terms((1,), (1, 2))]}, SPACE, "potential.linf"),
    ("family", {"linf": [_terms((), (1,))]}, SPACE, "potential.linf"),
    # a monomial above the space's degree cap
    ("element", _terms((1, 2, 3)), CAPPED, "element[0].monomial"),
    ("element", _terms((1,), (1, 1, 2)), CAPPED, "element[1].monomial"),
    ("potential", POTENTIAL, CAPPED, "potential.element[0].monomial"),
    ("family", {"linf": [_terms((3,)), _terms((1, 2, 3))]}, CAPPED,
     "potential.linf[1][0].monomial"),
]


@pytest.mark.parametrize("kind, doc, space, path", SEMANTIC)
def test_semantic_error_exits_2_at_the_field_at_fault(kind, doc, space,
                                                      path):
    code, out, err, _ = run_cli(kind, json.dumps(doc).encode(), space)
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["kind"] == "SchemaError", report
    assert report["error"].startswith(path + ": "), (path, report["error"])


MANGLE = st.one_of(
    st.tuples(st.just("cut"), st.integers(0, 10 ** 6)),
    st.tuples(st.just("put"), st.integers(0, 10 ** 6),
              st.binary(min_size=1, max_size=4)),
    st.tuples(st.just("nest"), st.integers(1, 3).map(lambda k: 10 ** k * 3)),
    # an integer literal past the interpreter's digit limit
    st.tuples(st.just("digits"), st.integers(1, 1000).map(
        lambda k: sys.get_int_max_str_digits() + k)),
)


@pytest.mark.parametrize("kind", sorted(KINDS))
@FUZZ
@given(mangle=MANGLE)
# once tracebacks: bytes that are not UTF-8, nesting past the recursion
# limit, an integer literal past the digit limit
@example(mangle=("put", 5, b"\xff"))
@example(mangle=("nest", 3000))
@example(mangle=("digits", 5000))
def test_byte_mutation_never_crashes(kind, mangle):
    text = json.dumps(KINDS[kind][0]).encode()
    how = mangle[0]
    if how == "cut":
        text = text[:mangle[1] % len(text)]
    elif how == "put":
        at = mangle[1] % len(text)
        text = text[:at] + mangle[2] + text[at + 1:]
    elif how == "nest":
        text = b"[" * mangle[1]
    else:
        text = text.replace(b'"nary/1"', b"1" * mangle[1], 1) \
            if b'"nary/1"' in text else b"[" + b"7" * mangle[1] + b"]"
    code, out, err, target = run_cli(kind, text)
    assert "Traceback" not in err
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        report = json.loads(err)
        assert report["kind"] and report["error"]
    if how in ("cut", "nest", "digits"):
        # never valid JSON: refused while the file is read
        assert code == 2
        assert report["error"].startswith(target + ":")
