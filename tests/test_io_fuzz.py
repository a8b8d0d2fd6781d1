"""Mutated input documents never crash the CLI.

Every document kind that an ``io.parse_*`` routine reads is mutated and
run through ``cli.main`` in-process, and every document option of the
parser is driven by a kind.  A schema mutation puts a value the
schema refuses at one field, or drops a required field; it must exit 2
with that field's path and no traceback.  A semantic document, which
every schema rule admits but the engine refuses (an arity that is not
the degree less one, an element of mixed degrees or of another degree
than its option or field reads, a family that is not odd, a monomial
above the space's degree cap), exits 2 with the path of the field at
fault, rooted at the option that read the document.  A byte mutation edits the file
text itself; whatever it yields, the CLI answers with exit 0, 1 or 2 and
never a traceback.  The examples are derandomized, so every run draws the
same ones.
"""

import argparse
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

from naryalg.cli import build_parser, main

FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                database=None)

DIM = 3
ODD = ["odd"] * DIM
SPACE = {"schema": "nary/1", "dim": DIM, "parity": ODD, "max_degree": 3,
         "gram": [["2", "1", "0"], ["1", "1", "0"], ["0", "0", "-1/2"]]}
TERMS = [{"monomial": [1, 2, 3], "coeff": "-3/2"},
         {"monomial": [2, 3], "coeff": 4}]
# the degree-2 elements that --element (derivation) and --v (classify) read
TERMS2 = [{"monomial": [1, 2], "coeff": "-3/2"},
          {"monomial": [2, 3], "coeff": 4}]
TERMS_V5 = [{"monomial": [1, 2], "coeff": 2},
            {"monomial": [3, 4], "coeff": "-1/2"}]
POTENTIAL = {"schema": "nary/1", "arity": 2,
             "element": [{"monomial": [1, 2, 3], "coeff": "1/3"}]}
FAMILY = {"schema": "nary/1", "linf": [[{"monomial": [1], "coeff": 1}],
                                       [{"monomial": [1, 2, 3], "coeff": 2}]]}
STRUCTURE = {"schema": "nary/1", "arity": 2, "constants": [
    {"args": [1, 2], "value": [{"monomial": [3], "coeff": "1/2"}]},
    {"args": [2, 3], "value": [{"monomial": [1], "coeff": -1}]}]}
ROWS = [["0", "1", "0"], ["-1", "0", "2"], ["0", "-2", "0"]]
# classify reads --skew over an orthonormal odd space of dimension > 4
ORTHONORMAL5 = {"schema": "nary/1", "dim": 5, "parity": ["odd"] * 5,
                "gram": [["1" if i == j else "0" for j in range(5)]
                         for i in range(5)]}
SKEW5 = [["0", "1", "0", "0", "0"], ["-1", "0", "0", "0", "0"],
         ["0", "0", "0", "2", "0"], ["0", "0", "-2", "0", "0"],
         ["0", "0", "0", "0", "0"]]

# document kind -> (its document, the flag it is read from, the command
# that reads it, with documents for its other inputs, the path of its root)
KINDS = {
    "superspace": (SPACE, "--space",
                   ["verify", "--identity", "l-infinity",
                    "--potential", POTENTIAL], "superspace"),
    "element": (TERMS, "--a", ["bracket", "--b", TERMS], "a"),
    # --a reads e_1, which every space here admits
    "element-b": (TERMS, "--b",
                  ["bracket", "--a", [{"monomial": [1], "coeff": 1}]], "b"),
    "element-v": (TERMS_V5, "--v", ["classify"], "v"),
    "element-derivation": (TERMS2, "--element",
                           ["verify", "--identity", "derivation",
                            "--potential", POTENTIAL], "element"),
    "potential": (POTENTIAL, "--potential",
                  ["verify", "--identity", "l-infinity"], "potential"),
    "family": (FAMILY, "--potential",
               ["verify", "--identity", "l-infinity"], "potential"),
    "structure": (STRUCTURE, "--structure",
                  ["verify", "--identity", "invariant"], "structure"),
    "matrix": (ROWS, "--phi",
               ["verify", "--identity", "quasi-frobenius",
                "--structure", STRUCTURE], "phi"),
    "matrix-object": ({"schema": "nary/1", "matrix": ROWS}, "--phi",
                      ["verify", "--identity", "quasi-frobenius",
                       "--structure", STRUCTURE], "phi"),
    "frobenius-phi": (ROWS, "--phi", ["frobenius", "--structure", STRUCTURE],
                      "phi"),
    "skew": (SKEW5, "--skew", ["classify"], "skew"),
}
# the space each kind's command reads, when not SPACE
SPACES = {"skew": ORTHONORMAL5, "element-v": ORTHONORMAL5}

# the options that read no document
NOT_DOCUMENTS = {"--help", "--pretty", "--output", "--identity",
                 "--exhaustive", "--allow-odd-arity", "--graph", "--seed",
                 "--m", "--grid"}


def test_every_document_option_is_fuzzed():
    """Each document option of each subcommand, read off the parser, is
    the flag of some kind, so a new one fails here until it is fuzzed."""
    (commands,) = [action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    options = {(name, flag) for name, sub in commands.items()
               for action in sub._actions for flag in action.option_strings
               if flag.startswith("--") and flag not in NOT_DOCUMENTS}
    fuzzed = {flag for _, flag, _, _ in KINDS.values()}
    assert not {(name, flag) for name, flag in options
                if flag not in fuzzed}


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


def _element_sites(keys, path, terms, dim=DIM):
    for t, term in enumerate(terms):
        where = f"{path}[{t}]"
        yield keys + [t], where, _is(dict)
        yield keys + [t, "monomial"], where, None
        yield keys + [t, "coeff"], where, None
        yield keys + [t, "monomial"], f"{where}.monomial", _is(list)
        for k, _ in enumerate(term["monomial"]):
            yield (keys + [t, "monomial", k], f"{where}.monomial[{k}]",
                   _posint(dim))
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
    doc, flag, _, path = KINDS[kind]
    # a matrix is read bare or from an object's "matrix", which the
    # matrix-object kind mutates
    out = [([], path, _is((list, dict) if flag in ("--phi", "--skew")
                          else type(doc)))]
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
    elif kind.startswith("element"):
        out += _element_sites([], path, doc,
                              SPACES.get(kind, SPACE)["dim"])
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
    elif kind == "matrix-object":
        out.append((["matrix"], f"{path}.matrix", _is(list)))
        out += _matrix_sites(["matrix"], f"{path}.matrix", doc["matrix"])
    else:  # a bare matrix
        out += _matrix_sites([], path, doc)
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


def run_cli(kind, text, space=None):
    """Run the kind's command on the document bytes: (exit, out, err, file)."""
    _, flag, command, _ = KINDS[kind]
    space = space or SPACES.get(kind, SPACE)
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

NOT_SKEW = [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "0"]]
SMALL = [["0", "1"], ["-1", "0"]]

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
    ("element", _terms((1, 2, 3)), CAPPED, "a[0].monomial"),
    ("element", _terms((1,), (1, 1, 2)), CAPPED, "a[1].monomial"),
    ("potential", POTENTIAL, CAPPED, "potential.element[0].monomial"),
    ("family", {"linf": [_terms((3,)), _terms((1, 2, 3))]}, CAPPED,
     "potential.linf[1][0].monomial"),
    # a matrix that is not skew, or of another size, at its option
    ("matrix", NOT_SKEW, SPACE, "phi"),
    ("matrix-object", {"matrix": NOT_SKEW}, SPACE, "phi.matrix"),
    ("frobenius-phi", NOT_SKEW, SPACE, "phi"),
    ("skew", [row[::-1] for row in SKEW5], ORTHONORMAL5, "skew"),
    ("matrix", SMALL, SPACE, "phi"),
    ("frobenius-phi", SMALL, SPACE, "phi"),
    ("skew", SMALL, ORTHONORMAL5, "skew"),
    # a structure value that is not of degree 1
    ("structure", {"arity": 2, "constants": [
        {"args": [1, 2], "value": _terms((1, 2))}]}, SPACE,
     "structure.constants[0].value"),
    # each element option names itself
    ("element-b", _terms((1, 2, 3)), CAPPED, "b[0].monomial"),
    ("element-v", _terms((1, 2, 3)), ORTHONORMAL5, "v"),
    ("element-derivation", _terms((1, 2), (1, 2, 3)), SPACE, "element"),
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


# Gram matrices that every schema rule admits but the space refuses, with
# the space's own message
BAD_GRAMS = {
    "odd-not-symmetric": (ODD, [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
                          "odd-odd entry gram[0][1] must equal gram[1][0]"),
    "even-not-skew": (["even", "even", "odd"],
                      [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
                      "even-even entry gram[0][1] must equal -gram[1][0]"),
    "mixed-parity": (["even", "even", "odd"],
                     [[0, 1, 1], [-1, 0, 0], [0, 0, 1]],
                     "gram[0][2] pairs generators of different parity"),
}


def _space_commands():
    """argv for each subcommand that reads --space, off the parser: its
    other required options, and the first option of each required
    either-or group, given a first choice or an unread path."""
    (commands,) = [action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    out = {}
    for name, sub in commands.items():
        if "--space" not in sub._option_string_actions:
            continue
        out[name] = [name]
        for action in sub._actions:
            flag = action.option_strings[0] if action.option_strings else None
            if action.required and flag != "--space":
                out[name] += [flag, action.choices[0] if action.choices
                              else "unread.json"]
        for group in sub._mutually_exclusive_groups:
            if group.required:
                out[name] += [group._group_actions[0].option_strings[0],
                              "unread.json"]
    return out


@pytest.mark.parametrize("gram", sorted(BAD_GRAMS))
def test_every_space_option_refuses_a_bad_gram_at_its_field(gram):
    parity, rows, msg = BAD_GRAMS[gram]
    doc = {"schema": "nary/1", "dim": DIM, "parity": parity, "gram": rows}
    commands = _space_commands()
    assert sorted(commands) == ["bracket", "classify", "derive", "frobenius",
                                "hodge", "star", "verify"]
    for name, argv in commands.items():
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "space.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            out, err = StringIO(), StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv + ["--space", path])
        assert "Traceback" not in err.getvalue(), name
        assert code == 2 and out.getvalue() == "", name
        assert json.loads(err.getvalue()) == {
            "error": f"superspace.gram: {msg}", "kind": "SchemaError",
            "schema": "nary/1"}, name
