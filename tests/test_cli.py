"""Command line behavior: schemas, exit codes, determinism."""

import argparse
import json
import re
import subprocess
import sys
import time

import pytest

from naryalg import io
from naryalg.classify import element_to_skew
from naryalg.cli import build_parser, main
from naryalg.derived import check_derivation
from naryalg.errors import WrongDegree
from oracles import bracket_recursive_oracle

SPACE5 = {
    "schema": "nary/1",
    "dim": 5,
    "parity": ["odd"] * 5,
    "gram": [["1" if i == j else "0" for j in range(5)] for i in range(5)],
}
MU2 = {"schema": "nary/1", "arity": 2,
       "element": [{"monomial": [3, 4, 5], "coeff": "-1"}]}
MU3 = {"schema": "nary/1", "arity": 2,
       "element": [{"monomial": [3, 4, 5], "coeff": "1"},
                   {"monomial": [1, 2, 5], "coeff": "1"}]}


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)
    return write, tmp_path


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_filippov_pass(files, capsys):
    write, _ = files
    code, out, _ = run_main(
        ["verify", "--space", write("s.json", SPACE5),
         "--identity", "filippov", "--potential", write("mu.json", MU2)],
        capsys)
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_l_infinity_fail_reports_residual(files, capsys):
    write, _ = files
    code, out, _ = run_main(
        ["verify", "--space", write("s.json", SPACE5),
         "--identity", "l-infinity", "--potential", write("mu.json", MU3)],
        capsys)
    assert code == 1
    rep = json.loads(out)
    assert rep["pass"] is False
    assert rep["residual"] == [{"monomial": [1, 2, 3, 4], "coeff": "2"}]


def test_verify_nary_jacobi_witness(files, capsys):
    write, _ = files
    space6 = {"schema": "nary/1", "dim": 6, "parity": ["odd"] * 6,
              "gram": [["1" if i == j else "0" for j in range(6)]
                       for i in range(6)]}
    mu6 = {"schema": "nary/1", "arity": 3,
           "element": [{"monomial": [3, 4, 5, 6], "coeff": "1"},
                       {"monomial": [1, 2, 5, 6], "coeff": "1"}]}
    code, out, _ = run_main(
        ["verify", "--space", write("s.json", space6),
         "--identity", "nary-jacobi", "--potential", write("mu.json", mu6)],
        capsys)
    assert code == 1
    rep = json.loads(out)
    assert rep["witness"] == [1, 2, 3, 4, 5]
    assert rep["residual"] == [{"monomial": [5], "coeff": "-2"}]


def test_derive_zero_potential(files, capsys):
    write, _ = files
    zero = {"schema": "nary/1", "arity": 2, "element": []}
    code, out, _ = run_main(
        ["derive", "--space", write("s.json", SPACE5),
         "--potential", write("mu.json", zero)], capsys)
    assert code == 0
    assert json.loads(out)["constants"] == []


def test_star_subcommand(files, capsys):
    write, _ = files
    el = [{"monomial": [1, 2], "coeff": "1"}]
    code, out, _ = run_main(
        ["star", "--space", write("s.json", SPACE5),
         "--element", write("v.json", el)], capsys)
    assert code == 0
    assert json.loads(out) == [{"monomial": [3, 4, 5], "coeff": "-1"}]


def test_bracket_and_oracle_agree(files, capsys):
    write, _ = files
    a = [{"monomial": [1], "coeff": "1"}]
    b = [{"monomial": [1, 2], "coeff": "1"}]
    argv = ["bracket", "--space", write("s.json", SPACE5),
            "--a", write("a.json", a), "--b", write("b.json", b)]
    code, out, _ = run_main(argv, capsys)
    assert code == 0
    space = io.parse_superspace(SPACE5)
    want = bracket_recursive_oracle(io.parse_element(space, a, "a"),
                                    io.parse_element(space, b, "b"))
    assert out == io.dumps(io.element_to_json(want))
    assert json.loads(out) == [{"monomial": [2], "coeff": "1"}]
    # the option that chose the recursive evaluation is gone
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--oracle"])
    assert exc.value.code == 2


def test_hodge_subcommand_schema(files, capsys):
    write, _ = files
    code, out, _ = run_main(
        ["hodge", "--space", write("s.json", SPACE5),
         "--potential", write("mu.json", MU2)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == "nary/1"
    assert rep["direct_sum_ok"] and rep["kernel_intersection_ok"]
    assert {row["p"] for row in rep["degrees"]} == set(range(6))
    total = sum(row["dim"] for row in rep["degrees"])
    assert total == 32


def test_classify_subcommand(files, capsys):
    write, _ = files
    v = [{"monomial": [1, 2], "coeff": "1"}]
    code, out, _ = run_main(
        ["classify", "--space", write("s.json", SPACE5),
         "--v", write("v.json", v)], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["simple"] is False and rec["filippov"] is True
    assert rec["ideal"]["found"] is True
    assert rec["approx"] is True


def test_classify_from_skew_matrix(files, capsys):
    write, _ = files
    mat = {"schema": "nary/1",
           "matrix": [["0", "1", "0", "0", "0"], ["-1", "0", "0", "0", "0"],
                      ["0", "0", "0", "0", "0"], ["0", "0", "0", "0", "0"],
                      ["0", "0", "0", "0", "0"]]}
    code, out, _ = run_main(
        ["classify", "--space", write("s.json", SPACE5),
         "--skew", write("a.json", mat)], capsys)
    assert code == 0
    assert json.loads(out)["skew_rank"] == 2


def test_table_lines(files, capsys):
    code, out, _ = run_main(["table", "--m", "5", "--grid", "0", "1"], capsys)
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 3  # parameter profiles (1,1), (1,0), (0,0)
    assert {tuple(rec["canonical_params"]) for rec in lines} == \
        {(1.0, 1.0), (1.0,), ()}


@pytest.mark.parametrize("ms", [["15"], ["5", "3000"]])
def test_table_refuses_m_above_the_guard_first(capsys, ms):
    # m = 3000 once recursed m/2 deep in the grid and died with a traceback
    start = time.perf_counter()
    code, out, err = run_main(["table", "--m"] + ms, capsys)
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert err == (f'{{"error":"dimension {ms[-1]} above guard 14",'
                   '"kind":"NotHodgeContext","schema":"nary/1"}\n')


@pytest.mark.parametrize("m", ["-1", "0", "3"])
def test_table_refuses_m_below_five_first(capsys, m):
    # m = -1 once reached math.comb in the work budget and died with a
    # traceback
    start = time.perf_counter()
    code, out, err = run_main(["table", "--m", m], capsys)
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert err == ('{"error":"classification needs dimension > 4",'
                   '"kind":"DimensionTooSmall","schema":"nary/1"}\n')


def test_frobenius_subcommand(files, capsys):
    write, _ = files
    space2 = {"schema": "nary/1", "dim": 2, "parity": ["odd", "odd"],
              "gram": [["1", "0"], ["0", "1"]]}
    st = {"schema": "nary/1", "arity": 2,
          "constants": [{"args": [1, 2],
                         "value": [{"monomial": [2], "coeff": "1"}]}]}
    phi = {"schema": "nary/1", "matrix": [["0", "1"], ["-1", "0"]]}
    code, out, _ = run_main(
        ["frobenius", "--space", write("s.json", space2),
         "--structure", write("st.json", st), "--phi", write("phi.json", phi),
         "--graph"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] and rep["graph_subalgebra"] and rep["equivalence_ok"]


def test_bad_schema_exits_2(files, capsys):
    write, _ = files
    bad = dict(SPACE5, schema="nary/999")
    code, _, err = run_main(
        ["verify", "--space", write("s.json", bad), "--identity", "filippov",
         "--potential", write("mu.json", MU2)], capsys)
    assert code == 2
    assert "schema" in err


@pytest.mark.parametrize("field, value, where", [
    ("parity", 5, "superspace.parity"),
    ("gram", 5, "superspace.gram"),
    ("gram", [5] * 5, "superspace.gram[0]"),
])
def test_non_list_superspace_field_exits_2(files, capsys, field, value, where):
    write, _ = files
    bad = dict(SPACE5, **{field: value})
    code, out, err = run_main(
        ["verify", "--space", write("s.json", bad), "--identity", "filippov",
         "--potential", write("mu.json", MU2)], capsys)
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["kind"] == "SchemaError"
    assert report["error"].startswith(where + ":")


MONO = [{"monomial": [3, 4, 5], "coeff": "1"}]


@pytest.mark.parametrize("flag, doc, where", [
    ("--structure", {"arity": 2, "constants": 5}, "structure.constants"),
    ("--structure", {"arity": 2, "constants": [{"args": 5, "value": MONO}]},
     "structure.constants[0].args"),
    ("--structure", {"arity": True, "constants": []}, "structure.arity"),
    ("--structure", {"arity": 2,
                     "constants": [{"args": [True, 2], "value": []}]},
     "structure.constants[0].args[0]"),
    ("--potential", {"element": [{"monomial": 5, "coeff": 1}]},
     "potential.element[0].monomial"),
    ("--potential", {"arity": True, "element": MONO}, "potential.arity"),
    ("--potential", {"element": [{"monomial": [True, 2, 3], "coeff": "1"}]},
     "potential.element[0].monomial[0]"),
    ("--space", dict(SPACE5, dim=True), "superspace.dim"),
    ("--phi", [5] * 5, "phi[0]"),
    ("--phi", [["0"] * 5] + [["0", "0", "0", "x", "0"]] + [["0"] * 5] * 3,
     "phi[1][3]"),
    ("--space", dict(SPACE5, gram=[["1", "0", "0", "0", "0"],
                                   ["0", "1", "1/0", "0", "0"]]
                     + SPACE5["gram"][2:]), "superspace.gram[1][2]"),
    # a duplicate key once overwrote the earlier entry silently
    ("--structure", {"arity": 2, "constants": [
        {"args": [1, 2], "value": [{"monomial": [3], "coeff": "1"}]},
        {"args": [1, 2], "value": [{"monomial": [4], "coeff": "1"}]}]},
     "structure.constants[1].args"),
    # the element was once ignored beside the family
    ("--potential", {"linf": [MONO], "element": MONO}, "potential"),
    # a key of the wrong length was once refused at the bare "structure"
    ("--structure", {"arity": 2, "constants": [
        {"args": [1, 2, 3], "value": [{"monomial": [4], "coeff": "1"}]}]},
     "structure.constants[0].args"),
    # args that descend: "indices must be non-decreasing"
    ("--structure", {"arity": 2, "constants": [
        {"args": [1, 2], "value": [{"monomial": [3], "coeff": "1"}]},
        {"args": [3, 1], "value": [{"monomial": [4], "coeff": "1"}]}]},
     "structure.constants[1].args"),
])
def test_malformed_field_exits_2_with_its_path(files, capsys, flag, doc,
                                                where):
    write, _ = files
    inputs = {"--space": SPACE5}
    if flag == "--potential":
        argv = ["verify", "--identity", "l-infinity"]
    else:
        argv = ["verify", "--identity", "quasi-frobenius"]
        inputs["--phi"] = [[0] * 5 for _ in range(5)]
        inputs["--structure"] = {"arity": 2, "constants": []}
    inputs[flag] = doc
    for name, value in inputs.items():
        argv += [name, write(name.strip("-") + ".json", value)]
    code, out, err = run_main(argv, capsys)
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["kind"] == "SchemaError"
    assert report["error"].startswith(where + ":")


@pytest.mark.parametrize("argv", [
    ["verify", "--identity", "quasi-frobenius", "--structure", "st.json",
     "--phi", "m.json"],
    ["frobenius", "--structure", "st.json", "--phi", "m.json"],
    ["classify", "--skew", "m.json"],
])
def test_non_skew_matrix_exits_2_with_not_skew(files, capsys, argv):
    # refused while the option's document is read, with NotSkew's message
    # at that document's path
    write, _ = files
    matrix = [["0"] * 5 for _ in range(5)]
    matrix[1][2] = "1"
    paths = {"st.json": write("st.json", {"arity": 2, "constants": []}),
             "m.json": write("m.json", matrix),
             "s.json": write("s.json", SPACE5)}
    option = argv[-2].strip("-")
    argv = [paths.get(a, a) for a in argv + ["--space", "s.json"]]
    code, out, err = run_main(argv, capsys)
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["kind"] == "SchemaError"
    assert report["error"] == f"{option}: entry (1,2) breaks skew symmetry"


@pytest.mark.parametrize("argv", [
    ["verify", "--identity", "quasi-frobenius", "--structure", "st.json",
     "--phi", "m.json"],
    ["frobenius", "--structure", "st.json", "--phi", "m.json"],
    ["classify", "--skew", "m.json"],
])
def test_matrix_object_without_rows_exits_2(files, capsys, argv):
    write, _ = files
    paths = {"st.json": write("st.json", {"arity": 2, "constants": []}),
             "m.json": write("m.json", {"schema": "nary/1"}),
             "s.json": write("s.json", SPACE5)}
    option = argv[-2].strip("-")
    argv = [paths.get(a, a) for a in argv + ["--space", "s.json"]]
    code, out, err = run_main(argv, capsys)
    assert code == 2 and out == ""
    assert err == (f'{{"error":"{option}.matrix: expected a list of rows",'
                   '"kind":"SchemaError","schema":"nary/1"}\n')


@pytest.mark.parametrize("command", [
    ["verify", "--identity", "quasi-frobenius"], ["frobenius"]])
def test_quasi_frobenius_reads_the_structure_before_phi(files, capsys,
                                                         command):
    # both documents are malformed: the structure's error is the one shown
    write, _ = files
    code, out, err = run_main(command + [
        "--space", write("s.json", SPACE5),
        "--structure", write("st.json", {"arity": 2, "constants": 5}),
        "--phi", write("m.json", [5] * 5)], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"].startswith("structure.constants:")


def test_frobenius_graph_refuses_odd_arity_before_the_loop(files, capsys):
    # arity 3 at m = 16 once ran the 16^4-tuple cyclic loop and built the
    # extension before the graph test refused it
    write, _ = files
    m = 16
    space = {"schema": "nary/1", "dim": m, "parity": ["odd"] * m,
             "gram": [["1" if i == j else "0" for j in range(m)]
                      for i in range(m)]}
    st = {"schema": "nary/1", "arity": 3, "constants": [
        {"args": [i, i + 1, i + 2],
         "value": [{"monomial": [(i + 5) % m + 1], "coeff": "1"}]}
        for i in range(1, m - 1)]}
    phi = [["0"] * m for _ in range(m)]
    argv = ["frobenius", "--space", write("s.json", space),
            "--structure", write("st.json", st),
            "--phi", write("m.json", phi), "--graph", "--allow-odd-arity"]
    start = time.perf_counter()
    code, out, err = run_main(argv, capsys)
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert err == ('{"error":"the correspondence is stated for even arity",'
                   '"kind":"OddArity","schema":"nary/1"}\n')


@pytest.mark.parametrize("value", ["x", 0, -1, 2.5, True, None])
def test_bad_max_degree_exits_2(files, capsys, value):
    # a mixed space, so the cap is read when the bracket builds monomials
    write, _ = files
    space = {"schema": "nary/1", "dim": 3, "parity": ["even", "even", "odd"],
             "gram": [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "1"]],
             "max_degree": value}
    mu = {"schema": "nary/1", "arity": 2,
          "element": [{"monomial": [1, 2, 3], "coeff": "1"}]}
    code, out, err = run_main(
        ["verify", "--space", write("s.json", space), "--identity",
         "l-infinity", "--potential", write("mu.json", mu)], capsys)
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["kind"] == "SchemaError"
    assert report["error"].startswith("superspace.max_degree:")


def test_import_leaves_numpy_and_scipy_unloaded(files):
    # importing loads neither, and no command does either: classify and
    # table compute exact block parameters; only canonical_form loads them
    write, _ = files
    s5 = write("s5.json", SPACE5)
    v = write("v.json", [{"monomial": [1, 2], "coeff": "2"},
                         {"monomial": [3, 4], "coeff": "1/3"}])
    a = write("a.json", {"schema": "nary/1", "matrix": [
        [str(int(i < j) - int(j < i)) for j in range(5)] for i in range(5)]})
    jobs = [["classify", "--space", s5, "--v", v],
            ["classify", "--space", s5, "--skew", a],
            ["table", "--m", "5", "6", "--grid", "0", "1", "2"]]
    code = ("import sys, naryalg.cli\n"
            "def loaded():\n"
            "    return [m for m in ('numpy', 'scipy') if m in sys.modules]\n"
            "print(loaded(), file=sys.stderr)\n"
            f"for argv in {jobs!r}:\n"
            "    assert naryalg.cli.main(argv) == 0\n"
            "    print(loaded(), file=sys.stderr)\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, check=True)
    assert r.stderr.split() == ["[]"] * 4
    assert len(r.stdout.splitlines()) == 2 + 6 + 10


def test_import_loads_neither_dataclasses_nor_inspect():
    # the records are plain classes: importing dataclasses would also load
    # inspect, dis, tokenize and ast at every command's start-up
    code = ("import sys, naryalg.cli\n"
            "print([m for m in ('dataclasses', 'inspect') "
            "if m in sys.modules])\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, check=True)
    assert r.stdout.split() == ["[]"]


def test_missing_file_exits_2(files, capsys):
    write, tmp = files
    code, _, err = run_main(
        ["verify", "--space", write("s.json", SPACE5),
         "--identity", "filippov", "--potential", str(tmp / "nope.json")],
        capsys)
    assert code == 2


def test_unsorted_monomial_exits_2(files, capsys):
    write, _ = files
    bad = {"schema": "nary/1", "arity": 2,
           "element": [{"monomial": [3, 1], "coeff": "1"}]}
    code, _, err = run_main(
        ["verify", "--space", write("s.json", SPACE5),
         "--identity", "l-infinity", "--potential", write("mu.json", bad)],
        capsys)
    assert code == 2
    assert "ascending" in err


W12 = [{"monomial": [1, 2], "coeff": "1"}]


@pytest.mark.parametrize("argv, error", [
    (["verify", "--identity", "commutative"],
     "need --structure or --potential"),
    (["verify", "--identity", "l-infinity"], "need --potential"),
    (["verify", "--identity", "derivation", "--element", "w.json"],
     "need --potential"),
    (["verify", "--identity", "quasi-frobenius"],
     "quasi-frobenius check needs --phi"),
    (["verify", "--identity", "derivation"],
     "derivation check needs --element"),
])
def test_missing_option_exits_2_with_its_refusal(files, capsys, argv, error):
    write, _ = files
    argv = [write(a, W12) if a == "w.json" else a for a in argv]
    code, out, err = run_main(argv + ["--space", write("s.json", SPACE5)],
                              capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"schema": io.SCHEMA, "error": error,
                               "kind": "NaryError"}


@pytest.mark.parametrize("argv, options", [
    (["classify", "--space", "s.json"], "--v --skew"),
    (["frobenius", "--space", "s.json", "--phi", "m.json"],
     "--potential --structure"),
])
def test_missing_either_or_option_exits_2_with_its_usage(capsys, argv,
                                                         options):
    # argparse refuses the command line before any file is read, as it
    # refuses a missing --space
    with pytest.raises(SystemExit) as ex:
        main(argv)
    assert ex.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"one of the arguments {options} is required" in out.err


@pytest.mark.parametrize("argv, pair", [
    (["classify", "--space", "s.json", "--v", "v.json", "--skew", "a.json"],
     ("--skew", "--v")),
    (["verify", "--space", "s.json", "--identity", "commutative",
      "--structure", "st.json", "--potential", "mu.json"],
     ("--potential", "--structure")),
    (["frobenius", "--space", "s.json", "--structure", "st.json",
      "--potential", "mu.json", "--phi", "m.json"],
     ("--potential", "--structure")),
])
def test_both_either_or_options_exit_2(capsys, argv, pair):
    # the second option was once read and the first silently dropped
    with pytest.raises(SystemExit) as ex:
        main(argv)
    assert ex.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"argument {pair[0]}: not allowed with argument {pair[1]}" in \
        out.err


# each option that reads a degree-2 element, with the engine's refusal of
# the same element through the Python API
DEGREE_2_OPTIONS = {
    "classify --v": (["classify", "--v", "w.json"], element_to_skew),
    "verify derivation --element": (
        ["verify", "--identity", "derivation", "--potential", "mu.json",
         "--element", "w.json"],
        lambda w: check_derivation(w, io.parse_potential(w.space, MU2))),
}


@pytest.mark.parametrize("option", sorted(DEGREE_2_OPTIONS))
@pytest.mark.parametrize("monomials", [[[1, 2, 3]], [[1, 2], [3, 4, 5]]],
                         ids=["degree-3", "mixed"])
def test_element_of_another_degree_exits_2_at_its_field(files, capsys,
                                                        option, monomials):
    write, _ = files
    argv, api = DEGREE_2_OPTIONS[option]
    # the refusal names the option the element was read from
    path = argv[argv.index("w.json") - 1].removeprefix("--")
    w = [{"monomial": mono, "coeff": "1"} for mono in monomials]
    paths = {"w.json": write("w.json", w), "mu.json": write("mu.json", MU2)}
    argv = [paths.get(a, a) for a in argv] + \
        ["--space", write("s.json", SPACE5)]
    code, out, err = run_main(argv, capsys)
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["kind"] == "SchemaError"
    assert report["error"] == f"{path}: expected an element of degree 2"
    with pytest.raises(WrongDegree):
        api(io.parse_element(io.parse_superspace(SPACE5), w, path))


def test_output_flag_and_pretty(files, capsys, tmp_path):
    write, _ = files
    out_path = tmp_path / "report.json"
    code, out, _ = run_main(
        ["verify", "--space", write("s.json", SPACE5),
         "--identity", "filippov", "--potential", write("mu.json", MU2),
         "--pretty", "--output", str(out_path)], capsys)
    assert code == 0 and out == ""
    text = out_path.read_text()
    assert text.startswith("{\n")
    assert json.loads(text)["pass"] is True


@pytest.mark.parametrize("target", ["missing/report.json", "."])
def test_unwritable_output_exits_2(files, capsys, target):
    # exit 1 means "identity check failed", so a report that cannot be
    # written is refused as bad input instead, with no traceback
    write, tmp = files
    argv = ["verify", "--space", write("s.json", SPACE5), "--identity",
            "filippov", "--potential", write("mu.json", MU2),
            "--output", str(tmp / target)]
    code, out, err = run_main(argv, capsys)
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["kind"] == "SchemaError"
    assert report["error"].startswith("--output: cannot write file: ")
    fresh = subprocess.run([sys.executable, "-m", "naryalg.cli"] + argv,
                           capture_output=True, text=True)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (2, "", err)


def test_byte_identical_across_runs(files):
    write, tmp = files
    space = write("s.json", SPACE5)
    mu = write("mu.json", MU3)
    cmd = [sys.executable, "-m", "naryalg.cli", "verify", "--space", space,
           "--identity", "l-infinity", "--potential", mu]
    r1 = subprocess.run(cmd, capture_output=True)
    r2 = subprocess.run(cmd, capture_output=True)
    assert r1.stdout == r2.stdout
    assert r1.returncode == r2.returncode == 1


def _constant(args, *terms):
    return {"args": args, "value": [{"monomial": [i], "coeff": c}
                                    for i, c in terms]}


MIXED4 = {"schema": "nary/1", "dim": 4,
          "parity": ["even", "even", "odd", "odd"],
          "gram": [["0", "1", "0", "0"], ["-1", "0", "0", "0"],
                   ["0", "0", "1", "0"], ["0", "0", "0", "1"]]}
# an even square and a mixed key obey graded symmetry; an odd square does
# not, and the table cannot encode any other violation
SQUARES = [_constant([1, 1], (2, "1")), _constant([1, 3], (4, "1"))]
ODD_SQUARES = [_constant([3, 3], (1, "-1/2")),
               _constant([4, 4], (2, "3"), (3, "1"))]
REPORT = ('{"check":"commutative","detail":"nonzero product on a repeated '
          'odd argument","pass":false,"residual":[{"coeff":"-1/2",'
          '"monomial":[1]}],"schema":"nary/1",')


@pytest.mark.parametrize("odd_squares, exhaustive, want", [
    (0, False, '{"check":"commutative","pass":true,"residual":null,'
               '"schema":"nary/1","witness":null}\n'),
    (1, False, REPORT + '"witness":[3,3]}\n'),
    (1, True, REPORT + '"witness":[3,3]}\n'),
    (2, False, REPORT + '"witness":[3,3]}\n'),
    (2, True, REPORT + '"violations":[{"residual":[{"coeff":"-1/2",'
              '"monomial":[1]}],"witness":[3,3]},{"residual":[{"coeff":"3",'
              '"monomial":[2]},{"coeff":"1","monomial":[3]}],'
              '"witness":[4,4]}],"witness":[3,3]}\n'),
])
def test_verify_commutative_report_bytes(files, capsys, odd_squares,
                                         exhaustive, want):
    write, _ = files
    st = {"schema": "nary/1", "arity": 2,
          "constants": SQUARES + ODD_SQUARES[:odd_squares]}
    argv = ["verify", "--space", write("s.json", MIXED4), "--identity",
            "commutative", "--structure", write("st.json", st)]
    code, out, err = run_main(argv + ["--exhaustive"] * exhaustive, capsys)
    assert (code, out, err) == (1 if odd_squares else 0, want, "")


def test_unknown_identity_lists_the_nine_in_order(capsys):
    with pytest.raises(SystemExit) as ex:
        main(["verify", "--space", "s.json", "--identity", "bogus"])
    assert ex.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'bogus'" in err
    listed = re.findall(r"[a-z][a-z-]*", err.split("choose from")[1])
    assert listed == ["commutative", "invariant", "l-infinity", "nary-jacobi",
                      "filippov", "jordan", "associative", "derivation",
                      "quasi-frobenius"]


MIXED3 = {"schema": "nary/1", "dim": 3, "parity": ["even", "even", "odd"],
          "gram": [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "1"]]}
MU_MIXED = {"schema": "nary/1", "arity": 2,
            "element": [{"monomial": [1, 2, 3], "coeff": "1"}]}


# a minimal command line of each subcommand
COMMAND_LINES = {
    "verify": ["verify", "--space", "s.json", "--identity", "l-infinity",
               "--potential", "mu.json"],
    "derive": ["derive", "--space", "s.json", "--potential", "mu.json"],
    "star": ["star", "--space", "s.json", "--element", "v.json"],
    "bracket": ["bracket", "--space", "s.json", "--a", "a.json",
                "--b", "b.json"],
    "hodge": ["hodge", "--space", "s.json", "--potential", "mu.json"],
    "classify": ["classify", "--space", "s.json", "--v", "v.json"],
    "table": ["table", "--m", "5"],
    "frobenius": ["frobenius", "--space", "s.json", "--structure", "st.json",
                  "--phi", "phi.json"],
}


@pytest.mark.parametrize("value", ["-1", "0", "6"])
def test_bad_max_degree_flag_exits_2(capsys, value):
    # the degree cap lives in the space document alone: every subcommand
    # refuses the flag, whatever its value, before any file is read
    for argv in COMMAND_LINES.values():
        with pytest.raises(SystemExit) as ex:
            main(argv + ["--max-degree", value])
        assert ex.value.code == 2
        assert "unrecognized arguments: --max-degree" in \
            capsys.readouterr().err


def test_space_document_cap_is_the_only_cap(files, capsys):
    # a degree-3 monomial is refused under a document cap of 2, at its
    # field, and read under the default cap of 2 * dim
    write, _ = files
    mu = write("mu.json", MU_MIXED)
    code, out, err = run_main(
        ["verify", "--space", write("s2.json", dict(MIXED3, max_degree=2)),
         "--identity", "l-infinity", "--potential", mu], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "schema": "nary/1", "kind": "SchemaError",
        "error": "potential.element[0].monomial: monomial degree 3 exceeds "
                 "cap 2"}
    code, out, err = run_main(
        ["verify", "--space", write("s.json", MIXED3), "--identity",
         "l-infinity", "--potential", mu], capsys)
    assert code in (0, 1) and out and not err


def test_repeated_main_calls_match_fresh_processes(files, capsys):
    # one process runs several jobs through the shared parser; no option
    # may carry over from one call to the next
    write, _ = files
    s5 = write("s5.json", SPACE5)
    s2 = write("s2.json", {"schema": "nary/1", "dim": 2,
                           "parity": ["odd", "odd"],
                           "gram": [["1", "0"], ["0", "1"]]})
    mixed = write("mixed.json", MIXED3)
    capped = write("capped.json", dict(MIXED3, max_degree=2))
    mu_mixed = write("mu_mixed.json", MU_MIXED)
    mu2 = write("mu2.json", MU2)
    mu3 = write("mu3.json", MU3)
    st = write("st.json", {"schema": "nary/1", "arity": 2,
                           "constants": [{"args": [1, 2], "value": [
                               {"monomial": [2], "coeff": "1"}]}]})
    phi = write("phi.json", {"schema": "nary/1",
                             "matrix": [["0", "1"], ["-1", "0"]]})
    phi0 = write("phi0.json", {"schema": "nary/1",
                               "matrix": [["0", "0"], ["0", "0"]]})
    v = write("v.json", [{"monomial": [1, 2], "coeff": "1"}])
    jobs = [
        ["verify", "--space", capped, "--identity", "l-infinity",
         "--potential", mu_mixed],
        ["verify", "--space", mixed, "--identity", "l-infinity",
         "--potential", mu_mixed],
        ["verify", "--space", s5, "--identity", "nary-jacobi",
         "--potential", mu3, "--exhaustive"],
        ["verify", "--space", s5, "--identity", "filippov",
         "--potential", mu3],
        ["frobenius", "--space", s2, "--structure", st, "--phi", phi,
         "--graph", "--pretty"],
        ["verify", "--space", s2, "--identity", "quasi-frobenius",
         "--structure", st, "--phi", phi0],
        ["classify", "--space", s5, "--v", v, "--seed", "3"],
        ["classify", "--space", s5, "--v", v],
        ["table", "--m", "5", "--grid", "1"],
        ["derive", "--space", s5, "--potential", mu2],
    ]
    for argv in jobs:
        code, out, _ = run_main(argv, capsys)
        fresh = subprocess.run([sys.executable, "-m", "naryalg.cli"] + argv,
                               capture_output=True, text=True)
        assert (code, out) == (fresh.returncode, fresh.stdout), argv


@pytest.mark.parametrize("command", ["classify", "table"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_bad_tolerance_flag_exits_2(files, capsys, command, value):
    # the block parameters are exact, so no residual bound is read and the
    # flag is refused
    write, _ = files
    argv = (["classify", "--space", write("s.json", SPACE5), "--v",
             write("v.json", [{"monomial": [1, 2], "coeff": "1"}])]
            if command == "classify" else ["table", "--m", "5"])
    with pytest.raises(SystemExit) as ex:
        main(argv + ["--tolerance", value])
    assert ex.value.code == 2
    assert f"unrecognized arguments: --tolerance {value}" in \
        capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--space", "s.json", "--identity", "filippov", "--pot",
     "mu.json"],
    ["verify", "--space", "s.json", "--identity", "filippov", "--exh"],
    ["classify", "--space", "s.json", "--v", "v.json", "--sk", "a.json"],
    ["table", "--m", "5", "--gr", "1"],
    ["frobenius", "--space", "s.json", "--structure", "st.json", "--phi",
     "phi.json", "--gra"],
    ["hodge", "--space", "s.json", "--potential", "mu.json", "--pre"],
])
def test_abbreviated_flag_exits_2(argv, capsys):
    # only the full spelling of an option parses, never a unique prefix
    with pytest.raises(SystemExit) as ex:
        main(argv)
    assert ex.value.code == 2
    assert "unrecognized arguments: " in capsys.readouterr().err


def test_table_over_the_work_budget_exits_2_first(capsys):
    # C(10 + 7 - 1, 7) = 11,440 jobs at m = 14, refused before any is run
    start = time.perf_counter()
    code, out, err = run_main(["table", "--m", "14", "--grid"] +
                              [str(g) for g in range(10)], capsys)
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "schema": "nary/1", "kind": "NaryError",
        "error": "the table would run 11440 classify jobs, above the work "
                 "budget of 1000"}


@pytest.mark.parametrize("argv, removed", [
    (["verify", "--space", "s.json", "--identity", "filippov"],
     ["--threads", "1"]),
    (["classify", "--space", "s.json", "--v", "v.json"], ["--rounds", "8"]),
    (["table", "--m", "5"], ["--seed", "0"]),
    (["derive", "--space", "s.json", "--potential", "mu.json"],
     ["--exhaustive"]),
    (["hodge", "--space", "s.json", "--potential", "mu.json"],
     ["--tolerance", "1e-9"]),
    (["table", "--m", "5"], ["--max-degree", "3"]),
])
def test_removed_flag_exits_2(argv, removed, capsys):
    with pytest.raises(SystemExit) as ex:
        main(argv + removed)
    assert ex.value.code == 2
    assert "unrecognized arguments: " + " ".join(removed) in \
        capsys.readouterr().err


# every option each subcommand accepts; each one is read by its command
OPTIONS = {
    "verify": {"--space", "--exhaustive", "--identity", "--potential",
               "--structure", "--element", "--phi", "--allow-odd-arity"},
    "derive": {"--space", "--potential"},
    "star": {"--space", "--element"},
    "bracket": {"--space", "--a", "--b"},
    "hodge": {"--space", "--potential"},
    "classify": {"--space", "--v", "--skew", "--seed"},
    "table": {"--m", "--grid"},
    "frobenius": {"--space", "--potential", "--structure", "--phi",
                  "--graph", "--allow-odd-arity"},
}


def test_each_subcommand_accepts_only_its_options():
    parser = build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    slots = {name: {opt for a in p._actions
                    if not isinstance(a, argparse._HelpAction)
                    for opt in a.option_strings}
             for name, p in sub.choices.items()}
    assert slots == {name: opts | {"--pretty", "--output"}
                     for name, opts in OPTIONS.items()}
    assert sum(map(len, slots.values())) == 45
