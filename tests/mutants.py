"""Committed source mutants, and a runner that checks the suite kills them.

Each mutant names a file of the checkout, a function in it (``name`` or
``Class.name``) or a name assigned at its top level, an old text that
occurs exactly once inside that definition, the new text that replaces
it, and the tests that must kill it.
For each mutant the runner copies ``src/``, ``tests/`` and
``pyproject.toml`` to a new temporary directory, applies the mutant there
and runs its tests with ``python -m pytest -q -x``, one process at a time.
It prints "killed" or "survived" with the wall time, and exits 1 if any
mutant survives.  A mutant that no longer applies, or tests that fail
before any mutation, exit 2.

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named ones

The list is not part of the tier-1 suite: pytest collects only
``test_*.py``.  A mutant that survives names a test still to be written;
it is never taken off the list.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "pyproject.toml")

Mutant = namedtuple("Mutant", "name file function old new tests")

SUPERSPACE = "src/naryalg/superspace.py"
POISSON = "src/naryalg/poisson.py"
CLASSIFY = "src/naryalg/classify.py"
LINALG = "src/naryalg/linalg.py"
DERIVED = "src/naryalg/derived.py"
FROBENIUS = "src/naryalg/frobenius.py"
CLI = "src/naryalg/cli.py"
IO = "src/naryalg/io.py"

CONTRACTION = "tests/test_poisson.py::" \
    "test_nested_bracket_indices_matches_the_chain_on_random_spaces"
SCATTER = "tests/test_derived.py::" \
    "test_closed_form_scatter_matches_the_gather_on_random_spaces"
GRAPH = "tests/test_frobenius.py::test_graph_test_matches_the_pairing_oracle"
COMMUTATIVE = "tests/test_cli.py::test_verify_commutative_report_bytes"

MUTANTS = [
    # the form read once
    Mutant("pair-skipped-when-one-entry-is-zero", SUPERSPACE,
           "Superspace.__init__", "if not x and not y:", "if not x or not y:",
           ["tests/test_superspace.py::"
            "test_corrupted_forms_raise_as_the_dense_loop"]),
    Mutant("parity-not-checked-to-be-a-sequence", SUPERSPACE,
           "Superspace.__init__", "if not isinstance(parity, (list, tuple)):",
           "if False:",
           ["tests/test_superspace.py::test_parity_must_be_a_sequence"]),
    Mutant("orthonormal-ignores-off-diagonal-entries", SUPERSPACE,
           "Superspace.__init__", "row == {i: 1} for i", "row.get(i) == 1 for i",
           ["tests/test_superspace.py::"
            "test_pairing_orthonormal_and_rank_on_random_spaces"]),
    Mutant("bracket-reads-the-transposed-row", POISSON, "_bracket_monomials",
           "g = row.get(wj)", "g = pairing[wj].get(ui)",
           ["tests/test_poisson.py::test_oracle_equivalence_all_pairs_mixed",
            "tests/test_poisson.py::"
            "test_oracle_equivalence_on_random_mixed_spaces_up_to_m9"]),
    Mutant("permutation-sign-fixed-at-plus-one", SUPERSPACE,
           "permutation_sign", "    return sign\n", "    return 1\n",
           ["tests/test_superspace.py::"
            "test_permutation_sign_matches_the_cycle_count",
            "tests/test_superspace.py::test_orientation_sign",
            "tests/test_hodge.py::test_star_basics_frozen"]),
    Mutant("evenness-check-dropped", CLASSIFY, "isomorphic_via",
           'raise NotOrthogonal("phi maps a generator onto the other parity")',
           "pass",
           ["tests/test_classify.py::"
            "test_isomorphic_via_refuses_a_map_that_mixes_parities"]),
    Mutant("map-element-takes-phi-unchecked", CLASSIFY, "map_element",
           "    phi = linalg.square_matrix(phi, space.dim)\n", "",
           ["tests/test_classify.py::"
            "test_map_element_refuses_a_matrix_of_the_wrong_shape"]),
    Mutant("element-range-check-off-by-one", POISSON, "_check_mono",
           "mono[-1] >= space.dim", "mono[-1] > space.dim",
           ["tests/test_poisson.py::"
            "test_element_refuses_an_index_outside_the_basis"]),
    # exactness decided once in linalg
    Mutant("float-refusal-dropped", LINALG, "exact",
           "if isinstance(c, Real) and not isinstance(c, Rational):",
           "if False:",
           ["tests/test_linalg.py::test_exact_is_the_one_scalar_rule"]),
    Mutant("float-converted-by-fraction", LINALG, "exact",
           'raise InexactCoefficient(f"float coefficient {c!r}: give an int, "'
           '\n                                 "a Fraction or a \'p/q\' string")',
           "return Fraction(c)",
           ["tests/test_linalg.py::test_exact_is_the_one_scalar_rule"]),
    Mutant("bool-let-through", LINALG, "exact",
           "if isinstance(c, Rational) and not isinstance(c, bool):",
           "if isinstance(c, Rational):",
           ["tests/test_linalg.py::test_exact_is_the_one_scalar_rule"]),
    Mutant("rational-kept-fixed-width", LINALG, "exact",
           "return Fraction(int(c.numerator), int(c.denominator))",
           "return Fraction(c)",
           ["tests/test_linalg.py::test_exact_is_the_one_scalar_rule"]),
    Mutant("skew-loop-skips-the-diagonal", LINALG, "skew_matrix",
           "for j in range(i, len(a)):", "for j in range(i + 1, len(a)):",
           ["tests/test_classify.py::test_not_skew_rejected"]),
    Mutant("positive-definite-on-semidefinite", SUPERSPACE,
           "is_positive_definite", "c > 0 for k", "c >= 0 for k",
           ["tests/test_superspace.py::"
            "test_positive_definite_matches_sylvester"]),
    Mutant("det-sign-flipped", LINALG, "det",
           "Fraction((-1) ** m * charpoly(b)[m]",
           "Fraction(-(-1) ** m * charpoly(b)[m]",
           ["tests/test_classify.py::test_isomorphic_via_identity",
            "tests/test_linalg.py::test_det_matches_the_bareiss_oracle"]),
    Mutant("det-charpoly-of-unscaled-entries", LINALG, "det",
           "charpoly(b)[m]", "charpoly(square_matrix(a))[m]",
           ["tests/test_classify.py::"
            "test_isomorphic_orbits_preserve_identities",
            "tests/test_linalg.py::test_det_matches_the_bareiss_oracle"]),
    Mutant("block-parameters-charpoly-of-unscaled-entries", CLASSIFY,
           "block_parameters", "c = linalg.charpoly(b)",
           "c = linalg.charpoly(linalg.skew_matrix(a))",
           ["tests/test_classify.py::"
            "test_block_parameters_match_the_canonical_form"]),
    Mutant("positive-definite-charpoly-of-unscaled-entries", SUPERSPACE,
           "is_positive_definite", "linalg.charpoly(b)",
           "linalg.charpoly(space.gram)",
           ["tests/test_linalg.py::test_charpoly_is_called_over_the_integers"]),
    # derived brackets by direct contraction
    Mutant("contraction-sign-dropped", POISSON, "nested_bracket_indices",
           "v = -c * g if odd and p else c * g", "v = c * g", [CONTRACTION]),
    Mutant("contraction-parity-not-advanced", POISSON,
           "nested_bracket_indices", "                p ^= par[x]\n", "",
           [CONTRACTION]),
    Mutant("generator-range-check-dropped", POISSON, "Element.generator",
           "if not 0 <= i < space.dim:", "if False:",
           ["tests/test_poisson.py::"
            "test_generator_refuses_an_index_outside_the_basis"]),
    Mutant("scatter-prune-lets-an-odd-index-repeat", DERIVED,
           "closed_form_potential", "b > last or b == last and not par[b]",
           "b >= last", [SCATTER]),
    Mutant("scatter-counts-each-even-repeat-ordering", DERIVED,
           "closed_form_potential", "if pos and x == rest[pos - 1]:",
           "if False:", [SCATTER]),
    Mutant("scatter-koszul-sign-dropped", DERIVED, "closed_form_potential",
           "flip = par[x] and odd_before % 2", "flip = 0", [SCATTER]),
    Mutant("eval-elements-drops-the-coefficient-product", DERIVED,
           "NaryStructure.eval_elements", "rec(k + 1, idx, coeff * c)",
           "rec(k + 1, idx, coeff)",
           ["tests/test_derived.py::"
            "test_eval_elements_is_the_multilinear_extension"]),
    Mutant("jacobi-scatter-koszul-sign-dropped", DERIVED, "check_nary_jacobi",
           "coeff = -1 if crossings % 2 else 1", "coeff = 1",
           ["tests/test_derived.py::test_support_loops_match_gather_oracles"]),
    # each fact computed once
    Mutant("skew-transpose-sign-flipped", CLASSIFY, "element_to_skew",
           "a[i][j], a[j][i] = c, -c", "a[i][j], a[j][i] = c, c",
           ["tests/test_classify.py::"
            "test_element_to_skew_matches_the_bracket_oracle"]),
    Mutant("skew-rank-counts-each-block-once", CLASSIFY, "classify_m3",
           "rank = 2 * len(params)", "rank = len(params)",
           ["tests/test_classify.py::test_classify_records_match_theory"]),
    Mutant("graph-pairing-drops-the-phi-term", FROBENIUS,
           "graph_subalgebra_test", "pairings[j] += phi[j][x] * c", "pass",
           [GRAPH]),
    Mutant("graph-pairing-drops-the-dual-term", FROBENIUS,
           "graph_subalgebra_test", "pairings[x - m] += c", "pass", [GRAPH]),
    Mutant("jordan-inner-sign-dropped", DERIVED, "check_jordan",
           "-nested_bracket_indices(space, (j,), A_[i])",
           "nested_bracket_indices(space, (j,), A_[i])",
           ["tests/test_derived.py::test_jordan_brackets_each_inner_once"]),
    Mutant("classify-agreement-check-disabled", CLASSIFY, "classify_m3",
           'if ideal.status != ("simple (certified)" if simple else '
           '"ideal found"):', "if False:",
           ["tests/test_classify.py::"
            "test_classify_m3_raises_when_the_ideal_search_disagrees"]),
    # the verify path decides each thing once
    Mutant("report-ignores-exhaustive", DERIVED, "_report",
           "violations if exhaustive else islice(violations, 1)",
           "islice(violations, 1)",
           [COMMUTATIVE, "tests/test_derived.py::"
            "test_single_thread_verifiers_keep_first_witness"]),
    Mutant("commutative-detail-dropped", DERIVED, "check_commutative",
           'exhaustive, "nonzero product on a repeated odd argument")',
           "exhaustive)", [COMMUTATIVE]),
    Mutant("identity-structure-flag-flipped", CLI, "IDENTITIES",
           '"commutative": (True,', '"commutative": (False,', [COMMUTATIVE]),
    Mutant("matrix-field-path-off-by-one", IO, "_parse_rows",
           'f"{path}[{i}][{j}]"', 'f"{path}[{i}][{j + 1}]"',
           ["tests/test_cli.py::test_malformed_field_exits_2_with_its_path"]),
    Mutant("odd-arity-graph-refusal-disabled", CLI, "_quasi_frobenius",
           "if graph and args.allow_odd_arity and s.arity % 2:", "if False:",
           ["tests/test_cli.py::"
            "test_frobenius_graph_refuses_odd_arity_before_the_loop"]),
]


class NotApplicable(Exception):
    pass


def _defined_name(node):
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        return getattr(node.targets[0], "id", None)
    return getattr(node, "name", None)


def _function_lines(source, qualname):
    """(first, last) 1-based lines of the function or top-level
    assignment ``qualname``."""
    body = ast.parse(source).body
    node = None
    for part in qualname.split("."):
        node = next((n for n in body if _defined_name(n) == part), None)
        if node is None:
            raise NotApplicable(f"no {qualname}")
        body = getattr(node, "body", [])
    return node.lineno, node.end_lineno


def apply(mutant, root):
    """Rewrite the mutant's file under root; NotApplicable unless its old
    text occurs exactly once in its function."""
    path = os.path.join(root, mutant.file)
    with open(path) as f:
        lines = f.read().splitlines(keepends=True)
    first, last = _function_lines("".join(lines), mutant.function)
    body = "".join(lines[first - 1:last])
    if body.count(mutant.old) != 1:
        raise NotApplicable(f"old text occurs {body.count(mutant.old)} "
                            f"times in {mutant.function}")
    body = body.replace(mutant.old, mutant.new)
    with open(path, "w") as f:
        f.write("".join(lines[:first - 1]) + body + "".join(lines[last:]))


def _copy(root):
    for name in COPIED:
        src = os.path.join(ROOT, name)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(root, name),
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy(src, root)


def run_tests(root, tests):
    """pytest's exit code on the tests, run in the copy at root."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [os.path.join(root, "src"),
                                 os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x",
           "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main(argv):
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [by_name[name] for name in argv] or MUTANTS
    with tempfile.TemporaryDirectory() as root:
        _copy(root)
        tests = sorted({t for m in chosen for t in m.tests})
        if run_tests(root, tests) != 0:
            print("the mutants' tests fail on the unmutated source",
                  file=sys.stderr)
            return 2
    survived = broken = 0
    for m in chosen:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as root:
            _copy(root)
            try:
                apply(m, root)
            except NotApplicable as ex:
                print(f"{m.name}: not applicable ({ex})")
                broken += 1
                continue
            code = run_tests(root, m.tests)
        seconds = time.perf_counter() - start
        # 1: a test failed; 2: collection failed on the mutated source
        verdict = {0: "survived", 1: "killed", 2: "killed"}.get(
            code, f"error (pytest exit {code})")
        print(f"{m.name}: {verdict} ({seconds:.1f} s)")
        survived += code == 0
        broken += code not in (0, 1, 2)
    print(f"{len(chosen) - survived - broken} killed, {survived} survived, "
          f"{broken} not run")
    return 1 if survived else 2 if broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
