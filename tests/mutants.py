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

The runs are not part of the tier-1 suite: pytest collects only
``test_*.py``.  ``tests/test_mutants.py`` checks there, without running
any mutant, that each one still applies and that the tests it names
exist.  A mutant that survives names a test still to be written; it is
never taken off the list.
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
HODGE = "src/naryalg/hodge.py"

CONTRACTION = "tests/test_poisson.py::" \
    "test_nested_bracket_indices_matches_the_chain_on_random_spaces"
SCATTER = "tests/test_derived.py::" \
    "test_closed_form_scatter_matches_the_gather_on_random_spaces"
GRAPH = "tests/test_frobenius.py::test_graph_test_matches_the_pairing_oracle"
COMMUTATIVE = "tests/test_cli.py::test_verify_commutative_report_bytes"
OPERATORS = "tests/test_derived.py::" \
    "test_operators_scatter_matches_the_gather_on_random_spaces"
MALFORMED = "tests/test_cli.py::test_malformed_field_exits_2_with_its_path"
SUFFIXES = "tests/test_derived.py::" \
    "test_contractions_match_the_per_tuple_path_on_random_spaces"
MIXED_KERNELS = "tests/test_hodge.py::" \
    "test_mixed_kernels_match_the_laplacian_oracle"
LEIBNIZ = "tests/test_hodge.py::test_differential_matches_the_bracket_oracle"
SQUARE_ZERO = "tests/test_hodge.py::test_square_zero_checks_raise"
OPERATOR_ROUTINES = "tests/test_linalg.py::" \
    "test_operator_routines_match_dense_matrices"
STAR_SIGN = "tests/test_hodge.py::" \
    "test_star_sign_closed_form_matches_permutation_sign"
COTANGENT = "tests/test_frobenius.py::" \
    "test_cotangent_potential_matches_the_closed_form"
SEMANTIC = "tests/test_io_fuzz.py::" \
    "test_semantic_error_exits_2_at_the_field_at_fault"

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
            STAR_SIGN]),
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
           "poisson_bracket(-Element._trusted(space, terms)",
           "poisson_bracket(Element._trusted(space, terms)",
           ["tests/test_derived.py::test_jordan_brackets_each_inner_once"]),
    Mutant("jordan-counts-each-unordered-pair-once", DERIVED, "check_jordan",
           "(term if a == b else term.scale(2))", "term",
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
           'f"{path}[{i}][{j}]"', 'f"{path}[{i}][{j + 1}]"', [MALFORMED]),
    Mutant("odd-arity-graph-refusal-disabled", CLI, "_quasi_frobenius",
           "if graph and args.allow_odd_arity and s.arity % 2:", "if False:",
           ["tests/test_cli.py::"
            "test_frobenius_graph_refuses_odd_arity_before_the_loop"]),
    # a structure's live keys and operators decided once
    Mutant("operators-sign-dropped", DERIVED, "NaryStructure.operators",
           "flip = parity[c] and sum(parity[i] for i in t[pos:]) % 2",
           "flip = 0",
           [OPERATORS]),
    Mutant("operators-repeated-even-index-scattered-twice", DERIVED,
           "NaryStructure.operators",
           "if pos and key[pos - 1] == c:", "if False:",
           [OPERATORS]),
    Mutant("live-keeps-odd-squares", DERIVED, "NaryStructure.__init__",
           "if not any(a == b and parity[a] for a, b in zip(key, key[1:])):",
           "if True:", [COMMUTATIVE, OPERATORS]),
    Mutant("structure-key-length-refusal-disabled", IO, "parse_structure",
           "if len(key) != arity:", "if False:", [MALFORMED]),
    # a potential contracted once per shared suffix
    Mutant("contractions-koszul-sign-dropped", DERIVED, "contractions",
           "v = -c * g if par[a] and p else c * g", "v = c * g", [SUFFIXES]),
    Mutant("contractions-parity-not-advanced", DERIVED, "contractions",
           "                    p ^= par[x]\n", "", [SUFFIXES]),
    Mutant("contractions-prune-lets-an-odd-index-repeat", DERIVED,
           "contractions", "if a > first or a == first and par[a]:",
           "if a > first:", [SUFFIXES]),
    Mutant("contractions-zero-filter-dropped", DERIVED, "contractions",
           "node = {mono: c for mono, c in node.items() if c}",
           "node = dict(node)", [SUFFIXES]),
    Mutant("cubic-operators-fill-the-wrong-index", DERIVED,
           "_cubic_operators", "level.get((i,), {})",
           "level.get((i - 1,), {})",
           ["tests/test_derived.py::"
            "test_cubic_operators_match_the_generator_contractions"]),
    Mutant("invariant-pairing-drops-the-form-entry", DERIVED,
           "check_invariant", "c * row[x]", "c",
           ["tests/test_derived.py::"
            "test_invariant_pairs_through_the_form_on_random_spaces"]),
    # Hodge from d alone: delta == eps d^T certifies every count
    Mutant("adjoint-sign-flipped", HODGE, "hodge_decomposition",
           "eps = 1 if (m * (m - 1) // 2) % 2 else -1",
           "eps = -1 if (m * (m - 1) // 2) % 2 else 1",
           ["tests/test_hodge.py::test_report_bytes_pinned"]),
    Mutant("adjoint-check-always-true", HODGE, "hodge_decomposition",
           "adjoint = codifferential(ctx, d) == linalg.transpose_op(d, eps)",
           "adjoint = True",
           ["tests/test_hodge.py::"
            "test_a_forged_sign_of_delta_fails_the_certificate",
            SQUARE_ZERO]),
    Mutant("mixed-stack-drops-the-transpose-rows", HODGE, "_harmonic_rows",
           "list(linalg.transpose_op(out_of).values()) + \\\n"
           "        [row for row in into if row]",
           "list(linalg.transpose_op(out_of).values())",
           [MIXED_KERNELS,
            "tests/test_hodge.py::test_mixed_sectors_match_global_oracle"]),
    Mutant("sector-gcd-forced-to-zero", HODGE, "hodge_decomposition",
           "g = gcd(*(s - k for s in shifts))", "g = 0",
           ["tests/test_hodge.py::test_decomposition_mixed_family",
            MIXED_KERNELS]),
    Mutant("sector-gcd-doubled", HODGE, "hodge_decomposition",
           "g = gcd(*(s - k for s in shifts))",
           "g = 2 * gcd(*(s - k for s in shifts))",
           ["tests/test_hodge.py::test_decomposition_mixed_family",
            MIXED_KERNELS]),
    # d by the Leibniz rule from mu_i = [e_i, mu]
    Mutant("leibniz-position-sign-dropped", HODGE, "differential",
           "n = j + len(w) + sum(", "n = len(w) + sum(", [LEIBNIZ]),
    Mutant("leibniz-even-layer-sign-dropped", HODGE, "differential",
           "n = j + len(w) + sum(", "n = j + sum(", [LEIBNIZ]),
    Mutant("leibniz-merge-sign-ignored", HODGE, "differential",
           " + sum(len(w) - bisect(w, b) for b in rest)", "", [LEIBNIZ]),
    Mutant("differential-square-check-dropped", HODGE, "differential",
           "    if linalg.compose_ops(d, d):\n        raise NotLInfinity(",
           "    if False:\n        raise NotLInfinity(", [SQUARE_ZERO]),
    # one operator format, applied, composed and transposed in linalg
    Mutant("compose-drops-a-term", LINALG, "compose_ops",
           "img = apply_op(f, img)",
           "img = apply_op(f, dict(list(img.items())[1:]))",
           [OPERATOR_ROUTINES, SQUARE_ZERO]),
    Mutant("transpose-ignores-its-scale", LINALG, "transpose_op",
           "[src] = scale * c", "[src] = c",
           [OPERATOR_ROUTINES, "tests/test_hodge.py::test_report_bytes_pinned"]),
    Mutant("skew-operator-check-always-passes", CLASSIFY, "find_ideal",
           "if any(linalg.transpose_op(op, -1) != op for op in operators):",
           "if False:",
           ["tests/test_classify.py::"
            "test_find_ideal_refuses_a_non_skew_operator"]),
    Mutant("star-sign-exponent-off-by-one", HODGE, "star_monomial",
           "(-1) ** sum(mono)", "(-1) ** (sum(mono) + 1)",
           [STAR_SIGN, "tests/test_hodge.py::test_star_basics_frozen"]),
    # the cotangent extension's potential written down and derived once
    Mutant("cotangent-kappa-sign-flipped", FROBENIUS, "cotangent_potential",
           "flip = n * (n + 1) // 2 % 2", "flip = 1 - n * (n + 1) // 2 % 2",
           [COTANGENT]),
    Mutant("one-dual-entries-without-the-minus-sign", FROBENIUS,
           "t_star_extension", "linalg.transpose_op(op, -1)",
           "linalg.transpose_op(op)", [COTANGENT]),
    Mutant("cotangent-certificate-always-true", FROBENIUS, "t_star_extension",
           "if {t: value.terms for t, value in ext_structure.table.items()} "
           "!= want:", "if False:",
           ["tests/test_frobenius.py::test_forged_extension_potential_rejected",
            "tests/test_frobenius.py::"
            "test_odd_squares_refused_as_by_the_inversion"]),
    # one source per input: a second source refused, not read
    Mutant("frobenius-space-mismatch-let-through", FROBENIUS, "_as_structure",
           "if mu.space != space:", "if False:",
           ["tests/test_frobenius.py::"
            "test_frobenius_refuses_a_structure_over_another_space"]),
    Mutant("isomorphic-via-space-mismatch-let-through", CLASSIFY,
           "isomorphic_via", "if mu2.space != space:", "if False:",
           ["tests/test_classify.py::"
            "test_isomorphic_via_refuses_potentials_over_different_spaces"]),
    Mutant("pair-vectors-space-check-dropped", POISSON, "pair_vectors",
           "    a._require_same_space(b)\n", "",
           ["tests/test_poisson.py::"
            "test_pair_vectors_refuses_vectors_over_different_spaces"]),
    Mutant("orientation-dimension-unchecked", HODGE, "HodgeContext.__init__",
           "if orientation is not None and len(orientation.order) != "
           "space.dim:", "if False:",
           ["tests/test_hodge.py::"
            "test_context_refuses_an_orientation_of_another_dimension"]),
    Mutant("degree-cap-unchecked", SUPERSPACE, "Superspace.__init__",
           "if max_degree is not None and (", "if False and (",
           ["tests/test_superspace.py::"
            "test_degree_cap_must_be_a_positive_int"]),
    Mutant("degree-cap-lets-a-bool-through", SUPERSPACE,
           "Superspace.__init__", "type(max_degree) is not int",
           "not isinstance(max_degree, int)",
           ["tests/test_superspace.py::"
            "test_degree_cap_must_be_a_positive_int"]),
    Mutant("degree-cap-refused-without-its-field", IO, "parse_element",
           "if len(mono) > space.max_degree:", "if False:", [SEMANTIC]),
    Mutant("family-refused-without-its-field", IO, "parse_potential",
           'raise SchemaError(f"{path}.linf", str(ex)) from None', "raise",
           [SEMANTIC]),
    Mutant("mixed-degrees-refused-without-its-field", IO, "parse_potential",
           "except WrongDegree as ex:", "except ZeroDivisionError as ex:",
           [SEMANTIC]),
    Mutant("arity-mismatch-refused-without-its-field", IO,
           "parse_potential", "except DegreeMismatch as ex:",
           "except ZeroDivisionError as ex:", [SEMANTIC]),
    Mutant("unwritable-output-left-to-a-traceback", CLI, "_write",
           'raise SchemaError("--output", f"cannot write file: {ex}") '
           'from None', "raise",
           ["tests/test_cli.py::test_unwritable_output_exits_2"]),
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
