"""In-memory span recorder for the traced benchmark run.

The recorder wraps the public functions of the engine's modules from the
outside, in every module namespace that binds them (``poisson_bracket`` is
imported by name into derived, hodge, classify and cli, for instance), and
aggregates spans per function as they close: calls, total time and self
time (duration minus the time its child spans cover).  Counters are
computed from the arguments and results of the wrapped calls; the time
spent counting is charged to no span.

``normalize_word`` is deliberately not wrapped: its millions of calls would
swamp the trace, so its cost stays in the self time of its callers.
"""

import functools
import sys
import time
from collections import defaultdict

LAYERS = ("superspace", "poisson", "derived", "linalg", "hodge", "classify",
          "frobenius", "io", "cli")

# module -> wrapped functions; "Superspace" wraps the class constructor
WRAPPED = {
    "superspace": ("Superspace",),
    "poisson": ("poisson_bracket", "nested_bracket_indices", "nested_bracket",
                "multiply", "pair_vectors"),
    "derived": ("derive_structure", "potential_from_structure",
                "check_commutative", "check_invariant", "check_nary_jacobi",
                "check_filippov", "check_l_infinity", "check_jordan",
                "check_associative", "check_derivation"),
    "linalg": ("zeros", "identity", "copy_matrix", "transpose", "mat_mul",
               "mat_vec", "is_zero_matrix", "rref", "rank", "bareiss_rank",
               "det", "nullspace", "solve", "row_space", "same_subspace"),
    "hodge": ("star", "inner_product", "differential", "codifferential",
              "laplacian", "hodge_decomposition"),
    "classify": ("skew_to_element", "element_to_skew", "canonical_form",
                 "build_m3_algebra", "find_ideal", "classify_m3"),
    "frobenius": ("t_star_extension", "check_quasi_frobenius",
                  "graph_subalgebra_test"),
    "io": ("load_file", "parse_superspace", "parse_element",
           "parse_potential", "parse_structure", "parse_matrix", "dumps",
           "element_to_json", "structure_to_json", "check_report_to_json",
           "hodge_report_to_json", "qf_certificate_to_json",
           "classification_record_to_json"),
    "cli": ("main",),
}

IDEAL_METHODS = ("kernel", "spin", "rank-criterion", "meataxe")


def n_canonical(parity, n):
    """Number of canonical n-tuples: odd indices strict, even ones repeat."""
    poly = [1] + [0] * n
    for p in parity:
        if p:
            for k in range(n, 0, -1):
                poly[k] += poly[k - 1]
        else:
            for k in range(1, n + 1):
                poly[k] += poly[k - 1]
    return poly[n]


def _first_hit(report, total, order):
    """Tuples probed by a loop that stops at its first violation."""
    if report.passed or report.witness is None:
        return total
    return order(report.witness) + 1


# counters: span name -> fn(counts, args, kwargs, result)


def _count_bracket(c, args, kwargs, result):
    a, b = args
    c["poisson.term_pairs"] += len(a.terms) * len(b.terms)


def _count_elimination(c, args, kwargs, result):
    a = args[0]
    if a and a[0]:
        c["linalg.cells"] += len(a) * len(a[0])
        c["linalg.nnz"] += sum(1 for row in a for x in row if x != 0)


def _probed(fn):
    def count(c, args, kwargs, result):
        c["derived.tuples_probed"] += fn(args, kwargs, result)
    return count


def _associative_probes(args, kwargs, result):
    m = args[0].space.dim
    total = m * (m + 1) // 2
    if kwargs.get("exhaustive") or len(args) > 1 and args[1]:
        return total
    return _first_hit(result, total,
                      lambda w: sum(m - k for k in range(w[0])) + w[1] - w[0])


def _count_inverse(c, args, kwargs, result):
    s = args[0]
    par = s.space.parity
    rows = n_canonical(par, s.arity) * s.space.dim
    c["derived.inverse_system_cells"] += rows * n_canonical(par, s.arity + 1)


def _count_ideal(c, args, kwargs, result):
    c[f"classify.find_ideal.method.{result.method}"] += 1
    c["classify.find_ideal.rounds"] += result.rounds


def _count_canonical(c, args, kwargs, result):
    key = "classify.canonical_form.residual_max"
    c[key] = max(c[key], result.residual)


def _count_qf(c, args, kwargs, result):
    space, mu = args[0], args[1]
    m, n = space.dim, mu.arity
    total = m ** (n + 1)
    if kwargs.get("exhaustive"):
        c["frobenius.qf_tuples"] += total
        return

    def order(w):
        idx = 0
        for i in w:
            idx = idx * m + i
        return idx

    c["frobenius.qf_tuples"] += _first_hit(result, total, order)


def _count_output(c, args, kwargs, result):
    c["io.output_bytes"] += len(result)


COUNTERS = {
    "poisson.poisson_bracket": _count_bracket,
    "linalg.rref": _count_elimination,
    "linalg.bareiss_rank": _count_elimination,
    "linalg.det": _count_elimination,
    "derived.check_commutative": _probed(
        lambda a, k, r: len(a[0].table)),
    "derived.check_invariant": _probed(
        lambda a, k, r: a[0].space.dim * n_canonical(a[0].space.parity,
                                                      a[0].arity)),
    "derived.check_nary_jacobi": _probed(
        lambda a, k, r: n_canonical(a[0].space.parity, 2 * a[0].arity - 1)),
    "derived.check_filippov": _probed(
        lambda a, k, r: n_canonical(a[0].space.parity, a[0].arity - 1)),
    "derived.check_jordan": _probed(lambda a, k, r: a[0].space.dim ** 3),
    "derived.check_associative": _probed(_associative_probes),
    "derived.potential_from_structure": _count_inverse,
    "classify.find_ideal": _count_ideal,
    "classify.canonical_form": _count_canonical,
    "frobenius.check_quasi_frobenius": _count_qf,
    "io.dumps": _count_output,
}


class Recorder:
    """Aggregated spans and counters of the wrapped engine functions."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        calls, total, self_time = self.calls, self.total, self.self_time
        counts, stack = self.counts, self._stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                children = stack.pop()
                calls[name] += 1
                total[name] += end - start
                self_time[name] += end - start - children
                if stack:
                    stack[-1] += end - start
            if counter is not None:
                counter(counts, args, kwargs, result)
                if stack:
                    stack[-1] += clock() - end
            return result

        return wrapper

    def install(self):
        """Wrap every listed function in every naryalg module binding it."""
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "naryalg" or name.startswith("naryalg.")]
        wrappers = {}
        for layer, names in WRAPPED.items():
            mod = sys.modules[f"naryalg.{layer}"]
            for fname in names:
                fn = getattr(mod, fname)
                if isinstance(fn, type):
                    init = fn.__init__
                    self._patch(fn, "__init__", init,
                                self._wrap(f"{layer}.{fname}", init))
                else:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, value, hit[1])

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _self(self, pred):
        return sum(v for k, v in self.self_time.items() if pred(k))

    def metrics(self):
        """Per-layer numbers: self times in seconds, counts as counted."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self._self(
                lambda k, p=layer + ".": k.startswith(p))
        out["io.parse.self_s"] = self._self(
            lambda k: k.startswith("io.parse_") or k == "io.load_file")
        out["io.emit.self_s"] = self._self(
            lambda k: k == "io.dumps" or k.endswith("_to_json"))
        out["io.output_bytes"] = self.counts["io.output_bytes"]
        for name in ("poisson.poisson_bracket",
                     "poisson.nested_bracket_indices",
                     "linalg.rref", "linalg.bareiss_rank", "linalg.nullspace",
                     "linalg.solve", "linalg.mat_vec"):
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_time[name]
        out["poisson.term_pairs"] = self.counts["poisson.term_pairs"]
        for name in ("derived.derive_structure",
                     "derived.potential_from_structure",
                     "classify.find_ideal", "classify.canonical_form",
                     "frobenius.t_star_extension",
                     "frobenius.graph_subalgebra_test",
                     "frobenius.check_quasi_frobenius"):
            out[f"{name}.self_s"] = self.self_time[name]
        for name in ("derived.potential_from_structure",
                     "classify.find_ideal"):
            out[f"{name}.total_s"] = self.total[name]
        out["derived.check.self_s"] = self._self(
            lambda k: k.startswith("derived.check_"))
        out["hodge.operators.self_s"] = self._self(
            lambda k: k in ("hodge.differential", "hodge.codifferential",
                            "hodge.laplacian"))
        out["hodge.decompose.self_s"] = self.self_time[
            "hodge.hodge_decomposition"]
        for key in ("derived.tuples_probed", "derived.inverse_system_cells",
                    "linalg.cells", "linalg.nnz", "classify.find_ideal.rounds",
                    "classify.canonical_form.residual_max",
                    "frobenius.qf_tuples"):
            out[key] = self.counts[key]
        for method in IDEAL_METHODS:
            key = f"classify.find_ideal.method.{method}"
            out[key] = self.counts[key]
        out["trace.job_s"] = self.total["cli.main"]
        return out
