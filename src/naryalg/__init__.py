"""Exact engine for commutative n-ary superalgebras with an invariant form.

Derived-bracket construction on S*(V), identity verifiers, combinatorial
Hodge theory, classification of (m-3)-ary algebras, and quasi-Frobenius
structure detection, all over exact rational arithmetic.
"""

from .superspace import (
    Orientation,
    Superspace,
    even_symplectic_space,
    is_positive_definite,
    odd_space,
)
from .poisson import (
    Element,
    multiply,
    nested_bracket_indices,
    poisson_bracket,
)
from .derived import (
    CheckReport,
    NaryStructure,
    Potential,
    canonical_tuples,
    check_associative,
    check_commutative,
    check_derivation,
    check_filippov,
    check_invariant,
    check_jordan,
    check_l_infinity,
    check_nary_jacobi,
    derive_structure,
    potential_from_structure,
)
from .hodge import (
    HodgeContext,
    HodgeReport,
    codifferential,
    differential,
    hodge_decomposition,
    inner_product,
    laplacian,
    star,
)
from .classify import (
    CanonicalForm,
    ClassificationRecord,
    IdealReport,
    block_parameters,
    build_m3_algebra,
    canonical_form,
    classify_m3,
    element_to_skew,
    find_ideal,
    ider,
    isomorphic_via,
    skew_to_element,
)
from .frobenius import (
    QFCertificate,
    TStarExtension,
    check_quasi_frobenius,
    doubled_space,
    graph_subalgebra_test,
    t_star_extension,
)

__version__ = "0.1.0"
