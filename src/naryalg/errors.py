"""Exception hierarchy for the engine.

Every error raised on bad input or a violated precondition derives from
NaryError, so callers (and the CLI) can distinguish contract violations
(exit code 2) from identity-check failures, which are reported as data.
"""


class NaryError(Exception):
    """Base class for all engine errors."""


class SymmetryViolation(NaryError):
    """Gram matrix breaks the parity-dependent symmetry rule."""


class MixedParityEntry(NaryError):
    """Nonzero pairing between an even and an odd generator."""


class NotPureOdd(NaryError):
    """Operation requires all generators odd."""


class NotPureEven(NaryError):
    """Operation requires all generators even."""


class SpaceMismatch(NaryError):
    """Operands live over different superspaces."""


class DegreeMismatch(NaryError):
    """Potential degree does not equal arity + 1."""


class WrongDegree(NaryError):
    """Element has the wrong homogeneous degree for this operation."""


class DegreeCapExceeded(NaryError):
    """Monomial degree above the configured cap (spaces with even generators)."""


class NotCommutative(NaryError):
    """Structure constants violate the graded symmetry law."""

    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class NotInvariant(NaryError):
    """Structure constants violate invariance with respect to the form."""

    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class Degenerate(NaryError):
    """Bilinear form is degenerate where nondegeneracy is required."""


class NotOdd(NaryError):
    """Potential must be an odd element."""


class NotSkew(NaryError):
    """Matrix is not skew-symmetric (within tolerance, for real input)."""


class NotOrthogonal(NaryError):
    """Matrix does not preserve the form with determinant +1."""


class NotHodgeContext(NaryError):
    """Hodge operations need a pure odd space with identity Gram matrix."""


class NotLInfinity(NaryError):
    """Differential requires [mu,mu] scalar (so that d squares to zero)."""


class ConvergenceFailure(NaryError):
    """Numerical canonical form exceeded the residual tolerance."""


class OddArity(NaryError):
    """Quasi-Frobenius equivalence is stated for even arity only."""


class DimensionTooSmall(NaryError):
    """Classification requires dim V > 4."""


class InexactCoefficient(NaryError):
    """A float was given where an exact rational coefficient is required."""


class SchemaError(NaryError):
    """Input violates a schema; carries the offending field path.

    The path is a JSON field path or a CLI flag.
    """

    def __init__(self, path, msg):
        super().__init__(f"{path}: {msg}")
        self.path = path
        self.msg = msg
