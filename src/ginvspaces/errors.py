"""Exception types shared across the package."""


class SpecParseError(ValueError):
    """A group spec, monomial list, or CLI argument could not be parsed."""


class InvalidPermutation(ValueError):
    """An image array is not a bijection of {0..n-1}."""


class CapExceeded(RuntimeError):
    """A group closure or a work array would grow past its cap."""


class NotTransitive(ValueError):
    """The operation requires a transitive action."""


class NotHermitian(ValueError):
    """The matrix is not Hermitian within tolerance."""


class DimensionMismatch(ValueError):
    """Operands live on tori of different dimension."""


class MinimalityFailure(RuntimeError):
    """A candidate eigenspace cluster failed the minimality certificate."""


class PropertyViolation(RuntimeError):
    """A verified kernel property exceeded its tolerance."""

    def __init__(self, prop: str, residual: float):
        super().__init__(f"kernel property {prop} violated: residual {residual:.3e}")
        self.prop = prop
        self.residual = residual


class InternalInconsistency(RuntimeError):
    """A structural self-check that should never fail did fail."""


class StructureFailure(RuntimeError):
    """An invariant subspace failed to match its minimal-space direct sum."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness
