"""Exception types shared across the package."""


class TspecError(Exception):
    """Base class for all tspec failures."""


class DomainError(TspecError, ValueError):
    """Input outside the domain an operation is defined on."""


class HypothesisMismatchError(DomainError):
    """Potential scalars do not satisfy the hypotheses of the requested formula."""


class IntegrationFailureError(TspecError):
    """Jost propagation did not meet its tolerance within the cell cap."""


class BoundaryTooCloseError(TspecError):
    """A zero sits too close to a contour boundary even after perturbation."""


class PhaseResolutionError(TspecError):
    """Boundary phase sampling could not be refined below the jump threshold."""


class IndexingConflictError(TspecError):
    """Two computed zeros competed for the same asymptotic index."""


class ProbeTooCloseError(TspecError):
    """A probe point sits too close to a listed eigenvalue."""


class UnstableLimitError(TspecError):
    """A limit extrapolation did not stabilize.

    Attributes:
        diagnostics: dict with the extrapolant ladder and gap.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ConfigError(TspecError):
    """Run configuration failed schema validation."""
