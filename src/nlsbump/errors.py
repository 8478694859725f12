"""Exception types shared across the package.

Every failure mode that callers are expected to catch gets its own class;
generic programming errors (wrong types, shapes the program built wrong,
as fieldio.write_field checks) stay as plain ValueError/RuntimeError.
"""


class NlsbumpError(Exception):
    """Base class for all package-specific errors."""


class BracketError(NlsbumpError):
    """Shooting bracket does not straddle the connecting orbit."""


class DomainError(NlsbumpError):
    """Parameters outside the supported range (dimension, exponent, sign)."""


class ConvergenceError(NlsbumpError):
    """An iterative procedure failed to reach its tolerance."""


class GeometryError(NlsbumpError):
    """Wells, balls, or boxes that do not fit together as required."""


class PositivityError(NlsbumpError):
    """Potential would lose positivity with the requested parameters."""


class ConsistencyError(NlsbumpError):
    """Ansatz ingredients disagree (profile floor vs. potential at center)."""


class KrylovError(NlsbumpError):
    """The inner symmetric linear solver stalled or broke down."""


class DecompositionError(NlsbumpError):
    """Projection system for the bump decomposition did not converge."""


class SpectralError(NlsbumpError):
    """Eigenvalue iteration failed or returned unusable output."""


class ConfigError(NlsbumpError):
    """Experiment configuration could not be parsed or validated."""


class FormatError(NlsbumpError):
    """Binary field file is malformed or inconsistent."""
