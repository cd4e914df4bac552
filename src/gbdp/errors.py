"""Exception types shared across the package.

Every error raised on purpose by this library derives from GbdpError, so
callers (and the CLI) can distinguish our diagnostics from genuine bugs.
"""


class GbdpError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(GbdpError):
    """A grid shape violates one of its invariants."""


class DomainError(GbdpError):
    """An argument is outside the domain of the operation."""


class FormatError(GbdpError):
    """A model or parametrization file is malformed."""


class PositivityError(GbdpError):
    """An operation requires strictly positive probabilities and found a zero."""


class ConsistencyError(GbdpError):
    """Recovered quantities disagree beyond tolerance (non-commuting input)."""


class UnsupportedConfigError(GbdpError):
    """The requested operation is undefined for this configuration
    (for example spectral decomposition when l1 != l2)."""


class StructureError(GbdpError):
    """A matrix lacks required structure (for example irreducibility)."""

