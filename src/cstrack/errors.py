"""Exception hierarchy shared across the package.

Everything user-facing derives from CstrackError so the CLI can map it to
exit code 2; anything else escaping to the CLI is treated as an internal
invariant violation (exit code 3).
"""


class CstrackError(Exception):
    """Base class for all errors raised deliberately by this package."""


class ConfigurationError(CstrackError):
    """Inconsistent or incomplete configuration (missing layer, pattern, ...)."""


class FormatError(CstrackError):
    """Malformed input file (GeoJSON, CSV, JSON schema)."""


class DslSyntaxError(CstrackError):
    """Syntax error in a constitution program, with source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UnsupportedProgramError(CstrackError):
    """Program outside the supported fragment (cyclic, duplicate continuous head, ...)."""


class GroundingError(CstrackError):
    """Grounding failed (empty domain, undefined query, unresolvable comparison)."""


class CapacityError(CstrackError):
    """The ground query's BDD exceeds the compiler's node limit or recursion depth."""


class NoDepthDataError(CstrackError):
    """Depth relation requested for a tag with no depth soundings."""


class StuckAgentError(CstrackError):
    """Synthetic agent exceeded the rejection budget while proposing moves."""
