"""Exception hierarchy shared across the library and the CLI exit codes."""

__all__ = [
    "RatsurfError",
    "ClassParseError",
    "UnsupportedBranchError",
    "ScopeError",
    "EnumerationCapError",
]


class RatsurfError(Exception):
    """Base class for library-specific failures."""


class ClassParseError(RatsurfError, ValueError):
    """A surface name or divisor-class string could not be parsed."""


class UnsupportedBranchError(RatsurfError):
    """The requested computation lies outside the verified regimes."""


class ScopeError(UnsupportedBranchError):
    """Structurally valid input outside the verified blowup scope."""


class EnumerationCapError(RatsurfError):
    """Decomposition enumeration would exceed the configured size cap."""
