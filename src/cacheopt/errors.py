"""Exception hierarchy shared across the package.

Everything raised for bad user input (files, flags, parameter values)
derives from ValidationError so the CLI can map it to exit code 2.
"""


class CacheOptError(Exception):
    """Base class for all package errors."""


class ValidationError(CacheOptError):
    """Invalid input: malformed file, bad flag value, infeasible request."""


class TraceError(ValidationError):
    """Malformed din trace text."""


class ConfigError(ValidationError):
    """Cache configuration field outside its permitted value set."""


class FlagTextError(ValidationError):
    """Malformed simulator flag text (missing, duplicate or unknown flag)."""


class InfeasibleConfigError(ValidationError):
    """Structurally impossible cache geometry submitted for simulation."""


class CharTableError(ValidationError):
    """Malformed or incomplete characterization table."""


class GrammarError(ValidationError):
    """Malformed BNF grammar text."""


class MappingError(CacheOptError):
    """Genotype could not be decoded within the wrap limit."""


class SubspaceCapError(ValidationError):
    """Exhaustive enumeration request exceeds the configured cap."""
