"""Exception types shared across the package."""


class StodepError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(StodepError):
    """Malformed parameters, unknown names, or unserializable specifications."""


class DomainError(StodepError):
    """An operation was called outside its mathematical domain."""


class CapExceeded(StodepError):
    """Base class for resource-cap violations (CLI exit code 3)."""


class EnumerationCapExceeded(CapExceeded):
    """An enumeration would exceed its cap: check_ir's (x, alpha) pairs,
    check_submodular's (y, y') pairs or the (x, x', t) grid of a tabulated
    reward's value rules."""


class StateSpaceCapExceeded(CapExceeded):
    """The dense state space would exceed the configured entry cap."""


class ActivityCapExceeded(CapExceeded):
    """An activity enumeration would exceed the configured cap."""


class FingerprintMismatch(StodepError):
    """A value table was used with an instance it was not computed for."""


class InvalidPartition(ConfigError):
    """Partition blocks overlap or do not cover the ground set."""
