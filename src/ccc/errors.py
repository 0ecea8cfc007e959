"""Exception hierarchy shared across the kernel.

Every failure mode surfaced by the library maps to one of these classes, so the
CLI can translate them uniformly into exit codes and report statuses.
"""


class CCCError(Exception):
    """Base class for all kernel errors."""


class InvalidArgument(CCCError):
    """An argument violates a documented precondition (bad weight, dimension mismatch...)."""


class ValidationError(CCCError):
    """A structured input document fails validation; the message carries the location."""


class UnsupportedOperation(CCCError):
    """The operation is outside the implemented fragment (e.g. mismatched recession cones)."""


class PreconditionError(CCCError):
    """A stated hypothesis does not hold (e.g. a discrepancy inequality gate)."""


class WindowTooSmall(CCCError):
    """A truncated enumeration failed to stabilize within the allowed window growth."""


class GridAlignmentError(CCCError):
    """A raster pixel center hit a constraint boundary; choose a different step."""
