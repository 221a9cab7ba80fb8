"""Shared exception types.

Error taxonomy: bad input values raise ValueError (or its subclass
RuleInapplicableError when a rewrite rule's precondition fails), an
underdetermined fit raises FitInconclusiveError, and an internal cross-check
that disagrees raises ConsistencyError.  A ConsistencyError is never
swallowed: it means two independent computations of the same quantity differ.
Only the command line raises ResourceLimitError, for a request above its size
bound and before any work starts; the library computes what it is asked.
"""


class RuleInapplicableError(ValueError):
    """A rewrite rule was applied where its precondition does not hold."""


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds the configured size bound."""


class FitInconclusiveError(RuntimeError):
    """Too few sequence terms to certify a fitted recurrence."""


class ConsistencyError(RuntimeError):
    """Two independent computations of the same value disagree."""
