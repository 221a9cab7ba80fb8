"""Shared exception types.

Error taxonomy: bad input values raise ValueError (or its subclass
RuleInapplicableError when a rewrite rule's precondition fails), an
underdetermined fit raises FitInconclusiveError, and an internal cross-check
that disagrees raises ConsistencyError.  A ConsistencyError is never
swallowed: it means two independent computations of the same quantity differ.
The library computes what it is asked; the command line refuses a request
above its size bound with ValueError, before any work starts.
"""


class RuleInapplicableError(ValueError):
    """A rewrite rule was applied where its precondition does not hold."""


class FitInconclusiveError(RuntimeError):
    """Too few sequence terms to certify a fitted recurrence."""


class ConsistencyError(RuntimeError):
    """Two independent computations of the same value disagree."""
