"""Shared exception types.

Error taxonomy: a request refused before any work starts raises
RequestRefusedError, a ValueError: the command line's own refusals and the
library checks a command-line argument reaches (GridSpec's, a necklace's
stone pairs and circle length).  Other bad input values raise ValueError
(or its subclass RuleInapplicableError when a rewrite rule's precondition
fails), an underdetermined fit raises FitInconclusiveError, and an internal
cross-check that disagrees raises ConsistencyError.  A ConsistencyError is
never swallowed: it means two independent computations of the same quantity
differ.  The library computes what it is asked; the command line exits 2 on
a RequestRefusedError alone, and any other ValueError is an internal
consistency failure there.
"""


class RequestRefusedError(ValueError):
    """A request refused before any work starts: the usage error of exit 2."""


class RuleInapplicableError(ValueError):
    """A rewrite rule was applied where its precondition does not hold."""


class FitInconclusiveError(RuntimeError):
    """Too few sequence terms to certify a fitted recurrence."""


class ConsistencyError(RuntimeError):
    """Two independent computations of the same value disagree."""
