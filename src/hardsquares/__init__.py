"""Witten indices of hard squares on grids, cylinders and tori.

The package computes signed independent-set counts (Witten indices) for the
grid families P_m x P_n, P_m x C_n and C_m x C_n, reduces explicit graphs by
fold and suspension moves, manipulates the cyclic two-row patterns whose
weighted indices assemble cylinder columns, derives closed-form generating
functions for those columns, and enumerates the necklace classes whose cycle
structure under a rotation-like dynamics explains the denominators.
Each name lives in its own module (``hardsquares.graphs``,
``hardsquares.cli``, ...).  The package root re-exports none, so loading one
module loads only the modules it needs.
"""

__version__ = "0.1.0"
