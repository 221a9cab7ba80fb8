"""Exact generating functions for cylinder Witten indices.

The fixed-circumference series F_n(t) = sum_m Z(P_m x C_n) t^m is rational.
For even n this module derives it exactly through the pattern calculus:

  - every pattern class has a deterministic successor: reducible classes
    peel (one grid row shorter, a known sign), irreducible ones split at the
    middle of the leftmost row-1 block into a side class with one block
    fewer and a successor with the same block count;
  - following successors must eventually revisit a class, and any such
    cycle contains a peel step (the two deletions strictly shrink the
    pattern, only peel regrows it), so the loop equation
    F = A + sigma * t^a * F with a >= 1 solves the cycle exactly and the
    walk back-substitutes the rest;
  - side classes recurse on the block count, which is finite.

Every computed series num/den is re-validated against the direct transfer
evaluation, den * direct = num through t^(deg num + deg den + 6), and the
assembled cylinder series must equal the certified fit of the raw column
series; any mismatch raises ConsistencyError rather than returning a wrong
answer.  Class series are memoised for the last four circumferences used.

The certified fit (fitted_cylinder_gf) works for any circumference and is
the only route for odd n.  Its window follows from the ring's dihedral-orbit
count, so the fit is a proof, not a guess.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .errors import ConsistencyError
from .graphs import column_series, fit_window
from .necklaces import cycle_length_lcm
from .patterns import (
    Pattern,
    block_count,
    canonicalize,
    delete_top,
    delete_top_neighborhood,
    initial_patterns,
    is_reducible,
    leftmost_block_middle,
    peel,
    row_masks,
    z_pattern_series,
)
from .polynomials import (
    IntPoly,
    ONE,
    RationalGF,
    factor_cyclotomic,
    fit_recurrence,
)


@lru_cache(maxsize=4)
def _class_series(n: int) -> Dict[Pattern, RationalGF]:
    """The series of every class walked at circumference n, keyed by its
    canonical pattern (a successor walk never leaves its n)."""
    return {}


def _validate_pattern_gf(q: Pattern, gf: RationalGF) -> RationalGF:
    """Check gf against the direct terms: den * direct = num mod t^(upto+1)
    (den(0) != 0) holds exactly when gf expands to those integers."""
    upto = gf.num.degree + gf.den.degree + 6
    direct = z_pattern_series(q, upto)
    if IntPoly((gf.den * IntPoly(direct)).coeffs[:upto + 1]) != gf.num:
        raise ConsistencyError(f"series for pattern {q} disagrees with transfer "
                               f"evaluation through t^{upto}: {gf} vs {direct}")
    return gf


def pattern_gf(p: Pattern) -> RationalGF:
    """The series sum_{m>=2} z(P;m) t^m as an exact rational function.

    Proper patterns only; the computation walks the successor chain,
    solves its terminal cycle, and back-substitutes (see module docstring).
    """
    memo = _class_series(p.n)
    if p in memo:  # a key is canonical, so a hit needs no canonicalize
        return memo[p]

    # Walk successors until we hit a known class or close a cycle.
    # step = (class, side series, sign, shift): F = side + sign * t^shift * F_next
    path: List[Tuple[Pattern, RationalGF, int, int]] = []
    position: Dict[Pattern, int] = {}
    cls = cur = canonicalize(p)
    while cur not in position and cur not in memo:
        position[cur] = len(path)
        if is_reducible(cur):
            peeled, sign = peel(cur)
            # z(P;2) = sign * Z(one ring row masked by row 1 of peel(P))
            z2 = sign * column_series(cur.n, 1, row_masks(peeled)[:1])[1]
            side = RationalGF(IntPoly((0, 0, z2)))
            path.append((cur, side, sign, 1))
            cur = canonicalize(peeled)
        else:
            mid = leftmost_block_middle(cur)
            side = pattern_gf(delete_top(cur, mid))
            path.append((cur, side, -1, 0))
            cur = canonicalize(delete_top_neighborhood(cur, mid))

    if cur in memo:
        series = memo[cur]
    else:
        # Solve the cycle F_c = A + sigma * t^a * F_c.
        start = position[cur]
        accumulated = RationalGF(0)
        sigma, a = 1, 0
        for _, side, sign, shift in path[start:]:
            accumulated = accumulated + side.times_monomial(sigma, a)
            sigma *= sign
            a += shift
        if a == 0:
            raise ConsistencyError(f"successor cycle of {cur} contains no peel step")
        series = accumulated / (ONE - ONE.shift(a) * sigma)

    # the signed shift keeps series reduced, and + divides out only a factor
    # of its denominators' gcd: none against a peel step's polynomial side
    for cls_j, side, sign, shift in reversed(path):
        series = side + series.times_monomial(sign, shift)
        memo[cls_j] = _validate_pattern_gf(cls_j, series)
    return memo[cls]


def fitted_cylinder_gf(n: int) -> RationalGF:
    """Rational form certified from the raw column series (any circumference).

    The series is 1, then s B^k w for the N x N orbit matrix B: its order is
    at most N + 1 (Cayley-Hamilton), so Berlekamp-Massey on 2N + 2 terms is
    exact (Massey 1969); 2N + 6 terms also meet fit_recurrence's guard.
    """
    return fit_recurrence(column_series(n, fit_window(n) - 1))


def cylinder_gf(n: int) -> RationalGF:
    """Exact series sum_{m>=0} Z(P_m x C_n) t^m for even circumference n.

    Assembled from the signed initial decomposition over pattern classes;
    the result must equal the certified fit of the raw column series, else
    ConsistencyError.
    """
    if n < 2 or n % 2:
        raise ValueError("pattern assembly needs even n >= 2; "
                         "odd circumferences go through fitted_cylinder_gf")
    total = RationalGF(IntPoly(column_series(n, 1)))  # 1 + Z(C_n) t
    for cls, coeff in initial_patterns(n).terms:
        total = total + pattern_gf(cls) * coeff
    fitted = fitted_cylinder_gf(n)
    if fitted != total:
        raise ConsistencyError(f"pattern assembly and certified fit disagree "
                               f"at n={n}: {total} vs {fitted}")
    return total


def _levels(n: int, periods: Iterable[int]) -> IntPoly:
    """(1 - (-1)^(n/2) t^2) times (1 - t^(2L)) over the given periods L."""
    out = ONE - ONE.shift(2) * (-1) ** (n // 2)
    for period in periods:
        out = out * (ONE - ONE.shift(2 * period))
    return out


def conjectured_denominator(n: int) -> IntPoly:
    """The proposed universal denominator for even circumference n:
    (1 - (-1)^(n/2) t^2) times (1 - t^(2L)) over the periods
    L = n - 3j, j = 1 .. floor((n - 1)/4).
    """
    if n < 2 or n % 2:
        raise ValueError("even n >= 2 required")
    return _levels(n, (n - 3 * j for j in range(1, (n - 1) // 4 + 1)))


def check_denominator_form(n: int, gf: RationalGF) -> bool:
    """Does the conjectured denominator clear all poles of f_n = gf?"""
    return gf.den.divides(conjectured_denominator(n))


class PeriodicityReport(NamedTuple):
    """Denominator structure of a cylinder series.

    factors maps cyclotomic order to multiplicity; period is the least L
    with denominator dividing 1 - t^L (None unless the denominator is a
    squarefree product of cyclotomics), making the coefficient tail
    L-periodic.  remainder_ok says every denominator root is a root of
    unity.
    """

    n: int
    factors: Dict[int, int]
    remainder_ok: bool
    max_multiplicity: int
    period: Optional[int]


def periodicity_report(n: int, gf: RationalGF) -> PeriodicityReport:
    """The denominator structure of f_n = gf, from one cyclotomic split."""
    factors, remainder = factor_cyclotomic(gf.den)
    remainder_ok = remainder in (ONE, -ONE)
    max_mult = max(factors.values(), default=0)
    period = None
    if remainder_ok and max_mult <= 1:
        period = lcm(*factors.keys()) if factors else 1
        if not gf.den.divides(ONE - ONE.shift(period)):
            raise ConsistencyError(
                f"squarefree cyclotomic denominator does not divide "
                f"1 - t^{period} at n={n}"
            )
    return PeriodicityReport(n, dict(factors), remainder_ok, max_mult, period)


def denominator_bound(n: int, blocks: int) -> IntPoly:
    """Denominator guaranteed by the successor-cycle structure.

    A class with the given block count peels around cycles whose solved
    denominators are (1 - (-1)^(n/2) t^2) at block count zero and
    (1 - t^(2L)) at each level k = 1 .. blocks, L the cycle-length lcm of
    the matching stone arrangements; the product bounds every pole.
    """
    return _levels(n, (cycle_length_lcm(k, n) for k in range(1, blocks + 1)))


def check_block_count_denominator(p: Pattern) -> bool:
    """Does the structural denominator bound cover this pattern's poles?
    (n and the block count are the same across p's class.)"""
    return pattern_gf(p).den.divides(denominator_bound(p.n, block_count(p)))
