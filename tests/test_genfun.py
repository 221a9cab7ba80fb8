"""Generating-function tests.

Claims covered:
- pattern_gf reproduces the transfer series exactly for every proper class
  of length up to 10, and blockless classes keep the two-term denominator
  1 -+ t^2.
- frozen closed forms: the alternating-over-all-ones class at n=6 gives
  -t^2/(1+t^2); the one-block class 101110/111111 gives
  t^2(1 - t - t^3)/((t^2+1)(t^3-1)) with a 12-periodic tail.
- cylinder_gf matches the golden reduced forms (numerator coefficients and
  cyclotomic denominators) for n = 2..16, and its series prefix equals the
  raw column series.
- every cached pattern series is in the canonical reduced form, although
  the operators reduce by the gcds of denominators and cross factors
  only, and a class series that is not integral, or integral but wrong,
  is a ConsistencyError naming the pattern (exit 1), not a usage error.
  The check (den * direct = num through the window) agrees with an
  expansion of the series for every class walked at n <= 12, for each
  +-t^j change of the series or of its direct terms (one past the window
  passes) and for a non-integral denominator.  A rewrite rule
  refused inside a derivation also exits 1.  The class memo keeps one
  dict for each of the last four circumferences used (an lru_cache).
  With fresh caches, cylinder_gf(n) stacks 2 * (classes walked) +
  (reducible classes) + 1 ring rows cell by cell: 31 at n = 8, 97 at
  n = 12.
- cylinder_gf always compares its result with the certified fit: a
  disagreeing fit is a ConsistencyError, and through the CLI one
  `FAIL internal consistency` line with exit status 1.  Invalid
  circumferences are rejected with the documented errors.
- fitted_cylinder_gf recovers the frozen odd-circumference forms: n = 3, 9
  and 15 share (1-2t+t^2)/(1-t^3), n = 5, 7, 11 and 13 are the constant
  series.  It reads the column series once, with at least 2(N + 1) terms
  for N dihedral orbits, and lets a ConsistencyError through.
- the periodicity report's roots-of-unity verdict (remainder_ok) accepts
  every even cylinder denominator through 12 and rejects, without raising,
  a denominator with a root off the unit circle.
- conjectured_denominator builds the frozen products, clears all poles for
  n in {2,6,8,10,12}, and fails for n=4, whose series has a double pole at
  -1 but the proposed product only a simple zero there.
- periodicity reports: periods 4, 12, 56 at n = 2, 6, 10 with squarefree
  denominators; no period and multiplicity exactly 2 at n = 4, 8, 12.
- the structural denominator bound derived from stone-arrangement cycle
  lengths covers every proper class of length up to 10; its degree is
  2 + sum over levels k = 1..b of 2 * cycle_length_lcm(k, n), and the
  check fails on a series with a pole outside the bound.
- at every even n <= 28 the bound at floor((n-1)/4) levels divides the
  conjectured product, and stops dividing it once the level-one cycle
  length is one longer.
"""

import re
from functools import lru_cache

import pytest

from hardsquares import cli, genfun, graphs
from hardsquares.cli import main
from hardsquares.errors import ConsistencyError
from hardsquares.genfun import (
    check_block_count_denominator,
    check_denominator_form,
    conjectured_denominator,
    cylinder_gf,
    denominator_bound,
    fitted_cylinder_gf,
    pattern_gf,
    periodicity_report,
)
from hardsquares.graphs import _orbits, column_series
from hardsquares.necklaces import cycle_length_lcm
from hardsquares.patterns import (
    block_count,
    enumerate_proper,
    is_reducible,
    peel,
    z_pattern_series,
)
from hardsquares.polynomials import (
    IntPoly,
    ONE,
    RationalGF,
    factor_cyclotomic,
    series_expand,
)

from helpers import load_reduced_forms, parse_pattern


def test_pattern_gf_matches_transfer_series():
    for n in (2, 4, 6, 8, 10):
        for cls in enumerate_proper(n):
            gf = pattern_gf(cls)
            upto = gf.num.degree + gf.den.degree + 8
            assert series_expand(gf, upto) == z_pattern_series(cls, upto)


def test_pattern_gf_frozen_forms():
    alternating = parse_pattern("010101 / 111111")
    assert pattern_gf(alternating) == RationalGF(IntPoly((0, 0, -1)),
                                                 IntPoly((1, 0, 1)))
    one_block = parse_pattern("101110 / 111111")
    gf = pattern_gf(one_block)
    assert gf == RationalGF(IntPoly((0, 0, 1, -1, 0, -1)),
                            IntPoly((-1, 0, -1, 1, 0, 1)))
    # denominator (t^2+1)(t^3-1) divides 1 - t^12: the tail is 12-periodic
    assert gf.den.divides(ONE - ONE.shift(12))


def test_blockless_denominators():
    for n in (2, 4, 6, 8, 10):
        two_term = ONE - ONE.shift(2) if (n // 2) % 2 == 0 else ONE + ONE.shift(2)
        for cls in enumerate_proper(n):
            if block_count(cls) == 0:
                assert pattern_gf(cls).den.divides(two_term)


def test_cylinder_gf_matches_golden_reduced_forms():
    table = load_reduced_forms()
    for n in (2, 4, 6, 8, 10, 12, 14, 16):
        gf = cylinder_gf(n)
        num, factors = table[n]
        assert gf.num == num, n
        got_factors, remainder = factor_cyclotomic(gf.den)
        assert got_factors == factors and remainder == ONE, n


def test_cylinder_gf_series_prefix_is_column_series():
    for n in (2, 4, 6, 8, 16):
        assert series_expand(cylinder_gf(n), 24) == column_series(n, 24)


def test_cylinder_gf_fails_on_a_disagreeing_fit(monkeypatch, capsys):
    wrong = RationalGF(ONE, ONE - ONE.shift(1))
    monkeypatch.setattr(genfun, "fitted_cylinder_gf", lambda n: wrong)
    with pytest.raises(ConsistencyError):
        cylinder_gf(6)
    assert main(["genfun", "-n", "6"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("FAIL internal consistency:")
    assert len(err.splitlines()) == 1


def test_cached_pattern_series_are_reduced():
    cylinder_gf(14)
    walked = genfun._class_series(14)
    assert len(walked) >= 64  # the n = 14 classes walked
    for g in walked.values():
        assert g == RationalGF(g.num, g.den)  # equality is structural


def test_walk_stacks_each_reducible_class_once_more(monkeypatch):
    # validation stacks two masked rows per class walked, a reducible class's
    # side term z(P;2) one, and the ring's orbits one
    steps = []
    row_step = graphs._row_step
    monkeypatch.setattr(graphs, "_row_step",
                        lambda *a, **kw: steps.append(a) or row_step(*a, **kw))
    for n, expected in ((8, 31), (12, 97)):
        genfun._class_series.cache_clear()
        _orbits.cache_clear()
        steps.clear()
        cylinder_gf(n)
        walked = genfun._class_series(n)
        reducible = sum(1 for cls in walked if is_reducible(cls))
        assert len(steps) == 2 * len(walked) + reducible + 1 == expected, n


def test_pattern_memo_keeps_the_last_four_circumferences():
    memo = genfun._class_series
    memo.cache_clear()
    for n in (2, 4, 6, 8, 10):
        cylinder_gf(n)
    assert memo.cache_info()[1:] == (5, 4, 4)  # misses, maxsize, currsize
    cylinder_gf(4)  # a hit makes n = 4 the most recent again
    assert memo.cache_info().misses == 5
    cylinder_gf(12)  # evicts n = 6, now the least recent
    for n in (8, 10, 4, 12):
        memo(n)
    assert memo.cache_info().misses == 6
    memo(6)
    assert memo.cache_info().misses == 7


def test_non_integral_pattern_series_is_a_consistency_error(monkeypatch, capsys):
    cls = enumerate_proper(6)[0]
    bad = RationalGF(ONE, IntPoly([2, 1]))  # 1/(2 + t) = 1/2 - t/4 + ...
    with pytest.raises(ConsistencyError, match="disagrees with transfer evaluation"):
        genfun._validate_pattern_gf(cls, bad)
    monkeypatch.setattr(cli, "cylinder_gf",
                        lambda n: genfun._validate_pattern_gf(cls, bad))
    assert main(["genfun", "-n", "6"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("FAIL internal consistency:")
    assert len(err.splitlines()) == 1


def test_wrong_integral_pattern_series_is_a_consistency_error(monkeypatch, capsys):
    cls = parse_pattern("010101 / 111111")
    wrong = pattern_gf(cls) + RationalGF(ONE.shift(5))  # integral, off at t^5
    with pytest.raises(ConsistencyError, match=re.escape(
            f"series for pattern {cls} disagrees with transfer evaluation")):
        genfun._validate_pattern_gf(cls, wrong)
    # a peel step of the wrong sign derives integral but wrong series
    monkeypatch.setattr(genfun, "_class_series", lru_cache(maxsize=4)(lambda n: {}))
    monkeypatch.setattr(genfun, "peel", lambda p: (lambda q, s: (q, -s))(*peel(p)))
    assert main(["genfun", "-n", "6"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith(f"FAIL internal consistency: series for pattern {cls} "
                          f"disagrees with transfer evaluation")


def _expansion_check(gf, terms):
    """The check as an expansion: gf's series through t^(deg num + deg den
    + 6) is integral and equals the direct terms."""
    upto = gf.num.degree + gf.den.degree + 6
    try:
        return series_expand(gf, upto) == terms[:upto + 1]
    except ValueError:  # a coefficient that is not an integer
        return False


def _product_check(monkeypatch, q, gf, terms):
    with monkeypatch.context() as patch:
        patch.setattr(genfun, "z_pattern_series", lambda p, upto: terms[:upto + 1])
        try:
            genfun._validate_pattern_gf(q, gf)
        except ConsistencyError:
            return False
    return True


def test_series_product_check_agrees_with_the_expansion_oracle(monkeypatch):
    for n in range(2, 13, 2):
        cylinder_gf(n)
        for q, gf in genfun._class_series(n).items():
            upto = gf.num.degree + gf.den.degree + 6
            true = z_pattern_series(q, 2 * upto)  # covers every window below
            cases = [(gf, true, True),
                     (RationalGF(gf.num, gf.den * IntPoly([2, 1])), true, False)]
            for j in range(upto + 2):
                for sign in (1, -1):
                    if j <= upto:
                        cases.append((gf + RationalGF(ONE.shift(j) * sign), true, False))
                    off = true[:]
                    off[j] += sign  # read through t^upto, not past it
                    cases.append((gf, off, j > upto))
            for g, terms, holds in cases:
                assert (_product_check(monkeypatch, q, g, terms)
                        == _expansion_check(g, terms) == holds), (q, g, terms)


def test_a_rule_refused_inside_a_derivation_is_a_consistency_failure(monkeypatch,
                                                                     capsys):
    # no command hands its input to a rewrite rule, so a refused rule is a
    # broken derivation (exit 1), not a usage error (exit 2)
    monkeypatch.setattr(genfun, "_class_series", lru_cache(maxsize=4)(lambda n: {}))
    monkeypatch.setattr(genfun, "leftmost_block_middle", lambda p: p.index("b"))
    assert main(["genfun", "-n", "8"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("FAIL internal consistency: row 1 has no 1 at column ")


def test_cylinder_gf_validation():
    with pytest.raises(ValueError):
        cylinder_gf(7)
    with pytest.raises(ValueError):
        cylinder_gf(0)


def test_fitted_route_odd_circumference():
    three = fitted_cylinder_gf(3)
    assert three == RationalGF(IntPoly((1, -2, 1)), IntPoly((1, 0, 0, -1)))
    assert fitted_cylinder_gf(9) == three
    assert fitted_cylinder_gf(15) == three
    constant = RationalGF(ONE, ONE - ONE.shift(1))
    for n in (5, 7, 11, 13):
        assert fitted_cylinder_gf(n) == constant, n
    # the fitted and exact routes agree where both apply
    assert fitted_cylinder_gf(6) == cylinder_gf(6)


def test_fitted_route_reads_one_certified_window(monkeypatch):
    calls = []

    def recorded(n, mmax):
        calls.append((n, mmax))
        return column_series(n, mmax)

    monkeypatch.setattr(genfun, "column_series", recorded)
    for n in (6, 9, 13):
        calls.clear()
        fitted_cylinder_gf(n)
        orbits = len(_orbits(n).reps)
        assert len(calls) == 1 and calls[0][0] == n
        assert calls[0][1] + 1 >= 2 * (orbits + 1), n

    # a disagreement inside the transfer is never retried or swallowed
    def disagreeing(n, mmax):
        calls.append((n, mmax))
        raise ConsistencyError("two routes disagree")

    calls.clear()
    monkeypatch.setattr(genfun, "column_series", disagreeing)
    with pytest.raises(ConsistencyError):
        fitted_cylinder_gf(9)
    assert len(calls) == 1


def test_roots_of_unity_checker():
    for n in (2, 4, 6, 8, 10, 12):
        assert periodicity_report(n, cylinder_gf(n)).remainder_ok
    assert not periodicity_report(0, RationalGF(ONE, ONE - ONE.shift(1) * 2)).remainder_ok


def test_conjectured_denominator_frozen_products():
    assert conjectured_denominator(2) == ONE + ONE.shift(2)
    assert conjectured_denominator(4) == ONE - ONE.shift(2)
    assert conjectured_denominator(6) == (ONE + ONE.shift(2)) * (ONE - ONE.shift(6))
    assert conjectured_denominator(8) == (ONE - ONE.shift(2)) * (ONE - ONE.shift(10))
    assert conjectured_denominator(10) == (
        (ONE + ONE.shift(2)) * (ONE - ONE.shift(14)) * (ONE - ONE.shift(8)))
    assert conjectured_denominator(12) == (
        (ONE - ONE.shift(2)) * (ONE - ONE.shift(18)) * (ONE - ONE.shift(12)))
    with pytest.raises(ValueError):
        conjectured_denominator(5)


def test_denominator_form_holds_except_four():
    for n in (2, 6, 8, 10, 12):
        assert check_denominator_form(n, cylinder_gf(n)), n
    # The n=4 series has denominator Phi_1 * Phi_2^2 (a double pole at -1)
    # while the proposed product degenerates to 1 - t^2, which vanishes only
    # simply at -1, so it cannot clear the pole.
    assert not check_denominator_form(4, cylinder_gf(4))


def test_periodicity_reports():
    for n, period in ((2, 4), (6, 12), (10, 56)):
        report = periodicity_report(n, cylinder_gf(n))
        assert report.max_multiplicity == 1
        assert report.remainder_ok
        assert report.period == period
    for n in (4, 8, 12):
        report = periodicity_report(n, cylinder_gf(n))
        assert report.period is None
        assert report.max_multiplicity == 2
    assert periodicity_report(14, gf=cylinder_gf(14)).period == 880


def test_periodic_tail_values():
    for n, period in ((2, 4), (6, 12)):
        gf = cylinder_gf(n)
        coeffs = series_expand(gf, gf.num.degree + 2 * period + 1)
        tail_start = gf.num.degree + 1
        for m in range(tail_start, tail_start + period):
            assert coeffs[m] == coeffs[m + period]


def test_block_count_denominator_bound():
    for n in (4, 6, 8, 10):
        for cls in enumerate_proper(n):
            assert check_block_count_denominator(cls), str(cls)
    # the bound itself: blockless level only contributes the two-term factor
    assert denominator_bound(6, 0) == ONE + ONE.shift(2)
    assert denominator_bound(8, 1) == (ONE - ONE.shift(2)) * (ONE - ONE.shift(10))


def test_denominator_bound_degree_counts_every_block_level():
    for n in (8, 10, 12, 14, 16):
        for b in range(1, n // 4 + 1):
            levels = sum(2 * cycle_length_lcm(k, n) for k in range(1, b + 1))
            assert denominator_bound(n, b).degree == 2 + levels, (n, b)


def test_block_count_denominator_rejects_a_pole_outside_the_bound(monkeypatch):
    cls = parse_pattern("01010111 / 11111111")
    assert block_count(cls) == 1 and check_block_count_denominator(cls)
    extra_pole = pattern_gf(cls) * RationalGF(ONE, IntPoly((1, -2)))
    monkeypatch.setattr(genfun, "pattern_gf", lambda p: extra_pole)
    assert not check_block_count_denominator(cls)


def _bound_divides_the_conjecture(n):
    return denominator_bound(n, (n - 1) // 4).divides(conjectured_denominator(n))


def test_structural_bound_divides_the_conjectured_product():
    # the two products share their per-level form, so this reads the cycle
    # divisibility at level k = j: cycle_length_lcm(j, n) divides n - 3j
    assert all(_bound_divides_the_conjecture(n) for n in range(2, 29, 2))


def test_bound_check_fails_on_a_longer_level_one_cycle(monkeypatch):
    # 1 - t^(2(n-2)) has a root of order 2(n-2), above every conjectured 2L
    monkeypatch.setattr(genfun, "cycle_length_lcm",
                        lambda k, n: cycle_length_lcm(k, n) + (k == 1))
    failing = [n for n in range(2, 29, 2) if not _bound_divides_the_conjecture(n)]
    assert failing == list(range(6, 29, 2))
