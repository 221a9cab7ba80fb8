"""Exact polynomial arithmetic, cyclotomic factorization, and recurrence fits.

Covers: IntPoly ring operations and exact division, primitive gcd
normalization, cyclotomic polynomials and the factor-splitting routine
(which builds Φ_d only when φ(d), read from one totient sieve, is at most
the degree left to split, and builds each order once, in prime steps
Φ_mq(t) = Φ_m(t^q) / Φ_m(t), equal to the recursive division of
tests/helpers.py for d < 400, with one prime factorisation per order
built), substitution of t^k for t (IntPoly.spread), RationalGF canonical
reduction, power-series expansion, and the Berlekamp-Massey fit including
its refusal on short input and on terms that are not int.

RationalGF's operators reduce from reduced operands by the gcds of the
denominators and of the cross factors alone; +, -, * and / give the same
canonical form, or raise the same exception, as the full-gcd constructor
on the raw pair, for random operands with shared cyclotomic factors, equal
denominators, polynomial operands and sums that cancel to 0.  A sum with a
polynomial and a product with an int run no polynomial gcd, a sum over
coprime denominators only theirs; division by zero and by a series with a
zero constant term raise as before.

The integer division and expansion agree with the Fraction oracles of
tests/helpers.py: for divisors that are not monic, on exact products,
products plus a remainder and random pairs, both give the same
(quotient, remainder) or both raise ValueError; series_expand gives the
same coefficients or raises at the same power of t; and divides answers
as the oracle does on every pair factor_cyclotomic tries.  The
pseudo-remainder, now a divrem of the scaled dividend, equals the
written-out scale-and-cancel loop on random pairs.  The fraction-free
Berlekamp-Massey fit returns the same RationalGF as the Fraction fit of
tests/helpers.py, or raises the same exception with the same message, on
true recurrences of order up to 6 (windows long enough and too short),
short random sequences, sequences with leading zeros and prefixes of the
cylinder column series.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from hardsquares import polynomials
from hardsquares.errors import FitInconclusiveError
from hardsquares.graphs import column_series
from hardsquares.polynomials import (
    ONE,
    _totients,
    IntPoly,
    RationalGF,
    cyclotomic,
    factor_cyclotomic,
    fit_recurrence,
    format_cyclotomic,
    format_poly,
    poly_gcd,
    series_expand,
)

import pytest

from helpers import (
    cyclotomic_oracle,
    divrem_oracle,
    fit_recurrence_oracle,
    pseudo_rem_oracle,
    series_expand_oracle,
)


def P(*coeffs: int) -> IntPoly:
    return IntPoly(coeffs)


# -- ring operations ------------------------------------------------------------


def test_poly_basic_arithmetic():
    assert P(1, -1) * P(1, 1) == P(1, 0, -1)
    assert P(1, 2) + P(0, -2, 3) == P(1, 0, 3)
    assert -P(1, -2) == P(-1, 2)
    assert P(1, 1) * P(1, 1) == P(1, 2, 1)
    assert P(2, 1).shift(2) == P(0, 0, 2, 1)
    assert P(2, 0, -1).spread(3) == P(2, 0, 0, 0, 0, 0, -1)
    assert P(2, 1).spread(1) == P(2, 1) and P().spread(2).is_zero


def test_poly_trims_trailing_zeros():
    assert P(1, 0, 0) == P(1)
    assert P(0, 0).is_zero
    assert P().degree == -1


def test_divrem_and_exact_division():
    q, r = P(-1, 0, 0, 1).divrem(P(-1, 1))
    assert q == P(1, 1, 1)
    assert r.is_zero
    q, r = P(1, 0, 1).divrem(P(1, 1))
    assert P(1, 1) * q + r == P(1, 0, 1)
    with pytest.raises(ZeroDivisionError):
        P(1).divrem(IntPoly())
    with pytest.raises(ValueError):
        P(1, 0, 1).exact_div(P(1, 1))


def test_gcd_is_primitive_with_positive_leading_coefficient():
    a = P(-1, 0, 0, 0, 0, 0, 1)  # t^6 - 1
    b = P(-1, 0, 0, 0, 1)  # t^4 - 1
    assert poly_gcd(a, b) == P(-1, 0, 1)  # t^2 - 1
    assert poly_gcd(P(2, 4), P(6)) == P(1)
    assert poly_gcd(IntPoly(), P(0, -3)) == P(0, 1)


def test_formatting():
    assert format_poly(P(1, -2, 1)) == "t^2 - 2t + 1"
    assert format_poly(P(-1, 0, -1)) == "-t^2 - 1"
    assert format_poly(IntPoly()) == "0"
    assert format_poly(P(5)) == "5"


# -- cyclotomics --------------------------------------------------------------


def test_cyclotomic_small_orders():
    assert cyclotomic(1) == P(-1, 1)
    assert cyclotomic(2) == P(1, 1)
    assert cyclotomic(4) == P(1, 0, 1)
    assert cyclotomic(6) == P(1, -1, 1)
    assert cyclotomic(12) == P(1, 0, -1, 0, 1)


def test_cyclotomic_product_recovers_t_power_minus_one():
    for d in (6, 10, 12):
        prod = IntPoly([1])
        for e in range(1, d + 1):
            if d % e == 0:
                prod = prod * cyclotomic(e)
        assert prod == IntPoly([-1] + [0] * (d - 1) + [1])


def test_factor_cyclotomic():
    one_minus_t6 = P(1, 0, 0, 0, 0, 0, -1)
    factors, rem = factor_cyclotomic(one_minus_t6)
    assert factors == {1: 1, 2: 1, 3: 1, 6: 1}
    assert rem in (P(1), P(-1))
    # a non-cyclotomic factor survives in the remainder
    factors, rem = factor_cyclotomic(P(1, -2) * cyclotomic(4))
    assert factors == {4: 1}
    assert rem == P(1, -2)
    assert format_cyclotomic({1: 1, 2: 2}, P(-1)) == "-1 * Phi_1 * Phi_2^2"


def test_cyclotomic_cache_is_bounded():
    assert cyclotomic.cache_info().maxsize == 32
    cyclotomic.cache_clear()
    orders = range(1, 61)
    prod = IntPoly([1])
    for d in orders:
        prod = prod * cyclotomic(d)  # 60 orders through 32 slots
    assert cyclotomic.cache_info().currsize == 32
    assert factor_cyclotomic(prod) == (dict.fromkeys(orders, 1), ONE)


def test_cyclotomic_moebius_product_equals_the_recursive_division():
    for d in range(1, 400):
        assert cyclotomic(d) == cyclotomic_oracle(d), d


def test_factor_cyclotomic_builds_each_order_once():
    # no cyclotomic factor, so the scan runs to 2(deg + 1)^2 = 7442, and
    # building one order must not rebuild smaller ones through the cache
    p = IntPoly([3, 1] + [0] * 58 + [1])
    cyclotomic.cache_clear()
    assert factor_cyclotomic(p) == ({}, p)
    info = cyclotomic.cache_info()
    assert info.hits == 0
    phi = _totients(7442)
    assert info.misses == sum(1 for d in range(1, 7443) if phi[d] <= 60) == 119


def test_factor_cyclotomic_factors_only_the_orders_it_builds(monkeypatch):
    # φ(d) comes from the sieve, so the one trial division left is the one
    # inside each Φ_d build
    p = IntPoly([3, 1] + [0] * 58 + [1])
    factored = []
    prime_divisors = polynomials._prime_divisors
    monkeypatch.setattr(polynomials, "_prime_divisors",
                        lambda d: factored.append(d) or prime_divisors(d))
    cyclotomic.cache_clear()
    assert factor_cyclotomic(p) == ({}, p)
    assert len(factored) == cyclotomic.cache_info().misses == 119
    assert len(set(factored)) == 119


def test_totient_is_the_cyclotomic_degree():
    phi = _totients(300)
    assert len(phi) == 301
    assert phi[1:13] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    assert all(phi[d] == cyclotomic(d).degree for d in range(1, 300))


def test_factor_cyclotomic_builds_only_orders_that_can_divide(monkeypatch):
    # a non-cyclotomic factor keeps the scan going to 2(deg + 1)^2 = 882
    p = P(3, -1, 1) * cyclotomic(7) * cyclotomic(7) * cyclotomic(7)
    built = []
    monkeypatch.setattr(polynomials, "cyclotomic",
                        lambda d: built.append(d) or cyclotomic(d))
    assert factor_cyclotomic(p) == ({7: 3}, P(3, -1, 1))
    assert 7 in built and all(cyclotomic(d).degree <= p.degree for d in built)


# -- rational functions ---------------------------------------------------------


def test_rational_reduction_is_canonical():
    # (1-2t+t^2)/(1-t^3) reduces to (1-t)/(1+t+t^2)
    f = RationalGF(P(1, -2, 1), P(1, 0, 0, -1))
    assert f.num == P(1, -1)
    assert f.den == P(1, 1, 1)
    # reduction is idempotent and sign-normalized
    g = RationalGF(f.num * P(-3), f.den * P(-3))
    assert g == f
    assert RationalGF(P(0), P(7, 1)).num.is_zero


def test_rational_arithmetic():
    half = RationalGF(ONE, P(1, -1))  # 1/(1-t)
    t_over = RationalGF(ONE.shift(1), P(1, -1))
    assert half - t_over == RationalGF(ONE)
    assert half * RationalGF(P(1, -1)) == RationalGF(ONE)
    assert (half + half) == RationalGF(P(2), P(1, -1))
    assert half / half == RationalGF(ONE)


def test_series_expand():
    geo = RationalGF(ONE, P(1, -1))
    assert series_expand(geo, 5) == [1, 1, 1, 1, 1, 1]
    alt = RationalGF(P(1, -1), P(1, 0, 1))  # (1-t)/(1+t^2)
    assert series_expand(alt, 7) == [1, -1, -1, 1, 1, -1, -1, 1]
    with pytest.raises(ValueError):
        RationalGF(ONE, ONE.shift(1))  # 1/t has no power series


# -- operators against the full-gcd constructor -----------------------------------

# operands share cyclotomic factors often, so the operators' gcds cancel
shared_orders = st.lists(st.sampled_from([1, 2, 3, 4, 6]), max_size=3)


def _times_cyclotomics(p, orders):
    for d in orders:
        p = p * cyclotomic(d)
    return p


raw_numerators = st.builds(_times_cyclotomics,
                           st.lists(st.integers(-4, 4), max_size=4).map(IntPoly),
                           shared_orders)
# den(0) != 0: a nonzero constant term times cyclotomics
raw_denominators = st.builds(
    lambda low, high, orders: _times_cyclotomics(IntPoly([low] + high), orders),
    st.sampled_from([1, -1, 2, -2, 3]), st.lists(st.integers(-3, 3), max_size=3),
    shared_orders)
reduced_gfs = st.builds(RationalGF, raw_numerators, raw_denominators)
polynomial_gfs = raw_numerators.map(RationalGF)
operand_pairs = st.one_of(
    st.tuples(reduced_gfs, reduced_gfs),
    st.tuples(reduced_gfs, polynomial_gfs),
    st.tuples(polynomial_gfs, reduced_gfs),
    st.builds(lambda a, c, d: (RationalGF(a, d), RationalGF(c, d)),  # equal dens
              raw_numerators, raw_numerators, raw_denominators),
    reduced_gfs.map(lambda x: (x, -x)))  # sums that cancel to 0


def _raw_outcome(build, *args):
    try:
        return build(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(operand_pairs)
def test_operators_equal_the_full_gcd_constructor_on_raw_pairs(pair):
    x, y = pair
    a, b, c, d = x.num, x.den, y.num, y.den
    raw = {"+": (a * d + c * b, b * d), "-": (a * d - c * b, b * d),
           "*": (a * c, b * d), "/": (a * d, b * c)}
    ops = {"+": x.__add__, "-": x.__sub__, "*": x.__mul__, "/": x.__truediv__}
    for op, (num, den) in raw.items():
        got = _raw_outcome(ops[op], y)
        assert got == _raw_outcome(RationalGF, num, den), (op, x, y)
        if isinstance(got, RationalGF):  # canonical: the constructor keeps it
            assert RationalGF(got.num, got.den) == got


def test_operator_errors_are_unchanged():
    x = RationalGF(P(1, 1), P(1, -1))
    with pytest.raises(ZeroDivisionError, match="division by the zero function"):
        x / RationalGF(0)
    with pytest.raises(ZeroDivisionError):
        x / 0
    with pytest.raises(ValueError, match="denominator vanishes at t = 0"):
        x / RationalGF(ONE.shift(1) * P(1, 1), P(1, 0, 1))  # zero constant term
    # a zero constant term that the dividend cancels leaves a power series
    t = ONE.shift(1)
    assert RationalGF(t, P(1, -1)) / RationalGF(t) == RationalGF(ONE, P(1, -1))


def test_polynomial_sums_and_int_products_run_no_gcd(monkeypatch):
    x = RationalGF(P(1, 2, 3), P(1, 0, -1) * P(1, 1, 1))
    y = RationalGF(ONE.shift(1), P(1, 0, 0, 0, 1))
    calls = []
    monkeypatch.setattr(polynomials, "poly_gcd",
                        lambda a, b: calls.append((a, b)) or poly_gcd(a, b))
    x + P(2, 0, 5)
    x - 3
    x * -4
    assert calls == []
    x + x  # equal denominators: only the gcd of the summed numerator with them
    assert calls == [(x.num * 2, x.den)]
    calls.clear()
    x + y  # coprime denominators: their gcd, and nothing more
    assert calls == [(x.den, y.den)]


# -- integer arithmetic against the Fraction oracles ------------------------------

small_polys = st.lists(st.integers(-6, 6), max_size=6).map(IntPoly)
# leading (and constant) coefficients that are mostly not units
leads = st.sampled_from([1, -1, 2, -2, 3, -3, 4, 6])
divisors = st.builds(lambda low, lead: IntPoly(low + [lead]),
                     st.lists(st.integers(-6, 6), max_size=4), leads)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return ValueError, str(exc)


def _oracle_divides(div, p):
    outcome = _outcome(divrem_oracle, p, div)
    return outcome[0] is not ValueError and outcome[1].is_zero


@settings(max_examples=400, deadline=None, derandomize=True)
@given(small_polys, divisors, small_polys,
       st.sampled_from(["product", "offset", "random"]))
def test_divrem_matches_the_fraction_oracle(q, div, r, kind):
    p = {"product": q * div, "offset": q * div + r, "random": r}[kind]
    assert _outcome(p.divrem, div) == _outcome(divrem_oracle, p, div)
    assert div.divides(p) == _oracle_divides(div, p)
    if kind == "product" and not p.is_zero:
        assert p.exact_div(div) == q


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_polys, st.lists(st.integers(-6, 6), max_size=4), leads,
       st.integers(0, 12))
def test_series_expand_matches_the_fraction_oracle(num, high, den0, upto):
    gf = RationalGF(num, IntPoly([den0] + high))
    assert _outcome(series_expand, gf, upto) == _outcome(series_expand_oracle, gf, upto)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.integers(-9, 9), max_size=9).map(IntPoly), divisors)
def test_pseudo_rem_matches_the_scale_and_cancel_loop(a, b):
    assert polynomials._pseudo_rem(a, b) == pseudo_rem_oracle(a, b)


# pure products stop the scan at the largest order; a non-cyclotomic factor
# makes it run to 2(deg + 1)^2
cyclotomic_products = st.one_of(
    st.tuples(st.lists(st.integers(1, 30), max_size=4), st.sampled_from([ONE, P(-1)])),
    st.tuples(st.lists(st.sampled_from([1, 2, 3, 4, 6]), max_size=3),
              st.sampled_from([P(1, -2), P(2, 1), P(3, -1, 1), P(2, 0, 2)])))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cyclotomic_products)
def test_divides_matches_the_oracle_inside_factor_cyclotomic(product):
    orders, extra = product
    p = extra
    for d in orders:
        p = p * cyclotomic(d)
    seen = []
    real = IntPoly.divides
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(IntPoly, "divides",
                   lambda div, other: seen.append((div, other)) or real(div, other))
        factor_cyclotomic(p)
    for div, other in seen:
        assert div.divides(other) == _oracle_divides(div, other)


# -- recurrence fitting -----------------------------------------------------------


def test_fit_recurrence_examples():
    assert fit_recurrence([1] * 10) == RationalGF(ONE, P(1, -1))
    f = fit_recurrence(column_series(3, 30))
    assert f == RationalGF(P(1, -2, 1), P(1, 0, 0, -1))
    f2 = fit_recurrence(column_series(2, 20))
    assert f2 == RationalGF(P(1, -1), P(1, 0, 1))


def test_fit_recurrence_needs_enough_terms():
    with pytest.raises(FitInconclusiveError):
        fit_recurrence([1, 1, 1, 1, 1])  # order 1 needs 6 terms
    with pytest.raises(FitInconclusiveError):
        fit_recurrence([1, 2, 4, 8, 16])
    assert fit_recurrence([1, 2, 4, 8, 16, 32]) == RationalGF(ONE, P(1, -2))


def test_fit_recurrence_takes_int_terms_only():
    with pytest.raises(TypeError):
        fit_recurrence([1, 2.0, 3, 4, 5, 6])
    with pytest.raises(TypeError):
        fit_recurrence([Fraction(1)] * 10)


def test_fit_recurrence_roundtrip_on_random_rational_functions():
    import random

    rng = random.Random(99)
    for _ in range(30):
        num = IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))])
        den = IntPoly([1] + [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
        gf = RationalGF(num, den)
        terms = series_expand(gf, 2 * max(gf.den.degree, gf.num.degree + 1) + 8)
        assert fit_recurrence(terms) == gf


def _recurrence_terms(args):
    """Terms of s_i = sum_j c_j s_{i-j} from the given start, cut at length."""
    coeffs, start, length = args
    terms = list(start)
    while len(terms) < length:
        terms.append(sum(c * terms[-1 - j] for j, c in enumerate(coeffs)))
    return terms[:length]


true_recurrences = st.integers(0, 6).flatmap(lambda d: st.tuples(
    st.lists(st.integers(-3, 3), min_size=d, max_size=d),
    st.lists(st.integers(-5, 5), min_size=d, max_size=d),
    st.integers(0, 3 * d + 12))).map(_recurrence_terms)
fit_inputs = st.one_of(
    true_recurrences,
    st.lists(st.integers(-5, 5), max_size=12),
    st.tuples(st.integers(1, 5), st.lists(st.integers(-3, 3), max_size=10)).map(
        lambda z: [0] * z[0] + z[1]))


def _fit_outcome(fit, seq):
    try:
        return fit(seq)
    except FitInconclusiveError as exc:
        return type(exc), str(exc)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(fit_inputs)
def test_fit_recurrence_matches_the_fraction_oracle(seq):
    assert _fit_outcome(fit_recurrence, seq) == _fit_outcome(fit_recurrence_oracle, seq)


def test_fit_recurrence_matches_the_oracle_on_column_series():
    for n in range(1, 12):
        seq = column_series(n, 60)
        outcomes = [_fit_outcome(fit_recurrence, seq[:k]) for k in (4, 8, 16, 61)]
        assert outcomes == [_fit_outcome(fit_recurrence_oracle, seq[:k]) for k in (4, 8, 16, 61)]
        assert outcomes[0][0] is FitInconclusiveError and isinstance(outcomes[-1], RationalGF)
