"""Exact integer polynomials, rational generating functions, and recurrence fits.

Everything here is exact and runs on int: division and power-series
expansion check divisibility with divmod at each step and raise ValueError
on the first coefficient that is not an integer, and fit_recurrence's
Berlekamp-Massey elimination is fraction-free.  IntPoly stores ascending
coefficients with no trailing zeros; t^e is ONE.shift(e), and a power is a
product.  RationalGF keeps a canonical reduced
form (polynomial gcd divided out, integer content 1, positive leading
denominator coefficient) so that structural equality compares mathematical
equality.  The constructor reduces a raw pair by one full gcd.  The
operators start from reduced operands, so they divide out only what can
cancel (Henrici's method): a sum a/b + c/d only a factor of gcd(b, d), a
product only gcd(a, d) and gcd(c, b).  A sum with a polynomial and a
product with an int run no polynomial gcd, and every route ends in the
constructor's canonical form.  fit_recurrence reconstructs the minimal
linear recurrence behind an integer sequence and refuses to answer when the
sequence is too short to certify it.  It is the one function that takes a
caller's sequence, so it checks once that every term is an int; the
arithmetic inside trusts that.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from .errors import FitInconclusiveError


class IntPoly:
    """Integer polynomial; coeffs[i] is the coefficient of t^i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- basics ---------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    @property
    def content(self) -> int:
        """gcd of the coefficients (0 for the zero polynomial)."""
        return gcd(*self.coeffs)

    def primitive_part(self) -> "IntPoly":
        c = self.content
        if c in (0, 1):
            return self
        return IntPoly(x // c for x in self.coeffs)

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "PolyLike") -> "IntPoly":
        other = as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(self.coefficient(i) + other.coefficient(i) for i in range(n))

    def __sub__(self, other: "PolyLike") -> "IntPoly":
        return self + -as_poly(other)

    def __neg__(self) -> "IntPoly":
        return IntPoly(-c for c in self.coeffs)

    def __mul__(self, other: "PolyLike") -> "IntPoly":
        if isinstance(other, int):
            return IntPoly(other * c for c in self.coeffs)
        other = as_poly(other)
        if self.is_zero or other.is_zero:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__
    __radd__ = __add__

    def shift(self, k: int) -> "IntPoly":
        """Multiply by t^k."""
        if self.is_zero:
            return self
        return IntPoly((0,) * k + self.coeffs)

    def spread(self, k: int) -> "IntPoly":
        """Substitute t^k for t (k >= 1)."""
        out = [0] * (k * len(self.coeffs))
        out[::k] = self.coeffs
        return IntPoly(out)

    def divrem(self, div: "IntPoly") -> Tuple["IntPoly", "IntPoly"]:
        """Long division in integers; ValueError at the first quotient
        coefficient that is not integral.  The remainder stays integral until
        then, so this raises exactly when division over Q is not integral."""
        if div.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        qlen = len(self.coeffs) - len(div.coeffs) + 1
        if qlen <= 0:
            return IntPoly(), self
        rem = list(self.coeffs)
        quo = [0] * qlen
        lead, top = div.leading, div.degree
        for k in range(qlen - 1, -1, -1):
            q, r = divmod(rem[k + top], lead)
            if r:
                raise ValueError("non-integral polynomial division result")
            quo[k] = q
            if q:
                for i, b in enumerate(div.coeffs):
                    rem[i + k] -= q * b
        return IntPoly(quo), IntPoly(rem)

    def exact_div(self, div: "IntPoly") -> "IntPoly":
        q, r = self.divrem(div)
        if not r.is_zero:
            raise ValueError("polynomial division left a remainder")
        return q

    def divides(self, other: "IntPoly") -> bool:
        try:
            _, r = other.divrem(self)
        except ValueError:
            return False
        return r.is_zero

    # -- comparison / rendering ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"

    def __str__(self) -> str:
        return format_poly(self)


PolyLike = Union[IntPoly, int]


def as_poly(p: PolyLike) -> IntPoly:
    if isinstance(p, IntPoly):
        return p
    if isinstance(p, int):
        return IntPoly([p])
    raise TypeError(f"cannot interpret {p!r} as a polynomial")


ZERO = IntPoly()
ONE = IntPoly([1])


def format_poly(p: IntPoly) -> str:
    """Render with descending powers, e.g. ``-t^4 - 2t^3 - 2t - 1``."""
    if p.is_zero:
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coefficient(i)
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else str(mag)
            body = f"{head}t" if i == 1 else f"{head}t^{i}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = (first_sign if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd with positive leading coefficient (primitive PRS)."""
    if a.is_zero and b.is_zero:
        return ZERO
    a = a.primitive_part()
    b = b.primitive_part()
    while not b.is_zero:
        a, b = b, _pseudo_rem(a, b).primitive_part()
    if a.leading < 0:
        a = -a
    return a


def _pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Remainder of lead(b)^(deg a - deg b + 1) * a by b; the scaling makes
    every quotient coefficient an integer."""
    d = a.degree - b.degree
    if d < 0:
        return a
    return (a * b.leading ** (d + 1)).divrem(b)[1]


@lru_cache(maxsize=32)
def cyclotomic(d: int) -> IntPoly:
    """The d-th cyclotomic polynomial in prime steps: from Φ_1 = t - 1, each
    distinct prime q of d takes Φ_m to Φ_mq(t) = Φ_m(t^q) / Φ_m(t), one
    exact division, which reaches Φ_r for the radical r of d; then
    Φ_d(t) = Φ_r(t^(d/r))."""
    if d < 1:
        raise ValueError("cyclotomic order must be positive")
    p, radical = IntPoly([-1, 1]), 1
    for q in _prime_divisors(d):
        p, radical = p.spread(q).exact_div(p), radical * q
    return p.spread(d // radical)


def _prime_divisors(d: int) -> List[int]:
    """The distinct primes dividing d, ascending, by trial division."""
    primes, q = [], 2
    while q * q <= d:
        if d % q == 0:
            primes.append(q)
            while d % q == 0:
                d //= q
        q += 1
    return primes + [d] if d > 1 else primes


def _totients(limit: int) -> List[int]:
    """Euler's phi(d), the degree of cyclotomic(d), for d = 0 .. limit by
    one sieve: each prime q takes its share d // q from every multiple d."""
    phi = list(range(limit + 1))
    for q in range(2, limit + 1):
        if phi[q] == q:  # untouched by a smaller prime, so q is prime
            for d in range(q, limit + 1, q):
                phi[d] -= phi[d] // q
    return phi


def factor_cyclotomic(p: IntPoly) -> Tuple[Dict[int, int], IntPoly]:
    """Split off all cyclotomic factors Φ_d with φ(d) ≤ deg(p).

    Returns (factors, remainder) with factors a {d: multiplicity} map and
    Π Φ_d^mult · remainder = p.  The remainder keeps p's non-cyclotomic part
    (±1 when p is a pure product of cyclotomics).
    """
    if p.is_zero:
        return {}, p
    factors: Dict[int, int] = {}
    rem = p
    d = 1
    # φ(d) ≥ sqrt(d/2), so orders beyond 2(deg+1)^2 cannot divide
    limit = 2 * (p.degree + 1) ** 2
    phi = _totients(limit)
    while d <= limit and rem.degree > 0:
        if phi[d] <= rem.degree:  # Φ_d is built only when it can divide
            cyc = cyclotomic(d)
            while cyc.divides(rem):
                rem = rem.exact_div(cyc)
                factors[d] = factors.get(d, 0) + 1
        d += 1
    return factors, rem


def format_cyclotomic(factors: Dict[int, int], remainder: IntPoly) -> str:
    """Render a factorization in the Phi_d^mult style, e.g. ``Phi_1 * Phi_2^2``."""
    parts = []
    if remainder != ONE:
        parts.append(f"({format_poly(remainder)})" if remainder.degree > 0 else format_poly(remainder))
    for d in sorted(factors):
        mult = factors[d]
        parts.append(f"Phi_{d}" + (f"^{mult}" if mult > 1 else ""))
    return " * ".join(parts) if parts else "1"


class RationalGF:
    """Quotient of integer polynomials in canonical reduced form.

    Canonical form: the polynomial gcd is divided out, the integer content of
    numerator and denominator together is 1, and the denominator's leading
    coefficient is positive.  Equality is structural on that form.  The
    constructor reduces a raw pair with one full gcd; the operators reach
    the same form from reduced operands by the gcds of their denominators
    and cross factors alone (Henrici, JACM 3 (1956); Knuth, TAOCP 2,
    4.5.1).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: PolyLike, den: PolyLike = 1):
        num = as_poly(num)
        den = as_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        g = _nonconstant_gcd(num, den)
        if g.degree > 0:
            num, den = num.exact_div(g), den.exact_div(g)
        self.num, self.den = _normalised(num, den)

    # -- arithmetic ----------------------------------------------------------------

    def __add__(self, other: "GFLike") -> "RationalGF":
        other = as_gf(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        g = b if b == d else _nonconstant_gcd(b, d)
        if g.degree <= 0:  # coprime denominators: the plain sum is reduced
            return _coprime_gf(a * d + c * b, b * d)
        b, d = b.exact_div(g), d.exact_div(g)
        s = a * d + c * b  # over b d g; only a factor of g can cancel
        h = _nonconstant_gcd(s, g)
        if h.degree > 0:
            s, g = s.exact_div(h), g.exact_div(h)
        return _coprime_gf(s, b * d * g)

    def __sub__(self, other: "GFLike") -> "RationalGF":
        return self + -as_gf(other)

    def __neg__(self) -> "RationalGF":
        return self.times_monomial(-1, 0)

    def __mul__(self, other: "GFLike") -> "RationalGF":
        other = as_gf(other)
        return _product(self.num, self.den, other.num, other.den)

    def __truediv__(self, other: "GFLike") -> "RationalGF":
        other = as_gf(other)
        if other.num.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return _product(self.num, self.den, other.den, other.num)

    __radd__ = __add__
    __rmul__ = __mul__

    def times_monomial(self, sign: int, k: int) -> "RationalGF":
        """sign * t^k * self, sign = ±1; stays reduced since den(0) != 0."""
        out = object.__new__(RationalGF)
        out.num, out.den = (self.num * sign).shift(k), self.den
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalGF)
                and self.num == other.num and self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RationalGF({self.num!r}, {self.den!r})"

    def __str__(self) -> str:
        if self.den == ONE:
            return format_poly(self.num)
        return f"({format_poly(self.num)}) / ({format_poly(self.den)})"


def _normalised(num: IntPoly, den: IntPoly) -> Tuple[IntPoly, IntPoly]:
    """The canonical pair of num / den when their polynomial gcd is constant:
    joint integer content divided out, positive leading denominator
    coefficient; ValueError when den(0) = 0."""
    if num.is_zero:
        den = ONE
    else:
        c = gcd(num.content, den.content)
        if c > 1:
            num = IntPoly(x // c for x in num.coeffs)
            den = IntPoly(x // c for x in den.coeffs)
    if den.leading < 0:
        num, den = -num, -den
    if den.coefficient(0) == 0:
        raise ValueError("denominator vanishes at t = 0; no power series exists")
    return num, den


def _coprime_gf(num: IntPoly, den: IntPoly) -> RationalGF:
    """num / den for a pair whose polynomial gcd is already constant."""
    out = object.__new__(RationalGF)
    out.num, out.den = _normalised(num, den)
    return out


def _nonconstant_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """poly_gcd(a, b), or ONE without a gcd run when either is constant."""
    return poly_gcd(a, b) if a.degree > 0 and b.degree > 0 else ONE


def _product(a: IntPoly, b: IntPoly, c: IntPoly, d: IntPoly) -> RationalGF:
    """(a c) / (b d) for coprime pairs (a, b) and (c, d), d nonzero: only
    gcd(a, d) and gcd(c, b) can cancel."""
    g, h = _nonconstant_gcd(a, d), _nonconstant_gcd(c, b)
    if g.degree > 0:
        a, d = a.exact_div(g), d.exact_div(g)
    if h.degree > 0:
        c, b = c.exact_div(h), b.exact_div(h)
    return _coprime_gf(a * c, b * d)


GFLike = Union[RationalGF, IntPoly, int]


def as_gf(x: GFLike) -> RationalGF:
    if isinstance(x, RationalGF):
        return x
    return RationalGF(as_poly(x))


def series_expand(gf: RationalGF, upto: int) -> List[int]:
    """Power-series coefficients [t^0] .. [t^upto] (RationalGF ensures
    den(0) != 0); ValueError at the first one that is not an integer."""
    num, den = gf.num.coeffs, gf.den.coeffs
    out: List[int] = []
    for m in range(upto + 1):
        acc = num[m] if m < len(num) else 0
        for j in range(1, min(m, len(den) - 1) + 1):
            acc -= den[j] * out[m - j]
        val, r = divmod(acc, den[0])
        if r:
            raise ValueError(f"series coefficient at t^{m} is not an integer")
        out.append(val)
    return out


def fit_recurrence(seq: Sequence[int]) -> RationalGF:
    """Reconstruct the rational generating function behind an integer sequence.

    Finds the minimal linear recurrence by fraction-free Berlekamp-Massey
    (Massey 1969): C <- d'·C - d·t^gap·B, divided by its integer content.
    The sequence must be long enough to certify it, at least 2·order + 4
    terms, otherwise FitInconclusiveError is raised.  The result reproduces
    every supplied term.  A term that is not an int raises TypeError.
    """
    seq = list(seq)
    if not all(isinstance(x, int) for x in seq):
        raise TypeError("fit_recurrence needs a sequence of int")
    if not seq:
        raise FitInconclusiveError("empty sequence")
    conn: List[int] = [1]
    prev: List[int] = [1]
    order = 0
    gap = 1
    prev_disc = 1
    for i in range(len(seq)):
        # conn[0] is not 1 here, so the discrepancy includes its j = 0 term
        disc = sum(conn[j] * seq[i - j] for j in range(order + 1))
        if disc == 0:
            gap += 1
            continue
        update = [prev_disc * c for c in conn] + [0] * (len(prev) + gap - len(conn))
        for j, c in enumerate(prev):
            update[j + gap] -= disc * c
        content = gcd(*update)
        update = [c // content for c in update]
        if 2 * order <= i:
            conn, prev = update, conn
            order, prev_disc, gap = i + 1 - order, disc, 1
        else:
            conn, gap = update, gap + 1
    if len(seq) < 2 * order + 4:
        raise FitInconclusiveError(
            f"recurrence of order {order} needs at least {2 * order + 4} terms, got {len(seq)}"
        )
    den = IntPoly(conn)
    num = IntPoly((den * IntPoly(seq)).coeffs[:max(order, 1)])
    result = RationalGF(num, den)
    if series_expand(result, len(seq) - 1) != seq:
        raise FitInconclusiveError("fitted recurrence fails to reproduce the input")
    return result
