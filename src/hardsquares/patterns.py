"""Cyclic two-row patterns and their masked-cylinder indices.

A pattern is a 2 x n 0/1 matrix (n even, columns cyclic) with every first-row
1 sitting on a second-row 1.  It is stored as its column word, a str in the
letters a = (0,0), b = (0,1) and c = (1,1) (row 1 over row 2); no letter
stands for a 1 above a 0.  str(p) prints the two rows, "row1 / row2".
Masking the first two rows of P_m x C_n by a pattern gives a graph with
Witten index z(P, m), which z_pattern_series computes; the all-c pattern
recovers the full cylinder.  Three rewrite operations generate the
calculus:

  delete_top(P, i)               zero the row-1 entry at i (c -> b)
  delete_top_neighborhood(P, i)  zero row-1 at i-1, i, i+1 and row-2 at i
  peel(P)                        for patterns whose row-1 ones are all
                                 isolated: drop row 1 against a fresh
                                 all-ones row, at a sign (-1)^k and a shift
                                 of one grid row

with the index identities (m counted as grid rows, m >= 2):

  z(P, m) = z(delete_top(P,i), m) - z(delete_top_neighborhood(P,i), m)
  z(P, m) = (-1)^k * z(peel(P), m-1)        (usable once m-1 >= 2)
  z(P, 2) = (-1)^k * Z(one ring row masked by row 1 of peel(P))

The last is the peel identity at m = 2: each isolated row-1 one is a leaf
on its row-2 cell, and taking that cell's neighbourhood leaves row 2 wiped
as peel wipes the new row 1.

Proper patterns are the closed class these operations stay inside.  A
pattern is proper when its cyclic word obeys this grammar:

  row 2 has a zero   read from just after a row-2 zero, the word is a
                     sequence of row-2 groups, each followed by one a.  A
                     group is b, bbb, or a long block (length >= 4): row-1
                     groups c or ccc, one b apart, with one or two b's at
                     each end and exactly two beside a ccc.
  row 2 is all ones  read from just after a b, the word is c/ccc groups,
                     one b apart.

proper_block_count parses the word once (is_proper and block_count read
it), and enumerate_proper generates the words from the same grammar.  The
block count (row-2 groups of length >= 3 plus the ccc's: the maximal
1-groups of length >= 3 in both rows, which row_blocks scans for) is the
induction measure: delete_top at a block middle lowers it by one, the other
two preserve it.
Patterns related by rotation or reflection of the cycle give isomorphic
graphs; a class is its canonical pattern, the least rotation or reflection
of the word, which canonicalize() returns.

Index series convention: the pattern-level generating function starts at
m = 2 (z_pattern_series sets the entries below that to 0); the cylinder
series prepends its m = 0, 1 values separately.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import chain, product
from math import prod
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .errors import RuleInapplicableError
from .graphs import Graph, GridSpec, build_grid, column_series, grid_vertex


# a column letter's row-1 and row-2 bit, as a digit
_ROW1 = str.maketrans("abc", "001")
_ROW2 = str.maketrans("abc", "011")


class Pattern(str):
    """A pattern as its column word; str() prints its two rows."""

    __slots__ = ()

    def __new__(cls, word: str) -> "Pattern":
        if len(word) < 2 or len(word) % 2:
            raise ValueError("pattern length must be even and at least 2")
        if word.strip("abc"):
            raise ValueError("pattern letters must be a, b or c")
        return super().__new__(cls, word)

    n = property(str.__len__)  # the number of columns

    def __str__(self) -> str:
        return self.translate(_ROW1) + " / " + self.translate(_ROW2)

    def __format__(self, spec: str) -> str:  # str's own would print the word
        return format(str(self), spec)


# -- symmetry ---------------------------------------------------------------------


def canonicalize(p: Pattern) -> Pattern:
    """The class of p under the 2n cycle symmetries, as its representative:
    the least rotation or reflection of the word."""
    n, doubled = p.n, p + p
    return Pattern(min(d[k:k + n] for d in (doubled, doubled[::-1])
                       for k in range(n)))


def same_class(p: Pattern, q: Pattern) -> bool:
    """canonicalize(p) == canonicalize(q) by one substring search each way:
    p is a factor of q's doubled word, read forwards or backwards."""
    doubled = q + q
    return len(p) == len(q) and (p in doubled or p[::-1] in doubled)


# -- masked graphs and indices ----------------------------------------------------------


def masked_graph(p: Pattern, m: int) -> Graph:
    """The first two rows of P_m x C_n masked by p; rows 3..m intact."""
    if m < 2:
        raise ValueError("masked graphs need at least 2 rows")
    spec = GridSpec("cylinder", m, p.n)
    drop = [grid_vertex(spec, 1, i) for i, x in enumerate(p) if x != "c"]
    drop += [grid_vertex(spec, 2, i) for i, x in enumerate(p) if x == "a"]
    g = build_grid(spec)
    return g.without_vertices(g.mask(drop))


def row_masks(p: Pattern) -> Tuple[int, int]:
    """The two rows as bit masks, column i at bit i."""
    reverse = p[::-1]
    return int(reverse.translate(_ROW1), 2), int(reverse.translate(_ROW2), 2)


def z_pattern_series(p: Pattern, m_max: int) -> List[int]:
    """[z(P;m) for m = 0..m_max] with the m < 2 entries set to 0: the column
    kernel with rows 1 and 2 masked by the pattern's rows."""
    return [0, 0][:m_max + 1] + column_series(p.n, m_max, row_masks(p))[2:]


# -- rewrite operations ------------------------------------------------------------------


def delete_top(p: Pattern, i: int) -> Pattern:
    """Zero the row-1 entry at column i (which must be 1)."""
    i %= p.n
    if p[i] != "c":
        raise RuleInapplicableError(f"row 1 has no 1 at column {i}")
    return Pattern(p[:i] + "b" + p[i + 1:])


def _wipe(cols: List[str], i: int) -> None:
    """Zero row 1 at columns i-1, i, i+1 and row 2 at column i, in place:
    a c beside i becomes b, and column i becomes a."""
    n = len(cols)
    for j in ((i - 1) % n, (i + 1) % n):
        cols[j] = min(cols[j], "b")
    cols[i] = "a"


def delete_top_neighborhood(p: Pattern, i: int) -> Pattern:
    """Zero row-1 at columns i-1, i, i+1 and row-2 at column i."""
    i %= p.n
    if p[i] != "c":
        raise RuleInapplicableError(f"row 1 has no 1 at column {i}")
    cols = list(p)
    _wipe(cols, i)
    return Pattern("".join(cols))


def is_reducible(p: Pattern) -> bool:
    """True when every row-1 one is isolated (no two adjacent, cyclically)."""
    return "cc" not in p + p[:1]


def peel(p: Pattern) -> Tuple[Pattern, int]:
    """Eliminate row 1 of a reducible pattern against a fresh all-ones row.

    Each isolated row-1 one at column i acts as a pendant: it wipes row-2 at
    i-1, i, i+1 and the new row at i.  Returns (peeled pattern, (-1)^k) with
    k the number of row-1 ones; z(P;m) = sign * z(peeled;m-1) once m >= 3.
    """
    if not is_reducible(p):
        raise RuleInapplicableError("peel needs all row-1 ones isolated")
    cols = ["b" if x == "a" else "c" for x in p]  # row 2 over all ones
    for i, x in enumerate(p):
        if x == "c":
            _wipe(cols, i)
    return Pattern("".join(cols)), (-1 if p.count("c") % 2 else 1)


# -- row structure ---------------------------------------------------------------


@lru_cache(maxsize=None)
def _row_scans(letters: str) -> Tuple[re.Pattern, re.Pattern]:
    """The zero scan and the run scan of the row whose ones are these
    letters, compiled on first use."""
    return re.compile(f"[^{letters}]"), re.compile(f"[{letters}]{{3,}}")


def row_blocks(p: Pattern, letters: str) -> List[Tuple[int, int]]:
    """The maximal cyclic runs of at least three ones in the row whose ones
    are these letters ("c" for row 1, "bc" for row 2), as (start, length);
    none in a row of all ones, whose one run has no start."""
    zeros, runs = _row_scans(letters)
    zero = zeros.search(p)
    if zero is None:
        return []
    cut = zero.end()  # read from just after a zero, so no run wraps
    return [((cut + run.start()) % p.n, run.end() - run.start())
            for run in runs.finditer(p[cut:] + p[:cut])]


# -- the proper grammar -------------------------------------------------------------


# The grammar of the module docstring as moves (token, next state).  "part"
# stands between row-2 groups and "ones" reads a row 2 of all ones; both
# accept.  Inside a long block, "c" and "ccc" follow a row-1 group of that
# length and its b, and "short" follows the opening "bcb", which may not
# close at once: that group would have length 3.  No token of a state is a
# prefix of another, so at most one move applies at any point of a word.
_GRAMMAR: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "part": (("ba", "part"), ("bbba", "part"),
             ("bcb", "short"), ("bbcb", "c"), ("bbcccb", "ccc")),
    "short": (("cb", "c"), ("cccb", "ccc"), ("ba", "part")),
    "c": (("cb", "c"), ("cccb", "ccc"), ("a", "part"), ("ba", "part")),
    "ccc": (("cb", "c"), ("cccb", "ccc"), ("ba", "part")),
    "ones": (("cb", "ones"), ("cccb", "ones")),
}
_ACCEPT = ("part", "ones")


def _derive(state: str, length: int) -> Iterator[str]:
    """Every word of this length that the grammar reads from state."""
    if length == 0 and state in _ACCEPT:
        yield ""
    for token, nxt in _GRAMMAR[state]:
        if len(token) <= length:
            for rest in _derive(nxt, length - len(token)):
                yield token + rest


def proper_block_count(p: Pattern) -> Optional[int]:
    """Parse p's word once: its block count (row-2 groups of length
    >= 3 plus the ccc groups), or None when p is not proper."""
    state = "part" if "a" in p else "ones"
    cut = p.rfind("a" if state == "part" else "b") + 1
    word = p[cut:] + p[:cut]
    i = 0
    while i < len(word):
        for token, nxt in _GRAMMAR[state]:
            if word.startswith(token, i):
                break
        else:
            return None
        state, i = nxt, i + len(token)
    # a full parse ends accepted: a "part" word ends in a, and every token
    # holding an a ends in it and moves to "part"; "ones" moves stay there
    groups = word.split("a") if "a" in word else ()
    return word.count("ccc") + sum(len(g) >= 3 for g in groups)


def is_proper(p: Pattern) -> bool:
    """The closure class of the rewrite calculus: p's word obeys the grammar."""
    return proper_block_count(p) is not None


def block_count(p: Pattern) -> int:
    """Number of length >= 3 groups over both rows (the induction measure)."""
    count = proper_block_count(p)
    if count is None:
        raise ValueError("block_count is defined for proper patterns only")
    return count


def leftmost_block_middle(p: Pattern) -> int:
    """Column of the middle of the lowest-starting row-1 block (length 3)."""
    blocks = row_blocks(p, "c")
    if not blocks:
        raise RuleInapplicableError("row 1 has no block")
    start, length = min(blocks)
    return (start + length // 2) % p.n


# -- enumeration ---------------------------------------------------------------------


def enumerate_proper(n: int) -> List[Pattern]:
    """The canonical patterns of all proper classes of length n, sorted.

    Every word the grammar derives from "part" or "ones", deduplicated
    through canonicalize.
    """
    if n < 2 or n % 2:
        raise ValueError("pattern length must be even and at least 2")
    return sorted({canonicalize(Pattern(word)) for word in
                   chain(_derive("part", n), _derive("ones", n))})


# -- initial decomposition ----------------------------------------------------------


class SignedPatternCombo(NamedTuple):
    """Integer combination of pattern classes, each given by its canonical
    pattern; zero coefficients are dropped."""

    terms: Tuple[Tuple[Pattern, int], ...]


def initial_patterns(n: int) -> SignedPatternCombo:
    """Expansion of the full cylinder over masked patterns.

    From the all-c pattern, every even column takes either delete_top (+1)
    or delete_top_neighborhood (-1); the 2^{n/2} outcomes, each signed by
    the product of its signs, sum to the cylinder index for every m >= 2.
    Every write zeroes entries and leaves the other even columns c, so
    applying the deletions one after another equals applying them at once.
    """
    if n < 2 or n % 2:
        raise ValueError("initial patterns need even n >= 2")
    combo: Dict[Pattern, int] = {}
    evens = range(0, n, 2)
    for signs in product((1, -1), repeat=len(evens)):
        p = Pattern("c" * n)
        for i, sign in zip(evens, signs):
            p = delete_top(p, i) if sign > 0 else delete_top_neighborhood(p, i)
        cls = canonicalize(p)
        combo[cls] = combo.get(cls, 0) + prod(signs)
    terms = tuple(
        (cls, coeff) for cls, coeff in sorted(combo.items()) if coeff != 0
    )
    return SignedPatternCombo(terms)
