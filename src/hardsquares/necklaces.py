"""Stone arrangements on a circle and their rotation dynamics.

A (k, n) arrangement places 2k stones at distinct integer points of a circle
with n unit intervals; each stone carries a tangent vector of length 1 or 2,
positive clockwise.  Walking clockwise the vector signs alternate, so stones
pair up: a consecutive pair facing towards each other spans a gap of at
least 3 (gap plus both vector lengths odd, gap 3 forcing both lengths 1),
and a pair facing away spans an odd gap.

The step transformation T jumps every stone along its vector, switches every
vector to the other direction and the other length, then shrinks any
length-2 vectors of pairs that ended up facing at distance 3.  T is a
bijection on arrangement classes (classes = orbits under circle isometries),
so its functional graph is a disjoint union of cycles; cycle_structure
computes them and cycle_length_lcm feeds the denominator bounds of the
generating-function module.

An arrangement is its block word: walking clockwise from an away stone
(negative vector), each away stone and the facing stone after it make one
block, an int packing four fixed-width fields, high to low: the away
vector -o (as 2 - o), the away gap A, the facing vector i (as i - 1) and
the facing gap F.  n is the sum of the gaps, and int order is the order of
the (vector, gap) pairs, so the least word is the least sequence.  The
step and the mirror are sums of per-block lookups into three tables,
unbounded lru_caches (a circle of length n meets fewer than 2n^2 blocks):
image block j is _step_front(b_j) + _step_back(b_{j+1}) (T never reorders
stones), and mirror block j is _mirror_front(b_j) plus the facing gap of
b_{j-1}, read back to front.
A gap field is _GAP_BITS wide, so a circle longer than its largest value
is refused before any work.

A class is its canonical word, the least rotation or reflection
(canonicalize).  Classes are generated directly in that form (orderly
generation, after Sawada, SIAM J. Comput. 31 (2001)), one (facing, away)
stone pair at a time, and a block is packed as soon as its facing gap is
chosen.  A branch is pruned as soon as an away element, a whole block or
a whole mirror block falls below the first block.  A complete word is
kept unless a rotation or mirror rotation starting at or below its first
block is smaller; no other can be, so the leaf test compares only those
and stops at the first smaller one.  A kept word shares its block ints:
the stack's with its siblings, and its last two through a per-call map
(a circle of 28 has 163 distinct blocks for 6,478 (4, 28) words).  The
step must permute the classes; _successors checks that with one byte of
hits per class, not a set of images.  Stones get positions only when a
line is printed: format_necklace and necklace_to_json_obj put the first
stone at 0 and each next one a gap further clockwise.

Arrangements encode the reducible proper patterns with a given block count:
pattern_of_necklace writes, from the first stone at column 0, 0101...0
across each away gap and a block of 1s across each facing gap (with the
alternating first row pulled in by the vector lengths), one cached word
piece per block; necklace_of_pattern inverts it, reading the word from the
right stone of the first block.  One T step corresponds to peeling the
pattern and collapsing the new first-row blocks.  check_correspondence
converts each class both ways (pattern_of_necklace and necklace_of_pattern,
one parse of each pattern) and compares the two sides of that identity
with patterns.same_class.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from operator import add
from typing import Dict, List, Tuple

from .errors import ConsistencyError, RequestRefusedError
from .patterns import (
    Pattern,
    delete_top_neighborhood,
    is_reducible,
    peel,
    proper_block_count,
    row_blocks,
    same_class,
)

Word = Tuple[int, ...]  # one block per stone pair, read clockwise

# A block's fields, high to low: the away vector's code 2 - o, the away gap
# A, the facing vector's code i - 1 and the facing gap F.
_GAP_BITS = 14  # a block then fits one 30-bit int digit
_MASK = (1 << _GAP_BITS) - 1
_FACING = _GAP_BITS
_AWAY_GAP = _GAP_BITS + 1
_AWAY = 2 * _GAP_BITS + 1


def _block(o: int, a: int, i: int, f: int) -> int:
    """The block of away vector -o, away gap a, facing vector i and facing
    gap f."""
    return ((2 - o) << _AWAY) | (a << _AWAY_GAP) | ((i - 1) << _FACING) | f


def _fields(block: int) -> Tuple[int, int, int, int]:
    """(o, a, i, f) of a block: the vector lengths and the two gaps."""
    return (2 - (block >> _AWAY), (block >> _AWAY_GAP) & _MASK,
            ((block >> _FACING) & 1) + 1, block & _MASK)


@lru_cache(maxsize=None)
def _step_front(block: int) -> int:
    """The image block's part from its own block's facing stone: the away
    vector -(3 - i), -1 when fixed (A = o = i = 1), and the away gap's
    F - i."""
    o, a, i, f = _fields(block)
    away = 1 if a == o == i == 1 else 3 - i
    return ((2 - away) << _AWAY) + ((f - i) << _AWAY_GAP)


@lru_cache(maxsize=None)
def _step_back(block: int) -> int:
    """The previous image block's part from this block's away stone: the
    away gap's -o, the facing vector 3 - o, 1 when fixed, and the facing
    gap A + o + i, which is 3 exactly when fixed."""
    o, a, i, _ = _fields(block)
    facing = 1 if a == o == i == 1 else 3 - o
    return -(o << _AWAY_GAP) + ((facing - 1) << _FACING) + a + o + i


@lru_cache(maxsize=None)
def _mirror_front(block: int) -> int:
    """The mirror block's part from its own block: the pair read back to
    front, away vector -i, away gap A, facing vector o."""
    o, a, i, _ = _fields(block)
    return _block(i, a, o, 0)


_MIRROR_BACK = _MASK.__and__  # the facing gap F


# -- the step and the canonical form --------------------------------------------------


def transform(word: Word) -> Word:
    """T: jump every stone, switch every vector, then fix distance-3 pairs.

    Block j of the image starts at the image of block j's facing stone:
    its away gap is F_j - i_j - o_{j+1} and its facing pair is block j+1's
    away stone, jumped to facing gap A + o + i.  That gap is 3 exactly when
    A = o = i = 1, and then the switched vectors are (2, -2), so the fix
    only ever turns a (2, -2) jump into (1, -1), whatever n is.  Each image
    block is a table sum, _step_front(b_j) + _step_back(b_{j+1}).
    """
    return tuple(map(add, map(_step_front, word),
                     map(_step_back, word[1:] + word[:1])))


def _mirror(word: Word) -> Word:
    """The reflection: the stones reversed and their vectors negated.  The
    block of b_j read back to front is _mirror_front(b_j) plus the facing
    gap F_{j-1}, from the last block on."""
    rev = word[::-1]
    return tuple(map(add, map(_mirror_front, rev),
                     map(_MIRROR_BACK, rev[1:] + rev[:1])))


def canonicalize(word: Word) -> Word:
    """The class of word, as its canonical word: the least rotation or
    reflection, over the rotations that start at the least block."""
    mirror = _mirror(word)
    least = min(word + mirror)
    return min([d[i:] + d[:i] for d in (word, mirror)
                for i, block in enumerate(d) if block == least])


def _is_canonical(word: Word) -> bool:
    """word == canonicalize(word): only a rotation or mirror rotation that
    starts at or below word[0] can be smaller."""
    first = word[0]
    for i in range(1, len(word)):
        if word[i] <= first and word[i:] + word[:i] < word:
            return False
    mirror = _mirror(word)
    for i, block in enumerate(mirror):
        if block <= first and mirror[i:] + mirror[:i] < word:
            return False
    return True


# -- enumeration and cycle structure ----------------------------------------------


def _check_circle(n: int) -> None:
    if n < 1:
        raise RequestRefusedError("circle length must be positive")
    if n > _MASK:
        raise RequestRefusedError(f"circle length {n} exceeds {_MASK}, the widest gap "
                         f"a block holds")


def _check_size(k: int, n: int) -> None:
    if k < 1:
        raise RequestRefusedError("at least one stone pair is required")
    _check_circle(n)


def _least_facing_gap(inward: int, outward: int) -> int:
    """A facing gap is at least 3, with odd gap plus lengths, and 3 only
    with unit vectors."""
    return 3 if inward == outward == 1 else 5 if inward == outward else 4


def _canonical_words(k: int, n: int) -> List[Word]:
    """The (k, n) classes by orderly generation; see the module docstring.

    Stone pairs (facing element, away element) are chosen in turn: pair
    m's away element and pair m+1's facing element make block m-1, packed
    as soon as that facing gap is chosen, and the last pair's away element
    closes the word with the first pair's facing element.  From the second
    pair on, no away element below the first block's, no block below the
    first and no mirror block below the first enters the word.
    """
    out: List[Word] = []
    blocks: List[int] = []
    share = {}.setdefault  # one int object per distinct leaf block
    # the first pair: its away vector length and gap, its facing half and
    # the front of the last pair's mirror block
    o_first = a_first = f_first = closing = opening = 0

    def extend(pairs_left: int, used: int, head: int, tail: int) -> None:
        """Choose the next pair after the one whose away element is head
        (the open block's front) and whose mirror block lacks only its
        front (tail)."""
        first = blocks[0] if blocks else -1
        top = n - used - 4 * (pairs_left - 1)  # facing gaps stay below top
        for inward in (1, 2):
            front = head + ((inward - 1) << _FACING)
            if first < 0:  # this block is the first: the first pair's
                # mirror block (-inward, A_1, o_1, F_1) must not be smaller
                if inward > o_first:
                    continue
                f_min, f_stop = 0, min(top, f_first + 1) if inward == o_first else top
            else:
                if ((2 - inward) << _AWAY) + tail < first:
                    continue
                f_min, f_stop = first - front, top
                if f_min >= top:
                    continue
            for outward in range(1, o_first + 1):  # no away vector below o_1's
                a_min = a_first if outward == o_first else 1
                away = (2 - outward) << _AWAY
                f_lo = _least_facing_gap(inward, outward)
                if f_min > f_lo:
                    f_lo += (f_min - f_lo + 1) & ~1  # gap parity kept
                if pairs_left > 1:
                    for f_gap in range(f_lo, f_stop, 2):
                        blocks.append(front + f_gap)
                        back = ((outward - 1) << _FACING) + f_gap
                        for a_gap in range(a_min, top - f_gap + 1, 2):
                            extend(pairs_left - 1, used + f_gap + a_gap,
                                   away + (a_gap << _AWAY_GAP),
                                   (a_gap << _AWAY_GAP) + back)
                        blocks.pop()
                    continue
                # the last pair closes the circle with an odd away gap of
                # at least a_min, the room left
                if (top - f_lo) % 2 == 0:
                    continue
                for f_gap in range(f_lo, min(f_stop, top - a_min + 1), 2):
                    gap = (top - f_gap) << _AWAY_GAP
                    last = away + gap + closing
                    # neither the last block nor its pair's mirror block
                    # (-i_1, A_k, o_k, F_k) is below the first (for k = 2,
                    # first is -1 and the leaf test alone decides)
                    if (last >= first and opening + gap
                            + ((outward - 1) << _FACING) + f_gap >= first):
                        block = front + f_gap
                        word = (*blocks, share(block, block), share(last, last))
                        if _is_canonical(word):
                            out.append(word)

    if 4 * k > n:
        return out
    top = n - 4 * (k - 1)
    for inward in (1, 2):
        for outward in (1, 2):
            for f_gap in range(_least_facing_gap(inward, outward), top, 2):
                room = top - f_gap
                if k == 1:
                    if room % 2:
                        word = (_block(outward, room, inward, f_gap),)
                        if _is_canonical(word):
                            out.append(word)
                    continue
                o_first, f_first = outward, f_gap
                closing = ((inward - 1) << _FACING) + f_gap
                opening = (2 - inward) << _AWAY
                for a_gap in range(1, room + 1, 2):
                    a_first = a_gap
                    extend(k - 1, f_gap + a_gap,
                           ((2 - outward) << _AWAY) + (a_gap << _AWAY_GAP),
                           (a_gap << _AWAY_GAP) + ((outward - 1) << _FACING) + f_gap)
    return out


def _successors(words: List[Word]) -> List[int]:
    """Index of each class's step image; T must permute the classes, so
    every image is a class and no class is hit twice (one byte per class
    marks the hits)."""
    index = {word: i for i, word in enumerate(words)}
    succ = [index.get(canonicalize(transform(word))) for word in words]
    hit = bytearray(len(succ))
    for j in succ:
        if j is None or hit[j]:
            raise ConsistencyError("the step transformation failed to permute classes")
        hit[j] = 1
    return succ


def enumerate_necklaces(k: int, n: int) -> List[Word]:
    """The (k, n) classes as their canonical words, sorted."""
    _check_size(k, n)
    return sorted(_canonical_words(k, n))


@lru_cache(maxsize=32)
def _cycles(k: int, n: int) -> Tuple[Tuple[int, int], ...]:
    succ = _successors(_canonical_words(k, n))
    lengths: Dict[int, int] = {}
    seen = [False] * len(succ)
    for start in range(len(succ)):
        size, cur = 0, start
        while not seen[cur]:
            seen[cur] = True
            cur = succ[cur]
            size += 1
        if size:
            lengths[size] = lengths.get(size, 0) + 1
    return tuple(sorted(lengths.items()))


def cycle_structure(k: int, n: int) -> Dict[int, int]:
    """Multiset of cycle lengths of the step transformation, as length -> count."""
    _check_size(k, n)
    return dict(_cycles(k, n))


def format_cycle_structure(lengths: Dict[int, int]) -> str:
    return " ".join(f"{size}^{count}" for size, count in sorted(lengths.items()))


def cycle_length_lcm(k: int, n: int) -> int:
    """Least common multiple of all cycle lengths (1 for an empty graph)."""
    _check_size(k, n)
    return lcm(*(size for size, _ in _cycles(k, n)), 1)


def verify_cycle_divisibility(k: int, n: int) -> bool:
    """Do all cycle lengths divide n - 3k?"""
    return (n - 3 * k) % cycle_length_lcm(k, n) == 0


def transitions(k: int, n: int) -> List[Tuple[Word, Word]]:
    """Each class of enumerate_necklaces with its step image."""
    words = enumerate_necklaces(k, n)
    return [(word, words[j]) for word, j in zip(words, _successors(words))]


# -- correspondence with patterns ---------------------------------------------------


@lru_cache(maxsize=None)
def _pattern_piece(block: int) -> str:
    """A block's columns of the pattern word: abab...a (0101...0 under
    nothing) across the away gap, then a b-block (ones in row 2) across
    the facing gap with c at every other column, pulled in by the vector
    lengths: from column i on, short of the last column, which by the
    facing pair's parity rule leaves the next away vector's length of b's
    at the right end."""
    _, a, i, f = _fields(block)
    top = ["b"] * f
    if f > 3:
        top[i:f - 1:2] = "c" * len(range(i, f - 1, 2))
    return "ab" * (a // 2) + "a" + "".join(top)


def pattern_of_necklace(word: Word) -> Pattern:
    """Alternating strips across away gaps, blocks across facing gaps,
    from the first stone at column 0."""
    return Pattern("".join(map(_pattern_piece, word)))


def necklace_of_pattern(p: Pattern) -> Word:
    """Stones at block boundaries, read from the right stone of the first
    second-row block; vector lengths from the overhang zeros.  Refused
    unless p is proper and reducible with its grammar's number of blocks."""
    count = proper_block_count(p)
    if count is None or not is_reducible(p):
        raise ValueError("only proper patterns without first-row blocks convert")
    if not count:
        raise ValueError("the pattern has no second-row block")
    n, doubled, sides = p.n, p + p, []
    for start, length in row_blocks(p, "bc"):
        if length == 3:
            left, right = 1, 1
        else:
            above = doubled[start:start + length]
            left = above.index("c")
            right = above[::-1].index("c")
        sides.append((start, length, left, right))
    if len(sides) != count:
        raise ValueError(f"{len(sides)} second-row blocks read, {count} by the grammar")
    return tuple(_block(right, (nxt - start - length) % n, left, nlength)
                 for (start, length, _, right), (nxt, nlength, left, _)
                 in zip(sides, sides[1:] + sides[:1]))

def collapse_top_blocks(p: Pattern) -> Pattern:
    """Neighborhood-delete the middle of every first-row block."""
    out = p
    for start, length in row_blocks(p, "c"):
        out = delete_top_neighborhood(out, (start + length // 2) % p.n)
    return out


def check_correspondence(n: int) -> bool:
    """The three structural identities tying arrangements to patterns.

    For every (k, n) class: converting to a pattern gives a proper reducible
    pattern with block count k, and converting back returns the same
    arrangement (one read-back, necklace_of_pattern, which refuses any
    other pattern, checks both); and stepping the arrangement matches
    peeling the pattern and collapsing the new first-row blocks, as
    classes.  The third identity cannot see
    T's unit-vector fix at distance 3: a 3-block carries nothing above it,
    so a step without the fix gives the same patterns.  The step-table
    tests and the golden cycle table cover that fix.  Patterns have even
    length, so an odd n is refused before any class is generated.
    """
    _check_circle(n)
    if n % 2:
        raise ValueError(f"circle length {n} is odd; patterns have even length")
    for k in range(1, n // 4 + 1):
        for word in _canonical_words(k, n):
            pat = pattern_of_necklace(word)
            try:
                back = necklace_of_pattern(pat)
            except ValueError:  # not proper, reducible and with k blocks
                return False
            if canonicalize(back) != word:
                return False
            peeled, _ = peel(pat)
            if not same_class(pattern_of_necklace(transform(word)),
                              collapse_top_blocks(peeled)):
                return False
    return True


# -- export helpers ----------------------------------------------------------------


def _placed(word: Word) -> Tuple[int, List[Tuple[int, int]]]:
    """n and the (position, vector) stones: the first at 0, each next one a
    gap further clockwise."""
    pos, stones = 0, []
    for block in word:
        o, a, i, f = _fields(block)
        stones += ((pos, -o), (pos + a, i))
        pos += a + f
    return pos, stones


def format_necklace(word: Word) -> str:
    n, stones = _placed(word)
    body = " ".join(f"{p}:{v:+d}" for p, v in stones)
    return f"[{n}| {body}]"


def necklace_to_json_obj(word: Word) -> dict:
    n, stones = _placed(word)
    return {"schema": 1, "n": n, "stones": [[p, v] for p, v in stones]}


def dot_transition_graph(k: int, n: int) -> str:
    """The step transformation on classes in DOT format."""
    pairs = transitions(k, n)
    # T permutes the classes, so every class is the source of one edge
    names = {word: format_necklace(word) for word, _ in pairs}
    lines = [f'digraph "neck_{k}_{n}" {{']
    for src, dst in pairs:
        lines.append(f'  "{names[src]}" -> "{names[dst]}";')
    lines.append("}")
    return "\n".join(lines)
