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

The kernel works on the sequence form, the clockwise (vector, gap to the
next stone) pairs; T steps it in place, as jumps never reorder stones.  The
canonical sequence of a class, its least rotation or reflection, starts
with an away element (negative vector).  Classes are generated directly in
that form (orderly generation, after Sawada, SIAM J. Comput. 31 (2001)),
one (facing, away) pair at a time.  A branch is pruned as soon as the
sequence or its mirror gains an away element below the first.  A complete
sequence is kept unless a rotation starting with its first element, or a
mirror rotation starting at or below it, is smaller; no other can be, so
the leaf test compares only those and stops at the first smaller one.
A class is given by its canonical representative, the canonical sequence
placed from 0; the kernel sorts and steps sequences and places them only
for output.

Arrangements encode the reducible proper patterns with a given block count:
pattern_of_necklace writes a block of 1s across each facing gap (with the
alternating first row pulled in by the vector lengths) and 0101...0 across
each away gap; necklace_of_pattern inverts it.  One T step corresponds to
peeling the pattern and collapsing the new first-row blocks.
check_correspondence converts sequences both ways (_pattern_of and
_sequence_of) and compares the two sides of that identity with
patterns.same_class.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import lcm
from typing import Dict, List, NamedTuple, Tuple

from .errors import ConsistencyError
from .patterns import (
    Pattern,
    delete_top_neighborhood,
    is_reducible,
    peel,
    proper_block_count,
    row_blocks,
    same_class,
)

Stone = Tuple[int, int]  # (position, vector)

_TURN = {-2: 1, -1: 2, 1: -2, 2: -1}


class _NecklaceFields(NamedTuple):
    n: int
    stones: Tuple[Stone, ...]


class Necklace(_NecklaceFields):
    """Stones on a circle of n unit intervals, sorted by position."""

    __slots__ = ()

    def __new__(cls, n: int, stones: Tuple[Stone, ...]) -> "Necklace":
        if n < 1:
            raise ValueError("circle length must be positive")
        stones = tuple(sorted((p % n, v) for p, v in stones))
        if len(stones) < 2 or len(stones) % 2:
            raise ValueError("an arrangement has a positive even stone count")
        if len({p for p, _ in stones}) != len(stones):
            raise ValueError("stones must sit at distinct points")
        if any(v not in (-2, -1, 1, 2) for _, v in stones):
            raise ValueError("stone vectors must be one of -2, -1, 1, 2")
        return super().__new__(cls, n, stones)

    def __str__(self) -> str:
        return format_necklace(self)


def format_necklace(neck: Necklace) -> str:
    body = " ".join(f"{p}:{v:+d}" for p, v in neck.stones)
    return f"[{neck.n}| {body}]"


# -- the sequence form ----------------------------------------------------------------


Seq = Tuple[Tuple[int, int], ...]  # (vector, clockwise gap to the next stone)


def _sequence(neck: Necklace) -> Seq:
    """The sequence form, starting from the lowest stone."""
    stones = neck.stones
    return tuple((v, (q - p) % neck.n)
                 for (p, v), (q, _) in zip(stones, stones[1:] + stones[:1]))


def _place(n: int, seq: Seq, start: int = 0) -> Necklace:
    """The arrangement whose first stone sits at start."""
    starts = accumulate((gap for _, gap in seq), initial=start)
    return Necklace(n, tuple((p % n, v) for p, (v, _) in zip(starts, seq)))


def _step(seq: Seq) -> Seq:
    """T; element i of the result is stone i's image, gap_i - v_i + v_{i+1}."""
    vecs = [_TURN[v] for v, _ in seq]
    gaps = [gap - v + w for (v, gap), (w, _) in zip(seq, seq[1:] + seq[:1])]
    for i, gap in enumerate(gaps):
        if vecs[i] > 0 and gap == 3:  # facing at distance 3: unit vectors
            vecs[i], vecs[(i + 1) % len(vecs)] = 1, -1
    return tuple(zip(vecs, gaps))


def _mirror(seq: Seq) -> Seq:
    """The reflection: the stones reversed, their vectors negated, each
    stone with the gap before it.  Element j of the mirror of an
    away-started sequence is an away element exactly when j is even."""
    rev = seq[::-1]
    return tuple((-v, gap) for (v, _), (_, gap) in zip(rev, rev[1:] + rev[:1]))


def _canonical(seq: Seq) -> Seq:
    """Least rotation or reflection, over the offsets of the away elements."""
    if seq[0][0] > 0:
        seq = seq[1:] + seq[:1]
    length = len(seq)
    return min([d[i:i + length] for d in (seq + seq, _mirror(seq) * 2)
                for i in range(0, length, 2)])


def _is_canonical(cand: Seq) -> bool:
    """cand == _canonical(cand), for an away-started cand none of whose away
    elements is below cand[0]: only a rotation starting with cand[0], or a
    mirror rotation starting at or below it, can be smaller."""
    first, length = cand[0], len(cand)
    for i in range(2, length, 2):
        if cand[i] == first and cand[i:] + cand[:i] < cand:
            return False
    mirror = _mirror(cand)
    for i in range(0, length, 2):
        if mirror[i] <= first and mirror[i:] + mirror[:i] < cand:
            return False
    return True


def transform(neck: Necklace) -> Necklace:
    """Jump every stone, switch every vector, then fix distance-3 pairs."""
    p0, v0 = neck.stones[0]
    return _place(neck.n, _step(_sequence(neck)), p0 + v0)


def canonicalize(neck: Necklace) -> Necklace:
    """The isometry class of neck, as its representative: the canonical
    sequence placed from 0."""
    return _place(neck.n, _canonical(_sequence(neck)))


# -- enumeration and cycle structure ----------------------------------------------


def _check_size(k: int, n: int) -> None:
    if k < 1:
        raise ValueError("at least one stone pair is required")
    if n < 1:
        raise ValueError("circle length must be positive")


def _canonical_sequences(k: int, n: int) -> List[Seq]:
    """The (k, n) classes by orderly generation; see the module docstring.

    Pairs (facing element, away element) are appended in turn; a candidate
    is rotated to start at its first away element.  From the second pair on,
    no away element below the first enters the sequence (which _is_canonical
    relies on) or its mirror.
    """
    out: List[Seq] = []
    seq: List[Tuple[int, int]] = []

    def extend(pairs_left: int, used: int) -> None:
        floor_rest = 4 * (pairs_left - 1)
        for inward in (1, 2):
            # the mirror's away element (-inward, previous away gap)
            if seq and (-inward, seq[-1][1]) < seq[1]:
                continue
            for outward in (1, 2):
                t_lo = 3 if inward == outward == 1 else 5 if inward == outward else 4
                for t_gap in range(t_lo, n - used - floor_rest, 2):
                    room = n - used - t_gap - floor_rest
                    if pairs_left > 1:
                        a_gaps = range(1, room + 1, 2)
                    else:  # the last pair closes the circle
                        a_gaps = (room,) if room % 2 else ()
                    for a_gap in a_gaps:
                        if seq and (-outward, a_gap) < seq[1]:
                            continue
                        seq.extend(((inward, t_gap), (-outward, a_gap)))
                        if pairs_left > 1:
                            extend(pairs_left - 1, used + t_gap + a_gap)
                        else:
                            cand = tuple(seq[1:] + seq[:1])
                            if _is_canonical(cand):
                                out.append(cand)
                        del seq[-2:]

    if 4 * k <= n:
        extend(k, 0)
    return out


def _successors(seqs: List[Seq]) -> List[int]:
    """Index of each class's step image; T must permute the classes."""
    index = {seq: i for i, seq in enumerate(seqs)}
    succ = [index.get(_canonical(_step(seq))) for seq in seqs]
    if None in succ or len(set(succ)) != len(succ):
        raise ConsistencyError("the step transformation failed to permute classes")
    return succ


def enumerate_necklaces(k: int, n: int) -> List[Necklace]:
    """The canonical representatives of the (k, n) classes, sorted.  Their
    positions are running sums of the gaps, so sorting the sequences sorts
    them."""
    _check_size(k, n)
    return [_place(n, seq) for seq in sorted(_canonical_sequences(k, n))]


@lru_cache(maxsize=32)
def _cycles(k: int, n: int) -> Tuple[Tuple[int, int], ...]:
    succ = _successors(_canonical_sequences(k, n))
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


def transitions(k: int, n: int) -> List[Tuple[Necklace, Necklace]]:
    """Each class of enumerate_necklaces with its step image."""
    _check_size(k, n)
    seqs = sorted(_canonical_sequences(k, n))
    necks = [_place(n, seq) for seq in seqs]
    return [(neck, necks[j]) for neck, j in zip(necks, _successors(seqs))]


# -- correspondence with patterns ---------------------------------------------------


def pattern_of_necklace(neck: Necklace) -> Pattern:
    """Blocks across facing gaps, alternating strips across away gaps."""
    return _pattern_of(_sequence(neck), neck.stones[0][0])


def _pattern_of(seq: Seq, start: int) -> Pattern:
    """pattern_of_necklace of the arrangement whose first stone sits at start."""
    row1: List[int] = []
    row2: List[int] = []
    for (v, gap), (w, _) in zip(seq, seq[1:] + seq[:1]):
        if v > 0:  # facing pair: a block of length gap, 1010... above it
            top = [0] * gap
            if gap > 3:
                stop = gap - abs(w)
                top[v:stop:2] = [1] * len(range(v, stop, 2))
            row1 += top
            row2 += [1] * gap
        else:  # away pair: 0101...0 across the gap
            row1 += [0] * gap
            row2 += ([0, 1] * gap)[:gap - 1] + [0]
    cut = -start % len(row1)
    return Pattern(tuple(row1[cut:] + row1[:cut]), tuple(row2[cut:] + row2[:cut]))


def necklace_of_pattern(p: Pattern) -> Necklace:
    """Stones at block boundaries; vector lengths from the overhang zeros."""
    count = proper_block_count(p)
    if count is None or not is_reducible(p):
        raise ValueError("only proper patterns without first-row blocks convert")
    if not count:
        raise ValueError("the pattern has no second-row block")
    return _place(p.n, *_sequence_of(p))


def _sequence_of(p: Pattern) -> Tuple[Seq, int]:
    """necklace_of_pattern(p) for a proper reducible p with a second-row
    block, as its sequence from the first block's left stone and that
    stone's position."""
    n, blocks = p.n, row_blocks(p.row2)
    seq: List[Tuple[int, int]] = []
    for (start, length), (nxt, _) in zip(blocks, blocks[1:] + blocks[:1]):
        if length == 3:
            left, right = 1, 1
        else:
            above = [p.row1[(start + j) % n] for j in range(length)]
            left = above.index(1)
            right = above[::-1].index(1)
        seq += [(left, length), (-right, (nxt - start - length) % n)]
    return tuple(seq), blocks[0][0]


def collapse_top_blocks(p: Pattern) -> Pattern:
    """Neighborhood-delete the middle of every first-row block."""
    out = p
    for start, length in row_blocks(p.row1):
        out = delete_top_neighborhood(out, (start + length // 2) % p.n)
    return out


def check_correspondence(n: int) -> bool:
    """The three structural identities tying arrangements to patterns.

    For every (k, n) class: converting to a pattern gives a proper reducible
    pattern with block count k; converting back returns the same arrangement;
    and stepping the arrangement matches peeling the pattern and collapsing
    the new first-row blocks, as classes.  The third identity cannot see
    T's unit-vector fix at distance 3: a 3-block carries nothing above it,
    so a step without the fix gives the same patterns.  The sequence-step
    tests and the golden cycle table cover that fix.
    """
    for k in range(1, n // 4 + 1):
        for seq in _canonical_sequences(k, n):
            pat = _pattern_of(seq, 0)
            # the one parse of the class: proper, with k blocks
            if proper_block_count(pat) != k or not is_reducible(pat):
                return False
            if _canonical(_sequence_of(pat)[0]) != seq:
                return False
            peeled, _ = peel(pat)
            if not same_class(_pattern_of(_step(seq), 0), collapse_top_blocks(peeled)):
                return False
    return True


# -- export helpers ----------------------------------------------------------------


def necklace_to_json_obj(neck: Necklace) -> dict:
    return {"schema": 1, "n": neck.n, "stones": [list(s) for s in neck.stones]}


def dot_transition_graph(k: int, n: int) -> str:
    """The step transformation on classes in DOT format."""
    lines = [f'digraph "neck_{k}_{n}" {{']
    for src, dst in transitions(k, n):
        lines.append(f'  "{format_necklace(src)}" -> "{format_necklace(dst)}";')
    lines.append("}")
    return "\n".join(lines)
