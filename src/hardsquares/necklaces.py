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

An arrangement is its sequence, the clockwise (vector, gap to the next
stone) pairs; n is the sum of the gaps.  transform steps it in place, as
jumps never reorder stones.  A class is its canonical sequence, the least
rotation or reflection (canonicalize), which starts with an away element
(negative vector).  Classes are generated directly in that form (orderly
generation, after Sawada, SIAM J. Comput. 31 (2001)), one (facing, away)
pair at a time.  A branch is pruned as soon as the sequence or its mirror
gains an away element below the first.  A complete sequence is kept unless
a rotation starting with its first element, or a mirror rotation starting
at or below it, is smaller; no other can be, so the leaf test compares only
those and stops at the first smaller one.  Stones get positions only when a
line is printed: format_necklace and necklace_to_json_obj put the first
stone at 0 and each next one a gap further clockwise.

Arrangements encode the reducible proper patterns with a given block count:
pattern_of_necklace writes, from the first stone at column 0, a block of 1s
across each facing gap (with the alternating first row pulled in by the
vector lengths) and 0101...0 across each away gap; necklace_of_pattern
inverts it, reading the sequence from the left stone of the first block.
One T step corresponds to peeling the pattern and collapsing the new
first-row blocks.  check_correspondence converts each class both ways
(pattern_of_necklace and _sequence_of, the parse behind
necklace_of_pattern) and compares the two sides of that identity with
patterns.same_class.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import lcm
from typing import Dict, List, Tuple

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

Seq = Tuple[Tuple[int, int], ...]  # (vector, clockwise gap to the next stone)

_TURN = {-2: 1, -1: 2, 1: -2, 2: -1}


# -- the step and the canonical form --------------------------------------------------


def transform(seq: Seq) -> Seq:
    """T: jump every stone, switch every vector, then fix distance-3 pairs.
    Element i of the result is stone i's image, gap_i - v_i + v_{i+1}."""
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


def canonicalize(seq: Seq) -> Seq:
    """The class of seq, as its canonical sequence: the least rotation or
    reflection, over the offsets of the away elements."""
    if seq[0][0] > 0:
        seq = seq[1:] + seq[:1]
    length = len(seq)
    return min([d[i:i + length] for d in (seq + seq, _mirror(seq) * 2)
                for i in range(0, length, 2)])


def _is_canonical(cand: Seq) -> bool:
    """cand == canonicalize(cand), for an away-started cand none of whose away
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
    succ = [index.get(canonicalize(transform(seq))) for seq in seqs]
    if None in succ or len(set(succ)) != len(succ):
        raise ConsistencyError("the step transformation failed to permute classes")
    return succ


def enumerate_necklaces(k: int, n: int) -> List[Seq]:
    """The (k, n) classes as their canonical sequences, sorted."""
    _check_size(k, n)
    return sorted(_canonical_sequences(k, n))


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


def transitions(k: int, n: int) -> List[Tuple[Seq, Seq]]:
    """Each class of enumerate_necklaces with its step image."""
    seqs = enumerate_necklaces(k, n)
    return [(seq, seqs[j]) for seq, j in zip(seqs, _successors(seqs))]


# -- correspondence with patterns ---------------------------------------------------


def pattern_of_necklace(seq: Seq) -> Pattern:
    """Blocks across facing gaps, alternating strips across away gaps, from
    the first stone at column 0."""
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
    return Pattern(tuple(row1), tuple(row2))


def necklace_of_pattern(p: Pattern) -> Seq:
    """Stones at block boundaries, read from the left stone of the first
    second-row block; vector lengths from the overhang zeros."""
    count = proper_block_count(p)
    if count is None or not is_reducible(p):
        raise ValueError("only proper patterns without first-row blocks convert")
    if not count:
        raise ValueError("the pattern has no second-row block")
    return _sequence_of(p)


def _sequence_of(p: Pattern) -> Seq:
    """necklace_of_pattern(p) for a proper reducible p with a second-row
    block."""
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
    return tuple(seq)


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
            pat = pattern_of_necklace(seq)
            # the one parse of the class: proper, with k blocks
            if proper_block_count(pat) != k or not is_reducible(pat):
                return False
            if canonicalize(_sequence_of(pat)) != seq:
                return False
            peeled, _ = peel(pat)
            if not same_class(pattern_of_necklace(transform(seq)),
                              collapse_top_blocks(peeled)):
                return False
    return True


# -- export helpers ----------------------------------------------------------------


def _placed(seq: Seq) -> Tuple[int, List[Tuple[int, int]]]:
    """n and the (position, vector) stones: the first at 0, each next one a
    gap further clockwise."""
    starts = list(accumulate((gap for _, gap in seq), initial=0))
    return starts[-1], [(p, v) for p, (v, _) in zip(starts, seq)]


def format_necklace(seq: Seq) -> str:
    n, stones = _placed(seq)
    body = " ".join(f"{p}:{v:+d}" for p, v in stones)
    return f"[{n}| {body}]"


def necklace_to_json_obj(seq: Seq) -> dict:
    n, stones = _placed(seq)
    return {"schema": 1, "n": n, "stones": [[p, v] for p, v in stones]}


def dot_transition_graph(k: int, n: int) -> str:
    """The step transformation on classes in DOT format."""
    lines = [f'digraph "neck_{k}_{n}" {{']
    for src, dst in transitions(k, n):
        lines.append(f'  "{format_necklace(src)}" -> "{format_necklace(dst)}";')
    lines.append("}")
    return "\n".join(lines)
