"""Shared test utilities.

naive_witten is the ground-truth oracle: it enumerates every vertex subset,
keeps the independent ones and adds (-1)^size.  It is exponential, so callers
keep graphs at or below ~16 vertices.  random_graph (re-exported from
hardsquares.graphs) produces seeded Erdos-Renyi-style graphs, optionally
with loops, for property sweeps.  transfer_oracle and torus_oracle are the
plain row transfer over every ring state with a quadratic compatibility
table, kept as a differential oracle for the orbit and cell-by-cell
kernels; they walk every row, so they are also the oracles for the half
walks that read tori, free grids and unmasked cylinder columns from two
half-height transfer vectors.  orbits_oracle is the dihedral orbit scan
of the ring states with the Counter scan of the orbit matrix B over every
state, stored dense, kept as a differential oracle for the bit-set count
of the graphs module.  The necklace oracles work on (vector, gap)
sequences and on a placed form of their own, Placed (circle length and
sorted (position, vector) stones): place puts a sequence on the circle
from a given start, and stone_sequence reads the sequence back from the
lowest stone.  word_of and pairs_of turn a sequence into the necklaces
module's block word and back, so tests keep readable literals.
necklace_oracle and transitions_oracle are the deduplicating necklace
enumerator over every sequence and the step on placed stones
(step_oracle, canonical_oracle), and pattern_of_necklace_oracle writes
the pattern cell by cell from the placed stones; they are kept as a
differential oracle for the block-word kernel and for the positions the
output prints (format_placed).  sequence_transform, sequence_mirror,
sequence_canonicalize and canonical_sequences are the earlier kernel on
sequences (the step element by element, orderly generation pruned on away
elements only), kept as a differential oracle for the block tables and
the whole-block pruning.  rotate_rows turns a pattern to a placed
arrangement's first stone, and first_block_end finds the column at
which necklace_of_pattern starts reading, so the round trip is checked
exactly.  proper_oracle decides properness by scanning the rows
for runs, and enumerate_proper_oracle tries every row-2 mask with all 2^L
rows above each long block; both are kept as a differential oracle for the
column-word grammar of the patterns module.  divrem_oracle and
series_expand_oracle are polynomial division and power-series expansion
over Fraction with the integrality checked at the end, and
fit_recurrence_oracle is Berlekamp-Massey over Fraction, all kept as a
differential oracle for the integer arithmetic of the polynomials module.
peel_oracle and initial_patterns_oracle give each column's letter of peel
and initial_patterns from its neighbours, and pseudo_rem_oracle is the
pseudo-remainder loop written out in place, kept as a differential oracle
for the shared wipe helper and for the pseudo-remainder by divrem.
adjacency reads a graph's neighbour sets from its vertices and edges
alone, so the graph oracles built on it share no query with the masks they
check.  witten_brute_oracle and
components_oracle are the deletion recursion and the component search on
frozensets of vertex ids; with leaf=False the recursion has no leaf step,
a value oracle for the step itself.  first_step_oracle is simplify's step
choice with the fold test over every (u, v) pair and the square search,
kept as a differential oracle for the vertex-mask recursion of the graphs
module and the neighbourhood-local fold search, and simplify_oracle is the
simplify loop that rescans the whole graph at every pass, kept as a
differential oracle for the vertices simplify carries between passes.
square_candidates_oracle and configuration_oracle are the square search
over sorted edges and detect_configuration on sets, kept as a differential
oracle for the mask forms of the reduction module.  scattered_graphs draws
small graphs with scattered non-negative ids, loops, isolated vertices and
several components.  IDENTITIES_ORACLE is the
identity table as a shift function and a validity predicate per identity,
and identity_checks_oracle is the identity sweep over it with one
witten_transfer per side of every instance, kept as a differential oracle
for the data rows of the identity table and the sweep's one column per
circumference.  labelled_grid_oracle builds a grid from its labelled row
and column factors, kept as a differential oracle for the row-major ids
of build_grid and grid_vertex.  cyclotomic_oracle is Phi_d by recursive
division, kept as a differential oracle for the prime-step builder.
z_pattern is one entry z(P, m) of z_pattern_series, the pointwise form
in which the tests state the pattern identities; src reads whole series.
parse_pattern reads the two-row text that str(Pattern) prints
("101000 / 111101"), the one reader of that form; pattern_of_rows builds
the column word of two 0/1 rows, refusing unequal rows and a 1 above a 0,
and rows_of gives the rows back for the row-scanning oracles.  is_valid is
the validity oracle of a (vector, gap) sequence (alternating directions
and the gap parity rules).  No src code needs any of these.  load_reduced_forms and
load_golden_cycles parse the reference data files shared by the feature
tests and the acceptance module.  EXTENDED (HARDSQUARES_EXTENDED=1) turns
on the slow sweeps.
"""

from __future__ import annotations

import os
from collections import Counter
from functools import lru_cache
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from pathlib import Path
from typing import NamedTuple

from hardsquares.errors import FitInconclusiveError
from hardsquares.graphs import (  # noqa: F401  (random_graph is re-exported)
    Graph,
    GridSpec,
    random_graph,
    witten_transfer,
)
from hardsquares.necklaces import _GAP_BITS
from hardsquares.patterns import Pattern, canonicalize, is_reducible, z_pattern_series
from hardsquares.polynomials import IntPoly, RationalGF, series_expand
from hardsquares.reduction import (
    CONTRACTIBLE,
    REDUCED,
    RULES,
    ReductionState,
    Verdict,
    _first_step,
    drop_loops,
)
from hypothesis import strategies as st

DATA = Path(__file__).parent / "data"

EXTENDED = os.environ.get("HARDSQUARES_EXTENDED") == "1"


def adjacency(g: Graph) -> dict:
    """{vertex: frozenset of its neighbours}, read from g.vertices and
    g.edges only; a looped vertex neighbours itself."""
    adj = {v: set() for v in g.vertices}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return {v: frozenset(nbrs) for v, nbrs in adj.items()}


def naive_witten(g: Graph) -> int:
    total, adj = 0, adjacency(g)
    verts = sorted(adj)
    for r in range(len(verts) + 1):
        for sub in combinations(verts, r):
            chosen = set(sub)
            if all(not (adj[v] & chosen) for v in sub):
                total += (-1) ** r
    return total


@lru_cache(maxsize=None)
def ring_table(n, cyclic):
    """Independent row masks, their signs and the quadratic compat table."""
    states = [s for s in range(1 << n)
              if not s & ((s << 1) | (s >> (n - 1) if cyclic and n else 0))]
    sign = {s: (-1) ** bin(s).count("1") for s in states}
    return states, sign, {s: [t for t in states if not s & t] for s in states}


def orbits_oracle(n):
    """(reps, sizes, weights, orbit_of, matrix) of the ring C_n by plain
    scans: every independent state in increasing order opens an orbit
    unless a rotation of it or of its mirror word came first, and row a of B
    counts, with a Counter over every state, the states of each orbit that
    rep_a leaves free, times w_a = (-1)^|rep_a|, stored dense."""
    states = [s for s in range(1 << n)
              if not s & ((s << 1) | (s >> (n - 1) if n else 0))]
    orbit_of, reps, sizes = {}, [], []
    for s in states:
        if s not in orbit_of:
            word = format(s, f"0{n}b") if n else ""
            images = {int(w[i:] + w[:i] or "0", 2)
                      for w in (word, word[::-1]) for i in range(max(n, 1))}
            orbit_of.update(dict.fromkeys(images, len(reps)))
            reps.append(s)
            sizes.append(len(images))
    weights = tuple((-1) ** bin(r).count("1") for r in reps)
    matrix = []
    for r, w in zip(reps, weights):
        counts = Counter(orbit_of[t] for t in states if not t & r)
        matrix.append(tuple(w * counts[b] for b in range(len(reps))))
    return tuple(reps), tuple(sizes), weights, orbit_of, tuple(matrix)


def _stack(table, vec, mask=-1):
    """One more row, restricted to mask, on {top row: signed count}."""
    states, sign, compat = table
    return {s: sign[s] * sum(vec.get(t, 0) for t in compat[s])
            for s in states if not s & ~mask}


def transfer_oracle(n, masks, cyclic=True):
    """[Z of the first k rows for k = 0..len(masks)]: rings (paths unless
    cyclic) of width n stacked in a path, row i restricted to masks[i]."""
    table, vec, out = ring_table(n, cyclic), {0: 1}, [1]
    for mask in masks:
        vec = _stack(table, vec, mask)
        out.append(sum(vec.values()))
    return out


def torus_oracle(n, mmax):
    """[trace of the m-th transfer power for m = 0..mmax] on the ring C_n;
    entry m is Z(C_m x C_n) once m, n >= 2."""
    table = ring_table(n, True)
    out = [len(table[0])] + [0] * mmax
    for start in table[0]:
        vec = {start: 1}
        for m in range(1, mmax + 1):
            vec = _stack(table, vec)
            out[m] += vec[start]
    return out


_TURN = {-2: 1, -1: 2, 1: -2, 2: -1}


class Placed(NamedTuple):
    """An arrangement with positions: the circle length n and the
    (position, vector) stones, sorted by position."""

    n: int
    stones: tuple


def place(seq, start=0):
    """The (vector, gap) sequence seq with its first stone at start and each
    next one a gap further clockwise."""
    n, pos, stones = sum(gap for _, gap in seq), start, []
    for v, gap in seq:
        stones.append((pos % n, v))
        pos += gap
    return Placed(n, tuple(sorted(stones)))


def stone_sequence(neck):
    """The (vector, gap to the next stone) pairs, from the lowest stone."""
    stones, n = neck.stones, neck.n
    return tuple((v, (stones[(i + 1) % len(stones)][0] - p) % n)
                 for i, (p, v) in enumerate(stones))


def _least_symmetry(seq):
    """Least rotation or reflection of a (vector, gap) sequence, all offsets."""
    size = len(seq)
    mirror = tuple((-seq[(size - j) % size][0], seq[size - 1 - j][1])
                   for j in range(size))
    return min(d[s:s + size] for d in (seq + seq, mirror + mirror)
               for s in range(size))


def canonical_oracle(neck):
    """The class of a placed arrangement, as the least symmetry of its
    stones' sequence, placed from 0."""
    return place(_least_symmetry(stone_sequence(neck)))


def is_valid(seq):
    """The alternating-direction and gap-parity conditions on a sequence."""
    for (v, gap), (w, _) in zip(seq, seq[1:] + seq[:1]):
        if v < 0:  # facing away (next stone's vector points onward): odd gap
            ok = w > 0 and gap % 2 == 1
        else:  # facing towards: gap plus lengths odd, >= 3, unit lengths at 3
            ok = (w < 0 and (gap + v - w) % 2 == 1
                  and (gap > 3 or gap == 3 and v == -w == 1))
        if not ok:
            return False
    return True


def step_oracle(neck):
    """T on placed stones: jump, turn, shrink facing pairs at distance 3."""
    n = neck.n
    jumped = sorted(((p + v) % n, _TURN[v]) for p, v in neck.stones)
    vecs = dict(jumped)
    for i, (p, v) in enumerate(jumped):
        q, w = jumped[(i + 1) % len(jumped)]
        if v > 0 and w < 0 and (q - p) % n == 3:
            vecs[p], vecs[q] = 1, -1
    return Placed(n, tuple(vecs.items()))


def necklace_oracle(k, n):
    """The (k, n) classes by brute force: every sequence of k (facing, away)
    pairs, deduplicated by its least symmetry, placed from 0."""
    found = set()

    def extend(pairs_left, used, seq):
        if pairs_left == 0:
            if used == n:
                found.add(_least_symmetry(tuple(seq)))
            return
        floor_rest = 4 * (pairs_left - 1)
        for inward in (1, 2):
            for outward in (1, 2):
                t_lo = 3 if inward == outward == 1 else 5 if inward == outward else 4
                for t_gap in range(t_lo, n - used - floor_rest, 2):
                    for a_gap in range(1, n - used - t_gap - floor_rest + 1, 2):
                        extend(pairs_left - 1, used + t_gap + a_gap,
                               seq + [(inward, t_gap), (-outward, a_gap)])

    extend(k, 0, [])
    return sorted(place(s) for s in found)


def transitions_oracle(k, n):
    return [(neck, canonical_oracle(step_oracle(neck)))
            for neck in necklace_oracle(k, n)]


def word_of(seq):
    """The block word of a (vector, gap) sequence, read from its first away
    element: per (away, facing) pair one int with the fields 2 + v (the away
    vector v), the away gap, i - 1 (the facing vector i) and the facing
    gap, high to low, each gap _GAP_BITS wide."""
    if seq[0][0] > 0:
        seq = seq[1:] + seq[:1]
    return tuple(((2 + v) << (2 * _GAP_BITS + 1)) | (a << (_GAP_BITS + 1))
                 | ((i - 1) << _GAP_BITS) | f
                 for (v, a), (i, f) in zip(seq[::2], seq[1::2]))


def pairs_of(word):
    """The (vector, gap) sequence of a block word, from its first stone."""
    mask = (1 << _GAP_BITS) - 1
    out = []
    for b in word:
        out += [((b >> (2 * _GAP_BITS + 1)) - 2, (b >> (_GAP_BITS + 1)) & mask),
                (((b >> _GAP_BITS) & 1) + 1, b & mask)]
    return tuple(out)


def sequence_transform(seq):
    """T on a (vector, gap) sequence: element i of the result is stone i's
    image, gap_i - v_i + v_{i+1}, then facing pairs at distance 3 get unit
    vectors."""
    vecs = [_TURN[v] for v, _ in seq]
    gaps = [gap - v + w for (v, gap), (w, _) in zip(seq, seq[1:] + seq[:1])]
    for i, gap in enumerate(gaps):
        if vecs[i] > 0 and gap == 3:
            vecs[i], vecs[(i + 1) % len(vecs)] = 1, -1
    return tuple(zip(vecs, gaps))


def sequence_mirror(seq):
    """The reflection: the stones reversed, their vectors negated, each
    stone with the gap before it."""
    rev = seq[::-1]
    return tuple((-v, gap) for (v, _), (_, gap) in zip(rev, rev[1:] + rev[:1]))


def sequence_canonicalize(seq):
    """The least rotation or reflection over the offsets of the away
    elements."""
    if seq[0][0] > 0:
        seq = seq[1:] + seq[:1]
    length = len(seq)
    return min([d[i:i + length] for d in (seq + seq, sequence_mirror(seq) * 2)
                for i in range(0, length, 2)])


def _sequence_is_canonical(cand):
    """cand == sequence_canonicalize(cand), for an away-started cand none of
    whose away elements is below cand[0]."""
    first, length = cand[0], len(cand)
    for i in range(2, length, 2):
        if cand[i] == first and cand[i:] + cand[:i] < cand:
            return False
    mirror = sequence_mirror(cand)
    for i in range(0, length, 2):
        if mirror[i] <= first and mirror[i:] + mirror[:i] < cand:
            return False
    return True


def canonical_sequences(k, n):
    """The (k, n) classes as canonical sequences, by orderly generation one
    (facing, away) pair at a time, pruned on away elements only."""
    out, seq = [], []

    def extend(pairs_left, used):
        floor_rest = 4 * (pairs_left - 1)
        for inward in (1, 2):
            if seq and (-inward, seq[-1][1]) < seq[1]:
                continue
            for outward in (1, 2):
                t_lo = 3 if inward == outward == 1 else 5 if inward == outward else 4
                for t_gap in range(t_lo, n - used - floor_rest, 2):
                    room = n - used - t_gap - floor_rest
                    if pairs_left > 1:
                        a_gaps = range(1, room + 1, 2)
                    else:
                        a_gaps = (room,) if room % 2 else ()
                    for a_gap in a_gaps:
                        if seq and (-outward, a_gap) < seq[1]:
                            continue
                        seq.extend(((inward, t_gap), (-outward, a_gap)))
                        if pairs_left > 1:
                            extend(pairs_left - 1, used + t_gap + a_gap)
                        else:
                            cand = tuple(seq[1:] + seq[:1])
                            if _sequence_is_canonical(cand):
                                out.append(cand)
                        del seq[-2:]

    if 4 * k <= n:
        extend(k, 0)
    return out


def format_placed(neck):
    """The text line of a placed arrangement, written from its stones."""
    return f"[{neck.n}| " + " ".join(f"{p}:{v:+d}" for p, v in neck.stones) + "]"


def pattern_of_necklace_oracle(neck):
    """Blocks across facing gaps, alternating strips across away gaps,
    written letter by letter from each placed stone."""
    n, stones = neck.n, neck.stones
    cols = ["a"] * n
    for i, (p, v) in enumerate(stones):
        q, w = stones[(i + 1) % len(stones)]
        gap = (q - p) % n
        if v > 0:  # facing pair: a block of length gap starting at p
            for c in range(gap):
                cols[(p + c) % n] = "b"
            if gap > 3:
                for off in range(v, gap - abs(w), 2):
                    cols[(p + off) % n] = "c"
        else:  # away pair: abab...a across the gap
            for off in range(1, gap - 1, 2):
                cols[(p + off) % n] = "b"
    return Pattern("".join(cols))


def rotate_rows(p, start):
    """p with both rows turned clockwise by start columns: column 0 moves to
    column start."""
    cut = -start % p.n
    return Pattern(p[cut:] + p[:cut])


def first_block_end(row):
    """The column just past the first run of at least three ones, read from
    just after the first 0."""
    n, cut = len(row), row.index(0) + 1
    start = next(j for j in range(cut, cut + n)
                 if not row[(j - 1) % n] and row[j % n] and row[(j + 1) % n]
                 and row[(j + 2) % n])
    return next(j for j in range(start, start + n) if not row[j % n]) % n


def z_pattern(p, m):
    """Witten index of the masked cylinder with m rows (m >= 2)."""
    if m < 2:
        raise ValueError("z_pattern needs m >= 2")
    return z_pattern_series(p, m)[m]


def parse_pattern(text):
    """Parse the two-row text form that str(Pattern) prints, e.g.
    ``"101000 / 111101"``."""
    parts = text.replace("/", " ").split()
    if len(parts) != 2:
        raise ValueError(f"expected 'ROW1 / ROW2', got {text!r}")
    if set("".join(parts)) - {"0", "1"}:
        raise ValueError("pattern entries must be 0 or 1")
    return pattern_of_rows(*(tuple(map(int, part)) for part in parts))


def pattern_of_rows(row1, row2):
    """The pattern of two 0/1 rows: column i is row1[i] over row2[i]."""
    if len(row1) != len(row2):
        raise ValueError("rows differ in length")
    for i, (top, bottom) in enumerate(zip(row1, row2)):
        if top > bottom:
            raise ValueError(f"column {i} has a 1 above a 0")
    return Pattern("".join("abc"[top + bottom] for top, bottom in zip(row1, row2)))


def rows_of(p):
    """p's two rows as 0/1 tuples, column i at index i."""
    return tuple(int(x == "c") for x in p), tuple(int(x != "a") for x in p)


def _cyclic_groups(row):
    """Maximal cyclic 1-groups as (start, length); None for the all-ones row."""
    if all(row):
        return None
    n, anchor = len(row), row.index(0)
    groups, start = [], None
    for j in range(anchor + 1, anchor + n + 1):
        if row[j % n]:
            if start is None:
                start = j
        elif start is not None:
            groups.append((start % n, j - start))
            start = None
    return groups


def _is_cyclic_run(row, nice=False):
    """Singletons and blocks (length >= 3, exactly 3 when nice) separated by
    single zeros, cyclically; the all-zero and all-one rows are not runs."""
    groups = _cyclic_groups(row)
    if not groups:
        return False
    if any(l == 2 or (nice and l not in (1, 3)) for _, l in groups):
        return False
    return all((s2 - s - l) % len(row) == 1
               for (s, l), (s2, _) in zip(groups, groups[1:] + groups[:1]))


def _is_aligned_nice_run(seg):
    """A nonempty nice run above a long row-2 block: groups 1 or 3 one zero
    apart, a leading singleton at offset 1 or 2 and a leading 3-block at 2,
    mirrored on the right."""
    groups = _cyclic_groups(tuple(seg) + (0,))
    if not groups or any(l not in (1, 3) for _, l in groups):
        return False
    if any(s2 - s - l != 1 for (s, l), (s2, _) in zip(groups, groups[1:])):
        return False
    (s0, l0), (s1, l1) = groups[0], groups[-1]
    tail = len(seg) - s1 - l1
    return s0 in ((1, 2) if l0 == 1 else (2,)) and tail in ((1, 2) if l1 == 1 else (2,))


def proper_oracle(p):
    """Block count of p by row scanning, or None when p is not proper."""
    row1, row2 = rows_of(p)
    groups2 = _cyclic_groups(row2)
    if groups2 is None:
        ok = _is_cyclic_run(row1, nice=True)
    else:
        ok = _is_cyclic_run(row2) and all(
            not any(seg) if l in (1, 3) else _is_aligned_nice_run(seg)
            for s, l in groups2
            for seg in [[row1[(s + j) % p.n] for j in range(l)]])
    if not ok:
        return None
    return sum(l >= 3 for row in (row1, row2)
               for _, l in _cyclic_groups(row) or ())


def enumerate_proper_oracle(n):
    """Proper classes of length n from every row-2 mask and all 2^L rows
    above each long block, deduplicated by canonicalize."""
    seen = {canonicalize(pattern_of_rows(bits, (1,) * n))
            for bits in product((0, 1), repeat=n) if _is_cyclic_run(bits, nice=True)}
    for row2 in product((0, 1), repeat=n):
        if not _is_cyclic_run(row2):
            continue
        blocks = [(s, l) for s, l in _cyclic_groups(row2) if l >= 4]
        choices = [[seg for seg in product((0, 1), repeat=l) if _is_aligned_nice_run(seg)]
                   for _, l in blocks]
        for combo in product(*choices):
            row1 = [0] * n
            for (s, l), seg in zip(blocks, combo):
                for j, b in enumerate(seg):
                    row1[(s + j) % n] = b
            seen.add(canonicalize(pattern_of_rows(row1, row2)))
    return sorted(seen)


def divrem_oracle(p, div):
    """(quotient, remainder) of p by div over the rationals; ValueError
    unless both are integral."""
    if div.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in p.coeffs]
    qlen = len(p.coeffs) - len(div.coeffs) + 1
    if qlen <= 0:
        return IntPoly(), p
    quo = [Fraction(0)] * qlen
    for k in range(qlen - 1, -1, -1):
        q = rem[k + div.degree] / div.leading
        quo[k] = q
        for i, b in enumerate(div.coeffs):
            rem[i + k] -= q * b
    if any(f.denominator != 1 for f in quo + rem):
        raise ValueError("non-integral polynomial division result")
    return IntPoly(int(f) for f in quo), IntPoly(int(f) for f in rem)


def series_expand_oracle(gf, upto):
    """[t^0] .. [t^upto] of gf over the rationals; ValueError at the first
    coefficient that is not an integer."""
    vals = []
    for m in range(upto + 1):
        acc = Fraction(gf.num.coefficient(m))
        for j in range(1, min(m, gf.den.degree) + 1):
            acc -= gf.den.coefficient(j) * vals[m - j]
        val = acc / gf.den.coefficient(0)
        if val.denominator != 1:
            raise ValueError(f"series coefficient at t^{m} is not an integer")
        vals.append(val)
    return [int(v) for v in vals]


def fit_recurrence_oracle(seq):
    """fit_recurrence with Berlekamp-Massey over Fraction: the connection
    polynomial keeps C_0 = 1 and each update divides by the previous
    discrepancy."""
    seq = list(seq)
    if not all(isinstance(x, int) for x in seq):
        raise TypeError("fit_recurrence needs a sequence of int")
    if not seq:
        raise FitInconclusiveError("empty sequence")
    values = [Fraction(x) for x in seq]
    conn = [Fraction(1)]
    prev = [Fraction(1)]
    order = 0
    gap = 1
    prev_disc = Fraction(1)
    for i, s in enumerate(values):
        disc = s
        for j in range(1, order + 1):
            disc += conn[j] * values[i - j]
        if disc == 0:
            gap += 1
            continue
        scale = disc / prev_disc
        update = conn[:]
        need = len(prev) + gap
        if need > len(update):
            update.extend([Fraction(0)] * (need - len(update)))
        for j, c in enumerate(prev):
            update[j + gap] -= scale * c
        if 2 * order <= i:
            conn, prev = update, conn
            order, prev_disc, gap = i + 1 - order, disc, 1
        else:
            conn, gap = update, gap + 1
    if len(seq) < 2 * order + 4:
        raise FitInconclusiveError(
            f"recurrence of order {order} needs at least {2 * order + 4} terms, got {len(seq)}"
        )
    denom_lcm = lcm(*(c.denominator for c in conn))
    den = IntPoly(int(c * denom_lcm) for c in conn)
    num = IntPoly(
        sum(den.coefficient(j) * seq[i - j] for j in range(0, min(i, den.degree) + 1))
        for i in range(order if order > 0 else 1)
    )
    result = RationalGF(num, den)
    if series_expand(result, len(seq) - 1) != seq:
        raise FitInconclusiveError("fitted recurrence fails to reproduce the input")
    return result


def peel_oracle(p):
    """(peeled pattern, sign) of a reducible pattern, each row-1 one wiping
    the old row 2 at i-1, i, i+1 and the fresh row at i, written column by
    column: column j keeps its row-2 one on top unless a c stands within
    one column, and has a bottom one unless it is a c itself."""
    assert is_reducible(p)
    n = p.n
    cols = []
    for j in range(n):
        top = p[j] != "a" and "c" not in (p[j - 1], p[j], p[(j + 1) % n])
        bottom = p[j] != "c"
        cols.append("abc"[top + bottom])
    return Pattern("".join(cols)), (-1) ** p.count("c")


def initial_patterns_oracle(n):
    """{class: nonzero coefficient} of the delete_top / neighbourhood
    expansion of the all-ones pattern at every even column, written column
    by column: an even column is b after delete_top and a after the
    neighbourhood deletion, and an odd one is b beside a neighbourhood
    deletion, else c."""
    combo = {}
    for picks in product("VN", repeat=n // 2):
        op = dict(zip(range(0, n, 2), picks))
        cols = ["ba"[op[j] == "N"] if j % 2 == 0
                else "b" if "N" in (op[j - 1], op[(j + 1) % n]) else "c"
                for j in range(n)]
        cls = canonicalize(Pattern("".join(cols)))
        combo[cls] = combo.get(cls, 0) + (-1) ** picks.count("N")
    return {cls: c for cls, c in combo.items() if c != 0}


def pseudo_rem_oracle(a, b):
    """Pseudo-remainder of a by b: scale by lead(b), cancel the top term,
    deg a - deg b + 1 times."""
    d = a.degree - b.degree
    if d < 0:
        return a
    lead = b.leading
    rem = list(a.coeffs)
    for k in range(d, -1, -1):
        top = rem[b.degree + k]
        rem = [lead * c for c in rem]
        for i, bc in enumerate(b.coeffs):
            rem[i + k] -= top * bc
    return IntPoly(rem)


def components_oracle(g, active):
    """Components of g's subgraph on the vertex set active, in search order."""
    comps, seen, adj = [], set(), adjacency(g)
    for start in active:
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            for y in adj[stack.pop()] & active:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def witten_brute_oracle(g, visit=None, leaf=True):
    """Z(g) by the deletion recursion on frozensets: drop looped vertices,
    0 on an isolated vertex, then (with leaf) -Z(g - N[v]) for the lowest
    degree-1 vertex and its neighbour v, else multiply components, else
    pivot on a maximum-degree vertex, the lowest id among ties.
    visit(active) sees every unmemoized active set that reaches the
    component search, in order.  leaf=False is the recursion without the
    leaf step."""
    memo, adj = {}, adjacency(g)

    def solve(active):
        if not active:
            return 1
        if active in memo:
            return memo[active]
        degs = {v: len(adj[v] & active) for v in active}
        if 0 in degs.values():
            memo[active] = 0
            return 0
        leaves = [v for v in active if degs[v] == 1]
        if leaf and leaves:
            (v,) = adj[min(leaves)] & active
            result = -solve(active - adj[v] - {v})
            memo[active] = result
            return result
        if visit is not None:
            visit(active)
        comps = sorted(components_oracle(g, active), key=min)
        if len(comps) > 1:
            result = 1
            for comp in comps:
                result *= solve(comp)
                if result == 0:
                    break
        else:
            pivot = max(active, key=lambda v: (degs[v], -v))
            closed = (adj[pivot] & active) | {pivot}
            result = solve(active - {pivot}) - solve(active - closed)
        memo[active] = result
        return result

    return solve(frozenset(v for v in adj if v not in adj[v]))


def square_candidates_oracle(g):
    """[(u, v, x, y)] for every edge u < v, in sorted edge order, whose ends
    are loop-free of degree 2 and whose other neighbours y of u and x of v
    are distinct, loop-free and adjacent."""
    adj, out = adjacency(g), []
    looped = {v for v in adj if v in adj[v]}
    for u, v in sorted(g.edges):
        if u == v or len(adj[u]) != 2 or len(adj[v]) != 2 or {u, v} & looped:
            continue
        (y,) = adj[u] - {v}
        (x,) = adj[v] - {u}
        if x != y and not {x, y} & looped and y in adj[x]:
            out.append((u, v, x, y))
    return out


def configuration_oracle(g):
    """detect_configuration on sets: the first pendant (u, v), lowest u, and
    then the first square whose deletion (N[v], or the four vertices)
    leaves a loop-free vertex w with every surviving neighbour looped, as
    (kind, rule, witnesses, w); a degree-1 w first, then the lowest."""
    adj = adjacency(g)
    looped = {v for v in adj if v in adj[v]}
    pendants = [(u, *adj[u]) for u in sorted(adj)
                if u not in looped and len(adj[u]) == 1 and not adj[u] & looped]
    for rule, kinds, found in (("pendant", "AB", pendants),
                               ("square", "CD", square_candidates_oracle(g))):
        for witnesses in found:
            gone = adj[witnesses[1]] | {witnesses[1]} if rule == "pendant" else set(witnesses)
            rest = set(adj) - gone
            ws = sorted(w for w in rest - looped if adj[w] & rest <= looped)
            if ws:
                w = min(ws, key=lambda w: (len(adj[w]) != 1, w))
                return kinds[len(adj[w]) != 1], rule, witnesses, w
    return None


def first_step_oracle(g):
    """(rule, vertices) of simplify's next step on a loop-free graph: an
    isolated vertex, else the first fold (u, v) over all pairs, else the
    lowest pendant, else the lowest square edge; None when nothing applies."""
    adj = adjacency(g)
    verts = sorted(adj)
    for w in verts:
        if not adj[w]:
            return "isolated", (w,)
    for u in verts:
        for v in verts:
            if v != u and adj[u] <= adj[v]:
                return "fold", (u, v)
    for u in verts:
        if len(adj[u]) == 1:
            return "pendant", (u, *adj[u])
    squares = square_candidates_oracle(g)
    return ("square", squares[0]) if squares else None


def simplify_oracle(g):
    """simplify with a full rescan by _first_step at every pass: the same
    rule order, no vertex carried between passes."""
    state = drop_loops(ReductionState.initial(g))
    while True:
        step = _first_step(state.graph)
        if step is None:
            return Verdict(REDUCED, state)
        state = RULES[step.rule](state, *step.vertices)
        if step.rule == "isolated":
            return Verdict(CONTRACTIBLE, state)


@st.composite
def scattered_graphs(draw):
    """Up to 14 vertices with scattered ids in 0..60, loops, isolated
    vertices and several components."""
    ids = draw(st.lists(st.integers(0, 60), unique=True, max_size=14))
    edges = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                          max_size=30)) if ids else []
    return Graph(ids, edges)


# name -> (family, lhs(m, n) -> rhs instance, sign, validity predicate).
# Each entry encodes Z(family, m, n) == sign * Z(family, m', n') on its range.
IDENTITIES_ORACLE = {
    "one_row_cylinder_shift3": (
        "cylinder", lambda m, n: (m, n - 3), -1, lambda m, n: m == 1 and n >= 4),
    "two_row_cylinder_shift4": (
        "cylinder", lambda m, n: (m, n - 4), 1, lambda m, n: m == 2 and n >= 5),
    "three_row_cylinder_shift8": (
        "cylinder", lambda m, n: (m, n - 8), 1, lambda m, n: m == 3 and n >= 9),
    "circumference3_shift3": (
        "cylinder", lambda m, n: (m - 3, n), 1, lambda m, n: n == 3 and m >= 3),
    "circumference5_shift2": (
        "cylinder", lambda m, n: (m - 2, n), 1, lambda m, n: n == 5 and m >= 2),
    "circumference7_shift4": (
        "cylinder", lambda m, n: (m - 4, n), 1, lambda m, n: n == 7 and m >= 4),
    "one_row_free_shift3": (
        "free", lambda m, n: (m, n - 3), -1, lambda m, n: m == 1 and n >= 3),
    "two_row_free_shift2": (
        "free", lambda m, n: (m, n - 2), -1, lambda m, n: m == 2 and n >= 2),
    "three_row_free_shift4": (
        "free", lambda m, n: (m, n - 4), -1, lambda m, n: m == 3 and n >= 4),
    "torus3_shift3": (
        "torus", lambda m, n: (m, n - 3), 1, lambda m, n: m == 3 and n >= 4),
}


def identity_instances_oracle(m_max, n_max):
    """(identity, m, n) for every (m, n) in range that its predicate accepts."""
    return [(name, m, n) for name, (_, _, _, in_range) in IDENTITIES_ORACLE.items()
            for m in range(0, m_max + 1) for n in range(0, n_max + 1) if in_range(m, n)]


def identity_checks_oracle(m_max, n_max):
    """(identity, family, m, n, lhs, rhs) of every in-range identity
    instance, each side by its own witten_transfer."""
    checks = []
    for name, m, n in identity_instances_oracle(m_max, n_max):
        family, shift, sign, _ = IDENTITIES_ORACLE[name]
        lhs = witten_transfer(GridSpec(family, m, n))
        rhs = sign * witten_transfer(GridSpec(family, *shift(m, n)))
        checks.append((name, family, m, n, lhs, rhs))
    return checks


def labelled_grid_oracle(spec):
    """(vertices, edges, labels) of the grid built from labelled factors:
    rows 1..m of a path or 0..m-1 of a cycle, columns 1..n (free) or
    0..n-1 (cyclic), ids numbered by (row index, column index), and
    labels[id] = (row, col)."""
    def path(k):
        keys = list(range(1, k + 1))
        return keys, [(keys[i], keys[i + 1]) for i in range(k - 1)]

    def cycle(k):  # C_2 = P_2, C_1 = looped vertex, C_0 = empty graph
        if k <= 1:
            return list(range(k)), [(0, 0)] * k
        keys = list(range(k))
        return keys, [(0, 1)] if k == 2 else [(i, (i + 1) % k) for i in range(k)]

    rows, row_edges = cycle(spec.m) if spec.family == "torus" else path(spec.m)
    cols, col_edges = path(spec.n) if spec.family == "free" else cycle(spec.n)
    vid = {(a, b): i * len(cols) + j for i, a in enumerate(rows) for j, b in enumerate(cols)}
    edges = [(vid[a, b], vid[a2, b]) for a, a2 in row_edges for b in cols]
    edges += [(vid[a, b], vid[a, b2]) for b, b2 in col_edges for a in rows]
    return sorted(vid.values()), edges, {v: lab for lab, v in vid.items()}


@lru_cache(maxsize=None)
def cyclotomic_oracle(d):
    """Phi_d by exact division of t^d - 1 by every Phi_e with e | d, e < d."""
    p = IntPoly([-1] + [0] * (d - 1) + [1])
    for e in range(1, d):
        if d % e == 0:
            p = p.exact_div(cyclotomic_oracle(e))
    return p


def load_reduced_forms():
    """Reference reduced series by circumference: n -> (numerator, factors)."""
    table = {}
    for line in (DATA / "table2.txt").read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        n_part, num_part, den_part = line.split(";")
        num = IntPoly(int(c) for c in num_part.split(","))
        factors = {}
        for item in den_part.split(","):
            order, mult = item.split(":")
            factors[int(order)] = int(mult)
        table[int(n_part)] = (num, factors)
    return table


def load_golden_cycles():
    """Reference cycle structures: (n, k) -> formatted structure string."""
    table = {}
    for line in (DATA / "table3.txt").read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, structure = line.split(";")
        n, k = map(int, head.split())
        table[(n, k)] = structure.strip()
    return table
