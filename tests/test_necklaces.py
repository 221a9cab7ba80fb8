"""Stone-arrangement tests.

The kernel's arrangement is its block word; tests/helpers turns one into
its (vector, gap) sequence and back (pairs_of, word_of) for readable
literals, and places a sequence (place, stone_sequence) to compare it with
the positioned oracles.

Claims covered:
- is_valid, the validity oracle of tests/helpers, enforces alternation and
  the gap parity rules.
- the step transformation keeps every class valid, and stepping a
  one-pair arrangement walks the frozen orbit
  (widest gap -> gap 3 -> shrinking long vectors).
- every step-table entry of a word with n <= 30 gives the step on placed
  stones, and the distance-3 fix fires exactly at A = o = i = 1, where it
  turns the switched vectors (2, -2) into (1, -1).
- canonicalize maps rotated and reflected arrangements to one canonical
  word, which stands for the class, and the step commutes with both: on
  random valid words (odd n included), the class of T of any rotation or
  reflection is the class of T.
- enumeration is empty exactly when 4k > n, rejects k < 1 and a circle
  wider than a block's gap field holds (before any generation), and its
  classes are all valid.  Size bounds belong to the command line
  (test_cli).
- the block-word kernel agrees with the sequence kernel of tests/helpers:
  the same classes in the same sorted order, the same step, mirror and
  successor index, for every k and every n <= 24 (odd n included).
- the block-word kernel agrees with the deduplicating enumerator and the
  step on placed stones: the same classes and transitions for every k and
  every n <= 24 (odd n included), printed and exported with the same
  positions, and the same step, image position and class on random valid
  arrangements at a random offset.
- the generator's early-exit leaf test agrees with the canonical form and
  with the sequence kernel's on every candidate it reaches for n <= 20,
  and pattern_of_necklace, turned to the first stone's column, with the
  cell-by-cell builder on random valid arrangements, whose patterns
  necklace_of_pattern reads back exactly: the word from the right stone of
  the first block, placed at that stone's column.
- cycle structures match the golden table for every cell up to the command
  line's circle bound, n <= 28 (the full file through n = 36 with
  HARDSQUARES_EXTENDED=1), and the closed forms:
  one pair gives one (n-3)-cycle, 2k stones on 4k intervals give one fixed
  point, and on 4k+2 intervals one (k+2)-cycle plus floor(k/2) fixed points.
- every cycle length divides n - 3k for even n <= 24, and n - 3k steps
  take every class with n <= 24 to a rotation of its word.
- at even n the ring C_n has two more dihedral orbits of independent
  states than there are classes over all k: Burnside's count of the
  orbits equals the ring's orbit count for n <= 20, and the classes plus
  two for n <= 28 (n <= 36 with HARDSQUARES_EXTENDED=1).
- the pattern correspondence: arrangements map to proper reducible patterns
  with block count k, back-conversion is the exact inverse, and one step of the
  arrangement equals peel-then-collapse on the pattern, for all n <= 14;
  and check_correspondence fails for some even n <= 14 once a peel without
  its wipe, an identity collapse, a row builder without the row-1 strips, a
  back-conversion (necklace_of_pattern) to unit vectors or a block count
  that counts single second-row ones is patched in, so none of the three
  identities is idle (the read-back refuses a pattern whose grammar count
  differs from the second-row blocks it reads); it refuses a circle wider
  than a gap field.
- JSON and DOT exports are deterministic and well formed, each DOT edge
  joins the oracle's placed class to its placed step image, and
  transitions pairs the enumerated classes with their step images.
"""

from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from hardsquares import graphs, necklaces
from hardsquares.cli import BOUNDS
from hardsquares.necklaces import (
    canonicalize,
    check_correspondence,
    collapse_top_blocks,
    cycle_length_lcm,
    cycle_structure,
    dot_transition_graph,
    enumerate_necklaces,
    format_cycle_structure,
    format_necklace,
    necklace_of_pattern,
    necklace_to_json_obj,
    pattern_of_necklace,
    transform,
    transitions,
    verify_cycle_divisibility,
)
from hardsquares.patterns import (
    Pattern,
    block_count,
    is_proper,
    is_reducible,
    proper_block_count,
)
from helpers import (
    EXTENDED,
    Placed,
    canonical_oracle,
    canonical_sequences,
    first_block_end,
    format_placed,
    is_valid,
    load_golden_cycles,
    pairs_of,
    parse_pattern,
    pattern_of_necklace_oracle,
    place,
    rotate_rows,
    rows_of,
    sequence_canonicalize,
    sequence_mirror,
    sequence_transform,
    step_oracle,
    stone_sequence,
    transitions_oracle,
    word_of,
)


def test_validity_conditions():
    # facing pair at distance 5 with unit vectors, away gap 3
    assert is_valid(((1, 5), (-1, 3)))
    # same-direction consecutive stones
    assert not is_valid(((1, 5), (1, 3)))
    # facing distance 3 needs unit vectors
    assert is_valid(((1, 3), (-1, 5)))
    assert not is_valid(((2, 3), (-1, 5)))
    # away gap must be odd: distance 4 facing with mixed lengths makes
    # the away gap 4 as well
    assert not is_valid(((1, 4), (-2, 4)))
    # parity: facing gap 4 needs vector lengths of opposite parity
    assert is_valid(((1, 4), (-2, 5)))
    # facing pair closer than 3
    assert not is_valid(((1, 2), (-1, 1), (1, 2), (-1, 1)))


def test_step_on_one_pair_orbit():
    # widest one-pair arrangement on 8 intervals: facing gap 7, unit vectors
    widest = word_of(((1, 7), (-1, 1)))
    orbit = [widest]
    for _ in range(5):
        orbit.append(transform(orbit[-1]))
        assert is_valid(pairs_of(orbit[-1]))
    # the jump lands the pair facing at distance 3 with long vectors, which
    # the fix shrinks; the orbit then widens again and closes after 5 = n-3.
    # Each image word starts at the image of the facing stone.
    assert pairs_of(orbit[1]) == ((-1, 5), (1, 3))   # facing gap 3
    assert pairs_of(orbit[2]) == ((-2, 1), (2, 7))   # facing gap 7, long
    assert pairs_of(orbit[3]) == ((-1, 3), (1, 5))   # facing gap 5
    assert pairs_of(orbit[4]) == ((-2, 3), (2, 5))   # facing gap 5, long
    assert pairs_of(orbit[5]) == ((-1, 1), (1, 7))   # facing gap 7 again
    assert orbit[5] == widest


def _two_block_words(nmax):
    """Every block of a valid word with n <= nmax, in a two-block word
    closed by the least block the parity rules allow, and alone when it is
    a valid one-block word: (sequence, the block's two pairs)."""
    for o, i in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for a in range(1, nmax, 2):
            for f in range(3 if i == 1 else 4, nmax - a + 1):
                o_next = 1 + (f + i) % 2  # facing gap + i + o_next is odd
                seq = ((-o, a), (i, f))
                if o_next == o:
                    yield seq, seq
                f_close = 3 if o == 1 else 4  # 1 + f_close + o is odd
                if a + f + 1 + f_close <= nmax:
                    yield seq + ((-o_next, 1), (1, f_close)), seq


def test_step_tables_match_the_placed_step():
    seen = set()
    for seq, (away, facing) in _two_block_words(30):
        assert is_valid(seq), seq
        seen.add((away, facing))
        neck = place(seq)
        image = step_oracle(neck)
        o, a = -away[0], away[1]
        i = facing[0]
        # the image word starts where block 0's facing stone jumps to
        assert place(pairs_of(transform(word_of(seq))), a + i) == image, seq
        # the fix: block 0's away stone jumps to a facing stone whose
        # switched vector is 3 - o; the fix makes it 1 exactly when
        # A = o = i = 1, so the switched pair (3 - o, -(3 - i)) it turns
        # into (1, -1) is always (2, -2)
        landed = dict(image.stones)[(-o) % image.n]
        fixed = landed != 3 - o
        assert fixed == (a == o == i == 1), seq
        if fixed:
            assert (landed, dict(image.stones)[a + i]) == (1, -1)
    # every block of a class with n <= 20 is among them
    for n in range(4, 21):
        for k in range(1, n // 4 + 1):
            for word in enumerate_necklaces(k, n):
                seq = pairs_of(word)
                assert set(zip(seq[::2], seq[1::2])) <= seen, (k, n)


def test_step_keeps_classes_valid():
    for k, n in ((1, 8), (2, 12), (2, 14), (3, 16)):
        for cls in enumerate_necklaces(k, n):
            assert is_valid(pairs_of(cls))
            assert is_valid(pairs_of(transform(cls)))


def test_canonicalize_identifies_isometries():
    seq = ((1, 5), (-1, 3), (1, 3), (-1, 1))  # stones at 0, 5, 8 and 11
    assert is_valid(seq)
    cls = canonicalize(word_of(seq))
    stones = place(seq).stones
    rotated = [((p + 7) % 12, v) for p, v in stones]
    reflected = [(-p % 12, -v) for p, v in stones]
    for image in (rotated, reflected):
        placed = Placed(12, tuple(sorted(image)))
        assert canonicalize(word_of(stone_sequence(placed))) == cls
    assert canonicalize(transform(word_of(seq))) != cls  # this one moves


def test_enumeration_counts_and_bounds():
    assert enumerate_necklaces(2, 7) == []
    assert len(enumerate_necklaces(1, 4)) == 1
    assert len(enumerate_necklaces(1, 10)) == 7
    # 2^1 3^2 6^1 has 2 + 6 + 6 = 14 classes
    assert len(enumerate_necklaces(2, 12)) == 14
    with pytest.raises(ValueError):
        enumerate_necklaces(0, 12)
    for cls in enumerate_necklaces(2, 14):
        assert is_valid(pairs_of(cls))


def test_circle_wider_than_a_gap_field_is_refused(monkeypatch):
    def no_work(*args):
        raise AssertionError("necklace work started")

    monkeypatch.setattr(necklaces, "_canonical_words", no_work)
    widest = (1 << necklaces._GAP_BITS) - 1
    necklaces._check_size(1, widest)  # the widest circle a gap field holds
    message = f"circle length {widest + 1} exceeds {widest}"
    for call in (enumerate_necklaces, cycle_structure, cycle_length_lcm,
                 transitions, dot_transition_graph):
        with pytest.raises(ValueError, match=message):
            call(1, widest + 1)
    with pytest.raises(ValueError, match=message):
        check_correspondence(widest + 1)


def test_cycle_structures_match_golden_table():
    golden = load_golden_cycles()
    limit = 36 if EXTENDED else BOUNDS["circle"]
    for (n, k), expect in sorted(golden.items()):
        if n > limit:
            continue
        got = format_cycle_structure(cycle_structure(k, n))
        assert got == expect, (n, k, got, expect)


def test_enumeration_and_step_match_dedupe_oracle():
    for n in range(1, 25):
        for k in range(1, n // 4 + 2):
            expect = transitions_oracle(k, n)
            classes = enumerate_necklaces(k, n)
            assert [place(pairs_of(w)) for w in classes] == [
                src for src, _ in expect], (k, n)
            assert [(place(pairs_of(a)), place(pairs_of(b)))
                    for a, b in transitions(k, n)] == expect, (k, n)
            # output places the stones as the oracle does: from 0, a gap apart
            assert [format_necklace(w) for w in classes] == [
                format_placed(src) for src, _ in expect], (k, n)
            assert [necklace_to_json_obj(w) for w in classes] == [
                {"schema": 1, "n": n, "stones": [list(s) for s in src.stones]}
                for src, _ in expect], (k, n)


def test_block_kernel_matches_sequence_kernel():
    for n in range(1, 25):
        for k in range(1, n // 4 + 2):
            words = enumerate_necklaces(k, n)
            seqs = sorted(canonical_sequences(k, n))
            assert [pairs_of(w) for w in words] == seqs, (k, n)
            index = {seq: j for j, seq in enumerate(seqs)}
            if words:
                assert necklaces._successors(words) == [
                    index[sequence_canonicalize(sequence_transform(seq))]
                    for seq in seqs], (k, n)
            for word, seq in zip(words, seqs):
                # the image word starts at the image of stone 1
                stepped = sequence_transform(seq)
                assert pairs_of(transform(word)) == stepped[1:] + stepped[:1]
                assert pairs_of(necklaces._mirror(word)) == sequence_mirror(seq)


@st.composite
def arrangements(draw):
    """Valid arrangements: k (facing, away) pairs placed at a random offset."""
    seq = []
    for _ in range(draw(st.integers(1, 5))):
        inward, outward = draw(st.sampled_from((1, 2))), draw(st.sampled_from((1, 2)))
        t_lo = 3 if inward == outward == 1 else 5 if inward == outward else 4
        seq.append((inward, t_lo + 2 * draw(st.integers(0, 3))))
        seq.append((-outward, 1 + 2 * draw(st.integers(0, 3))))
    return place(seq, draw(st.integers(0, sum(gap for _, gap in seq) - 1)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(arrangements())
def test_sequence_step_matches_necklace_step(neck):
    seq = stone_sequence(neck)
    assert is_valid(seq)
    word = word_of(seq)
    assert place(pairs_of(canonicalize(word))) == canonical_oracle(neck)
    # the word's first stone is the lowest away stone; block 0's facing
    # stone jumps to the image word's first stone
    (_, a), (i, _) = pairs_of(word)[:2]
    start = neck.stones[seq[0][0] > 0][0]
    assert place(pairs_of(transform(word)), start + a + i) == step_oracle(neck)
    assert place(pairs_of(canonicalize(transform(word)))) == canonical_oracle(
        step_oracle(neck))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(arrangements(), st.integers(0, 40), st.booleans())
def test_step_commutes_with_rotation_and_reflection(neck, turn, flip):
    word = word_of(stone_sequence(neck))
    cls, stepped = canonicalize(word), canonicalize(transform(word))
    # the isometry on placed stones, and its block form
    n = neck.n
    moved = [(((-p if flip else p) + turn) % n, -v if flip else v)
             for p, v in neck.stones]
    other = word_of(stone_sequence(Placed(n, tuple(sorted(moved)))))
    turned = word[turn % len(word):] + word[:turn % len(word)]
    for image in (other, turned, necklaces._mirror(word), necklaces._mirror(turned)):
        assert canonicalize(image) == cls
        assert canonicalize(transform(image)) == stepped


@settings(max_examples=200, deadline=None, derandomize=True)
@given(arrangements())
def test_pattern_of_necklace_matches_placed_oracle(neck):
    assume(neck.n % 2 == 0)  # patterns have even length
    for placed in (neck, step_oracle(neck)):
        pat = pattern_of_necklace_oracle(placed)
        seq = stone_sequence(placed)
        start = placed.stones[seq[0][0] > 0][0]  # the word's first, away stone
        assert rotate_rows(pattern_of_necklace(word_of(seq)), start) == pat
        back = pairs_of(necklace_of_pattern(pat))
        assert place(back, first_block_end(rows_of(pat)[1])) == placed


def test_leaf_test_matches_canonical_form(monkeypatch):
    leaf, verdicts = necklaces._is_canonical, []

    def checked(cand):
        verdict = leaf(cand)
        assert verdict == (cand == canonicalize(cand)), cand
        seq = pairs_of(cand)
        assert verdict == (seq == sequence_canonicalize(seq)), cand
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(necklaces, "_is_canonical", checked)
    for n in range(1, 21):
        for k in range(1, n // 4 + 1):
            necklaces._canonical_words(k, n)
    assert True in verdicts and False in verdicts


def test_closed_form_families():
    for n in (4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24):
        assert cycle_structure(1, n) == {n - 3: 1}
    for k in (1, 2, 3, 4, 5, 6):
        assert cycle_structure(k, 4 * k) == {1: 1}
        expect = {k + 2: 1}
        if k // 2:
            expect[1] = k // 2
        assert cycle_structure(k, 4 * k + 2) == expect


def test_cycle_lengths_divide_slack():
    for n in range(4, 25, 2):
        for k in range(1, n // 4 + 1):
            assert verify_cycle_divisibility(k, n), (k, n)


def test_n_minus_3k_steps_rotate_every_class():
    # the sharpened cycle conjecture, with no canonical form and no cycle
    # walk: n - 3k steps take each canonical word to a rotation of its
    # blocks, odd n included
    for n in range(4, 25):
        for k in range(1, n // 4 + 1):
            for word in enumerate_necklaces(k, n):
                image = word
                for _ in range(n - 3 * k):
                    image = transform(image)
                assert image in {word[i:] + word[:i] for i in range(k)}, (k, n, word)


def _dihedral_orbits(n):
    # Burnside over the 2n symmetries of C_n, n even: a rotation by k fixes
    # the independent sets of a cycle of gcd(n, k) vertices, Lucas L_gcd
    # (L_1 = 1, L_2 = 3); a reflection through two vertices fixes those of
    # a path of n/2 + 1 vertices, F_{n/2+3}, and one through two edges
    # those of a path of n/2 - 2, F_{n/2} (F_1 = F_2 = 1)
    lucas, fib = [2, 1], [0, 1]
    while len(lucas) <= n + 3:
        lucas.append(lucas[-1] + lucas[-2])
        fib.append(fib[-1] + fib[-2])
    fixed = (sum(lucas[gcd(n, k)] for k in range(n))
             + n // 2 * (fib[n // 2 + 3] + fib[n // 2]))
    assert fixed % (2 * n) == 0, n
    return fixed // (2 * n)


def test_ring_orbits_are_the_classes_plus_two_at_even_n():
    # an observed count, not a proven one: at even n the dihedral orbits of
    # the ring's independent states outnumber the arrangement classes over
    # all k by two; odd n agrees only at 3 and 5.  Burnside counts the
    # orbits without the transfer kernel, so the count reaches past it
    for n in range(2, 21, 2):
        assert len(graphs._orbits(n).reps) == _dihedral_orbits(n), n
    for n in range(2, (36 if EXTENDED else 28) + 1, 2):
        classes = sum(len(enumerate_necklaces(k, n)) for k in range(1, n // 4 + 1))
        assert _dihedral_orbits(n) == classes + 2, n


def test_cycle_length_lcm_values():
    assert cycle_length_lcm(1, 6) == 3
    assert cycle_length_lcm(1, 30) == 27  # above the command line's circle bound
    assert cycle_length_lcm(2, 12) == 6
    assert cycle_length_lcm(2, 10) == 4
    assert cycle_length_lcm(3, 12) == 1
    # empty graph
    assert cycle_length_lcm(5, 12) == 1


def test_pattern_of_necklace_example():
    # a word starts at an away stone, so each pattern starts with its strip;
    # facing gap 3 plus away gap 1 on 4 intervals: one 3-block, nothing above
    tight = word_of(((1, 3), (-1, 1)))
    assert pattern_of_necklace(tight) == parse_pattern("0000 / 0111")
    # facing gap 5 with unit vectors: 101 above the middle of the block
    wide = word_of(((1, 5), (-1, 3)))
    assert pattern_of_necklace(wide) == parse_pattern("00001010 / 01011111")
    # long vectors pull the first-row strip inward
    long_vecs = word_of(((2, 7), (-2, 3)))
    assert pattern_of_necklace(long_vecs) == parse_pattern(
        "0000010100 / 0101111111")


def test_round_trip_and_block_counts():
    for n in (4, 6, 8, 10, 12):
        for k in range(1, n // 4 + 1):
            for cls in enumerate_necklaces(k, n):
                pat = pattern_of_necklace(cls)
                assert is_proper(pat)
                assert is_reducible(pat)
                assert block_count(pat) == k
                # read from the right stone of the first block and placed
                # at its column, the word read back is cls placed from 0
                back = necklace_of_pattern(pat)
                assert (place(pairs_of(back), first_block_end(rows_of(pat)[1]))
                        == place(pairs_of(cls)))


def test_necklace_of_pattern_validation():
    with pytest.raises(ValueError):
        necklace_of_pattern(parse_pattern("000000 / 010101"))  # no blocks
    with pytest.raises(ValueError):
        necklace_of_pattern(parse_pattern("101110 / 111111"))  # irreducible


def test_collapse_top_blocks():
    p = parse_pattern("1011101110 / 1111111111")
    collapsed = collapse_top_blocks(p)
    assert collapsed == parse_pattern("1000000000 / 1110111011")
    assert is_reducible(collapsed)
    assert block_count(collapsed) == block_count(p)


def test_correspondence_identities():
    for n in (4, 6, 8, 10, 12, 14):
        assert check_correspondence(n)


def test_correspondence_refuses_odd_circles():
    # patterns have even length, so an odd circle is refused before any
    # class is generated
    for n in (1, 3, 5, 7, 9):
        with pytest.raises(ValueError, match=f"^circle length {n} is odd"):
            check_correspondence(n)


def _peel_without_wipe(p):
    return Pattern(p.replace("b", "c").replace("a", "b")), (-1) ** p.count("c")


def _rows_without_strips(seq):
    pat = pattern_of_necklace(seq)  # unpatched: the patch rebinds necklaces' name only
    return Pattern(pat.replace("c", "b"))


def _read_back_with_unit_vectors(p):
    return word_of(tuple((1 if v > 0 else -1, gap)
                         for v, gap in pairs_of(necklace_of_pattern(p))))


def _count_single_ones_too(p):
    count = proper_block_count(p)
    row2 = rows_of(p)[1]
    singles = sum(row2[i] and not row2[i - 1] and not row2[(i + 1) % p.n]
                  for i in range(p.n))
    return None if count is None else count + singles


# Each fault, with the identities that catch it on their own; every
# identity is the only catch of at least one fault.
@pytest.mark.parametrize("name, fake", [
    ("peel", _peel_without_wipe),                            # third
    ("collapse_top_blocks", lambda p: p),                    # third
    ("pattern_of_necklace", _rows_without_strips),           # first and third
    ("necklace_of_pattern", _read_back_with_unit_vectors),   # second
    ("proper_block_count", _count_single_ones_too),          # first
])
def test_correspondence_catches_a_broken_part(monkeypatch, name, fake):
    monkeypatch.setattr(necklaces, name, fake)
    assert not all(check_correspondence(n) for n in (4, 6, 8, 10, 12, 14))


def test_exports():
    word = word_of(((-1, 3), (1, 5)))
    assert necklace_to_json_obj(word) == {
        "schema": 1, "n": 8, "stones": [[0, -1], [3, 1]]}
    assert format_necklace(word) == "[8| 0:-1 3:+1]"
    dot = dot_transition_graph(1, 6)
    assert dot.startswith('digraph "neck_1_6" {')
    assert dot.endswith("}")
    assert dot.count("->") == len(enumerate_necklaces(1, 6)) == 3
    assert dot == dot_transition_graph(1, 6)  # deterministic
    for k, n in ((1, 6), (2, 11), (3, 14)):
        edges = dot_transition_graph(k, n).splitlines()[1:-1]
        assert edges == [f'  "{format_placed(a)}" -> "{format_placed(b)}";'
                         for a, b in transitions_oracle(k, n)], (k, n)
    pairs = transitions(1, 6)
    classes = enumerate_necklaces(1, 6)
    assert [a for a, _ in pairs] == classes
    assert sorted(b for _, b in pairs) == classes  # T permutes the classes
