"""Pattern calculus tests.

Claims covered:
- a pattern is its column word: on every word of even length 2..16 in
  a, b and c, str(p) is the two-row text that parse_pattern (a test
  helper) reads back to p, f"{p}" prints that text too, row_masks are the
  masks of those rows, and canonicalize is constant over the 2n
  symmetries and equals their least word.  The constructor refuses an odd
  length, a length below 2 and a foreign letter; parse_pattern refuses
  unequal rows, an entry other than 0/1 and a 1 above a 0.
- masked_graph drops exactly the masked row-1/row-2 vertices; the worked
  six-column example with four rows has 19 vertices.
- z_pattern_series equals the brute-force Witten index of masked_graph
  for every pattern of length 4 and 6 with m in {2,3,4}, and the all-ones
  pattern reproduces the cylinder index; it equals the
  compatibility-table oracle on random masked patterns (proper or not)
  of length up to 12.
- canonicalize identifies all 2n rotations/reflections and nothing else,
  and equals the least of the 2n images in word order (a < b < c, column
  by column) on random masked patterns;
  z_pattern is constant on a class.  same_class agrees with equal
  canonical forms on rotations and reflections of random masked patterns
  and on pairs that differ in one cell of row 1 only or of row 2 only.
- the four frozen length-10 patterns are proper with two blocks; frozen
  non-examples are rejected; exactly two proper classes have no blocks.
- block_count is at most n/4 and proper rows avoid 0110 and 1001.
- is_proper and block_count agree with the row-scanner oracle on every
  pattern of even length <= 10, and enumerate_proper with the 2^n
  enumerator for even n <= 14 (n <= 18 with HARDSQUARES_EXTENDED=1).
- the worked length-6 classes: peel chains A->D->A, C->E, B->>E with sign -1,
  the block-middle deletions of E give A and B, and the initial decomposition
  has coefficients (1, -3, 3, -1) summing to the cylinder index.
- delete identity z(P) = z(V) - z(N) for m in [2,8] and peel identity
  z(P;m) = sign * z(peeled;m-1) for m in [3,8] on all proper patterns of
  length <= 8; at m = 2, z(P;2) = sign * Z(one ring row masked by the
  peeled row 1) on all 206 reducible proper classes of length <= 16.
  z_pattern, one entry of z_pattern_series, is a test helper.
- peel and block-middle deletions stay proper with the expected block_count
  (unchanged for peel and the neighborhood deletion, one less for the plain
  deletion).
- enumeration rejects odd lengths; the n = 18 classes are distinct and
  proper, and their block counts take every value 0..4.
- the one column wipe: peel equals the column-by-column oracle of
  tests/helpers on every reducible proper class of even n <= 12,
  delete_top_neighborhood zeroes exactly its four cells there and on
  every word of length <= 6, and
  initial_patterns equals the column-by-column expansion for even n <= 16.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from hardsquares.errors import RuleInapplicableError
from hardsquares.graphs import GridSpec, column_series, witten_brute, witten_transfer
from hardsquares.patterns import (
    Pattern,
    block_count,
    canonicalize,
    delete_top,
    delete_top_neighborhood,
    enumerate_proper,
    initial_patterns,
    is_proper,
    is_reducible,
    leftmost_block_middle,
    masked_graph,
    peel,
    row_masks,
    same_class,
    z_pattern_series,
)
from helpers import (
    EXTENDED,
    enumerate_proper_oracle,
    initial_patterns_oracle,
    parse_pattern,
    pattern_of_rows,
    peel_oracle,
    proper_oracle,
    rows_of,
    transfer_oracle,
    z_pattern,
)


def all_patterns(n):
    for letters in itertools.product("abc", repeat=n):
        yield Pattern("".join(letters))


def test_parse_format_round_trip():
    text = "101000 / 111101"
    p = parse_pattern(text)
    assert p == "cbcbab" and type(p) is Pattern
    assert rows_of(p) == ((1, 0, 1, 0, 0, 0), (1, 1, 1, 1, 0, 1))
    assert str(p) == f"{p}" == text
    assert f"[{p:>16}]" == f"[ {text}]"


@st.composite
def words(draw):
    n = draw(st.sampled_from(range(2, 17, 2)))
    return Pattern(draw(st.text("abc", min_size=n, max_size=n)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(words())
def test_the_word_is_the_one_form(p):
    text = str(p)
    assert parse_pattern(text) == p
    assert f"{p}" == text  # str's own format would print the word
    row1, row2 = text.split(" / ")
    assert row_masks(p) == (int(row1[::-1], 2), int(row2[::-1], 2))
    images = [d[k:k + p.n] for d in (p + p, (p + p)[::-1]) for k in range(p.n)]
    assert {canonicalize(Pattern(q)) for q in images} == {min(images)}
    assert canonicalize(p) == min(images)


def test_pattern_validation():
    for word in ("cbc", "c", "", "abcabc" * 3 + "a"):  # odd or below 2
        with pytest.raises(ValueError, match="even and at least 2"):
            Pattern(word)
    for word in ("ad", "ab c", "aB", "0101", "abcd"):
        with pytest.raises(ValueError, match="letters must be a, b or c"):
            Pattern(word)
    with pytest.raises(ValueError, match="column 1 has a 1 above a 0"):
        parse_pattern("01 / 10")
    with pytest.raises(ValueError):
        parse_pattern("1010")
    with pytest.raises(ValueError):
        parse_pattern("10a0 / 1111")
    with pytest.raises(ValueError):
        parse_pattern("10 / 1101")  # row lengths differ


def test_masked_graph_vertex_count_example():
    p = parse_pattern("101000 / 111101")
    g = masked_graph(p, 4)
    assert len(g.vertices) == 2 + 5 + 6 + 6
    with pytest.raises(ValueError):
        masked_graph(p, 1)


def test_pattern_index_matches_brute_force():
    for n in (4, 6):
        for p in all_patterns(n):
            series = z_pattern_series(p, 4)
            for m in (2, 3, 4):
                assert series[m] == witten_brute(masked_graph(p, m)), (p, m)


@st.composite
def masked_patterns(draw):
    n = draw(st.sampled_from((2, 4, 6, 8, 10, 12)))
    row2 = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    row1 = [b & draw(st.integers(0, 1)) for b in row2]
    return pattern_of_rows(tuple(row1), tuple(row2))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(masked_patterns(), st.integers(0, 12))
def test_z_pattern_series_matches_compat_oracle(p, m_max):
    masks = [sum(b << i for i, b in enumerate(row)) for row in rows_of(p)]
    rows = masks + [(1 << p.n) - 1] * (m_max - 2)
    expected = transfer_oracle(p.n, rows)[: m_max + 1]
    assert z_pattern_series(p, m_max) == [0, 0][: m_max + 1] + expected[2:]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(masked_patterns())
def test_canonicalize_is_the_least_symmetry(p):
    # the least image in word order: column by column, a < b < c
    n = p.n
    images = []
    for sign in (1, -1):
        for shift in range(n):
            cols = [(sign * i + shift) % n for i in range(n)]
            images.append(["abc".index(p[c]) for c in cols])
    best = min(images)
    assert canonicalize(p) == "".join("abc"[x] for x in best)


@st.composite
def pattern_pairs(draw):
    """(p, q, kind): q is a rotation or reflection of p, after one cell of
    row 1 only or of row 2 only flipped when kind names that row."""
    p = draw(masked_patterns())
    n, (row1, row2) = p.n, map(list, rows_of(p))
    kind = draw(st.sampled_from(("same", "row1", "row2")))
    if kind == "row1":  # a row-1 cell may flip above a row-2 one
        cells = [i for i in range(n) if row2[i]]
    else:  # a row-2 cell may flip below a row-1 zero
        cells = [i for i in range(n) if not row1[i]]
    if kind != "same" and cells:
        i = draw(st.sampled_from(cells))
        (row1 if kind == "row1" else row2)[i] ^= 1
    else:
        kind = "same"
    shift, flip = draw(st.integers(0, n - 1)), draw(st.booleans())
    cols = [((-i if flip else i) + shift) % n for i in range(n)]
    q = pattern_of_rows(tuple(row1[c] for c in cols), tuple(row2[c] for c in cols))
    return p, q, kind


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pattern_pairs())
def test_same_class_is_class_equality(pair):
    p, q, kind = pair
    assert same_class(p, q) == (canonicalize(p) == canonicalize(q))
    assert same_class(p, q) == (kind == "same")
    assert same_class(q, p) == same_class(p, q)


def test_same_class_needs_equal_lengths():
    assert not same_class(parse_pattern("00 / 11"), parse_pattern("0000 / 1111"))
    assert not same_class(parse_pattern("0000 / 1111"), parse_pattern("00 / 11"))


def test_pattern_index_requires_two_rows():
    with pytest.raises(ValueError):
        z_pattern(Pattern("cccc"), 1)


def test_series_convention_zero_below_two_rows():
    series = z_pattern_series(Pattern("cccccc"), 5)
    assert series[0] == series[1] == 0
    assert series[4] == 4


def test_all_ones_pattern_recovers_cylinder():
    for n in (4, 6, 8):
        for m in (2, 3, 5):
            expected = witten_transfer(GridSpec("cylinder", m, n))
            assert z_pattern(Pattern("c" * n), m) == expected
    assert z_pattern(Pattern("cccccc"), 4) == 4


def test_canonicalize_identifies_symmetries():
    p = parse_pattern("101000 / 111101")
    cls = canonicalize(p)
    n = p.n
    variants = set()
    for k in range(n):
        turned = p[k:] + p[:k]
        variants.add(Pattern(turned))
        variants.add(Pattern(turned[::-1]))
    # this pattern is mirror symmetric, so its orbit has n elements, not 2n
    assert len(variants) == n
    assert {canonicalize(q) for q in variants} == {cls}
    other = canonicalize(parse_pattern("000000 / 111101"))
    assert other != cls


def test_index_constant_on_class():
    p = parse_pattern("0011100000 / 1111111010")
    cls = canonicalize(p)
    shifted = Pattern(p[3:] + p[:3])
    reflected = Pattern(p[::-1])
    for m in (2, 3, 4, 5):
        z = z_pattern(cls, m)
        assert z_pattern(shifted, m) == z
        assert z_pattern(reflected, m) == z


def test_proper_examples_length_ten():
    for text in (
        "0101000000 / 1111101110",
        "1011101110 / 1111111111",
        "0011100000 / 1111111010",
        "0010111000 / 1111111110",
    ):
        p = parse_pattern(text)
        assert is_proper(p), text
        assert block_count(p) == 2, text


def test_improper_examples():
    # second row contains a length-2 group
    assert not is_proper(parse_pattern("00000000 / 01011010"))
    # second row has a double-zero gap between groups
    assert not is_proper(parse_pattern("0000000000 / 0101001110"))
    # the all-zero row is not a run
    assert not is_proper(parse_pattern("000000 / 000000"))
    # all ones above all ones is not a run either
    assert not is_proper(Pattern("cccccc"))
    # a 1 above a second-row singleton
    assert not is_proper(parse_pattern("1000 / 1010"))
    # a long second-row block must carry a nonempty aligned run
    assert not is_proper(parse_pattern("000000 / 011111"))
    # misaligned: the run may not start above the block's first column
    assert not is_proper(parse_pattern("10000000 / 11111010"))
    # block_count rejects improper patterns
    with pytest.raises(ValueError):
        block_count(Pattern("cccccc"))


def test_exactly_two_blockless_classes():
    for n in (2, 4, 6, 8, 10):
        zero = [c for c in enumerate_proper(n) if block_count(c) == 0]
        expected = {
            canonicalize(Pattern("bc" * (n // 2))),  # 0101... / 1111...
            canonicalize(Pattern("ab" * (n // 2))),  # 0000... / 0101...
        }
        assert set(zero) == expected, n


def test_block_count_bound_and_forbidden_words():
    for n in (4, 6, 8, 10, 12):
        for p in enumerate_proper(n):
            assert block_count(p) <= n // 4
            for row in rows_of(p):
                doubled = "".join(map(str, row + row))
                assert "0110" not in doubled
                assert "1001" not in doubled


def test_worked_length_six_classes():
    a = canonicalize(parse_pattern("010101 / 111111"))
    b = canonicalize(parse_pattern("010000 / 111101"))
    c = canonicalize(parse_pattern("000000 / 110101"))
    d = canonicalize(parse_pattern("000000 / 010101"))
    e = canonicalize(parse_pattern("101110 / 111111"))
    for cls, mu in ((a, 0), (b, 1), (c, 1), (d, 0), (e, 1)):
        assert is_proper(cls)
        assert block_count(cls) == mu

    peeled, sign = peel(a)
    assert (canonicalize(peeled), sign) == (d, -1)
    peeled, sign = peel(d)
    assert (canonicalize(peeled), sign) == (a, 1)
    peeled, sign = peel(c)
    assert (canonicalize(peeled), sign) == (e, 1)
    q, total = b, 1
    for _ in range(3):
        q, sign = peel(q)
        total *= sign
    assert (canonicalize(q), total) == (e, -1)

    assert not is_reducible(e)
    mid = leftmost_block_middle(e)
    assert canonicalize(delete_top(e, mid)) == a
    assert canonicalize(delete_top_neighborhood(e, mid)) == b

    combo = initial_patterns(6)
    assert dict(combo.terms) == {a: 1, b: -3, c: 3, d: -1}
    for m in range(2, 9):
        assert (sum(coeff * z_pattern(cls, m) for cls, coeff in combo.terms)
                == witten_transfer(GridSpec("cylinder", m, 6)))


def test_initial_patterns_reducible_proper_and_exact():
    for n in (2, 4, 8, 10):
        combo = initial_patterns(n)
        assert len(combo.terms) >= 2
        for cls, coeff in combo.terms:
            assert coeff != 0
            assert is_reducible(cls)
            assert is_proper(cls)
        for m in (2, 3, 4):
            assert (sum(coeff * z_pattern(cls, m) for cls, coeff in combo.terms)
                    == witten_transfer(GridSpec("cylinder", m, n)))


def test_column_wipes_match_the_written_out_loops():
    # the neighbourhood deletion also on every word of length <= 6, where a
    # row-2 zero may sit beside the deleted one
    every_word = [p for n in (2, 4, 6) for p in all_patterns(n)]
    proper = [p for n in range(2, 13, 2) for p in enumerate_proper(n)]
    for p in every_word + proper:
        n = p.n
        if is_proper(p) and is_reducible(p):
            assert peel(p) == peel_oracle(p), p
        row1, row2 = rows_of(p)
        for i in (i for i in range(n) if row1[i]):
            wiped = {(i - 1) % n, i, (i + 1) % n}
            assert delete_top_neighborhood(p, i) == pattern_of_rows(
                tuple(0 if j in wiped else x for j, x in enumerate(row1)),
                tuple(0 if j == i else x for j, x in enumerate(row2))), (p, i)
    for n in range(2, 17, 2):
        assert dict(initial_patterns(n).terms) == initial_patterns_oracle(n), n


def test_delete_identity_on_proper_patterns():
    for n in (2, 4, 6, 8):
        for p in enumerate_proper(n):
            for i in range(n):
                if p[i] != "c":
                    continue
                v = delete_top(p, i)
                w = delete_top_neighborhood(p, i)
                for m in range(2, 9):
                    assert z_pattern(p, m) == z_pattern(v, m) - z_pattern(w, m)


def test_peel_identity_on_reducible_patterns():
    for n in (2, 4, 6, 8):
        for p in enumerate_proper(n):
            if not is_reducible(p):
                continue
            q, sign = peel(p)
            for m in range(3, 9):
                assert z_pattern(p, m) == sign * z_pattern(q, m - 1)


def test_peel_identity_at_two_rows_reads_one_masked_ring_row():
    reducible = 0
    for n in range(2, 17, 2):
        for p in enumerate_proper(n):
            if not is_reducible(p):
                continue
            q, sign = peel(p)
            one_row = column_series(n, 1, (row_masks(q)[0],))[1]
            assert z_pattern(p, 2) == sign * one_row, p
            reducible += 1
    assert reducible == 206


def test_operations_preserve_properness_and_measure():
    for n in (2, 4, 6, 8):
        for p in enumerate_proper(n):
            mu = block_count(p)
            if is_reducible(p):
                q, _ = peel(p)
                assert is_proper(q)
                assert block_count(q) == mu
            else:
                mid = leftmost_block_middle(p)
                v = delete_top(p, mid)
                w = delete_top_neighborhood(p, mid)
                assert is_proper(v)
                assert block_count(v) == mu - 1
                assert is_proper(w)
                assert block_count(w) == mu


def test_operation_preconditions():
    p = parse_pattern("101000 / 111101")
    with pytest.raises(RuleInapplicableError):
        delete_top(p, 1)
    with pytest.raises(RuleInapplicableError):
        delete_top_neighborhood(p, 3)
    irreducible = parse_pattern("101110 / 111111")
    with pytest.raises(RuleInapplicableError):
        peel(irreducible)
    with pytest.raises(RuleInapplicableError):
        leftmost_block_middle(parse_pattern("010101 / 111111"))


def test_enumeration_bound_and_filter():
    with pytest.raises(ValueError):
        enumerate_proper(7)
    everything = enumerate_proper(18)
    assert len(set(everything)) == len(everything)
    assert all(is_proper(c) for c in everything)
    assert {block_count(c) for c in everything} == {0, 1, 2, 3, 4}


def test_grammar_matches_the_row_scanners():
    for n in (2, 4, 6, 8, 10):
        for letters in itertools.product("abc", repeat=n):
            p = Pattern("".join(letters))
            want = proper_oracle(p)
            assert is_proper(p) == (want is not None), str(p)
            if want is not None:
                assert block_count(p) == want, str(p)
    for n in range(2, (18 if EXTENDED else 14) + 1, 2):
        assert enumerate_proper(n) == enumerate_proper_oracle(n), n
