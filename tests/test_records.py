"""The record types of src are NamedTuples with the dataclass behaviour kept.

Covers every record: its repr and hash equal those of a frozen dataclass
with the same name and fields (so printed output and set order stay as
they were), equal records hash equal, and no attribute can be set.  A
record is a tuple, so it now also compares equal to the plain tuple of its
fields; the last test pins that.  GridSpec raises the same ValueError
messages as before.

A Pattern is no record: it is its column word, a str in the letters a, b
and c.  It hashes and compares as that word, takes no attribute, and sorts
in word order (column by column, a < b < c), so the canonical patterns
that stand for their classes do too.  The constructor refuses an odd
length, a length below 2 and a foreign letter; the three row-form
messages (unequal rows, an entry that is not 0 or 1, a 1 above a 0) are
those of parse_pattern, the one reader of the two-row text.  A necklace
class has no record either: it is its canonical block word, a plain tuple
of ints (test_necklaces).
"""

import random
from dataclasses import make_dataclass

import pytest

from hardsquares.cli import CheckResult
from hardsquares.genfun import PeriodicityReport
from hardsquares.graphs import Graph, GridSpec
from hardsquares.patterns import (
    Pattern,
    SignedPatternCombo,
    enumerate_proper,
)
from hardsquares.reduction import Configuration, ReductionState, TraceStep, Verdict
from helpers import parse_pattern

PATTERN = parse_pattern("0100 / 1101")
STATE = ReductionState(Graph(range(3), [(0, 1)]), 1, (TraceStep("fold", (0, 2)),))

RECORDS = [
    CheckResult("identity", {"n": 3, "m": 4}, True),
    PeriodicityReport(6, {1: 1, 2: 1}, True, 1, 2),
    GridSpec("cylinder", 20, 16),
    SignedPatternCombo(((PATTERN, -2),)),
    STATE.trace[0],
    STATE,
    Verdict("REDUCED", STATE),
    Configuration("A", "pendant", (0, 1), 5),
]
# a dict field makes these unhashable, as their dataclasses were
UNHASHABLE = (CheckResult, PeriodicityReport)


def _dataclass_twin(rec):
    """The same values in a frozen dataclass of the same name and fields."""
    twin = make_dataclass(type(rec).__name__, rec._fields, frozen=True)
    return twin(*rec)


@pytest.mark.parametrize("rec", RECORDS, ids=lambda r: type(r).__name__)
def test_repr_and_hash_match_the_dataclass_form(rec):
    assert repr(rec) == repr(_dataclass_twin(rec))
    if isinstance(rec, UNHASHABLE):
        with pytest.raises(TypeError):
            hash(rec)
    else:
        again = type(rec)(*rec)
        assert again == rec and again is not rec
        assert hash(again) == hash(rec) == hash(_dataclass_twin(rec))


def test_repr_examples():
    assert repr(GridSpec("cylinder", 20, 16)) == "GridSpec(family='cylinder', m=20, n=16)"
    assert repr(CheckResult("c", {}, False, "why")) == (
        "CheckResult(check='c', params={}, ok=False, detail='why')")


@pytest.mark.parametrize("rec", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_immutable(rec):
    with pytest.raises(AttributeError):
        setattr(rec, rec._fields[0], None)
    with pytest.raises(AttributeError):
        rec.extra = 1


def test_a_pattern_is_its_word():
    assert PATTERN == "bcab" and hash(PATTERN) == hash("bcab")
    again = Pattern("bcab")
    assert again == PATTERN and hash(again) == hash(PATTERN)
    assert {PATTERN: 1}["bcab"] == 1
    with pytest.raises(AttributeError):
        PATTERN.n = 6
    with pytest.raises(AttributeError):
        PATTERN.extra = 1


def test_ordered_records_sort_in_field_order():
    # patterns sort in word order: column by column, a < b < c
    items = enumerate_proper(10)
    assert len(items) > 5
    shuffled = items[:]
    random.Random(5).shuffle(shuffled)
    assert sorted(shuffled) == sorted(
        shuffled, key=lambda p: ["abc".index(x) for x in p])


@pytest.mark.parametrize("make, message", [
    (lambda: parse_pattern("10 / 1"), "rows differ in length"),
    (lambda: Pattern("cbc"), "pattern length must be even and at least 2"),
    (lambda: Pattern(""), "pattern length must be even and at least 2"),
    (lambda: parse_pattern("20 / 11"), "pattern entries must be 0 or 1"),
    (lambda: parse_pattern("01 / 10"), "column 1 has a 1 above a 0"),
    (lambda: Pattern("abcd"), "pattern letters must be a, b or c"),
    (lambda: GridSpec("ring", 1, 2),
     "unknown family 'ring'; expected one of ('free', 'cylinder', 'torus')"),
    (lambda: GridSpec("free", 1.0, 2), "grid sizes must be integers"),
    (lambda: GridSpec("torus", 3, -1), "grid sizes must be non-negative"),
])
def test_validation_messages_are_unchanged(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


def test_records_compare_equal_to_their_field_tuples():
    # a dataclass compared unequal to a tuple; no src code compares the two
    assert GridSpec("free", 2, 3) == ("free", 2, 3)
    assert TraceStep("fold", (0, 2)) == ("fold", (0, 2))
    assert SignedPatternCombo(((PATTERN, -2),)) == ((("bcab", -2),),)
