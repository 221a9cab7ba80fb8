"""Command-line interface claims.

- witten prints single frozen index values, as plain text and as JSON
  carrying the schema version.
- table1 emits the reference CSV layout and matches the stored reference
  table line for line, the JSON form round-trips, and the default text is
  the CSV cells, each right-justified to its column's widest cell and
  joined by two spaces.
- negative sizes (table1 -m or --nmax, a necklace circle length below 1)
  exit 2 with one error line and no output.
- genfun prints the factored generating function; even circumferences
  n >= 2 use the pattern route, odd ones and the degenerate n = 0 the
  fitted route and come out as the two known shapes (f_0 = f_1 = 1/(1 - t)),
  and a negative circumference exits 2.
- necklace supports enumerate, cycles, dot and a divisibility sweep, and
  missing -k/-n is a usage error (exit 2), as are -k or -n with the sweep
  and --nmax with any other action, which would otherwise be ignored;
  stderr then starts with the `hardsquares necklace` usage line.
  A request whose k stone pairs do not fit on the circle (4k > n) has no
  class: every action exits 2 with one error line and no output, in text
  and json, before any library call; -k 0 and -n 0 keep the library's
  messages.  A circle wider than a block's gap field holds (above the
  bound, with --bound-n) exits 2 with the library's one error line before
  any generation starts.
  --format takes text or json only, and json with the dot action exits 2
  with one error line.  A step that fails to permute the classes, by an
  image that is no class or by two classes with one image, is a one-line
  internal consistency failure (exit 1).
- cli.BOUNDS is the one size policy: width 18 (witten, table1, genfun's
  fit, verify identities), pattern 16 (even genfun, verify conjectures) and
  circle 28 (necklace, verify correspondence; verify all takes the least).
  For every command the size at its row's bound reaches the library, and
  one above it exits 2 with the one line `error: <subject> <size> exceeds
  the bound <B>` and no output before any library work starts; --bound-n
  raises and lowers the bound.  The refusal is errors.RequestRefusedError,
  a ValueError, and it is the only exception that exits 2: a ValueError
  raised once work has started (a failing exact division in genfun -n 8)
  exits 1 with one `FAIL internal consistency:` line, while a negative
  grid size, -k 0 and a size above its bound still exit 2 with one
  `error:` line.  Mask widths follow the enumerated
  width, not the raw sizes, but table1 bounds --nmax at every height, m = 0
  too.
- an --nmax below a selected sweep's floor (identities 0, conjectures 2,
  correspondence and necklace verify 4, and table1's 2 in every format),
  where the sweep would check no circumference, also exits 2 with one
  error line, and so does a verify identities or verify all whose -m and
  --nmax leave no identity instance in range.
- any other exception in a command (a KeyError, a MemoryError) exits 3
  with one `internal error:` line and no traceback.  A reader that closes
  stdout before the output ends is no fault: the child exits 141 (128 +
  SIGPIPE) and writes nothing to stderr, also not at shutdown.
- verify identities and correspondence pass; verify conjectures fails on
  exactly the circumference-4 denominator form and nothing else, so its
  exit code is 1 and the failure list is machine readable.  verify all
  splits each f_n's denominator into cyclotomic factors once.
- verify identities fails, exit 1, on a broken input of each of its check
  kinds: one tampered entry of the circumference-7 orbit matrix fails
  exactly the index identities with a P_m x C_7 side, and a brute index
  that is wrong on 10-vertex graphs fails both random rules.  verify
  conjectures fails the same way on a wrong denominator split at n = 6
  (roots_of_unity and periodicity), a wrong cycle divisibility verdict
  (cycle_divisibility, through necklace verify too) and a wrong block-count
  bound (block_count_denominator), and verify correspondence on a wrong
  verdict at n = 6 (pattern_correspondence): each shows its FAIL line in
  text and its check name in the JSON failures.
- repeated invocations produce byte-identical output.
- every JSON document (witten, table1, genfun, necklace cycles, enumerate
  and verify, verify) has "schema" as its first key, with value 1, and is
  byte for byte json.dumps(doc, indent=2) and a newline, also a 386 KB
  necklace document written in many slabs.  On Linux that document's cold
  peak RSS, each child started through the benchmark's launcher, stays
  less than 2.5 MB above a tiny document's.
- usage errors (unknown suite, bad format, missing arguments) exit 2.
- every module.function the benchmark tracer wraps (perfbench/tracer.py,
  read only) exists, and importing hardsquares.cli in a fresh interpreter
  leaves hardsquares.reduction unloaded.  Every tracer counter can read the
  parameter or result field it names, and a traced genfun run, whose
  distinct-argument key reads pattern_gf's p, exits 0.  Traced necklace
  cycles and verify correspondence runs call necklaces.transform,
  canonicalize and pattern_of_necklace, the names the tracer books the
  necklace kernel under.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hardsquares
from hardsquares import cli, errors, genfun, graphs, necklaces, polynomials
from hardsquares.cli import main
from hardsquares.graphs import Graph, GridSpec, witten_transfer
from hardsquares.patterns import Pattern
from hardsquares.polynomials import IntPoly, RationalGF
from hardsquares.reduction import simplify

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_witten_text_values(capsys):
    code, out, _ = run_cli(capsys, "witten", "--family", "cylinder",
                           "-m", "6", "-n", "14")
    assert code == 0 and out == "13\n"
    code, out, _ = run_cli(capsys, "witten", "--family", "cylinder",
                           "-m", "2", "-n", "4")
    assert code == 0 and out == "3\n"
    code, out, _ = run_cli(capsys, "witten", "--family", "cylinder",
                           "-m", "0", "-n", "9")
    assert code == 0 and out == "1\n"
    # C_3 x C_3 is the 3x3 rook graph: 1 - 9 + 18 - 6
    code, out, _ = run_cli(capsys, "witten", "--family", "torus",
                           "-m", "3", "-n", "3")
    assert code == 0 and out == "4\n"


def test_witten_json(capsys):
    code, out, _ = run_cli(capsys, "witten", "--family", "free",
                           "-m", "2", "-n", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "schema": 1, "family": "free", "m": 2, "n": 2, "witten_index": -1,
    }


def test_table1_csv_against_reference(capsys):
    code, out, _ = run_cli(capsys, "table1", "--format", "csv")
    assert code == 0
    got = out.splitlines()
    want = (DATA / "table1.csv").read_text().splitlines()
    assert len(got) == len(want) == 14
    assert got[0] == want[0] == "m\\n," + ",".join(str(n) for n in range(2, 15))
    assert got == want


def test_table1_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "table1", "-m", "4", "--nmax", "6",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["columns"] == [2, 3, 4, 5, 6]
    assert [r["m"] for r in doc["rows"]] == [0, 1, 2, 3, 4]
    for row in doc["rows"]:
        for n, value in zip(doc["columns"], row["values"]):
            assert value == witten_transfer(GridSpec("cylinder", row["m"], n))


def test_table1_text_right_justifies_the_csv_cells(capsys):
    code, csv, _ = run_cli(capsys, "table1", "-m", "4", "--nmax", "6",
                           "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in csv.splitlines()]
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    code, out, err = run_cli(capsys, "table1", "-m", "4", "--nmax", "6")
    assert code == 0 and err == ""
    assert out.splitlines() == ["  ".join(c.rjust(w) for c, w in zip(row, widths))
                                for row in rows]
    assert out.splitlines()[1] == "  0   1   1   1  1   1"


def test_negative_sizes_exit_two(capsys):
    for argv in (["table1", "-m", "-1", "--format", "csv"],
                 ["table1", "--nmax", "-3"],
                 ["necklace", "cycles", "-k", "1", "-n", "-4"],
                 ["necklace", "cycles", "-k", "1", "-n", "0"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and len(err.splitlines()) == 1, argv


def test_genfun_even_text(capsys):
    code, out, _ = run_cli(capsys, "genfun", "-n", "6")
    assert code == 0
    assert out == ("f_6(t) = (-t^4 - 2t^3 - 2t - 1) / "
                   "(Phi_1 * Phi_3 * Phi_4)\n")


def test_genfun_odd_routes(capsys):
    # circumferences 2 mod 3 and 1 mod 3 collapse to the constant-1 series
    code, out, _ = run_cli(capsys, "genfun", "-n", "5")
    assert code == 0 and out == "f_5(t) = (-1) / (Phi_1)\n"
    # circumference 3 mod 6 gives the other closed shape
    code, out, _ = run_cli(capsys, "genfun", "-n", "9")
    assert code == 0 and out == "f_9(t) = (-t + 1) / (Phi_3)\n"


def test_genfun_json(capsys):
    code, out, _ = run_cli(capsys, "genfun", "-n", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1 and doc["n"] == 2 and doc["route"] == "pattern"
    assert doc["numerator"] == [1, -1]
    assert doc["denominator"] == [1, 0, 1]
    assert doc["denominator_cyclotomic"] == [[4, 1]]
    assert doc["denominator_remainder"] == [1]


def test_genfun_bound(capsys):
    code, _, err = run_cli(capsys, "genfun", "-n", "18")
    assert code == 2 and "error" in err
    for n in ("-2", "-3", "-4"):  # even negative n too, not the pattern route
        assert run_cli(capsys, "genfun", "-n", n) == (
            2, "", "error: grid sizes must be non-negative\n"), n
    code, out, _ = run_cli(capsys, "genfun", "-n", "17")
    assert code == 0 and out == "f_17(t) = (-1) / (Phi_1)\n"


def test_genfun_zero_takes_the_fit(capsys):
    # C_0 is the degenerate empty ring: every height has index 1, as for C_1
    code, out, err = run_cli(capsys, "genfun", "-n", "0")
    assert (code, out, err) == (0, "f_0(t) = (-1) / (Phi_1)\n", "")
    code, out, _ = run_cli(capsys, "genfun", "-n", "0", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "schema": 1, "n": 0, "route": "fitted", "numerator": [-1],
        "denominator": [-1, 1], "denominator_cyclotomic": [[1, 1]],
        "denominator_remainder": [1],
    }


def test_bound_refusal_is_a_value_error(capsys):
    assert issubclass(errors.RequestRefusedError, ValueError)
    assert run_cli(capsys, "witten", "-m", "2", "-n", "19") == (
        2, "", "error: row-mask width 19 exceeds the bound 18\n")
    with pytest.raises(errors.RequestRefusedError, match="exceeds the bound 18"):
        cli._check_bound("row-mask width", 19, "width")


def test_only_a_refusal_exits_two(capsys, monkeypatch):
    # a ValueError raised once work has started is no usage error: it is an
    # internal consistency failure, however the library spells it
    calls, exact_div = [0], IntPoly.exact_div

    def fails_on_the_second_call(self, div):
        calls[0] += 1
        if calls[0] == 2:
            raise ValueError("polynomial division left a remainder")
        return exact_div(self, div)

    monkeypatch.setattr(IntPoly, "exact_div", fails_on_the_second_call)
    assert run_cli(capsys, "genfun", "-n", "8") == (
        1, "", "FAIL internal consistency: polynomial division left a remainder\n")
    assert calls[0] == 2
    monkeypatch.undo()
    # the refusals, a grid size, a stone count and a bound, still exit 2
    for argv in (["witten", "-m", "-1", "-n", "4"],
                 ["necklace", "cycles", "-k", "0", "-n", "8"],
                 ["genfun", "-n", "18"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and len(err.splitlines()) == 1, argv


def test_witten_and_table_refuse_wide_rings(capsys):
    # the transfer walk is exponential in the mask width, so oversized
    # requests must die fast with a bounds error instead of grinding
    code, _, err = run_cli(capsys, "witten", "--family", "cylinder",
                           "-m", "999", "-n", "999")
    assert code == 2 and "error" in err and "width 999" in err
    code, _, err = run_cli(capsys, "witten", "--family", "free",
                           "-m", "25", "-n", "40")
    assert code == 2 and "width 25" in err
    code, _, err = run_cli(capsys, "table1", "--nmax", "40")
    assert code == 2 and "error" in err
    # the bound follows the enumerated width, not the raw sizes: a thin
    # torus keeps its masks on the short side and succeeds
    code, out, _ = run_cli(capsys, "witten", "--family", "torus",
                           "-m", "2", "-n", "50")
    assert code == 0 and out == "-1\n"
    # --bound-n overrides in both directions
    code, _, err = run_cli(capsys, "witten", "--family", "cylinder",
                           "-m", "2", "-n", "4", "--bound-n", "3")
    assert code == 2 and "width 4" in err
    code, out, _ = run_cli(capsys, "table1", "-m", "1", "--nmax", "3",
                           "--bound-n", "2", "--format", "csv")
    assert code == 2
    # a height-0 table builds no masks but still one series per column
    code, out, _ = run_cli(capsys, "table1", "-m", "0", "--nmax", "3",
                           "--bound-n", "2", "--format", "csv")
    assert code == 2


# command with {} for the size, its BOUNDS row, the subject of its refusal
# line, the largest size accepted, the least refused, and the library
# function the command calls first
BOUND_CASES = [
    ("witten --family cylinder -m 3 -n {}", "width", "row-mask width", 18, 19,
     "witten_transfer"),
    ("witten --family torus -m {} -n 30", "width", "row-mask width", 18, 19,
     "witten_transfer"),
    ("table1 -m 2 --nmax {}", "width", "row-mask width", 18, 19, "column_series"),
    ("table1 -m 0 --nmax {}", "width", "row-mask width", 18, 19, "column_series"),
    ("genfun -n {}", "width", "row-mask width", 17, 19, "fitted_cylinder_gf"),
    ("genfun -n {}", "pattern", "circumference", 16, 18, "cylinder_gf"),
    ("verify identities --nmax {}", "width", "--nmax", 18, 19, "verify_index_identities"),
    ("verify conjectures --nmax {}", "pattern", "--nmax", 16, 17, "cylinder_gf"),
    ("verify correspondence --nmax {}", "circle", "--nmax", 28, 29, "check_correspondence"),
    ("verify all --nmax {}", "pattern", "--nmax", 16, 17, "verify_index_identities"),
    ("necklace enumerate -k 2 -n {}", "circle", "circle length", 28, 29,
     "enumerate_necklaces"),
    ("necklace cycles -k 2 -n {}", "circle", "circle length", 28, 29, "cycle_structure"),
    ("necklace dot -k 2 -n {}", "circle", "circle length", 28, 29, "dot_transition_graph"),
    ("necklace verify --nmax {}", "circle", "--nmax", 28, 29, "verify_cycle_divisibility"),
]


def test_every_command_checks_its_bound_row_before_work(capsys, monkeypatch):
    assert cli.BOUNDS == {"width": 18, "pattern": 16, "circle": 28}

    def started(*args, **kwargs):
        raise LookupError("work started")

    def run(template, size, *extra):
        return run_cli(capsys, *template.format(size).split(), *extra)

    def refusal(subject, size, bound):
        return 2, "", f"error: {subject} {size} exceeds the bound {bound}\n"

    accepted = (3, "", "internal error: LookupError: work started\n")
    for template, row, subject, top, over, entry in BOUND_CASES:
        monkeypatch.setattr(cli, entry, started)
        case = (template, row)
        assert run(template, top) == accepted, case
        assert run(template, over) == refusal(subject, over, cli.BOUNDS[row]), case
        if not template.startswith("verify"):  # --bound-n replaces the row
            assert run(template, over, "--bound-n", str(over)) == accepted, case
            assert (run(template, top, "--bound-n", str(top - 1))
                    == refusal(subject, top, top - 1)), case
        monkeypatch.undo()


def test_internal_errors_exit_three(capsys, monkeypatch):
    def key_error(args):
        raise KeyError("missing")

    def out_of_memory(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_witten", key_error)
    monkeypatch.setattr(cli, "cmd_genfun", out_of_memory)
    for argv, line in ((["witten", "-m", "2", "-n", "4"], "KeyError: 'missing'"),
                       (["genfun", "-n", "6"], "MemoryError: ")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == "", argv
        assert err == f"internal error: {line}\n", argv


def test_necklace_cycles(capsys):
    code, out, _ = run_cli(capsys, "necklace", "cycles", "-k", "2", "-n", "12")
    assert code == 0 and out == "2^1 3^2 6^1\n"
    # odd circle length: two classes (facing gaps 4 and 6) swapped by the
    # step, one 2-cycle; 2 divides n - 3k = 4
    code, out, _ = run_cli(capsys, "necklace", "cycles", "-k", "1", "-n", "7",
                           "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "schema": 1, "k": 1, "n": 7, "cycles": [[2, 1]],
    }


def test_necklace_enumerate(capsys):
    code, out, _ = run_cli(capsys, "necklace", "enumerate", "-k", "2",
                           "-n", "12")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 14
    assert all(line.startswith("[12|") for line in lines)
    code, out, _ = run_cli(capsys, "necklace", "enumerate", "-k", "1",
                           "-n", "6", "--format", "json")
    doc = json.loads(out)
    assert doc["count"] == 3 == len(doc["classes"])
    assert all(c["n"] == 6 and len(c["stones"]) == 2 for c in doc["classes"])


def test_necklace_dot(capsys):
    code, out, _ = run_cli(capsys, "necklace", "dot", "-k", "1", "-n", "6")
    assert code == 0
    assert out.startswith("digraph")
    assert out.rstrip().endswith("}")
    assert out.count("->") == 3


def test_necklace_dot_takes_no_other_format(capsys):
    code, out, err = run_cli(capsys, "necklace", "dot", "-k", "1", "-n", "6",
                             "--format", "json")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    for action in ("enumerate", "cycles", "dot", "verify"):
        with pytest.raises(SystemExit) as exc:
            main(["necklace", action, "-k", "1", "-n", "6", "--format", "dot"])
        assert exc.value.code == 2
        capsys.readouterr()


@pytest.fixture
def no_necklace_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("necklace work started")

    for name in ("enumerate_necklaces", "cycle_structure", "dot_transition_graph"):
        monkeypatch.setattr(cli, name, no_work)


def test_necklace_request_with_no_class_exits_two(capsys, no_necklace_work):
    refusal = "error: -k 3 needs a circle length of at least 12\n"
    started = "internal error: AssertionError: necklace work started\n"
    for action in ("enumerate", "cycles", "dot"):
        for fmt in ("text", "json"):
            argv = ("necklace", action, "-k", "3", "-n", "8", "--format", fmt)
            assert run_cli(capsys, *argv) == (2, "", refusal), argv
        # at 4k = n a class exists, so the request reaches the library
        assert run_cli(capsys, "necklace", action, "-k", "3", "-n", "12") == (
            3, "", started), action


def test_necklace_size_errors_keep_the_library_messages(capsys):
    for argv, line in ((("-k", "0", "-n", "8"), "at least one stone pair is required"),
                       (("-k", "0", "-n", "0"), "at least one stone pair is required"),
                       (("-k", "1", "-n", "0"), "circle length must be positive")):
        for action in ("enumerate", "cycles", "dot"):
            assert run_cli(capsys, "necklace", action, *argv) == (
                2, "", f"error: {line}\n"), (action, argv)


def test_circle_wider_than_a_gap_field_exits_two(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("necklace work started")

    monkeypatch.setattr(necklaces, "_canonical_words", no_work)
    wide = str(1 << necklaces._GAP_BITS)
    line = f"error: circle length {wide} exceeds {int(wide) - 1}, the widest gap a block holds\n"
    for action in ("enumerate", "cycles", "dot"):
        assert run_cli(capsys, "necklace", action, "-k", "1", "-n", wide,
                       "--bound-n", wide) == (2, "", line), action


def test_necklace_verify_sweep(capsys):
    code, out, _ = run_cli(capsys, "necklace", "verify", "--nmax", "16")
    assert code == 0
    assert out.endswith("pass\n")
    assert "FAIL" not in out


@pytest.fixture
def no_sweeps(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a sweep started before the floor check")

    for name in ("verify_index_identities", "witten_brute", "cylinder_gf",
                 "enumerate_proper", "check_correspondence",
                 "verify_cycle_divisibility", "column_series"):
        monkeypatch.setattr(cli, name, no_work)


def test_nmax_that_sweeps_nothing_exits_two(capsys, no_sweeps):
    for argv, floor in ((["verify", "correspondence", "--nmax", "-5"], 4),
                        (["verify", "conjectures", "--nmax", "-2"], 2),
                        (["verify", "conjectures", "--nmax", "1"], 2),
                        (["verify", "identities", "--nmax", "-1"], 0),
                        (["verify", "all", "--nmax", "3"], 4),
                        (["necklace", "verify", "--nmax", "-3"], 4),
                        (["necklace", "verify", "--nmax", "3"], 4),
                        (["table1", "--nmax", "1"], 2),
                        (["table1", "--format", "csv", "--nmax", "0"], 2),
                        (["table1", "--format", "json", "--nmax", "1"], 2)):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert f"--nmax {argv[-1]} is below {floor}" in err


def test_identity_sweep_with_no_instance_in_range_exits_two(capsys, no_sweeps):
    for argv, m, nmax in ((["identities", "-m", "0"], 0, 14),
                          (["identities", "-m", "-1"], -1, 14),
                          (["identities", "--nmax", "0"], 20, 0),
                          (["identities", "--nmax", "1"], 20, 1),
                          (["identities", "-m", "1", "--nmax", "2"], 1, 2),
                          (["all", "-m", "-3"], -3, 14)):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == "", argv
        assert err == (f"error: -m {m} and --nmax {nmax} leave no identity "
                       f"instance to check\n"), argv


def test_broken_step_is_an_internal_consistency_failure(capsys, monkeypatch):
    classes = necklaces._canonical_words(2, 12)
    monkeypatch.setattr(necklaces, "transform", lambda seq: classes[0])
    necklaces._cycles.cache_clear()
    code, out, err = run_cli(capsys, "necklace", "cycles", "-k", "2", "-n", "12")
    necklaces._cycles.cache_clear()
    assert code == 1 and out == ""
    assert err.startswith("FAIL internal consistency:")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_a_step_image_outside_the_classes_is_an_internal_consistency_failure(
        capsys, monkeypatch):
    # one class steps to a (2, 14) class, which no (2, 12) index holds;
    # every other image is right, so no class is hit twice
    stray = necklaces._canonical_words(2, 14)[0]
    first = necklaces._canonical_words(2, 12)[0]
    step = necklaces.transform
    monkeypatch.setattr(necklaces, "transform",
                        lambda word: stray if word == first else step(word))
    necklaces._cycles.cache_clear()
    code, out, err = run_cli(capsys, "necklace", "cycles", "-k", "2", "-n", "12")
    necklaces._cycles.cache_clear()
    assert code == 1 and out == ""
    assert err.startswith("FAIL internal consistency:")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_verify_identities_and_correspondence(capsys):
    code, out, _ = run_cli(capsys, "verify", "identities", "-m", "10",
                           "--nmax", "8")
    assert code == 0 and out.endswith("pass\n") and "FAIL" not in out
    code, out, _ = run_cli(capsys, "verify", "correspondence", "--nmax", "10")
    assert code == 0 and out.endswith("pass\n")


def test_a_tampered_orbit_matrix_fails_the_index_identities(capsys, monkeypatch):
    build = graphs._orbits

    def tampered(n):
        orb = build(n)
        if n != 7:
            return orb
        row = (orb.matrix[0][0] + 1,) + orb.matrix[0][1:]  # moves z_m for m >= 2
        return graphs.RingOrbits(orb.reps, orb.sizes, orb.weights, orb.orbit_of,
                                 (row,) + orb.matrix[1:])

    monkeypatch.setattr(graphs, "_orbits", tampered)  # the cache never holds the copy
    code, out, _ = run_cli(capsys, "verify", "identities", "--nmax", "8")
    fails = [line.split() for line in out.splitlines() if line.startswith("FAIL")]
    assert code == 1 and out.endswith("fail\n")
    # every failing row is an index identity whose lhs is a P_m x C_7 cylinder
    assert {tuple(f[1:4]) + (f[5],) for f in fails} == {
        ("index_identity", "identity=two_row_cylinder_shift4", "family=cylinder", "n=7:"),
        ("index_identity", "identity=circumference7_shift4", "family=cylinder", "n=7:")}
    assert "FAIL index_identity identity=two_row_cylinder_shift4 family=cylinder m=2 n=7" in out


def test_a_wrong_brute_index_fails_both_random_rules(capsys, monkeypatch):
    brute = cli.witten_brute

    def off_by_one(g):
        # wrong on 10 vertices, the most a random graph draws: the vertex
        # rule's lhs and a union's factor or union, never a deletion
        return brute(g) + (len(g.vertices) == 10)

    monkeypatch.setattr(cli, "witten_brute", off_by_one)
    code, out, _ = run_cli(capsys, "verify", "identities", "--nmax", "8")
    kinds = {line.split()[1] for line in out.splitlines() if line.startswith("FAIL")}
    assert code == 1 and out.endswith("fail\n")
    assert kinds == {"random_vertex_rule", "random_union_rule"}


def failed_checks(capsys, *argv):
    """Exit code, FAIL lines of the text run and failures[].check of the
    JSON run of one sweep."""
    code, out, _ = run_cli(capsys, *argv)
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    json_code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert json_code == code and json.loads(out)["ok"] is (code == 0)
    return code, fails, [f["check"] for f in json.loads(out)["failures"]]


# verify conjectures --nmax 8 fails on the circumference-4 form alone
FORM_4 = "FAIL denominator_form n=4: reduced denominator must divide the conjectured product"


def test_a_wrong_denominator_split_fails_roots_of_unity_and_periodicity(
        capsys, monkeypatch):
    report = cli.periodicity_report

    def broken_at_six(n, gf):
        rep = report(n, gf)
        return rep._replace(remainder_ok=False, period=None) if n == 6 else rep

    monkeypatch.setattr(cli, "periodicity_report", broken_at_six)
    assert failed_checks(capsys, "verify", "conjectures", "--nmax", "8") == (
        1, [FORM_4, "FAIL roots_of_unity n=6", "FAIL periodicity n=6: period=None"],
        ["denominator_form", "roots_of_unity", "periodicity"])


def test_a_wrong_cycle_divisibility_fails_both_sweeps(capsys, monkeypatch):
    divisible = cli.verify_cycle_divisibility
    monkeypatch.setattr(cli, "verify_cycle_divisibility",
                        lambda k, n: (k, n) != (1, 8) and divisible(k, n))
    assert failed_checks(capsys, "verify", "conjectures", "--nmax", "8") == (
        1, [FORM_4, "FAIL cycle_divisibility k=1 n=8"],
        ["denominator_form", "cycle_divisibility"])
    assert failed_checks(capsys, "necklace", "verify", "--nmax", "8") == (
        1, ["FAIL cycle_divisibility k=1 n=8"], ["cycle_divisibility"])


def test_a_wrong_block_count_bound_fails_its_pattern(capsys, monkeypatch):
    bounded = cli.check_block_count_denominator
    target = Pattern("abcbcb")
    monkeypatch.setattr(cli, "check_block_count_denominator",
                        lambda p: p != target and bounded(p))
    assert failed_checks(capsys, "verify", "conjectures", "--nmax", "8") == (
        1, [FORM_4, "FAIL block_count_denominator n=6 pattern=001010 / 011111"],
        ["denominator_form", "block_count_denominator"])


def test_a_wrong_correspondence_fails_its_circumference(capsys, monkeypatch):
    corresponds = cli.check_correspondence
    monkeypatch.setattr(cli, "check_correspondence", lambda n: n != 6 and corresponds(n))
    assert failed_checks(capsys, "verify", "correspondence", "--nmax", "8") == (
        1, ["FAIL pattern_correspondence n=6"], ["pattern_correspondence"])


def test_verify_conjectures_reports_the_one_failure(capsys):
    code, out, _ = run_cli(capsys, "verify", "conjectures")
    assert code == 1
    assert out.endswith("fail\n")
    fail_lines = [l for l in out.splitlines() if l.startswith("FAIL")]
    assert len(fail_lines) == 1 and "denominator_form n=4" in fail_lines[0]
    assert "info periodicity n=10: period=56" in out
    code, out, _ = run_cli(capsys, "verify", "conjectures", "--format",
                           "json")
    doc = json.loads(out)
    assert code == 1 and doc["ok"] is False
    assert [f["params"] for f in doc["failures"]] == [{"n": 4}]
    assert doc["failures"][0]["check"] == "denominator_form"


def test_verify_all_splits_each_denominator_once(capsys, monkeypatch):
    calls = []
    factor = polynomials.factor_cyclotomic

    def counted(p):
        calls.append(p)
        return factor(p)

    for module in (polynomials, genfun, cli):
        monkeypatch.setattr(module, "factor_cyclotomic", counted)
    code, out, _ = run_cli(capsys, "verify", "all", "--seed", "1")
    assert code == 1 and out.endswith("all: 320 of 321 checks passed\nfail\n")
    # one split per even circumference 2..12, none repeated
    assert len(calls) == 6 == len(set(calls))


def test_verify_conjectures_below_four_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "conjectures", "--nmax", "2")
    assert code == 0 and out.endswith("pass\n")


def test_deterministic_output(capsys):
    first = run_cli(capsys, "verify", "conjectures", "--nmax", "8")
    second = run_cli(capsys, "verify", "conjectures", "--nmax", "8")
    assert first == second
    first = run_cli(capsys, "necklace", "enumerate", "-k", "2", "-n", "14",
                    "--format", "json")
    second = run_cli(capsys, "necklace", "enumerate", "-k", "2", "-n", "14",
                     "--format", "json")
    assert first == second


def test_usage_errors_exit_two(capsys):
    for argv in (
        ["verify", "everything"],
        ["witten", "-m", "2"],
        ["table1", "--format", "dot"],
        ["necklace", "spin", "-k", "1", "-n", "8"],
        # options the action would ignore
        ["necklace", "verify", "-k", "3", "-n", "8"],
        ["necklace", "verify", "-n", "8", "--nmax", "12"],
        ["necklace", "cycles", "-k", "2", "-n", "8", "--nmax", "10"],
        ["necklace", "enumerate", "-k", "2", "-n", "8", "--nmax", "10"],
        ["necklace", "dot", "-k", "2", "-n", "8", "--nmax", "10"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["necklace", "cycles", "-k", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_necklace_misuse_prints_the_necklace_usage_line(capsys):
    for argv, message in (
            (["necklace", "cycles", "-k", "2"],
             "necklace cycles requires both -k and -n"),
            (["necklace", "dot", "-k", "2", "-n", "8", "--nmax", "10"],
             "--nmax applies to necklace verify only, not dot")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == "", argv
        assert captured.err.startswith("usage: hardsquares necklace "), argv
        assert captured.err.endswith(f"hardsquares necklace: error: {message}\n"), argv


@pytest.mark.parametrize("argv", [
    "witten -m 2 -n 4", "table1 -m 2 --nmax 4", "genfun -n 4",
    "necklace cycles -k 1 -n 8", "necklace enumerate -k 1 -n 8",
    "verify correspondence --nmax 6", "necklace verify --nmax 8",
    # 386 KB, about 150k encoder chunks: many slabs
    "necklace enumerate -k 4 -n 24"])
def test_every_json_document_starts_with_its_schema(capsys, argv):
    code, out, _ = run_cli(capsys, *argv.split(), "--format", "json")
    doc = json.loads(out)
    assert code == 0 and next(iter(doc)) == "schema" and doc["schema"] == 1
    # the streamed slabs join to exactly the one-shot document
    assert out == json.dumps(doc, indent=2) + "\n"


def test_module_entry_point():
    # the child imports the package from where this process found it
    src = str(Path(hardsquares.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "hardsquares.cli", "witten", "-m", "6",
         "-n", "14"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0 and proc.stdout == "13\n"


def test_a_reader_that_closes_early_gets_exit_141_and_no_stderr():
    # 386 KB of JSON overflows the pipe, so the child is still writing when
    # the reader closes after the first line
    src = str(Path(hardsquares.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "hardsquares.cli", "necklace", "-k", "4", "-n",
         "24", "enumerate", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src})
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""


LAUNCHER = Path(__file__).resolve().parents[1] / "perfbench" / "launch.py"


def _peak_rss_kib(*argv):
    """Median peak RSS (KiB) of three cold CLI children, each started
    through the benchmark's launcher (perfbench/launch.py, read only)."""
    src = str(Path(hardsquares.__file__).resolve().parents[1])
    peaks = []
    for _ in range(3):
        report_r, report_w = os.pipe()
        try:
            proc = subprocess.run(
                [sys.executable, "-I", "-S", str(LAUNCHER), str(report_w), "60",
                 sys.executable, "-m", "hardsquares.cli", *argv],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                pass_fds=(report_w,), env={**os.environ, "PYTHONPATH": src})
        finally:
            os.close(report_w)
        with os.fdopen(report_r, "rb") as report:
            fields = report.read().split()
        assert proc.returncode == 0 and len(fields) == 5, proc.stderr
        assert fields[0] == b"0", argv
        peaks.append(int(fields[3]))
    return sorted(peaks)[1]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the launcher reads /proc and ru_maxrss in KiB")
def test_a_large_json_document_costs_little_memory_beyond_a_tiny_one():
    # 386 KB of JSON against a few hundred bytes: streamed in slabs, the
    # large document adds about 1 MB; held whole (the chunk list, the
    # joined str and its encoded copy), it adds about 3.5 MB
    large = _peak_rss_kib("necklace", "-k", "4", "-n", "24", "enumerate",
                          "--format", "json")
    tiny = _peak_rss_kib("necklace", "-k", "1", "-n", "4", "enumerate",
                         "--format", "json")
    assert large - tiny < 2.5 * 1024, (large, tiny)


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _benchmark_tracer():
    """perfbench/tracer.py as a module, read and not installed."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_traced_names_resolve_and_the_cli_loads_no_reduction():
    # perfbench/tracer.py is read, not changed: every traced module.function
    # must exist, and the CLI must not pull in the reduction module
    tracer = _benchmark_tracer()
    for module, functions in tracer.TRACED.items():
        home = importlib.import_module(f"hardsquares.{module}")
        for name in functions:
            assert callable(getattr(home, name, None)), f"{module}.{name}"
    src = str(Path(hardsquares.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hardsquares.cli; "
         "print('hardsquares.reduction' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0 and proc.stdout == "False\n", proc.stderr


def test_benchmark_counters_read_what_src_provides():
    # a counter reads a parameter by name or a field of the result, after the
    # traced call; a rename in src would break run.py --trace 1 mid-command
    path = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    calls = {  # small arguments for every function that has a counter
        "graphs.column_series": (4, 6),
        "patterns.z_pattern_series": (Pattern("bcab"), 6),
        "patterns.initial_patterns": (6,),
        "patterns.enumerate_proper": (6,),
        "polynomials.fit_recurrence": ([1, 1, 2, 3, 5, 8, 13, 21, 34, 55],),
        "polynomials.series_expand": (RationalGF(IntPoly((1,)), IntPoly((1, -1))), 6),
        "necklaces.enumerate_necklaces": (1, 6),
        "reduction.simplify": (path,),
        "reduction.replay_trace": (path, simplify(path).state.trace),
    }
    tracer = _benchmark_tracer()
    counted = {f"{module}.{fname}": counts for module, functions in tracer.TRACED.items()
               for fname, counts in functions.items() if counts}
    assert set(counted) == set(calls)
    for name, args in calls.items():
        module, fname = name.split(".")
        fn = getattr(importlib.import_module(f"hardsquares.{module}"), fname)
        bound = inspect.signature(fn).bind(*args)
        bound.apply_defaults()
        result = fn(*args)
        for counter, measure in counted[name].items():
            assert measure(bound.arguments, result) >= 0, f"{name}.{counter}"
    # install's distinct-argument key of pattern_gf reads its argument p; a
    # key that fails makes the traced command exit 3
    src = str(Path(hardsquares.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(TRACER), "cli", "genfun", "-n", "6"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["exit"] == 0, proc.stderr
    assert doc["counters"]["genfun.pattern_gf.distinct"] > 0
    assert doc["counters"]["polynomials.fit_recurrence.terms"] > 0
    assert doc["counters"]["patterns.initial_patterns.terms"] > 0


def test_benchmark_traced_necklace_kernel_names_are_live():
    # the tracer books the necklace step, canonical form and pattern builder
    # under these names; a kernel behind other names would read 0 calls
    src = str(Path(hardsquares.__file__).resolve().parents[1])
    calls = {}
    for argv in (["necklace", "cycles", "-k", "2", "-n", "12"],
                 ["verify", "correspondence", "--nmax", "8"]):
        proc = subprocess.run(
            [sys.executable, str(TRACER), "cli", *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["exit"] == 0, argv
        for name, count in doc["calls"].items():
            calls[name] = calls.get(name, 0) + count
    for name in ("transform", "canonicalize", "pattern_of_necklace"):
        assert calls[f"necklaces.{name}"] > 0, name
