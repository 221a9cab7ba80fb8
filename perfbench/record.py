"""Record the expected result of every benchmark command, and cross-check it.

    python3 perfbench/record.py           # compare fresh outputs with expected.json
    python3 perfbench/record.py --write   # write expected.json from fresh outputs

Every command runs as the benchmark runs it.  A command that takes the seed
runs under three seeds and must print the same bytes under each.  Before
anything is written or accepted, each output is checked against a route
that does not use the code path that produced it:

* indices: a small row-transfer written here, and brute force for small
  table cells;
* generating functions: the reference forms in ``tests/data/table2.txt``,
  and the printed f_n expanded here against ``column_series``;
* cycle structures: ``tests/data/table3.txt`` (for ``cycles``, and for the
  permutation read back from ``dot`` and the class count of ``enumerate``);
* verification suites: the expected summary lines, with exactly the one
  by-design failure (criterion 5, ``denominator_form n=4``) in ``verify all``.

Needs the repository's ``tests/data`` directory; the benchmark itself does not.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from typing import Dict, List, Tuple

import run
import workloads

DATA = run.ROOT / "tests" / "data"
SEEDS = (0, 1, 2)


# -- independent index oracle ---------------------------------------------------


def _row_states(n: int, cyclic: bool) -> List[int]:
    states = []
    for s in range(1 << n):
        if s & (s >> 1):
            continue
        if cyclic and n > 2 and s & 1 and s >> (n - 1) & 1:
            continue
        states.append(s)
    return states


class RowTransfer:
    """Signed independent-row vectors stepped through compatible rows."""

    def __init__(self, n: int, cyclic: bool) -> None:
        self.states = _row_states(n, cyclic)
        self.signs = [-1 if bin(s).count("1") % 2 else 1 for s in self.states]
        self.compat = [[i for i, a in enumerate(self.states) if not a & b]
                       for b in self.states]

    def step(self, v: List[int]) -> List[int]:
        return [sign * sum(v[i] for i in row)
                for sign, row in zip(self.signs, self.compat)]

    def column(self, mmax: int) -> List[int]:
        """Z of 0..mmax stacked rows (open at both ends)."""
        out, v = [1], list(self.signs)
        for _ in range(mmax):
            out.append(sum(v))
            v = self.step(v)
        return out

    def torus(self, m: int) -> int:
        total = 0
        for s, sign in enumerate(self.signs):
            v = [0] * len(self.states)
            v[s] = sign
            for _ in range(m - 1):
                v = self.step(v)
            total += sum(v[i] for i in self.compat[s])
        return total


def witten_oracle(family: str, m: int, n: int) -> int:
    if family == "torus":
        return RowTransfer(n, cyclic=True).torus(m)
    m, n = (max(m, n), min(m, n)) if family == "free" else (m, n)
    return RowTransfer(n, cyclic=family == "cylinder").column(m)[m]


# -- series arithmetic for the printed generating functions --------------------


def _poly_mul(a: List[int], b: List[int]) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_div_exact(a: List[int], b: List[int]) -> List[int]:
    a, q = list(a), [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        q[i], r = divmod(a[i + len(b) - 1], b[-1])
        if r:
            raise ValueError("inexact polynomial division")
        for j, y in enumerate(b):
            a[i + j] -= q[i] * y
    if any(a):
        raise ValueError("inexact polynomial division")
    return q


def cyclotomic(d: int) -> List[int]:
    poly = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            poly = _poly_div_exact(poly, cyclotomic(e))
    return poly


def cyclotomic_product(factors: Dict[int, int]) -> List[int]:
    out = [1]
    for order, mult in factors.items():
        for _ in range(mult):
            out = _poly_mul(out, cyclotomic(order))
    return out


def expand(num: List[int], den: List[int], terms: int) -> List[int]:
    out = []
    for k in range(terms):
        acc = num[k] if k < len(num) else 0
        acc -= sum(den[j] * out[k - j] for j in range(1, min(k, len(den) - 1) + 1))
        q, r = divmod(acc, den[0])
        if r:
            raise ValueError("series has a non-integer coefficient")
        out.append(q)
    return out


def parse_poly(text: str) -> List[int]:
    coeffs: Dict[int, int] = {}
    text = text.replace(" ", "")
    if not text.startswith(("+", "-")):
        text = "+" + text
    pos = 0
    for match in re.finditer(r"([+-])(\d*)(t(?:\^(\d+))?)?", text):
        if match.start() != pos or match.end() == match.start() + 1:
            raise ValueError(f"cannot parse polynomial {text!r}")
        pos = match.end()
        sign, coeff, tpart, power = match.groups()
        c = int(coeff) if coeff else 1
        e = int(power) if power else (1 if tpart else 0)
        coeffs[e] = coeffs.get(e, 0) + (-c if sign == "-" else c)
    if pos != len(text):
        raise ValueError(f"cannot parse polynomial {text!r}")
    return [coeffs.get(e, 0) for e in range(max(coeffs) + 1)]


def parse_genfun(text: str) -> Tuple[int, List[int], Dict[int, int]]:
    match = re.fullmatch(r"f_(\d+)\(t\) = \((.*)\) / \((.*)\)\n", text)
    if not match:
        raise ValueError(f"cannot parse generating function {text!r}")
    factors: Dict[int, int] = {}
    for part in match.group(3).split(" * "):
        order, _, mult = part.removeprefix("Phi_").partition("^")
        factors[int(order)] = int(mult or 1)
    return int(match.group(1)), parse_poly(match.group(2)), factors


def reference_forms() -> Dict[int, Tuple[List[int], Dict[int, int]]]:
    forms = {}
    for line in (DATA / "table2.txt").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            n, num, den = line.split(";")
            factors = dict(tuple(map(int, item.split(":"))) for item in den.split(","))
            forms[int(n)] = ([int(c) for c in num.split(",")], factors)
    return forms


def golden_cycles() -> Dict[Tuple[int, int], str]:
    golden = {}
    for line in (DATA / "table3.txt").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            head, structure = line.split(";")
            n, k = map(int, head.split())
            golden[(k, n)] = structure.strip()
    return golden


def cycle_text(succ: Dict[str, str]) -> str:
    if sorted(succ.values()) != sorted(succ):
        raise ValueError("transition graph is not a permutation")
    lengths: Dict[int, int] = {}
    remaining = set(succ)
    while remaining:
        start = cur = remaining.pop()
        size = 1
        while succ[cur] != start:
            cur = succ[cur]
            remaining.discard(cur)
            size += 1
        lengths[size] = lengths.get(size, 0) + 1
    return " ".join(f"{s}^{c}" for s, c in sorted(lengths.items()))


# -- the cross-checks ------------------------------------------------------------


def check_output(label: str, code: int, out: str) -> List[str]:
    """Problems found in one command's output by an independent route."""
    from hardsquares.graphs import GridSpec, build_grid, column_series, witten_brute

    argv = label.split()[1:]
    problems = []

    def expect(cond: bool, what: str) -> None:
        if not cond:
            problems.append(what)

    def flag(name: str) -> str:
        return argv[argv.index(name) + 1]

    if argv[0] == "witten":
        family, m, n = flag("--family"), int(flag("-m")), int(flag("-n"))
        expect(code == 0, "exit status")
        expect(int(out) == witten_oracle(family, m, n), "row-transfer oracle")
        if family == "cylinder" and n in reference_forms():
            num, factors = reference_forms()[n]
            expect(int(out) == expand(num, cyclotomic_product(factors), m + 1)[m],
                   "table2 series")
    elif argv[0] == "table1":
        expect(code == 0, "exit status")
        lines = [line.split() for line in out.splitlines()]
        cols = [int(c) for c in lines[0][1:]]
        oracle = {n: RowTransfer(n, cyclic=True).column(len(lines)) for n in cols}
        for cells in lines[1:]:
            m = int(cells[0])
            for n, value in zip(cols, map(int, cells[1:])):
                expect(value == oracle[n][m], f"row-transfer oracle at m={m} n={n}")
                if m * n <= 30:
                    brute = witten_brute(build_grid(GridSpec("cylinder", m, n)))
                    expect(value == brute, f"brute force at m={m} n={n}")
    elif argv[0] == "genfun":
        expect(code == 0, "exit status")
        if "json" in argv:
            doc = json.loads(out)
            n, num, den = doc["n"], doc["numerator"], doc["denominator"]
            factors = dict(doc["denominator_cyclotomic"])
            expect(doc["denominator_remainder"] == [1], "cyclotomic denominator")
            prod = cyclotomic_product(factors)
            expect(prod == den or prod == [-c for c in den], "factored denominator")
        else:
            n, num, factors = parse_genfun(out)
            den = cyclotomic_product(factors)
            if n in reference_forms():
                expect((num, factors) == reference_forms()[n], "table2 form")
        expect(expand(num, den, 60) == column_series(n, 59), "column_series")
    elif argv[0] == "necklace":
        golden = golden_cycles()
        k, n = int(flag("-k")), int(flag("-n"))
        expect(code == 0, "exit status")
        if "cycles" in argv:
            expect(out == golden[(k, n)] + "\n", "table3 cycle structure")
        elif "dot" in argv:
            edges = re.findall(r'^  "(.*)" -> "(.*)";$', out, re.M)
            expect(cycle_text(dict(edges)) == golden[(k, n)],
                   "table3 cycle structure of the transition graph")
        else:
            doc = json.loads(out)
            total = sum(int(size) * int(count) for size, count in
                        (part.split("^") for part in golden[(k, n)].split()))
            keys = {json.dumps(c, sort_keys=True) for c in doc["classes"]}
            expect(doc["count"] == len(doc["classes"]) == len(keys) == total,
                   "table3 class count")
    elif argv[:2] == ["verify", "all"]:
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        expect(code == 1 and out.endswith("\nfail\n"), "exit status")
        expect(fails == ["FAIL denominator_form n=4: reduced denominator must "
                         "divide the conjectured product"],
               "exactly the by-design criterion 5 failure")
    elif argv[0] == "verify":
        expect(code == 0 and out.endswith("\npass\n"), "suite passes")
        passed, total = re.search(r"(\d+) of (\d+) checks passed", out).groups()
        expect(passed == total, "every check passed")
    else:
        expect(code == 0 and out.endswith(" 0 mismatches\n"),
               "sweep certificates agree with brute force")
    return problems


def fresh_outputs() -> Dict[str, Tuple[int, bytes]]:
    results: Dict[str, Tuple[int, bytes]] = {}
    for cmds in workloads.WORKLOADS.values():
        for template in cmds:
            seeded = any("{seed}" in a for a in template[1])
            runs = set()
            for seed in SEEDS if seeded else SEEDS[:1]:
                res = run.spawn(run.command_argv(workloads.with_seed(template, seed)),
                                run.COMMAND_TIMEOUT_S)
                runs.add((res.code, res.out))
            if len(runs) != 1:
                raise SystemExit(f"{workloads.label(template)}: output depends on the seed")
            results[workloads.label(template)] = runs.pop()
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="write expected.json instead of comparing with it")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))

    problems = []
    record = {}
    for label, (code, out) in fresh_outputs().items():
        record[label] = {"exit": code, "sha256": hashlib.sha256(out).hexdigest(),
                         "bytes": len(out)}
        found = check_output(label, code, out.decode())
        problems += [f"{label}: {p}" for p in found]
        print(f"{'ok  ' if not found else 'FAIL'} {label}")
    if not args.write:
        expected = json.loads(run.EXPECTED.read_text())
        for label, want in expected.items():
            if record.get(label) != want:
                problems.append(f"{label}: differs from expected.json")
    for p in problems:
        print(f"FAIL {p}")
    if problems:
        return 1
    if args.write:
        run.EXPECTED.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"{len(record)} commands checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
