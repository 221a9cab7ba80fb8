"""Command-line front end for the hard-squares index toolkit.

Subcommands:

* ``witten``   print one Witten index for a grid family member.
* ``table1``   emit the cylinder index table (rows m, columns n) as text,
               CSV (diffable against the shipped golden file) or JSON.
* ``genfun``   print the column generating function of a circumference with
               the denominator factored into cyclotomic polynomials.
* ``necklace`` enumerate stone arrangements, report the cycle structure of
               the rotation step, export the transition graph as DOT, or
               sweep the cycle-length divisibility check.
* ``verify``   run a named verification sweep (identities, conjectures,
               correspondence, or all of them).

Exit status is 0 when every requested computation and check succeeded, 1
when a verification check failed (failures are listed in the output, one
line per failing instance) or an internal consistency check failed (one
"FAIL internal consistency:" line on stderr; a rewrite rule refused in a
derivation is one, and so is any ValueError that is no refusal), 2 for
usage errors: argparse's, which print the misused subcommand's usage line (a
necklace option its action ignores is one), and the refusals
(errors.RequestRefusedError), each one "error:" line before any work
starts: a request above its row of BOUNDS, an --nmax or -m too small to
check anything, necklace -k pairs that do not fit on the -n circle
(4k > n), --format json for necklace dot, and the library's checks of a
grid size and of a necklace's stone pairs and circle length; 3 for any
other error, such as a KeyError or MemoryError, reported as one "internal
error:" line on stderr; and 141 (128 + SIGPIPE) with nothing on stderr when
the reader closes stdout before the output ends.

All output is deterministic: given the same arguments (and seed, for the
randomized spot checks) the bytes printed are identical between runs.
Every JSON document gets ``"schema": 1`` as its first key from _emit_json.
"""

from __future__ import annotations

import argparse
import sys
from itertools import islice
from random import Random
from typing import Dict, List, NamedTuple, Optional, Tuple

from .errors import ConsistencyError, FitInconclusiveError, RequestRefusedError
from .genfun import (
    check_block_count_denominator,
    check_denominator_form,
    cylinder_gf,
    fitted_cylinder_gf,
    periodicity_report,
)
from .graphs import (
    FAMILIES,
    GridSpec,
    column_series,
    disjoint_union,
    identity_instances,
    random_graph,
    transfer_width,
    verify_index_identities,
    witten_brute,
    witten_transfer,
)
from .necklaces import (
    cycle_structure,
    dot_transition_graph,
    enumerate_necklaces,
    format_cycle_structure,
    format_necklace,
    necklace_to_json_obj,
    check_correspondence,
    verify_cycle_divisibility,
)
from .patterns import enumerate_proper
from .polynomials import factor_cyclotomic, format_cyclotomic, format_poly

SCHEMA = 1

# The one size policy: the largest size each command accepts, in the size its
# work is exponential in (cold CLI medians of three, 2-core x86-64, Python
# 3.11).  --bound-n replaces its command's row; the library computes whatever
# it is asked.
#   width:   row-mask width (witten, table1, genfun's fit, verify identities);
#            cylinder 20x18 ~0.12 s, free 18x18 ~0.26 s, torus 18x18 ~6.5 s
#   pattern: pattern-route circumference (even genfun, verify conjectures);
#            genfun -n 16 ~0.30 s, -n 18 ~1.2 s
#   circle:  necklace circle length (necklace, verify correspondence)
BOUNDS = {"width": 18, "pattern": 16, "circle": 28}

# The sweeps' --nmax defaults, which --help prints: necklace verify's, and
# per verify suite its --nmax floor (below it no circumference is swept),
# its BOUNDS row and its default.
_NECKLACE_NMAX = 24
_SUITES = {"identities": (0, "width", 14),
           "conjectures": (2, "pattern", 12),
           "correspondence": (4, "circle", 14)}

# Encoder chunks per write of a JSON document.  No chunk is empty, so an
# empty slab is the end.
_SLAB = 4096


class CheckResult(NamedTuple):
    """Outcome of one verification instance."""

    check: str
    params: Dict[str, object]
    ok: bool
    detail: str = ""

    def describe(self) -> str:
        bits = " ".join(f"{k}={v}" for k, v in self.params.items())
        tail = f": {self.detail}" if self.detail else ""
        return f"{self.check} {bits}{tail}"


def _emit_json(obj: dict) -> None:
    """Write obj as one indented JSON document, "schema" first.

    The encoder's chunks go out in slabs of _SLAB, so neither the chunk
    list nor the whole document is ever held at once; the bytes are those
    of json.dumps(..., indent=2), which joins the same encoder's chunks.
    """
    import json  # only JSON output pays for the import

    chunks = json.JSONEncoder(indent=2).iterencode({"schema": SCHEMA, **obj})
    write = sys.stdout.write
    while slab := "".join(islice(chunks, _SLAB)):
        write(slab)
    write("\n")


def _report(suite: str, results: List[CheckResult], infos: List[str],
            fmt: str) -> int:
    failures = [r for r in results if not r.ok]
    if fmt == "json":
        _emit_json({
            "suite": suite,
            "checks": len(results),
            "failures": [
                {"check": r.check, "params": r.params, "detail": r.detail}
                for r in failures
            ],
            "info": infos,
            "ok": not failures,
        })
    else:
        for r in failures:
            print(f"FAIL {r.describe()}")
        for line in infos:
            print(f"info {line}")
        print(f"{suite}: {len(results) - len(failures)} of "
              f"{len(results)} checks passed")
        print("fail" if failures else "pass")
    return 1 if failures else 0


def _check_bound(what: str, value: int, *rows: str,
                 override: Optional[int] = None) -> None:
    """Refuse a value above the least of its BOUNDS rows, or above override."""
    bound = override if override is not None else min(BOUNDS[r] for r in rows)
    if value > bound:
        raise RequestRefusedError(f"{what} {value} exceeds the bound {bound}")


def _check_nmax(nmax: int, floor: int, *rows: str,
                override: Optional[int] = None) -> None:
    """Refuse a sweep that is too large, or that would check nothing."""
    _check_bound("--nmax", nmax, *rows, override=override)
    if nmax < floor:
        raise RequestRefusedError(f"--nmax {nmax} is below {floor}, where a sweep "
                                  f"would check no circumference")


# -- witten ----------------------------------------------------------------

def cmd_witten(args: argparse.Namespace) -> int:
    spec = GridSpec(args.family, args.m, args.n)
    _check_bound("row-mask width", transfer_width(spec), "width", override=args.bound_n)
    value = witten_transfer(spec)
    if args.format == "json":
        _emit_json({
            "family": args.family,
            "m": args.m,
            "n": args.n,
            "witten_index": value,
        })
    else:
        print(value)
    return 0


# -- table1 ------------------------------------------------------------------

def cmd_table1(args: argparse.Namespace) -> int:
    GridSpec("cylinder", args.m, args.nmax)  # rejects negative sizes
    # every height pays one series per column, so --nmax is bounded at m = 0 too
    _check_bound("row-mask width", args.nmax, "width", override=args.bound_n)
    if args.nmax < 2:
        raise RequestRefusedError(f"--nmax {args.nmax} is below 2, where the table has no column")
    cols = list(range(2, args.nmax + 1))
    rows = list(range(0, args.m + 1))
    series = [column_series(n, args.m) for n in cols]
    table = {m: [s[m] for s in series] for m in rows}
    if args.format == "json":
        _emit_json({
            "family": "cylinder",
            "columns": cols,
            "rows": [{"m": m, "values": table[m]} for m in rows],
        })
        return 0
    header = ["m\\n"] + [str(n) for n in cols]
    lines = [header] + [[str(m)] + [str(z) for z in table[m]] for m in rows]
    if args.format == "csv":
        for cells in lines:
            print(",".join(cells))
        return 0
    widths = [max(len(cells[i]) for cells in lines) for i in range(len(header))]
    for cells in lines:
        print("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
    return 0


# -- genfun ------------------------------------------------------------------

def cmd_genfun(args: argparse.Namespace) -> int:
    if args.n >= 2 and args.n % 2 == 0:
        _check_bound("circumference", args.n, "pattern", override=args.bound_n)
        gf = cylinder_gf(args.n)
        route = "pattern"
    else:  # odd n and n = 0 take the fit; GridSpec refuses a negative n
        _check_bound("row-mask width", transfer_width(GridSpec("cylinder", 1, args.n)),
                     "width", override=args.bound_n)
        gf = fitted_cylinder_gf(args.n)
        route = "fitted"
    factors, remainder = factor_cyclotomic(gf.den)
    if args.format == "json":
        _emit_json({
            "n": args.n,
            "route": route,
            "numerator": list(gf.num.coeffs),
            "denominator": list(gf.den.coeffs),
            "denominator_cyclotomic": sorted(factors.items()),
            "denominator_remainder": list(remainder.coeffs),
        })
    else:
        print(f"f_{args.n}(t) = ({format_poly(gf.num)}) / "
              f"({format_cyclotomic(factors, remainder)})")
    return 0


# -- necklace ----------------------------------------------------------------

def _cycle_divisibility(n: int) -> List[CheckResult]:
    return [CheckResult("cycle_divisibility", {"k": k, "n": n},
                        verify_cycle_divisibility(k, n))
            for k in range(1, n // 4 + 1)]


def cmd_necklace(args: argparse.Namespace) -> int:
    if args.action == "verify":
        if args.k is not None or args.n is not None:
            args.parser.error("necklace verify sweeps up to --nmax; -k and -n do not apply")
        nmax = args.nmax if args.nmax is not None else _NECKLACE_NMAX
        _check_nmax(nmax, 4, "circle", override=args.bound_n)
        results = [r for n in range(4, nmax + 1, 2) for r in _cycle_divisibility(n)]
        return _report("necklace-verify", results, [], args.format)

    if args.k is None or args.n is None:
        args.parser.error(f"necklace {args.action} requires both -k and -n")
    if args.nmax is not None:
        args.parser.error(f"--nmax applies to necklace verify only, not {args.action}")
    _check_bound("circle length", args.n, "circle", override=args.bound_n)
    if 1 <= args.n < 4 * args.k:  # -k 0 and -n 0 keep the library's message
        raise RequestRefusedError(f"-k {args.k} needs a circle length of at least {4 * args.k}")
    if args.action == "dot":
        if args.format == "json":
            raise RequestRefusedError("necklace dot prints DOT; --format json does not apply")
        sys.stdout.write(dot_transition_graph(args.k, args.n) + "\n")
        return 0
    if args.action == "cycles":
        structure = cycle_structure(args.k, args.n)
        if args.format == "json":
            _emit_json({
                "k": args.k,
                "n": args.n,
                "cycles": sorted(structure.items()),
            })
        else:
            print(format_cycle_structure(structure))
        return 0
    classes = enumerate_necklaces(args.k, args.n)
    if args.format == "json":
        _emit_json({
            "k": args.k,
            "n": args.n,
            "count": len(classes),
            "classes": [necklace_to_json_obj(neck) for neck in classes],
        })
    else:
        for neck in classes:
            print(format_necklace(neck))
    return 0


# -- verify ------------------------------------------------------------------

def _suite_identities(m_max: int, n_max: int, seed: int) -> List[CheckResult]:
    results = [CheckResult(
        "index_identity", {"identity": name, "family": family, "m": m, "n": n},
        lhs == rhs, f"lhs={lhs} rhs={rhs}")
        for name, family, m, n, lhs, rhs in verify_index_identities(m_max, n_max)]
    rng = Random(seed)
    for case in range(40):
        g = random_graph(rng, 10)
        v = rng.choice(sorted(g.vertices))
        zg = witten_brute(g)  # the vertex rule's lhs and a union factor
        nv, rhs = g.neighbor_mask(v), witten_brute(g.without_vertices(1 << v))
        if not nv >> v & 1:  # a looped v joins no independent set
            rhs -= witten_brute(g.without_vertices(nv | 1 << v))
        results.append(CheckResult("random_vertex_rule", {"case": case},
                                   zg == rhs, f"lhs={zg} rhs={rhs}"))
        h = random_graph(rng, 6)
        lhs = witten_brute(disjoint_union(g, h))
        rhs = zg * witten_brute(h)
        results.append(CheckResult("random_union_rule", {"case": case},
                                   lhs == rhs, f"lhs={lhs} rhs={rhs}"))
    return results


def _suite_conjectures(n_max: int) -> Tuple[List[CheckResult], List[str]]:
    results, infos = [], []
    for n in range(2, n_max + 1, 2):
        gf = cylinder_gf(n)
        rep = periodicity_report(n, gf)  # the one cyclotomic split of f_n
        results.append(CheckResult("roots_of_unity", {"n": n}, rep.remainder_ok))
        results.append(CheckResult(
            "denominator_form", {"n": n}, check_denominator_form(n, gf),
            "reduced denominator must divide the conjectured product"))
        if n % 4 == 2:
            results.append(CheckResult(
                "periodicity", {"n": n}, rep.period is not None,
                f"period={rep.period}"))
            infos.append(f"periodicity n={n}: period={rep.period}")
        else:
            results.append(CheckResult(
                "periodicity", {"n": n}, rep.max_multiplicity <= 2,
                f"max_multiplicity={rep.max_multiplicity}"))
            infos.append(f"periodicity n={n}: linear growth, "
                         f"max_multiplicity={rep.max_multiplicity}")
        results.extend(_cycle_divisibility(n))
        for p in enumerate_proper(n):
            results.append(CheckResult(
                "block_count_denominator", {"n": n, "pattern": str(p)},
                check_block_count_denominator(p)))
    return results, infos


def _suite_correspondence(n_max: int) -> List[CheckResult]:
    return [CheckResult("pattern_correspondence", {"n": n}, check_correspondence(n))
            for n in range(4, n_max + 1, 2)]


def cmd_verify(args: argparse.Namespace) -> int:
    chosen = [s for s in _SUITES if args.suite in (s, "all")]
    if args.nmax is not None:
        _check_nmax(args.nmax, max(_SUITES[s][0] for s in chosen),
                    *(_SUITES[s][1] for s in chosen))
    nmax = {s: _SUITES[s][2] if args.nmax is None else args.nmax for s in chosen}
    if "identities" in nmax and not any(identity_instances(args.m, nmax["identities"])):
        raise RequestRefusedError(f"-m {args.m} and --nmax {nmax['identities']} leave "
                                  f"no identity instance to check")
    results, infos = [], []
    if "identities" in nmax:
        results.extend(_suite_identities(args.m, nmax["identities"], args.seed))
    if "conjectures" in nmax:
        sub, infos = _suite_conjectures(nmax["conjectures"])
        results.extend(sub)
    if "correspondence" in nmax:
        results.extend(_suite_correspondence(nmax["correspondence"]))
    return _report(args.suite, results, infos, args.format)


# -- wiring --------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardsquares",
        description="Witten indices of hard squares on grids, cylinders "
                    "and tori.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "witten", help="print the Witten index of one grid family member")
    p.add_argument("--family", choices=FAMILIES,
                   default="cylinder", help="grid family (default %(default)s)")
    p.add_argument("-m", type=int, required=True, help="number of rows")
    p.add_argument("-n", type=int, required=True,
                   help="number of columns (cyclic for cylinder and torus)")
    p.add_argument("--bound-n", type=int, default=None,
                   help=f"largest row-mask width accepted (default {BOUNDS['width']})")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_witten)

    p = sub.add_parser(
        "table1", help="emit the cylinder index table (rows m, columns n)")
    p.add_argument("-m", type=int, default=12,
                   help="largest row count (default %(default)s)")
    p.add_argument("--nmax", type=int, default=14,
                   help="largest circumference, columns start at 2 "
                        "(default %(default)s)")
    p.add_argument("--bound-n", type=int, default=None,
                   help=f"largest row-mask width accepted (default {BOUNDS['width']})")
    p.add_argument("--format", choices=("text", "csv", "json"),
                   default="text")
    p.set_defaults(handler=cmd_table1)

    p = sub.add_parser(
        "genfun", help="print the column generating function for one "
                       "circumference")
    p.add_argument("-n", type=int, required=True, help="circumference")
    p.add_argument("--bound-n", type=int, default=None,
                   help=f"largest circumference accepted (default {BOUNDS['pattern']}"
                        f" for even n >= 2, {BOUNDS['width']} for odd n and n = 0)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_genfun)

    p = sub.add_parser(
        "necklace", help="stone arrangements and their rotation dynamics")
    p.add_argument("action",
                   choices=("enumerate", "cycles", "dot", "verify"),
                   help="what to report")
    p.add_argument("-k", type=int, default=None, help="number of stone pairs")
    p.add_argument("-n", type=int, default=None, help="circle length")
    p.add_argument("--nmax", type=int, default=None,
                   help="largest circle length for the verify sweep "
                        f"(default {_NECKLACE_NMAX})")
    p.add_argument("--bound-n", type=int, default=None,
                   help=f"resource bound on the circle length (default {BOUNDS['circle']})")
    p.add_argument("--format", choices=("text", "json"),
                   default="text")
    p.set_defaults(handler=cmd_necklace, parser=p)  # its usage line for misuse

    p = sub.add_parser(
        "verify", help="run a verification sweep and exit nonzero on failure")
    p.add_argument("suite", choices=(*_SUITES, "all"), help="which sweep to run")
    p.add_argument("-m", type=int, default=20,
                   help="largest row count for the identity sweep "
                        "(default %(default)s)")
    p.add_argument("--nmax", type=int, default=None,
                   help="largest circumference (defaults: " + ", ".join(
                       f"{s} {default}" for s, (_, _, default) in _SUITES.items()) + ")")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the randomized spot checks (default %(default)s)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
        return code
    except BrokenPipeError:
        # The reader closed stdout early, which is no fault of the command.
        # Point stdout at the null device so the flush at shutdown is silent.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a killed writer
    except RequestRefusedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConsistencyError, FitInconclusiveError, ValueError) as exc:
        print(f"FAIL internal consistency: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
