"""Traced run of one benchmark command, in a fresh interpreter.

    python3 perfbench/tracer.py cli witten --family torus -m 12 -n 10
    python3 perfbench/tracer.py sweep --seed 7

The tracer wraps the public functions listed in ``TRACED`` from outside the
program.  Every binding that refers to such a function is replaced, in the
defining module and in every module that imported it by name (``from .graphs
import column_series`` in ``genfun`` makes a second binding), so calls
across modules are seen too.  Each call records a span (name, start, end,
parent) in flat in-memory arrays; at the end the spans are reduced to calls
and self time per function, where self time is the span's duration minus
the time covered by its child spans.

The command's stdout is captured and digested, and one JSON object with the
exit status, the digest and the per-function figures is printed as the only
line of the real stdout.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import io
import json
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional

# module -> traced public functions.  Counters beyond calls and self time:
# what each call adds to "<module>.<function>.<counter>".
TRACED: Dict[str, Dict[str, Dict[str, Callable]]] = {
    "graphs": {
        "witten_transfer": {},
        "column_series": {"terms": lambda a, r: len(r)},
        "witten_brute": {},
        "verify_index_identities": {},
    },
    "patterns": {
        "z_pattern_series": {"terms": lambda a, r: len(r)},
        "initial_patterns": {"terms": lambda a, r: len(r.terms)},
        "canonicalize": {},
        "is_proper": {},
        "enumerate_proper": {"classes": lambda a, r: len(r)},
    },
    "genfun": {
        "pattern_gf": {},
        "cylinder_gf": {},
        "fitted_cylinder_gf": {},
        "periodicity_report": {},
        "check_block_count_denominator": {},
    },
    "polynomials": {
        "fit_recurrence": {"terms": lambda a, r: len(a["seq"])},
        "series_expand": {"terms": lambda a, r: len(r)},
        "poly_gcd": {},
        "factor_cyclotomic": {},
    },
    "necklaces": {
        "enumerate_necklaces": {"classes": lambda a, r: len(r)},
        "canonicalize": {},
        "transform": {},
        "cycle_structure": {},
        "cycle_length_lcm": {},
        "check_correspondence": {},
        "pattern_of_necklace": {},
        "necklace_of_pattern": {},
    },
    "reduction": {
        "simplify": {"steps": lambda a, r: len(r.state.trace)},
        "replay_trace": {"steps": lambda a, r: len(r.trace)},
    },
    "cli": {
        "main": {},
    },
}

# Functions whose distinct arguments are counted, keyed by the same value the
# program caches on.  distinct / calls is the cache-reuse ratio.
DISTINCT = ("genfun.pattern_gf", "necklaces.cycle_structure",
            "necklaces.cycle_length_lcm")

# Functions that count the calls that raised.
COUNT_FAILED = ("polynomials.fit_recurrence",)

MODULES = tuple(TRACED)


def layer_metrics() -> List[tuple]:
    """The per-layer metrics a traced run reports, as (name, unit)."""
    out = []
    for module, functions in TRACED.items():
        for fname, counts in functions.items():
            name = f"{module}.{fname}"
            out.append((f"{name}.calls", "count"))
            out += [(f"{name}.{counter}", "count") for counter in counts]
            if name in DISTINCT:
                out.append((f"{name}.distinct", "count"))
            if name in COUNT_FAILED:
                out.append((f"{name}.failed", "count"))
            out.append((f"{name}.self_s", "s"))
    out.append(("cli.stdout_bytes", "bytes"))
    out += [(f"layer.{m}.self_s", "s") for m in MODULES]
    out.append(("trace.overhead_s", "s"))
    return out


class Tracer:
    """Spans in flat arrays: name id, parent span index, start, end."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: List[int] = []
        self.counters: Dict[str, int] = {}
        self.keys: Dict[str, set] = {name: set() for name in DISTINCT}

    def wrap(self, fn: Callable, name: str, counts: Dict[str, Callable],
             key: Optional[Callable]) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        sig = inspect.signature(fn)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self.stack
        counters = self.counters
        seen = self.keys.get(name)
        failed = name in COUNT_FAILED
        clock = time.perf_counter

        def bound_args(a, k):
            b = sig.bind(*a, **k)
            b.apply_defaults()
            return b.arguments

        @functools.wraps(fn)
        def traced(*a, **k):
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(clock())
            try:
                result = fn(*a, **k)
            except Exception:
                if failed:
                    counters[f"{name}.failed"] = counters.get(f"{name}.failed", 0) + 1
                raise
            finally:
                span_end[idx] = clock()
                stack.pop()
            if counts or seen is not None:
                args = bound_args(a, k)
                for counter, measure in counts.items():
                    full = f"{name}.{counter}"
                    counters[full] = counters.get(full, 0) + measure(args, result)
                if seen is not None:
                    seen.add(key(args) if key else tuple(args.values()))
            return result

        return traced

    def summary(self) -> dict:
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        cover = [0.0] * n
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                cover[parent] += dur[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            calls[nid] += 1
            self_s[nid] += dur[i] - cover[i]
        counters = dict(self.counters)
        for name, seen in self.keys.items():
            counters[f"{name}.distinct"] = len(seen)
        return {
            "calls": dict(zip(self.names, calls)),
            "self_s": dict(zip(self.names, self_s)),
            "counters": counters,
        }


def install(tracer: Tracer, namespaces: List[object]) -> None:
    """Wrap every traced function and rebind every name that refers to it."""
    import hardsquares
    from hardsquares import cli, patterns  # noqa: F401  (loads every module)

    def pattern_class(args):
        p = args["p"]
        return original_canonicalize(p) if isinstance(p, patterns.Pattern) else p

    original_canonicalize = patterns.canonicalize
    keys = {"genfun.pattern_gf": pattern_class}
    spaces = [hardsquares] + [getattr(hardsquares, m) for m in MODULES]
    spaces += namespaces
    for module, functions in TRACED.items():
        home = getattr(hardsquares, module)
        for fname, counts in functions.items():
            name = f"{module}.{fname}"
            original = getattr(home, fname)
            wrapper = tracer.wrap(original, name, counts, keys.get(name))
            for space in spaces:
                for attr, value in list(vars(space).items()):
                    if value is original:
                        setattr(space, attr, wrapper)


def run_traced(kind: str, argv: List[str]) -> dict:
    """Run one command in this process under the tracer and summarise it."""
    import sweep
    from hardsquares import cli

    tracer = Tracer()
    install(tracer, [sweep])
    entry = cli.main if kind == "cli" else sweep.main
    real_stdout = sys.stdout
    sys.stdout = captured = io.StringIO()
    t0 = time.perf_counter()
    try:
        code = entry(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout = real_stdout
    wall = time.perf_counter() - t0
    out = captured.getvalue().encode()
    result = tracer.summary()
    result.update({
        "module": sys.modules["hardsquares"].__file__,
        "exit": code,
        "sha256": hashlib.sha256(out).hexdigest(),
        "stdout_bytes": len(out),
        "wall_s": wall,
    })
    return result


if __name__ == "__main__":
    print(json.dumps(run_traced(sys.argv[1], sys.argv[2:])))
