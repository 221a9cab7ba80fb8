"""The benchmark's workloads: fixed command lists, ordered by the seed.

A command is ``("cli", argv)`` for ``python3 -m hardsquares.cli <argv>`` or
``("sweep", argv)`` for ``python3 perfbench/sweep.py <argv>``.  ``{seed}`` in
an argument is replaced by the benchmark seed; every such command prints
the same bytes for every seed, so one expected digest covers them all.
Sizes never depend on the seed.
"""

from __future__ import annotations

from random import Random
from typing import List, Tuple

Command = Tuple[str, Tuple[str, ...]]


def _cli(text: str) -> Command:
    return ("cli", tuple(text.split()))


WORKLOADS = {
    # The graphs transfer kernel: symmetric cylinder, torus trace, free grid
    # without rotation symmetry, a narrow-tall ring, and table1's 169 small
    # calls.
    "index": [
        _cli("witten --family cylinder -m 20 -n 16"),
        _cli("witten --family torus -m 12 -n 10"),
        _cli("witten --family free -m 16 -n 16"),
        _cli("witten --family cylinder -m 400 -n 8"),
        _cli("table1"),
    ],
    # The pattern route (successor walk, validation, RationalGF arithmetic)
    # and the odd-n fitted route.
    "genfun": [_cli(f"genfun -n {n}") for n in range(2, 13, 2)] + [
        _cli("genfun -n 14 --bound-n 14"),
        _cli("genfun -n 13 --format json"),
    ],
    # Necklace enumeration, canonicalisation, the step T and output
    # formatting; no transfer kernel.
    "necklace": [
        _cli("necklace cycles -n 28 -k 3"),
        _cli("necklace cycles -n 28 -k 4"),
        _cli("necklace cycles -n 28 -k 5"),
        _cli("necklace -k 3 -n 24 dot"),
        _cli("necklace -k 4 -n 24 enumerate --format json"),
        _cli("verify correspondence --nmax 22"),
    ],
    # Many small calls reusing caches across layers, the brute oracle, and
    # the reduction engine, which no CLI command reaches.
    "verify": [
        _cli("verify all --seed {seed}"),
        _cli("verify identities -m 30 --nmax 16 --seed {seed}"),
        ("sweep", ("--seed", "{seed}")),
    ],
}


def label(cmd: Command) -> str:
    """Seed-free name of a command, the key of its expected result."""
    kind, argv = cmd
    prog = "hardsquares" if kind == "cli" else "perfbench/sweep.py"
    return " ".join((prog,) + argv)


def with_seed(cmd: Command, seed: int) -> Command:
    kind, argv = cmd
    return kind, tuple(a.format(seed=seed) for a in argv)


def commands(workload: str, seed: int) -> List[Command]:
    """The workload's commands, in an order drawn from the seed."""
    cmds = list(WORKLOADS[workload])
    Random(seed).shuffle(cmds)
    return cmds
