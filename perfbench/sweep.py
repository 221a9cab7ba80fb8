"""Reduction certificate sweep through the public reduction API.

For each input graph and each chosen vertex pair (u, v) it takes the edge
residue, simplifies it, replays the recorded trace from scratch and checks
the certified index against the brute-force oracle.  Inputs are small
cylinders plus seeded random graphs; the number of graphs and pairs is
fixed, so the printed summary does not depend on the seed.

    python3 perfbench/sweep.py --seed 7
"""

from __future__ import annotations

import argparse
import sys
from random import Random

from hardsquares.graphs import Graph, GridSpec, build_grid, witten_brute
from hardsquares.reduction import replay_trace, residue_edge, simplify

CYLINDERS = [(m, n) for m in range(2, 8) for n in range(3, 11)]
RANDOM_GRAPHS = 100
PAIRS_PER_GRAPH = 4


def random_graph(rng: Random, vertices: int) -> Graph:
    # Not tests/helpers.random_graph: the benchmark's inputs must not change
    # when the tests do.
    edges = []
    for u in range(vertices):
        if rng.random() < 0.05:
            edges.append((u, u))
        for v in range(u + 1, vertices):
            if rng.random() < 0.3:
                edges.append((u, v))
    return Graph(range(vertices), edges)


def sweep(seed: int) -> int:
    rng = Random(seed)
    graphs = [build_grid(GridSpec("cylinder", m, n)) for m, n in CYLINDERS]
    graphs += [random_graph(rng, rng.randint(10, 22)) for _ in range(RANDOM_GRAPHS)]
    cases = mismatches = 0
    for g in graphs:
        verts = sorted(g.vertices)
        for _ in range(PAIRS_PER_GRAPH):
            h = residue_edge(g, (rng.choice(verts), rng.choice(verts)))
            verdict = simplify(h)
            state = replay_trace(h, verdict.state.trace)
            cases += 1
            if state != verdict.state or state.witten() != witten_brute(h):
                mismatches += 1
    print(f"reduction-sweep: {len(graphs)} graphs, {cases} residues, "
          f"{mismatches} mismatches")
    return 1 if mismatches else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    return sweep(parser.parse_args(argv).seed)


if __name__ == "__main__":
    sys.exit(main())
