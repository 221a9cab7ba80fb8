"""Acceptance criteria.

Each test prints one `criterion NN <label>: PASS/FAIL` line (run pytest
with -s to see the lines for passing criteria as well) and enforces the
stated scope, tolerance (exact integer equality throughout) and, where
given, the runtime budget.

No criterion fails by design: every failure here is a regression.  Two
points of the reference data and of the conjectures are settled as
follows, and a companion test pins each:

* criterion 1: the stored cylinder index table holds -1 at (m=6, n=6).
  It once stored 1 there, a dropped sign: direct enumeration of the
  36-vertex graph, the transfer computation, and the t^6 coefficient of
  the stored circumference-6 reduced form (tests/data/table2.txt) all
  give -1, and that cell was the only one where the two stored tables
  disagreed.
* criterion 5: the conjectured denominator product is checked as the
  genfun module documents it.  It clears every pole for circumferences
  2, 6, 8, 10 and 12 (and, in the companion test, 14 and 16).  At
  circumference 4 it is the empty product times
  (1 - t^2) = Phi_1 Phi_2, while f_4 has the denominator Phi_1 Phi_2^2, a
  double pole at t = -1; the product lacks exactly one factor Phi_2.

Criteria at a glance:
 1. transfer indices against the stored reference table, < 5 s.
 2. brute-force and transfer agree on all three families, m*n <= 20, < 60 s.
 3. assembled generating functions equal the stored reduced forms and the
    independently fitted recurrences for even circumferences 2..12, < 10 min.
 4. every denominator zero is a complex root of unity (even n <= 12).
 5. conjectured denominator product clears all poles for n = 2, 6, 8, 10,
    12, and at n = 4 lacks exactly one Phi_2 of the stored f_4 denominator.
 6. reduced series periods are 4, 12, 56 at circumferences 2, 6, 10
    and 880 at 14.
 7. cycle structures of the arrangement step match the stored table for
    n <= 20, all pair counts, < 5 min.
 8. every cycle length divides n - 3k for even n <= 24 (36 extended).
 9. closed-form cycle structures for one pair, for n = 4k, and for
    n = 4k + 2, through n = 24.
10. the arrangement/pattern correspondence identities hold for n <= 14.
11. all ten index identities hold for m <= 20, n <= 14.
12. property suites: index additivity and multiplicativity on 500 random
    graphs (<= 12 vertices), the pattern calculus identities on all proper
    patterns of length <= 8 with heights 2..8, and reduction certificate
    soundness on 500 random graphs (<= 16 vertices).
"""

from random import Random
from time import perf_counter

from hardsquares.genfun import (
    check_denominator_form,
    conjectured_denominator,
    cylinder_gf,
    fitted_cylinder_gf,
    periodicity_report,
)
from hardsquares.graphs import (
    GridSpec,
    build_grid,
    disjoint_union,
    verify_index_identities,
    witten_brute,
    witten_transfer,
)
from hardsquares.necklaces import (
    check_correspondence,
    cycle_structure,
    verify_cycle_divisibility,
)
from hardsquares.patterns import (
    block_count,
    delete_top,
    delete_top_neighborhood,
    enumerate_proper,
    is_proper,
    is_reducible,
    leftmost_block_middle,
    peel,
)
from hardsquares.polynomials import ONE, RationalGF, cyclotomic, series_expand
from hardsquares.reduction import replay_trace, simplify
from helpers import (
    EXTENDED,
    adjacency,
    load_golden_cycles,
    load_reduced_forms,
    random_graph,
    z_pattern,
)


def _criterion(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:2d} {label}: {status}{suffix}")
    assert ok, f"criterion {number} {label}: {status}{suffix}"


def _load_reference_table():
    from helpers import DATA

    lines = (DATA / "table1.csv").read_text().splitlines()
    columns = [int(c) for c in lines[0].split(",")[1:]]
    table = {}
    for line in lines[1:]:
        cells = line.split(",")
        m = int(cells[0])
        for n, cell in zip(columns, cells[1:]):
            table[(m, n)] = int(cell)
    return table


def _cyclotomic_product(factors):
    den = ONE
    for order, mult in factors.items():
        for _ in range(mult):
            den = den * cyclotomic(order)
    return den


def _stored_form(n):
    num, factors = load_reduced_forms()[n]
    return RationalGF(num, _cyclotomic_product(factors))


def test_criterion_01_reference_index_table():
    start = perf_counter()
    table = _load_reference_table()
    wrong = []
    for (m, n), stored in sorted(table.items()):
        computed = witten_transfer(GridSpec("cylinder", m, n))
        if computed != stored:
            wrong.append((m, n, stored, computed))
    elapsed = perf_counter() - start
    detail = f"{len(table)} cells, {elapsed:.1f}s"
    if wrong:
        detail += "; mismatches: " + ", ".join(
            f"(m={m}, n={n}) stored {s} computed {c}" for m, n, s, c in wrong)
    _criterion(1, "reference index table", not wrong and elapsed < 5.0, detail)


def test_reference_table_divergent_cell_is_a_dropped_sign():
    # pins why the stored cell (m=6, n=6) reads -1 and not the 1 it once
    # held: direct enumeration of the explicit graph and the stored
    # circumference-6 reduced form agree on -1, and with that cell every
    # even column of table1.csv is the expansion of its stored form in
    # table2.txt (the two data files only; no transfer computation)
    table = _load_reference_table()
    assert table[(6, 6)] == -1
    assert witten_brute(build_grid(GridSpec("cylinder", 6, 6))) == -1
    assert series_expand(_stored_form(6), 6)[6] == -1
    heights = sorted({m for m, _ in table})
    assert heights == list(range(len(heights)))
    for n in sorted({n for _, n in table if n % 2 == 0}):
        column = [table[(m, n)] for m in heights]
        assert series_expand(_stored_form(n), heights[-1]) == column, n


def test_criterion_02_brute_transfer_agreement():
    start = perf_counter()
    checked = 0
    ok = True
    for family in ("free", "cylinder", "torus"):
        for m in range(0, 21):
            for n in range(0, 21):
                if m * n > 20:
                    continue
                spec = GridSpec(family, m, n)
                if witten_transfer(spec) != witten_brute(build_grid(spec)):
                    ok = False
                checked += 1
    elapsed = perf_counter() - start
    _criterion(2, "brute force vs transfer", ok and elapsed < 60.0,
               f"{checked} grids, {elapsed:.1f}s")


def test_criterion_03_reduced_generating_functions():
    start = perf_counter()
    ok = True
    for n in range(2, 13, 2):
        stored = _stored_form(n)
        assembled = cylinder_gf(n)
        fitted = fitted_cylinder_gf(n)
        if not (assembled == stored == fitted):
            ok = False
    elapsed = perf_counter() - start
    _criterion(3, "reduced generating functions", ok and elapsed < 600.0,
               f"n = 2..12, both routes, {elapsed:.1f}s")


def test_criterion_04_denominator_roots_of_unity():
    ok = all(periodicity_report(n, cylinder_gf(n)).remainder_ok
             for n in range(2, 13, 2))
    _criterion(4, "denominator zeroes are roots of unity", ok, "even n <= 12")


def test_criterion_05_conjectured_denominator_product():
    cleared = {n: check_denominator_form(n, cylinder_gf(n)) for n in (2, 6, 8, 10, 12)}
    failing = sorted(n for n, good in cleared.items() if not good)
    # f_4's denominator Phi_1 Phi_2^2 as stored, not as computed
    den4 = _cyclotomic_product(load_reduced_forms()[4][1])
    product4 = conjectured_denominator(4)
    short_one_phi2 = (den4.divides(product4 * cyclotomic(2))
                      and not den4.divides(product4))
    detail = "clears all poles for n = 2, 6, 8, 10, 12"
    if failing:
        detail = ("product misses a pole multiplicity at n = "
                  + ", ".join(map(str, failing)))
    detail += ("; lacks exactly one Phi_2 at n = 4" if short_one_phi2
               else "; n = 4 is not short by exactly one Phi_2")
    _criterion(5, "conjectured denominator product",
               not failing and short_one_phi2, detail)


def test_denominator_product_status_by_circumference():
    # pins the checker's split: the product clears every pole except at
    # circumference 4, where the series has a double pole at t = -1 but
    # the product only a simple zero
    status = {n: check_denominator_form(n, cylinder_gf(n)) for n in range(2, 17, 2)}
    assert status == {2: True, 4: False, 6: True, 8: True, 10: True, 12: True,
                      14: True, 16: True}


def test_criterion_06_reduced_series_periods():
    expected = {2: 4, 6: 12, 10: 56}
    periods = {n: periodicity_report(n, cylinder_gf(n)).period for n in expected}
    p14 = periodicity_report(14, gf=cylinder_gf(14)).period
    ok = periods == expected and p14 == 880
    detail = ", ".join(f"n={n}: {p}" for n, p in sorted(periods.items()))
    detail += f", n=14: {p14}"
    _criterion(6, "reduced series periods", ok, detail)


def test_criterion_07_cycle_structure_table():
    from hardsquares.necklaces import format_cycle_structure

    start = perf_counter()
    golden = load_golden_cycles()
    ok = True
    checked = 0
    for (n, k), stored in sorted(golden.items()):
        if n > 20:
            continue
        if format_cycle_structure(cycle_structure(k, n)) != stored:
            ok = False
        checked += 1
    elapsed = perf_counter() - start
    _criterion(7, "cycle structure table", ok and checked and elapsed < 300.0,
               f"{checked} cells, {elapsed:.1f}s")


def test_criterion_08_cycle_length_divisibility():
    nmax = 36 if EXTENDED else 24
    ok = all(
        verify_cycle_divisibility(k, n)
        for n in range(4, nmax + 1, 2)
        for k in range(1, n // 4 + 1)
    )
    _criterion(8, "cycle lengths divide n - 3k", ok, f"even n <= {nmax}")


def test_criterion_09_closed_form_families():
    ok = all(cycle_structure(1, n) == {n - 3: 1} for n in range(4, 25, 2))
    for k in range(1, 7):
        ok = ok and cycle_structure(k, 4 * k) == {1: 1}
    for k in range(1, 6):
        expected = {k + 2: 1}
        if k // 2:
            expected[1] = k // 2
        ok = ok and cycle_structure(k, 4 * k + 2) == expected
    _criterion(9, "closed-form cycle structures", ok,
               "one pair / n=4k / n=4k+2, n <= 24")


def test_criterion_10_pattern_correspondence():
    ok = all(check_correspondence(n) for n in range(4, 15, 2))
    _criterion(10, "arrangement-pattern correspondence", ok, "even n <= 14")


def test_criterion_11_index_identities():
    checks = verify_index_identities(20, 14)
    bad = [row for row in checks if row[4] != row[5]]
    _criterion(11, "index identity suite", not bad,
               f"{len(checks)} instances, m <= 20, n <= 14")


def _pattern_calculus_properties() -> bool:
    for n in (2, 4, 6, 8):
        for p in enumerate_proper(n):
            mu = block_count(p)
            tops = [i for i in range(n) if p[i] == "c"]
            for m in range(2, 9):
                z = z_pattern(p, m)
                for i in tops:
                    lhs = (z_pattern(delete_top(p, i), m)
                           - z_pattern(delete_top_neighborhood(p, i), m))
                    if z != lhs:
                        return False
            if is_reducible(p):
                q, sign = peel(p)
                if not is_proper(q) or block_count(q) != mu:
                    return False
                for m in range(3, 9):
                    if z_pattern(p, m) != sign * z_pattern(q, m - 1):
                        return False
            else:
                mid = leftmost_block_middle(p)
                v = delete_top(p, mid)
                w = delete_top_neighborhood(p, mid)
                if not (is_proper(v) and block_count(v) == mu - 1):
                    return False
                if not (is_proper(w) and block_count(w) == mu):
                    return False
    return True


def test_criterion_12_property_suites():
    rng = Random(20260815)
    ok = True

    # vertex/edge additivity and multiplicativity on 500 random graphs
    for _ in range(500):
        g = random_graph(rng, 12)
        z = witten_brute(g)
        adj = adjacency(g)
        plain = [v for v in sorted(adj) if v not in adj[v]]
        if plain:
            v = rng.choice(plain)
            rest = witten_brute(g.without_vertices(g.mask([v])))
            core = witten_brute(g.without_vertices(g.mask(adj[v] | {v})))
            ok = ok and z == rest - core
        edges = [e for e in sorted(g.edges)
                 if e[0] != e[1]
                 and e[0] not in adj[e[0]] and e[1] not in adj[e[1]]]
        if edges:
            u, v = rng.choice(edges)
            no_edge = witten_brute(g.without_edge(u, v))
            closed = adj[u] | adj[v] | {u, v}
            ok = ok and z == no_edge - witten_brute(g.without_vertices(g.mask(closed)))
        h = random_graph(rng, 8)
        ok = ok and witten_brute(disjoint_union(g, h)) == z * witten_brute(h)

    ok = ok and _pattern_calculus_properties()

    # certificate soundness: the certificate's claimed index is the true
    # index, and the recorded trace replays to the same final state
    for _ in range(500):
        g = random_graph(rng, 16)
        verdict = simplify(g)
        ok = ok and verdict.state.witten() == witten_brute(g)
        replayed = replay_trace(g, verdict.state.trace)
        ok = ok and replayed.graph == verdict.state.graph
        ok = ok and replayed.suspensions == verdict.state.suspensions

    _criterion(12, "property suites", ok,
               "additivity x500, pattern calculus <= 8, certificates x500")
