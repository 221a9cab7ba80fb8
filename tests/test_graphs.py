"""Grid construction and the two Witten-index engines.

Covers: degenerate cycle conventions (C_2 = P_2, C_1 = looped vertex,
C_0 = empty), row-major grid ids that equal those of the labelled-factor
construction of tests/helpers (every family, m, n <= 5) with grid_vertex
refusing cells outside the grid, a Graph that stores only one neighbour
mask per id and its live mask, vertex v being bit v (edges derived,
equality on the live neighbour masks, scattered ids, a negative id
refused, the mask queries, an edge deletion that clears two bits of a
copy of the masks), agreement
of witten_brute and witten_transfer with the naive
subset-enumeration oracle, frozen small values, the constant and period-3
column series, multiplicativity and the two deletion relations on random
graphs, the ten suspension identities on a development-sized sweep, and the
short-side mask routing that keeps thin grids cheap at large sizes.  The
orbit and cell-by-cell kernels are compared with the compatibility-table
oracle of tests/helpers, which walks every row, on cylinders (n <= 12,
m <= 24, and columns of 0..3, 17, 24 rows and three fit windows for
n <= 9), free grids (n <= 10, m <= 12) and tori (n <= 9, m <= 12, sizes
0, 1 and 2 included); the dihedral orbit counts 49 / 99 / 209 at
n = 14 / 16 / 18 and the torus 12 x 12 value 166 are pinned.  For every
n <= 18 (0, 1 and 2 included) the ring's orbits and its dense orbit matrix
B equal the plain scans of tests/helpers field by field, and
size_a w_a B[a][b] = size_b w_b B[b][a], the identity B^T = Q B Q^-1 that
the half walks read.  The half
walks do half the work: a torus walks ceil(m/2) rows per orbit
representative, a free grid floor(m/2) + 1 rows, an unmasked column reads
floor(mmax/2) + 1 powers, and a zero-row column builds no ring.  The
column kernel with arbitrary masked top rows matches the same oracle
(n <= 10, up to three masks, m <= 12, also m below the mask count), and
its first row step receives row 1's mask rotated to start at a one.  The
orbit cache is bounded, and the cylinder and the patterns of one ring
read one kept list of powers B^k w, which stops at the fit window 2N + 6
(an m-row column reads B^0 w .. B^(m // 2) w, an m-row pattern
B^0 w .. B^(m - 2) w); columns taller than the window match the oracle.
An identity instance is in range exactly
when m >= 1 and n >= 3, or m >= 2 and n >= 2, and the sweep, one column
per circumference, checks exactly what one witten_transfer per side does.
The identity rows give the same instances, in the same order, as the
predicate table of tests/helpers for -1 <= m <= 12, -1 <= n <= 18.

The brute oracle recurses on vertex masks; on derandomized graphs with
loops, isolated vertices, several components and scattered ids it returns
the frozenset recursion's value after visiting the same vertex sets in the
same order, and the value of the recursion without the leaf step.  With
the leaf step, paths and random forests never reach the component search,
and the indices of leafless parts (0, 1, 2, -1, -2, -3) multiply over
unions of two and three.
A deletion (without_vertices, which takes a mask) equals the graph built
from scratch on the kept vertices, and so does a second deletion from it,
which shares the same masks; deleting the bits of ids already gone or
never there deletes nothing.  A graph never equals a copy with one edge
deleted, which equals it again once an endpoint is deleted from both.  A disjoint union, of a narrowed
graph too, equals the union built from the two graphs' vertices and
edges.  The mask component search, read
back as vertex ids, matches the frozenset search, sorted by least member.
"""

from random import Random

from hypothesis import assume, given, settings, strategies as st

from hardsquares import graphs
from hardsquares.graphs import (
    FAMILIES,
    Graph,
    GridSpec,
    build_grid,
    column_series,
    disjoint_union,
    fit_window,
    grid_vertex,
    identity_instances,
    transfer_width,
    verify_index_identities,
    witten_brute,
    witten_transfer,
    _orbits,
)
from hardsquares.patterns import Pattern, z_pattern_series
from helpers import (
    adjacency,
    components_oracle,
    identity_checks_oracle,
    identity_instances_oracle,
    labelled_grid_oracle,
    naive_witten,
    orbits_oracle,
    random_graph,
    ring_table,
    scattered_graphs,
    torus_oracle,
    transfer_oracle,
    witten_brute_oracle,
)

import pytest


# -- construction ------------------------------------------------------------


def test_cylinder_one_row_is_a_cycle():
    g = build_grid(GridSpec("cylinder", 1, 4))
    assert len(g.vertices) == 4
    assert len(g.edges) == 4
    assert all(len(nbrs) == 2 for nbrs in adjacency(g).values())


def test_cylinder_of_circumference_two_equals_free_two_columns():
    a = build_grid(GridSpec("cylinder", 2, 2))
    b = build_grid(GridSpec("free", 2, 2))
    assert a.vertices == b.vertices
    assert a.edges == b.edges


def test_degenerate_cycles():
    looped = build_grid(GridSpec("cylinder", 1, 1))
    assert len(looped.vertices) == 1
    assert looped.looped() == looped.mask() == 1

    assert len(build_grid(GridSpec("cylinder", 3, 0)).vertices) == 0
    assert len(build_grid(GridSpec("torus", 0, 5)).vertices) == 0

    # C_1 x C_5: a loop on every vertex, so only the empty set is independent
    ring = build_grid(GridSpec("torus", 1, 5))
    assert ring.looped() == ring.mask() == 0b11111
    assert naive_witten(ring) == 1


def test_grid_labels_and_lookup():
    spec = GridSpec("cylinder", 2, 3)
    g = build_grid(spec)
    assert grid_vertex(spec, 1, 0) == 0
    assert grid_vertex(spec, 2, 2) == 5
    sub = g.without_vertices(g.mask([grid_vertex(spec, 1, 0)]))
    assert grid_vertex(spec, 2, 2) in sub.vertices
    assert sub.neighbor_mask(5) == g.neighbor_mask(5)
    with pytest.raises(KeyError):
        grid_vertex(spec, 3, 0)


def test_row_major_ids_match_the_labelled_grid():
    for family in FAMILIES:
        for m in range(0, 6):
            for n in range(0, 6):
                spec = GridSpec(family, m, n)
                verts, edges, labels = labelled_grid_oracle(spec)
                assert build_grid(spec) == Graph(verts, edges), spec
                for v, (row, col) in labels.items():
                    assert grid_vertex(spec, row, col) == v, (spec, row, col)
                for row in range(-1, m + 2):
                    for col in range(-1, n + 2):
                        if (row, col) not in labels.values():
                            with pytest.raises(KeyError):
                                grid_vertex(spec, row, col)


def test_graph_stores_its_vertices_and_neighbour_sets_only():
    # vertex v is bit v: one neighbour mask per id up to the largest, and
    # the live mask
    assert Graph.__slots__ == ("_nbrs", "_live")
    g = Graph(range(4), [(1, 0), (0, 1), (2, 2), (3, 1)])
    assert (g._nbrs, g._live) == ((0b0010, 0b1001, 0b0100, 0b0010), 0b1111)
    h = Graph([7, 3, 5], [(5, 3)]).without_vertices(1 << 7)
    assert (h._nbrs, h._live) == ((0, 0, 0, 0b100000, 0, 0b1000, 0, 0), 0b101000)
    assert h.mask([5, 7, 99, -1]) == 0b100000 and list(h.ids(-1)) == [3, 5]
    assert h.neighbor_mask(3) == 0b100000 and g.looped() == 0b0100
    assert 7 not in h and 3 in h and 99 not in h and -1 not in h
    for absent in (7, 99, -1):
        with pytest.raises(KeyError):
            h.neighbor_mask(absent)
    assert g.edges == frozenset({(0, 1), (2, 2), (1, 3)})
    same = Graph([3, 2, 1, 0], [(0, 1), (2, 2), (1, 3)])
    assert g == same and hash(g) == hash(same)
    assert g != Graph(range(4), [(0, 1), (1, 3)])
    assert g != Graph(range(5), [(0, 1), (2, 2), (1, 3)])
    # an edge deletion clears two bits of a copy of the masks
    cut = g.without_edge(3, 1)
    assert cut == Graph(range(4), [(0, 1), (2, 2)])
    assert cut._nbrs == (0b0010, 0b0001, 0b0100, 0) and g._nbrs[3] == 0b0010
    for u, v in ((0, 2), (0, 9), (9, 0), (-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            g.without_edge(u, v)
    with pytest.raises(ValueError):
        Graph(range(2), [(0, 2)])
    with pytest.raises(ValueError):  # vertex v is bit v: no negative id
        Graph([-1])


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec("moebius", 2, 2)
    with pytest.raises(ValueError):
        GridSpec("free", -1, 2)


# -- brute-force engine --------------------------------------------------------


def test_brute_small_frozen_values():
    assert witten_brute(Graph([])) == 1
    assert witten_brute(Graph([0])) == 0
    assert witten_brute(Graph([0], [(0, 0)])) == 1
    # P_3: five independent sets, 1 - 3 + 1
    p3 = Graph(range(3), [(0, 1), (1, 2)])
    assert witten_brute(p3) == -1
    c3 = build_grid(GridSpec("cylinder", 1, 3))
    assert witten_brute(c3) == -2


def test_brute_agrees_with_naive_oracle_on_random_graphs():
    rng = Random(20260815)
    for _ in range(200):
        g = random_graph(rng, 10)
        assert witten_brute(g) == naive_witten(g)


def test_multiplicativity_over_disjoint_union():
    rng = Random(7)
    for _ in range(100):
        g = random_graph(rng, 8)
        h = random_graph(rng, 8)
        u = disjoint_union(g, h)
        assert witten_brute(u) == witten_brute(g) * witten_brute(h)


def test_vertex_and_edge_deletion_relations():
    rng = Random(11)
    for _ in range(100):
        g = random_graph(rng, 8)
        z = witten_brute(g)
        adj = adjacency(g)
        for v in g.vertices:
            if v in adj[v]:
                continue
            rest = witten_brute(g.without_vertices(g.mask([v])))
            core = witten_brute(g.without_vertices(g.mask(adj[v] | {v})))
            assert z == rest - core
        for u, v in g.edges:
            if u == v or u in adj[u] or v in adj[v]:
                continue
            no_edge = witten_brute(g.without_edge(u, v))
            closed = adj[u] | adj[v] | {u, v}
            no_nbhd = witten_brute(g.without_vertices(g.mask(closed)))
            assert z == no_edge - no_nbhd


def test_components_multiply_their_indices():
    # leafless connected parts, so the recursion splits a union of two at
    # once: K_3, K_4, C_4, C_5, C_6 and a five-vertex graph of index 0
    parts = [Graph(range(k), [(u, v) for u in range(k) for v in range(u + 1, k)])
             for k in (3, 4)]
    parts += [build_grid(GridSpec("cylinder", 1, n)) for n in (4, 5, 6)]
    parts.append(Graph(range(5), [(0, 3), (0, 4), (1, 2), (1, 3), (2, 4), (3, 4)]))
    values = [naive_witten(p) for p in parts]
    assert values == [-2, -3, -1, 1, 2, 0]
    for a, za in zip(parts, values):
        for b, zb in zip(parts, values):
            assert witten_brute(disjoint_union(a, b)) == za * zb
            assert witten_brute(disjoint_union(disjoint_union(a, b), a)) == za * zb * za


def assert_brute_recursion_matches_the_oracle(g):
    """Same value, and the same vertex sets reach the component search in
    the same order, as in the frozenset recursion; the same value as the
    recursion without the leaf step."""
    seen, expected = [], []
    search = graphs._components

    def spy(nbrs, active):
        seen.append(frozenset(g.ids(active)))
        return search(nbrs, active)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_components", spy)
        z = witten_brute(g)
    assert z == witten_brute_oracle(g, expected.append)
    assert seen == expected
    assert z == witten_brute_oracle(g, leaf=False)


def random_forest(rng, n):
    """A forest on n vertices with scattered ids: each vertex but the first
    joins an earlier one with probability 0.8."""
    ids = rng.sample(range(100), n)
    return Graph(ids, [(ids[i], ids[rng.randrange(i)])
                       for i in range(1, n) if rng.random() < 0.8])


def test_the_leaf_step_keeps_forests_out_of_the_component_search():
    rng = Random(16)
    forests = [build_grid(GridSpec("free", 1, n)) for n in range(41)]
    forests += [random_forest(rng, rng.randint(1, 30)) for _ in range(200)]
    searches, search = [], graphs._components

    def spy(nbrs, active):
        searches.append(active)
        return search(nbrs, active)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_components", spy)
        values = [witten_brute(g) for g in forests]
    assert searches == []
    assert values[:41] == [witten_transfer(GridSpec("free", 1, n)) for n in range(41)]
    assert values == [witten_brute_oracle(g, leaf=False) for g in forests]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scattered_graphs())
def test_brute_recursion_matches_the_frozenset_oracle(g):
    assert_brute_recursion_matches_the_oracle(g)


def test_brute_recursion_matches_the_frozenset_oracle_on_grids():
    for family in FAMILIES:
        for m in range(1, 6):
            for n in range(0, 7):
                assert_brute_recursion_matches_the_oracle(build_grid(GridSpec(family, m, n)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scattered_graphs(), st.data())
def test_induced_equals_the_graph_built_from_scratch(g, data):
    def subsets(vertices):
        return (st.frozensets(st.sampled_from(sorted(vertices)))
                if vertices else st.just(frozenset()))

    def from_scratch(keep):
        return Graph(keep, [(u, v) for u, v in g.edges if u in keep and v in keep])

    keep = data.draw(subsets(g.vertices))
    again = data.draw(subsets(keep))  # a second deletion, on the shared masks
    fresh, twice = from_scratch(keep), from_scratch(again)
    h = g.without_vertices(g.mask(g.vertices - keep))
    narrowed = h.without_vertices(h.mask(keep - again))
    for sub, want in ((h, fresh), (narrowed, twice)):
        assert (sub.vertices, sub.edges) == (want.vertices, want.edges)
        assert sub == want and hash(sub) == hash(want)
        assert all(sub.neighbor_mask(v) == want.neighbor_mask(v) for v in want.vertices)
        assert sub.looped() == want.looped()
        assert witten_brute(sub) == witten_brute(want)
    assert (narrowed == h) == (again == keep)
    for gone in keep - again:
        assert gone not in narrowed
        with pytest.raises(KeyError):
            narrowed.neighbor_mask(gone)
    # deleting the bits of ids that are gone, or were never there, deletes
    # nothing
    assert h.without_vertices(g.mask(g.vertices - keep) | 1 << 61) == h


@settings(max_examples=100, deadline=None, derandomize=True)
@given(scattered_graphs(), st.data())
def test_a_graph_never_equals_its_edge_deleted_copy(g, data):
    # __eq__ reads the live neighbour masks of the live vertices, so a copy
    # with one edge fewer differs until an endpoint is deleted from both
    assume(g.edges)
    picked = data.draw(st.lists(st.sampled_from(sorted(g.edges)), min_size=1,
                                max_size=4, unique=True))
    for u, v in picked:
        cut = g.without_edge(u, v)
        assert cut != g and g != cut
        assert (cut.vertices, cut.edges) == (g.vertices, g.edges - {(u, v)})
        assert cut.without_vertices(1 << u) == g.without_vertices(1 << u)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(scattered_graphs(), scattered_graphs(), st.data())
def test_disjoint_union_shifts_the_second_graph_above_the_first(g, h, data):
    # g less its top ids keeps their bits in its masks, above its largest
    # live id, where h's vertices go; 61 isolated vertices put one of h's
    # on each such bit
    top = sorted(g.vertices)
    g = g.without_vertices(g.mask(top[data.draw(st.integers(0, len(top))):]))
    offset = max(g.vertices, default=-1) + 1
    for h in (h, Graph(range(61))):
        want = Graph(g.vertices | {v + offset for v in h.vertices},
                     list(g.edges) + [(u + offset, v + offset) for u, v in h.edges])
        union = disjoint_union(g, h)
        assert (union.vertices, union.edges) == (want.vertices, want.edges)
        assert union == want and hash(union) == hash(want)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scattered_graphs())
def test_components_keep_the_least_member_order(g):
    masks = graphs._components(g._nbrs, g.mask())
    comps = [frozenset(g.ids(mask)) for mask in masks]
    assert comps == sorted(components_oracle(g, g.vertices), key=min)
    assert [min(c) for c in comps] == sorted(min(c) for c in comps)


# -- transfer engine -----------------------------------------------------------


def test_transfer_frozen_table_values():
    assert witten_transfer(GridSpec("cylinder", 4, 6)) == 4
    assert witten_transfer(GridSpec("cylinder", 9, 10)) == -11
    assert witten_transfer(GridSpec("cylinder", 6, 14)) == 13
    assert witten_transfer(GridSpec("cylinder", 2, 4)) == 3
    for n in range(0, 10):
        assert witten_transfer(GridSpec("cylinder", 0, n)) == 1


def test_transfer_agrees_with_brute_on_all_families():
    for family in FAMILIES:
        for m in range(0, 6):
            for n in range(0, 6):
                if m * n > 25:
                    continue
                spec = GridSpec(family, m, n)
                assert witten_transfer(spec) == witten_brute(build_grid(spec)), spec


def test_torus_is_symmetric_in_both_sizes():
    for m in range(0, 7):
        for n in range(0, 7):
            a = witten_transfer(GridSpec("torus", m, n))
            b = witten_transfer(GridSpec("torus", n, m))
            assert a == b


def test_transfer_width_reports_the_enumerated_mask_width():
    assert transfer_width(GridSpec("free", 3, 40)) == 3
    assert transfer_width(GridSpec("free", 40, 3)) == 3
    assert transfer_width(GridSpec("free", 0, 99)) == 0
    assert transfer_width(GridSpec("cylinder", 0, 99)) == 0
    assert transfer_width(GridSpec("cylinder", 1, 9)) == 9
    assert transfer_width(GridSpec("cylinder", 5, 8)) == 8
    assert transfer_width(GridSpec("torus", 2, 99)) == 2
    assert transfer_width(GridSpec("torus", 1, 99)) == 0
    assert transfer_width(GridSpec("torus", 99, 99)) == 99


def test_thin_grids_stay_cheap_at_large_sizes():
    # masks live on the short side, so the long side only adds linear work;
    # the thin torus rides the same ring walk and must match the cylinder
    # computed from width-n masks
    for n in range(3, 15):
        assert (witten_transfer(GridSpec("torus", 2, n))
                == witten_transfer(GridSpec("cylinder", 2, n)))
    assert witten_transfer(GridSpec("free", 2, 100)) == 1
    assert witten_transfer(GridSpec("free", 3, 60)) == -1
    assert witten_transfer(GridSpec("torus", 2, 50)) == -1
    assert witten_transfer(GridSpec("torus", 3, 33)) == 4
    assert witten_transfer(GridSpec("cylinder", 0, 500)) == 1


def test_column_series_examples():
    assert column_series(3, 5) == [1, -2, 1, 1, -2, 1]
    assert column_series(2, 4) == [1, -1, -1, 1, 1]
    assert column_series(5, 30) == [1] * 31


def test_column_series_constant_or_period_three():
    for n in (5, 7, 11, 13):
        assert column_series(n, 30) == [1] * 31
    for n in (3, 9, 15):
        series = column_series(n, 30)
        assert series[:3] == [1, -2, 1]
        for m in range(len(series) - 3):
            assert series[m + 3] == series[m]


def test_cylinder_transfer_matches_compat_oracle():
    for n in range(0, 13):
        rows = 3 * fit_window(n) if n <= 9 else 24
        expected = transfer_oracle(n, [(1 << n) - 1] * rows)
        for mmax in (0, 1, 2, 3, 17, 24, rows):  # both parities of the half walk
            assert column_series(n, mmax) == expected[: mmax + 1], (n, mmax)
        for m in range(0, 25):
            assert witten_transfer(GridSpec("cylinder", m, n)) == expected[m], (m, n)


def test_free_transfer_matches_compat_oracle():
    for n in range(0, 11):
        expected = transfer_oracle(n, [(1 << n) - 1] * 12, cyclic=False)
        for m in range(0, 13):
            assert witten_transfer(GridSpec("free", m, n)) == expected[m], (m, n)


def test_torus_transfer_matches_compat_oracle():
    for n in range(0, 10):
        expected = torus_oracle(n, 12)
        for m in range(0, 13):
            spec = GridSpec("torus", m, n)
            if min(m, n) >= 2:
                assert witten_transfer(spec) == expected[m], (m, n)
            else:  # C_0 is empty and C_1 a looped vertex
                assert witten_transfer(spec) == 1 == witten_brute(build_grid(spec)), (m, n)
    assert witten_transfer(GridSpec("torus", 12, 12)) == 166


def test_half_walks_take_half_the_row_steps_and_powers(monkeypatch):
    steps, powers = [0], [0]
    row_step, ring_powers = graphs._row_step, graphs.RingOrbits.powers

    def counted_step(*args, **kwargs):
        steps[0] += 1
        return row_step(*args, **kwargs)

    def counted_powers(self):
        for u in ring_powers(self):
            powers[0] += 1
            yield u

    rings = {n: _orbits(n) for n in (2, 5, 6, 7)}  # built before counting
    monkeypatch.setattr(graphs, "_row_step", counted_step)
    monkeypatch.setattr(graphs.RingOrbits, "powers", counted_powers)
    for m, n in ((9, 6), (10, 6), (7, 7), (8, 7), (2, 5), (5, 11)):
        steps[0] = 0
        assert witten_transfer(GridSpec("torus", m, n)) == torus_oracle(min(m, n), max(m, n))[-1]
        assert steps[0] == len(rings[min(m, n)].reps) * ((max(m, n) + 1) // 2), (m, n)
    for m, n in ((9, 6), (10, 6), (1, 1), (0, 0), (16, 3)):
        steps[0] = 0
        assert witten_transfer(GridSpec("free", m, n)) == transfer_oracle(
            min(m, n), [-1] * max(m, n), cyclic=False)[-1]
        assert steps[0] == max(m, n) // 2 + 1, (m, n)
    for mmax in (1, 2, 7, 8, 40):
        steps[0] = powers[0] = 0
        assert column_series(6, mmax) == transfer_oracle(6, [-1] * mmax)
        assert powers[0] == mmax // 2 + 1 and steps[0] == 0, mmax


def test_a_zero_row_column_builds_no_ring(monkeypatch):
    def no_ring(n):
        raise AssertionError(f"_orbits({n}) was built for a zero-row column")

    monkeypatch.setattr(graphs, "_orbits", no_ring)
    assert column_series(500, 0) == [1]
    assert witten_transfer(GridSpec("cylinder", 0, 500)) == 1


@st.composite
def masked_columns(draw):
    n = draw(st.integers(0, 10))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=3))
    return n, draw(st.integers(0, 12)), tuple(masks)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(masked_columns())
def test_column_kernel_with_masked_rows_matches_compat_oracle(case):
    n, m, masks = case
    expected = transfer_oracle(n, list(masks) + [-1] * (m - len(masks)))[: m + 1]
    assert column_series(n, m, masks) == expected


def test_a_masked_column_starts_its_walk_at_row_one_first_one(monkeypatch):
    allowed, row_step = [], graphs._row_step

    def spy(vec, n, mask, cyclic):
        allowed.append(mask)
        return row_step(vec, n, mask, cyclic)

    cases = ((6, (0b000010, 0b110111)), (8, (0b10100000, 0b11111111)),
             (5, (0b00001, 0b10110)), (7, (0b10000000 | 0b1111000, 0)))
    for n, _ in cases:
        _orbits(n)  # built before spying: its ring walk is no masked row
    monkeypatch.setattr(graphs, "_row_step", spy)
    for n, masks in cases:
        allowed.clear()
        assert column_series(n, 6, masks) == transfer_oracle(n, list(masks) + [-1] * 4)
        assert allowed[0] & 1 and len(allowed) == 2, (n, masks)


def test_orbit_cache_is_bounded_and_rings_share_one_power_list():
    assert _orbits.cache_info().maxsize == 32
    _orbits.cache_clear()
    p = Pattern("bcbabb")
    orb = _orbits(6)
    assert orb.window == fit_window(6) == 2 * len(orb.reps) + 6 == 16
    column_series(6, 8)  # rows 1..8 read u_0 .. u_4, u_k = B^k w
    assert len(orb.kept) == 8 // 2 + 1
    z_pattern_series(p, 12)  # rows 3..12: B^0 w .. B^10 w
    assert len(orb.kept) == 12 - 2 + 1  # one list below the window
    column_series(6, 25)
    assert len(orb.kept) == 25 // 2 + 1  # 25 rows read u_0 .. u_12
    z_pattern_series(p, 27)
    assert _orbits(6) is orb and len(orb.kept) == orb.window


def test_columns_taller_than_the_window_match_the_unbounded_walk():
    for n in (3, 6, 8):
        _orbits.cache_clear()
        orb = _orbits(n)
        rows = 3 * orb.window
        unbounded = [orb.weights]
        for _ in range(rows):
            u = unbounded[-1]
            unbounded.append(tuple(sum(c * x for c, x in zip(row, u)) for row in orb.matrix))
        assert column_series(n, rows) == transfer_oracle(n, [-1] * rows)
        assert [u[0] for u in unbounded] == column_series(n, rows)
        # two walks interleaved past the window: the kept prefix stays exact
        first, second = orb.powers(), orb.powers()
        for k, u in enumerate(unbounded):
            assert next(first) == u == next(second), (n, k)
        assert orb.kept == unbounded[:orb.window]
    p = Pattern("bcbabb")  # 010000 / 111011
    masks = [0b000010, 0b110111]  # bit i is column i
    assert z_pattern_series(p, 50)[2:] == transfer_oracle(6, masks + [-1] * 48)[2:]


def test_ring_orbits_partition_the_ring_states():
    # orbit counts of the dihedral action; the states are Lucas-many
    for n, orbits, states in ((14, 49, 843), (16, 99, 2207), (18, 209, 5778)):
        orb = _orbits(n)
        assert len(orb.reps) == orbits
        assert sum(orb.sizes) == len(orb.orbit_of) == states
    for n in range(0, 13):
        orb = _orbits(n)
        assert sorted(orb.orbit_of) == ring_table(n, True)[0]
        for a, rep in enumerate(orb.reps):
            assert orb.orbit_of[rep] == a
            assert sum(1 for b in orb.orbit_of.values() if b == a) == orb.sizes[a]


def test_ring_orbits_equal_the_counter_scan_and_b_is_q_symmetric():
    # n = 0 formats its one state as a one-character word; the empty
    # representative's row would count any padding slot first
    for n in range(19):
        orb = _orbits(n)
        reps, sizes, weights, orbit_of, matrix = orbits_oracle(n)
        assert orb.reps == reps and orb.sizes == sizes, n
        assert orb.weights == weights and orb.orbit_of == orbit_of, n
        assert orb.matrix == matrix, n
        assert orb.matrix[0] == sizes  # the empty representative meets every state
        # size_a w_a B[a][b] counts compatible state pairs: B^T = Q B Q^-1
        q = [s * w for s, w in zip(sizes, weights)]
        for a, row in enumerate(orb.matrix):
            assert all(q[a] * row[b] == q[b] * orb.matrix[b][a] for b in range(len(row))), (n, a)


# -- suspension identities -------------------------------------------------------


def test_identity_instances_exist_exactly_from_one_row_and_three_columns():
    for m in range(-1, 8):
        for n in range(-1, 10):
            expected = (m >= 1 and n >= 3) or (m >= 2 and n >= 2)
            assert any(identity_instances(m, n)) == expected, (m, n)


def test_identity_rows_give_the_instances_of_the_predicate_table():
    for m in range(-1, 13):
        for n in range(-1, 19):
            assert list(identity_instances(m, n)) == identity_instances_oracle(m, n), (m, n)


def test_identity_sweep_development_ranges():
    checks = verify_index_identities(m_max=12, n_max=12)
    assert checks, "empty identity sweep"
    failures = [row for row in checks if row[4] != row[5]]  # lhs != rhs
    assert failures == []


def test_identity_sweep_reads_what_one_transfer_per_side_reads():
    checks = verify_index_identities(40, 10)
    assert len(checks) == 160
    assert checks == identity_checks_oracle(40, 10)


def test_identity_frozen_instances():
    # Z(P_6 x C_3) = Z(P_3 x C_3) and Z(P_6 x C_7) = Z(P_2 x C_7)
    assert witten_transfer(GridSpec("cylinder", 6, 3)) == witten_transfer(GridSpec("cylinder", 3, 3)) == 1
    assert witten_transfer(GridSpec("cylinder", 6, 7)) == witten_transfer(GridSpec("cylinder", 2, 7)) == 1
    # Z(P_5) = -Z(P_2)
    assert witten_transfer(GridSpec("free", 1, 5)) == -witten_transfer(GridSpec("free", 1, 2)) == 1
