"""Rewrite rules, contractibility detection, and certificate soundness.

Covers: edge residue graphs (refused for an endpoint outside the graph),
the zero-residue vertex lemma, the fold /
pendant / square rules with their preconditions, the one-step
contractibility configurations, simplify's verdicts on the two hard residue
graphs from the rows-3 cylinder argument, determinism, trace replay
(a step forged with an absent witness or another rule, or moved, is
rejected), and the sign-tracking invariant
(-1)^suspensions * Z(current) = Z(original).  RULES holds exactly the five
trace rules and simplify's traces use every one; each step of a trace
replays as exactly that one step, so a step that applies nothing (a second
drop_loops, a drop_loops on a loop-free graph) is rejected; and
detect_configuration's witness is effectively isolated in the graph that
its rule, recomputed here, leaves.  A step with too few or too many
vertices is refused as inapplicable, and so is a square with a repeated
or absent vertex or a witness of degree 3, and an isolated step on a
vertex with a neighbour, a loop, or none at all.  On scattered graphs,
with and without a 4-cycle planted on four drawn ids, the mask square
search gives the candidates of the sorted-edge set oracle of
tests/helpers in the same order, the square rule accepts each, and
detect_configuration equals the set-form oracle.  simplify's step choice,
which reads u's fold partners as the common neighbours of N(u), equals
the all-pairs oracle of tests/helpers on random loop-free graphs and
along their traces, and never needs a square: whenever a square exists, an isolated vertex or a fold is
found first.  simplify, which carries settled and touched vertices between
passes, gives the same verdict, trace and final graph as the loop that
rescans every vertex at every pass (tests/helpers.simplify_oracle), on
derandomized graphs with loops and on edge residues of every cylinder with
m <= 7 and n <= 10, where it runs under a third of the rescan loop's fold
scans.
"""

from random import Random

from hardsquares.errors import RuleInapplicableError
from hardsquares.graphs import Graph, GridSpec, build_grid, grid_vertex, witten_brute
from hardsquares.reduction import (
    CONTRACTIBLE,
    REDUCED,
    RULES,
    ReductionState,
    TraceStep,
    apply_fold,
    apply_pendant_suspension,
    apply_square_suspension,
    detect_configuration,
    _first_step,
    _square_candidates,
    replay_trace,
    residue_edge,
    simplify,
)
from helpers import (
    adjacency,
    components_oracle,
    configuration_oracle,
    first_step_oracle,
    naive_witten,
    random_graph,
    scattered_graphs,
    simplify_oracle,
    square_candidates_oracle,
)
from hypothesis import given, settings, strategies as st

import pytest


def cycle(n: int) -> Graph:
    return build_grid(GridSpec("cylinder", 1, n))


def path(n: int) -> Graph:
    return build_grid(GridSpec("free", 1, n))


# -- residue graphs ------------------------------------------------------------


def test_residue_edge_leaves_isolated_vertex():
    c12 = cycle(12)
    r = residue_edge(c12, (0, 4))
    assert 2 in r.vertices
    assert r.neighbor_mask(2) == 0
    assert r.vertices == frozenset({2}) | frozenset(range(6, 11))


def test_residue_edge_refuses_an_endpoint_outside_the_graph():
    c6 = cycle(6)
    for e in ((0, 9), (9, 0), (9, 9)):
        with pytest.raises(ValueError):
            residue_edge(c6, e)
    with pytest.raises(ValueError):
        residue_edge(c6.without_vertices(c6.mask([3])), (0, 3))  # a deleted vertex


# -- fold ---------------------------------------------------------------------


def test_fold_examples():
    p3 = path(3)  # vertices 0,1,2
    st = apply_fold(ReductionState.initial(p3), 0, 2)
    assert st.graph.vertices == frozenset({0, 1})
    assert st.suspensions == 0

    star = Graph(range(4), [(0, 1), (0, 2), (0, 3)])
    st = apply_fold(ReductionState.initial(star), 1, 2)
    assert st.graph.edges == frozenset({(0, 1), (0, 3)})

    c4 = cycle(4)
    st = apply_fold(ReductionState.initial(c4), 0, 2)
    assert witten_brute(st.graph) == witten_brute(c4) == -1


def test_fold_preconditions():
    p2 = path(2)
    with pytest.raises(RuleInapplicableError):
        apply_fold(ReductionState.initial(p2), 0, 1)  # N(0)={1} not in N(1)={0}
    with pytest.raises(RuleInapplicableError):
        apply_fold(ReductionState.initial(p2), 0, 0)
    looped = Graph([0, 1], [(0, 0)])
    with pytest.raises(RuleInapplicableError):
        apply_fold(ReductionState.initial(looped), 1, 0)


# -- pendant ------------------------------------------------------------------


def test_pendant_examples():
    st = apply_pendant_suspension(ReductionState.initial(path(2)), 0, 1)
    assert len(st.graph.vertices) == 0
    assert st.suspensions == 1
    assert st.witten() == -1  # certifies Z(P_2)

    st = apply_pendant_suspension(ReductionState.initial(path(3)), 0, 1)
    assert len(st.graph.vertices) == 0
    assert st.witten() == -1

    st = apply_pendant_suspension(ReductionState.initial(path(4)), 0, 1)
    assert st.graph.vertices == frozenset({3})
    assert st.witten() == 0


def test_pendant_preconditions():
    with pytest.raises(RuleInapplicableError):
        apply_pendant_suspension(ReductionState.initial(path(3)), 1, 0)
    with pytest.raises(RuleInapplicableError):
        apply_pendant_suspension(ReductionState.initial(cycle(4)), 0, 1)


# -- square --------------------------------------------------------------------


def test_square_examples():
    st = apply_square_suspension(ReductionState.initial(cycle(4)), 0, 1, 2, 3)
    assert len(st.graph.vertices) == 0
    assert st.suspensions == 1
    assert st.witten() == -1  # certifies Z(C_4)

    hung = Graph(range(5), [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4)])
    st = apply_square_suspension(ReductionState.initial(hung), 0, 1, 2, 3)
    assert st.graph.vertices == frozenset({4})
    assert st.witten() == 0 == naive_witten(hung)


def test_square_preconditions():
    c6 = cycle(6)
    with pytest.raises(RuleInapplicableError):
        apply_square_suspension(ReductionState.initial(c6), 0, 1, 2, 3)
    tri = Graph(range(3), [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(RuleInapplicableError):
        apply_square_suspension(ReductionState.initial(tri), 0, 1, 2, 2)
    # u-v-u-y closes every edge check of the triangle: distinctness refuses it
    with pytest.raises(RuleInapplicableError):
        apply_square_suspension(ReductionState.initial(tri), 0, 1, 0, 2)
    c4 = ReductionState.initial(cycle(4))
    with pytest.raises(RuleInapplicableError):
        apply_square_suspension(c4, 0, 1, 2, 9)  # an absent vertex
    for hung_at in (0, 1):  # deg(u) = 3 or deg(v) = 3
        hung = Graph(range(5), [(0, 1), (1, 2), (2, 3), (3, 0), (hung_at, 4)])
        with pytest.raises(RuleInapplicableError):
            apply_square_suspension(ReductionState.initial(hung), 0, 1, 2, 3)


# -- configurations ---------------------------------------------------------------


def test_configuration_in_two_row_residue():
    s2 = GridSpec("cylinder", 2, 12)
    e = (grid_vertex(s2, 1, 0), grid_vertex(s2, 1, 5))
    r = residue_edge(build_grid(s2), e)
    cfg = detect_configuration(r)
    assert cfg is not None
    assert cfg.kind == "A"
    assert r.neighbor_mask(cfg.isolated_vertex).bit_count() == 1
    assert witten_brute(r) == 0


def test_configuration_witness_is_isolated_by_its_rule():
    rng = Random(31)
    found = set()
    for _ in range(400):
        g = random_graph(rng, 10, edge_prob=0.3, loop_prob=0.08)
        cfg = detect_configuration(g)
        if cfg is None:
            continue
        adj = adjacency(g)
        if cfg.rule == "pendant":
            _, v = cfg.rule_vertices
            h = g.without_vertices(g.mask(adj[v] | {v}))
        else:
            h = g.without_vertices(g.mask(cfg.rule_vertices))
        w, looped = cfg.isolated_vertex, {z for z in adj if z in adj[z]}
        assert w in h.vertices and w not in looped
        assert adj[w] & h.vertices <= looped
        assert cfg.kind == {("pendant", True): "A", ("pendant", False): "B",
                            ("square", True): "C", ("square", False): "D"}[
            cfg.rule, len(adj[w]) == 1]
        assert naive_witten(g) == 0
        found.add(cfg.kind)
    assert found == {"A", "B", "C", "D"}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scattered_graphs(), st.lists(st.integers(0, 60), min_size=4, max_size=4, unique=True))
def test_mask_square_search_and_configuration_match_the_set_oracles(g, cycle4):
    # the square path reads masks: candidates in sorted edge order, each
    # accepted by the square rule, and the first certificate they give.  A
    # scattered graph seldom has a square, so a 4-cycle planted on four
    # drawn ids gives almost every draw several, and all four kinds occur
    u, v, x, y = cycle4
    planted = Graph(g.vertices | set(cycle4), g.edges | {(u, v), (v, x), (x, y), (y, u)})
    for h in (g, planted):
        squares = list(_square_candidates(h))
        assert squares == square_candidates_oracle(h)
        fresh = ReductionState.initial(h)
        for four in squares:
            assert apply_square_suspension(fresh, *four).trace == (TraceStep("square", four),)
        assert detect_configuration(h) == configuration_oracle(h)


def test_no_configuration_when_index_nonzero():
    assert detect_configuration(cycle(5)) is None
    assert witten_brute(cycle(5)) == 1


# -- simplify ----------------------------------------------------------------------


def test_simplify_three_row_residues_are_contractible():
    s3 = GridSpec("cylinder", 3, 12)
    g3 = build_grid(s3)
    e1 = (grid_vertex(s3, 1, 0), grid_vertex(s3, 1, 9))
    r1 = residue_edge(g3, e1)
    verdict = simplify(r1)
    assert verdict.kind == CONTRACTIBLE
    assert witten_brute(r1) == 0

    e2 = (grid_vertex(s3, 2, 0), grid_vertex(s3, 2, 9))
    r2 = residue_edge(g3, e2)
    largest = max(components_oracle(r2, r2.vertices), key=len)
    component = r2.without_vertices(r2.mask(r2.vertices - largest))
    assert simplify(component).kind == CONTRACTIBLE
    assert simplify(r2).kind == CONTRACTIBLE


def test_simplify_fixed_point_and_determinism():
    c6 = cycle(6)
    verdict = simplify(c6)
    assert verdict.kind == REDUCED
    assert verdict.state.graph == c6
    assert verdict.state.trace == ()

    rng = Random(5)
    for _ in range(20):
        g = random_graph(rng, 10)
        assert simplify(g).state.trace == simplify(g).state.trace


def test_certificate_soundness_on_random_graphs():
    rng = Random(1234)
    for _ in range(150):
        g = random_graph(rng, 12, edge_prob=0.25, loop_prob=0.08)
        verdict = simplify(g)
        z = naive_witten(g)
        assert verdict.state.witten() == z
        if verdict.kind == CONTRACTIBLE:
            assert z == 0


def test_zero_residue_lets_vertex_deletion_preserve_index():
    rng = Random(77)
    for _ in range(60):
        g = random_graph(rng, 9)
        adj = adjacency(g)
        for v in sorted(g.vertices):
            if v in adj[v]:
                continue
            if naive_witten(g.without_vertices(g.mask(adj[v] | {v}))) == 0:
                assert naive_witten(g) == naive_witten(g.without_vertices(g.mask([v])))


def test_trace_replay_and_tamper_rejection():
    s3 = GridSpec("cylinder", 3, 9)
    e = (grid_vertex(s3, 1, 0), grid_vertex(s3, 1, 4))
    r = residue_edge(build_grid(s3), e)
    verdict = simplify(r)
    trace = verdict.state.trace
    state = replay_trace(r, trace)
    assert state.graph == verdict.state.graph
    assert state.suspensions == verdict.state.suspensions
    assert state.trace == trace

    assert {step.rule for step in trace} == {"fold", "isolated"}
    for k, step in enumerate(trace):
        # a witness outside r (0 is in the deleted edge's neighbourhood), and
        # a fold's witnesses read as a pendant's, whose leaf they are not
        forged = [step._replace(vertices=(0,) * len(step.vertices))]
        if step.rule == "fold":
            forged.append(step._replace(rule="pendant"))
        for bad in forged:
            with pytest.raises(RuleInapplicableError):
                replay_trace(r, trace[:k] + (bad,) + trace[k + 1:])
    with pytest.raises(RuleInapplicableError):  # the last step moved first
        replay_trace(r, trace[-1:] + trace[:-1])


def test_replay_rejects_a_step_that_applies_nothing():
    p3 = path(3)
    with pytest.raises(RuleInapplicableError):
        replay_trace(p3, [TraceStep("fold", (0, 2)), TraceStep("drop_loops", (0, 2))])
    looped = Graph(range(3), [(0, 0), (0, 1), (1, 2)])
    with pytest.raises(RuleInapplicableError):
        replay_trace(looped, [TraceStep("drop_loops", (0,)), TraceStep("drop_loops", (0,))])
    with pytest.raises(RuleInapplicableError):
        replay_trace(looped, [TraceStep("drop_loops", (0, 1))])
    with pytest.raises(RuleInapplicableError):
        replay_trace(looped, [TraceStep("unfold", (0,))])
    state = replay_trace(looped, [TraceStep("drop_loops", (0,))])
    assert state.graph == path(3).without_vertices(1 << 0)


def test_each_simplify_step_replays_as_exactly_one_step():
    assert set(RULES) == {"drop_loops", "fold", "pendant", "square", "isolated"}
    rng = Random(99)
    rules = set()
    for _ in range(120):
        g = random_graph(rng, 12, edge_prob=0.25, loop_prob=0.08)
        trace = simplify(g).state.trace
        rules.update(step.rule for step in trace)
        for k in range(len(trace) + 1):
            assert replay_trace(g, trace[:k]).trace == trace[:k]
    # a square always admits a fold first, so only a replay reaches square
    assert rules == set(RULES) - {"square"}
    square = [TraceStep("square", (0, 1, 2, 3)), TraceStep("isolated", (4,))]
    hung = Graph(range(5), [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4)])
    state = replay_trace(hung, square)
    assert state.trace == tuple(square) and state.witten() == 0


def test_isolated_refuses_a_vertex_with_a_neighbour_or_outside_the_graph():
    g = Graph(range(4), [(0, 1), (1, 2), (3, 3)])  # 3 has only itself
    for w in (0, 1, 2, 3, 7):
        with pytest.raises(RuleInapplicableError):
            replay_trace(g, [TraceStep("isolated", (w,))])
    state = replay_trace(g, [TraceStep("fold", (0, 2))])
    with pytest.raises(RuleInapplicableError):
        replay_trace(g, state.trace + (TraceStep("isolated", (2,)),))  # deleted
    lone = g.without_vertices(g.mask([1]))
    assert replay_trace(lone, [TraceStep("isolated", (0,))]).witten() == 0


@pytest.mark.parametrize("rule, arity", [("fold", 2), ("pendant", 2),
                                         ("square", 4), ("isolated", 1)])
def test_replay_refuses_a_wrong_vertex_count(rule, arity):
    for count in (arity - 1, arity + 1):
        with pytest.raises(RuleInapplicableError):
            replay_trace(path(3), [TraceStep(rule, tuple(range(count)))])
    with pytest.raises(TypeError):  # raised inside the rule, not a count
        replay_trace(path(3), [TraceStep(rule, ([0],) * arity)])


def _as_pair(step):
    return None if step is None else (step.rule, step.vertices)


def test_first_step_matches_the_all_pairs_oracle_along_traces():
    rng = Random(404)
    for _ in range(150):
        g = random_graph(rng, 16, edge_prob=rng.choice((0.15, 0.3, 0.5)), loop_prob=0.0)
        assert _as_pair(_first_step(g)) == first_step_oracle(g)
        looped = random_graph(rng, 16, edge_prob=0.25, loop_prob=0.1)
        trace = simplify(looped).state.trace
        for k in range(len(trace) + 1):
            h = replay_trace(looped, trace[:k]).graph
            if not h.looped():
                assert _as_pair(_first_step(h)) == first_step_oracle(h), trace[:k]


def test_a_square_always_meets_an_isolated_vertex_or_a_fold_first():
    rng = Random(8)
    graphs = [random_graph(rng, 12, edge_prob=rng.choice((0.15, 0.25)), loop_prob=0.0)
              for _ in range(400)]
    graphs += [build_grid(GridSpec(family, m, n)) for family in ("free", "cylinder")
               for m in range(1, 5) for n in range(2, 9)]
    graphs += [residue_edge(g, (u, v)) for g in graphs[400:] for u, v in sorted(g.edges)[:6]]
    squares = 0
    for g in graphs:
        if next(_square_candidates(g), None) is not None:
            squares += 1
            assert _first_step(g).rule in ("isolated", "fold")
    assert squares >= 40


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scattered_graphs())
def test_simplify_equals_the_full_rescan_loop(g):
    # kind, trace and final graph; the state carries all three
    assert simplify(g) == simplify_oracle(g)


def test_simplify_equals_the_full_rescan_loop_on_cylinder_residues(monkeypatch):
    # one common-neighbour query per fold scan of a vertex: the carried
    # settled and touched masks spare most of the rescan loop's scans
    scans, common = [0], Graph.common_neighbors

    def counted(self, mask):
        scans[0] += 1
        return common(self, mask)

    monkeypatch.setattr(Graph, "common_neighbors", counted)
    rng, carried, rescanned = Random(16), 0, 0
    for m in range(1, 8):
        for n in range(1, 11):
            g = build_grid(GridSpec("cylinder", m, n))
            verts = sorted(g.vertices)
            for _ in range(4):
                r = residue_edge(g, (rng.choice(verts), rng.choice(verts)))
                scans[0] = 0
                verdict = simplify(r)
                carried, scans[0] = carried + scans[0], 0
                assert verdict == simplify_oracle(r), (m, n)
                rescanned += scans[0]
    assert 3 * carried < rescanned
