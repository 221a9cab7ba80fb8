"""Index-preserving graph rewriting and contractibility certificates.

Three rewrite rules operate on an explicit graph, each leaving the Witten
index invariant up to a tracked sign:

  fold(u, v):     if N(u) is a subset of N(v), delete v; index unchanged.
  pendant(u, v):  if u has degree 1 with neighbor v, delete N[v]; the
                  independence complex suspends, so the index flips sign.
  square(u,v,x,y): if u, v are adjacent degree-2 vertices on the 4-cycle
                  u-v-x-y, delete all four; again one suspension.

A state records the accumulated suspension count and an ordered trace, so
(-1)^suspensions * Z(current) = Z(original) at every step.  The trace, a
tuple of TraceSteps, is the certificate's one form: replay_trace re-checks
it step by step from the original graph.  An isolated loop-free vertex
makes the independence complex a cone, hence contractible and the index 0;
simplify uses that as its terminal contractibility test.

Looped vertices join no independent set, so dropping them is index-neutral;
simplify normalizes them away first, and the rule preconditions reject loops
on their witness vertices to keep each step individually sound.

RULES maps each trace step name (drop_loops, fold, pendant, square,
isolated) to the one function that checks and applies it; simplify,
replay_trace and detect_configuration all apply rules through it.

simplify never needs a square, and its pendant steps fire only on isolated
edges: both admit a fold first.  A deletion only shrinks neighbourhoods, so
only the touched vertices, the surviving neighbours of what a rule deleted,
can become isolated or gain a fold; simplify skips the settled ones, shown
to fold nowhere and untouched since, instead of rescanning the graph.

Every state's graph narrows the live mask of the input's one adjacency
(graphs.Graph: vertex v is bit v), read through its mask queries: N(u) <=
N(v) is an AND-NOT of two neighbour masks, a degree a popcount, a loop
bit u of N(u), u's fold partners the common neighbours of N(u), and the
settled and touched sets are masks.  Vertices are walked in id order and
squares in edge order, so every trace, verdict and sign is the id-set one.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from .errors import RuleInapplicableError
from .graphs import Graph, witten_brute


class TraceStep(NamedTuple):
    rule: str  # drop_loops | fold | pendant | square | isolated
    vertices: Tuple[int, ...]


class ReductionState(NamedTuple):
    graph: Graph
    suspensions: int
    trace: Tuple[TraceStep, ...]

    @classmethod
    def initial(cls, g: Graph) -> "ReductionState":
        return cls(g, 0, ())

    @property
    def sign(self) -> int:
        return -1 if self.suspensions % 2 else 1

    def witten(self) -> int:
        """Index of the original graph, via the certificate."""
        return self.sign * witten_brute(self.graph)


class Verdict(NamedTuple):
    kind: str  # CONTRACTIBLE | REDUCED
    state: ReductionState


CONTRACTIBLE = "CONTRACTIBLE"
REDUCED = "REDUCED"


# -- residue graphs ---------------------------------------------------------------


def residue_edge(g: Graph, e: Tuple[int, int]) -> Graph:
    """Induced subgraph on V minus (N[u] union N[v]); e need not be an edge."""
    u, v = e
    if u not in g or v not in g:
        raise ValueError(f"edge {e} has an endpoint outside the graph")
    return g.without_vertices(g.neighbor_mask(u) | g.neighbor_mask(v) | g.mask(e))


# -- the rules -------------------------------------------------------------------------


def _require(cond: bool, msg: str):
    if not cond:
        raise RuleInapplicableError(msg)


def _looped(g: Graph, *ws: int) -> bool:
    """Whether any of the live vertices ws has a loop: its own bit in N(w)."""
    return any(g.neighbor_mask(w) >> w & 1 for w in ws)


def _step(state: ReductionState, graph: Graph, rule: str,
          vertices: Tuple[int, ...], suspended: bool) -> ReductionState:
    return ReductionState(
        graph,
        state.suspensions + (1 if suspended else 0),
        state.trace + (TraceStep(rule, vertices),),
    )


def drop_loops(state: ReductionState) -> ReductionState:
    """Delete every looped vertex; no independent set can use one."""
    g = state.graph
    looped = g.looped()
    if not looped:
        return state
    return _step(state, g.without_vertices(looped), "drop_loops",
                 tuple(g.ids(looped)), False)


def apply_fold(state: ReductionState, u: int, v: int) -> ReductionState:
    g = state.graph
    _require(u in g and v in g and u != v,
             f"fold needs two distinct vertices, got {u}, {v}")
    _require(not _looped(g, u, v), "fold witnesses must be loop-free")
    _require(not g.neighbor_mask(u) & ~g.neighbor_mask(v),
             f"fold needs N({u}) contained in N({v})")
    return _step(state, g.without_vertices(1 << v), "fold", (u, v), False)


def apply_pendant_suspension(state: ReductionState, u: int, v: int) -> ReductionState:
    g = state.graph
    _require(u in g and v in g and u != v,
             f"pendant needs two distinct vertices, got {u}, {v}")
    _require(g.neighbor_mask(u) == 1 << v,
             f"pendant needs deg({u}) = 1 with neighbor {v}")
    _require(not _looped(g, v), "pendant support must be loop-free")
    return _step(state, g.without_vertices(g.neighbor_mask(v) | 1 << v),
                 "pendant", (u, v), True)


def apply_square_suspension(state: ReductionState, u: int, v: int,
                            x: int, y: int) -> ReductionState:
    g = state.graph
    four = (u, v, x, y)
    _require(len(set(four)) == 4 and all(w in g for w in four),
             f"square needs four distinct vertices, got {four}")
    _require(not _looped(g, *four), "square vertices must be loop-free")
    nu, nv, nx = g.neighbor_mask(u), g.neighbor_mask(v), g.neighbor_mask(x)
    _require(nu >> v & 1, f"square needs {u} and {v} adjacent")
    _require(nu.bit_count() == nv.bit_count() == 2,
             f"square needs deg({u}) = deg({v}) = 2")
    _require(nv >> x & nx >> y & nu >> y & 1, f"{four} is not a 4-cycle")
    return _step(state, g.without_vertices(g.mask(four)), "square", four, True)


def _certify_isolated(state: ReductionState, w: int) -> ReductionState:
    """Record an isolated vertex: the complex is a cone, the index 0."""
    g = state.graph
    _require(w in g and not g.neighbor_mask(w), f"vertex {w} is not isolated")
    return _step(state, g, "isolated", (w,), False)


# Rule name -> the one function that checks its precondition and applies it.
# drop_loops takes no witnesses: the looped vertices it deletes are determined.
RULES: Dict[str, Callable[..., ReductionState]] = {
    "drop_loops": lambda state, *looped: drop_loops(state),
    "fold": apply_fold,
    "pendant": apply_pendant_suspension,
    "square": apply_square_suspension,
    "isolated": _certify_isolated,
}
# Witnesses each rule takes after the state; drop_loops takes any list,
# which replay_trace compares with the loops it deletes.
_ARITY = {name: rule.__code__.co_argcount - 1
          for name, rule in RULES.items() if name != "drop_loops"}


# -- contractibility configurations -----------------------------------------------------


class Configuration(NamedTuple):
    kind: str  # A | B | C | D
    rule: str  # pendant | square
    rule_vertices: Tuple[int, ...]
    isolated_vertex: int


def _pendant_candidates(g: Graph) -> Iterator[Tuple[int, int]]:
    looped = g.looped()
    for u in g.ids(g.mask() & ~looped):
        nu = g.neighbor_mask(u)
        if nu.bit_count() == 1 and not nu & looped:
            yield u, next(g.ids(nu))


def _square_candidates(g: Graph) -> Iterator[Tuple[int, int, int, int]]:
    """4-cycles u-v-x-y on an edge u < v of loop-free degree-2 vertices
    with x, y loop-free, in the order of their edges (u, v)."""
    free = g.mask() & ~g.looped()
    two = g.mask(w for w in g.ids(free) if g.neighbor_mask(w).bit_count() == 2)
    for u in g.ids(two):
        nu = g.neighbor_mask(u)
        for v in g.ids(nu & two & -(2 << u)):  # the bits above u's
            (y,) = g.ids(nu & ~(1 << v))
            (x,) = g.ids(g.neighbor_mask(v) & ~(1 << u))
            if x != y and free >> x & free >> y & g.neighbor_mask(x) >> y & 1:
                yield u, v, x, y


def _effectively_isolated(h: Graph) -> List[int]:
    """Loop-free vertices of h all of whose neighbors are looped, ascending."""
    looped = h.looped()
    return [w for w in h.ids(h.mask() & ~looped) if not h.neighbor_mask(w) & ~looped]


def detect_configuration(g: Graph) -> Optional[Configuration]:
    """Find a one-step certificate of contractibility.

    Searches for a pendant or square application whose result has an isolated
    loop-free vertex w; the suspension of a cone is contractible, so the
    original index is 0.  Kinds: pendant-based with deg(w) = 1 in g is A,
    other pendant-based is B; square-based with deg(w) = 1 is C, else D.
    When one application isolates several vertices, a degree-1 witness is
    preferred (the facing-pendants reading), then the lowest id.
    """
    fresh = ReductionState.initial(g)
    for rule, kinds, candidates in (("pendant", "AB", _pendant_candidates(g)),
                                    ("square", "CD", _square_candidates(g))):
        for witnesses in candidates:
            ws = _effectively_isolated(RULES[rule](fresh, *witnesses).graph)
            if ws:
                leaves = [w for w in ws if g.neighbor_mask(w).bit_count() == 1]
                return Configuration(kinds[0] if leaves else kinds[1], rule,
                                     witnesses, (leaves or ws)[0])
    return None


# -- the driver -----------------------------------------------------------------


def _first_step(g: Graph, settled: int = 0,
                touched: Optional[int] = None) -> Optional[TraceStep]:
    """simplify's next step on a loop-free graph: an isolated vertex, else
    fold on the lexicographically first (u, v) pair, else pendant at the
    lowest pendant vertex.

    N(u) <= N(v) holds exactly when v is a neighbour of every w in N(u),
    so u's fold partners are the AND of those neighbour masks, less u, and
    the first is its lowest bit.  No square is searched: a square u-v-x-y
    always admits fold(u, x), as N(u) = {v, y} <= N(x).
    Nor does a pendant step fire on anything but an isolated edge: a leaf
    u whose neighbour v has another neighbour w admits fold(u, w).

    settled is the mask of vertices known to fold nowhere in g, which are
    skipped; touched, when given, the mask of the only vertices that may
    be isolated.  Vertices are scanned in ascending id order, so a fold at
    u shows that every unsettled vertex below u folds nowhere.
    """
    live = g.mask()
    for w in g.ids(live if touched is None else touched):
        if not g.neighbor_mask(w):
            return TraceStep("isolated", (w,))
    for u in g.ids(live & ~settled):
        partners = g.common_neighbors(g.neighbor_mask(u)) & ~(1 << u)
        if partners:
            return TraceStep("fold", (u, next(g.ids(partners))))
    witnesses = next(_pendant_candidates(g), None)
    return None if witnesses is None else TraceStep("pendant", witnesses)


def simplify(g: Graph) -> Verdict:
    """Rewrite until contractibility is certified or no rule applies.

    Loops go first; then each pass applies _first_step's rule through RULES
    (never a square, and a pendant only on an isolated edge).  Passes carry
    the settled vertices, shown to fold nowhere (those _first_step scanned
    before its fold, or all of them before a pendant), and the touched
    ones, the surviving neighbours of what the last rule deleted, both as
    masks of g's vertices.  An untouched vertex keeps N(u) while every N(v)
    only shrinks, so it cannot become isolated, and if settled it still
    folds nowhere: the trace is the one a full rescan at every pass gives.
    """
    state = drop_loops(ReductionState.initial(g))
    settled, touched = 0, None
    while True:
        before = state.graph
        step = _first_step(before, settled, touched)
        if step is None:
            return Verdict(REDUCED, state)
        state = RULES[step.rule](state, *step.vertices)
        if step.rule == "isolated":
            return Verdict(CONTRACTIBLE, state)
        kept = state.graph.mask()
        # bit v is vertex v, so the bits below u's hold every vertex scanned
        # before u; a pendant comes after a scan of all of them
        settled |= (1 << step.vertices[0]) - 1 if step.rule == "fold" else kept
        touched = 0
        for x in before.ids(before.mask() & ~kept):
            touched |= before.neighbor_mask(x)
        touched &= kept
        settled &= ~touched


def replay_trace(g: Graph, steps: Iterable[TraceStep]) -> ReductionState:
    """Re-run a trace, a sequence of TraceSteps, from scratch.

    Every step goes through its rule in RULES, which re-checks the
    precondition, and must add exactly that step to the trace, so a
    tampered trace fails loudly.
    """
    state = ReductionState.initial(g)
    for step in steps:
        rule, verts = step.rule, tuple(step.vertices)
        if rule not in RULES:
            raise RuleInapplicableError(f"unknown rule {rule!r}")
        if len(verts) != _ARITY.get(rule, len(verts)):
            raise RuleInapplicableError(
                f"{rule} takes {_ARITY[rule]} vertices, got {len(verts)}")
        done = RULES[rule](state, *verts)
        if done.trace != state.trace + (TraceStep(rule, verts),):
            raise RuleInapplicableError(f"{rule} {verts} does not apply as recorded")
        state = done
    return state
