"""Grid-family graphs and their Witten indices.

The Witten index of a graph G is the signed count of its independent sets,

    Z(G) = sum over independent S of (-1)^|S|,

the empty set contributing +1.  Equivalently Z(G) = 1 - chi(Ind(G)) where
Ind(G) is the independence complex.  Z is multiplicative over disjoint
unions, satisfies the deletion relations

    Z(G) = Z(G - v) - Z(G - N[v])        (vertex additivity)
    Z(G) = Z(G - e) - Z(G - N[e])        (edge additivity)

and vanishes whenever G has an isolated loop-free vertex.

Three product families are supported: the free grid P_m x P_n, the cylinder
P_m x C_n and the torus C_m x C_n.  Degenerate cycles follow the conventions
C_2 = P_2, C_1 = a single looped vertex, C_0 = P_0 = the empty graph.  A
looped vertex belongs to no independent set, so Z(C_1) = Z(P_0) = 1.

Two independent evaluation routes are provided: ``witten_brute``
(recursive deletion on a Graph's own neighbour bit masks; a leaf u with
neighbour v steps straight to -Z(G - N[v])) and
``witten_transfer`` (row transfer); they must always agree.  The transfer
has two primitives: ``_orbits(n)``, the dihedral orbits of the ring C_n's
independent states (49 / 99 / 209 for 843 / 2207 / 5778 states at
n = 14 / 16 / 18), their orbit matrix B, held dense (over 90 % of its
entries are nonzero) and counted from bit sets over the states, and the
powers B^k w kept so far, at most the 2N + 6 of the fit window; and
``_row_step``, one row stacked cell by cell on a sparse {mask: signed
count} dict, for free grids, tori and masked rows.  ``column_series`` is
the one column kernel: it stacks any masked top rows (none for cylinders,
two for patterns) with ``_row_step`` and reads every later row from the
powers B^k w.

Each index is a trace or bilinear form of a transfer power (Stanley, EC I
4.7) read from two half-height walks, since T = A D (A the symmetric row
compatibility, D the sign diagonal) has T^T = D T D and, on orbits,
B^T = Q B Q^-1 with Q = diag(size * w): a torus walks ceil(m/2) rows per
orbit, a free grid floor(m/2) + 1, an m-row column B^0 w .. B^(m // 2) w.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from operator import mul, neg
from random import Random
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import RequestRefusedError

FAMILIES = ("free", "cylinder", "torus")


class Graph:
    """Undirected graph on non-negative integer vertex ids; loops allowed.

    Vertex v is bit v.  The graph is one neighbour bit mask per id up to its
    largest and the mask of its live vertices; a looped vertex's mask holds
    its own bit.  without_vertices, the one way to narrow a graph, takes a
    mask of the vertices to drop, shares its parent's masks and narrows
    only the live mask; surviving vertices keep their ids, so reduction
    traces can be replayed against the original graph.  The masks are the
    one query form (mask, ids, neighbor_mask, common_neighbors, looped and
    v in g); vertices and edges read them out as ids.
    """

    __slots__ = ("_nbrs", "_live")

    def __init__(self, vertices: Iterable[int], edges: Iterable[Tuple[int, int]] = ()):
        ids = set(vertices)
        if min(ids, default=0) < 0:
            raise ValueError("vertex ids must be non-negative")
        live = sum(1 << v for v in ids)
        nbrs = [0] * live.bit_length()
        for u, v in edges:
            if u not in ids or v not in ids:
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside the vertex set")
            nbrs[u] |= 1 << v
            nbrs[v] |= 1 << u
        self._nbrs, self._live = tuple(nbrs), live

    @staticmethod
    def _of(nbrs: Tuple[int, ...], live: int) -> "Graph":
        g = Graph.__new__(Graph)
        g._nbrs, g._live = nbrs, live
        return g

    def mask(self, vertices: Optional[Iterable[int]] = None) -> int:
        """Bits of the live vertices among vertices (other ids add none), or
        of every live vertex."""
        if vertices is None:
            return self._live
        return sum({1 << v for v in vertices if v in self})  # distinct bits: sum is OR

    def ids(self, mask: int) -> Iterator[int]:
        """The live vertices of mask, ascending."""
        mask &= self._live
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def neighbor_mask(self, v: int) -> int:
        """N(v) as a mask; KeyError unless v is a live vertex."""
        if v not in self:
            raise KeyError(v)
        return self._nbrs[v] & self._live

    def common_neighbors(self, mask: int) -> int:
        """Mask of the live vertices adjacent to every vertex of mask."""
        nbrs, out = self._nbrs, self._live
        while mask:
            low = mask & -mask
            out &= nbrs[low.bit_length() - 1]
            mask ^= low
        return out

    def looped(self) -> int:
        """Mask of the live looped vertices."""
        return sum(1 << v for v, nbrs in enumerate(self._nbrs) if nbrs >> v & 1) & self._live

    def __contains__(self, v: int) -> bool:
        return v >= 0 and self._live >> v & 1 == 1

    @property
    def vertices(self) -> frozenset:
        """The live vertex ids."""
        return frozenset(self.ids(self._live))

    @property
    def edges(self) -> frozenset:
        """Every edge once, as (u, v) with u <= v; (v, v) is a loop."""
        return frozenset((u, v) for u in self.ids(self._live)
                         for v in self.ids(self._nbrs[u]) if u <= v)

    def without_vertices(self, drop: int) -> "Graph":
        """Subgraph without the vertices of mask drop (bits that are not live
        vertices drop nothing): these masks under a narrower live mask."""
        return self._of(self._nbrs, self._live & ~drop)

    def without_edge(self, u: int, v: int) -> "Graph":
        """The graph less edge (u, v): its masks with two bits cleared."""
        if not (u in self and v in self and self._nbrs[u] >> v & 1):
            raise ValueError(f"edge ({u}, {v}) not present")
        nbrs = list(self._nbrs)
        nbrs[u] &= ~(1 << v)
        nbrs[v] &= ~(1 << u)
        return self._of(tuple(nbrs), self._live)

    def _key(self) -> Tuple[int, Tuple[int, ...]]:
        """The live mask and the live neighbour masks of the live vertices."""
        return self._live, tuple(self._nbrs[v] & self._live for v in self.ids(self._live))

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Graph({self._live.bit_count()} vertices, {len(self.edges)} edges)"


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; h's vertex ids, and its masks, are shifted above g's."""
    offset = g.mask().bit_length()
    nbrs = [m & g.mask() for m in g._nbrs[:offset]] + [m << offset for m in h._nbrs]
    return Graph._of(tuple(nbrs), g.mask() | h.mask() << offset)


def random_graph(rng: Random, max_vertices: int, edge_prob: float = 0.3,
                 loop_prob: float = 0.05) -> Graph:
    """Seeded Erdos-Renyi-style graph on 1..max_vertices vertices, loops allowed."""
    n = rng.randint(1, max_vertices)
    edges = []
    for u in range(n):
        if rng.random() < loop_prob:
            edges.append((u, u))
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                edges.append((u, v))
    return Graph(range(n), edges)


# -- grid construction --------------------------------------------------------


class _GridFields(NamedTuple):
    family: str
    m: int
    n: int


class GridSpec(_GridFields):
    """A grid-family instance: family in {free, cylinder, torus}, sizes m, n >= 0."""

    __slots__ = ()

    def __new__(cls, family: str, m: int, n: int) -> "GridSpec":
        if family not in FAMILIES:
            raise RequestRefusedError(f"unknown family {family!r}; expected one of {FAMILIES}")
        if not (isinstance(m, int) and isinstance(n, int)):
            raise RequestRefusedError("grid sizes must be integers")
        if m < 0 or n < 0:
            raise RequestRefusedError("grid sizes must be non-negative")
        return super().__new__(cls, family, m, n)


def _factor_edges(k: int, cyclic: bool) -> List[Tuple[int, int]]:
    """Edges of P_k, or of C_k when cyclic, on 0..k-1.  C_2 = P_2, C_1 is a
    looped vertex and C_0 the empty graph."""
    if not cyclic or k == 2:
        return [(i, i + 1) for i in range(k - 1)]
    return [(i, (i + 1) % k) for i in range(k)]


def build_grid(spec: GridSpec) -> Graph:
    """Construct the product graph for a grid-family instance; vertex ids
    run row-major from 0 (see grid_vertex)."""
    m, n = spec.m, spec.n
    edges = [(a * n + b, a2 * n + b) for b in range(n)
             for a, a2 in _factor_edges(m, spec.family == "torus")]
    edges += [(a * n + b, a * n + b2) for a in range(m)
              for b, b2 in _factor_edges(n, spec.family != "free")]
    return Graph(range(m * n), edges)


def grid_vertex(spec: GridSpec, row: int, col: int) -> int:
    """Vertex id of cell (row, col) in build_grid(spec).  Rows run 1..m for
    path factors and 0..m-1 for cyclic ones, columns 1..n (free) or 0..n-1
    (cyclic), and ids run row-major from 0."""
    i, j = row - (spec.family != "torus"), col - (spec.family == "free")
    if not (0 <= i < spec.m and 0 <= j < spec.n):
        raise KeyError((row, col))
    return i * spec.n + j


# -- brute-force Witten index --------------------------------------------------


def _components(nbrs: Sequence[int], active: int) -> List[int]:
    """Connected components of the subgraph induced on the bits of active,
    as masks, in order of least bit."""
    comps: List[int] = []
    while active:
        comp = frontier = active & -active
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= nbrs[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & active & ~comp
            comp |= frontier
        comps.append(comp)
        active &= ~comp
    return comps


def witten_brute(g: Graph) -> int:
    """Witten index by recursive deletion on vertex masks.

    Looped vertices are discarded once (they join no independent set, and
    deletions add no loop), and an isolated vertex forces 0.  A leaf u, the
    lowest-id degree-1 vertex, with neighbour v gives Z(G) = -Z(G - N[v]):
    it is the pivot on v, whose branch G - v leaves u isolated.  Without a
    leaf, connected components multiply, and otherwise a maximum-degree
    vertex v, the lowest id among ties, is pivoted on via
    Z = Z(G-v) - Z(G-N[v]).  So a forest never reaches the component
    search.  It recurses on g's own neighbour masks, from its live mask less
    the looped vertices; bit v is vertex v, so ascending bits walk the ids.
    """
    nbrs, memo = g._nbrs, {}

    def solve(active: int) -> int:
        if not active:
            return 1
        cached = memo.get(active)
        if cached is not None:
            return cached
        top, pivot, leaf, rest = -1, 0, 0, active
        while rest:  # ascending bits, so a tie keeps the lowest id
            low = rest & -rest
            deg = (nbrs[low.bit_length() - 1] & active).bit_count()
            if deg == 0:
                memo[active] = 0
                return 0
            if deg == 1 and not leaf:
                leaf = low
            if deg > top:
                top, pivot = deg, low
            rest ^= low
        if leaf:  # pivot on the leaf's neighbour v: G - v isolates the leaf
            v = nbrs[leaf.bit_length() - 1] & active
            result = -solve(active & ~(nbrs[v.bit_length() - 1] | v))
        elif len(comps := _components(nbrs, active)) > 1:
            result = 1
            for comp in comps:
                result *= solve(comp)
                if result == 0:
                    break
        else:
            closed = nbrs[pivot.bit_length() - 1] | pivot
            result = solve(active ^ pivot) - solve(active & ~closed)
        memo[active] = result
        return result

    return solve(g.mask() & ~g.looped())


# -- transfer-matrix Witten index ----------------------------------------------

_POPCOUNT = bytes(i.bit_count() for i in range(256))  # translate table: byte -> its bit count


def _row_step(vec: Dict[int, int], n: int, allowed: int, cyclic: bool) -> Dict[int, int]:
    """Stack one row of width n, cell by cell, on {previous row mask: count}.

    Cell i overwrites profile bit i.  It may be occupied when it is allowed
    and the cells above (old bit i), to the left (new bit i-1) and, closing
    a cyclic row, cell 0 are empty; each occupied cell flips the sign.
    """
    if cyclic and n == 1:
        allowed = 0  # C_1 is a looped vertex
    for i in range(n):
        bit = 1 << i
        blocked = bit | bit >> 1 | (1 if cyclic and i == n - 1 else 0)
        placeable = allowed & bit
        nxt: Dict[int, int] = {}
        get = nxt.get
        for p, v in vec.items():
            if v:  # signs cancel often, and a zero count extends nothing
                q = p & ~bit
                nxt[q] = get(q, 0) + v
                if placeable and not p & blocked:
                    nxt[q | bit] = get(q | bit, 0) - v
        vec = nxt
    return vec


class RingOrbits:
    """Dihedral orbits of a ring's independent states: least member, size
    and sign w = (-1)^|rep| per orbit, the orbit of every state, the dense
    rows of B[a][b] = w(rep_a) #{t in orbit b : t & rep_a = 0}, the fit
    window 2N + 6 for N orbits, and the powers B^k w computed so far below
    that window, shared by every caller.  size_a w_a B[a][b] counts the
    compatible state pairs of orbits a and b, so B^T = Q B Q^-1 for
    Q = diag(size * w).  Row a is read at once from bit sets over the
    states: the states rep_a leaves free, popcounted orbit by orbit."""

    # src keeps no dataclass: importing dataclasses costs about 8 ms and each
    # class 1 ms more; immutable records are NamedTuples, this cache grows
    __slots__ = ("reps", "sizes", "weights", "orbit_of", "matrix", "window", "kept")

    def __init__(self, reps, sizes, weights, orbit_of, matrix):
        self.reps, self.sizes, self.weights = reps, sizes, weights
        self.orbit_of, self.matrix = orbit_of, matrix
        self.window = 2 * len(reps) + 6
        self.kept = [weights]

    def powers(self) -> Iterator[Tuple[int, ...]]:
        """B^0 w, B^1 w, ...: B^k w is k + 1 free ring rows on each
        representative.  Powers below the window are kept; deeper ones are
        stepped from the one before and dropped."""
        kept = self.kept
        yield from kept
        u, k = kept[-1], len(kept)
        while True:
            u = tuple(sum(map(mul, row, u)) for row in self.matrix)
            if k == len(kept) < self.window:  # another walk may have kept it
                kept.append(u)
            yield u
            k += 1


@lru_cache(maxsize=32)
def _orbits(n: int) -> RingOrbits:
    full = (1 << n) - 1
    orbit_of: Dict[int, int] = {}
    reps, sizes = [], []
    for s in sorted(_row_step({0: 1}, n, full, cyclic=True)):
        if s not in orbit_of:
            mirror = int(format(s, f"0{n}b")[::-1], 2) if n else 0
            images = {s} | {((x << k) | (x >> (n - k))) & full
                            for x in (s, mirror) for k in range(n)}
            orbit_of.update(dict.fromkeys(images, len(reps)))
            reps.append(s)
            sizes.append(len(images))
    weights = tuple(-1 if r.bit_count() & 1 else 1 for r in reps)
    # B from bit sets over the states: orbit b fills bits 8kb .. 8kb + size_b - 1
    # (k bytes per orbit; an orbit has at most 2n states) and no set holds a
    # pad bit.  cells[j] holds the states with cell j occupied, live every
    # state, and row a's compatible states are live less rep_a's cells.
    # Their popcount per byte, times 1 + 256 + ... + 256^(k-1), sums each
    # orbit's k bytes into its top byte, with no carry while 8k < 256.
    k, fmt = -(-max(sizes) // 8), f"0{n}b"
    order, words, flags = iter(sorted(orbit_of, key=orbit_of.get)), [], []
    for size in sizes:
        pad = 8 * k - size
        words += [format(t, fmt) for t in islice(order, size)] + [format(0, fmt)] * pad
        flags.append("1" * size + "0" * pad)
    # character p of a joined string is bit p; character i of a word is cell n - 1 - i
    cells = [int("".join(column)[::-1], 2) for column in zip(*words)][::-1]
    live = int("".join(flags)[::-1], 2)
    width, spread = k * len(reps), int.from_bytes(b"\1" * k, "little")
    matrix = []
    for r, w in zip(reps, weights):
        free = live
        for j in range(r.bit_length()):
            if r >> j & 1:
                free &= ~cells[j]
        pops = free.to_bytes(width, "little").translate(_POPCOUNT)
        sums = (int.from_bytes(pops, "little") * spread).to_bytes(width + k, "little")
        row = sums[k - 1:width:k]
        matrix.append(tuple(row) if w > 0 else tuple(map(neg, row)))
    return RingOrbits(tuple(reps), tuple(sizes), weights, orbit_of, tuple(matrix))


def column_series(n: int, mmax: int, masks: Sequence[int] = ()) -> List[int]:
    """[Z of rows 1..m of P_mmax x C_n for m = 0..mmax], row i + 1 restricted
    to masks[i].  The masked counts fold into orbits, read against B^k w
    below them.  With no masks, z_m = Z(P_m x C_n) = (B^m w)[orbit of 0]
    = (B^(m+1))_00, as B e_0 = w; with B^T = Q B Q^-1, q = size * w and
    u_k = B^k w, that is z_2b+1 = sum q u_b^2 and z_2b = sum q u_b-1 u_b,
    so the column reads u_0 .. u_(mmax // 2)."""
    if n < 0 or mmax < 0:
        raise ValueError("column_series needs n >= 0 and mmax >= 0")
    vec, out, full = {0: 1}, [1], (1 << n) - 1
    # Z and the orbit fold are rotation-invariant: start the cyclic walk at
    # row 1's first one, so no leading forbidden cell doubles the profiles
    first = masks[0] & full if masks else 0
    shift = (first & -first).bit_length() - 1
    if shift > 0:
        masks = [((m & full) >> shift | m << (n - shift)) & full for m in masks]
    for mask in masks[:mmax]:
        vec = _row_step(vec, n, mask, cyclic=True)
        out.append(sum(vec.values()))
    if mmax <= len(masks):
        return out  # no unmasked row: build no ring (n may be huge at mmax = 0)
    orb = _orbits(n)
    if not masks:
        q, prev = [s * w for s, w in zip(orb.sizes, orb.weights)], None
        for u in islice(orb.powers(), mmax // 2 + 1):
            if prev is not None:
                out.append(sum(c * x * y for c, x, y in zip(q, prev, u)))
            out.append(sum(c * x * x for c, x in zip(q, u)))
            prev = u
        return out[:mmax + 1]
    fold: Dict[int, int] = {}
    for s, v in vec.items():
        a = orb.orbit_of[s]
        fold[a] = fold.get(a, 0) + orb.weights[a] * v  # B^k w counts s's sign again
    for u in islice(orb.powers(), 1, mmax - len(masks) + 1):
        out.append(sum(f * u[a] for a, f in fold.items()))
    return out


def fit_window(n: int) -> int:
    """Column terms (rows 0 .. 2N + 5 for the N orbits of C_n) that certify
    the rational form of the column series; each ring keeps that many powers."""
    return _orbits(n).window


def transfer_width(spec: GridSpec) -> int:
    """Width of the row masks witten_transfer will enumerate.

    Cylinders iterate the orbit matrix of a ring this wide; free grids and
    tori stack rows this wide cell by cell: the work is exponential in it.
    Degenerate sizes that short-circuit to a constant report width 0.
    """
    m, n = spec.m, spec.n
    if spec.family == "free":
        return 0 if m == 0 or n == 0 else min(m, n)
    if spec.family == "cylinder":
        return 0 if m == 0 else n
    return 0 if m <= 1 or n <= 1 else min(m, n)


def witten_transfer(spec: GridSpec) -> int:
    """Witten index of a grid-family instance via row transfer.  As
    T^T = D T D, (T^k)_rr = D_r sum_x D_x (T^a)_rx (T^b)_rx for a = ceil(k/2),
    b = floor(k/2), read from one a-row walk from e_r: a torus sums it over
    orbit representatives at k = m, and a free grid is (T^(m+1))_00, since
    every row is compatible with the empty one."""
    m, n = spec.m, spec.n
    if spec.family == "cylinder":
        return column_series(n, m)[m]
    if n > m:
        m, n = n, m  # stack along the longer side, masks on the shorter
    full, cyclic = (1 << n) - 1, spec.family == "torus"
    if not cyclic:
        starts, m = [(0, 1)], m + 1  # Z(P_m x P_n) = (T^(m+1))_00
    elif n <= 1:
        return 1  # C_0 is empty; a C_1 factor puts a loop on every vertex
    else:  # the trace of the m-th transfer power is constant on orbits
        orb = _orbits(n)
        starts = zip(orb.reps, (s * w for s, w in zip(orb.sizes, orb.weights)))
    total = 0
    for rep, q in starts:
        vec = half = {rep: 1}
        for k in range(1, (m + 1) // 2 + 1):
            vec = _row_step(vec, n, full, cyclic)
            if k == m // 2:
                half = vec
        total += q * sum((-v if p.bit_count() & 1 else v) * half.get(p, 0)
                         for p, v in vec.items())
    return total


# -- suspension identities -----------------------------------------------------


# name -> (family, fixed side, its value, shift, sign, first size of the
# other side).  Each row encodes Z(family, m, n) == sign * Z(family, m', n')
# for the fixed side ("m" or "n") at its value and the other side at the
# first size or more, where m', n' is m, n with the other side less shift.
_IDENTITIES = {
    "one_row_cylinder_shift3": ("cylinder", "m", 1, 3, -1, 4),
    "two_row_cylinder_shift4": ("cylinder", "m", 2, 4, 1, 5),
    "three_row_cylinder_shift8": ("cylinder", "m", 3, 8, 1, 9),
    "circumference3_shift3": ("cylinder", "n", 3, 3, 1, 3),
    "circumference5_shift2": ("cylinder", "n", 5, 2, 1, 2),
    "circumference7_shift4": ("cylinder", "n", 7, 4, 1, 4),
    "one_row_free_shift3": ("free", "m", 1, 3, -1, 3),
    "two_row_free_shift2": ("free", "m", 2, 2, -1, 2),
    "three_row_free_shift4": ("free", "m", 3, 4, -1, 4),
    "torus3_shift3": ("torus", "m", 3, 3, 1, 4),
}


def identity_instances(m_max: int, n_max: int) -> Iterator[Tuple[str, int, int]]:
    """(identity, m, n) for every in-range instance with m <= m_max and
    n <= n_max, in sweep order (by identity, then m, then n), lazily."""
    for name, (_, side, value, _, _, first) in _IDENTITIES.items():
        if side == "m" and value <= m_max:
            yield from ((name, value, n) for n in range(first, n_max + 1))
        elif side == "n" and value <= n_max:
            yield from ((name, m, value) for m in range(first, m_max + 1))


def _rhs(name: str, m: int, n: int) -> Tuple[str, int, int, int]:
    """(family, sign, m', n') of the instance: its rhs is sign * Z(family, m', n')."""
    family, side, _, shift, sign, _ = _IDENTITIES[name]
    return (family, sign, m, n - shift) if side == "m" else (family, sign, m - shift, n)


def verify_index_identities(m_max: int, n_max: int) -> List[Tuple[str, str, int, int, int, int]]:
    """(identity, family, m, n, lhs, rhs) of every in-range instance of the
    ten suspension identities; an instance holds when lhs == rhs.

    Each identity relates Z on one family to Z at a shifted size with a fixed
    sign; the ranges exclude the degenerate instances where the underlying
    homotopy equivalences do not apply.  Cylinders read one column per
    circumference, as tall as the tallest instance at it.
    """
    instances = [(name, m, n, _rhs(name, m, n)) for name, m, n in identity_instances(m_max, n_max)]
    tallest: Dict[int, int] = {}  # cylinder circumference -> rows read
    for _, m, n, (family, _, mr, nr) in instances:
        if family == "cylinder":
            for mi, ni in ((m, n), (mr, nr)):
                tallest[ni] = max(tallest.get(ni, 0), mi)
    columns = {n: column_series(n, m) for n, m in tallest.items()}

    def z(family: str, m: int, n: int) -> int:
        if family == "cylinder":
            return columns[n][m]
        return witten_transfer(GridSpec(family, m, n))

    return [(name, family, m, n, z(family, m, n), sign * z(family, mr, nr))
            for name, m, n, (family, sign, mr, nr) in instances]
