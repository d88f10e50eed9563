"""Small graphs and digraphs with loops, and their structural operations.

Vertices are named 1..p throughout, so a vertex, its position in a labeling
vector, and its row index in an adjacency matrix can be used interchangeably.
Edge sets make multi-edges unrepresentable; loops are allowed, and ``_edges``
orders each edge ``u <= v``.  All types are immutable after construction and
every operation is a pure function.

Input from outside the package is checked once: by the reader of the
edge-list format, or by the ``Graph`` and ``Digraph`` constructors.  The
readers, the operations here and the package's builders form their pairs
from data already checked, so they build through ``_checked`` and skip the
constructors' second pass.  A digraph file read as a graph gives its edge
set directly, built once; duplicates are still judged on the arcs as
written.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Union

from .errors import NoSuchOrientation, ResourceLimit

if TYPE_CHECKING:  # pragma: no cover
    from .labelings import VertexLabeling

Edge = tuple[int, int]
Arc = tuple[int, int]

DEFAULT_ISO_ORDER_BOUND = 512
DEFAULT_ISO_NODE_BUDGET = 10_000_000
DEFAULT_CANONICAL_ORDER_BOUND = 10
MATRIX_ORDER_BOUND = 2000  # p * p cells of about 16 bytes each: 64 MB at the bound
# construct and product: at most about 440 MiB and 6 s of CPU at the bound (2-vCPU VM)
BUILD_ORDER_BOUND = 1_000_000


@dataclass(frozen=True)
class Graph:
    """Undirected graph on vertex set [1, order].

    Edges are stored as pairs ``(u, v)`` with ``u <= v``; a pair ``(u, u)`` is
    a loop.  Any iterable of pairs of ``int`` vertices is accepted and
    normalised; duplicates collapse by set semantics.
    """

    order: int
    edges: frozenset = frozenset()

    def __post_init__(self):
        _check_order(self.order, "graph")
        object.__setattr__(self, "edges", _vertex_pairs(self.edges, self.order, "edge"))

    @property
    def size(self) -> int:
        return len(self.edges)

    @property
    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


@dataclass(frozen=True)
class Digraph:
    """Directed graph on vertex set [1, order]; arcs are ordered pairs, loops allowed."""

    order: int
    arcs: frozenset = frozenset()

    def __post_init__(self):
        _check_order(self.order, "digraph")
        object.__setattr__(self, "arcs", _vertex_pairs(self.arcs, self.order, "arc"))

    @property
    def size(self) -> int:
        return len(self.arcs)

    @property
    def sorted_arcs(self) -> list[Arc]:
        return sorted(self.arcs)


def _checked(cls, order: int, pairs: frozenset):
    """The ``Graph`` or ``Digraph`` of the given order on ``pairs``, with no
    check: the caller guarantees a frozenset of pairs of ``int`` vertices in
    [1, order] and, for a ``Graph``, edges ordered ``u <= v``."""
    g = object.__new__(cls)
    object.__setattr__(g, "order", order)
    object.__setattr__(g, "edges" if cls is Graph else "arcs", pairs)
    return g


def _neighbourhoods(g: Graph) -> tuple[list, list]:
    """Open neighbour set and loop flag of every vertex; index 0 is unused."""
    nbrs = [set() for _ in range(g.order + 1)]
    loop = [False] * (g.order + 1)
    for u, v in g.edges:
        if u == v:
            loop[u] = True
        else:
            nbrs[u].add(v)
            nbrs[v].add(u)
    return nbrs, loop


def _degrees(nbhd: tuple) -> list:
    """Degree of every vertex of a ``_neighbourhoods`` table; index 0 is
    unused and a loop counts 2."""
    nbrs, loop = nbhd
    return [len(n) + 2 * lp for n, lp in zip(nbrs, loop)]


def _twins(nbhd: tuple) -> list:
    """The twin classes of a ``_neighbourhoods`` table, in order of their
    smallest vertex: the ascending lists of the vertices with the same open
    neighbourhood and loop flag.  Swapping two twins is an automorphism."""
    nbrs, loop = nbhd
    classes: dict = {}
    for v in range(1, len(nbrs)):
        classes.setdefault((frozenset(nbrs[v]), loop[v]), []).append(v)
    return list(classes.values())


def _components(adj: list):
    """Yield the connected components of the graph whose neighbours of v are
    ``adj[v]`` (index 0 unused), in order of their smallest vertex, each as
    a vertex list in breadth-first order."""
    seen = [False] * len(adj)
    for start in range(1, len(adj)):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for v in comp:  # breadth-first: comp grows while it is read
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
        yield comp


def _check_order(order, kind: str) -> None:
    if type(order) is not int:
        raise ValueError(f"{kind} order must be an integer, got {order!r}")
    if order < 1:
        raise ValueError(f"{kind} order must be positive, got {order}")


def check_build_bound(count: int, what: str = "order") -> None:
    """Raise ``ResourceLimit`` when a graph about to be built would have more
    than ``BUILD_ORDER_BOUND`` vertices (``what="order"``) or arcs (``"size"``)."""
    if count > BUILD_ORDER_BOUND:
        raise ResourceLimit(f"construction bound is {what} <= {BUILD_ORDER_BOUND}, got {count}")


def _edges(pairs) -> list:
    """The edges joining the two vertices of each of ``pairs``, each ordered
    ``u <= v``; an ordered pair is kept as the same object."""
    return [e if e[0] <= e[1] else (e[1], e[0]) for e in pairs]


def _vertex_pairs(pairs, order: int, kind: str) -> frozenset:
    """The edge (``kind="edge"``) or arc set of a graph of the given order.

    Any iterable of pairs is read alike: each member is made a tuple, and
    must be a pair of ``int`` vertices in [1, order]; ``bool`` is not a
    vertex.  Edges are normalised by ``_edges``, and the smallest pair with an
    endpoint outside [1, order] is named.  This is the check of pairs given
    to the public constructors; pairs that the package reads or builds itself
    are checked by the reader or valid by construction, and skip it through
    ``_checked``.
    """
    try:
        pairs = frozenset(map(tuple, pairs))
    except TypeError as exc:
        raise ValueError(f"{kind}s must be pairs of vertices: {exc}") from exc
    for e in pairs:
        if len(e) != 2:
            raise ValueError(f"{kind}s must be pairs of vertices, got {e!r}")
        u, v = e
        if type(u) is not int or type(v) is not int:
            raise ValueError(f"vertices must be integers, got {kind} {e!r}")
    if kind == "edge":
        pairs = frozenset(_edges(pairs))
    if not all(0 < u <= order and 0 < v <= order for u, v in pairs):
        _raise_outside(pairs, order, kind)
    return pairs


def _raise_outside(pairs, order: int, kind: str):
    """Name the smallest of ``pairs`` with an endpoint outside [1, order]."""
    u, v = min(e for e in pairs if not (1 <= e[0] <= order and 1 <= e[1] <= order))
    raise ValueError(f"{kind} ({u},{v}) has an endpoint outside [1,{order}]")


@dataclass(frozen=True)
class AdjacencyMatrix:
    """0/1 matrix of a digraph; entry (i, j) is 1 iff the arc (i, j) is present."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.rows)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("adjacency matrix must be square")
            # 0 and 1 as int, not bool: 1.0 == True == 1 would pass an `in` test
            if not set(map(type, row)) <= {int} or not set(row) <= {0, 1}:
                raise ValueError("adjacency matrix entries must be 0 or 1")
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    def row_strings(self) -> list[str]:
        return ["".join(str(x) for x in row) for row in self.rows]


def underlying(d: Digraph) -> Graph:
    """Forget orientation: arcs (a,b) and (b,a) collapse to one edge, loops stay loops."""
    return _checked(Graph, d.order, frozenset(_edges(d.arcs)))


def relabel_digraph(d: Digraph, labeling: "VertexLabeling") -> Digraph:
    """Rename each vertex by its label, so vertex names and labels coincide.

    ``labeling`` is a ``VertexLabeling``, which is a bijection by
    construction; only its order is checked against d's here.
    """
    names = labeling.labels
    if len(names) != d.order:
        raise ValueError(f"labeling has {len(names)} labels but the digraph has order {d.order}")
    return _checked(Digraph, d.order, frozenset([(names[a - 1], names[b - 1]) for a, b in d.arcs]))


def indegree_one_orientation(g: Graph) -> Digraph:
    """Orient g so that every vertex has indegree exactly 1.

    Such an orientation exists iff every component contains exactly one cycle,
    a loop counting as a cycle.  The unique cycle of each component is oriented
    in ascending-vertex rotation (starting at the smallest cycle vertex, toward
    its smaller cycle neighbour) and tree edges point away from the cycle, so
    the output is deterministic and degree-1 vertices get outdegree 0.  A
    graph with fewer edges than vertices is rejected in time and memory
    proportional to its edges, however large its order.
    """
    names = range(g.order + 1)
    if g.size < g.order:
        # No orientation exists.  To name the first bad component in time and
        # memory proportional to the edges, check only the vertices on an edge
        # and the first vertex on none, a component with no cycle, renamed
        # 1..m in ascending order: the components keep their order.
        touched = {v for e in g.edges for v in e}
        touched.add(next(v for v in itertools.count(1) if v not in touched))
        names = [0, *sorted(touched)]
        rank = {v: i for i, v in enumerate(names)}
        # rank is increasing, so each renamed edge stays ordered
        g = _checked(Graph, len(names) - 1, frozenset([(rank[u], rank[v]) for u, v in g.edges]))
    n = g.order
    adj, loop = nbhd = _neighbourhoods(g)
    deg = _degrees(nbhd)
    # Components in order of their smallest vertex; each needs as many edges
    # as vertices, i.e. a degree sum of twice its vertex count.
    for comp in _components(adj):
        twice_size = sum(deg[v] for v in comp)
        if twice_size != 2 * len(comp):
            problem = (
                "has no cycle (it is a tree)" if twice_size < 2 * len(comp)
                else "has more than one independent cycle"
            )
            raise NoSuchOrientation(f"component {sorted(names[v] for v in comp)} {problem}")
    # Strip degree-1 vertices; the survivors form the cycles.  A stripped
    # vertex gets degree 0.
    arcs: list[Arc] = []
    stack = [v for v in range(1, n + 1) if deg[v] == 1]
    while stack:
        leaf = stack.pop()
        deg[leaf] = 0
        for u in adj[leaf]:
            if deg[u]:
                break
        arcs.append((u, leaf))  # tree edge points away from the cycle
        deg[u] -= 1
        if deg[u] == 1:
            stack.append(u)
    # The first survivor met in a component is its smallest cycle vertex.
    # Each cycle vertex is zeroed as it is oriented, so its only surviving
    # neighbour is the next one; the last has none and closes at the start.
    for start in range(1, n + 1):
        if not deg[start]:
            continue
        deg[start] = 0
        if loop[start]:
            arcs.append((start, start))
            continue
        cur = min(u for u in adj[start] if deg[u])
        arcs.append((start, cur))
        while cur != start:
            deg[cur] = 0
            for nxt in adj[cur]:
                if deg[nxt]:
                    break
            else:
                nxt = start
            arcs.append((cur, nxt))
            cur = nxt
    return _checked(Digraph, g.order, frozenset(arcs))


def adjacency_matrix(d: Digraph, relabel: "VertexLabeling | None" = None) -> AdjacencyMatrix:
    """Adjacency matrix of d, optionally with vertices renamed by a ``VertexLabeling``.

    With ``relabel`` given, entry (f(a), f(b)) is 1 iff (a, b) is an arc, i.e.
    the vertices take the name of their labels.  It checks the order of
    ``relabel`` first, then raises ``ResourceLimit`` above
    ``MATRIX_ORDER_BOUND`` before allocating.
    """
    if relabel is not None:
        d = relabel_digraph(d, relabel)
    n = d.order
    if n > MATRIX_ORDER_BOUND:
        raise ResourceLimit(f"adjacency matrix bound is order <= {MATRIX_ORDER_BOUND}")
    rows = [[0] * n for _ in range(n)]
    for a, b in d.arcs:
        rows[a - 1][b - 1] = 1
    return AdjacencyMatrix(tuple(tuple(row) for row in rows))


def isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test (loops respected) by refinement-guided backtracking.

    Colour refinement runs on the disjoint union g ⊔ h, with g on vertices
    1..p and h on p+1..2p, so both halves share one colour list and one
    neighbourhood table; it answers False as soon as the halves' colour
    histograms differ.  A vertex starts with its loop flag and its number of
    other neighbours; a loop needs no entry among the neighbours, since the
    flag is already part of the vertex's own colour.  The backtracking then
    maps g's half onto h's half, vertices of the smallest colour class first;
    a vertex's images share its colour, and so its loop flag.  Each candidate
    image costs 1 plus one adjacency test per vertex already mapped, and
    ``ResourceLimit`` is raised once the work passes
    ``DEFAULT_ISO_NODE_BUDGET``, so the budget bounds the time.
    """
    if g.order > DEFAULT_ISO_ORDER_BOUND or h.order > DEFAULT_ISO_ORDER_BOUND:
        raise ResourceLimit(f"isomorphism bound is order <= {DEFAULT_ISO_ORDER_BOUND}")
    if g.order != h.order or g.size != h.size:
        return False
    p = g.order
    nbrs, loop = _neighbourhoods(disjoint_union([g, h]))
    vs = range(1, 2 * p + 1)
    colour = [None] + [(loop[v], len(nbrs[v])) for v in vs]  # index 0 is unused
    while True:
        if sorted(colour[1 : p + 1]) != sorted(colour[p + 1 :]):
            return False
        refined = [(colour[v], tuple(sorted(colour[u] for u in nbrs[v]))) for v in vs]
        ranks = {val: i for i, val in enumerate(sorted(set(refined)))}
        stable = len(ranks) == len(set(colour[1:]))
        colour = [None] + [ranks[val] for val in refined]
        if stable:
            break
    by_color: dict[int, list[int]] = {}
    for w in range(p + 1, 2 * p + 1):
        by_color.setdefault(colour[w], []).append(w)
    order_vs = sorted(
        range(1, p + 1),
        key=lambda v: (len(by_color[colour[v]]), -len(nbrs[v]) - 2 * loop[v], v),
    )
    mapping = {}
    used = set()
    work = 0

    def extend(idx: int) -> bool:
        nonlocal work
        if idx == len(order_vs):
            return True
        v = order_vs[idx]
        for w in by_color[colour[v]]:
            if w in used:
                continue
            work += 1 + len(mapping)
            if work > DEFAULT_ISO_NODE_BUDGET:
                raise ResourceLimit("isomorphism node budget exhausted")
            ok = True
            for u, wu in mapping.items():
                if (u in nbrs[v]) != (wu in nbrs[w]):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used.add(w)
                if extend(idx + 1):
                    return True
                used.discard(w)
                del mapping[v]
        return False

    return extend(0)


def canonical_form(g: Graph) -> Graph:
    """Canonical representative: the relabeling minimising the sorted edge list."""
    if g.order > DEFAULT_CANONICAL_ORDER_BOUND:
        raise ResourceLimit(f"canonical form bound is order <= {DEFAULT_CANONICAL_ORDER_BOUND}")
    best = None
    for perm in itertools.permutations(range(1, g.order + 1)):
        img = tuple(sorted(_edges([(perm[u - 1], perm[v - 1]) for u, v in g.edges])))
        if best is None or img < best:
            best = img
    return Graph(g.order, frozenset(best))


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    """Disjoint union with components numbered consecutively in input order."""
    if not graphs:
        raise ValueError("disjoint_union needs at least one component")
    edges = []
    off = 0
    for g in graphs:
        edges += [(u + off, v + off) for u, v in g.edges]
        off += g.order
    return _checked(Graph, off, frozenset(edges))


def corona(g: Graph, n: int) -> Graph:
    """Corona product with the edgeless graph on n vertices.

    Each vertex of g is joined to n private new pendant vertices; pendants of
    vertex v are numbered p + (v-1)n + 1 .. p + vn.
    """
    if n < 0:
        raise ValueError("corona requires n >= 0")
    p = g.order
    pendants = [(v, p + (v - 1) * n + j) for v in range(1, p + 1) for j in range(1, n + 1)]
    return _checked(Graph, p * (n + 1), g.edges.union(pendants))


# --- edge-list text format ----------------------------------------------------
#
# Line 1 is "p q" for a graph or "p q d" for a digraph; the next q lines are
# "u v" with 1-indexed endpoints ("u u" is a loop).  '#' starts a comment.


def _content_lines(text: str) -> list[str]:
    """The lines of a text file that hold something: each with its ``#``
    comment and surrounding whitespace cut, blank ones dropped.  An error
    about a line quotes it in this form."""
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.partition("#")[0] for raw in lines]
    return [line for raw in lines if (line := raw.strip())]


def _read_edge_list(
    text: str, directed: bool | None = None, *, as_graph: bool = False
) -> tuple[bool, int, frozenset]:
    """``(directed, p, pairs)`` of a graph or digraph file's text, checked.

    With ``directed=None`` the kind is read off the header, three fields
    making a digraph; a bool requires that kind.  Edges are normalised by
    ``_edges``.  With ``as_graph`` a digraph file's pairs are its underlying
    graph's edges, one set built once: antiparallel arcs give one edge, and
    duplicates are still judged on the arcs as written.  A malformed header
    or pair line is quoted in the error.  Each pair is range-checked as it is
    read; after the line count, the pair lines and duplicates, the order must
    be positive and then the smallest pair with an endpoint outside [1, p] is
    named: for a digraph file, the arc as written.  The pairs are then valid
    for ``_checked``.
    """
    lines = _content_lines(text)
    if not lines:
        raise ValueError(f"empty {'digraph' if directed else 'graph'} file")
    header = lines[0].split()
    if directed is None:
        directed = len(header) == 3
    kind, what, form = ("digraph", "arc", "p q d") if directed else ("graph", "edge", "p q")
    try:
        if len(header) != len(form.split()) or (directed and header[2] != "d"):
            raise ValueError
        p, q = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"{kind} header must be '{form}', got {lines[0]!r}") from None
    if len(lines) - 1 != q:
        raise ValueError(f"expected {q} {what} lines, found {len(lines) - 1}")
    pairs = []
    inside = True
    for line in lines[1:]:
        try:  # unpacking raises ValueError unless there are two fields
            u, v = line.split()
            u, v = int(u), int(v)
        except ValueError:
            raise ValueError(f"malformed {what} line: {line!r}") from None
        if not (0 < u <= p and 0 < v <= p):
            inside = False
        pairs.append((u, v))
    found = frozenset(pairs if directed and not as_graph else _edges(pairs))
    # q edges from q arcs: no arc is repeated and none is antiparallel;
    # only fewer edges call for the set of the arcs as written
    if len(found) != q and not (directed and as_graph and len(frozenset(pairs)) == q):
        raise ValueError(f"duplicate {what} in {kind} file")
    _check_order(p, kind)
    if not inside:
        _raise_outside(pairs if directed else found, p, what)
    return directed, p, found


def parse_graph(text: str) -> Graph:
    return _checked(Graph, *_read_edge_list(text, False)[1:])


def parse_digraph(text: str) -> Digraph:
    return _checked(Digraph, *_read_edge_list(text, True)[1:])


def parse_graph_or_digraph(text: str) -> Union[Graph, Digraph]:
    directed, p, pairs = _read_edge_list(text)
    return _checked(Digraph if directed else Graph, p, pairs)


def format_graph(g: Graph) -> str:
    out = [f"{g.order} {g.size}"]
    out += [f"{u} {v}" for u, v in g.sorted_edges]
    return "\n".join(out) + "\n"


def format_digraph(d: Digraph) -> str:
    out = [f"{d.order} {d.size} d"]
    out += [f"{a} {b}" for a, b in d.sorted_arcs]
    return "\n".join(out) + "\n"
