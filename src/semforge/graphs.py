"""Small graphs and digraphs with loops, and their structural operations.

Vertices are named 1..p throughout, so a vertex, its position in a labeling
vector, and its row index in an adjacency matrix can be used interchangeably.
Edge sets make multi-edges unrepresentable; loops are allowed.  All types are
immutable after construction and every operation is a pure function.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from .errors import NoSuchOrientation, ResourceLimit

if TYPE_CHECKING:  # pragma: no cover
    from .labelings import VertexLabeling

Edge = tuple[int, int]
Arc = tuple[int, int]

DEFAULT_ISO_ORDER_BOUND = 512
DEFAULT_ISO_NODE_BUDGET = 10_000_000
DEFAULT_CANONICAL_ORDER_BOUND = 10


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

    def degree(self, v: int) -> int:
        """Number of edge endpoints at v; a loop contributes 2."""
        return sum((u == v) + (w == v) for u, w in self.edges)

    def has_loop(self, v: int) -> bool:
        return (v, v) in self.edges

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u <= v else (v, u)) in self.edges

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, sorted by minimum vertex."""
        seen = set()
        comps = []
        adj = {v: set() for v in range(1, self.order + 1)}
        for u, w in self.edges:
            adj[u].add(w)
            adj[w].add(u)
        for start in range(1, self.order + 1):
            if start in seen:
                continue
            queue = deque([start])
            comp = []
            seen.add(start)
            while queue:
                v = queue.popleft()
                comp.append(v)
                for u in adj[v]:
                    if u not in seen:
                        seen.add(u)
                        queue.append(u)
            comps.append(sorted(comp))
        return comps


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

    def indegree(self, v: int) -> int:
        return sum(1 for _, b in self.arcs if b == v)

    def outdegree(self, v: int) -> int:
        return sum(1 for a, _ in self.arcs if a == v)


def _check_order(order, kind: str) -> None:
    if type(order) is not int:
        raise ValueError(f"{kind} order must be an integer, got {order!r}")
    if order < 1:
        raise ValueError(f"{kind} order must be positive, got {order}")


def _vertex_pairs(pairs, order: int, kind: str) -> frozenset:
    """The edge (``kind="edge"``) or arc set of a graph of the given order.

    Every member must be a pair of ``int`` vertices in [1, order]; ``bool`` is
    not a vertex.  Edges are normalised to ``u <= v``.  A frozenset of tuples
    that needs no normalising is kept as it is, so a set built by a parser or
    an operation is checked in one pass and not copied.
    """
    if type(pairs) is not frozenset:
        try:
            pairs = frozenset(map(tuple, pairs))
        except TypeError as exc:
            raise ValueError(f"{kind}s must be pairs of vertices: {exc}") from exc
    unsorted = outside = False
    for e in pairs:
        if type(e) is not tuple or len(e) != 2:
            raise ValueError(f"{kind}s must be pairs of vertices, got {e!r}")
        u, v = e
        if type(u) is not int or type(v) is not int:
            raise ValueError(f"vertices must be integers, got {kind} {e!r}")
        if u > v:
            unsorted = True
            if v < 1 or u > order:
                outside = True
        elif u < 1 or v > order:
            outside = True
    if unsorted and kind == "edge":
        pairs = frozenset((u, v) if u <= v else (v, u) for u, v in pairs)
    if outside:
        u, v = min(e for e in pairs if not (1 <= e[0] <= order and 1 <= e[1] <= order))
        raise ValueError(f"{kind} ({u},{v}) has an endpoint outside [1,{order}]")
    return pairs


@dataclass(frozen=True)
class AdjacencyMatrix:
    """0/1 matrix of a digraph; entry (i, j) is 1 iff the arc (i, j) is present."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.rows)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("adjacency matrix must be square")
            if any(x not in (0, 1) for x in row):
                raise ValueError("adjacency matrix entries must be 0 or 1")
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    def row_strings(self) -> list[str]:
        return ["".join(str(x) for x in row) for row in self.rows]


def underlying(d: Digraph) -> Graph:
    """Forget orientation: arcs (a,b) and (b,a) collapse to one edge, loops stay loops."""
    return Graph(d.order, frozenset(e if e[0] <= e[1] else (e[1], e[0]) for e in d.arcs))


def _bijection(labeling: "VertexLabeling | Sequence[int]", n: int) -> list[int]:
    """The labels of a relabeling, checked to be ``int`` names covering [1,n]."""
    names = list(getattr(labeling, "labels", labeling))
    if not set(map(type, names)) <= {int} or sorted(names) != list(range(1, n + 1)):
        raise ValueError("relabeling must be a bijection on [1,n]")
    return names


def relabel_digraph(d: Digraph, labeling: "VertexLabeling | Sequence[int]") -> Digraph:
    """Rename each vertex by its label, so vertex names and labels coincide."""
    names = _bijection(labeling, d.order)
    return Digraph(d.order, frozenset((names[a - 1], names[b - 1]) for a, b in d.arcs))


def indegree_one_orientation(g: Graph) -> Digraph:
    """Orient g so that every vertex has indegree exactly 1.

    Such an orientation exists iff every component contains exactly one cycle,
    a loop counting as a cycle.  The unique cycle of each component is oriented
    in ascending-vertex rotation (starting at the smallest cycle vertex, toward
    its smaller cycle neighbour) and tree edges point away from the cycle, so
    the output is deterministic and degree-1 vertices get outdegree 0.
    """
    n = g.order
    edges = g.edges
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    loops = []
    for u, v in edges:
        if u == v:
            loops.append(u)
        else:
            adj[u].append(v)
            adj[v].append(u)
    deg = [len(nbrs) for nbrs in adj]  # a loop counts 2
    for v in loops:
        deg[v] += 2
    # Components in order of their smallest vertex; each needs as many edges
    # as vertices, i.e. a degree sum of twice its vertex count.
    seen = [False] * (n + 1)
    for start in range(1, n + 1):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        twice_size = 0
        for v in comp:  # breadth-first: comp grows while it is read
            twice_size += deg[v]
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
        if twice_size != 2 * len(comp):
            problem = (
                "has no cycle (it is a tree)" if twice_size < 2 * len(comp)
                else "has more than one independent cycle"
            )
            raise NoSuchOrientation(f"component {sorted(comp)} {problem}")
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
        if (start, start) in edges:
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
    return Digraph(g.order, frozenset(arcs))


def adjacency_matrix(
    d: Digraph, relabel: "VertexLabeling | Sequence[int] | None" = None
) -> AdjacencyMatrix:
    """Adjacency matrix of d, optionally with vertices renamed by a bijection.

    With ``relabel`` given, entry (f(a), f(b)) is 1 iff (a, b) is an arc, i.e.
    the vertices take the name of their labels.
    """
    n = d.order
    if relabel is None:
        names = list(range(1, n + 1))
    else:
        names = _bijection(relabel, n)
    rows = [[0] * n for _ in range(n)]
    for a, b in d.arcs:
        rows[names[a - 1] - 1][names[b - 1] - 1] = 1
    return AdjacencyMatrix(tuple(tuple(row) for row in rows))


def _neighbor_multisets(g: Graph) -> dict[int, list[int]]:
    nbrs: dict[int, list[int]] = {v: [] for v in range(1, g.order + 1)}
    for u, v in g.edges:
        if u == v:
            nbrs[u].append(u)
        else:
            nbrs[u].append(v)
            nbrs[v].append(u)
    return nbrs


def _joint_refine(g: Graph, h: Graph):
    """Color-refine both graphs together; None when the color histograms split."""
    nbrs_g = _neighbor_multisets(g)
    nbrs_h = _neighbor_multisets(h)
    cg = {v: (g.has_loop(v), g.degree(v)) for v in range(1, g.order + 1)}
    ch = {v: (h.has_loop(v), h.degree(v)) for v in range(1, h.order + 1)}
    while True:
        if sorted(cg.values()) != sorted(ch.values()):
            return None
        ng = {v: (cg[v], tuple(sorted(cg[u] for u in nbrs_g[v]))) for v in cg}
        nh = {v: (ch[v], tuple(sorted(ch[u] for u in nbrs_h[v]))) for v in ch}
        ranks = {val: i for i, val in enumerate(sorted(set(ng.values()) | set(nh.values())))}
        ng = {v: ranks[val] for v, val in ng.items()}
        nh = {v: ranks[val] for v, val in nh.items()}
        stable = len(set(ng.values())) == len(set(cg.values())) and len(
            set(nh.values())
        ) == len(set(ch.values()))
        cg, ch = ng, nh
        if stable:
            if sorted(cg.values()) != sorted(ch.values()):
                return None
            return cg, ch


def isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test (loops respected) by refinement-guided backtracking."""
    if g.order > DEFAULT_ISO_ORDER_BOUND or h.order > DEFAULT_ISO_ORDER_BOUND:
        raise ResourceLimit(f"isomorphism bound is order <= {DEFAULT_ISO_ORDER_BOUND}")
    if g.order != h.order or g.size != h.size:
        return False
    refined = _joint_refine(g, h)
    if refined is None:
        return False
    cg, ch = refined
    by_color: dict[int, list[int]] = {}
    for w, c in ch.items():
        by_color.setdefault(c, []).append(w)
    order_vs = sorted(
        range(1, g.order + 1),
        key=lambda v: (len(by_color[cg[v]]), -g.degree(v), v),
    )
    mapping = {}
    used = set()
    nodes = 0

    def extend(idx: int) -> bool:
        nonlocal nodes
        if idx == len(order_vs):
            return True
        v = order_vs[idx]
        for w in by_color[cg[v]]:
            if w in used:
                continue
            nodes += 1
            if nodes > DEFAULT_ISO_NODE_BUDGET:
                raise ResourceLimit("isomorphism node budget exhausted")
            ok = True
            for u, wu in mapping.items():
                if g.has_edge(v, u) != h.has_edge(w, wu):
                    ok = False
                    break
            if ok and g.has_loop(v) == h.has_loop(w):
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
        img = tuple(
            sorted(
                (perm[u - 1], perm[v - 1])
                if perm[u - 1] <= perm[v - 1]
                else (perm[v - 1], perm[u - 1])
                for u, v in g.edges
            )
        )
        if best is None or img < best:
            best = img
    return Graph(g.order, frozenset(best))


def union_offsets(graphs: Sequence[Graph]) -> tuple:
    """Vertex-index offset of each component in the disjoint union."""
    offs = []
    total = 0
    for g in graphs:
        offs.append(total)
        total += g.order
    return tuple(offs)


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    """Disjoint union with components numbered consecutively in input order."""
    if not graphs:
        raise ValueError("disjoint_union needs at least one component")
    offs = union_offsets(graphs)
    edges = set()
    for g, off in zip(graphs, offs):
        edges.update((u + off, v + off) for u, v in g.edges)
    return Graph(sum(g.order for g in graphs), frozenset(edges))


def corona(g: Graph, n: int) -> Graph:
    """Corona product with the edgeless graph on n vertices.

    Each vertex of g is joined to n private new pendant vertices; pendants of
    vertex v are numbered p + (v-1)n + 1 .. p + vn.
    """
    if n < 0:
        raise ValueError("corona requires n >= 0")
    p = g.order
    edges = set(g.edges)
    for v in range(1, p + 1):
        for j in range(1, n + 1):
            edges.add((v, p + (v - 1) * n + j))
    return Graph(p * (n + 1), frozenset(edges))


# --- edge-list text format ----------------------------------------------------
#
# Line 1 is "p q" for a graph or "p q d" for a digraph; the next q lines are
# "u v" with 1-indexed endpoints ("u u" is a loop).  '#' starts a comment.


def _content_lines(text: str) -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


def _parse_pairs(lines: list[str], q: int, what: str) -> frozenset:
    """The q pair lines as one frozenset, edges normalised to ``u <= v``."""
    if len(lines) != q:
        raise ValueError(f"expected {q} {what} lines, found {len(lines)}")
    undirected = what == "edge"
    pairs = []
    for line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed {what} line: {line!r}")
        u, v = int(parts[0]), int(parts[1])
        pairs.append((v, u) if undirected and v < u else (u, v))
    found = frozenset(pairs)
    if len(found) != q:
        raise ValueError(f"duplicate {what} in {'graph' if undirected else 'digraph'} file")
    return found


def _graph_lines(lines: list[str]) -> tuple[int, frozenset]:
    """Order and normalised edge set of a graph file's content lines."""
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"graph header must be 'p q', got {lines[0]!r}")
    p, q = int(header[0]), int(header[1])
    return p, _parse_pairs(lines[1:], q, "edge")


def _digraph_lines(lines: list[str]) -> tuple[int, frozenset]:
    """Order and arc set of a digraph file's content lines."""
    header = lines[0].split()
    if len(header) != 3 or header[2] != "d":
        raise ValueError(f"digraph header must be 'p q d', got {lines[0]!r}")
    p, q = int(header[0]), int(header[1])
    return p, _parse_pairs(lines[1:], q, "arc")


def parse_graph(text: str) -> Graph:
    lines = _content_lines(text)
    if not lines:
        raise ValueError("empty graph file")
    return Graph(*_graph_lines(lines))


def parse_digraph(text: str) -> Digraph:
    lines = _content_lines(text)
    if not lines:
        raise ValueError("empty digraph file")
    return Digraph(*_digraph_lines(lines))


def _read_edge_list(text: str) -> tuple[bool, int, frozenset]:
    """``(directed, p, pairs)`` of a graph or digraph file.

    The pairs are not yet checked against p: building the graph is left to
    the caller, after the text and its lines are freed.
    """
    lines = _content_lines(text)
    if not lines:
        raise ValueError("empty graph file")
    if len(lines[0].split()) == 3:
        return (True, *_digraph_lines(lines))
    return (False, *_graph_lines(lines))


def parse_graph_or_digraph(text: str) -> Union[Graph, Digraph]:
    directed, p, pairs = _read_edge_list(text)
    return Digraph(p, pairs) if directed else Graph(p, pairs)


def format_graph(g: Graph) -> str:
    out = [f"{g.order} {g.size}"]
    out.extend(f"{u} {v}" for u, v in g.sorted_edges)
    return "\n".join(out) + "\n"


def format_digraph(d: Digraph) -> str:
    out = [f"{d.order} {d.size} d"]
    out.extend(f"{a} {b}" for a, b in d.sorted_arcs)
    return "\n".join(out) + "\n"
