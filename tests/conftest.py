"""Shared corpus generators and brute-force oracles.

The oracles here are intentionally naive (full permutation scans) so they
stay independent of the library's pruned and refined implementations.
"""

import math
import random
from collections import Counter
from itertools import permutations

import pytest

from semforge.errors import NoSuchOrientation
from semforge.graphs import Graph, disjoint_union


def all_possible_edges(p):
    return [(u, v) for u in range(1, p + 1) for v in range(u, p + 1)]


def random_equal_order_size_graph(rng: random.Random, max_order=7, min_order=1) -> Graph:
    """Random graph with order = size = p, loops allowed."""
    p = rng.randint(min_order, max_order)
    return Graph(p, frozenset(rng.sample(all_possible_edges(p), p)))


def _unicyclic_component(rng: random.Random, size: int) -> Graph:
    """One component with exactly one cycle (a loop counts as a cycle)."""
    if size < 3 or rng.random() < 0.5:
        edges = {(1, 1)}
        for v in range(2, size + 1):
            edges.add((rng.randint(1, v - 1), v))
    else:
        c = rng.randint(3, size)
        edges = {(i, i + 1) for i in range(1, c)}
        edges.add((1, c))
        for v in range(c + 1, size + 1):
            edges.add((rng.randint(1, v - 1), v))
    return Graph(size, frozenset(edges))


def random_indegree_one_graph(rng: random.Random, max_order=9) -> Graph:
    """Random graph in the domain of the indegree-1 orientation."""
    remaining = rng.randint(1, max_order)
    comps = []
    while remaining:
        size = rng.randint(1, remaining)
        comps.append(_unicyclic_component(rng, size))
        remaining -= size
    return disjoint_union(comps)


def _image(g: Graph, perm) -> frozenset:
    """The edge set of g with each vertex v renamed perm[v-1]."""
    return frozenset(
        (perm[u - 1], perm[v - 1]) if perm[u - 1] <= perm[v - 1]
        else (perm[v - 1], perm[u - 1])
        for u, v in g.edges
    )


def brute_force_isomorphic(g: Graph, h: Graph) -> bool:
    """All-permutations isomorphism oracle; fine up to 7 or so vertices."""
    if g.order != h.order or g.size != h.size:
        return False
    return any(_image(g, perm) == h.edges for perm in permutations(range(1, g.order + 1)))


def brute_force_automorphism_count(g: Graph) -> int:
    """|Aut g| by testing every permutation; fine up to 7 or so vertices."""
    return sum(_image(g, perm) == g.edges for perm in permutations(range(1, g.order + 1)))


def _partitions(n: int, largest: int):
    """Partitions of n into parts of at most ``largest``, parts descending."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def polya_class_count(p: int, loops: bool = True) -> int:
    """Number of loop-allowed graphs with p vertices and p edges up to
    isomorphism, by Pólya counting; without ``loops``, of loopless ones.

    S_p acts on the p(p+1)/2 edge slots {i <= j}, or on the p(p-1)/2 slots
    {i < j} without loops.  A permutation fixes a
    p-edge subset iff the subset is a union of its slot cycles, so the
    number it fixes is the coefficient of t^p in the product over its slot
    cycles of (1 + t^length).  By Burnside's lemma the average of that number
    over S_p is the number of orbits; the cycle index groups the
    permutations by cycle type, p!/centralizer of them per type.
    """
    slots = [(i, j) for i in range(p) for j in range(i if loops else i + 1, p)]
    total = 0
    for shape in _partitions(p, p):
        perm, first = [], 0
        for k in shape:  # the cycle (first, first+1, ..., first+k-1)
            perm += [first + (i + 1) % k for i in range(k)]
            first += k
        centralizer = math.prod(k**m * math.factorial(m) for k, m in Counter(shape).items())
        image = {(i, j): tuple(sorted((perm[i], perm[j]))) for i, j in slots}
        poly = [1] + [0] * p  # coefficients of t^0 .. t^p
        seen = set()
        for s in slots:
            length = 0
            while s not in seen:
                seen.add(s)
                s = image[s]
                length += 1
            if length:
                poly = [c + (poly[e - length] if e >= length else 0) for e, c in enumerate(poly)]
        total += math.factorial(p) // centralizer * poly[p]
    return total // math.factorial(p)


def reference_two_star_sem(leaves) -> bool:
    """Whether the union of ``star_with_loop(n)`` over n in ``leaves`` is SEM,
    decided without search; at most two entries may be nonzero (a 0 is a
    bare loop).

    Let centre i carry n_i leaves and label c_i.  Its loop has sum 2c_i and
    each leaf y the sum y + c_i; a leaf has degree 1 and a centre n_i + 2,
    so the consecutive-sums identity Σ deg·f = p·s + p(p-1)/2 reads
    Σ_i (n_i+1)·c_i = p·(s-1), which fixes s.  The loop sums must lie in the
    window W = [s, s+p-1]; the other labels must then go to the leaves so
    that the sums y + c_i are the rest of W, with n_i leaves at centre i.

    Forced-matching lemma: with one leaf-bearing centre, label a, each label
    y has the one sum y + a.  With two, labels a < b, take the unused labels
    in ascending order.  If y + a is a sum still open, y must take it: the
    only other label that can make y + a is y + a - b < y, which was placed
    before and did not take it.  Otherwise y must take y + b.  So for each
    choice of centre labels the assignment of the leaves is unique, if any,
    and the leaf counts per centre are compared with the n_i.  No search and
    no code of ``semforge.search`` is involved.
    """
    leaves = list(leaves)
    bearing = [i for i, n in enumerate(leaves) if n]
    if len(bearing) > 2:
        raise ValueError(f"at most two centres may have leaves, got {leaves}")
    p = sum(n + 1 for n in leaves)
    for centres in permutations(range(1, p + 1), len(leaves)):
        total = sum((n + 1) * c for n, c in zip(leaves, centres))
        if total % p:
            continue
        s = total // p + 1
        window = set(range(s, s + p))
        if not {2 * c for c in centres} <= window:
            continue
        open_sums = window - {2 * c for c in centres}
        by_centre = sorted((centres[i], leaves[i]) for i in bearing)
        counts = {c: 0 for c, _ in by_centre}
        for y in sorted(set(range(1, p + 1)) - set(centres)):
            for c, _ in by_centre:
                if y + c in open_sums:
                    open_sums.remove(y + c)
                    counts[c] += 1
                    break
            else:
                break
        else:
            if all(counts[c] == n for c, n in by_centre):
                return True
    return False


def reference_parse_edge_list(text: str):
    """Naive edge-list parser: ``(directed, p, pairs)`` or ``ValueError``.

    It checks what ``parse_graph_or_digraph`` checks, in the same order and
    with the same messages, without sharing its code: the endpoint named for
    an out-of-range pair is the smallest such (normalised) pair.
    """
    lines = [raw.split("#")[0].strip() for raw in text.splitlines()]
    lines = [line for line in lines if line]
    if not lines:
        raise ValueError("empty graph file")
    header = lines[0].split()
    directed = len(header) == 3
    if directed and header[2] != "d":
        raise ValueError(f"digraph header must be 'p q d', got {lines[0]!r}")
    if not directed and len(header) != 2:
        raise ValueError(f"graph header must be 'p q', got {lines[0]!r}")
    p, q = int(header[0]), int(header[1])
    what, kind = ("arc", "digraph") if directed else ("edge", "graph")
    if len(lines) - 1 != q:
        raise ValueError(f"expected {q} {what} lines, found {len(lines) - 1}")
    pairs = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed {what} line: {line!r}")
        u, v = int(parts[0]), int(parts[1])
        pairs.append((u, v) if directed else (min(u, v), max(u, v)))
    for i, pair in enumerate(pairs):
        if pair in pairs[:i]:
            raise ValueError(f"duplicate {what} in {kind} file")
    if p < 1:
        raise ValueError(f"{kind} order must be positive, got {p}")
    outside = sorted(e for e in pairs if not (1 <= e[0] <= p and 1 <= e[1] <= p))
    if outside:
        u, v = outside[0]
        raise ValueError(f"{what} ({u},{v}) has an endpoint outside [1,{p}]")
    return directed, p, frozenset(pairs)


def reference_indegree_one_orientation(g: Graph) -> frozenset:
    """Naive indegree-1 orientation: the arc set, or ``NoSuchOrientation``.

    It follows the rule of ``indegree_one_orientation``'s docstring without
    sharing its code: components in order of their smallest vertex, each with
    as many edges as vertices; leaves stripped until the cycle remains; the
    cycle walked from its smallest vertex toward its smaller cycle neighbour;
    tree edges pointing away from the cycle.
    """
    edges = sorted(g.edges)
    # each vertex takes the smallest vertex of its component as its name
    name = list(range(g.order + 1))
    changed = True
    while changed:
        changed = False
        for u, v in edges:
            low = min(name[u], name[v])
            if (name[u], name[v]) != (low, low):
                name[u] = name[v] = low
                changed = True
    comps = [[v for v in range(1, g.order + 1) if name[v] == c]
             for c in sorted(set(name[1:]))]
    for comp in comps:
        size = sum(1 for u, _ in edges if u in comp)
        if size < len(comp):
            raise NoSuchOrientation(f"component {comp} has no cycle (it is a tree)")
        if size > len(comp):
            raise NoSuchOrientation(f"component {comp} has more than one independent cycle")
    arcs = set()
    for comp in comps:
        rest = [e for e in edges if e[0] in comp]
        while True:
            leaves = [v for v in comp if sum((u == v) + (w == v) for u, w in rest) == 1]
            if not leaves:
                break
            rest = [e for e in rest if leaves[0] not in e]
        cycle = sorted({v for e in rest for v in e})
        if len(rest) == 1:  # a loop
            arcs.add(rest[0])
        else:
            walk = [cycle[0], min(w if u == cycle[0] else u for u, w in rest if cycle[0] in (u, w))]
            while len(walk) < len(cycle):
                walk.append(next(w if u == walk[-1] else u for u, w in rest
                                 if walk[-1] in (u, w) and walk[-2] not in (u, w)))
            arcs.update(zip(walk, walk[1:] + walk[:1]))
        # distance from the cycle; a tree edge points to its farther end
        dist = {v: 0 for v in cycle}
        while len(dist) < len(comp):
            for u, w in edges:
                if u in dist and w not in dist:
                    dist[w] = dist[u] + 1
                elif w in dist and u not in dist:
                    dist[u] = dist[w] + 1
        for u, w in edges:
            if u in comp and dist[u] != dist[w]:
                arcs.add((u, w) if dist[u] < dist[w] else (w, u))
    return frozenset(arcs)


@pytest.fixture
def rng():
    return random.Random(0x5EC0)
