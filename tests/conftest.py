"""Shared corpus generators and brute-force oracles.

The oracles here are intentionally naive (full permutation scans) so they
stay independent of the library's pruned and refined implementations.
"""

import random
from itertools import permutations

import pytest

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


def brute_force_isomorphic(g: Graph, h: Graph) -> bool:
    """All-permutations isomorphism oracle; fine up to 7 or so vertices."""
    if g.order != h.order or g.size != h.size:
        return False
    for perm in permutations(range(1, g.order + 1)):
        image = frozenset(
            (perm[u - 1], perm[v - 1]) if perm[u - 1] <= perm[v - 1]
            else (perm[v - 1], perm[u - 1])
            for u, v in g.edges
        )
        if image == h.edges:
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


@pytest.fixture
def rng():
    return random.Random(0x5EC0)
