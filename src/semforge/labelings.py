"""Vertex labelings, induced edge sums, and the consecutive-sum certificate.

A bijective vertex labeling certifies a (p,q)-graph super edge-magic exactly
when the q induced endpoint sums are distinct consecutive integers; a loop at
u is one edge inducing the single sum 2g(u).  Such a labeling extends uniquely
to a full edge-magic labeling by giving edge uv the label p+q+s-g(u)-g(v),
where s is the smallest induced sum.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import NotSem, VerificationFailed
from .graphs import AdjacencyMatrix, Graph

if TYPE_CHECKING:  # pragma: no cover
    from .families import CertifiedLabeledGraph


@dataclass(frozen=True)
class VertexLabeling:
    """A bijection from [1,p] vertices onto [1,p]; ``labels[v-1]`` labels vertex v."""

    labels: tuple

    def __post_init__(self):
        labels = tuple(self.labels)
        if not set(map(type, labels)) <= {int}:
            bad = next(x for x in labels if type(x) is not int)
            raise ValueError(f"labels must be integers, got {bad!r}")
        # p integers that cover [1,p] are a bijection onto it
        if not set(labels).issuperset(range(1, len(labels) + 1)):
            raise ValueError(
                f"labels must be a bijection onto [1,{len(labels)}], got {labels}"
            )
        object.__setattr__(self, "labels", labels)

    @property
    def order(self) -> int:
        return len(self.labels)

    def of(self, v: int) -> int:
        return self.labels[v - 1]


def identity_labeling(p: int) -> VertexLabeling:
    return VertexLabeling(tuple(range(1, p + 1)))


@dataclass(frozen=True)
class SumWindow:
    """The interval [s_min, s_min+width-1] of induced sums of a SEM labeling."""

    s_min: int
    width: int

    @property
    def s_max(self) -> int:
        return self.s_min + self.width - 1

    def as_pair(self) -> list:
        return [self.s_min, self.s_max]


@dataclass(frozen=True)
class FullLabeling:
    """Labels for vertices and edges together with the claimed magic sum.

    Construction only rejects labels that are not ``int`` and normalises
    shapes; semantic validity is the business of ``verify_edge_magic``, so
    deliberately broken labelings can be represented and rejected there.
    """

    vertex_labels: tuple
    edge_labels: tuple
    magic_sum: int

    def __post_init__(self):
        vl = tuple(self.vertex_labels)
        el = [((u, v) if u <= v else (v, u), lab) for (u, v), lab in self.edge_labels]
        for kind, labels in (("vertex", vl), ("edge", [lab for _, lab in el])):
            if not set(map(type, labels)) <= {int}:
                bad = next(x for x in labels if type(x) is not int)
                raise ValueError(f"{kind} labels must be integers, got {bad!r}")
        el = tuple(sorted(el))
        object.__setattr__(self, "vertex_labels", vl)
        object.__setattr__(self, "edge_labels", el)

    @property
    def edge_label_map(self) -> dict:
        return dict(self.edge_labels)


def _check_order(g: Graph, labeling: VertexLabeling) -> None:
    if labeling.order != g.order:
        raise ValueError(
            f"labeling has {labeling.order} labels but the graph has order {g.order}"
        )


def induced_sums(g: Graph, labeling: VertexLabeling) -> list:
    """Distinct induced sums with multiplicities, sorted ascending.

    A loop uv with u=v contributes the single sum 2g(u).
    """
    _check_order(g, labeling)
    counts = Counter(labeling.of(u) + labeling.of(v) for u, v in g.edges)
    return sorted(counts.items())


def is_sem(g: Graph, labeling: VertexLabeling):
    """Does the labeling certify g super edge-magic?

    Returns ``(True, window)`` when the q induced sums are q distinct
    consecutive integers, ``(False, None)`` otherwise.  An edgeless graph is
    vacuously certified with no window.
    """
    _check_order(g, labeling)
    label = (0, *labeling.labels)  # label[v] is the label of vertex v
    sums = [label[u] + label[v] for u, v in g.edges]
    q = len(sums)
    if q == 0:
        return True, None
    lo, hi = min(sums), max(sums)
    if hi - lo + 1 == q and len(set(sums)) == q:
        return True, SumWindow(lo, q)
    return False, None


def verified_window(g: Graph, labeling: VertexLabeling, what: str) -> SumWindow | None:
    """The window of a labeling that the code guarantees to be SEM on g.

    The self-check of every constructed, lifted or searched labeling: raises
    ``VerificationFailed`` if ``is_sem`` rejects it, since that is a fault
    in the code, not a property of g.
    """
    ok, window = is_sem(g, labeling)
    if not ok:
        raise VerificationFailed(f"{what} rejected by is_sem")
    return window


def complement(labeling: VertexLabeling) -> VertexLabeling:
    """The complementary labeling x -> p+1-g(x); an involution preserving SEM."""
    p = labeling.order
    return VertexLabeling(tuple(p + 1 - x for x in labeling.labels))


def complete_to_edge_magic(g: Graph, labeling: VertexLabeling) -> FullLabeling:
    """Extend a SEM vertex labeling to the full edge-magic labeling it forces.

    Edge uv gets label p+q+s-g(u)-g(v) and every edge sum equals p+q+s.
    """
    ok, window = is_sem(g, labeling)
    if not ok or window is None:
        raise NotSem("labeling does not induce q distinct consecutive sums")
    k = g.order + g.size + window.s_min
    edge_labels = tuple(
        ((u, v), k - labeling.of(u) - labeling.of(v)) for u, v in g.edges
    )
    return FullLabeling(labeling.labels, edge_labels, k)


def verify_edge_magic(g: Graph, full: FullLabeling, require_super: bool = False) -> bool:
    """Check that ``full`` is an edge-magic labeling of g.

    True iff vertex and edge labels together are a bijection onto [1,p+q],
    every edge xy satisfies f(x)+f(xy)+f(y) = magic_sum (a loop contributes
    2f(x)+f(xx)), and, when ``require_super``, vertex labels are exactly [1,p].
    """
    p, q = g.order, g.size
    if len(full.vertex_labels) != p:
        return False
    if frozenset(e for e, _ in full.edge_labels) != g.edges:
        return False
    every = list(full.vertex_labels) + [lab for _, lab in full.edge_labels]
    if sorted(every) != list(range(1, p + q + 1)):
        return False
    vl = full.vertex_labels
    for (u, v), lab in full.edge_labels:
        if vl[u - 1] + vl[v - 1] + lab != full.magic_sum:
            return False
    if require_super and sorted(full.vertex_labels) != list(range(1, p + 1)):
        return False
    return True


@dataclass(frozen=True)
class CounterdiagonalProfile:
    """1-counts per counterdiagonal of an adjacency matrix, indexed by i+j.

    ``counts[0]`` is the count on the diagonal with index sum 2 and so on up
    to sum 2n.  The profile is compliant when every count is at most 1 and the
    sums that do occur form a consecutive run (an empty support is vacuously
    compliant).
    """

    counts: tuple

    @property
    def support(self) -> list:
        return [i + 2 for i, c in enumerate(self.counts) if c]

    @property
    def compliant(self) -> bool:
        if any(c > 1 for c in self.counts):
            return False
        sup = self.support
        return not sup or sup[-1] - sup[0] + 1 == len(sup)

    def count_for(self, index_sum: int) -> int:
        return self.counts[index_sum - 2]


def counterdiagonal_profile(matrix: AdjacencyMatrix) -> CounterdiagonalProfile:
    n = matrix.n
    counts = [0] * (2 * n - 1)
    for i, row in enumerate(matrix.rows, start=1):
        for j, bit in enumerate(row, start=1):
            if bit:
                counts[i + j - 2] += 1
    return CounterdiagonalProfile(tuple(counts))


def rotate_pi(matrix: AdjacencyMatrix) -> AdjacencyMatrix:
    """Half-turn rotation: entry (i,j) moves to (n+1-i, n+1-j).  An involution."""
    return AdjacencyMatrix(tuple(tuple(reversed(row)) for row in reversed(matrix.rows)))


# --- labeling JSON format -----------------------------------------------------


def labeling_json(g: Graph, labeling: VertexLabeling) -> dict:
    """The labeling JSON object: p, labels, sem flag, window, magic sum."""
    return _labeling_object(g, labeling, *is_sem(g, labeling))


def certificate_json(cert: "CertifiedLabeledGraph") -> dict:
    """``labeling_json`` of a certificate, from the window its verification found."""
    return _labeling_object(cert.graph, cert.labeling, True, cert.window)


def _labeling_object(g: Graph, labeling: VertexLabeling, ok: bool, window) -> dict:
    return {
        "p": g.order,
        "labels": list(labeling.labels),
        "sem": ok,
        "window": window.as_pair() if window is not None else None,
        "magic_sum": g.order + g.size + window.s_min if ok and window else None,
    }


def labeling_from_json(data: dict) -> VertexLabeling:
    if not isinstance(data, dict):
        raise ValueError(f"a labeling is a JSON object, got {type(data).__name__}")
    if "labels" not in data:
        raise ValueError("missing key 'labels'")
    labels = data["labels"]
    if not isinstance(labels, list):
        raise ValueError(f"labels must be a list, got {type(labels).__name__}")
    p = data.get("p", len(labels))
    if type(p) is not int or p != len(labels):
        raise ValueError(f"labeling claims p={p!r} but carries {len(labels)} labels")
    return VertexLabeling(tuple(labels))
