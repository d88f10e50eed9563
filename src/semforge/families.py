"""Certified constructors for super edge-magic families of equal order and size.

Every constructor builds both the graph and the vertex labeling of its
construction scheme, re-verifies the labeling, and returns a
``CertifiedLabeledGraph``.  A verification failure raises ``LabelingFailed``:
the schemes are supposed to work for every admissible parameter, so a red
verifier points at a transcription mistake, not at the input.

Component layout convention: components are numbered in the order the family
name lists them, each component holding its center first and then its leaves,
so outputs are deterministic and golden-file friendly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .errors import BadParam, LabelingFailed
from .graphs import Graph, disjoint_union
from .labelings import SumWindow, VertexLabeling, is_sem


@dataclass(frozen=True)
class DeerSpec:
    """Leaf counts along the spine of a deer graph.

    The spine is odd and the counts read the same in both directions; the
    central spine vertex carries the loop.
    """

    spine_leaf_counts: tuple

    def __post_init__(self):
        counts = tuple(self.spine_leaf_counts)
        for c in counts:
            if type(c) is not int:
                raise ValueError(f"leaf counts must be integers, got {c!r}")
        if len(counts) % 2 == 0 or not counts:
            raise ValueError("deer spine length must be odd and at least 1")
        if any(c < 0 for c in counts):
            raise ValueError("leaf counts must be non-negative")
        if counts != counts[::-1]:
            raise ValueError("leaf counts must be palindromic")
        object.__setattr__(self, "spine_leaf_counts", counts)

    @property
    def spine_length(self) -> int:
        return len(self.spine_leaf_counts)

    @property
    def order(self) -> int:
        return self.spine_length + sum(self.spine_leaf_counts)


@dataclass(frozen=True)
class CertifiedLabeledGraph:
    """A graph together with a labeling that has passed the SEM verifier.

    ``window`` is the verifier's sum window, ``None`` only for an edgeless graph.
    """

    graph: Graph
    labeling: VertexLabeling
    window: SumWindow
    provenance: str


def _certify(graph: Graph, labels: Sequence[int], provenance: str) -> CertifiedLabeledGraph:
    labeling = VertexLabeling(tuple(labels))
    ok, window = is_sem(graph, labeling)
    if not ok or window is None:
        raise LabelingFailed(
            f"{provenance}: constructed labeling failed verification "
            "(suspected transcription mismatch in the labeling scheme)"
        )
    return CertifiedLabeledGraph(graph, labeling, window, provenance)


# --- primitive graphs ----------------------------------------------------------


def loop_graph() -> Graph:
    """One vertex with a loop."""
    return Graph(1, frozenset({(1, 1)}))


def star_with_loop(n: int) -> Graph:
    """Star with n leaves and a loop at the center; center is vertex 1."""
    if n < 0:
        raise BadParam(f"star_with_loop needs n >= 0, got {n}")
    edges = {(1, 1)}
    edges.update((1, j) for j in range(2, n + 2))
    return Graph(n + 1, frozenset(edges))


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise BadParam(f"cycle needs k >= 3, got {k}")
    edges = {(i, i + 1) for i in range(1, k)}
    edges.add((1, k))
    return Graph(k, frozenset(edges))


def caterpillar_graph(counts: Sequence[int]) -> Graph:
    """Caterpillar with spine 1..t and counts[i-1] leaves at spine vertex i.

    Leaves are numbered after the whole spine, grouped by spine position.
    """
    counts = list(counts)
    for c in counts:
        if type(c) is not int:
            raise BadParam(f"leaf counts must be integers, got {c!r}")
    t = len(counts)
    if t < 1:
        raise BadParam("caterpillar needs at least one spine vertex")
    if any(c < 0 for c in counts):
        raise BadParam("leaf counts must be non-negative")
    edges = {(i, i + 1) for i in range(1, t)}
    nxt = t + 1
    for i, c in enumerate(counts, start=1):
        for _ in range(c):
            edges.add((i, nxt))
            nxt += 1
    return Graph(t + sum(counts), frozenset(edges))


def _deer_leaf_ids(counts: Sequence[int]) -> list:
    t = len(counts)
    ids = []
    nxt = t + 1
    for c in counts:
        ids.append(list(range(nxt, nxt + c)))
        nxt += c
    return ids


def build_primitive(kind: str, params: dict | None = None) -> Graph:
    """Primitive graph dispatch for the CLI: l, lk1n, cycle, caterpillar."""
    params = params or {}
    if kind == "l":
        return loop_graph()
    if kind == "lk1n":
        if "n" not in params:
            raise BadParam("lk1n needs parameter n")
        return star_with_loop(params["n"])
    if kind == "cycle":
        if "k" not in params:
            raise BadParam("cycle needs parameter k")
        return cycle_graph(params["k"])
    if kind == "caterpillar":
        if "spec" not in params:
            raise BadParam("caterpillar needs a spine spec")
        return caterpillar_graph(params["spec"])
    raise BadParam(f"unknown primitive {kind!r}")


# --- certified family constructors ----------------------------------------------


def build_two_lk11_lk1n(n: int) -> CertifiedLabeledGraph:
    """Two loop-stars with one leaf each plus a loop-star with n leaves:
    ``build_two_lk1m_lk1n(1, n)``.

    Centers get 3, 5 and 4; their single partners get 6 and 2; the big star's
    leaves take the remaining labels of [1, n+5] in ascending order.
    """
    if n < 1:
        raise BadParam(f"need n >= 1, got {n}")
    return replace(build_two_lk1m_lk1n(1, n), provenance=f"2lk11-lk1n(n={n})")


def build_two_lk1m_lk1n(m: int, n: int) -> CertifiedLabeledGraph:
    """Two loop-stars with m leaves each plus a loop-star with n leaves.

    Extends the m=1 labeling: m-1 fresh leaves on the 5-center get
    -1,-3,...,-(2m-3), those on the 3-center get 0,-2,...,-(2m-4), and every
    label is then shifted by 2m-2.
    """
    if m < 1 or n < 1:
        raise BadParam(f"need m, n >= 1, got m={m}, n={n}")
    graph = disjoint_union([star_with_loop(m), star_with_loop(m), star_with_loop(n)])
    shift = 2 * m - 2
    raw = {}
    c1, c1_first = 1, 2
    c2, c2_first = m + 2, m + 3
    c3 = 2 * m + 3
    raw[c1], raw[c1_first] = 3, 6
    raw[c2], raw[c2_first] = 5, 2
    raw[c3] = 4
    rest = sorted(set(range(1, n + 6)) - {2, 3, 4, 5, 6})
    for leaf, lab in zip(range(c3 + 1, c3 + n + 1), rest):
        raw[leaf] = lab
    for idx, leaf in enumerate(range(3, m + 2)):
        raw[leaf] = -2 * idx
    for idx, leaf in enumerate(range(m + 4, 2 * m + 3)):
        raw[leaf] = -(2 * idx + 1)
    labels = [raw[v] + shift for v in range(1, graph.order + 1)]
    return _certify(graph, labels, f"2lk1m-lk1n(m={m},n={n})")


def build_odd_copies_lk1n(s: int, n: int) -> CertifiedLabeledGraph:
    """(2s+1) disjoint copies of the loop-star with n leaves.

    Copy i occupies vertices (i-1)(n+1)+1 .. i(n+1), center first.  Centers
    get s+i; the first leaf of the last s copies gets i-s-1, of the first s+1
    copies its center's label plus 2s+1; later leaves step by (2s+1)(j-1).
    For s=0 (one copy) any bijection is SEM; this one is the identity.
    """
    if s < 0 or n < 1:
        raise BadParam(f"need s >= 0 and n >= 1, got s={s}, n={n}")
    copies = 2 * s + 1
    block = n + 1
    graph = disjoint_union([star_with_loop(n)] * copies)

    def center(i: int) -> int:
        return (i - 1) * block + 1

    def leaf(i: int, j: int) -> int:
        return (i - 1) * block + 1 + j

    f = [0] * (graph.order + 1)
    for i in range(1, copies + 1):
        f[center(i)] = s + i
    for i in range(s + 2, copies + 1):
        f[leaf(i, 1)] = i - s - 1
    for i in range(1, s + 2):
        f[leaf(i, 1)] = f[center(i)] + copies
    for j in range(2, n + 1):
        for i in range(1, s + 2):
            f[leaf(i, j)] = f[leaf(i, 1)] + copies * (j - 1)
        for i in range(s + 2, copies + 1):
            f[leaf(i, j)] = f[center(i)] + copies * (j - 1)
    return _certify(graph, f[1:], f"odd-lk1n(s={s},n={n})")


def build_mixed_loop_stars(m: int, n: int, s: int) -> CertifiedLabeledGraph:
    """One loop-star with m leaves, two with n leaves, and 2s with one leaf.

    The ten-case labeling scheme is applied over the range
    [-2n+3, 4s+m+5] and then shifted by 2n-2.  Components are laid out in the
    order just named; the m-star is the scheme's second center.
    """
    if m < 1 or n < 1 or s < 1:
        raise BadParam(f"need m, n, s >= 1, got m={m}, n={n}, s={s}")
    comps = [star_with_loop(m), star_with_loop(n), star_with_loop(n)]
    comps.extend([star_with_loop(1)] * (2 * s))
    graph = disjoint_union(comps)
    cc = 2 * s + 3

    v2 = 1
    v1 = m + 2
    v3 = m + n + 3

    def v2k(kk: int) -> int:
        return 1 + kk

    def v1j(j: int) -> int:
        return m + 2 + j

    def v3j(j: int) -> int:
        return m + n + 3 + j

    def cent(i: int) -> int:
        return m + 2 * n + 3 + 2 * (i - 4) + 1

    def pend(i: int) -> int:
        return cent(i) + 1

    f = {}
    f[v1] = 2 * s + 2
    f[v2] = 2 * s + 3
    f[v3] = 2 * s + 4
    for i in range(4, s + 4):
        f[cent(i)] = s - 2 + i
    for i in range(s + 4, 2 * s + 4):
        f[cent(i)] = s + 1 + i
    f[v1j(1)] = f[v1] + cc
    f[v2k(1)] = f[v2] + cc
    f[v3j(1)] = f[v3] - cc
    for j in range(2, n + 1):
        f[v1j(j)] = -2 * j + 4
    for kk in range(2, m + 1):
        f[v2k(kk)] = f[v2k(1)] + kk - 1
    for j in range(2, n + 1):
        f[v3j(j)] = -2 * j + 3
    for i in range(4, s + 4):
        f[pend(i)] = f[cent(i)] + cc
    for i in range(s + 4, 2 * s + 4):
        f[pend(i)] = f[cent(i)] - cc
    shift = 2 * n - 2
    labels = [f[v] + shift for v in range(1, graph.order + 1)]
    return _certify(graph, labels, f"thm24(m={m},n={n},s={s})")


def _caterpillar_sweep(counts: Sequence[int], class_first: bool, reverse: bool) -> list:
    """One sweep labeling of the caterpillar underlying a deer spec.

    Vertices split into the class of odd spine positions plus leaves of even
    positions, and its complement.  Sweeping the spine (optionally reversed)
    lists each class in encounter order; the chosen class takes 1..a and the
    other a+1..p.
    """
    t = len(counts)
    leaf_ids = _deer_leaf_ids(counts)
    first_cls, second_cls = [], []
    positions = range(t, 0, -1) if reverse else range(1, t + 1)
    for pos in positions:
        if pos % 2 == 1:
            first_cls.append(pos)
            second_cls.extend(leaf_ids[pos - 1])
        else:
            first_cls.extend(leaf_ids[pos - 1])
            second_cls.append(pos)
    a_cls, b_cls = (first_cls, second_cls) if class_first else (second_cls, first_cls)
    order = t + sum(counts)
    labels = [0] * (order + 1)
    for lab, v in enumerate(a_cls, start=1):
        labels[v] = lab
    for lab, v in enumerate(b_cls, start=len(a_cls) + 1):
        labels[v] = lab
    return labels[1:]


def build_deer(spec: DeerSpec | Sequence[int]) -> CertifiedLabeledGraph:
    """Deer graph: caterpillar with palindromic odd spine plus a central loop.

    Tries the four sweep labelings of the caterpillar (class order x sweep
    direction) and returns the first that verifies; the palindromic spine
    guarantees one of them extends past the loop sum.
    """
    if not isinstance(spec, DeerSpec):
        spec = DeerSpec(tuple(spec))
    counts = spec.spine_leaf_counts
    center = (spec.spine_length + 1) // 2
    cat = caterpillar_graph(counts)
    graph = Graph(cat.order, cat.edges | {(center, center)})
    tag = "deer(" + ",".join(str(c) for c in counts) + ")"
    for class_first in (True, False):
        for reverse in (False, True):
            labels = _caterpillar_sweep(counts, class_first, reverse)
            labeling = VertexLabeling(tuple(labels))
            ok, window = is_sem(graph, labeling)
            if ok:
                return CertifiedLabeledGraph(graph, labeling, window, tag)
    raise LabelingFailed(f"{tag}: no sweep variant verified")


def odd_cycle_labeling(k: int) -> VertexLabeling:
    """The alternating SEM labeling of an odd cycle: odd positions get 1..(k+1)/2."""
    if k < 3 or k % 2 == 0:
        raise BadParam(f"need an odd k >= 3, got {k}")
    labels = [0] * (k + 1)
    half = (k + 1) // 2
    for idx, v in enumerate(range(1, k + 1, 2), start=1):
        labels[v] = idx
    for idx, v in enumerate(range(2, k + 1, 2), start=1):
        labels[v] = half + idx
    labeling = VertexLabeling(tuple(labels[1:]))
    ok, _ = is_sem(cycle_graph(k), labeling)
    if not ok:
        raise LabelingFailed(f"odd cycle labeling failed for k={k}")
    return labeling


CERTIFIED_FAMILIES = {
    "2lk11-lk1n": (("n",), build_two_lk11_lk1n),
    "2lk1m-lk1n": (("m", "n"), build_two_lk1m_lk1n),
    "odd-lk1n": (("s", "n"), build_odd_copies_lk1n),
    "thm24": (("m", "n", "s"), build_mixed_loop_stars),
}

PRIMITIVE_FAMILIES = ("l", "lk1n", "cycle", "caterpillar")


def construct_family(
    name: str, params: dict | None = None, spec: Sequence[int] | None = None
):
    """CLI dispatch: a certified family instance, a deer, or a bare primitive."""
    params = params or {}
    if name == "deer":
        if spec is None:
            raise BadParam("deer needs --spec with the spine leaf counts")
        return build_deer(spec)
    if name in CERTIFIED_FAMILIES:
        arg_names, fn = CERTIFIED_FAMILIES[name]
        missing = [a for a in arg_names if a not in params]
        if missing:
            raise BadParam(f"{name} needs parameters {', '.join(arg_names)}")
        return fn(**{a: params[a] for a in arg_names})
    if name in PRIMITIVE_FAMILIES:
        if name == "caterpillar":
            if spec is None:
                raise BadParam("caterpillar needs --spec with the spine leaf counts")
            return build_primitive(name, {"spec": list(spec)})
        return build_primitive(name, params)
    raise BadParam(f"unknown family {name!r}")
