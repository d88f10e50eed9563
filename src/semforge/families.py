"""Certified constructors for super edge-magic families of equal order and size.

Every constructor builds both the graph and the vertex labeling of its
construction scheme, re-verifies the labeling, and returns a
``CertifiedLabeledGraph``.  A verification failure raises
``VerificationFailed``: the schemes are supposed to work for every admissible
parameter, so a red verifier points at a transcription mistake, not at the
input.

Component layout convention: components are numbered in the order the family
name lists them, each component holding its center first and then its leaves,
so outputs are deterministic and golden-file friendly.  A loop-star union's
labels are therefore each component's [center, leaves...] labels, joined in
the order of its ``disjoint_union`` call; the docstrings state them that way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .errors import BadParam
from .graphs import Graph, disjoint_union
from .labelings import SumWindow, VertexLabeling, verified_window


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
    window = verified_window(graph, labeling, f"{provenance}: constructed labeling")
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
    for i, leaves in enumerate(_leaf_ids(counts), start=1):
        edges.update((i, leaf) for leaf in leaves)
    return Graph(t + sum(counts), frozenset(edges))


def _leaf_ids(counts: Sequence[int]) -> list:
    """The leaves of each spine position of a caterpillar: numbered from t+1
    on, after the whole spine, in spine order."""
    ids = []
    nxt = len(counts) + 1
    for c in counts:
        ids.append(range(nxt, nxt + c))
        nxt += c
    return ids


# --- certified family constructors ----------------------------------------------


def build_two_lk11_lk1n(n: int) -> CertifiedLabeledGraph:
    """Two loop-stars with one leaf each plus a loop-star with n leaves:
    ``build_two_lk1m_lk1n(1, n)``.

    Centers get 3, 5 and 4; their single partners get 6 and 2; the big star's
    leaves take the remaining labels of [1, n+5] in ascending order.
    """
    return replace(build_two_lk1m_lk1n(1, n), provenance=f"2lk11-lk1n(n={n})")


def build_two_lk1m_lk1n(m: int, n: int) -> CertifiedLabeledGraph:
    """Two loop-stars with m leaves each plus a loop-star with n leaves.

    Extends the m=1 labeling.  Center first, the components get
    [3, 6, 0, -2, ..., 4-2m], [5, 2, -1, -3, ..., 3-2m] and
    [4, 1, 7, 8, ..., n+5], and every label is then shifted by 2m-2.
    """
    if m < 1 or n < 1:
        raise BadParam(f"need m, n >= 1, got m={m}, n={n}")
    graph = disjoint_union([star_with_loop(m), star_with_loop(m), star_with_loop(n)])
    raw = [3, 6, *range(0, 2 - 2 * m, -2)]
    raw += [5, 2, *range(-1, 1 - 2 * m, -2)]
    raw += [4, 1, *range(7, n + 6)]
    labels = [lab + 2 * m - 2 for lab in raw]
    return _certify(graph, labels, f"2lk1m-lk1n(m={m},n={n})")


def build_odd_copies_lk1n(s: int, n: int) -> CertifiedLabeledGraph:
    """(2s+1) disjoint copies of the loop-star with n leaves.

    With q = 2s+1 copies, copy i (i = 1..q) has center s+i.  For i <= s+1 its
    leaves are s+i+q, s+i+2q, ..., s+i+nq.  For i > s+1 its first leaf is
    i-s-1 and its later leaves are s+i+q, ..., s+i+(n-1)q.
    For s=0 (one copy) any bijection is SEM; this one is the identity.
    """
    if s < 0 or n < 1:
        raise BadParam(f"need s >= 0 and n >= 1, got s={s}, n={n}")
    copies = 2 * s + 1
    graph = disjoint_union([star_with_loop(n)] * copies)
    labels = []
    for i in range(1, copies + 1):
        c = s + i
        if i <= s + 1:
            labels += [c, *range(c + copies, c + n * copies + 1, copies)]
        else:
            labels += [c, i - s - 1, *range(c + copies, c + (n - 1) * copies + 1, copies)]
    return _certify(graph, labels, f"odd-lk1n(s={s},n={n})")


def build_mixed_loop_stars(m: int, n: int, s: int) -> CertifiedLabeledGraph:
    """One loop-star with m leaves, two with n leaves, and 2s with one leaf.

    The ten-case labeling scheme, with c = 2s+3, is applied over the range
    [-2n+3, 4s+m+5] and then shifted by 2n-2.  Center first, in the order
    just named: the m-star (the scheme's second center) gets
    [c, 2c, 2c+1, ..., 2c+m-1], the n-stars [c-1, 2c-1, 0, -2, ..., 4-2n] and
    [c+1, 1, -1, -3, ..., 3-2n], and the one-leaf stars [x, x+c] for
    x = s+2..2s+1, then [x, x-c] for x = 2s+5..3s+4.
    """
    if m < 1 or n < 1 or s < 1:
        raise BadParam(f"need m, n, s >= 1, got m={m}, n={n}, s={s}")
    comps = [star_with_loop(m), star_with_loop(n), star_with_loop(n)]
    comps.extend([star_with_loop(1)] * (2 * s))
    graph = disjoint_union(comps)
    cc = 2 * s + 3
    raw = [cc, *range(2 * cc, 2 * cc + m)]
    raw += [cc - 1, 2 * cc - 1, *range(0, 2 - 2 * n, -2)]
    raw += [cc + 1, 1, *range(-1, 1 - 2 * n, -2)]
    for x in range(s + 2, 2 * s + 2):
        raw += [x, x + cc]
    for x in range(2 * s + 5, 3 * s + 5):
        raw += [x, x - cc]
    labels = [lab + 2 * n - 2 for lab in raw]
    return _certify(graph, labels, f"thm24(m={m},n={n},s={s})")


def _caterpillar_sweep(counts: Sequence[int]) -> list:
    """The sweep labeling of ``caterpillar_graph(counts)``, whose p-1 edge
    sums are a+2..a+p.

    Class A holds the odd spine positions and the leaves of even positions,
    class B the rest, so every edge joins A and B.  Sweeping the spine from 1
    to t lists each class in encounter order; A takes 1..a and B a+1..p.
    Take the edges in the order: leaf edges of position 1, spine edge (1,2),
    leaf edges of 2, (2,3), and so on.  Each edge keeps one endpoint of the
    edge before it and moves the other to the next vertex of its class, so the
    sums rise by exactly 1 from 1 + (a+1) = a+2.
    """
    a_cls, b_cls = [], []
    for pos, leaves in enumerate(_leaf_ids(counts), start=1):
        own, other = (a_cls, b_cls) if pos % 2 == 1 else (b_cls, a_cls)
        own.append(pos)
        other.extend(leaves)
    labels = [0] * (len(a_cls) + len(b_cls) + 1)
    for lab, v in enumerate(a_cls + b_cls, start=1):
        labels[v] = lab
    return labels[1:]


def build_deer(spec: Sequence[int]) -> CertifiedLabeledGraph:
    """Deer graph: caterpillar with palindromic odd spine plus a central loop.

    ``spec`` is the leaf counts along the spine; the centre c = (t+1)/2 of
    the spine carries the loop.  ``caterpillar_graph`` checks that they are
    non-negative integers.

    The labeling is the caterpillar's sweep labeling, whose edge sums are
    a+2..a+p.  Spine positions i and t+1-i have the same parity and equal
    leaf counts, so they add equally many vertices to each class, and the
    centre adds only itself to its own class: c gets the middle label of its
    class.  Its loop sum 2f(c) is then a+1 (class A) or a+p+1 (class B),
    which extends the consecutive sums [a+2, a+p] at one end.
    """
    counts = tuple(spec)
    if len(counts) % 2 == 0:
        raise BadParam("deer spine length must be odd and at least 1")
    if counts != counts[::-1]:
        raise BadParam("leaf counts must be palindromic")
    cat = caterpillar_graph(counts)
    center = (len(counts) + 1) // 2
    graph = Graph(cat.order, cat.edges | {(center, center)})
    tag = "deer(" + ",".join(str(c) for c in counts) + ")"
    return _certify(graph, _caterpillar_sweep(counts), tag)


def odd_cycle_labeling(k: int) -> VertexLabeling:
    """The alternating SEM labeling of an odd cycle: odd positions get 1..a,
    a = (k+1)/2, and even positions a+1..k.

    It is the sweep labeling of the path 1..k, whose sums are a+2..a+k; the
    closing edge (1, k) joins labels 1 and a and adds the sum a+1.
    """
    if k < 3 or k % 2 == 0:
        raise BadParam(f"need an odd k >= 3, got {k}")
    return _certify(cycle_graph(k), _caterpillar_sweep([0] * k), f"odd-cycle(k={k})").labeling


# name -> (parameter names, builder called with them in that order); ``spec``
# is the spine leaf counts of a caterpillar or a deer
FAMILIES = {
    "l": ((), loop_graph),
    "lk1n": (("n",), star_with_loop),
    "cycle": (("k",), cycle_graph),
    "caterpillar": (("spec",), caterpillar_graph),
    "deer": (("spec",), build_deer),
    "2lk11-lk1n": (("n",), build_two_lk11_lk1n),
    "2lk1m-lk1n": (("m", "n"), build_two_lk1m_lk1n),
    "odd-lk1n": (("s", "n"), build_odd_copies_lk1n),
    "thm24": (("m", "n", "s"), build_mixed_loop_stars),
}


def construct_family(
    name: str, params: dict | None = None, spec: Sequence[int] | None = None
):
    """CLI dispatch: a certified family instance or a bare primitive graph.

    ``spec`` alone supplies the spine leaf counts; a ``spec`` key in
    ``params`` is ignored, as is every parameter the family does not take.
    """
    if name not in FAMILIES:
        raise BadParam(f"unknown family {name!r}")
    arg_names, build = FAMILIES[name]
    args = {**(params or {}), "spec": spec}
    if any(args.get(a) is None for a in arg_names):
        if "spec" in arg_names:
            raise BadParam(f"{name} needs --spec with the spine leaf counts")
        raise BadParam(f"{name} needs parameters {', '.join(arg_names)}")
    return build(*(args[a] for a in arg_names))
