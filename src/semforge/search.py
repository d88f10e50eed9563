"""Backtracking search for super edge-magic labelings, exhaustive
non-existence certification, family enumeration, and small censuses.

The SEM search (``_sem_backtrack``) is one core behind ``find_sem`` and
``certify_not_sem``, each under its own order bound; it takes only the
graph, the mode and the budget, and builds every table it reads from the
graph.  It anchors the window of induced sums: the consecutive-sums
identity confines the minimum sum s to a short range, and a partial
labeling dies as soon as its sums fit no window [s, s+q-1] with s in that
range.  The same identity, bounded by the degrees of the vertices still
unplaced, narrows that range again at every depth.  Once the range is a
single s, every sum of the window not yet made needs an edge still open that
can make it, or the partial labeling dies.  Outside ``all`` mode the search
also breaks the symmetry of twin vertices and of the complement labeling.

The pruned searcher and the unpruned permutation enumerator are deliberately
independent code paths: an exhaustion certificate from the pruned tree can be
cross-checked against plain enumeration at small orders, and the two must
agree both on existence and on witness counts.  The census searches no
class: it reads each class's SEM flag off the labeled graphs whose identity
labeling is SEM, so its flags and ``find_sem`` are independent too.  Its
orderly pass visits only canonical forms: isolated loops first, then a
centre of maximum degree and its neighbours.  A sweep before the pass marks
every subset in which another centre has a higher degree than the shape's,
and each new class marks its images centred on such a centre.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from dataclasses import dataclass

from .errors import ResourceLimit, VerificationFailed
from .families import star_with_loop
from .graphs import Digraph, Graph, _degrees, _neighbourhoods, _twins, disjoint_union
from .labelings import VertexLabeling, verified_window
from .product import LabeledFamily

WITNESS = "witness"
EXHAUSTED = "exhausted"
ABORTED = "aborted"

DEFAULT_ORDER_BOUND = 24
DEFAULT_ORDER_BOUND_ALL = 12
DEFAULT_CERTIFY_BOUND = 100  # the largest order CI exhausts through certify_not_sem
SNK_ORDER_BOUND = 5
DEFAULT_NODE_BUDGET = 10**9


@dataclass(frozen=True)
class ResourceBudget:
    """Limits of one search or census: an ``int`` count of nodes and a real
    number of seconds, neither negative.  Zero aborts at once: a search
    reads the clock at its first node and every 1024th, and a census at its
    first labeled SEM graph.  ``math.inf`` seconds sets no deadline; NaN is
    rejected, since no clock reading ever exceeds it."""

    max_nodes: int = DEFAULT_NODE_BUDGET
    max_seconds: float = 300.0

    def __post_init__(self):
        if type(self.max_nodes) is not int or self.max_nodes < 0:
            raise ValueError(f"node budget must be an integer >= 0, got {self.max_nodes!r}")
        if type(self.max_seconds) not in (int, float) or not self.max_seconds >= 0:
            raise ValueError(f"timeout must be a number >= 0, got {self.max_seconds!r}")


@dataclass(frozen=True)
class SearchReport:
    """Outcome of a search run.

    ``witness`` is a VertexLabeling; ``witnesses`` carries the full list in
    all-mode.  An exhausted outcome certifies that the pruned tree covered the
    whole bijection space; an aborted outcome is never evidence of anything.
    """

    outcome: str
    witness: object | None
    witnesses: tuple | None
    nodes: int
    elapsed: float
    budget: ResourceBudget

    @property
    def witness_count(self) -> int:
        if self.witnesses is not None:
            return len(self.witnesses)
        return 1 if self.witness is not None else 0


def report_json(report: SearchReport) -> dict:
    """The search report JSON; ``witnesses`` is added only when the report
    carries the full list (``all`` mode)."""
    w = report.witness
    data = {
        "outcome": report.outcome,
        "labels": list(w.labels) if w is not None else None,
        "nodes": report.nodes,
        "ms": int(report.elapsed * 1000),
    }
    if report.witnesses is not None:
        data["witnesses"] = [list(x.labels) for x in report.witnesses]
    return data


class _Abort(Exception):
    pass


def _sum_starts(deg: list, p: int, q: int) -> range:
    """Every minimum sum s that a SEM labeling of a (p,q)-graph with these
    degrees can have.

    The induced sums of a SEM labeling are s..s+q-1, so summing them gives
    Σ_v deg(v)·f(v) = q·s + q(q-1)/2 (the consecutive-sums lemma of
    Figueroa-Centeno, Ichishima & Muntaner-Batle, 2001).  By the
    rearrangement inequality the left side lies between the pairing of the
    largest degrees with the smallest labels and the pairing of the largest
    degrees with the largest labels, which confines s.  Every sum lies in
    [2, 2p], so s >= 2 and s+q-1 <= 2p; the range is empty when q > 2p-1.
    An edgeless graph has no sums and one window with nothing to reject.
    """
    if q == 0:
        return range(2, 3)
    ds = sorted(deg[1:])
    labels = range(1, p + 1)
    low = sum(map(operator.mul, ds, reversed(labels)))
    high = sum(map(operator.mul, ds, labels))
    base = q * (q - 1) // 2
    return range(max(2, -((base - low) // q)), min(2 * p - q + 1, (high - base) // q) + 1)


def _degree_tables(deg: list, verts: list) -> tuple:
    """The degree ``dv[t]`` of the vertex at each search position t, and the
    minimum ``dmin[t]`` and maximum ``dmax[t]`` degree over positions t..p-1;
    ``dmin[p] = dmax[p] = 0``, since no position is left."""
    dv = [deg[v] for v in verts]
    dmin, dmax = dv + [0], dv + [0]
    lo = hi = dv[-1]
    for t in range(len(dv) - 2, -1, -1):
        d = dv[t]
        if d < lo:
            lo = d
        if d > hi:
            hi = d
        dmin[t], dmax[t] = lo, hi
    return dv, dmin, dmax


def _order_tables(nbhd: tuple, verts: list) -> tuple:
    """The tables of the static variable order ``verts``.

    ``rows[t]`` lists the partners of search position t: t itself if its
    vertex has a loop, then the earlier positions it shares an edge with.
    ``front[t]`` lists the positions u <= t whose last neighbour lies after
    t, in ascending order.  After position t is placed, an edge with both
    ends unplaced and distinct exists iff t < ``pair_until``, and an
    unplaced loop iff t < ``loop_until``.
    """
    nbrs, loop = nbhd
    pos = {v: t for t, v in enumerate(verts)}
    rows, front = [], [[] for _ in verts]
    pair_until = loop_until = 0
    for t, v in enumerate(verts):
        partners = [pos[u] for u in nbrs[v]]
        row = [u for u in partners if u < t]
        if len(row) < len(partners):  # a partner after t
            pair_until = t
            for d in range(t, max(partners)):
                front[d].append(t)
        if loop[v]:
            row.insert(0, t)
            loop_until = t
        rows.append(row)
    return rows, front, pair_until, loop_until


def _sem_backtrack(g: Graph, mode: str, max_nodes: int, deadline: float):
    """Depth-first search over bijections inside the anchored windows.

    The search builds the ``_neighbourhoods`` table of g and reads off it
    the degrees, the variable order of ``mode`` (``_variable_order``), that
    order's ``_order_tables`` and the ``_twins`` classes; it needs nothing
    else from its caller.  Labels are placed on the vertices in that order.
    A label is stored before its row is read, so a loop's sum
    2·f(u) is checked like every other closed edge's sum.  The search
    carries the range [a, b] of minimum sums s whose window [s, s+q-1] can
    still hold every closed edge's sum: it starts as ``_sum_starts``, each
    new sum x narrows it to [max(a, x-q+1), min(b, x)], and a partial
    assignment dies as soon as the range empties or a sum repeats.  One pass
    thus covers every window and visits each partial assignment once,
    however many windows it fits.

    Every depth also applies the consecutive-sums identity
    Σ deg(v)·f(v) = q·s + q(q-1)/2 to the vertices left.  The search carries
    P = Σ deg·f over the placed positions and U, the sum of the unused
    labels; the positions after t hold those labels, each weighted by a
    degree between ``dmin[t+1]`` and ``dmax[t+1]`` (``_degree_tables``), so
    q·s + q(q-1)/2 lies in [P + dmin[t+1]·U, P + dmax[t+1]·U] once position
    t is placed.  That interval narrows [a, b] after a label passes its row,
    and the label dies when the range empties.  It cannot cut when all
    degrees are equal (Σ deg·f is then the same for every bijection), nor
    without edges, so it is skipped there.

    Once the range is one start s, every sum of [s, s+q-1] not yet made
    must be made by an edge that is still open, one with an end after t.
    Such an edge joins a placed position u of ``front[t]`` to an unplaced
    one, with sum f(u) + y; or two distinct unplaced positions, with sum
    y + z for distinct y and z (t < ``pair_until``); or it is a loop at an
    unplaced position, with sum 2y (t < ``loop_until``); here y and z are
    unused labels.  A sum with no such support kills the label.  The sums
    made, the unused labels and their mirror (bit R-y for unused y, with
    R = 2p+2, carried while t < ``pair_until``) are int bitmasks, so the
    supports of a frontier position are one shift, and x has a pair support
    iff the labels z with z and x-z unused, ``rest & (mirror >> (R-x))``,
    are at least two (one alone would be x/2).  For a regular graph
    ``_sum_starts`` often fixes s at the root, and the rule then applies at
    every depth.

    Both rules are necessary conditions, so they only remove subtrees
    without a witness and hold in every mode.  In ``first`` and
    ``canonical`` mode two symmetry-breaking cuts apply too (Crawford,
    Ginsberg, Luks & Roy, 1996): each vertex takes a label above that of its
    previous twin, and the first search position takes a label of at most
    ⌈p/2⌉, since the complement x ↦ p+1-x preserves SEM.  Twins are
    vertices with the same open neighbourhood and the same loop flag;
    swapping two of them is an automorphism, and they have equal degree, so
    both variable orders place them in index order.  Both cuts are sound for
    existence, and for ``canonical`` too: the lexicographically smallest
    labeling is ascending on twins and starts at most at ⌈p/2⌉ (else its
    complement would be smaller), so it is still the first witness of the
    index-order search.  ``all`` mode applies no symmetry cut, so its
    witness set is exact.

    Returns ``(status, witnesses, nodes)`` where status is
    WITNESS/EXHAUSTED/ABORTED and ``nodes`` counts the labels tried, a label
    that the support rule kills included; the search aborts at node
    ``max_nodes + 1`` or, read at the first node and every 1024th, once the
    clock passes ``deadline``.
    """
    p, q = g.order, g.size
    nbhd = _neighbourhoods(g)
    deg = _degrees(nbhd)
    starts = _sum_starts(deg, p, q)
    if not starts:
        return EXHAUSTED, [], 0
    verts = _variable_order(deg, mode)
    rows, front, pair_until, loop_until = _order_tables(nbhd, verts)
    collect_all = mode == "all"
    label_bits = (2 << p) - 2  # bit y for each label y in 1..p
    first_top = label_bits if collect_all else (2 << (p + 1) // 2) - 2  # 1..⌈p/2⌉
    twin_prev = [-1] * p  # the position of the previous twin, or -1
    if not collect_all:
        pos = {v: t for t, v in enumerate(verts)}
        for cls in _twins(nbhd):
            for u, w in itertools.pairwise(cls):
                twin_prev[pos[w]] = pos[u]
    dv, dmin, dmax = _degree_tables(deg, verts)
    degree_bound = q > 0 and dmin[0] != dmax[0]  # a regular graph always meets it
    base = q * (q - 1) // 2
    window = (1 << q) - 1
    mirror_top = 2 * p + 2
    assigned = [0] * p
    witnesses: list[VertexLabeling] = []
    nodes = 0
    # the next node count to test: max_nodes + 1 aborts, and node 1 and
    # every multiple of 1024 read the clock
    check = 1
    span = q - 1

    def extend(t: int, a: int, b: int, placed: int, unused: int, sums: int, free: int,
               mirror: int) -> bool:
        nonlocal nodes, check
        if t == p:
            labels = [0] * p
            for v, lab in zip(verts, assigned):
                labels[v - 1] = lab
            witnesses.append(VertexLabeling(tuple(labels)))
            return not collect_all
        row, fr = rows[t], front[t]
        pairs, loops = t < pair_until, t < loop_until
        twin = twin_prev[t]
        d, lo, hi = dv[t], dmin[t + 1], dmax[t + 1]
        if t == 0:
            labs = free & first_top
        elif twin >= 0:
            above = assigned[twin] + 1
            labs = free >> above << above
        else:
            labs = free
        while labs:
            bit = labs & -labs
            labs ^= bit
            lab = bit.bit_length() - 1
            nodes += 1
            if nodes >= check:
                if nodes > max_nodes or time.monotonic() > deadline:
                    raise _Abort
                check = min(max_nodes + 1, (nodes | 1023) + 1)
            assigned[t] = lab
            na, nb = a, b
            made = sums
            for spos in row:
                s = lab + assigned[spos]
                if made >> s & 1:
                    break
                made |= 1 << s
                if s - span > na:
                    na = s - span
                if s < nb:
                    nb = s
                if na > nb:
                    break
            else:
                if degree_bound:
                    # q·s + base lies in [P + lo·U, P + hi·U] after this label
                    pl, un = placed + d * lab, unused - lab
                    least = -((base - pl - lo * un) // q)
                    if least > na:
                        na = least
                    most = (pl + hi * un - base) // q
                    if most < nb:
                        nb = most
                else:
                    pl = un = 0
                if na > nb:
                    continue
                rest = free ^ bit
                mir = mirror ^ (1 << mirror_top - lab) if pairs else 0  # read while pairs are open
                if na == nb:
                    # every unmade sum of the window needs an open edge
                    need = window << na & ~made
                    for u in fr:
                        need &= ~(rest << assigned[u])
                    if need and (pairs or loops):
                        left = need
                        while left:
                            low = left & -left
                            left ^= low
                            x = low.bit_length() - 1
                            if pairs:
                                both = rest & mir >> mirror_top - x
                                if both & both - 1:
                                    need ^= low
                                    continue
                            if loops and not x & 1 and rest >> (x >> 1) & 1:
                                need ^= low
                    if need:
                        continue
                if extend(t + 1, na, nb, pl, un, made, rest, mir):
                    return True
        return False

    try:
        extend(0, starts[0], starts[-1], 0, p * (p + 1) // 2, 0, label_bits, label_bits << p + 1)
    except _Abort:
        return ABORTED, witnesses, nodes
    return (WITNESS if witnesses else EXHAUSTED), witnesses, nodes


def _check_order_bound(order: int, mode: str) -> None:
    bound = DEFAULT_ORDER_BOUND_ALL if mode == "all" else DEFAULT_ORDER_BOUND
    if order > bound:
        raise ResourceLimit(f"order {order} exceeds the {mode}-mode bound {bound}")


def _variable_order(deg: list, mode: str) -> list:
    """The static order in which the search places the vertices: descending
    degree then index for ``first``, index order otherwise."""
    verts = list(range(1, len(deg)))
    if mode == "first":
        verts.sort(key=lambda v: -deg[v])
    return verts


def find_sem(
    g: Graph,
    mode: str = "first",
    budget: ResourceBudget | None = None,
) -> SearchReport:
    """Search for a SEM labeling of g.

    ``first`` returns any witness, ``canonical`` the lexicographically
    smallest labeling vector, ``all`` every witness in lexicographic order.
    The search (``_sem_backtrack``) keeps every sum inside the anchored
    windows and breaks twin and complement symmetry outside ``all`` mode.
    Variable order is static: descending degree then index for ``first``
    (loops pin 2g(u), so centers go early), plain index order for
    ``canonical`` and ``all`` so the first witness found is the
    lexicographically smallest labeling vector.  Every witness is
    re-verified by ``verified_window`` before it is reported.
    """
    if mode not in ("first", "canonical", "all"):
        raise ValueError(f"unknown mode {mode!r}")
    _check_order_bound(g.order, mode)
    return _search(g, mode, budget)


def _search(g: Graph, mode: str, budget: ResourceBudget | None) -> SearchReport:
    """``_sem_backtrack`` under the budget, each witness re-verified by
    ``verified_window``; the caller checks its own order bound first."""
    budget = budget or ResourceBudget()
    start = time.monotonic()
    status, wits, nodes = _sem_backtrack(g, mode, budget.max_nodes, start + budget.max_seconds)
    for w in wits:
        verified_window(g, w, "search witness")
    witnesses = tuple(wits) if mode == "all" and status != ABORTED else None
    return SearchReport(status, wits[0] if wits else None, witnesses, nodes,
                        time.monotonic() - start, budget)


def sem_bijections(g: Graph):
    """Unpruned oracle: yield every SEM bijection of [1,p] as a label tuple,
    found by testing each one by direct summation.

    Independent of the pruned searcher.  Permutations come in lexicographic
    order of the labeling vector.
    """
    q = g.size
    pairs = [(u - 1, v - 1) for u, v in g.sorted_edges]
    for perm in itertools.permutations(range(1, g.order + 1)):
        seen = 0
        lo = 10**9
        hi = 0
        ok = True
        for a, b in pairs:
            s = perm[a] + perm[b]
            bit = 1 << s
            if seen & bit:
                ok = False
                break
            seen |= bit
            if s < lo:
                lo = s
            if s > hi:
                hi = s
        if ok and (q == 0 or hi - lo + 1 == q):
            yield perm


def exhaustive_sem_search(g: Graph):
    """Unpruned oracle: ``(count, first_witness)`` over ``sem_bijections``;
    the first witness is the canonical one."""
    count = 0
    first = None
    for perm in sem_bijections(g):
        count += 1
        if first is None:
            first = VertexLabeling(perm)
    return count, first


def certify_not_sem(
    g: Graph,
    budget: ResourceBudget | None = None,
    *,
    cross_check: bool = False,
) -> SearchReport:
    """Exhaust the pruned search; an exhausted outcome certifies non-existence.

    It runs ``find_sem``'s ``first``-mode search under ``DEFAULT_CERTIFY_BOUND``
    (backed on the loop-star unions only) in place of the first-mode bound,
    so a SEM graph of order 25..100 gets its witness.

    With ``cross_check`` and order at most 8, the result is compared against
    whether the unpruned enumerator yields any SEM bijection, which scans
    every permutation when it yields none; disagreement means the pruning is
    unsound and raises ``VerificationFailed`` instead of returning.
    """
    if g.order > DEFAULT_CERTIFY_BOUND:
        raise ResourceLimit(
            f"order {g.order} exceeds the certification bound {DEFAULT_CERTIFY_BOUND}"
        )
    report = _search(g, "first", budget)
    if cross_check and g.order <= 8 and report.outcome != ABORTED:
        if (next(sem_bijections(g), None) is not None) != (report.outcome == WITNESS):
            raise VerificationFailed(
                "pruned search disagrees with exhaustive enumeration on "
                f"a graph of order {g.order}: pruning is unsound"
            )
    return report


def enumerate_snk(n: int, k: int) -> LabeledFamily:
    """All digraphs on [1,n] with n arcs whose arc sums are [k, k+n-1].

    One arc must realise each sum in the run, and arcs with distinct sums are
    distinct, so the family is exactly the product of the per-sum arc choices.
    Members come out in lexicographic order of those choices.  The family is
    non-empty exactly for 2 <= k <= n+1: every sum lies in [2, 2n].
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > SNK_ORDER_BOUND:
        raise ResourceLimit(f"family enumeration bound is n <= {SNK_ORDER_BOUND}")
    choices = [[(i, s - i) for i in range(max(1, s - n), min(n, s - 1) + 1)]
               for s in range(k, k + n)]
    members = tuple(
        Digraph(n, frozenset(combo)) for combo in itertools.product(*choices)
    )
    return LabeledFamily(n, k, members)


def _labeled_sem_edge_sets(p: int, starts: range):
    """The labeled graphs on [1,p] with p edges whose identity labeling is
    SEM with a minimum sum in ``starts``, each as the tuple of its edges
    (i, j), i <= j, in ascending order of the sum i + j.

    Under the identity labeling such a graph makes each sum x of its window
    [s, s+p-1] with exactly one edge, and any choice of one pair i <= j with
    i + j = x for each x of the window is such a graph, since pairs with
    distinct sums are distinct edges.  Over all windows, 2 <= s <= p+1, there
    are p! of them.
    """
    for s in starts:
        yield from itertools.product(
            *([(i, x - i) for i in range(max(1, x - p), x // 2 + 1)] for x in range(s, s + p))
        )


def _block_relabelings(p: int, j: int, d: int) -> list:
    """The relabelings of [1,p], as tuples f with f[0] = 0, that fix 1..j+1
    and permute {j+2..j+d+1} and {j+d+2..p} each among themselves."""
    return [
        tuple(range(j + 2)) + low + high
        for low in itertools.permutations(range(j + 2, j + d + 2))
        for high in itertools.permutations(range(j + d + 2, p + 1))
    ]


def census_equal_order_size(p: int, budget: ResourceBudget | None = None) -> list:
    """Catalog of loop-allowed graphs with order = size = p up to isomorphism.

    One orderly pass (Read 1978; McKay 1998) meets p-edge subsets in
    lexicographic order, so the first subset met of each class is its
    canonical form (minimum sorted edge list over all relabelings).  It is
    appended with its SEM flag.  Here a vertex's degree is its number of
    other neighbours.  A canonical form contains (1,1), the smallest pair,
    iff the class has a loop.  If some loop has a neighbour, vertex 1 of the
    form is a looped vertex of maximum degree k >= 1 among the looped ones,
    since a longer run of (1,x) pairs is smaller, and its other neighbours
    are {2..k+1}, since moving them there in order only shrinks the (1,x)
    prefix of the sorted edge list: shape (True, 0, k).  Otherwise the class
    is j >= 0 isolated loops beside a loopless graph on p - j vertices, and
    its form is (1,1),...,(j,j) followed by a loopless form on j+1..p, whose
    vertex j+1 has maximum degree k and neighbours {j+2..j+k+1}, by the same
    argument: shape (False, j, k), with k >= 2 since p - j loopless edges
    need a degree >= 2, or k = 0 for the p isolated loops.  The centres of
    a shape are the vertices that may take its vertex j+1: the looped ones
    in a looped shape, the loopless ones otherwise.  So the pass meets only
    subsets of these shapes, and keeps one byte per such subset: its
    shape's offset plus the rank of its tail (the edges with both ends past
    j+1) among the tails of that shape.

    Before the pass, one sweep per shape marks every subset in which another
    centre has degree > k: each tail slot adds a packed degree increment to
    its endpoints, and one guard bit per vertex past j+1 fires past degree
    k.  The pass jumps from one unmarked subset to the next, and each one it
    meets is a new class.  The class marks its images that land on its
    shape: those sending its isolated loops onto 1..j (none in a looped
    shape), a centre c of degree k to j+1 and its other neighbours onto
    {j+2..j+k+1}.  Every other shaped image has a centre of degree > k past
    j+1 and is already marked.  Each image is marked once per automorphism
    orbit of centres and once per order of each twin class: a centre whose
    first image is already marked lies in the orbit of an earlier centre and
    has the same images, and swapping two twins (same open neighbourhood
    and loop flag) fixes the image.

    No class is searched: the flags come from the labeled SEM graphs, those
    whose identity labeling is SEM (``_labeled_sem_edge_sets``).  Before the
    pass, each one with a window s <= ⌊(p+3)/2⌋ is moved by one relabeling,
    its isolated loops first if every loop is isolated and then a centre of
    maximum degree, onto a shaped image, and the image's rank keeps that
    relabeling: vertex v, labeled v, goes to the image's vertex lab[v].  The
    complement x ↦ p+1-x maps window s onto window p+3-s inside one class,
    so the other windows add no class.  A class is SEM iff one of its graphs
    is a labeled SEM graph; its marking meets every image of its shape, so
    it is SEM iff one of the ranks it marks is kept.  The kept relabeling,
    inverted and moved back through the centre and block relabelings that
    hit that rank, gives the labels, which ``verified_window`` re-verifies.
    The census raises ``ResourceLimit`` before it lists the labeled SEM
    graphs or allocates its table if there are more shaped subsets than
    ``budget.max_nodes``.  ``budget.max_seconds`` bounds the whole census,
    read at the first labeled SEM graph and at every 1024th after it, after
    each shape's sweep and at each new class.  Past it the census raises
    ``ResourceLimit``, and so does p > 9 (order 9 takes 14–22 s of CPU).
    """
    if type(p) is not int:
        raise ValueError(f"census order must be an integer, got {p!r}")
    if p > 9:
        raise ResourceLimit("census bound is order <= 9")
    if p < 1:
        raise ValueError(f"census supports 1 <= p <= 9, got {p}")
    budget = budget or ResourceBudget()
    deadline = time.monotonic() + budget.max_seconds
    pool = [(u, v) for u in range(1, p + 1) for v in range(u, p + 1)]
    slot = [[0] * (p + 1) for _ in range(p + 1)]  # slot[u][v] = slot[v][u], (u,v)'s index
    for i, (u, v) in enumerate(pool):
        slot[u][v] = slot[v][u] = i
    n = len(pool)
    # shape (looped, j, k): head slots (1,1),...,(j,j), then (c,c) if looped
    # and (c,c+1),...,(c,c+k) for the centre c = j+1; a tail of the
    # r = p - |head| slots of ``tails``, those with both ends past c (loops
    # only if looped); and C(m, r) bytes of the table from ``offset`` to
    # ``last``.  The shapes are listed in the order of their forms.
    forms = [(True, 0, k) for k in range(p - 1, 0, -1)]
    for j in range(p, -1, -1):
        forms += [(False, j, k) for k in (range(p - j - 1, 1, -1) if j < p else [0])]
    shapes: dict = {}
    size = 0
    for looped, j, k in forms:
        c = j + 1
        head = [slot[v][v] for v in range(1, c + looped)]
        head += [slot[c][v] for v in range(c + 1, c + k + 1)]
        tails = [i for i, (u, v) in enumerate(pool) if u > c and (looped or u != v)]
        m, r = len(tails), p - len(head)
        # tail positions x_0 < x_1 < ... have rank C(m, r) - 1 - Σ_i C(m-1-x_i, r-i);
        # weights[i] gives minus that term for each slot of ``tails``
        weights = [[0] * n for _ in range(r)]
        for i, w in enumerate(weights):
            for x, t in enumerate(tails):
                w[t] = -math.comb(m - 1 - x, r - i)
        count = math.comb(m, r)
        shapes[looped, j, k] = head, tails, size, size + count - 1, weights
        size += count
    if size > budget.max_nodes:
        raise ResourceLimit("census node budget exhausted")
    marks = bytearray(size)
    # (j, d) -> the slot maps of _block_relabelings(p, j, d), as bytes: n <= 45
    blocks: dict = {}
    # (j, d, a, b) -> mask: byte x is 1 iff the f of blocks[j, d]'s x-th map has f[a] < f[b]
    ascending: dict = {}

    def relabelings(j: int, d: int, pairs: list):
        """Slot maps of the block relabelings past the centre j+1 of degree d
        that keep f[a] < f[b] for every (a, b) in pairs."""
        if (j, d) not in blocks:
            blocks[j, d] = [bytes([slot[f[u]][f[v]] for u, v in pool])
                            for f in _block_relabelings(p, j, d)]
        maps = blocks[j, d]
        if not pairs:
            return maps
        keep = -1
        for a, b in pairs:
            if (j, d, a, b) not in ascending:
                # the map of f sends the loop slot (x,x) to (f[x],f[x]), and
                # loop slots rise with x, so f[a] < f[b] iff their images do
                la, lb = slot[a][a], slot[b][b]
                ascending[j, d, a, b] = int.from_bytes(bytes(m[la] < m[lb] for m in maps),
                                                       "little")
            keep &= ascending[j, d, a, b]
        return list(itertools.compress(maps, keep.to_bytes(len(maps), "little")))

    def centred(edges, shape: tuple, first: list) -> tuple:
        """Send the vertices of ``first`` onto 1, 2, ... and the rest after
        them, each in order; returns that relabeling (index 0 unused), the
        slots of the image's tail and the image's rank in ``shape``."""
        lab = [0] * (p + 1)
        for i, v in enumerate(first, 1):
            lab[v] = i
        i = len(first)
        for v in range(1, p + 1):
            if not lab[v]:
                i += 1
                lab[v] = i
        c = shape[1] + 1
        tail = [slot[lab[u]][lab[v]] for u, v in edges if lab[u] > c and lab[v] > c]
        last, weights = shapes[shape][3:]
        return lab, tail, sum(map(list.__getitem__, weights, sorted(tail)), last)

    seeds: dict = {}  # rank of a shaped image -> bytes(lab), its relabeling from labels
    for i, edges in enumerate(_labeled_sem_edge_sets(p, range(2, (p + 3) // 2 + 1))):
        if i & 1023 == 0 and time.monotonic() > deadline:
            raise ResourceLimit("census wall-clock budget exhausted")
        # centred as ``mark`` centres its images
        deg = [0] * (p + 1)
        loops = []  # ascending, since the sums 2u ascend
        for u, v in edges:
            if u != v:
                deg[u] += 1
                deg[v] += 1
            else:
                loops.append(u)
        looped = any(map(deg.__getitem__, loops))
        c = max(loops if looped else range(1, p + 1), key=deg.__getitem__)
        first = [] if looped else loops
        if deg[c]:  # else p isolated loops
            first = [*first, c, *sorted(u + v - c for u, v in edges if c in (u, v) and u != v)]
        shape = looped, 0 if looped else len(loops), deg[c]
        lab, _, rank = centred(edges, shape, first)
        seeds[rank] = bytes(lab)

    # the sweep of shape (looped, j, k) gives each vertex v > j+1 a field of
    # ``width`` bits at (v-j-2)*width that sums v's degree and a ``lift`` of
    # top-k-1 if v is a centre (a loop lifts its vertex; in a loopless shape
    # every field starts lifted), so the field's top bit, its guard, is set
    # iff v is a centre of degree > k
    width = p.bit_length() + 1
    # top > p - 1 >= any degree, so an unlifted field stays below top and a
    # lifted one below 2 top: fields never carry into each other
    top = 1 << width - 1
    for (looped, j, k), (head, tails, offset, last, _) in shapes.items():
        bit = [0] * (j + 2) + [1 << (v - j - 2) * width for v in range(j + 2, p + 1)]
        guards = top * sum(bit)
        lift = top - k - 1
        steps = [lift * bit[u] if u == v else bit[u] + bit[v]
                 for u, v in map(pool.__getitem__, tails)]
        base = sum(bit[j + 2 : j + k + 2]) + (0 if looped else lift * sum(bit))
        sums = map(sum, itertools.combinations(steps, p - len(head)), itertools.repeat(base))
        hits = map(bool, map(guards.__and__, sums))
        # in slices of 1 MiB: order 9's largest shape would need an 8 MB temporary
        for at in range(offset, last + 1, 1 << 20):
            chunk = bytes(itertools.islice(hits, 1 << 20))
            marks[at : at + len(chunk)] = chunk
        if time.monotonic() > deadline:
            raise ResourceLimit("census wall-clock budget exhausted")

    def mark(g: Graph, shape: tuple) -> list | None:
        """Mark each image of the class on its shape; returns the labels of a
        SEM labeling of g read off a kept image, or None if no image is
        kept."""
        looped, j, k = shape
        nbrs, loop = nbhd = _neighbourhoods(g)
        last, weights = shapes[shape][3:]
        if j == p:  # p isolated loops: g is the only image of its class
            seed = seeds.get(last)
            return None if seed is None else [seed.index(v) for v in range(1, p + 1)]
        loops = [] if looped else [v for v in range(1, p + 1) if loop[v]]
        twins = _twins(nbhd)
        witness = None
        for c in range(1, p + 1):
            if len(nbrs[c]) != k or loop[c] != looped:
                continue
            # the block relabelings of this base image give every image of its shape
            lab, tail, base = centred(g.edges, shape, [*loops, c, *sorted(nbrs[c])])
            if marks[base]:
                continue  # an earlier centre of c's orbit marked these images
            # twins other than c lie in one block, or among the loops, and
            # take ascending labels
            pairs = [
                (lab[u], lab[w])
                for cls in twins
                for u, w in itertools.pairwise([v for v in cls if v != c])
            ]
            fs = relabelings(j, k, pairs)
            # itemgetter of one slot returns it bare, not in a tuple
            take = operator.itemgetter(*tail) if len(tail) > 1 else lambda f: [f[t] for t in tail]
            terms = map(map, itertools.repeat(list.__getitem__), itertools.repeat(weights),
                        map(sorted, map(take, fs)))
            ranks = list(map(sum, terms, itertools.repeat(last)))
            for r in ranks:
                marks[r] = 1
            if witness is None and not seeds.keys().isdisjoint(ranks):
                f, r = next((f, r) for f, r in zip(fs, ranks) if r in seeds)
                # the image's vertex x carries label seeds[r].index(x); f maps
                # slots, and sends vertex w where it sends the loop (w,w)
                witness = [seeds[r].index(pool[f[slot[w][w]]][0]) for w in lab[1:]]
        return witness

    entries = []
    for shape, (head, tails, offset, last, _) in shapes.items():
        combos = itertools.combinations(tails, p - len(head))
        at = offset  # index of the next subset of ``combos``
        while (i := marks.find(0, at, last + 1)) >= 0:
            if time.monotonic() > deadline:
                raise ResourceLimit("census wall-clock budget exhausted")
            tail = next(itertools.islice(combos, i - at, None))
            at = i + 1
            g = Graph(p, frozenset(pool[x] for x in itertools.chain(head, tail)))
            witness = mark(g, shape)
            if witness is not None:
                verified_window(g, VertexLabeling(tuple(witness)), "census witness")
            entries.append((g, witness is not None))
    return entries


def explore_even_copies(s: int, n: int, budget: ResourceBudget | None = None) -> SearchReport:
    """Search an even number of loop-star copies: 2s copies with n leaves each.

    Pure data gathering; the outcome is reported, never asserted in advance.
    """
    if type(s) is not int or type(n) is not int:
        raise ValueError(f"s and n must be integers, got s={s!r}, n={n!r}")
    if s < 1 or n < 1:
        raise ValueError(f"need s, n >= 1, got s={s}, n={n}")
    _check_order_bound(2 * s * (n + 1), "first")  # before the graph is built
    g = disjoint_union([star_with_loop(n)] * (2 * s))
    return find_sem(g, "first", budget)

