"""Backtracking search for super edge-magic labelings, exhaustive
non-existence certification, family enumeration, and small censuses.

The SEM search (``_sem_backtrack``) is one core behind ``find_sem``,
``certify_not_sem`` and the census.  It anchors the window of induced sums:
the consecutive-sums identity confines the minimum sum s to a short range,
and a partial labeling dies as soon as its sums fit no window [s, s+q-1]
with s in that range.  Outside ``all`` mode it also breaks the symmetry of
twin vertices and of the complement labeling.

The pruned searcher and the unpruned permutation enumerator are deliberately
independent code paths: an exhaustion certificate from the pruned tree can be
cross-checked against plain enumeration at small orders, and the two must
agree both on existence and on witness counts.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

from .errors import ResourceLimit
from .families import star_with_loop
from .graphs import Digraph, Graph, disjoint_union
from .labelings import VertexLabeling, is_sem
from .product import LabeledFamily

WITNESS = "witness"
EXHAUSTED = "exhausted"
ABORTED = "aborted"

DEFAULT_ORDER_BOUND = 24
DEFAULT_ORDER_BOUND_ALL = 12
DEFAULT_CERTIFY_BOUND = 16
SNK_ORDER_BOUND = 5


@dataclass(frozen=True)
class ResourceBudget:
    max_nodes: int = 10**9
    max_seconds: float = 300.0


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
    w = report.witness
    return {
        "outcome": report.outcome,
        "labels": list(w.labels) if w is not None else None,
        "nodes": report.nodes,
        "ms": int(report.elapsed * 1000),
    }


class _Abort(Exception):
    pass


def _degrees(g: Graph) -> list:
    """Degree of every vertex in one pass over the edges; index 0 is unused
    and a loop counts 2."""
    deg = [0] * (g.order + 1)
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def _degree_order(deg: list) -> list:
    return sorted(range(1, len(deg)), key=lambda v: (-deg[v], v))


def _prepare(g: Graph, verts: list):
    """Per search position: earlier positions it closes an edge with, loop flag."""
    pos = {v: t for t, v in enumerate(verts)}
    partners = [[] for _ in verts]
    loops = [False] * len(verts)
    for u, v in g.edges:
        if u == v:
            loops[pos[u]] = True
        else:
            a, b = pos[u], pos[v]
            if a > b:
                a, b = b, a
            partners[b].append(a)
    return partners, loops


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
    ds = sorted(deg[1:], reverse=True)
    low = sum(d * lab for lab, d in enumerate(ds, 1))
    high = sum(d * lab for lab, d in enumerate(reversed(ds), 1))
    base = q * (q - 1) // 2
    return range(max(2, -((base - low) // q)), min(2 * p - q + 1, (high - base) // q) + 1)


def _twin_prev(g: Graph, verts: list) -> list:
    """Per search position: the position of the previous twin, or -1.

    Twins are vertices with the same open neighbourhood and the same loop
    flag; swapping two of them is an automorphism.  Twins have equal degree,
    so both variable orders place them in index order.
    """
    nbrs = [set() for _ in range(g.order + 1)]
    loop = [False] * (g.order + 1)
    for u, v in g.edges:
        if u == v:
            loop[u] = True
        else:
            nbrs[u].add(v)
            nbrs[v].add(u)
    last: dict = {}
    prev = []
    for t, v in enumerate(verts):
        key = (frozenset(nbrs[v]), loop[v])
        prev.append(last.get(key, -1))
        last[key] = t
    return prev


def _sem_backtrack(
    g: Graph,
    verts: list,
    deg: list,
    mode: str,
    budget: ResourceBudget,
    deadline: float,
):
    """Depth-first search over bijections inside the anchored windows.

    Labels are placed on ``verts`` in order.  The search carries the range
    [a, b] of minimum sums s whose window [s, s+q-1] can still hold every
    closed edge's sum: it starts as ``_sum_starts``, each new sum x narrows
    it to [max(a, x-q+1), min(b, x)], and a partial assignment dies as soon
    as the range empties or a sum repeats.  One pass thus covers every
    window and visits each partial assignment once, however many windows it
    fits.

    In ``first`` and ``canonical`` mode two symmetry-breaking cuts apply
    (Crawford, Ginsberg, Luks & Roy, 1996): each vertex takes a label above
    that of its previous twin, and the first search position takes a label
    of at most ⌈p/2⌉, since the complement x ↦ p+1-x preserves SEM.  Both
    are sound for existence, and for ``canonical`` too: the
    lexicographically smallest labeling is ascending on twins and starts at
    most at ⌈p/2⌉ (else its complement would be smaller), so it is still
    the first witness of the index-order search.  ``all`` mode applies the
    window alone, so its witness set is exact.

    Returns ``(status, witnesses, nodes)`` where status is
    WITNESS/EXHAUSTED/ABORTED and ``nodes`` counts the labels tried.
    """
    p, q = g.order, g.size
    starts = _sum_starts(deg, p, q)
    if not starts:
        return EXHAUSTED, [], 0
    partners, loops = _prepare(g, verts)
    collect_all = mode == "all"
    if collect_all:
        twin_prev, first_stop = [-1] * p, p + 1
    else:
        twin_prev, first_stop = _twin_prev(g, verts), (p + 1) // 2 + 1
    assigned = [0] * p
    labels_of = [0] * (p + 1)
    used = [False] * (p + 1)
    seen = bytearray(2 * p + 3)
    witnesses: list[VertexLabeling] = []
    nodes = 0
    max_nodes = budget.max_nodes
    span = q - 1

    def extend(t: int, a: int, b: int) -> bool:
        nonlocal nodes
        if t == p:
            witnesses.append(VertexLabeling(tuple(labels_of[1:])))
            return not collect_all
        row = partners[t]
        has_loop = loops[t]
        twin = twin_prev[t]
        start = assigned[twin] + 1 if twin >= 0 else 1
        for lab in range(start, first_stop if t == 0 else p + 1):
            if used[lab]:
                continue
            nodes += 1
            if nodes > max_nodes:
                raise _Abort
            if nodes & 1023 == 0 and time.monotonic() > deadline:
                raise _Abort
            na, nb = a, b
            added = []
            ok = True
            if has_loop:
                s = 2 * lab
                if seen[s]:
                    ok = False
                else:
                    seen[s] = 1
                    added.append(s)
                    if s - span > na:
                        na = s - span
                    if s < nb:
                        nb = s
                    if na > nb:
                        ok = False
            if ok:
                for spos in row:
                    s = lab + assigned[spos]
                    if seen[s]:
                        ok = False
                        break
                    seen[s] = 1
                    added.append(s)
                    if s - span > na:
                        na = s - span
                    if s < nb:
                        nb = s
                    if na > nb:
                        ok = False
                        break
            if ok:
                assigned[t] = lab
                labels_of[verts[t]] = lab
                used[lab] = True
                if extend(t + 1, na, nb):
                    return True
                used[lab] = False
            for s in added:
                seen[s] = 0
        return False

    try:
        extend(0, starts[0], starts[-1])
    except _Abort:
        return ABORTED, witnesses, nodes
    return (WITNESS if witnesses else EXHAUSTED), witnesses, nodes


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
    re-verified with ``is_sem`` before it is reported.
    """
    if mode not in ("first", "canonical", "all"):
        raise ValueError(f"unknown mode {mode!r}")
    budget = budget or ResourceBudget()
    bound = DEFAULT_ORDER_BOUND_ALL if mode == "all" else DEFAULT_ORDER_BOUND
    if g.order > bound:
        raise ResourceLimit(f"order {g.order} exceeds the {mode}-mode bound {bound}")
    deg = _degrees(g)
    verts = _degree_order(deg) if mode == "first" else list(range(1, g.order + 1))
    start = time.monotonic()
    deadline = start + budget.max_seconds
    status, wits, nodes = _sem_backtrack(g, verts, deg, mode, budget, deadline)
    elapsed = time.monotonic() - start
    for w in wits:
        ok, _ = is_sem(g, w)
        if not ok:
            raise RuntimeError("searcher produced a witness rejected by is_sem")
    witness = wits[0] if wits else None
    return SearchReport(
        status,
        witness,
        tuple(wits) if mode == "all" and status != ABORTED else None,
        nodes,
        elapsed,
        budget,
    )


def exhaustive_sem_search(g: Graph):
    """Unpruned oracle: test every bijection of [1,p] by direct summation.

    Independent of the pruned searcher.  Returns ``(count, first_witness)``;
    permutations are generated in lexicographic order of the labeling vector,
    so the first witness is the canonical one.
    """
    p, q = g.order, g.size
    pairs = [(u - 1, v - 1) for u, v in g.sorted_edges]
    count = 0
    first = None
    for perm in itertools.permutations(range(1, p + 1)):
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

    With ``cross_check`` and order at most 8, the result is compared against
    the unpruned enumerator; disagreement means the pruning is unsound and is
    raised loudly instead of returned.
    """
    if g.order > DEFAULT_CERTIFY_BOUND:
        raise ResourceLimit(
            f"order {g.order} exceeds the certification bound {DEFAULT_CERTIFY_BOUND}"
        )
    report = find_sem(g, "first", budget)
    if cross_check and g.order <= 8 and report.outcome != ABORTED:
        count, _ = exhaustive_sem_search(g)
        if (count > 0) != (report.outcome == WITNESS):
            raise RuntimeError(
                "pruned search disagrees with exhaustive enumeration on "
                f"a graph of order {g.order}: pruning is unsound"
            )
    return report


def feasible_sum_starts(n: int) -> range:
    """Minimum induced sums k for which digraphs of order and size n exist."""
    return range(2, n + 2)


def enumerate_snk(n: int, k: int) -> LabeledFamily:
    """All digraphs on [1,n] with n arcs whose arc sums are [k, k+n-1].

    One arc must realise each sum in the run, and arcs with distinct sums are
    distinct, so the family is exactly the product of the per-sum arc choices.
    Members come out in lexicographic order of those choices.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > SNK_ORDER_BOUND:
        raise ResourceLimit(f"family enumeration bound is n <= {SNK_ORDER_BOUND}")
    choices = []
    for s in range(k, k + n):
        arcs = [(i, s - i) for i in range(max(1, s - n), min(n, s - 1) + 1)]
        choices.append(sorted(arcs))
    if any(not arcs for arcs in choices):
        return LabeledFamily(n, k, ())
    members = tuple(
        Digraph(n, frozenset(combo)) for combo in itertools.product(*choices)
    )
    return LabeledFamily(n, k, members)


def census_equal_order_size(p: int, budget: ResourceBudget | None = None) -> list:
    """Catalog of loop-allowed graphs with order = size = p up to isomorphism.

    One orderly pass (Read 1978; McKay 1998) meets the p-edge subsets in
    lexicographic order, so the first subset met of each class is its
    canonical form (minimum sorted edge list over all relabelings).  It is
    searched and appended with its SEM outcome, and its p! relabelings are
    marked, one byte per subset by lexicographic rank.  ``budget.max_nodes``
    bounds the subsets enumerated; ``budget.max_seconds`` the whole census,
    class searches included; an aborted class search raises ``ResourceLimit``.
    """
    if not 1 <= p <= 8:
        raise ValueError(f"census supports 1 <= p <= 8, got {p}")
    budget = budget or ResourceBudget()
    deadline = time.monotonic() + budget.max_seconds
    pool = [(u, v) for u in range(1, p + 1) for v in range(u, p + 1)]
    slot = {e: i for i, (u, v) in enumerate(pool) for e in ((u, v), (v, u))}
    perms = itertools.permutations(range(1, p + 1))
    relabel = [[slot[f[u - 1], f[v - 1]] for u, v in pool] for f in perms]
    n = len(pool)
    last = math.comb(n, p) - 1  # slots c_0 < c_1 < ... have rank last - Σ_i C(n-1-c_i, p-i)
    weights = [[math.comb(n - 1 - c, p - i) for c in range(n)] for i in range(p)]
    marks = bytearray(last + 1)
    entries = []
    for rank, combo in enumerate(itertools.combinations(range(n), p)):
        if rank >= budget.max_nodes:
            raise ResourceLimit("census node budget exhausted")
        if rank & 1023 == 1023 and time.monotonic() > deadline:
            raise ResourceLimit("census wall-clock budget exhausted")
        if marks[rank]:
            continue
        for f in relabel:
            image = sorted(map(f.__getitem__, combo))
            marks[last - sum(map(list.__getitem__, weights, image))] = 1
        g = Graph(p, frozenset(pool[i] for i in combo))
        left = ResourceBudget(max_seconds=max(0.0, deadline - time.monotonic()))
        report = find_sem(g, "first", left)
        if report.outcome == ABORTED:
            raise ResourceLimit("census search of a class aborted")
        entries.append((g, report.outcome == WITNESS))
    return entries


def explore_even_copies(s: int, n: int, budget: ResourceBudget | None = None) -> SearchReport:
    """Search an even number of loop-star copies: 2s copies with n leaves each.

    Pure data gathering; the outcome is reported, never asserted in advance.
    """
    if s < 1 or n < 1:
        raise ValueError(f"need s, n >= 1, got s={s}, n={n}")
    g = disjoint_union([star_with_loop(n)] * (2 * s))
    return find_sem(g, "first", budget)

