"""Backtracking search for super edge-magic labelings, exhaustive
non-existence certification, family enumeration, and small censuses.

The pruned searcher and the unpruned permutation enumerator are deliberately
independent code paths: an exhaustion certificate from the pruned tree can be
cross-checked against plain enumeration at small orders, and the two must
agree both on existence and on witness counts.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .errors import ResourceLimit
from .families import star_with_loop
from .graphs import Digraph, Graph, canonical_form, disjoint_union, isomorphic
from .labelings import FullLabeling, VertexLabeling, is_sem, verify_edge_magic
from .product import LabeledFamily

WITNESS = "witness"
EXHAUSTED = "exhausted"
ABORTED = "aborted"

DEFAULT_ORDER_BOUND = 24
DEFAULT_ORDER_BOUND_ALL = 12
DEFAULT_CERTIFY_BOUND = 12
EDGE_MAGIC_TOTAL_BOUND = 16


@dataclass(frozen=True)
class ResourceBudget:
    max_nodes: int = 10**9
    max_seconds: float = 300.0


@dataclass(frozen=True)
class SearchReport:
    """Outcome of a search run.

    ``witness`` is a VertexLabeling (or a FullLabeling for the edge-magic
    searcher); ``witnesses`` carries the full list in all-mode.  An exhausted
    outcome certifies that the pruned tree covered the whole bijection space;
    an aborted outcome is never evidence of anything.
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
    labels = None
    w = report.witness
    if isinstance(w, VertexLabeling):
        labels = list(w.labels)
    elif isinstance(w, FullLabeling):
        labels = list(w.vertex_labels)
    return {
        "outcome": report.outcome,
        "labels": labels,
        "nodes": report.nodes,
        "ms": int(report.elapsed * 1000),
    }


class _Abort(Exception):
    pass


def _degree_order(g: Graph) -> list:
    return sorted(range(1, g.order + 1), key=lambda v: (-g.degree(v), v))


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


def _sem_backtrack(
    g: Graph,
    verts: list,
    mode: str,
    budget: ResourceBudget,
    deadline: float,
):
    """Depth-first search over bijections with sum pruning.

    A partial assignment dies when an induced sum repeats or when the spread
    of placed sums can no longer fit inside any window of q consecutive
    integers.  Returns ``(status, witnesses, nodes)`` where status is
    WITNESS/EXHAUSTED/ABORTED.
    """
    p, q = g.order, g.size
    partners, loops = _prepare(g, verts)
    assigned = [0] * p
    labels_of = [0] * (p + 1)
    used = [False] * (p + 1)
    seen = bytearray(2 * p + 3)
    witnesses: list[VertexLabeling] = []
    nodes = 0
    max_nodes = budget.max_nodes
    collect_all = mode == "all"
    sentinel_lo, sentinel_hi = 4 * p + 10, -(4 * p + 10)

    def extend(t: int, lo: int, hi: int) -> bool:
        nonlocal nodes
        if t == p:
            witnesses.append(VertexLabeling(tuple(labels_of[1:])))
            return not collect_all
        row = partners[t]
        has_loop = loops[t]
        for lab in range(1, p + 1):
            if used[lab]:
                continue
            nodes += 1
            if nodes > max_nodes:
                raise _Abort
            if nodes & 1023 == 0 and time.monotonic() > deadline:
                raise _Abort
            nlo, nhi = lo, hi
            added = []
            ok = True
            if has_loop:
                s = 2 * lab
                if seen[s]:
                    ok = False
                else:
                    seen[s] = 1
                    added.append(s)
                    if s < nlo:
                        nlo = s
                    if s > nhi:
                        nhi = s
                    if nhi - nlo >= q:
                        ok = False
            if ok:
                for spos in row:
                    s = lab + assigned[spos]
                    if seen[s]:
                        ok = False
                        break
                    seen[s] = 1
                    added.append(s)
                    if s < nlo:
                        nlo = s
                    if s > nhi:
                        nhi = s
                    if nhi - nlo >= q:
                        ok = False
                        break
            if ok:
                assigned[t] = lab
                labels_of[verts[t]] = lab
                used[lab] = True
                if extend(t + 1, nlo, nhi):
                    return True
                used[lab] = False
            for s in added:
                seen[s] = 0
        return False

    try:
        extend(0, sentinel_lo, sentinel_hi)
    except _Abort:
        return ABORTED, witnesses, nodes
    return (WITNESS if witnesses else EXHAUSTED), witnesses, nodes


def find_sem(
    g: Graph,
    mode: str = "first",
    budget: ResourceBudget | None = None,
    *,
    max_order: int | None = None,
) -> SearchReport:
    """Search for a SEM labeling of g.

    Variable order is static: descending degree then index for ``first``
    (loops pin 2g(u), so centers go early), plain index order for
    ``canonical`` and ``all`` so the first witness found is the
    lexicographically smallest labeling vector.  Every witness is re-verified
    with ``is_sem`` before it is reported.
    """
    if mode not in ("first", "canonical", "all"):
        raise ValueError(f"unknown mode {mode!r}")
    budget = budget or ResourceBudget()
    bound = max_order if max_order is not None else (
        DEFAULT_ORDER_BOUND_ALL if mode == "all" else DEFAULT_ORDER_BOUND
    )
    if g.order > bound:
        raise ResourceLimit(f"order {g.order} exceeds the {mode}-mode bound {bound}")
    verts = _degree_order(g) if mode == "first" else list(range(1, g.order + 1))
    start = time.monotonic()
    deadline = start + budget.max_seconds
    status, wits, nodes = _sem_backtrack(g, verts, mode, budget, deadline)
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
    max_order: int | None = None,
) -> SearchReport:
    """Exhaust the pruned search; an exhausted outcome certifies non-existence.

    With ``cross_check`` and order at most 8, the result is compared against
    the unpruned enumerator; disagreement means the pruning is unsound and is
    raised loudly instead of returned.
    """
    bound = max_order if max_order is not None else DEFAULT_CERTIFY_BOUND
    if g.order > bound:
        raise ResourceLimit(f"order {g.order} exceeds the certification bound {bound}")
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


def enumerate_snk(n: int, k: int, *, max_n: int = 5) -> LabeledFamily:
    """All digraphs on [1,n] with n arcs whose arc sums are [k, k+n-1].

    One arc must realise each sum in the run, and arcs with distinct sums are
    distinct, so the family is exactly the product of the per-sum arc choices.
    Members come out in lexicographic order of those choices.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > max_n:
        raise ResourceLimit(f"family enumeration bound is n <= {max_n}")
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


def _census_key(g: Graph):
    kinds = {v: (g.has_loop(v), g.degree(v)) for v in range(1, g.order + 1)}
    vs = tuple(sorted(kinds.values()))
    es = tuple(sorted(tuple(sorted((kinds[u], kinds[v]))) for u, v in g.edges))
    return vs, es


def census_equal_order_size(p: int, budget: ResourceBudget | None = None) -> list:
    """Catalog of loop-allowed graphs with order = size = p up to isomorphism.

    Each entry pairs the canonical representative (minimum sorted edge list
    over all relabelings) with its SEM search outcome.  Deduplication buckets
    subsets by a degree/loop invariant and settles each bucket by exact
    isomorphism, canonicalising once per class.
    """
    if not 1 <= p <= 8:
        raise ValueError(f"census supports 1 <= p <= 8, got {p}")
    budget = budget or ResourceBudget()
    deadline = time.monotonic() + budget.max_seconds
    pool = [(u, v) for u in range(1, p + 1) for v in range(u, p + 1)]
    buckets: dict = {}
    processed = 0
    for combo in itertools.combinations(pool, p):
        processed += 1
        if processed > budget.max_nodes:
            raise ResourceLimit("census node budget exhausted")
        if processed & 1023 == 0 and time.monotonic() > deadline:
            raise ResourceLimit("census wall-clock budget exhausted")
        g = Graph(p, frozenset(combo))
        bucket = buckets.setdefault(_census_key(g), [])
        if not any(isomorphic(g, rep) for rep in bucket):
            bucket.append(g)
    entries = []
    for bucket in buckets.values():
        for g in bucket:
            sem = find_sem(g, "first").outcome == WITNESS
            entries.append((canonical_form(g), sem))
    entries.sort(key=lambda pair: pair[0].sorted_edges)
    return entries


def explore_even_copies(s: int, n: int, budget: ResourceBudget | None = None) -> SearchReport:
    """Search an even number of loop-star copies: 2s copies with n leaves each.

    Pure data gathering; the outcome is reported, never asserted in advance.
    """
    if s < 1 or n < 1:
        raise ValueError(f"need s, n >= 1, got s={s}, n={n}")
    g = disjoint_union([star_with_loop(n)] * (2 * s))
    return find_sem(g, "first", budget)


def find_edge_magic(
    g: Graph,
    budget: ResourceBudget | None = None,
    *,
    max_total: int = EDGE_MAGIC_TOTAL_BOUND,
) -> SearchReport:
    """Search for a plain edge-magic labeling (vertex labels may exceed p).

    Iterates candidate magic sums ascending; within one, backtracks over
    vertex labels only, since each completed edge forces its label to
    k - f(u) - f(v), pruned when that leaves [1, p+q] or collides.
    """
    p, q = g.order, g.size
    total = p + q
    if q == 0:
        raise ValueError("graph has no edges to be edge-magic about")
    if total > max_total:
        raise ResourceLimit(f"p+q={total} exceeds the edge-magic bound {max_total}")
    budget = budget or ResourceBudget()
    start = time.monotonic()
    deadline = start + budget.max_seconds
    verts = _degree_order(g)
    partners, loops = _prepare(g, verts)
    has_plain = any(u != v for u, v in g.edges)
    k_lo, k_hi = (6, 3 * total - 3) if has_plain else (4, 3 * total - 1)
    assigned = [0] * p
    labels_of = [0] * (p + 1)
    used = [False] * (total + 1)
    nodes = 0

    def extend(t: int, k: int) -> bool:
        nonlocal nodes
        if t == p:
            return True
        row = partners[t]
        has_loop = loops[t]
        for lab in range(1, total + 1):
            if used[lab]:
                continue
            nodes += 1
            if nodes > budget.max_nodes:
                raise _Abort
            if nodes & 1023 == 0 and time.monotonic() > deadline:
                raise _Abort
            used[lab] = True
            added = [lab]
            ok = True
            if has_loop:
                el = k - 2 * lab
                if el < 1 or el > total or used[el]:
                    ok = False
                else:
                    used[el] = True
                    added.append(el)
            if ok:
                for spos in row:
                    el = k - lab - assigned[spos]
                    if el < 1 or el > total or used[el]:
                        ok = False
                        break
                    used[el] = True
                    added.append(el)
            if ok:
                assigned[t] = lab
                labels_of[verts[t]] = lab
                if extend(t + 1, k):
                    return True
            for x in added:
                used[x] = False
        return False

    try:
        for k in range(k_lo, k_hi + 1):
            if extend(0, k):
                vertex_labels = tuple(labels_of[1:])
                edge_labels = tuple(
                    ((u, v), k - vertex_labels[u - 1] - vertex_labels[v - 1])
                    for u, v in g.edges
                )
                full = FullLabeling(vertex_labels, edge_labels, k)
                if not verify_edge_magic(g, full):
                    raise RuntimeError(
                        "edge-magic searcher produced a witness that fails verification"
                    )
                return SearchReport(
                    WITNESS, full, None, nodes, time.monotonic() - start, budget
                )
    except _Abort:
        return SearchReport(ABORTED, None, None, nodes, time.monotonic() - start, budget)
    return SearchReport(EXHAUSTED, None, None, nodes, time.monotonic() - start, budget)
