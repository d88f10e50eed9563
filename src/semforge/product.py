"""Digraph products driven by families of labeled digraphs.

A ``LabeledFamily`` collects digraphs on vertex set [1, n] with exactly n arcs
whose arc sums i+j are the n consecutive integers [k, k+n-1] (a loop counts
once, with sum 2i); vertex names double as labels.  The arc-selected product
pairs every host arc with the arcs of the member assigned to it, and a super
edge-magic labeling of the host lifts to the product by the block formula
(a, i) -> n(f(a)-1)+i, which is re-verified at runtime rather than trusted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .errors import BadAssignment, BadParam, NotSem
from .families import (
    CertifiedLabeledGraph,
    construct_family,
    cycle_graph,
    odd_cycle_labeling,
    star_with_loop,
)
from .graphs import (
    Arc,
    Digraph,
    corona,
    format_digraph,
    indegree_one_orientation,
    isomorphic,
    parse_digraph,
    relabel_digraph,
    underlying,
)
from .labelings import VertexLabeling, is_sem, verified_window


@dataclass(frozen=True)
class LabeledFamily:
    """All-or-some super edge-magic labeled digraphs of order and size n
    sharing minimum induced sum k, with vertex name equal to label."""

    n: int
    k: int
    members: tuple

    def __post_init__(self):
        members = tuple(self.members)
        for idx, member in enumerate(members):
            _validate_member(member, self.n, self.k, idx)
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, idx: int) -> Digraph:
        return self.members[idx]


def _validate_member(member: Digraph, n: int, k: int, idx: int) -> None:
    if member.order != n:
        raise ValueError(f"member {idx} has order {member.order}, expected {n}")
    if member.size != n:
        raise ValueError(f"member {idx} has {member.size} arcs, expected {n}")
    sums = sorted(a + b for a, b in member.arcs)
    if sums != list(range(k, k + n)):
        raise ValueError(
            f"member {idx} arc sums {sums} are not the consecutive run "
            f"[{k},{k + n - 1}]"
        )


def constant_assignment(host: Digraph, member_index: int = 0) -> dict:
    return {arc: member_index for arc in host.arcs}


def otimes_h(host: Digraph, assignment: Mapping[Arc, int], family: LabeledFamily) -> Digraph:
    """Arc-selected product: ((a,i),(b,j)) is an arc iff (a,b) is a host arc
    and (i,j) an arc of the member assigned to it.

    Product vertex (a, i) is encoded as n(a-1)+i, so outputs are deterministic.
    """
    n = family.n
    members = family.members
    host_arcs = host.sorted_arcs
    missing = [arc for arc in host_arcs if arc not in assignment]
    if missing:
        raise BadAssignment(f"assignment misses host arcs {missing}")
    if len(assignment) != len(host_arcs):
        extra = sorted(arc for arc in assignment if arc not in host.arcs)
        raise BadAssignment(f"assignment names arcs not in the host: {extra}")
    arcs = set()
    for arc in host_arcs:  # in sorted order, so the smallest bad arc is named
        idx = assignment[arc]
        a, b = arc
        if not 0 <= idx < len(members):
            raise BadAssignment(
                f"assignment maps arc ({a},{b}) to member {idx}, "
                f"but the family has {len(members)} members"
            )
        da, db = n * (a - 1), n * (b - 1)
        arcs.update([(da + i, db + j) for i, j in members[idx].arcs])
    return Digraph(host.order * n, frozenset(arcs))


def kronecker(d1: Digraph, d2: Digraph) -> Digraph:
    """Kronecker (tensor) product of digraphs; no labeling checks."""
    n = d2.order
    arcs = set()
    for a, b in d1.arcs:
        for i, j in d2.arcs:
            arcs.add((n * (a - 1) + i, n * (b - 1) + j))
    return Digraph(d1.order * n, arcs)


def canonical_product_labeling(
    host: Digraph,
    host_labeling: VertexLabeling,
    family: LabeledFamily,
    assignment: Mapping[Arc, int] | None = None,
) -> VertexLabeling:
    """Lift a SEM host labeling to the product: (a, i) -> n(f(a)-1)+i.

    The output is verified against the product built with ``assignment``
    (constant to member 0 when omitted); the induced sum multiset is the same
    for every assignment into the family, so one verified product certifies
    them all.  Raises ``NotSem`` if the host labeling is not SEM on the host's
    arcs (no labeling is when two arcs are antiparallel, as their sums are
    equal) and ``VerificationFailed`` if the verifier rejects.
    """
    return lift_to_product(host, host_labeling, family, assignment).labeling


def lift_to_product(
    host: Digraph,
    host_labeling: VertexLabeling,
    family: LabeledFamily,
    assignment: Mapping[Arc, int] | None = None,
) -> CertifiedLabeledGraph:
    """The underlying graph of the product with its verified block labeling.

    Builds, normalises and verifies the product once; see
    ``canonical_product_labeling``.  The certificate's window is ``None`` when
    the product has no edges.
    """
    base = underlying(host)
    ok, _ = is_sem(base, host_labeling)
    # antiparallel arcs share one edge of ``base``, which hides their equal sums
    if not ok or base.size != host.size:
        raise NotSem("host labeling is not super edge-magic")
    if not family.members:
        raise ValueError("family has no members")
    if assignment is None:
        assignment = constant_assignment(host)
    product = underlying(otimes_h(host, assignment, family))
    n = family.n
    # product vertex n(a-1)+i gets label n(f(a)-1)+i, in vertex order
    labeling = VertexLabeling(
        tuple([n * (f - 1) + i for f in host_labeling.labels for i in range(1, n + 1)])
    )
    window = verified_window(product, labeling, "block labeling of the product")
    return CertifiedLabeledGraph(product, labeling, window, "otimes_h block labeling")


def corona_iso_check(k: int, n: int) -> bool:
    """Is the product of an oriented k-cycle with an oriented n-leaf loop-star
    isomorphic (after forgetting orientation) to the corona of the cycle?"""
    host = indegree_one_orientation(cycle_graph(k))
    member = indegree_one_orientation(star_with_loop(n))
    family = LabeledFamily(n + 1, 2, (member,))
    product = underlying(otimes_h(host, constant_assignment(host), family))
    return isomorphic(product, corona(cycle_graph(k), n))


def corona_union_via_product(family: str, **params):
    """Corona unions via the product of an oriented cycle with a certified family.

    Builds the product of the oriented k-cycle with the single-member family
    drawn from the certified constructor of ``family``, a ``FAMILIES`` name
    whose other parameters (``spec`` for a deer) are in ``params``.  For odd
    k the cycle is SEM and the block labeling is attached (verified); for
    even k the graph is returned with no labeling.  Returns
    ``(graph, labeling_or_None)``.
    """
    if "k" not in params:
        raise BadParam("corona union build needs the cycle length k")
    k = params["k"]
    host = indegree_one_orientation(cycle_graph(k))
    cert = construct_family(family, params, params.get("spec"))
    if not isinstance(cert, CertifiedLabeledGraph):
        raise BadParam(f"family {family!r} builds a bare graph with no certified labeling")
    member = relabel_digraph(indegree_one_orientation(cert.graph), cert.labeling)
    fam = LabeledFamily(cert.graph.order, cert.window.s_min, (member,))
    if k % 2 == 1:
        lifted = lift_to_product(host, odd_cycle_labeling(k), fam)
        return lifted.graph, lifted.labeling
    return underlying(otimes_h(host, constant_assignment(host), fam)), None


# --- family directory format ----------------------------------------------------
#
# A family lives in a directory holding one digraph edge-list file per member
# plus family.json: {"n": int, "k": int, "members": [filename, ...]}; a member
# is a plain file name in that directory, never a path out of it.
# Assignment files pair host arcs with 0-based member indices, one
# "a b member_index" line per arc.


def save_family(family: LabeledFamily, directory: str | Path) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = []
    for i, member in enumerate(family.members):
        name = f"member{i:03d}.txt"
        (directory / name).write_text(format_digraph(member))
        names.append(name)
    meta = {"n": family.n, "k": family.k, "members": names}
    (directory / "family.json").write_text(json.dumps(meta, indent=2) + "\n")
    return directory


def load_family(directory: str | Path) -> LabeledFamily:
    directory = Path(directory)
    meta = json.loads((directory / "family.json").read_text())
    if not isinstance(meta, dict):
        raise ValueError(f"family.json must hold a JSON object, got {type(meta).__name__}")
    missing = [key for key in ("n", "k", "members") if key not in meta]
    if missing:
        raise ValueError(f"missing key {', '.join(map(repr, missing))}")
    n, k, names = meta["n"], meta["k"], meta["members"]
    if type(n) is not int or type(k) is not int:
        raise ValueError(f"family n and k must be integers, got n={n!r}, k={k!r}")
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise ValueError(f"family members must be a list of file names, got {names!r}")
    for name in names:
        if name in ("", "..") or Path(name).name != name:
            raise ValueError(f"family member {name!r} is not a file name inside {directory}")
    members = []
    for name in names:
        text = (directory / name).read_text()
        try:
            members.append(parse_digraph(text))
        except ValueError as exc:
            raise ValueError(f"member file {name}: {exc}") from None
    return LabeledFamily(n, k, tuple(members))


def parse_assignment(text: str) -> dict:
    assignment = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:  # three fields, each an int: unpacking raises ValueError too
            a, b, idx = map(int, line.split())
        except ValueError:
            raise ValueError(f"malformed assignment line: {raw!r}") from None
        if (a, b) in assignment:
            raise ValueError(f"duplicate assignment for arc ({a},{b}): {raw!r}")
        assignment[(a, b)] = idx
    return assignment


def format_assignment(assignment: Mapping[Arc, int]) -> str:
    lines = [f"{a} {b} {idx}" for (a, b), idx in sorted(assignment.items())]
    return "\n".join(lines) + "\n"
