"""In-memory span tracer that wraps semforge's public layer functions.

Nothing under ``src/`` changes: ``Tracer.install`` rebinds every module-level
name in the ``semforge`` package that refers to a traced function, and
``Tracer.uninstall`` restores the originals.  A span records its name, start,
end, parent span and operation id, plus one work figure (edges, arcs, nodes)
and one integer tag (a result flag or outcome code).  Start and end are
readings of ``clock``; the benchmark passes the CPU-time clock it times
operations with.  Spans are kept in column arrays so that tens of thousands of them
cost a few megabytes.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array

# Outcome tags of ``find_sem`` spans.
WITNESS, EXHAUSTED, ABORT_NODES, ABORT_SECONDS, RAISED = 1, 2, 3, 4, 5


def _size_of_result(args, result):
    return result.size, 0


def _iso_result(args, result):
    return 0, int(bool(result))


def _is_sem_edges(args, result):
    return args[0].size, int(bool(result[0]))


def _search_report(args, report):
    if report.outcome == "witness":
        tag = WITNESS
    elif report.outcome == "exhausted":
        tag = EXHAUSTED
    elif report.nodes > report.budget.max_nodes:
        # SearchReport carries no abort reason; the node counter passing its
        # budget is the only observable sign of a node-budget abort.
        tag = ABORT_NODES
    else:
        tag = ABORT_SECONDS
    return report.nodes, tag


# span name -> (module, function names, extractor of (work, tag))
TRACED = {
    "graphs.parse": ("semforge.graphs", ("parse_graph_or_digraph",), _size_of_result),
    "graphs.format": ("semforge.graphs", ("format_graph", "format_digraph"), None),
    "graphs.iso": ("semforge.graphs", ("isomorphic",), _iso_result),
    "graphs.canon": ("semforge.graphs", ("canonical_form",), None),
    "graphs.orient": ("semforge.graphs", ("indegree_one_orientation",), None),
    "labelings.is_sem": ("semforge.labelings", ("is_sem",), _is_sem_edges),
    "labelings.json": ("semforge.labelings", ("labeling_json",), None),
    "families.build": ("semforge.families", ("construct_family",), None),
    "product.otimes": ("semforge.product", ("otimes_h",), _size_of_result),
    "product.lift": ("semforge.product", ("canonical_product_labeling",), None),
    "search.find_sem": ("semforge.search", ("find_sem",), _search_report),
    "search.census": ("semforge.search", ("census_equal_order_size",), None),
    "search.snk": ("semforge.search", ("enumerate_snk",), None),
}
CLI_SPAN = "cli.invoke"
NAMES = [CLI_SPAN, *TRACED]


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.name = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.work = array("d")
        self.tag = array("l")
        self.current_op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def __len__(self) -> int:
        return len(self.name)

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.work.append(0.0)
        self.tag.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int, work: float = 0.0, tag: int = 0) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()
        self.work[idx] = work
        self.tag[idx] = tag

    def _wrap(self, name_id: int, fn, extract):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name_id)
            work, tag = 0.0, RAISED
            try:
                result = fn(*args, **kwargs)
                work, tag = extract(args, result) if extract else (0.0, 0)
                return result
            finally:
                tracer.close(idx, work, tag)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every semforge module name that refers to a traced function."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "semforge" or n.startswith("semforge."))]
        for name, (mod_name, fn_names, extract) in TRACED.items():
            name_id = NAMES.index(name)
            for fn_name in fn_names:
                orig = getattr(sys.modules[mod_name], fn_name)
                wrapper = self._wrap(name_id, orig, extract)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def dump(self, path) -> None:
        """Write all spans as tab-separated rows."""
        with open(path, "w") as fh:
            fh.write("id\tname\top\tparent\tstart\tend\twork\ttag\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{NAMES[self.name[i]]}\t{self.op[i]}\t{self.parent[i]}\t"
                         f"{self.start[i]!r}\t{self.end[i]!r}\t{self.work[i]!r}\t{self.tag[i]}\n")


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(tr: Tracer, lo: int, hi: int, scales: list) -> dict:
    """Per-layer figures from spans ``lo..hi-1`` (one traced pass); a span's
    CPU time is calibrated by the factor ``scales[op]`` of its operation."""
    dur = [(tr.end[i] - tr.start[i]) * scales[tr.op[i]] for i in range(lo, hi)]
    child = {}
    for i in range(lo, hi):
        p = tr.parent[i]
        if p >= 0:
            child[p] = child.get(p, 0.0) + dur[i - lo]
    calls = dict.fromkeys(NAMES, 0)
    busy = dict.fromkeys(NAMES, 0.0)
    self_s = dict.fromkeys(NAMES, 0.0)
    work = dict.fromkeys(NAMES, 0.0)
    tags: dict = {}
    nodes_aborted = 0.0
    for i in range(lo, hi):
        name = NAMES[tr.name[i]]
        calls[name] += 1
        busy[name] += dur[i - lo]
        self_s[name] += dur[i - lo] - child.get(i, 0.0)
        work[name] += tr.work[i]
        key = (name, tr.tag[i])
        tags[key] = tags.get(key, 0) + 1
        if name == "search.find_sem" and tr.tag[i] in (ABORT_NODES, ABORT_SECONDS):
            nodes_aborted += tr.work[i]
    find = "search.find_sem"
    aborts_n = tags.get((find, ABORT_NODES), 0)
    aborts_s = tags.get((find, ABORT_SECONDS), 0)
    nodes = work[find]
    return {
        "cli.calls": calls[CLI_SPAN],
        "cli.self_s": self_s[CLI_SPAN],
        "cli.exit_limit": tags.get((CLI_SPAN, 3), 0),
        "cli.exit_usage": tags.get((CLI_SPAN, 2), 0),
        "graphs.parse_s": busy["graphs.parse"],
        "graphs.parse_edges_per_s": _rate(work["graphs.parse"], busy["graphs.parse"]),
        "graphs.format_s": busy["graphs.format"],
        "graphs.iso_calls": calls["graphs.iso"],
        "graphs.iso_s": busy["graphs.iso"],
        "graphs.iso_true_frac": _rate(tags.get(("graphs.iso", 1), 0), calls["graphs.iso"]),
        "graphs.canon_calls": calls["graphs.canon"],
        "graphs.canon_s": busy["graphs.canon"],
        "graphs.orient_s": busy["graphs.orient"],
        "labelings.is_sem_calls": calls["labelings.is_sem"],
        "labelings.is_sem_s": busy["labelings.is_sem"],
        "labelings.is_sem_edges_per_s": _rate(work["labelings.is_sem"], busy["labelings.is_sem"]),
        "labelings.json_s": busy["labelings.json"],
        "families.build_calls": calls["families.build"],
        "families.build_s": busy["families.build"],
        "product.otimes_calls": calls["product.otimes"],
        "product.otimes_s": busy["product.otimes"],
        "product.arcs_per_s": _rate(work["product.otimes"], busy["product.otimes"]),
        "product.lift_s": self_s["product.lift"],
        "search.calls": calls[find],
        "search.busy_s": busy[find],
        "search.self_s": self_s[find],
        "search.nodes": int(nodes),
        "search.nodes_per_s": _rate(nodes, self_s[find]),
        "search.witness": tags.get((find, WITNESS), 0),
        "search.exhausted": tags.get((find, EXHAUSTED), 0),
        "search.aborted": aborts_n + aborts_s,
        "search.abort_nodes": aborts_n,
        "search.abort_seconds": aborts_s,
        "search.wasted_node_frac": _rate(nodes_aborted, nodes),
        "search.census_self_s": self_s["search.census"],
        "search.snk_s": busy["search.snk"],
    }


def median_metrics(per_pass: list[dict]) -> dict:
    """Median of each metric over traced passes; counts repeat exactly per pass."""
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
