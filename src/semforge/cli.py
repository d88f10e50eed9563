"""Command-line interface.

Exit codes separate the four kinds of endings so shell pipelines can tell an
answered "no" from a failure to answer: 0 success or witness, 1 negative
mathematical result (not SEM / exhausted / not compliant), 2 usage error,
malformed input or internal error, 3 resource limit.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import search as search_mod
from .errors import (
    BadAssignment,
    BadParam,
    LabelingFailed,
    NoSuchOrientation,
    NotSem,
    ResourceLimit,
    VerificationFailed,
)
from .families import CertifiedLabeledGraph, construct_family
from .graphs import (
    Digraph,
    Graph,
    adjacency_matrix,
    format_digraph,
    format_graph,
    indegree_one_orientation,
    parse_graph_or_digraph,
    underlying,
)
from .labelings import (
    VertexLabeling,
    complement,
    counterdiagonal_profile,
    is_sem,
    labeling_from_json,
    labeling_json,
    rotate_pi,
)
from .product import (
    canonical_product_labeling,
    constant_assignment,
    load_family,
    otimes_h,
    parse_assignment,
)
from .search import ResourceBudget, census_equal_order_size, report_json

EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


def export_dot(g: Graph, labeling: VertexLabeling | None = None) -> str:
    """Render a graph as DOT; node names are labels when a labeling is given."""

    def name(v: int) -> str:
        return str(labeling.of(v)) if labeling is not None else f"v{v}"

    lines = ["graph semforge {"]
    for v in range(1, g.order + 1):
        lines.append(f'    "{name(v)}";')
    for u, v in g.sorted_edges:
        lines.append(f'    "{name(u)}" -- "{name(v)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _params_dict(text: str) -> dict:
    params = {}
    if not text:
        return params
    for item in text.split(","):
        if "=" not in item:
            raise click.UsageError(f"--params items must look like k=v, got {item!r}")
        key, value = item.split("=", 1)
        try:
            params[key.strip()] = int(value)
        except ValueError:
            raise click.UsageError(f"--params value for {key!r} must be an integer")
    return params


def _spec_list(text: str | None):
    if text is None:
        return None
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise click.UsageError(f"--spec must be comma-separated integers, got {text!r}")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


def _load_graph(path: str) -> Graph:
    try:
        obj = parse_graph_or_digraph(Path(path).read_text())
    except (ValueError, OSError) as exc:
        raise click.UsageError(f"cannot read graph file {path}: {exc}")
    return underlying(obj) if isinstance(obj, Digraph) else obj


def _load_digraph(path: str) -> Digraph:
    """Read a digraph; a graph file is given its indegree-1 orientation."""
    try:
        obj = parse_graph_or_digraph(Path(path).read_text())
    except (ValueError, OSError) as exc:
        raise click.UsageError(f"cannot read digraph file {path}: {exc}")
    if isinstance(obj, Digraph):
        return obj
    try:
        return indegree_one_orientation(obj)
    except NoSuchOrientation as exc:
        raise click.UsageError(
            f"{path} holds an undirected graph with no indegree-1 orientation: {exc}"
        )


def _load_labeling(path: str) -> VertexLabeling:
    try:
        data = json.loads(Path(path).read_text())
        return labeling_from_json(data)
    except (ValueError, KeyError, OSError) as exc:
        raise click.UsageError(f"bad labeling file {path}: {exc}")


def _budget(node_budget: int | None, timeout: float | None) -> ResourceBudget:
    default = ResourceBudget()
    return ResourceBudget(
        max_nodes=node_budget if node_budget is not None else default.max_nodes,
        max_seconds=timeout if timeout is not None else default.max_seconds,
    )


def _report_exit(report) -> None:
    code = {"witness": 0, "exhausted": EXIT_NEGATIVE, "aborted": EXIT_LIMIT}[report.outcome]
    sys.exit(code)


class _Main(click.Group):
    """Keeps every ending inside the exit-code contract.

    A resource limit exits 3 wherever it is raised.  Any other exception that
    escapes a command is a malformed input no loader caught or an internal
    error; it exits 2 so it can never read as a witness (0) or a negative
    result (1).  Click's own exceptions and ``sys.exit`` pass through.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except ResourceLimit as exc:
            click.echo(str(exc), err=True)
            sys.exit(EXIT_LIMIT)
        except Exception as exc:
            click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(EXIT_USAGE)


@click.group(cls=_Main, context_settings={"help_option_names": ["-h", "--help"]})
def main():
    """Construct, verify, combine, and exhaustively search super edge-magic
    labelings of graphs of equal order and size."""


@main.command()
@click.option("--family", "family_name", required=True, help="Family or primitive name.")
@click.option("--params", default="", help="Comma-separated k=v integer parameters.")
@click.option("--spec", default=None, help="Comma-separated spine leaf counts (deer, caterpillar).")
@click.option("--format", "fmt", type=click.Choice(["json", "edgelist", "dot"]), default="json")
@click.option("--out", default=None, help="Write output to this file instead of stdout.")
def construct(family_name, params, spec, fmt, out):
    """Build a certified family instance or a primitive graph."""
    try:
        result = construct_family(family_name, _params_dict(params), _spec_list(spec))
    except (BadParam, LabelingFailed, ValueError) as exc:
        raise click.UsageError(str(exc))
    if isinstance(result, CertifiedLabeledGraph):
        graph, labeling = result.graph, result.labeling
    else:
        graph, labeling = result, None
    if fmt == "json":
        if labeling is None:
            raise click.UsageError(
                f"{family_name} is a primitive with no labeling; use --format edgelist or dot"
            )
        _emit(json.dumps(labeling_json(graph, labeling)) + "\n", out)
    elif fmt == "edgelist":
        _emit(format_graph(graph), out)
    else:
        _emit(export_dot(graph, labeling), out)
    sys.exit(0)


@main.command()
@click.option("--graph", "graph_path", required=True)
@click.option("--labeling", "labeling_path", required=True)
@click.option("--out", default=None)
def verify(graph_path, labeling_path, out):
    """Check a vertex labeling for the consecutive-sum certificate."""
    g = _load_graph(graph_path)
    labeling = _load_labeling(labeling_path)
    if labeling.order != g.order:
        raise click.UsageError(
            f"labeling has {labeling.order} labels but the graph has order {g.order}"
        )
    data = labeling_json(g, labeling)
    _emit(json.dumps(data) + "\n", out)
    sys.exit(0 if data["sem"] else EXIT_NEGATIVE)


@main.command("search")
@click.option("--graph", "graph_path", required=True)
@click.option("--mode", type=click.Choice(["first", "canonical", "all"]), default="first")
@click.option("--node-budget", type=int, default=None)
@click.option("--timeout", type=float, default=None)
@click.option("--out", default=None)
def search_cmd(graph_path, mode, node_budget, timeout, out):
    """Search for a super edge-magic labeling."""
    g = _load_graph(graph_path)
    report = search_mod.find_sem(g, mode, _budget(node_budget, timeout))
    _emit(json.dumps(report_json(report)) + "\n", out)
    _report_exit(report)


@main.command()
@click.option("--graph", "graph_path", required=True)
@click.option("--cross-check/--no-cross-check", default=False,
              help="Re-run unpruned enumeration at order <= 8 as a soundness check.")
@click.option("--node-budget", type=int, default=None)
@click.option("--timeout", type=float, default=None)
@click.option("--out", default=None)
def certify(graph_path, cross_check, node_budget, timeout, out):
    """Exhaust the search space; exit 1 reports a non-existence certificate."""
    g = _load_graph(graph_path)
    report = search_mod.certify_not_sem(
        g, _budget(node_budget, timeout), cross_check=cross_check
    )
    _emit(json.dumps(report_json(report)) + "\n", out)
    _report_exit(report)


@main.command()
@click.option("--graph", "host_path", required=True, help="Host digraph (or graph to orient).")
@click.option("--family-dir", default=None, help="Directory with family.json and member files.")
@click.option("--snk", default=None, help="N,K — enumerate the family instead of loading one.")
@click.option("--assignment", "assignment_path", default=None,
              help="File of 'a b member_index' lines; default assigns every arc --member.")
@click.option("--member", type=int, default=0, show_default=True)
@click.option("--host-labeling", "host_labeling_path", default=None)
@click.option("--emit", "emit_what", type=click.Choice(["digraph", "labeling"]), default="digraph")
@click.option("--out", default=None)
def product(host_path, family_dir, snk, assignment_path, member, host_labeling_path,
            emit_what, out):
    """Build the arc-selected product of a host digraph with a labeled family."""
    host = _load_digraph(host_path)
    if (family_dir is None) == (snk is None):
        raise click.UsageError("give exactly one of --family-dir or --snk")
    try:
        if family_dir is not None:
            family = load_family(family_dir)
        else:
            n, k = (int(x) for x in snk.split(","))
            family = search_mod.enumerate_snk(n, k)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        raise click.UsageError(f"cannot load family: {exc!r}")
    if assignment_path is not None:
        try:
            assignment = parse_assignment(Path(assignment_path).read_text())
        except (ValueError, OSError) as exc:
            raise click.UsageError(f"bad assignment file: {exc}")
    else:
        assignment = constant_assignment(host, member)
    try:
        prod = otimes_h(host, assignment, family)
        if emit_what == "digraph":
            _emit(format_digraph(prod), out)
            sys.exit(0)
        if host_labeling_path is None:
            raise click.UsageError("--emit labeling needs --host-labeling")
        host_labeling = _load_labeling(host_labeling_path)
        labeling = canonical_product_labeling(host, host_labeling, family, assignment)
        _emit(json.dumps(labeling_json(underlying(prod), labeling)) + "\n", out)
        sys.exit(0)
    except (BadAssignment, NotSem) as exc:
        raise click.UsageError(str(exc))
    except VerificationFailed as exc:
        click.echo(str(exc), err=True)
        sys.exit(EXIT_NEGATIVE)


@main.command()
@click.option("--order", "order_", type=int, required=True)
@click.option("--node-budget", type=int, default=None)
@click.option("--timeout", type=float, default=None)
@click.option("--out", default=None)
def census(order_, node_budget, timeout, out):
    """Catalog equal order/size graphs up to isomorphism with their SEM status."""
    try:
        entries = census_equal_order_size(order_, _budget(node_budget, timeout))
    except ValueError as exc:
        raise click.UsageError(str(exc))
    lines = [
        json.dumps({"p": g.order, "edges": [list(e) for e in g.sorted_edges], "sem": sem})
        for g, sem in entries
    ]
    _emit("\n".join(lines) + "\n", out)
    sys.exit(0)


@main.command("complement")
@click.option("--graph", "graph_path", required=True)
@click.option("--labeling", "labeling_path", required=True)
@click.option("--out", default=None)
def complement_cmd(graph_path, labeling_path, out):
    """Emit the complementary labeling x -> p+1-f(x), re-verified on the graph."""
    g = _load_graph(graph_path)
    labeling = _load_labeling(labeling_path)
    if labeling.order != g.order:
        raise click.UsageError(
            f"labeling has {labeling.order} labels but the graph has order {g.order}"
        )
    _emit(json.dumps(labeling_json(g, complement(labeling))) + "\n", out)
    sys.exit(0)


@main.command()
@click.option("--graph", "graph_path", required=True, help="Digraph (or graph to orient).")
@click.option("--labeling", "labeling_path", default=None,
              help="Rename vertices by these labels before building the matrix.")
@click.option("--rotate", is_flag=True, default=False)
@click.option("--profile", "profile_", is_flag=True, default=False)
@click.option("--out", default=None)
def matrix(graph_path, labeling_path, rotate, profile_, out):
    """Print the 0/1 adjacency matrix, optionally rotated or profiled."""
    d = _load_digraph(graph_path)
    relabel = _load_labeling(labeling_path) if labeling_path else None
    if relabel is not None and relabel.order != d.order:
        raise click.UsageError(
            f"labeling has {relabel.order} labels but the digraph has order {d.order}"
        )
    try:
        mat = adjacency_matrix(d, relabel)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if rotate:
        mat = rotate_pi(mat)
    if profile_:
        prof = counterdiagonal_profile(mat)
        payload = {
            "first_sum": 2,
            "counts": list(prof.counts),
            "compliant": prof.compliant,
        }
        _emit(json.dumps(payload) + "\n", out)
        sys.exit(0 if prof.compliant else EXIT_NEGATIVE)
    _emit("\n".join(mat.row_strings()) + "\n", out)
    sys.exit(0)


@main.command()
@click.option("--params", default="", help="s=..,n=.. for the even copy count and leaves.")
@click.option("--node-budget", type=int, default=None)
@click.option("--timeout", type=float, default=None)
@click.option("--out", default=None)
def explore(params, node_budget, timeout, out):
    """Search an even number of loop-star copies and report the outcome as data."""
    values = _params_dict(params)
    if "s" not in values or "n" not in values:
        raise click.UsageError("explore needs --params s=..,n=..")
    try:
        report = search_mod.explore_even_copies(
            values["s"], values["n"], _budget(node_budget, timeout)
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _emit(json.dumps(report_json(report)) + "\n", out)
    _report_exit(report)


if __name__ == "__main__":  # pragma: no cover
    main()
