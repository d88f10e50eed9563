"""Command-line interface.

Exit codes separate the four kinds of endings so shell pipelines can tell an
answered "no" from a failure to answer: 0 success or witness, 1 negative
mathematical result (not SEM / exhausted / not compliant), 2 usage error,
malformed input or internal error, 3 resource limit or interrupt.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import search as search_mod
from .errors import NoSuchOrientation, ResourceLimit
from .families import FAMILIES, CertifiedLabeledGraph, construct_family
from .graphs import (
    Digraph,
    Graph,
    _checked,
    _read_edge_list,
    adjacency_matrix,
    format_digraph,
    format_graph,
    indegree_one_orientation,
    parse_graph_or_digraph,
)
from .labelings import (
    VertexLabeling,
    certificate_json,
    complement,
    counterdiagonal_profile,
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
        key = key.strip()
        if key in params:
            raise click.UsageError(f"--params names {key!r} more than once")
        try:
            params[key] = int(value)
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
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise click.UsageError(f"cannot write --out file {out}: {exc}")
    else:
        click.echo(text, nl=False)


def _read(path: str, what: str, parse):
    """``parse`` of the text of the file at ``path``; an unreadable file or a
    ``ValueError`` from ``parse`` is a usage error that names the file."""
    try:
        return parse(Path(path).read_text())
    except (ValueError, OSError) as exc:
        raise click.UsageError(f"{what} {path}: {exc}")


def _graph(text: str) -> Graph:
    """The graph of a graph file's text; a digraph file's text gives its
    underlying graph."""
    return _checked(Graph, *_read_edge_list(text, as_graph=True)[1:])


def _load_graph(path: str) -> Graph:
    return _read(path, "cannot read graph file", _graph)


def _load_digraph(path: str) -> Digraph:
    """Read a digraph; a graph file is given its indegree-1 orientation."""
    obj = _read(path, "cannot read digraph file", parse_graph_or_digraph)
    if isinstance(obj, Digraph):
        return obj
    try:
        return indegree_one_orientation(obj)
    except NoSuchOrientation as exc:
        raise click.UsageError(
            f"{path} holds an undirected graph with no indegree-1 orientation: {exc}"
        )


def _load_labeling(path: str) -> VertexLabeling:
    return _read(path, "bad labeling file", lambda text: labeling_from_json(json.loads(text)))


def _budget_options(command):
    """Declare ``--node-budget`` and ``--timeout``, with ``ResourceBudget``'s
    defaults, for a command that passes them to ``ResourceBudget``."""
    command = click.option("--timeout", type=float, default=ResourceBudget.max_seconds)(command)
    return click.option("--node-budget", type=int, default=ResourceBudget.max_nodes)(command)


def _labeling_report(g: Graph, labeling: VertexLabeling, out: str | None) -> int:
    """Emit the labeling JSON of a labeling of g; return its sem flag's exit code."""
    data = labeling_json(g, labeling)
    _emit(json.dumps(data) + "\n", out)
    return 0 if data["sem"] else EXIT_NEGATIVE


def _report(report, out: str | None) -> int:
    """Emit a search report; return the exit code of its outcome."""
    _emit(json.dumps(report_json(report)) + "\n", out)
    return {"witness": 0, "exhausted": EXIT_NEGATIVE, "aborted": EXIT_LIMIT}[report.outcome]


class _Command(click.Command):
    """Ends every command, inside the exit-code contract.

    A command returns its exit code, or ``None`` for 0.  Click's exceptions
    pass through.  ``ResourceLimit`` exits 3 with its message on stderr, and
    an interrupt exits 3 with ``interrupted``: either way the run stopped
    before an answer.  ``ValueError`` (``BadParam``, ``BadAssignment`` and
    ``NotSem`` too) is malformed input: a usage error, exit 2.  Any other
    exception, a failed self-check (``VerificationFailed``) or ``MemoryError``
    among them, is an internal error, printed as ``error: <Type>: <message>``;
    it exits 2 so it can never read as a witness (0) or a negative result (1).
    The one ``sys.exit`` follows the handlers, so no traceback keeps the
    failed command's frames alive as the process ends.
    """

    def invoke(self, ctx):
        usage = None
        try:
            code = super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit):
            raise
        except ResourceLimit as exc:
            click.echo(str(exc), err=True)
            code = EXIT_LIMIT
        except ValueError as exc:
            usage = click.UsageError(str(exc), ctx)
        except (KeyboardInterrupt, click.Abort):
            click.echo("interrupted", err=True)
            code = EXIT_LIMIT
        except Exception as exc:
            click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
            code = EXIT_USAGE
        if usage is not None:
            raise usage
        sys.exit(code or 0)


class _Main(click.Group):
    command_class = _Command


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
    params, spec = _params_dict(params), _spec_list(spec)
    # refused by name, before a primitive of any size is built
    if fmt == "json" and family_name in FAMILIES and FAMILIES[family_name][2]:
        raise click.UsageError(
            f"{family_name} is a primitive with no labeling; use --format edgelist or dot"
        )
    result = construct_family(family_name, params, spec)
    if isinstance(result, CertifiedLabeledGraph):
        graph, labeling = result.graph, result.labeling
    else:
        graph, labeling = result, None
    if fmt == "json":
        _emit(json.dumps(certificate_json(result)) + "\n", out)
    elif fmt == "edgelist":
        _emit(format_graph(graph), out)
    else:
        _emit(export_dot(graph, labeling), out)


@main.command()
@click.option("--graph", "graph_path", required=True)
@click.option("--labeling", "labeling_path", required=True)
@click.option("--out", default=None)
def verify(graph_path, labeling_path, out):
    """Check a vertex labeling for the consecutive-sum certificate."""
    return _labeling_report(_load_graph(graph_path), _load_labeling(labeling_path), out)


@main.command("search")
@click.option("--graph", "graph_path", required=True)
@click.option("--mode", type=click.Choice(["first", "canonical", "all"]), default="first")
@_budget_options
@click.option("--out", default=None)
def search_cmd(graph_path, mode, node_budget, timeout, out):
    """Search for a super edge-magic labeling."""
    g = _load_graph(graph_path)
    return _report(search_mod.find_sem(g, mode, ResourceBudget(node_budget, timeout)), out)


@main.command()
@click.option("--graph", "graph_path", required=True)
@click.option("--cross-check/--no-cross-check", default=False,
              help="Re-run unpruned enumeration as a soundness check; order <= "
                   f"{search_mod.CROSS_CHECK_ORDER_BOUND} only, a larger graph exits 3.")
@_budget_options
@click.option("--out", default=None)
def certify(graph_path, cross_check, node_budget, timeout, out):
    """Exhaust the search space; exit 1 reports a non-existence certificate."""
    g = _load_graph(graph_path)
    budget = ResourceBudget(node_budget, timeout)
    return _report(search_mod.certify_not_sem(g, budget, cross_check=cross_check), out)


@main.command()
@click.option("--graph", "host_path", required=True, help="Host digraph (or graph to orient).")
@click.option("--family-dir", default=None, help="Directory with family.json and member files.")
@click.option("--snk", default=None, help="N,K — enumerate the family instead of loading one.")
@click.option("--assignment", "assignment_path", default=None,
              help="File of 'a b member_index' lines; default assigns every arc --member.")
@click.option("--member", type=int, default=None,
              help="Member index of every arc, 0 if not given; not with --assignment.")
@click.option("--host-labeling", "host_labeling_path", default=None)
@click.option("--emit", "emit_what", type=click.Choice(["digraph", "labeling"]), default="digraph")
@click.option("--out", default=None)
def product(host_path, family_dir, snk, assignment_path, member, host_labeling_path,
            emit_what, out):
    """Build the arc-selected product of a host digraph with a labeled family."""
    # every option misuse is refused before any file is read
    if (family_dir is None) == (snk is None):
        raise click.UsageError("give exactly one of --family-dir or --snk")
    if assignment_path is not None and member is not None:
        raise click.UsageError("give --member or --assignment, not both")
    if emit_what == "digraph" and host_labeling_path is not None:
        raise click.UsageError("--host-labeling needs --emit labeling")
    if emit_what == "labeling" and host_labeling_path is None:
        raise click.UsageError("--emit labeling needs --host-labeling")
    if snk is not None:
        try:
            n, k = (int(x) for x in snk.split(","))
        except ValueError:
            raise click.UsageError(f"--snk must be two integers N,K, got {snk!r}")
    host = _load_digraph(host_path)
    if family_dir is not None:
        try:
            family = load_family(family_dir)
        except (ValueError, OSError) as exc:
            raise click.UsageError(f"cannot load family {Path(family_dir) / 'family.json'}: {exc}")
    else:
        family = search_mod.enumerate_snk(n, k)
        if not family.members:
            raise click.UsageError(
                f"--snk {n},{k}: no digraph on [1,{n}] has arc sums {k}..{k + n - 1}"
            )
    if assignment_path is not None:
        assignment = _read(assignment_path, "bad assignment file", parse_assignment)
    else:
        member = member or 0
        if not 0 <= member < len(family.members):
            raise click.UsageError(
                f"--member {member} is outside the family, which has {len(family.members)} members"
            )
        assignment = constant_assignment(host, member)
    if emit_what == "digraph":
        _emit(format_digraph(otimes_h(host, assignment, family)), out)
        return
    lifted = canonical_product_labeling(
        host, _load_labeling(host_labeling_path), family, assignment
    )
    _emit(json.dumps(certificate_json(lifted)) + "\n", out)


@main.command()
@click.option("--order", "order_", type=int, required=True)
@_budget_options
@click.option("--out", default=None)
def census(order_, node_budget, timeout, out):
    """Catalog equal order/size graphs up to isomorphism with their SEM status."""
    entries = census_equal_order_size(order_, ResourceBudget(node_budget, timeout))
    lines = [
        json.dumps({"p": g.order, "edges": [list(e) for e in g.sorted_edges], "sem": sem})
        for g, sem in entries
    ]
    _emit("\n".join(lines) + "\n", out)


@main.command("complement")
@click.option("--graph", "graph_path", required=True)
@click.option("--labeling", "labeling_path", required=True)
@click.option("--out", default=None)
def complement_cmd(graph_path, labeling_path, out):
    """Emit the complementary labeling x -> p+1-f(x), re-verified on the graph."""
    return _labeling_report(_load_graph(graph_path), complement(_load_labeling(labeling_path)), out)


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
    mat = adjacency_matrix(d, relabel)
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
        return 0 if prof.compliant else EXIT_NEGATIVE
    _emit("\n".join(mat.row_strings()) + "\n", out)


@main.command()
@click.option("--params", default="", help="s=..,n=.. for the even copy count and leaves.")
@_budget_options
@click.option("--out", default=None)
def explore(params, node_budget, timeout, out):
    """Search an even number of loop-star copies and report the outcome as data."""
    values = _params_dict(params)
    if "s" not in values or "n" not in values:
        raise click.UsageError("explore needs --params s=..,n=..")
    if set(values) != {"s", "n"}:
        extra = ", ".join(sorted(set(values) - {"s", "n"}))
        raise click.UsageError(f"explore takes only s and n, not {extra}")
    budget = ResourceBudget(node_budget, timeout)
    return _report(search_mod.explore_even_copies(values["s"], values["n"], budget), out)


if __name__ == "__main__":  # pragma: no cover
    main()
