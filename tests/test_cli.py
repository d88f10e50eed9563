import gc
import json
import math
import sys
import tempfile
import weakref
from pathlib import Path
from types import SimpleNamespace

import click
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from semforge import families, graphs
from semforge.cli import _Command, export_dot, main
from semforge.families import (
    build_two_lk11_lk1n,
    cycle_graph,
    loop_graph,
    odd_cycle_labeling,
    star_with_loop,
)
from semforge.graphs import (
    Graph,
    _checked,
    _vertex_pairs,
    disjoint_union,
    format_digraph,
    format_graph,
    indegree_one_orientation,
    parse_digraph,
    parse_graph,
    underlying,
)
from semforge.labelings import identity_labeling, is_sem, labeling_json
from semforge.product import (
    LabeledFamily,
    canonical_product_labeling,
    constant_assignment,
    load_family,
    otimes_h,
    save_family,
)
from semforge.search import CROSS_CHECK_ORDER_BOUND, enumerate_snk


@pytest.fixture
def runner():
    return CliRunner()


# Directories for the load_family fuzz: family.json is arbitrary text or JSON,
# often shaped like a family, and m0..m2.txt hold valid or broken members.
_MEMBER_TEXTS = [format_digraph(m) for m in enumerate_snk(2, 2)] + [
    "1 1 d\n1 1\n",
    "2 1 d\n1 x\n",
    "",
]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats(allow_nan=False)
    | st.text(alphabet="ab.0 ", max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["n", "k", "members", "x"]), inner, max_size=3),
    max_leaves=6,
)
# m0.txt also exists next to the family directory and in its subdirectory sub/,
# so a name that leaves the directory or enters sub/ would find a member.
_NAMES = st.sampled_from([
    "m0.txt", "m1.txt", "m2.txt", "absent.txt", "", "..", ".", "../m0.txt",
    "sub/m0.txt", "./m0.txt", "sub/../m0.txt",
])
_FAMILY_JSON = st.one_of(
    st.fixed_dictionaries({
        "n": st.just(2) | st.just(True) | _JSON,
        "k": st.just(2) | st.just(3) | _JSON,
        "members": st.lists(_NAMES, max_size=3) | _JSON,
    }).map(json.dumps),
    _JSON.map(json.dumps),
    st.text(alphabet='{}[]":,1n ', max_size=12),
)


def count_calls(monkeypatch, fn) -> list:
    """Record the arguments of every call of ``fn`` made through a semforge module."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "semforge" or name.startswith("semforge.")):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture
def two_stars_file(tmp_path):
    g = disjoint_union([star_with_loop(1), star_with_loop(1)])
    path = tmp_path / "twostar_1_1.txt"
    path.write_text(format_graph(g))
    return path


class TestExportDot:
    def test_labeled_loop(self):
        out = export_dot(loop_graph(), identity_labeling(1))
        assert '"1";' in out
        assert '"1" -- "1";' in out

    def test_fig_instance(self):
        cert = build_two_lk11_lk1n(1)
        out = export_dot(cert.graph, cert.labeling)
        for name in range(1, 7):
            assert f'"{name}";' in out
        edge_lines = [line.strip().rstrip(";") for line in out.splitlines() if "--" in line]
        assert len(edge_lines) == 6
        self_edges = [line for line in edge_lines
                      if line.split(" -- ")[0] == line.split(" -- ")[1]]
        assert len(self_edges) == 3

    def test_unlabeled_names(self):
        out = export_dot(cycle_graph(3))
        assert '"v1" -- "v2";' in out


class TestConstruct:
    def test_json_golden(self, runner):
        result = runner.invoke(
            main, ["construct", "--family", "2lk11-lk1n", "--params", "n=1", "--format", "json"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output) == {
            "p": 6,
            "labels": [3, 6, 5, 2, 4, 1],
            "sem": True,
            "window": [5, 10],
            "magic_sum": 17,
        }

    def test_edgelist_parses_back(self, runner):
        result = runner.invoke(
            main, ["construct", "--family", "odd-lk1n", "--params", "s=1,n=2", "--format", "edgelist"]
        )
        assert result.exit_code == 0
        g = parse_graph(result.output)
        assert (g.order, g.size) == (9, 9)

    def test_deer_spec(self, runner):
        result = runner.invoke(
            main, ["construct", "--family", "deer", "--spec", "1,0,1", "--format", "json"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["sem"] is True

    def test_dot_output(self, runner):
        result = runner.invoke(
            main, ["construct", "--family", "l", "--format", "dot"]
        )
        assert result.exit_code == 0
        assert '"v1" -- "v1";' in result.output

    def test_json_verifies_once(self, runner, monkeypatch):
        verified = count_calls(monkeypatch, is_sem)
        result = runner.invoke(
            main, ["construct", "--family", "2lk1m-lk1n", "--params", "m=2,n=3", "--format", "json"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["sem"] is True
        assert len(verified) == 1

    def test_primitive_json_is_usage_error(self, runner):
        result = runner.invoke(main, ["construct", "--family", "cycle", "--params", "k=3"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("name, params", [
        ("l", ""), ("lk1n", "n=999999"), ("cycle", "k=3"), ("caterpillar", ""),
    ])
    def test_primitive_json_refused_before_building(self, runner, monkeypatch, name, params):
        arg_names, _, primitive = families.FAMILIES[name]

        def build(*args):
            raise AssertionError(f"{name} was built")

        monkeypatch.setitem(families.FAMILIES, name, (arg_names, build, primitive))
        result = runner.invoke(main, ["construct", "--family", name, "--params", params])
        assert result.exit_code == 2
        assert f"{name} is a primitive with no labeling" in result.output

    def test_unknown_family(self, runner):
        result = runner.invoke(main, ["construct", "--family", "nope"])
        assert result.exit_code == 2

    def test_bad_params_format(self, runner):
        result = runner.invoke(main, ["construct", "--family", "2lk11-lk1n", "--params", "n"])
        assert result.exit_code == 2

    def test_out_file(self, runner, tmp_path):
        out = tmp_path / "fig1.json"
        result = runner.invoke(
            main, ["construct", "--family", "2lk11-lk1n", "--params", "n=1", "--out", str(out)]
        )
        assert result.exit_code == 0
        assert json.loads(out.read_text())["magic_sum"] == 17


class TestVerify:
    def test_sem_labeling_exits_zero(self, runner, tmp_path):
        cert = build_two_lk11_lk1n(1)
        gpath = tmp_path / "g.txt"
        lpath = tmp_path / "l.json"
        gpath.write_text(format_graph(cert.graph))
        lpath.write_text(json.dumps(labeling_json(cert.graph, cert.labeling)))
        result = runner.invoke(main, ["verify", "--graph", str(gpath), "--labeling", str(lpath)])
        assert result.exit_code == 0
        assert json.loads(result.output)["sem"] is True

    def test_non_sem_exits_one(self, runner, tmp_path):
        g = disjoint_union([loop_graph(), loop_graph()])
        gpath = tmp_path / "g.txt"
        lpath = tmp_path / "l.json"
        gpath.write_text(format_graph(g))
        lpath.write_text(json.dumps({"p": 2, "labels": [1, 2]}))
        result = runner.invoke(main, ["verify", "--graph", str(gpath), "--labeling", str(lpath)])
        assert result.exit_code == 1
        assert json.loads(result.output)["sem"] is False

    def test_repeated_labels_exit_two_with_diagnostic(self, runner, tmp_path):
        g = disjoint_union([loop_graph(), loop_graph()])
        gpath = tmp_path / "g.txt"
        lpath = tmp_path / "bad.json"
        gpath.write_text(format_graph(g))
        lpath.write_text(json.dumps({"p": 2, "labels": [1, 1]}))
        result = runner.invoke(main, ["verify", "--graph", str(gpath), "--labeling", str(lpath)])
        assert result.exit_code == 2
        assert "bijection" in result.output

    @pytest.mark.parametrize(
        "payload", [{"labels": [1.9, 2, 3]}, {"labels": "123"}, [1, 2, 3]]
    )
    def test_malformed_labeling_exits_two(self, runner, tmp_path, payload):
        gpath = tmp_path / "c3.txt"
        lpath = tmp_path / "bad.json"
        gpath.write_text(format_graph(cycle_graph(3)))
        lpath.write_text(json.dumps(payload))
        result = runner.invoke(main, ["verify", "--graph", str(gpath), "--labeling", str(lpath)])
        assert result.exit_code == 2


class TestDigraphFileAsGraph:
    """``verify`` and ``complement`` read a digraph file as its underlying graph."""

    @pytest.mark.parametrize("command", ["verify", "complement"])
    @pytest.mark.parametrize("text, message", [
        ("2 2 d\n1 2\n1 2\n", "duplicate arc in digraph file"),
        # beside an antiparallel pair, a repeated arc is still a duplicate
        ("2 3 d\n1 2\n2 1\n1 2\n", "duplicate arc in digraph file"),
        ("2 3 d\n2 1\n1 2\n3 1\n", "arc (3,1) has an endpoint outside [1,2]"),
        # the smallest arc as written is named, not the smallest edge
        ("2 3 d\n1 2\n3 1\n2 5\n", "arc (2,5) has an endpoint outside [1,2]"),
        ("2 2 d\n1 2\n0 1\n", "arc (0,1) has an endpoint outside [1,2]"),
        ("2 2 d\n1 2\n1 2 3\n", "malformed arc line: '1 2 3'"),
        ("2 2 d\n1 2\n", "expected 2 arc lines, found 1"),
        ("2 1 d\n1 x\n", "malformed arc line: '1 x'"),
        ("0 0 d\n", "digraph order must be positive, got 0"),
        ("2 1 e\n1 2\n", "digraph header must be 'p q d', got '2 1 e'"),
    ])
    def test_usage_errors(self, runner, tmp_path, command, text, message):
        gpath = tmp_path / "d.txt"
        lpath = tmp_path / "l.json"
        gpath.write_text(text)
        lpath.write_text(json.dumps({"labels": [1, 2]}))
        result = runner.invoke(main, [command, "--graph", str(gpath), "--labeling", str(lpath)])
        assert result.exit_code == 2
        assert f"Error: cannot read graph file {gpath}: {message}\n" in result.output

    def test_verify_builds_one_graph(self, runner, tmp_path, monkeypatch):
        host = indegree_one_orientation(cycle_graph(3))
        family = LabeledFamily(2, 2, tuple(enumerate_snk(2, 2)))
        lifted = canonical_product_labeling(host, odd_cycle_labeling(3), family).labeling
        gpath = tmp_path / "prod.txt"
        lpath = tmp_path / "l.json"
        gpath.write_text(format_digraph(otimes_h(host, constant_assignment(host), family)))
        lpath.write_text(json.dumps({"labels": list(lifted.labels)}))
        # the reader checks the file's pairs once: one Graph is built from
        # them, with no Digraph and no underlying call in between, the
        # constructors' check never runs, and is_sem runs once
        built = count_calls(monkeypatch, _checked)
        rechecked = count_calls(monkeypatch, _vertex_pairs)
        normalised = count_calls(monkeypatch, underlying)
        verified = count_calls(monkeypatch, is_sem)
        result = runner.invoke(main, ["verify", "--graph", str(gpath), "--labeling", str(lpath)])
        assert result.exit_code == 0
        assert json.loads(result.output)["sem"] is True
        assert [args[0] for args in built] == [Graph]
        assert (len(rechecked), len(normalised), len(verified)) == (0, 0, 1)

    def test_antiparallel_arcs_are_one_edge(self, runner, tmp_path):
        gpath = tmp_path / "d.txt"
        lpath = tmp_path / "l.json"
        gpath.write_text("2 3 d\n2 1\n1 2\n2 2\n")
        lpath.write_text(json.dumps({"labels": [1, 2]}))
        result = runner.invoke(main, ["verify", "--graph", str(gpath), "--labeling", str(lpath)])
        assert result.exit_code == 0
        assert json.loads(result.output)["window"] == [3, 4]


class TestSearchCommand:
    def test_witness_exit_zero(self, runner, tmp_path):
        gpath = tmp_path / "star.txt"
        gpath.write_text(format_graph(star_with_loop(3)))
        result = runner.invoke(main, ["search", "--graph", str(gpath), "--mode", "canonical"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["outcome"] == "witness" and data["labels"] == [1, 2, 3, 4]

    def test_exhausted_exit_one(self, runner, two_stars_file):
        result = runner.invoke(main, ["search", "--graph", str(two_stars_file)])
        assert result.exit_code == 1
        assert json.loads(result.output)["outcome"] == "exhausted"

    def test_aborted_exit_three(self, runner, two_stars_file):
        result = runner.invoke(
            main, ["search", "--graph", str(two_stars_file), "--node-budget", "2"]
        )
        assert result.exit_code == 3

    def test_all_mode_prints_every_witness(self, runner, tmp_path):
        gpath = tmp_path / "lk12.txt"
        gpath.write_text(_STAR)
        result = runner.invoke(main, ["search", "--graph", str(gpath), "--mode", "all"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert (data["outcome"], data["labels"], data["nodes"]) == ("witness", [1, 2, 3], 15)
        assert data["witnesses"] == [
            [1, 2, 3], [1, 3, 2], [2, 1, 3], [2, 3, 1], [3, 1, 2], [3, 2, 1],
        ]

    def test_order_bound_exit_three(self, runner, tmp_path):
        gpath = tmp_path / "big.txt"
        gpath.write_text(format_graph(star_with_loop(29)))
        result = runner.invoke(main, ["search", "--graph", str(gpath)])
        assert result.exit_code == 3
        assert "exceeds" in result.output

    def test_internal_error_exits_two(self, runner, two_stars_file, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("searcher produced a witness rejected by is_sem")

        monkeypatch.setattr("semforge.search.find_sem", broken)
        result = runner.invoke(main, ["search", "--graph", str(two_stars_file)])
        assert result.exit_code == 2
        assert "RuntimeError" in result.output


class TestCertifyCommand:
    def test_two_stars_certificate(self, runner, two_stars_file):
        result = runner.invoke(
            main, ["certify", "--graph", str(two_stars_file), "--cross-check"]
        )
        assert result.exit_code == 1
        assert json.loads(result.output)["outcome"] == "exhausted"

    def test_help_states_the_cross_check_bound(self, runner):
        result = runner.invoke(main, ["certify", "--help"])
        assert f"order <= {CROSS_CHECK_ORDER_BOUND} only" in " ".join(result.output.split())


class TestProductCommand:
    def test_digraph_output(self, runner, tmp_path):
        host = indegree_one_orientation(cycle_graph(3))
        hpath = tmp_path / "host.txt"
        hpath.write_text(format_digraph(host))
        save_family(enumerate_snk(2, 2), tmp_path / "fam")
        result = runner.invoke(
            main,
            ["product", "--graph", str(hpath), "--family-dir", str(tmp_path / "fam")],
        )
        assert result.exit_code == 0
        prod = parse_digraph(result.output)
        assert (prod.order, prod.size) == (6, 6)

    def test_labeling_output_with_snk(self, runner, tmp_path):
        gpath = tmp_path / "c3.txt"
        gpath.write_text(format_graph(cycle_graph(3)))  # graph file: auto-oriented
        lpath = tmp_path / "c3lab.json"
        lpath.write_text(json.dumps({"p": 3, "labels": [1, 2, 3]}))
        result = runner.invoke(
            main,
            [
                "product", "--graph", str(gpath), "--snk", "2,2",
                "--host-labeling", str(lpath), "--emit", "labeling",
            ],
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["sem"] is True and data["p"] == 6

    def test_labeling_builds_and_verifies_the_product_once(self, runner, tmp_path, monkeypatch):
        host = indegree_one_orientation(cycle_graph(5))
        fam = enumerate_snk(3, 3)
        host_lab = odd_cycle_labeling(5)
        prod = underlying(otimes_h(host, constant_assignment(host, 1), fam))
        expected = labeling_json(prod, canonical_product_labeling(host, host_lab, fam).labeling)
        gpath = tmp_path / "c5.txt"
        gpath.write_text(format_graph(cycle_graph(5)))
        lpath = tmp_path / "c5lab.json"
        lpath.write_text(json.dumps({"p": 5, "labels": list(host_lab.labels)}))
        # the product's pairs are frozen once, into its graph: no product
        # Digraph is built, and is_sem runs once on the product
        built = count_calls(monkeypatch, _checked)
        verified = count_calls(monkeypatch, is_sem)
        result = runner.invoke(main, [
            "product", "--graph", str(gpath), "--snk", "3,3", "--member", "1",
            "--host-labeling", str(lpath), "--emit", "labeling",
        ])
        assert result.exit_code == 0
        assert json.loads(result.output) == expected
        assert [args[0] for args in built if args[1] == 15] == [Graph]
        assert len([args for args in verified if args[0].order == 15]) == 1

    def test_labeling_is_one_lift(self, runner, tmp_path, monkeypatch):
        gpath = tmp_path / "c5.txt"
        gpath.write_text(format_graph(cycle_graph(5)))
        lpath = tmp_path / "c5lab.json"
        lpath.write_text(json.dumps({"p": 5, "labels": list(odd_cycle_labeling(5).labels)}))
        lifts = count_calls(monkeypatch, canonical_product_labeling)
        result = runner.invoke(main, [
            "product", "--graph", str(gpath), "--snk", "3,3", "--member", "1",
            "--host-labeling", str(lpath), "--emit", "labeling",
        ])
        assert (result.exit_code, len(lifts)) == (0, 1)
        assert result.output == (
            '{"p": 15, "labels": [1, 2, 3, 10, 11, 12, 4, 5, 6, 13, 14, 15, 7, 8, 9], '
            '"sem": true, "window": [9, 23], "magic_sum": 39}\n'
        )

    def test_assignment_file(self, runner, tmp_path):
        host = indegree_one_orientation(cycle_graph(3))
        hpath = tmp_path / "host.txt"
        hpath.write_text(format_digraph(host))
        apath = tmp_path / "assign.txt"
        apath.write_text("1 2 0\n2 3 1\n3 1 0\n")
        result = runner.invoke(
            main,
            ["product", "--graph", str(hpath), "--snk", "2,2",
             "--assignment", str(apath)],
        )
        assert result.exit_code == 0

    def test_incomplete_assignment_usage_error(self, runner, tmp_path):
        host = indegree_one_orientation(cycle_graph(3))
        hpath = tmp_path / "host.txt"
        hpath.write_text(format_digraph(host))
        apath = tmp_path / "assign.txt"
        apath.write_text("1 2 0\n")
        result = runner.invoke(
            main,
            ["product", "--graph", str(hpath), "--snk", "2,2",
             "--assignment", str(apath)],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "lines", ["1 2 0\n1 2 0\n2 3 0\n3 1 0\n", "1 2 0\n2 3 0\n3 1 0\n2 1 0\n"]
    )
    def test_duplicate_or_stray_assignment_usage_error(self, runner, tmp_path, lines):
        host = indegree_one_orientation(cycle_graph(3))
        hpath = tmp_path / "host.txt"
        hpath.write_text(format_digraph(host))
        apath = tmp_path / "assign.txt"
        apath.write_text(lines)
        result = runner.invoke(
            main,
            ["product", "--graph", str(hpath), "--snk", "2,2",
             "--assignment", str(apath)],
        )
        assert result.exit_code == 2

    def test_family_json_without_n_usage_error(self, runner, tmp_path):
        hpath = tmp_path / "host.txt"
        hpath.write_text(format_digraph(indegree_one_orientation(cycle_graph(3))))
        fam = save_family(enumerate_snk(2, 2), tmp_path / "fam")
        meta = json.loads((fam / "family.json").read_text())
        del meta["n"]
        (fam / "family.json").write_text(json.dumps(meta))
        result = runner.invoke(main, ["product", "--graph", str(hpath), "--family-dir", str(fam)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("meta", [
        # True == 1 and the one-loop member fits n = 1, k = 2, but a bool is no order
        '{"n": true, "k": 2, "members": ["m.txt"]}',
        '{"n": 1, "k": 2.0, "members": ["m.txt"]}',
        '{"n": 1, "k": 2, "members": ""}',
        '{"n": 1, "k": 2, "members": [1]}',
    ])
    def test_family_json_types_usage_error(self, runner, tmp_path, meta):
        hpath = tmp_path / "host.txt"
        hpath.write_text(format_digraph(indegree_one_orientation(cycle_graph(3))))
        fam = tmp_path / "fam"
        fam.mkdir()
        (fam / "m.txt").write_text("1 1 d\n1 1\n")
        (fam / "family.json").write_text(meta)
        with pytest.raises(ValueError):
            load_family(fam)
        result = runner.invoke(main, ["product", "--graph", str(hpath), "--family-dir", str(fam)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("name", ["../outside.txt", "OUTSIDE", "sub/m.txt", "./m.txt"])
    def test_family_member_outside_directory_usage_error(self, runner, tmp_path, name):
        hpath = tmp_path / "host.txt"
        hpath.write_text(format_digraph(indegree_one_orientation(cycle_graph(3))))
        member = "1 1 d\n1 1\n"
        (tmp_path / "outside.txt").write_text(member)
        fam = tmp_path / "fam"
        (fam / "sub").mkdir(parents=True)
        (fam / "m.txt").write_text(member)
        (fam / "sub" / "m.txt").write_text(member)
        if name == "OUTSIDE":
            name = str(tmp_path / "outside.txt")
        (fam / "family.json").write_text(json.dumps({"n": 1, "k": 2, "members": [name]}))
        with pytest.raises(ValueError, match="not a file name"):
            load_family(fam)
        result = runner.invoke(main, ["product", "--graph", str(hpath), "--family-dir", str(fam)])
        assert result.exit_code == 2

    @settings(max_examples=60, deadline=None)
    @given(_FAMILY_JSON, st.lists(st.sampled_from(_MEMBER_TEXTS), min_size=3, max_size=3))
    def test_family_dir_loads_or_exits_two(self, meta, bodies):
        with tempfile.TemporaryDirectory() as tmp:
            hpath = Path(tmp) / "host.txt"
            hpath.write_text(format_digraph(indegree_one_orientation(cycle_graph(3))))
            fam = Path(tmp) / "fam"
            (fam / "sub").mkdir(parents=True)
            (fam / "family.json").write_text(meta)
            for i, body in enumerate(bodies):
                (fam / f"m{i}.txt").write_text(body)
            for elsewhere in (Path(tmp), fam / "sub"):
                (elsewhere / "m0.txt").write_text(bodies[0])
            try:
                family = load_family(fam)
            except (ValueError, KeyError, TypeError, OSError):
                args = ["product", "--graph", str(hpath), "--family-dir", str(fam)]
                assert CliRunner().invoke(main, args).exit_code == 2
                return
            data = json.loads(meta)
            assert isinstance(family, LabeledFamily) and isinstance(data["members"], list)
            assert all(Path(name).name == name != ".." for name in data["members"])
            assert type(family.n) is int and type(family.k) is int
            assert (family.n, family.k) == (data["n"], data["k"])

    @pytest.mark.parametrize("emit", [[], ["--emit", "labeling", "--host-labeling", "l.json"]],
                             ids=["digraph", "labeling"])
    def test_infeasible_snk_usage_error(self, runner, tmp_path, monkeypatch, emit):
        # S_2^100 is empty: enumerate_snk returns no members, and the run
        # names --snk instead of blaming the assignment
        monkeypatch.chdir(tmp_path)
        Path("c3.txt").write_text(format_graph(cycle_graph(3)))
        Path("l.json").write_text(json.dumps({"p": 3, "labels": [1, 2, 3]}))
        result = runner.invoke(main, ["product", "--graph", "c3.txt", "--snk", "2,100", *emit])
        assert result.exit_code == 2
        assert result.output.splitlines()[-1] == (
            "Error: --snk 2,100: no digraph on [1,2] has arc sums 100..101"
        )

    @pytest.mark.parametrize("meta, message", [
        ('{"n": 2, "k": 2}', "missing key 'members'"),
        ('{"n": 2, "k": 2, "members": [', "Expecting value: line 1 column 30 (char 29)"),
        ('{"n": 2, "k": 2, "members": ["member000.txt", "gone.txt"]}',
         f"[Errno 2] No such file or directory: {str(Path('fam/gone.txt'))!r}"),
        ('{"n": 2, "k": 2, "members": ["member000.txt", "bad.txt"]}',
         "member file bad.txt: expected 2 arc lines, found 1"),
    ], ids=["missing-key", "invalid-json", "missing-member", "bad-member"])
    def test_family_load_error_names_the_file(self, runner, tmp_path, monkeypatch,
                                              meta, message):
        monkeypatch.chdir(tmp_path)
        Path("host.txt").write_text(format_digraph(indegree_one_orientation(cycle_graph(3))))
        save_family(enumerate_snk(2, 2), "fam")
        Path("fam/bad.txt").write_text("2 2 d\n1 2\n")
        Path("fam/family.json").write_text(meta)
        result = runner.invoke(main, ["product", "--graph", "host.txt", "--family-dir", "fam"])
        assert result.exit_code == 2
        assert result.output.splitlines()[-1] == (
            f"Error: cannot load family {Path('fam/family.json')}: {message}"
        )

    def test_family_source_required(self, runner, tmp_path):
        hpath = tmp_path / "host.txt"
        hpath.write_text(format_digraph(indegree_one_orientation(cycle_graph(3))))
        result = runner.invoke(main, ["product", "--graph", str(hpath)])
        assert result.exit_code == 2

    def test_family_member_symlink_outside_directory(self, runner, tmp_path):
        hpath = tmp_path / "host.txt"
        hpath.write_text(format_digraph(indegree_one_orientation(cycle_graph(3))))
        (tmp_path / "outside.txt").write_text("1 1 d\n1 1\n")
        fam = tmp_path / "fam"
        fam.mkdir()
        (fam / "m.txt").symlink_to(Path("..") / "outside.txt")
        (fam / "family.json").write_text(json.dumps({"n": 1, "k": 2, "members": ["m.txt"]}))
        with pytest.raises(ValueError, match=r"^family member 'm.txt' resolves outside "):
            load_family(fam)
        result = runner.invoke(main, ["product", "--graph", str(hpath), "--family-dir", str(fam)])
        assert result.exit_code == 2
        assert result.output.splitlines()[-1] == (
            f"Error: cannot load family {fam / 'family.json'}: "
            f"family member 'm.txt' resolves outside {fam}"
        )


    @pytest.mark.parametrize("snk", ["2,2,2", "a,b", ""])
    def test_snk_needs_two_integers(self, runner, tmp_path, snk):
        gpath = tmp_path / "c3.txt"
        gpath.write_text(format_graph(cycle_graph(3)))
        result = runner.invoke(main, ["product", "--graph", str(gpath), "--snk", snk])
        assert result.exit_code == 2
        assert result.output.endswith(f"Error: --snk must be two integers N,K, got {snk!r}\n")


class TestBuildBound:
    """``construct`` and ``product`` exit 3 above ``BUILD_ORDER_BOUND``, here
    monkeypatched to 6, so a regression allocates nothing large."""

    @pytest.fixture(autouse=True)
    def small_bound(self, monkeypatch, tmp_path):
        monkeypatch.setattr(graphs, "BUILD_ORDER_BOUND", 6)
        monkeypatch.chdir(tmp_path)
        for k in (3, 5):
            Path(f"c{k}.txt").write_text(format_graph(cycle_graph(k)))
            Path(f"c{k}lab.json").write_text(json.dumps(labeling_json(
                cycle_graph(k), odd_cycle_labeling(k))))
        save_family(enumerate_snk(2, 2), "fam")

    @pytest.mark.parametrize("args, within", [
        (["--family", "lk1n", "--params", "n={}", "--format", "edgelist"], 5),
        (["--family", "odd-lk1n", "--params", "s=0,n={}"], 5),
    ], ids=["lk1n", "odd-lk1n"])
    def test_construct(self, runner, args, within):
        result = runner.invoke(main, ["construct", *(a.format(within) for a in args)])
        assert result.exit_code == 0
        result = runner.invoke(main, ["construct", *(a.format(within + 1) for a in args)])
        assert result.exit_code == 3
        assert result.output == "construction bound is order <= 6, got 7\n"

    @pytest.mark.parametrize("source", [["--snk", "2,2"], ["--family-dir", "fam"]],
                             ids=["snk", "family-dir"])
    @pytest.mark.parametrize("emit", [[], ["--emit", "labeling", "--host-labeling", "c{}lab.json"]],
                             ids=["digraph", "labeling"])
    def test_product(self, runner, source, emit):
        for k, code in ((3, 0), (5, 3)):
            args = ["product", "--graph", f"c{k}.txt", *source, *(a.format(k) for a in emit)]
            result = runner.invoke(main, args)
            assert result.exit_code == code
        assert result.output == "construction bound is order <= 6, got 10\n"


class TestCensusCommand:
    def test_order_two(self, runner):
        result = runner.invoke(main, ["census", "--order", "2"])
        assert result.exit_code == 0
        lines = [json.loads(line) for line in result.output.splitlines()]
        assert len(lines) == 2
        assert {line["sem"] for line in lines} == {True, False}

    def test_deadline_passed_before_the_pass_exits_three(self, runner, monkeypatch):
        # the first clock read sets the deadline; the next lies past it
        reads = []

        def monotonic():
            reads.append(None)
            return 0.0 if len(reads) == 1 else math.inf

        monkeypatch.setattr("semforge.search.time", SimpleNamespace(monotonic=monotonic))
        result = runner.invoke(main, ["census", "--order", "2"])
        assert result.exit_code == 3
        assert '"sem"' not in result.output


class TestComplementCommand:
    def test_round_trip(self, runner, tmp_path):
        cert = build_two_lk11_lk1n(1)
        gpath = tmp_path / "g.txt"
        lpath = tmp_path / "l.json"
        gpath.write_text(format_graph(cert.graph))
        lpath.write_text(json.dumps(labeling_json(cert.graph, cert.labeling)))
        result = runner.invoke(
            main, ["complement", "--graph", str(gpath), "--labeling", str(lpath)]
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["labels"] == [4, 1, 2, 5, 3, 6]
        assert data["sem"] is True


class TestMatrixCommand:
    def test_rows(self, runner, tmp_path):
        dpath = tmp_path / "d.txt"
        dpath.write_text("2 2 d\n1 1\n1 2\n")
        result = runner.invoke(main, ["matrix", "--graph", str(dpath)])
        assert result.exit_code == 0
        assert result.output.splitlines() == ["11", "00"]

    def test_rotate(self, runner, tmp_path):
        dpath = tmp_path / "d.txt"
        dpath.write_text("2 1 d\n1 1\n")
        result = runner.invoke(main, ["matrix", "--graph", str(dpath), "--rotate"])
        assert result.output.splitlines() == ["00", "01"]

    def test_profile_compliant(self, runner, tmp_path):
        gpath = tmp_path / "g.txt"
        gpath.write_text(format_graph(star_with_loop(2)))  # auto-oriented
        result = runner.invoke(main, ["matrix", "--graph", str(gpath), "--profile"])
        assert result.exit_code == 0
        assert json.loads(result.output)["compliant"] is True

    def test_profile_noncompliant_exit_one(self, runner, tmp_path):
        dpath = tmp_path / "d.txt"
        dpath.write_text("2 2 d\n1 1\n2 2\n")
        result = runner.invoke(main, ["matrix", "--graph", str(dpath), "--profile"])
        assert result.exit_code == 1

    def test_tree_graph_is_usage_error(self, runner, tmp_path):
        gpath = tmp_path / "g.txt"
        gpath.write_text("2 1\n1 2\n")
        result = runner.invoke(main, ["matrix", "--graph", str(gpath)])
        assert result.exit_code == 2


class TestExploreCommand:
    def test_runs(self, runner):
        result = runner.invoke(main, ["explore", "--params", "s=1,n=1"])
        assert result.exit_code in (0, 1)
        assert json.loads(result.output)["outcome"] in ("witness", "exhausted")

    def test_needs_params(self, runner):
        result = runner.invoke(main, ["explore"])
        assert result.exit_code == 2


class TestBudgetOptions:
    """A malformed budget is a usage error (exit 2), never a fired limit
    (exit 3) and never silently no limit at all."""

    @pytest.fixture
    def commands(self, two_stars_file):
        graph = ["--graph", str(two_stars_file)]
        return {
            "search": ["search", *graph],
            "certify": ["certify", *graph],
            "census": ["census", "--order", "3"],
            "explore": ["explore", "--params", "s=1,n=1"],
        }

    @pytest.mark.parametrize("command", ["search", "certify", "census", "explore"])
    @pytest.mark.parametrize("option", [
        ["--node-budget", "-1"],
        ["--node-budget", "-5"],
        ["--timeout", "-1"],
        ["--timeout", "nan"],
    ])
    def test_malformed_budget_exits_two(self, runner, commands, command, option):
        result = runner.invoke(main, commands[command] + option)
        assert result.exit_code == 2
        assert "budget" in result.output or "timeout" in result.output

    @pytest.mark.parametrize("command", ["search", "certify", "census", "explore"])
    def test_zero_node_budget_aborts(self, runner, commands, command):
        result = runner.invoke(main, commands[command] + ["--node-budget", "0"])
        assert result.exit_code == 3

    @pytest.mark.parametrize("command", ["search", "certify", "census", "explore"])
    def test_zero_timeout_aborts(self, runner, commands, command):
        result = runner.invoke(main, commands[command] + ["--timeout", "0"])
        assert result.exit_code == 3

    @pytest.mark.parametrize("command", ["search", "certify", "census", "explore"])
    def test_infinite_timeout_runs(self, runner, commands, command):
        result = runner.invoke(main, commands[command] + ["--timeout", "inf"])
        assert result.exit_code in (0, 1)


class TestUsageErrors:
    def test_unknown_flag(self, runner):
        result = runner.invoke(main, ["census", "--order", "2", "--wat"])
        assert result.exit_code == 2

    def test_unknown_command(self, runner):
        result = runner.invoke(main, ["frobnicate"])
        assert result.exit_code == 2

    def test_missing_file(self, runner):
        result = runner.invoke(main, ["search", "--graph", "/nonexistent.txt"])
        assert result.exit_code == 2


_STAR = "3 3\n1 1\n1 2\n1 3\n"  # lk12
_TWO_LOOPS = "2 2\n1 1\n2 2\n"
_TREE = "3 2\n1 2\n2 3\n"
_TWO_LABELS = '{"labels": [1, 2]}'
_STAR_ARGS = ["--graph", "star.txt"]


def _row(name, args, files, code, last):
    return pytest.param(args, files, code, last, id=name)


class TestExitCodeContract:
    """The exit-code contract on failing invocations.  Each row gives the
    arguments, the input files, the exit code and the last line of output."""

    @pytest.mark.parametrize("args, files, code, last", [
        _row("construct-unknown-family", ["construct", "--family", "nope"], {},
             2, "Error: unknown family 'nope'"),
        # a primitive in the default --format json is refused before its
        # parameters are checked, so these two ask for an edge list
        _row("construct-missing-params",
             ["construct", "--family", "lk1n", "--format", "edgelist"], {},
             2, "Error: lk1n needs parameters n"),
        _row("construct-bad-param",
             ["construct", "--family", "lk1n", "--params", "n=-1", "--format", "edgelist"], {},
             2, "Error: star_with_loop needs n >= 0, got -1"),
        _row("construct-primitive-json", ["construct", "--family", "lk1n", "--params", "n=-1"],
             {}, 2, "Error: lk1n is a primitive with no labeling; use --format edgelist or dot"),
        _row("construct-bad-spec", ["construct", "--family", "deer", "--spec", "1,x"], {},
             2, "Error: --spec must be comma-separated integers, got '1,x'"),
        _row("construct-repeated-param",
             ["construct", "--family", "lk1n", "--params", "n=1,n=2", "--format", "edgelist"],
             {}, 2, "Error: --params names 'n' more than once"),
        _row("construct-non-int-param", ["construct", "--family", "lk1n", "--params", "n=x"], {},
             2, "Error: --params value for 'n' must be an integer"),
        _row("construct-param-not-taken",
             ["construct", "--family", "lk1n", "--params", "n=2,m=7", "--spec", "3,4",
              "--format", "edgelist"], {},
             2, "Error: lk1n does not take m, --spec; it takes n"),
        # the spine leaf counts go in --spec, never in --params
        _row("construct-spec-in-params",
             ["construct", "--family", "deer", "--params", "spec=1", "--spec", "1"], {},
             2, "Error: deer does not take spec; it takes --spec"),
        _row("verify-empty-graph", ["verify", "--graph", "g.txt", "--labeling", "l.json"],
             {"g.txt": "", "l.json": _TWO_LABELS},
             2, "Error: cannot read graph file g.txt: empty graph file"),
        _row("verify-non-int-edge", ["verify", "--graph", "g.txt", "--labeling", "l.json"],
             {"g.txt": "2 1\n1 x\n", "l.json": _TWO_LABELS},
             2, "Error: cannot read graph file g.txt: malformed edge line: '1 x'"),
        _row("verify-edge-outside", ["verify", "--graph", "g.txt", "--labeling", "l.json"],
             {"g.txt": "2 1\n1 5\n", "l.json": _TWO_LABELS},
             2, "Error: cannot read graph file g.txt: edge (1,5) has an endpoint outside [1,2]"),
        _row("search-order-0", ["search", "--graph", "g.txt"], {"g.txt": "0 0\n"},
             2, "Error: cannot read graph file g.txt: graph order must be positive, got 0"),
        _row("verify-short-labeling", ["verify", *_STAR_ARGS, "--labeling", "l.json"],
             {"star.txt": _STAR, "l.json": _TWO_LABELS},
             2, "Error: labeling has 2 labels but the graph has order 3"),
        _row("verify-string-p", ["verify", *_STAR_ARGS, "--labeling", "l.json"],
             {"star.txt": _STAR, "l.json": '{"labels": [1, 2, 3], "p": "3"}'},
             2, "Error: bad labeling file l.json: labeling claims p='3' but carries 3 labels"),
        _row("verify-labeling-without-labels", ["verify", *_STAR_ARGS, "--labeling", "l.json"],
             {"star.txt": _STAR, "l.json": '{"p": 3}'},
             2, "Error: bad labeling file l.json: missing key 'labels'"),
        _row("verify-not-sem", ["verify", "--graph", "g.txt", "--labeling", "l.json"],
             {"g.txt": _TWO_LOOPS, "l.json": _TWO_LABELS},
             1, '{"p": 2, "labels": [1, 2], "sem": false, "window": null, "magic_sum": null}'),
        _row("complement-not-sem", ["complement", "--graph", "g.txt", "--labeling", "l.json"],
             {"g.txt": _TWO_LOOPS, "l.json": _TWO_LABELS},
             1, '{"p": 2, "labels": [2, 1], "sem": false, "window": null, "magic_sum": null}'),
        _row("complement-short-labeling", ["complement", *_STAR_ARGS, "--labeling", "l.json"],
             {"star.txt": _STAR, "l.json": _TWO_LABELS},
             2, "Error: labeling has 2 labels but the graph has order 3"),
        _row("matrix-short-labeling", ["matrix", *_STAR_ARGS, "--labeling", "l.json"],
             {"star.txt": _STAR, "l.json": _TWO_LABELS},
             2, "Error: labeling has 2 labels but the digraph has order 3"),
        _row("matrix-no-orientation", ["matrix", "--graph", "tree.txt"], {"tree.txt": _TREE},
             2, "Error: tree.txt holds an undirected graph with no indegree-1 orientation: "
                "component [1, 2, 3] has no cycle (it is a tree)"),
        # vertex 3 lies on no edge; [4, 8] is a tree too, but comes after it
        _row("matrix-vertex-on-no-edge", ["matrix", "--graph", "g.txt"],
             {"g.txt": "9 3\n1 1\n2 2\n4 8\n"},
             2, "Error: g.txt holds an undirected graph with no indegree-1 orientation: "
                "component [3] has no cycle (it is a tree)"),
        # one arc, but the header's order alone would ask for 2001 * 2001 cells
        _row("matrix-order-bound", ["matrix", "--graph", "d.txt", "--profile"],
             {"d.txt": "2001 1 d\n1 1\n"}, 3, "adjacency matrix bound is order <= 2000"),
        _row("search-nan-timeout", ["search", *_STAR_ARGS, "--timeout", "nan"],
             {"star.txt": _STAR}, 2, "Error: timeout must be a number >= 0, got nan"),
        _row("search-negative-budget", ["search", *_STAR_ARGS, "--node-budget", "-1"],
             {"star.txt": _STAR}, 2, "Error: node budget must be an integer >= 0, got -1"),
        _row("search-order-bound", ["search", "--graph", "g.txt"],
             {"g.txt": format_graph(star_with_loop(24))},
             3, "order 25 exceeds the first-mode bound 24"),
        _row("certify-order-bound", ["certify", "--graph", "g.txt"],
             {"g.txt": format_graph(star_with_loop(100))},
             3, "order 101 exceeds the certification bound 100"),
        # star_with_loop(8) is SEM: without the bound it exits 0, unchecked
        _row("certify-cross-check-bound", ["certify", "--graph", "g.txt", "--cross-check"],
             {"g.txt": format_graph(star_with_loop(8))}, 3, "cross-check bound is order <= 8"),
        _row("explore-needs-params", ["explore", "--params", "s=1"], {},
             2, "Error: explore needs --params s=..,n=.."),
        _row("explore-param-not-taken", ["explore", "--params", "s=1,n=1,t=9"], {},
             2, "Error: explore takes only s and n, not t"),
        _row("explore-bad-copies", ["explore", "--params", "s=0,n=1"], {},
             2, "Error: need s, n >= 1, got s=0, n=1"),
        _row("explore-order-bound", ["explore", "--params", "s=400,n=1000"], {},
             3, "order 800800 exceeds the first-mode bound 24"),
        _row("product-no-source", ["product", *_STAR_ARGS], {"star.txt": _STAR},
             2, "Error: give exactly one of --family-dir or --snk"),
        _row("product-no-orientation", ["product", "--graph", "tree.txt", "--snk", "2,2"],
             {"tree.txt": _TREE},
             2, "Error: tree.txt holds an undirected graph with no indegree-1 orientation: "
                "component [1, 2, 3] has no cycle (it is a tree)"),
        _row("product-bad-assignment",
             ["product", *_STAR_ARGS, "--snk", "2,2", "--assignment", "a.txt"],
             {"star.txt": _STAR, "a.txt": "1 2 0\n"},
             2, "Error: assignment misses host arcs [(1, 1), (1, 3)]"),
        _row("product-no-host-labeling",
             ["product", *_STAR_ARGS, "--snk", "2,2", "--emit", "labeling"],
             {"star.txt": _STAR}, 2, "Error: --emit labeling needs --host-labeling"),
        # the digraph never reads the host labeling, so it cannot be given
        _row("product-host-labeling-with-digraph",
             ["product", *_STAR_ARGS, "--snk", "2,2", "--host-labeling", "l.json"],
             {"star.txt": _STAR, "l.json": "not json"},
             2, "Error: --host-labeling needs --emit labeling"),
        _row("product-host-labeling-not-sem",
             ["product", "--graph", "g.txt", "--snk", "2,2", "--host-labeling", "l.json",
              "--emit", "labeling"],
             {"g.txt": _TWO_LOOPS, "l.json": _TWO_LABELS},
             2, "Error: host labeling is not super edge-magic"),
        _row("product-short-host-labeling",
             ["product", *_STAR_ARGS, "--snk", "2,2", "--host-labeling", "l.json",
              "--emit", "labeling"],
             {"star.txt": _STAR, "l.json": _TWO_LABELS},
             2, "Error: labeling has 2 labels but the graph has order 3"),
        # (1,2) and (2,1) merge into one edge of the underlying graph: sum 3 twice
        _row("product-antiparallel-host",
             ["product", "--graph", "d.txt", "--snk", "2,3", "--host-labeling", "l.json",
              "--emit", "labeling"],
             {"d.txt": "2 2 d\n1 2\n2 1\n", "l.json": _TWO_LABELS},
             2, "Error: host labeling is not super edge-magic"),
        _row("product-unreadable-assignment",
             ["product", *_STAR_ARGS, "--snk", "2,2", "--assignment", "a.txt"],
             {"star.txt": _STAR, "a.txt": "1 x 0\n"},
             2, "Error: bad assignment file a.txt: malformed assignment line: '1 x 0'"),
        # quoted without its comment, as an edge line is
        _row("product-commented-assignment-line",
             ["product", *_STAR_ARGS, "--snk", "2,2", "--assignment", "a.txt"],
             {"star.txt": _STAR, "a.txt": "# arcs of the star\n\n  1 x 0   # note\n"},
             2, "Error: bad assignment file a.txt: malformed assignment line: '1 x 0'"),
        # with an assignment file, a given --member is refused even in range
        _row("product-member-and-assignment",
             ["product", *_STAR_ARGS, "--snk", "2,2", "--assignment", "a.txt", "--member", "0"],
             {"star.txt": _STAR, "a.txt": "1 1 0\n1 2 0\n1 3 0\n"},
             2, "Error: give --member or --assignment, not both"),
        _row("product-member-past-family-and-assignment",
             ["product", *_STAR_ARGS, "--snk", "2,2", "--assignment", "a.txt", "--member", "5"],
             {"star.txt": _STAR, "a.txt": "1 1 0\n1 2 0\n1 3 0\n"},
             2, "Error: give --member or --assignment, not both"),
        _row("product-snk-bound", ["product", *_STAR_ARGS, "--snk", "6,2"], {"star.txt": _STAR},
             3, "family enumeration bound is n <= 5"),
        _row("product-snk-one-integer", ["product", *_STAR_ARGS, "--snk", "2"],
             {"star.txt": _STAR}, 2, "Error: --snk must be two integers N,K, got '2'"),
        # no assignment file: --member names the member of every arc
        _row("product-member-past-family",
             ["product", *_STAR_ARGS, "--snk", "2,2", "--member", "5"], {"star.txt": _STAR},
             2, "Error: --member 5 is outside the family, which has 2 members"),
        _row("product-member-negative",
             ["product", *_STAR_ARGS, "--snk", "2,2", "--member", "-1"], {"star.txt": _STAR},
             2, "Error: --member -1 is outside the family, which has 2 members"),
        # one arc, but the header's order alone would ask for 2 * 10^9 vertices
        _row("product-order-bound", ["product", "--graph", "d.txt", "--snk", "2,3"],
             {"d.txt": "1000000000 1 d\n1 1\n"},
             3, "construction bound is order <= 1000000, got 2000000000"),
        # every option misuse is refused before any file is read: none of
        # these files exists
        _row("product-misuse-no-source", ["product", "--graph", "missing.txt"], {},
             2, "Error: give exactly one of --family-dir or --snk"),
        _row("product-misuse-two-sources",
             ["product", "--graph", "missing.txt", "--family-dir", "fam", "--snk", "2,2"], {},
             2, "Error: give exactly one of --family-dir or --snk"),
        _row("product-misuse-member-and-assignment",
             ["product", "--graph", "missing.txt", "--snk", "2,2", "--member", "0",
              "--assignment", "a.txt"], {},
             2, "Error: give --member or --assignment, not both"),
        _row("product-misuse-host-labeling-with-digraph",
             ["product", "--graph", "missing.txt", "--snk", "2,2", "--host-labeling", "l.json"],
             {}, 2, "Error: --host-labeling needs --emit labeling"),
        _row("product-misuse-no-host-labeling",
             ["product", "--graph", "missing.txt", "--snk", "2,2", "--emit", "labeling"], {},
             2, "Error: --emit labeling needs --host-labeling"),
        _row("product-misuse-snk-one-integer", ["product", "--graph", "missing.txt", "--snk", "2"],
             {}, 2, "Error: --snk must be two integers N,K, got '2'"),
        _row("census-order-0", ["census", "--order", "0"], {},
             2, "Error: census supports 1 <= p <= 9, got 0"),
        _row("census-order-10", ["census", "--order", "10"], {}, 3, "census bound is order <= 9"),
        _row("census-negative-budget", ["census", "--order", "3", "--node-budget", "-1"], {},
             2, "Error: node budget must be an integer >= 0, got -1"),
        _row("census-zero-budget", ["census", "--order", "3", "--node-budget", "0"], {},
             3, "census node budget exhausted"),
        # --out is user input: a path that cannot be written is a usage error
        _row("census-out-unwritable", ["census", "--order", "2", "--out", "no/dir/x.jsonl"], {},
             2, "Error: cannot write --out file no/dir/x.jsonl: "
                "[Errno 2] No such file or directory: 'no/dir/x.jsonl'"),
    ])
    def test_row(self, runner, tmp_path, monkeypatch, args, files, code, last):
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            Path(name).write_text(text)
        result = runner.invoke(main, args)
        assert (result.exit_code, result.output.splitlines()[-1]) == (code, last)
        if last.startswith("Error: "):
            # a usage error keeps the sub-command's usage lines
            assert f"Try 'main {args[0]} --help' for help." in result.output

    def test_certify_at_the_bound(self, runner, tmp_path):
        # 2l+lk197 has order 100, the certification bound, and is the
        # sweep's slowest union there
        path = tmp_path / "g.txt"
        path.write_text(format_graph(disjoint_union([loop_graph()] * 2 + [star_with_loop(97)])))
        result = runner.invoke(main, ["certify", "--graph", str(path)])
        report = json.loads(result.output)
        assert (result.exit_code, report["outcome"], report["nodes"]) == (1, "exhausted", 162_234)

    @pytest.mark.parametrize("args, files", [
        (["construct", "--family", "2lk11-lk1n", "--params", "n=1"], {}),
        (["product", *_STAR_ARGS, "--snk", "2,2", "--host-labeling", "l.json",
          "--emit", "labeling"], {"star.txt": _STAR, "l.json": '{"labels": [1, 2, 3]}'}),
    ], ids=["construct", "product"])
    def test_failed_self_check_is_an_internal_error(self, runner, tmp_path, monkeypatch,
                                                    args, files):
        # a labeling the code guarantees is rejected: no answer (0 or 1), no usage form
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            Path(name).write_text(text)
        monkeypatch.setattr("semforge.labelings.is_sem", lambda g, labeling: (False, None))
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.output.startswith("error: VerificationFailed: ")
        assert result.output.endswith(" rejected by is_sem\n")
        assert "Usage:" not in result.output

    def test_internal_error_frees_the_command(self, runner, two_stars_file, monkeypatch):
        # the process exits after the handler, so no traceback keeps the
        # failed command's frames, or what they hold, alive while it ends
        class Held:
            pass

        held = []

        def broken(*args, **kwargs):
            data = Held()
            held.append(weakref.ref(data))
            raise RuntimeError("boom")

        monkeypatch.setattr("semforge.search.find_sem", broken)
        result = runner.invoke(main, ["search", "--graph", str(two_stars_file)])
        assert (result.exit_code, result.output) == (2, "error: RuntimeError: boom\n")
        assert result.exc_info[1].__context__ is None
        gc.collect()
        assert held[0]() is None

    @pytest.mark.parametrize("stop", [KeyboardInterrupt, click.Abort])
    def test_interrupt_exits_three(self, runner, two_stars_file, monkeypatch, stop):
        # an interrupted run has no answer: a limit, never a negative result
        def interrupted(*args, **kwargs):
            raise stop

        monkeypatch.setattr("semforge.search.find_sem", interrupted)
        result = runner.invoke(main, ["search", "--graph", str(two_stars_file)])
        assert (result.exit_code, result.stdout, result.stderr) == (3, "", "interrupted\n")

    def test_every_command_keeps_the_contract(self):
        assert main.commands
        assert all(isinstance(cmd, _Command) for cmd in main.commands.values())
