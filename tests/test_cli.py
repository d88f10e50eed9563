import json

import pytest
from click.testing import CliRunner

from semforge.cli import export_dot, main
from semforge.families import build_two_lk11_lk1n, cycle_graph, loop_graph, star_with_loop
from semforge.graphs import (
    disjoint_union,
    format_digraph,
    format_graph,
    indegree_one_orientation,
    parse_digraph,
    parse_graph,
)
from semforge.labelings import identity_labeling, labeling_json
from semforge.product import save_family
from semforge.search import enumerate_snk


@pytest.fixture
def runner():
    return CliRunner()


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

    def test_primitive_json_is_usage_error(self, runner):
        result = runner.invoke(main, ["construct", "--family", "cycle", "--params", "k=3"])
        assert result.exit_code == 2

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

    def test_family_source_required(self, runner, tmp_path):
        hpath = tmp_path / "host.txt"
        hpath.write_text(format_digraph(indegree_one_orientation(cycle_graph(3))))
        result = runner.invoke(main, ["product", "--graph", str(hpath)])
        assert result.exit_code == 2


class TestCensusCommand:
    def test_order_two(self, runner):
        result = runner.invoke(main, ["census", "--order", "2"])
        assert result.exit_code == 0
        lines = [json.loads(line) for line in result.output.splitlines()]
        assert len(lines) == 2
        assert {line["sem"] for line in lines} == {True, False}


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
