import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semforge.errors import BadAssignment, BadParam, NotSem, VerificationFailed
from semforge.families import (
    build_two_lk11_lk1n,
    loop_graph,
    star_with_loop,
)
from semforge.graphs import (
    AdjacencyMatrix,
    Digraph,
    Graph,
    adjacency_matrix,
    disjoint_union,
    indegree_one_orientation,
)
from semforge.labelings import (
    FullLabeling,
    VertexLabeling,
    complement,
    complete_to_edge_magic,
    counterdiagonal_profile,
    identity_labeling,
    is_sem,
    labeling_from_json,
    labeling_json,
    rotate_pi,
    verified_window,
    verify_edge_magic,
)
from semforge.product import canonical_product_labeling
from semforge.search import census_equal_order_size, certify_not_sem, enumerate_snk, find_sem

from conftest import all_possible_edges


@st.composite
def graph_and_labeling(draw, max_order=6):
    """A random loop-allowed graph together with a random bijection."""
    p = draw(st.integers(min_value=1, max_value=max_order))
    pool = all_possible_edges(p)
    edges = draw(st.sets(st.sampled_from(pool), max_size=len(pool)))
    labels = draw(st.permutations(list(range(1, p + 1))))
    return Graph(p, frozenset(edges)), VertexLabeling(tuple(labels))


@st.composite
def digraph_and_labeling(draw, max_order=10):
    p = draw(st.integers(min_value=1, max_value=max_order))
    pool = [(a, b) for a in range(1, p + 1) for b in range(1, p + 1)]
    arcs = draw(st.sets(st.sampled_from(pool), max_size=len(pool)))
    labels = draw(st.permutations(list(range(1, p + 1))))
    return Digraph(p, frozenset(arcs)), VertexLabeling(tuple(labels))


class TestVertexLabeling:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            VertexLabeling((1, 1, 2))
        with pytest.raises(ValueError):
            VertexLabeling((1, 3))

    @pytest.mark.parametrize("labels", [(1.9, 2, 3), (1.0, 2.0), ("1", "2"), (True, 2)])
    def test_rejects_non_integers(self, labels):
        with pytest.raises(ValueError):
            VertexLabeling(labels)

    def test_identity(self):
        assert identity_labeling(3).labels == (1, 2, 3)


class TestIsSem:
    def test_star_with_loop_any_bijection(self):
        import itertools

        g = star_with_loop(2)
        for perm in itertools.permutations((1, 2, 3)):
            ok, window = is_sem(g, VertexLabeling(perm))
            assert ok and window.width == 3

    def test_two_loops_not_consecutive(self):
        g = disjoint_union([loop_graph(), loop_graph()])
        ok, window = is_sem(g, identity_labeling(2))
        assert not ok and window is None

    def test_three_star_instance_window(self):
        cert = build_two_lk11_lk1n(1)
        ok, window = is_sem(cert.graph, cert.labeling)
        assert ok and window.as_pair() == [5, 10]

    def test_repeated_sum_fails(self):
        # 4-cycle under the identity: sums 3, 5, 7, 5 repeat the 5
        g = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        ok, _ = is_sem(g, identity_labeling(4))
        assert not ok


def _reject_every_labeling(monkeypatch):
    monkeypatch.setattr("semforge.labelings.is_sem", lambda g, labeling: (False, None))


def _pruning_disagrees(monkeypatch):
    # the unpruned enumerator claims a witness on a graph the search exhausts
    monkeypatch.setattr("semforge.search.sem_bijections", lambda g: iter([(1, 2)]))


class TestSelfCheck:
    def test_window_of_a_sem_labeling(self):
        cert = build_two_lk11_lk1n(1)
        assert verified_window(cert.graph, cert.labeling, "fig. 1").as_pair() == [5, 10]

    def test_rejected_labeling_raises(self):
        g = disjoint_union([loop_graph(), loop_graph()])
        with pytest.raises(VerificationFailed, match="^two loops rejected by is_sem$"):
            verified_window(g, identity_labeling(2), "two loops")

    @pytest.mark.parametrize("fault, call", [
        (_reject_every_labeling, lambda: build_two_lk11_lk1n(1)),
        (_reject_every_labeling, lambda: canonical_product_labeling(
            indegree_one_orientation(star_with_loop(2)), identity_labeling(3), enumerate_snk(2, 2))),
        (_reject_every_labeling, lambda: find_sem(star_with_loop(2))),
        (_reject_every_labeling, lambda: census_equal_order_size(3)),
        (_pruning_disagrees, lambda: certify_not_sem(
            disjoint_union([loop_graph(), loop_graph()]), cross_check=True)),
    ], ids=["constructor", "product", "search", "census", "cross-check"])
    def test_every_self_check_raises_one_internal_error(self, monkeypatch, fault, call):
        fault(monkeypatch)
        with pytest.raises(VerificationFailed) as info:
            call()
        assert isinstance(info.value, RuntimeError)

    @pytest.mark.parametrize("error", [BadParam, BadAssignment, NotSem])
    def test_malformed_input_errors_are_value_errors(self, error):
        assert issubclass(error, ValueError)


class TestComplement:
    def test_pointwise_formula(self):
        lab = VertexLabeling((3, 6, 5, 2, 4, 1))
        assert complement(lab).of(1) == 4

    def test_fig_instance(self):
        cert = build_two_lk11_lk1n(1)
        comp = complement(cert.labeling)
        assert comp.labels == (4, 1, 2, 5, 3, 6)
        ok, _ = is_sem(cert.graph, comp)
        assert ok

    @given(graph_and_labeling())
    def test_involution(self, gl):
        _, lab = gl
        assert complement(complement(lab)) == lab

    @given(graph_and_labeling())
    @settings(max_examples=200)
    def test_sem_invariant_under_complement(self, gl):
        g, lab = gl
        assert is_sem(g, lab)[0] == is_sem(g, complement(lab))[0]


class TestCompletion:
    def test_star_with_two_leaves(self):
        g = star_with_loop(2)
        full = complete_to_edge_magic(g, identity_labeling(3))
        assert full.magic_sum == 8
        assert dict(full.edge_labels) == {(1, 1): 6, (1, 2): 5, (1, 3): 4}

    def test_single_loop(self):
        full = complete_to_edge_magic(loop_graph(), identity_labeling(1))
        assert full.magic_sum == 4
        assert dict(full.edge_labels) == {(1, 1): 2}

    def test_fig_instance_magic_sum(self):
        cert = build_two_lk11_lk1n(1)
        full = complete_to_edge_magic(cert.graph, cert.labeling)
        assert full.magic_sum == 17

    def test_rejects_non_sem(self):
        g = disjoint_union([loop_graph(), loop_graph()])
        with pytest.raises(NotSem):
            complete_to_edge_magic(g, identity_labeling(2))

    def test_completion_verifies_super(self):
        cert = build_two_lk11_lk1n(3)
        g = cert.graph
        full = complete_to_edge_magic(g, cert.labeling)
        assert verify_edge_magic(g, full, require_super=True)
        edge_labels = sorted(lab for _, lab in full.edge_labels)
        assert edge_labels == list(range(g.order + 1, g.order + g.size + 1))


class TestFullLabeling:
    def test_normalises_edges(self):
        full = FullLabeling([2, 1], [((2, 1), 3), ((1, 1), 4)], 6)
        assert full.vertex_labels == (2, 1)
        assert full.edge_labels == (((1, 1), 4), ((1, 2), 3))

    @pytest.mark.parametrize("vertex_labels, edge_labels, message", [
        ((1.9, 2), [((1, 2), 3.7)], "vertex labels must be integers, got 1.9"),
        ((1, 2), [((1, 2), 3.7)], "edge labels must be integers, got 3.7"),
        ((True, 2), [((1, 2), 3)], "vertex labels must be integers, got True"),
        ((1, 2), [((1, 2), "3")], "edge labels must be integers, got '3'"),
        ((1, 2), [((1, 1), 4), ((1, 2), 3.0)], "edge labels must be integers, got 3.0"),
    ])
    def test_rejects_non_integers(self, vertex_labels, edge_labels, message):
        with pytest.raises(ValueError) as info:
            FullLabeling(vertex_labels, edge_labels, 6)
        assert str(info.value) == message


class TestVerifyEdgeMagic:
    def test_perturbed_edge_label_fails(self):
        g = star_with_loop(2)
        full = complete_to_edge_magic(g, identity_labeling(3))
        broken = FullLabeling(
            full.vertex_labels,
            tuple(((u, v), lab + (1 if (u, v) == (1, 1) else 0))
                  for (u, v), lab in full.edge_labels),
            full.magic_sum,
        )
        assert not verify_edge_magic(g, broken)

    def test_super_condition(self):
        # edge-magic labeling of the loop with a vertex label above p
        g = loop_graph()
        full = FullLabeling((2,), (((1, 1), 1),), 5)
        assert verify_edge_magic(g, full, require_super=False)
        assert not verify_edge_magic(g, full, require_super=True)

    def test_wrong_magic_sum_fails(self):
        g = loop_graph()
        full = FullLabeling((1,), (((1, 1), 2),), 5)
        assert not verify_edge_magic(g, full)

    @pytest.mark.parametrize("g, other", [
        (loop_graph(), Graph(2, [(1, 1)])),  # one vertex more, the same edge
        (Graph(2, [(1, 2), (2, 2)]), star_with_loop(1)),  # the same order and size
    ], ids=["vertex-count", "edge-set"])
    def test_labeling_of_another_graph_fails(self, g, other):
        full = complete_to_edge_magic(g, identity_labeling(g.order))
        assert verify_edge_magic(g, full)
        assert not verify_edge_magic(other, full)


class TestCounterdiagonalProfile:
    def test_sem_star_is_compliant(self):
        g = star_with_loop(2)
        d = indegree_one_orientation(g)
        prof = counterdiagonal_profile(adjacency_matrix(d, identity_labeling(3)))
        assert prof.compliant
        assert all(c <= 1 for c in prof.counts)

    def test_identity_matrix_gap(self):
        prof = counterdiagonal_profile(AdjacencyMatrix(((1, 0), (0, 1))))
        # counts[0] is index sum 2
        assert prof.counts == (1, 0, 1)
        assert not prof.compliant

    def test_zero_matrix_vacuous(self):
        prof = counterdiagonal_profile(AdjacencyMatrix(((0, 0), (0, 0))))
        assert prof.compliant and prof.support == []

    def test_doubled_diagonal_not_compliant(self):
        prof = counterdiagonal_profile(AdjacencyMatrix(((0, 1), (1, 0))))
        assert not prof.compliant


class TestRotatePi:
    def test_corner_moves(self):
        assert rotate_pi(AdjacencyMatrix(((1, 0), (0, 0)))).rows == ((0, 0), (0, 1))

    @given(digraph_and_labeling())
    def test_involution(self, dl):
        d, lab = dl
        m = adjacency_matrix(d, lab)
        assert rotate_pi(rotate_pi(m)) == m

    @given(digraph_and_labeling())
    @settings(max_examples=150)
    def test_rotation_is_complement_relabeling(self, dl):
        d, lab = dl
        assert rotate_pi(adjacency_matrix(d, lab)) == adjacency_matrix(d, complement(lab))

    def test_oriented_star_all_sem_labelings(self):
        g = star_with_loop(3)
        d = indegree_one_orientation(g)
        import itertools

        for perm in itertools.permutations(range(1, 5)):
            lab = VertexLabeling(perm)
            ok, _ = is_sem(g, lab)
            assert ok  # every bijection works on a loop-star
            assert rotate_pi(adjacency_matrix(d, lab)) == adjacency_matrix(d, complement(lab))


class TestLabelingJson:
    def test_round_trip(self):
        cert = build_two_lk11_lk1n(1)
        data = labeling_json(cert.graph, cert.labeling)
        assert data == {
            "p": 6,
            "labels": [3, 6, 5, 2, 4, 1],
            "sem": True,
            "window": [5, 10],
            "magic_sum": 17,
        }
        assert labeling_from_json(json.loads(json.dumps(data))) == cert.labeling

    def test_non_sem_fields_null(self):
        g = disjoint_union([loop_graph(), loop_graph()])
        data = labeling_json(g, identity_labeling(2))
        assert data["sem"] is False
        assert data["window"] is None and data["magic_sum"] is None

    def test_from_json_validates(self):
        with pytest.raises(ValueError):
            labeling_from_json({"p": 2, "labels": [1, 1]})
        with pytest.raises(ValueError):
            labeling_from_json({"p": 3, "labels": [1, 2]})
        with pytest.raises(ValueError):
            labeling_from_json({"labels": [1.9, 2, 3]})
        with pytest.raises(ValueError):
            labeling_from_json({"labels": "123"})
        with pytest.raises(ValueError):
            labeling_from_json({"p": True, "labels": [1]})
        with pytest.raises(ValueError):
            labeling_from_json([1, 2, 3])

    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers(-1, 4) | st.floats() | st.text(max_size=3),
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(st.sampled_from(["p", "labels"]), inner, max_size=2),
            max_leaves=8,
        )
    )
    def test_from_json_parses_or_rejects(self, data):
        try:
            lab = labeling_from_json(data)
        except ValueError:
            return
        assert sorted(lab.labels) == list(range(1, lab.order + 1))
