import json

import pytest

from semforge.errors import ResourceLimit
from semforge.families import (
    build_deer,
    cycle_graph,
    loop_graph,
    star_with_loop,
)
from semforge.graphs import Digraph, Graph, corona, disjoint_union, isomorphic
from semforge.labelings import identity_labeling, is_sem, verify_edge_magic
from semforge.product import canonical_product_labeling, constant_assignment, otimes_h
from semforge.search import (
    ABORTED,
    EXHAUSTED,
    WITNESS,
    ResourceBudget,
    census_equal_order_size,
    certify_not_sem,
    enumerate_snk,
    exhaustive_sem_search,
    explore_even_copies,
    feasible_sum_starts,
    find_edge_magic,
    find_sem,
    report_json,
)
from semforge.graphs import indegree_one_orientation, underlying

from conftest import all_possible_edges, random_equal_order_size_graph

TWO_STARS = disjoint_union([star_with_loop(1), star_with_loop(1)])


class TestFindSem:
    def test_star_witness(self):
        report = find_sem(star_with_loop(3))
        assert report.outcome == WITNESS
        assert is_sem(star_with_loop(3), report.witness)[0]

    def test_canonical_star_is_identity(self):
        report = find_sem(star_with_loop(3), "canonical")
        assert report.witness == identity_labeling(4)

    def test_two_one_leaf_stars_exhausted(self):
        report = find_sem(TWO_STARS)
        assert report.outcome == EXHAUSTED
        assert report.witness is None
        count, _ = exhaustive_sem_search(TWO_STARS)
        assert count == 0

    def test_deer_searchable(self):
        cert = build_deer([1, 0, 1])
        report = find_sem(cert.graph)
        assert report.outcome == WITNESS
        assert is_sem(cert.graph, report.witness)[0]

    def test_canonical_matches_unpruned_first(self, rng):
        for _ in range(40):
            g = random_equal_order_size_graph(rng, max_order=5)
            report = find_sem(g, "canonical")
            count, first = exhaustive_sem_search(g)
            if count:
                assert report.outcome == WITNESS and report.witness == first
            else:
                assert report.outcome == EXHAUSTED

    def test_all_mode_counts_match_unpruned(self, rng):
        for _ in range(60):
            g = random_equal_order_size_graph(rng, max_order=6)
            report = find_sem(g, "all")
            count, _ = exhaustive_sem_search(g)
            assert report.witness_count == count

    def test_order_bound(self):
        with pytest.raises(ResourceLimit):
            find_sem(Graph(30, [(1, 1)] + [(1, v) for v in range(2, 30)]))

    def test_node_budget_aborts(self):
        report = find_sem(TWO_STARS, budget=ResourceBudget(max_nodes=3))
        assert report.outcome == ABORTED

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            find_sem(loop_graph(), "everything")


class TestNodeCounts:
    """Node counts are deterministic and hardware-independent.  A change to
    the search order changes them, and must update these pins on purpose."""

    LK14_PAIR = disjoint_union([star_with_loop(4), star_with_loop(4)])

    def test_lk14_pair_exhausted(self):
        report = find_sem(self.LK14_PAIR, "first")
        assert (report.outcome, report.nodes) == (EXHAUSTED, 452_300)

    def test_node_budget_bounds_whole_search(self):
        report = find_sem(self.LK14_PAIR, "first", ResourceBudget(max_nodes=100_000))
        assert (report.outcome, report.nodes) == (ABORTED, 100_001)


class TestCertify:
    def test_loop_plus_star(self):
        g = disjoint_union([loop_graph(), star_with_loop(1)])
        report = certify_not_sem(g, cross_check=True)
        assert report.outcome == EXHAUSTED

    def test_two_loops_plus_star(self):
        g = disjoint_union([loop_graph(), loop_graph(), star_with_loop(1)])
        report = certify_not_sem(g, cross_check=True)
        assert report.outcome == EXHAUSTED

    def test_two_big_stars(self):
        g = disjoint_union([star_with_loop(2), star_with_loop(3)])
        report = certify_not_sem(g, cross_check=True)
        assert report.outcome == EXHAUSTED

    def test_order_bound(self):
        with pytest.raises(ResourceLimit):
            certify_not_sem(star_with_loop(13))


class TestEnumerateSnk:
    def test_order_one(self):
        fam = enumerate_snk(1, 2)
        assert fam.members == (Digraph(1, [(1, 1)]),)

    def test_order_two_counts(self):
        assert len(enumerate_snk(2, 2)) == 2
        assert len(enumerate_snk(2, 3)) == 2

    def test_order_two_members_exact(self):
        fam = enumerate_snk(2, 2)
        assert set(fam.members) == {
            Digraph(2, [(1, 1), (1, 2)]),
            Digraph(2, [(1, 1), (2, 1)]),
        }
        fam3 = enumerate_snk(2, 3)
        assert set(fam3.members) == {
            Digraph(2, [(2, 2), (1, 2)]),
            Digraph(2, [(2, 2), (2, 1)]),
        }

    def test_matches_brute_enumeration(self):
        # oracle: filter all n-subsets of the n*n possible arcs directly
        import itertools

        for n in (1, 2, 3):
            pool = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
            for k in feasible_sum_starts(n):
                expected = set()
                for combo in itertools.combinations(pool, n):
                    sums = sorted(a + b for a, b in combo)
                    if sums == list(range(k, k + n)):
                        expected.add(Digraph(n, frozenset(combo)))
                assert set(enumerate_snk(n, k).members) == expected

    def test_infeasible_k_empty(self):
        assert len(enumerate_snk(2, 5)) == 0

    def test_members_feed_the_product(self):
        host = indegree_one_orientation(cycle_graph(3))
        for k in feasible_sum_starts(3):
            fam = enumerate_snk(3, k)
            lab = canonical_product_labeling(host, identity_labeling(3), fam)
            prod = underlying(otimes_h(host, constant_assignment(host), fam))
            assert is_sem(prod, lab)[0]

    def test_bound(self):
        with pytest.raises(ResourceLimit):
            enumerate_snk(6, 2)


class TestCensus:
    def test_order_one(self):
        entries = census_equal_order_size(1)
        assert entries == [(loop_graph(), True)]

    def test_order_two(self):
        entries = census_equal_order_size(2)
        as_pairs = {(g.edges, sem) for g, sem in entries}
        assert as_pairs == {
            (frozenset({(1, 1), (2, 2)}), False),  # two loops
            (frozenset({(1, 1), (1, 2)}), True),   # loop-star with one leaf
        }

    def test_order_three_against_oracle(self):
        entries = census_equal_order_size(3)
        assert len(entries) == 6
        for g, sem in entries:
            count, _ = exhaustive_sem_search(g)
            assert (count > 0) == sem

    def test_order_four_contains_two_stars(self):
        entries = census_equal_order_size(4)
        hits = [sem for g, sem in entries if isomorphic(g, TWO_STARS)]
        assert hits == [False]

    def test_representatives_unique(self):
        entries = census_equal_order_size(4)
        for i, (g, _) in enumerate(entries):
            for h, _ in entries[i + 1:]:
                assert not isomorphic(g, h)

    def test_order_bound(self):
        with pytest.raises(ValueError):
            census_equal_order_size(9)

    def test_budget(self):
        with pytest.raises(ResourceLimit):
            census_equal_order_size(5, ResourceBudget(max_nodes=10))


class TestExplore:
    def test_reports_emitted(self):
        for s, n in [(1, 1), (1, 2), (2, 1)]:
            report = explore_even_copies(s, n)
            assert report.outcome in (WITNESS, EXHAUSTED)
            data = report_json(report)
            assert set(data) == {"outcome", "labels", "nodes", "ms"}

    def test_param_validation(self):
        with pytest.raises(ValueError):
            explore_even_copies(0, 1)


class TestFindEdgeMagic:
    def test_single_loop(self):
        report = find_edge_magic(loop_graph())
        assert report.outcome == WITNESS
        assert report.witness.magic_sum == 4
        assert report.witness.vertex_labels == (1,)
        assert report.witness.edge_label_map == {(1, 1): 2}

    def test_sun_graph(self):
        g = corona(cycle_graph(3), 1)
        report = find_edge_magic(g)
        assert report.outcome == WITNESS
        assert verify_edge_magic(g, report.witness)

    def test_total_bound(self):
        with pytest.raises(ResourceLimit):
            find_edge_magic(corona(cycle_graph(5), 1))

    def test_rejects_edgeless(self):
        with pytest.raises(ValueError):
            find_edge_magic(Graph(2, []))

    def test_budget_aborts(self):
        report = find_edge_magic(corona(cycle_graph(3), 1), ResourceBudget(max_nodes=10))
        assert report.outcome == ABORTED


class TestPruningSoundness:
    @pytest.mark.parametrize(
        "graph",
        [
            TWO_STARS,
            disjoint_union([loop_graph(), star_with_loop(1)]),
            cycle_graph(4),
            Graph(3, [(1, 1), (1, 2), (2, 3)]),  # loop at a path end
        ],
        ids=["two-stars", "loop+star", "c4", "tadpole"],
    )
    def test_profile_compliance_iff_sem_for_exhausted_graph(self, graph):
        # no bijection of an exhausted indegree-1 graph has a compliant matrix
        import itertools

        from semforge.graphs import adjacency_matrix
        from semforge.labelings import VertexLabeling, counterdiagonal_profile

        d = indegree_one_orientation(graph)
        assert find_sem(graph).outcome == EXHAUSTED
        for perm in itertools.permutations(range(1, graph.order + 1)):
            lab = VertexLabeling(perm)
            prof = counterdiagonal_profile(adjacency_matrix(d, lab))
            assert prof.compliant == is_sem(graph, lab)[0]
            assert not prof.compliant

    def test_profile_compliance_iff_sem_with_witnesses(self):
        # equivalence also holds where witnesses exist: some bijections comply
        import itertools

        from semforge.graphs import adjacency_matrix
        from semforge.labelings import VertexLabeling, counterdiagonal_profile

        cert = build_deer([1, 0, 1])
        g = cert.graph
        d = indegree_one_orientation(g)
        hits = 0
        for perm in itertools.permutations(range(1, g.order + 1)):
            lab = VertexLabeling(perm)
            prof = counterdiagonal_profile(adjacency_matrix(d, lab))
            assert prof.compliant == is_sem(g, lab)[0]
            hits += prof.compliant
        assert hits > 0


class TestReportJson:
    def test_schema(self):
        report = find_sem(star_with_loop(2))
        data = report_json(report)
        assert set(data) == {"outcome", "labels", "nodes", "ms"}
        assert data["outcome"] == "witness"
        assert sorted(data["labels"]) == [1, 2, 3]
        json.dumps(data)

    def test_exhausted_labels_null(self):
        data = report_json(find_sem(TWO_STARS))
        assert data["outcome"] == "exhausted" and data["labels"] is None
