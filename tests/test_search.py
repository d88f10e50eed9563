import json

import pytest

from semforge.errors import ResourceLimit
from semforge.families import (
    build_deer,
    cycle_graph,
    loop_graph,
    star_with_loop,
)
from semforge.graphs import Digraph, Graph, canonical_form, disjoint_union, isomorphic
from semforge.labelings import identity_labeling, is_sem
from semforge.product import canonical_product_labeling, constant_assignment, otimes_h
from semforge.search import (
    ABORTED,
    DEFAULT_CERTIFY_BOUND,
    EXHAUSTED,
    WITNESS,
    ResourceBudget,
    SearchReport,
    _degrees,
    _sum_starts,
    census_equal_order_size,
    certify_not_sem,
    enumerate_snk,
    exhaustive_sem_search,
    explore_even_copies,
    feasible_sum_starts,
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
        assert (report.outcome, report.nodes) == (EXHAUSTED, 6_883)

    def test_node_budget_bounds_whole_search(self):
        report = find_sem(self.LK14_PAIR, "first", ResourceBudget(max_nodes=5_000))
        assert (report.outcome, report.nodes) == (ABORTED, 5_001)

    @pytest.mark.parametrize("k,nodes", [(21, 33_723), (23, 27_247)])
    def test_odd_cycle_first_witness(self, k, nodes):
        report = find_sem(cycle_graph(k), "first")
        assert (report.outcome, report.nodes) == (WITNESS, nodes)

    def test_lk15_pair_certified(self):
        g = disjoint_union([star_with_loop(5), star_with_loop(5)])
        report = certify_not_sem(g)
        assert (report.outcome, report.nodes) == (EXHAUSTED, 51_616)


class TestSumWindow:
    @pytest.mark.parametrize("k", [3, 5, 9, 23])
    def test_odd_cycle_window_is_forced(self, k):
        s = (k + 3) // 2
        assert _sum_starts(_degrees(cycle_graph(k)), k, k) == range(s, s + 1)

    def test_too_many_edges_leave_no_window(self):
        g = Graph(3, all_possible_edges(3))  # q = 6 > 2p - 1 = 5
        assert len(_sum_starts(_degrees(g), 3, 6)) == 0
        for mode in ("first", "canonical", "all"):
            report = find_sem(g, mode)
            assert (report.outcome, report.nodes) == (EXHAUSTED, 0)


STARS = [star_with_loop(n) for n in range(1, 5)]
SPECIAL_CASES = {
    # twin-heavy loop-star unions
    "lk15": star_with_loop(5),
    "lk12+lk13": disjoint_union([STARS[1], STARS[2]]),
    "lk11+lk14": disjoint_union([STARS[0], STARS[3]]),
    "3lk11": disjoint_union([STARS[0]] * 3),
    "2lk11+lk12": disjoint_union([STARS[0], STARS[0], STARS[1]]),
    "2l+lk13": disjoint_union([loop_graph(), loop_graph(), STARS[2]]),
    "3l+lk12": disjoint_union([loop_graph()] * 3 + [STARS[1]]),
    # no sums at all; q > 2p-1, so no window (K3+loops); a dense simple graph
    "edgeless1": Graph(1, []),
    "edgeless4": Graph(4, []),
    "K3+loops": Graph(3, all_possible_edges(3)),
    "K4": Graph(4, [(u, v) for u in range(1, 5) for v in range(u + 1, 5)]),
}


class TestSymmetryBrokenModes:
    """Every mode, with its window and symmetry cuts, against the unpruned
    oracle: existence for ``first`` and ``certify_not_sem``, the oracle's
    first witness for ``canonical``, the witness count for ``all``."""

    @staticmethod
    def check(graph) -> int:
        count, first = exhaustive_sem_search(graph)
        expected = WITNESS if count else EXHAUSTED
        report = find_sem(graph, "first")
        assert report.outcome == expected
        if count:
            assert is_sem(graph, report.witness)[0]
        assert certify_not_sem(graph).outcome == expected
        canonical = find_sem(graph, "canonical")
        assert (canonical.outcome, canonical.witness) == (expected, first)
        everything = find_sem(graph, "all")
        assert everything.witness_count == count
        assert everything.witness == first
        return count

    @pytest.mark.parametrize("k", range(1, 7))
    def test_census_classes(self, k):
        for g, sem in census_equal_order_size(k):
            assert sem == (self.check(g) > 0)

    @pytest.mark.parametrize("graph", SPECIAL_CASES.values(), ids=SPECIAL_CASES.keys())
    def test_special_graphs(self, graph):
        self.check(graph)


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
        certify_not_sem(star_with_loop(DEFAULT_CERTIFY_BOUND - 1))
        with pytest.raises(ResourceLimit):
            certify_not_sem(star_with_loop(DEFAULT_CERTIFY_BOUND))


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

    @pytest.mark.parametrize("k, classes", [(1, 1), (2, 2), (3, 6), (4, 17), (5, 52), (6, 173)])
    def test_canonical_classes_in_order(self, k, classes):
        entries = census_equal_order_size(k)
        assert len(entries) == classes
        edge_lists = [g.sorted_edges for g, _ in entries]
        assert all(a < b for a, b in zip(edge_lists, edge_lists[1:]))
        for g, _ in entries:
            assert g == canonical_form(g)

    def test_order_bound(self):
        with pytest.raises(ValueError):
            census_equal_order_size(9)

    def test_budget(self):
        with pytest.raises(ResourceLimit):
            census_equal_order_size(5, ResourceBudget(max_nodes=10))

    def test_node_budget_counts_subsets(self):
        # order 3 has C(6, 3) = 20 subsets of the 6 edge slots
        assert len(census_equal_order_size(3, ResourceBudget(max_nodes=20))) == 6
        with pytest.raises(ResourceLimit):
            census_equal_order_size(3, ResourceBudget(max_nodes=19))

    def test_wall_clock_budget(self):
        with pytest.raises(ResourceLimit):
            census_equal_order_size(6, ResourceBudget(max_seconds=0.0))

    def test_aborted_class_search_is_a_limit(self, monkeypatch):
        # an aborted search is no verdict: it must not be recorded as "not SEM"
        budgets = []

        def aborted(g, mode="first", budget=None, **kwargs):
            budgets.append(budget)
            return SearchReport(ABORTED, None, None, 1, 0.0, budget)

        monkeypatch.setattr("semforge.search.find_sem", aborted)
        with pytest.raises(ResourceLimit):
            census_equal_order_size(3, ResourceBudget(max_seconds=50.0))
        assert len(budgets) == 1 and budgets[0].max_seconds <= 50.0


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
