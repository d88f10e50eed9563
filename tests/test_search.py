import hashlib
import importlib.util
import json
import math
import subprocess
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semforge.errors import ResourceLimit
from semforge.families import (
    build_deer,
    build_two_lk11_lk1n,
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
    _block_relabelings,
    _degree_tables,
    _labeled_sem_edge_sets,
    _order_tables,
    _sum_starts,
    _variable_order,
    census_equal_order_size,
    certify_not_sem,
    enumerate_snk,
    exhaustive_sem_search,
    explore_even_copies,
    find_sem,
    report_json,
    sem_bijections,
)
from semforge.graphs import _degrees, _neighbourhoods, _twins, indegree_one_orientation, underlying

from conftest import (
    all_possible_edges,
    brute_force_automorphism_count,
    polya_class_count,
    random_equal_order_size_graph,
    reference_two_star_sem,
)

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

    def test_all_mode_bound_before_search(self, monkeypatch):
        # every bijection of star_with_loop(n) is a witness: order 10 would
        # keep 3,628,800 of them, order 9 keeps 362,880
        searched = []

        def no_search(g, mode, max_nodes, deadline):
            searched.append(g.order)
            return EXHAUSTED, [], 0

        monkeypatch.setattr("semforge.search._sem_backtrack", no_search)
        with pytest.raises(ResourceLimit, match=r"^order 10 exceeds the all-mode bound 9$"):
            find_sem(star_with_loop(9), "all")
        assert searched == []
        assert find_sem(star_with_loop(8), "all").outcome == EXHAUSTED
        assert searched == [9]

    def test_node_budget_aborts(self):
        report = find_sem(TWO_STARS, budget=ResourceBudget(max_nodes=3))
        assert report.outcome == ABORTED

    def test_one_neighbourhood_build_per_call(self, monkeypatch):
        # the search core builds the one table it reads; find_sem builds none
        built = []

        def counted(g):
            built.append(g)
            return _neighbourhoods(g)

        monkeypatch.setattr("semforge.search._neighbourhoods", counted)
        graphs = [TWO_STARS, star_with_loop(3), cycle_graph(5)]
        for g in graphs:
            for mode in ("first", "canonical", "all"):
                find_sem(g, mode)
        assert built == [g for g in graphs for _ in range(3)]

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            find_sem(loop_graph(), "everything")


def _cycle_unions(p: int, least: int = 1):
    """The lists of part sizes, ascending, that sum to p with no part 2."""
    if p == 0:
        yield []
    for k in range(least, p + 1):
        if k != 2:
            yield from ([k, *rest] for rest in _cycle_unions(p - k, k))


class TestNodeCounts:
    """Node counts are deterministic and hardware-independent.  A change to
    the search order or its pruning changes them, and must update these pins
    on purpose."""

    LK14_PAIR = disjoint_union([star_with_loop(4), star_with_loop(4)])
    LK15_PAIR = disjoint_union([star_with_loop(5), star_with_loop(5)])
    EIGHT_LK11 = disjoint_union([star_with_loop(1)] * 8)

    def test_lk14_pair_exhausted(self):
        report = find_sem(self.LK14_PAIR, "first")
        assert (report.outcome, report.nodes) == (EXHAUSTED, 41)

    def test_node_budget_bounds_whole_search(self):
        # 8 lk11 is not SEM, and its whole search takes 1,126,662 nodes
        report = find_sem(self.EIGHT_LK11, "first", ResourceBudget(max_nodes=5_000))
        assert (report.outcome, report.nodes) == (ABORTED, 5_001)

    @pytest.mark.parametrize("k,nodes", [(21, 87), (23, 83)], ids=["C21", "C23"])
    def test_odd_cycle_first_witness(self, k, nodes):
        report = find_sem(cycle_graph(k), "first")
        assert (report.outcome, report.nodes) == (WITNESS, nodes)

    def test_lk15_pair_certified(self):
        report = certify_not_sem(self.LK15_PAIR)
        assert (report.outcome, report.nodes) == (EXHAUSTED, 61)

    # looped graphs in the index-order modes too, where a looped vertex is
    # not necessarily placed first
    L_LK13 = disjoint_union([loop_graph(), star_with_loop(3)])
    TWO_LK11_LK12 = build_two_lk11_lk1n(2).graph

    @pytest.mark.parametrize("graph,mode,outcome,nodes,witnesses", [
        pytest.param(L_LK13, "first", EXHAUSTED, 11, 0, id="l+lk13-first"),
        pytest.param(L_LK13, "canonical", EXHAUSTED, 11, 0, id="l+lk13-canonical"),
        pytest.param(L_LK13, "all", EXHAUSTED, 17, 0, id="l+lk13-all"),
        pytest.param(TWO_LK11_LK12, "first", WITNESS, 33, 1, id="2lk11+lk12-first"),
        pytest.param(TWO_LK11_LK12, "canonical", WITNESS, 41, 1, id="2lk11+lk12-canonical"),
        pytest.param(TWO_LK11_LK12, "all", WITNESS, 647, 12, id="2lk11+lk12-all"),
        pytest.param(LK14_PAIR, "canonical", EXHAUSTED, 2_990, 0, id="lk14+lk14-canonical"),
    ])
    def test_looped_graphs_every_mode(self, graph, mode, outcome, nodes, witnesses):
        report = find_sem(graph, mode)
        assert (report.outcome, report.nodes, report.witness_count) == (outcome, nodes, witnesses)

    # every 2-regular (p,p)-graph, p <= 8, is a union of cycles and looped
    # vertices ("1"); the per-depth degree-sum bound applies to them too but
    # cannot cut.  Outcome, nodes in first, canonical and all mode, all-mode
    # witnesses and certify nodes; every class not listed has no admissible
    # window, so each mode ends exhausted at 0 nodes
    REGULAR = {
        "1": (WITNESS, 1, 1, 1, 1, 1),
        "1+1+1": (EXHAUSTED, 2, 2, 3, 0, 2),
        "3": (WITNESS, 3, 3, 15, 6, 3),
        "1+1+1+1+1": (EXHAUSTED, 3, 3, 5, 0, 3),
        "1+1+3": (EXHAUSTED, 8, 8, 17, 0, 8),
        "1+4": (WITNESS, 7, 7, 85, 16, 7),
        "5": (WITNESS, 8, 8, 103, 10, 8),
        "1+1+1+1+1+1+1": (EXHAUSTED, 4, 4, 7, 0, 4),
        "1+1+1+1+3": (EXHAUSTED, 13, 13, 35, 0, 13),
        "1+1+1+4": (EXHAUSTED, 13, 13, 35, 0, 13),
        "1+1+5": (WITNESS, 13, 13, 207, 20, 13),
        "1+3+3": (WITNESS, 130, 130, 519, 72, 130),
        "1+6": (WITNESS, 13, 13, 555, 24, 13),
        "3+4": (EXHAUSTED, 128, 128, 219, 0, 128),
        "7": (WITNESS, 11, 11, 1541, 126, 11),
    }

    @pytest.mark.parametrize("p", range(1, 9))
    def test_regular_graphs_every_mode(self, p):
        for parts in _cycle_unions(p):
            name = "+".join(map(str, parts))
            g = disjoint_union([loop_graph() if k == 1 else cycle_graph(k) for k in parts])
            first, canonical, every, cert = (
                *(find_sem(g, mode) for mode in ("first", "canonical", "all")), certify_not_sem(g)
            )
            assert all(r.outcome == first.outcome for r in (canonical, every, cert)), name
            got = (first.outcome, first.nodes, canonical.nodes, every.nodes,
                   every.witness_count, cert.nodes)
            assert got == self.REGULAR.get(name, (EXHAUSTED, 0, 0, 0, 0, 0)), name


class TestResourceBudget:
    @pytest.mark.parametrize("kwargs", [
        {"max_nodes": -1},
        {"max_nodes": 1.0},
        {"max_nodes": True},
        {"max_seconds": -0.5},
        {"max_seconds": math.nan},
        {"max_seconds": "1"},
    ])
    def test_malformed_budget_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ResourceBudget(**kwargs)

    def test_edge_values_accepted(self):
        assert ResourceBudget(max_nodes=0, max_seconds=0).max_nodes == 0
        assert ResourceBudget(max_seconds=math.inf).max_seconds == math.inf


class TestSumWindow:
    @pytest.mark.parametrize("k", [3, 5, 9, 23])
    def test_odd_cycle_window_is_forced(self, k):
        s = (k + 3) // 2
        assert _sum_starts(_degrees(_neighbourhoods(cycle_graph(k))), k, k) == range(s, s + 1)

    def test_too_many_edges_leave_no_window(self):
        g = Graph(3, all_possible_edges(3))  # q = 6 > 2p - 1 = 5
        assert len(_sum_starts(_degrees(_neighbourhoods(g)), 3, 6)) == 0
        for mode in ("first", "canonical", "all"):
            report = find_sem(g, mode)
            assert (report.outcome, report.nodes) == (EXHAUSTED, 0)


# graphs of order 2..7 and size p-1..p+1, and those whose degrees are not all equal
_SMALL = st.integers(2, 7).flatmap(
    lambda p: st.lists(st.sampled_from(all_possible_edges(p)), min_size=p - 1,
                       max_size=p + 1, unique=True)
    .map(lambda edges: Graph(p, frozenset(edges)))
)
_IRREGULAR = _SMALL.filter(lambda g: len(set(_degrees(_neighbourhoods(g))[1:])) > 1)


class TestDegreeSumBound:
    """The per-depth form of Σ deg(v)·f(v) = q·s + q(q-1)/2: once the first
    t+1 positions are placed, with P = Σ deg·f over them and U the sum of
    the labels left, q·s + q(q-1)/2 lies in [P + dmin[t+1]·U,
    P + dmax[t+1]·U]."""

    def test_tables(self):
        deg = [0, 1, 3, 2, 3]
        verts = _variable_order(deg, "first")
        assert verts == [2, 4, 3, 1]
        assert _degree_tables(deg, verts) == ([3, 3, 2, 1], [1, 1, 1, 1, 0], [3, 3, 2, 1, 0])

    @settings(max_examples=80, deadline=None)
    @given(_IRREGULAR)
    def test_every_witness_prefix_meets_the_bound(self, g):
        p, q = g.order, g.size
        deg = _degrees(_neighbourhoods(g))
        verts = _variable_order(deg, "first")
        dv, dmin, dmax = _degree_tables(deg, verts)
        for labels in sem_bijections(g):
            target = q * min(labels[u - 1] + labels[v - 1] for u, v in g.edges)
            target += q * (q - 1) // 2
            placed, unused = 0, p * (p + 1) // 2
            for t, v in enumerate(verts):
                placed += dv[t] * labels[v - 1]
                unused -= labels[v - 1]
                assert placed + dmin[t + 1] * unused <= target <= placed + dmax[t + 1] * unused
            assert placed == target


class TestSupport:
    """Once the first t+1 positions are placed and the window [s, s+q-1] is
    fixed, every sum of it not yet made has a support among the open edges:
    f(u) + y for u in ``front[t]``, y + z for distinct y and z if
    t < ``pair_until``, 2y if t < ``loop_until``, y and z unused."""

    def test_tables(self):
        # C4 in index order: 1-2-3-4-1
        assert _order_tables(_neighbourhoods(cycle_graph(4)), [1, 2, 3, 4]) == (
            [[], [0], [1], [0, 2]], [[0], [0, 1], [0, 2], []], 2, 0)
        # l+lk11: loops at positions 0 and 1, the edge (2,3) open after position 0
        g = disjoint_union([loop_graph(), star_with_loop(1)])
        assert _order_tables(_neighbourhoods(g), [1, 2, 3]) == ([[0], [1], [1]], [[], [1], []], 1, 1)

    @settings(max_examples=80, deadline=None)
    @given(_SMALL)
    def test_every_witness_prefix_has_supports(self, g):
        p, q = g.order, g.size
        nbhd = _neighbourhoods(g)
        verts = _variable_order(_degrees(nbhd), "first")
        rows, front, pair_until, loop_until = _order_tables(nbhd, verts)
        for labels in sem_bijections(g):
            f = [labels[v - 1] for v in verts]  # the label of each position
            s = min(labels[u - 1] + labels[v - 1] for u, v in g.edges)
            made = set()
            for t in range(p):
                made.update(f[t] + f[u] for u in rows[t])
                rest = set(range(1, p + 1)) - set(f[:t + 1])
                supports = {f[u] + y for u in front[t] for y in rest}
                if t < pair_until:
                    supports.update(y + z for y in rest for z in rest if y != z)
                if t < loop_until:
                    supports.update(2 * y for y in rest)
                assert set(range(s, s + q)) - made <= supports
            assert made == set(range(s, s + q))


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


SWEEP_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "certify_sweep.py"


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

    def test_cross_check_bound(self):
        assert certify_not_sem(star_with_loop(7), cross_check=True).outcome == WITNESS
        # refused before the search, rather than run with no cross-check
        with pytest.raises(ResourceLimit, match=r"^cross-check bound is order <= 8$"):
            certify_not_sem(star_with_loop(8), ResourceBudget(max_nodes=0), cross_check=True)

    def test_order_bound(self):
        # past the first-mode bound a SEM graph still gets its witness
        assert certify_not_sem(star_with_loop(DEFAULT_CERTIFY_BOUND - 1)).outcome == WITNESS
        with pytest.raises(ResourceLimit):
            certify_not_sem(star_with_loop(DEFAULT_CERTIFY_BOUND))

    @staticmethod
    def _sweep(max_order, min_order=3):
        """The sweep script's lines, checked to cover orders
        min_order..max_order; its exit status 0 says every forest was
        exhausted (no witness, no abort)."""
        out = subprocess.run([sys.executable, str(SWEEP_SCRIPT), "--min-order", str(min_order),
                              "--max-order", str(max_order)],
                             capture_output=True, text=True, check=True).stdout
        lines = out.splitlines()
        assert [line.split()[0] for line in lines] == [
            f"p={p}" for p in range(min_order, max_order + 1)
        ]
        return lines

    def test_sweep_script_to_the_first_mode_bound(self):
        # backs the README's worst case of orders 3-24
        lines = self._sweep(24)
        assert lines[9].split()[2:4] == ["2l+lk19", "204"]
        assert lines[-1].split()[2:4] == ["2l+lk121", "1,899"]

    def test_sweep_script_past_the_first_mode_bound(self):
        # certify_not_sem checks the certification bound, not find_sem's first-mode bound of 24
        assert self._sweep(40, min_order=25)[-1].split()[2:4] == ["2l+lk137", "9,561"]

    def test_sweep_script_fails_on_an_aborted_union(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "path", [*sys.path])  # the script prepends src/
        spec = importlib.util.spec_from_file_location("certify_sweep", SWEEP_SCRIPT)
        sweep = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sweep)
        aborted = SearchReport(ABORTED, None, None, 0, 0.0, ResourceBudget())
        monkeypatch.setattr(sweep, "certify_not_sem", lambda g, budget: aborted)
        assert sweep.main(["--min-order", "3", "--max-order", "3"]) == 1
        assert "(1 aborted)" in capsys.readouterr().out

    @pytest.mark.parametrize("orders", [["--max-order", str(DEFAULT_CERTIFY_BOUND + 1)],
                                        ["--min-order", "10", "--max-order", "9"]],
                             ids=["past-the-bound", "below-min-order"])
    def test_sweep_script_rejects_max_order(self, orders):
        result = subprocess.run([sys.executable, str(SWEEP_SCRIPT), *orders],
                                capture_output=True, text=True)
        assert (result.returncode, result.stdout) == (2, "")
        assert f"--max-order must lie in [--min-order, {DEFAULT_CERTIFY_BOUND}]" in result.stderr


def _forests(max_order: int):
    """Leaf counts of every loop-star forest of order <= max_order with at
    most two centres that have leaves; a 0 is a bare loop."""
    for loops in range(max_order + 1):
        for m in range(max_order):
            for n in range(m, max_order):
                leaves = [0] * loops + [x for x in (m, n) if x]
                if leaves and sum(x + 1 for x in leaves) <= max_order:
                    yield leaves


class TestTwoStarOracle:
    """``reference_two_star_sem`` decides the loop-star forests with at most
    two leaf-bearing centres by the forced-matching lemma, without search."""

    def test_agrees_with_unpruned_oracle(self):
        forests = {tuple(leaves) for leaves in _forests(8)}
        assert len(forests) == 58
        sem = 0
        for leaves in forests:
            g = disjoint_union([star_with_loop(n) for n in leaves])
            count, _ = exhaustive_sem_search(g)
            assert reference_two_star_sem(leaves) == (count > 0), leaves
            sem += count > 0
        assert sem == 10

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 1), st.integers(0, 11), st.integers(1, 22))
    def test_agrees_with_the_search(self, loops, m, n):
        leaves = [0] * loops + [m, n]
        g = disjoint_union([star_with_loop(x) for x in leaves])
        assume(g.order <= 24)
        report = find_sem(g, "first")
        assert report.outcome != ABORTED
        assert (report.outcome == WITNESS) == reference_two_star_sem(leaves)

    def test_known_results(self):
        assert reference_two_star_sem([0, 1, 1])  # l+lk11+lk11
        assert not any(reference_two_star_sem([m, n]) for m in range(1, 9) for n in range(m, 9))
        assert not reference_two_star_sem([0, 0, 5])  # 2l+lk15
        with pytest.raises(ValueError):
            reference_two_star_sem([1, 1, 1])


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
            for k in range(2, n + 2):
                expected = set()
                for combo in itertools.combinations(pool, n):
                    sums = sorted(a + b for a, b in combo)
                    if sums == list(range(k, k + n)):
                        expected.add(Digraph(n, frozenset(combo)))
                assert set(enumerate_snk(n, k).members) == expected

    def test_infeasible_k_empty(self):
        # every arc sum lies in [2, 2n], and each of them has an arc
        for n in range(1, 6):
            for k in range(-1, 2 * n + 3):
                assert bool(enumerate_snk(n, k).members) == (2 <= k <= n + 1), (n, k)

    def test_members_feed_the_product(self):
        host = indegree_one_orientation(cycle_graph(3))
        for k in range(2, 5):
            fam = enumerate_snk(3, k)
            lab = canonical_product_labeling(host, identity_labeling(3), fam).labeling
            prod = underlying(otimes_h(host, constant_assignment(host), fam))
            assert is_sem(prod, lab)[0]

    def test_bound(self):
        with pytest.raises(ResourceLimit):
            enumerate_snk(6, 2)

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError, match="^need n >= 1, got 0$"):
            enumerate_snk(0, 2)

    @pytest.mark.parametrize("n, k", [(True, 2), (2.0, 2), (2, 2.0), ("2", 2)])
    def test_non_integer_rejected(self, n, k):
        # n becomes the members' order, which nothing checks after this
        with pytest.raises(ValueError, match="^n and k must be integers, got n="):
            enumerate_snk(n, k)


@cache
def _census(k: int) -> list:
    return census_equal_order_size(k)


class TestLabeledSemEdgeSets:
    @pytest.mark.parametrize("p", range(1, 9))
    def test_p_factorial_edge_sets_sem_under_identity(self, p):
        identity = identity_labeling(p)
        seen = set()
        for s in range(2, p + 2):
            for edges in _labeled_sem_edge_sets(p, range(s, s + 1)):
                ok, window = is_sem(Graph(p, frozenset(edges)), identity)
                assert ok and (window.s_min, window.width) == (s, p)
                seen.add(frozenset(edges))
        assert len(seen) == math.factorial(p)

    @pytest.mark.parametrize("p", range(1, 9))
    def test_complement_maps_window_s_onto_window_p_plus_3_minus_s(self, p):
        for s in range(2, p + 2):
            flipped = {
                frozenset((p + 1 - j, p + 1 - i) for i, j in edges)
                for edges in _labeled_sem_edge_sets(p, range(s, s + 1))
            }
            mirror = _labeled_sem_edge_sets(p, range(p + 3 - s, p + 4 - s))
            assert flipped == set(map(frozenset, mirror))


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

    @pytest.mark.parametrize("k", range(1, 8))
    def test_class_count_is_polya(self, k):
        assert len(_census(k)) == polya_class_count(k)

    def test_polya_counts(self):
        assert [polya_class_count(k) for k in range(1, 8)] == [1, 2, 6, 17, 52, 173, 585]
        assert [polya_class_count(k, loops=False) for k in range(8)] == [1, 0, 0, 1, 2, 6, 21, 65]

    @pytest.mark.parametrize("k", range(1, 8))
    def test_loopless_and_isolated_loop_classes_are_polya(self, k):
        # a class whose loops are all isolated is j >= 1 loops beside a
        # loopless class of order k - j, and there are L(k - j) of those
        isolated = []  # per class, whether each of its loops is isolated
        for g, _ in _census(k):
            nbrs, loop = _neighbourhoods(g)
            isolated.append([not nbrs[v] for v in range(1, k + 1) if loop[v]])
        assert sum(not loops for loops in isolated) == polya_class_count(k, loops=False)
        assert sum(bool(loops) and all(loops) for loops in isolated) == sum(
            polya_class_count(k - j, loops=False) for j in range(1, k + 1)
        )

    def test_order_seven(self):
        entries = _census(7)
        assert sum(sem for _, sem in entries) == 300
        edge_lists = [g.sorted_edges for g, _ in entries]
        assert all(a < b for a, b in zip(edge_lists, edge_lists[1:]))

    @pytest.mark.parametrize("k", range(1, 7))
    def test_labeled_sem_graphs_number_p_factorial(self, k):
        # a SEM labeling of G up to Aut G is a labeled graph on [1,p] whose
        # identity labeling is SEM, and there are exactly p! of those
        total = 0
        for g, sem in _census(k):
            count = find_sem(g, "all").witness_count
            assert (count > 0) == sem
            total += Fraction(count, brute_force_automorphism_count(g))
        assert total == math.factorial(k)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda p: st.lists(st.sampled_from(all_possible_edges(p)), min_size=p, max_size=p, unique=True)
        .map(lambda edges: Graph(p, frozenset(edges)))
    ))
    def test_canonical_form_has_the_visited_shape(self, g):
        form = canonical_form(g)
        looped = any(u == v for u, v in g.edges)
        assert ((1, 1) in form.edges) == looped
        k = sum(1 for u, v in form.edges if u == 1 and v != 1)
        assert {v for u, v in form.edges if u == 1 and v != 1} == set(range(2, k + 2))
        assert looped or k >= 2
        # vertex 1 has maximum degree among the centres: the looped vertices,
        # or every vertex if the class is loopless
        degree = {v: sum(1 for e in form.edges if v in e and e[0] != e[1])
                  for v in range(1, g.order + 1)}
        centres = [v for v in degree if (v, v) in form.edges] if looped else list(degree)
        assert degree[1] == k == max(degree[v] for v in centres)

    def test_order_bound(self):
        with pytest.raises(ResourceLimit, match="order <= 9"):
            census_equal_order_size(10)
        for p in (0, -1):
            with pytest.raises(ValueError):
                census_equal_order_size(p)

    def test_budget(self):
        with pytest.raises(ResourceLimit):
            census_equal_order_size(5, ResourceBudget(max_nodes=10))

    def test_node_budget_counts_subsets(self):
        # order 3 visits 6 subsets: (1,1),(1,2),(1,3); (1,1),(1,2) plus one
        # of the 3 slots with u >= 2; (1,1),(2,2),(3,3); (1,2),(1,3),(2,3)
        assert len(census_equal_order_size(3, ResourceBudget(max_nodes=6))) == 6
        with pytest.raises(ResourceLimit):
            census_equal_order_size(3, ResourceBudget(max_nodes=5))

    @staticmethod
    def _shaped_subsets(p: int) -> int:
        # looped shapes take r = 0..p-2 of the p(p-1)/2 slots (u,v) with
        # 2 <= u <= v; the loopless part on n = p - j vertices takes
        # r = 1..n-2 of its C(n-1, 2) slots with j+2 <= u < v; p isolated
        # loops are one subset
        looped = sum(math.comb(p * (p - 1) // 2, r) for r in range(p - 1))
        loopless = sum(
            math.comb(math.comb(n - 1, 2), r) for n in range(p + 1) for r in range(1, n - 1)
        )
        return looped + loopless + 1

    @pytest.mark.parametrize("p, subsets", [(5, 225), (6, 2_375), (7, 33_273)])
    def test_node_budget_is_the_shaped_subset_count(self, p, subsets):
        assert self._shaped_subsets(p) == subsets
        entries = census_equal_order_size(p, ResourceBudget(max_nodes=subsets))
        assert entries == _census(p)
        with pytest.raises(ResourceLimit, match="node budget"):
            census_equal_order_size(p, ResourceBudget(max_nodes=subsets - 1))

    @pytest.mark.parametrize("p, subsets", [(8, 586_714), (9, 12_509_929)])
    def test_node_budget_one_short_of_the_shaped_subsets(self, monkeypatch, p, subsets):
        # the budget is checked before any work; CI runs order 9 under a
        # budget of exactly its count
        def no_seeds(*args):
            raise AssertionError("the census listed labeled SEM graphs")

        monkeypatch.setattr("semforge.search._labeled_sem_edge_sets", no_seeds)
        assert self._shaped_subsets(p) == subsets
        with pytest.raises(ResourceLimit, match="node budget"):
            census_equal_order_size(p, ResourceBudget(max_nodes=subsets - 1))

    @pytest.mark.parametrize("p", range(1, 8))
    def test_no_relabelings_of_an_isolated_loop_centre(self, monkeypatch, p):
        # d = 0 would permute all of 2..p about an isolated loop at vertex 1;
        # the classes with isolated loops are listed by their loopless part
        degrees = []

        def recorded(p, j, d):
            degrees.append(d)
            return _block_relabelings(p, j, d)

        monkeypatch.setattr("semforge.search._block_relabelings", recorded)
        assert census_equal_order_size(p) == _census(p)
        assert 0 not in degrees

    def test_node_budget_checked_before_any_labeled_sem_graph(self, monkeypatch):
        def no_seeds(*args):
            raise AssertionError("the census listed labeled SEM graphs")

        monkeypatch.setattr("semforge.search._labeled_sem_edge_sets", no_seeds)
        with pytest.raises(ResourceLimit, match="node budget"):
            census_equal_order_size(8, ResourceBudget(max_nodes=0))

    def test_wall_clock_budget(self):
        with pytest.raises(ResourceLimit):
            census_equal_order_size(6, ResourceBudget(max_seconds=0.0))

    def test_deadline_passed_before_the_pass_is_a_limit(self, monkeypatch):
        # a census past its deadline is no verdict, even before any subset is
        # visited: the first clock read sets the deadline and the second, at
        # the first labeled SEM graph, already lies past it
        reads = []

        def monotonic():
            reads.append(None)
            return 0.0 if len(reads) == 1 else math.inf

        monkeypatch.setattr("semforge.search.time", SimpleNamespace(monotonic=monotonic))
        with pytest.raises(ResourceLimit, match="wall-clock"):
            census_equal_order_size(3, ResourceBudget(max_seconds=50.0))
        # order 3 visits 8 subsets, too few for the pass to read the clock
        assert len(reads) == 2

    def test_every_clock_read_enforces_the_deadline(self, monkeypatch):
        # order 3 reads the clock 12 times: once for the deadline, at the
        # first labeled SEM graph, after each of the 4 shapes' sweeps and at
        # each of the 6 classes; the deadline passing at any read is a limit
        reads = []
        late = math.inf

        def monotonic():
            reads.append(None)
            return math.inf if len(reads) >= late else 0.0

        monkeypatch.setattr("semforge.search.time", SimpleNamespace(monotonic=monotonic))
        assert len(census_equal_order_size(3, ResourceBudget(max_seconds=50.0))) == 6
        assert len(reads) == 12
        for late in range(2, 13):
            reads.clear()
            with pytest.raises(ResourceLimit, match="wall-clock"):
                census_equal_order_size(3, ResourceBudget(max_seconds=50.0))
            assert len(reads) == late

    @pytest.mark.parametrize("p", [2.0, "3", 8.5, True, None])
    def test_non_int_order_is_malformed(self, p):
        with pytest.raises(ValueError, match="must be an integer"):
            census_equal_order_size(p)

    def test_flags_agree_with_find_sem_at_order_seven(self):
        # the census reads its flags off the labeled SEM graphs and searches
        # no class, so the two are independent
        for g, sem in _census(7):
            assert (find_sem(g, "first").outcome == WITNESS) == sem

    def test_no_class_search(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("the census searched a class")

        monkeypatch.setattr("semforge.search._sem_backtrack", no_search)
        entries = census_equal_order_size(6)
        assert (len(entries), sum(sem for _, sem in entries)) == (173, 89)

    def test_witness_rejected_by_is_sem_is_an_error(self, monkeypatch):
        monkeypatch.setattr("semforge.labelings.is_sem", lambda g, w: (False, None))
        with pytest.raises(RuntimeError, match="is_sem"):
            census_equal_order_size(3)

    def test_one_neighbourhood_build_per_class(self, monkeypatch):
        # marking builds one _neighbourhoods(g) per class; the labeled SEM
        # graphs build none
        built = []

        def counted(g):
            built.append(g)
            return _neighbourhoods(g)

        monkeypatch.setattr("semforge.search._neighbourhoods", counted)
        entries = census_equal_order_size(4)
        assert [g for g, _ in entries] == built

    def test_order_seven_digest(self):
        # SHA-256 of `census --order 7` as the CLI prints it
        text = "".join(
            json.dumps({"p": g.order, "edges": [list(e) for e in g.sorted_edges], "sem": sem})
            + "\n"
            for g, sem in _census(7)
        )
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "5acc0613857f2b9e0c14a746167f76e5fa213f9142f9c55cfb5d11959b66f361"
        )


class TestExplore:
    def test_reports_emitted(self):
        for s, n in [(1, 1), (1, 2), (2, 1)]:
            report = explore_even_copies(s, n)
            assert report.outcome in (WITNESS, EXHAUSTED)
            data = report_json(report)
            assert set(data) == {"outcome", "labels", "nodes", "ms"}

    @pytest.mark.parametrize("s,n,nodes", [(3, 2, 14_187), (2, 4, 9_506)],
                             ids=["6lk12", "4lk14"])
    def test_even_copy_witnesses(self, s, n, nodes):
        # 6 lk12 (order 18) and 4 lk14 (order 20) are SEM
        report = explore_even_copies(s, n)
        assert (report.outcome, report.nodes) == (WITNESS, nodes)
        assert is_sem(disjoint_union([star_with_loop(n)] * (2 * s)), report.witness)[0]

    def test_param_validation(self):
        with pytest.raises(ValueError):
            explore_even_copies(0, 1)

    @pytest.mark.parametrize("s, n", [(True, 1), (1, True), (1.0, 1), (1, "2"), (1, 2.5)])
    def test_non_int_params_are_malformed(self, s, n):
        with pytest.raises(ValueError, match="must be integers"):
            explore_even_copies(s, n)

    def test_order_bound_before_build(self, monkeypatch):
        # 2s(n+1) = 30 > 24: the bound fires before the graph is built
        def no_build(counts):
            raise AssertionError("built a graph the order bound rejects")

        monkeypatch.setattr("semforge.search._loop_stars", no_build)
        with pytest.raises(ResourceLimit, match="order 30 exceeds the first-mode bound 24"):
            explore_even_copies(3, 4)


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

    def test_witnesses_only_in_all_mode(self):
        # the other modes keep their four keys; all mode lists every witness
        for mode in ("first", "canonical"):
            assert "witnesses" not in report_json(find_sem(star_with_loop(2), mode))
        assert "witnesses" not in report_json(certify_not_sem(TWO_STARS))
        aborted = find_sem(TWO_STARS, "all", ResourceBudget(max_nodes=2))
        assert aborted.outcome == "aborted" and "witnesses" not in report_json(aborted)
        assert report_json(find_sem(TWO_STARS, "all"))["witnesses"] == []
        data = report_json(find_sem(star_with_loop(2), "all"))
        assert data["witnesses"] == [list(p) for p in sem_bijections(star_with_loop(2))]
