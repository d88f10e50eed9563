import itertools
import random
import re
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semforge.errors import BadAssignment, BadParam, NotSem
from semforge.families import (
    build_deer,
    build_mixed_loop_stars,
    build_odd_copies_lk1n,
    build_two_lk11_lk1n,
    build_two_lk1m_lk1n,
    cycle_graph,
    odd_cycle_labeling,
    star_with_loop,
)
from semforge.graphs import (
    Digraph,
    corona,
    indegree_one_orientation,
    isomorphic,
    relabel_digraph,
    underlying,
)
from semforge.labelings import VertexLabeling, identity_labeling, is_sem
from semforge.product import (
    LabeledFamily,
    canonical_product_labeling,
    constant_assignment,
    corona_union_via_product,
    corona_iso_check,
    format_assignment,
    kronecker,
    lift_to_product,
    load_family,
    otimes_h,
    parse_assignment,
    save_family,
)
from semforge.search import enumerate_snk

from conftest import brute_force_isomorphic

LOOP_D = Digraph(1, [(1, 1)])
S22 = LabeledFamily(2, 2, (Digraph(2, [(1, 1), (1, 2)]), Digraph(2, [(1, 1), (2, 1)])))


def oriented_cycle(k):
    return indegree_one_orientation(cycle_graph(k))


def _indegrees_all_one(d):
    indegree = Counter(b for _, b in d.arcs)
    return all(indegree[v] == 1 for v in range(1, d.order + 1))


class TestLabeledFamily:
    def test_accepts_hand_members(self):
        assert len(S22) == 2

    def test_rejects_wrong_order(self):
        with pytest.raises(ValueError):
            LabeledFamily(3, 2, (Digraph(2, [(1, 1), (1, 2)]),))

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            LabeledFamily(2, 2, (Digraph(2, [(1, 1)]),))

    def test_rejects_wrong_window(self):
        with pytest.raises(ValueError):
            LabeledFamily(2, 3, (Digraph(2, [(1, 1), (1, 2)]),))

    def test_rejects_antiparallel_pair(self):
        # arc sums 3,3 are not two consecutive integers
        with pytest.raises(ValueError):
            LabeledFamily(2, 3, (Digraph(2, [(1, 2), (2, 1)]),))


class TestOtimesH:
    def test_loop_host_reproduces_member(self):
        prod = otimes_h(LOOP_D, {(1, 1): 0}, S22)
        assert prod == S22[0]

    def test_vertex_count(self):
        host = oriented_cycle(3)
        prod = otimes_h(host, constant_assignment(host), S22)
        assert prod.order == host.order * 2

    def test_cycle_times_one_leaf_star(self):
        host = oriented_cycle(3)
        fam = LabeledFamily(2, 2, (indegree_one_orientation(star_with_loop(1)),))
        prod = otimes_h(host, constant_assignment(host), fam)
        assert (prod.order, prod.size) == (6, 6)
        expected = corona(cycle_graph(3), 1)
        assert isomorphic(underlying(prod), expected)
        assert brute_force_isomorphic(underlying(prod), expected)

    def test_missing_arc_rejected(self):
        host = oriented_cycle(3)
        with pytest.raises(BadAssignment):
            otimes_h(host, {(1, 2): 0}, S22)

    def test_extra_arc_rejected(self):
        host = oriented_cycle(3)
        assignment = constant_assignment(host)
        assignment[(2, 1)] = 0
        with pytest.raises(BadAssignment):
            otimes_h(host, assignment, S22)

    def test_member_index_out_of_range(self):
        with pytest.raises(BadAssignment):
            otimes_h(LOOP_D, {(1, 1): 5}, S22)

    @pytest.mark.parametrize("assignment, message", [
        ({(2, 3): 0}, "assignment misses host arcs [(1, 2), (3, 1)]"),
        # a missing arc is reported before an extra one
        ({(2, 3): 0, (2, 1): 0, (1, 3): 0},
         "assignment misses host arcs [(1, 2), (3, 1)]"),
        ({(1, 2): 0, (2, 3): 1, (3, 1): 0, (3, 2): 0, (1, 3): 1},
         "assignment names arcs not in the host: [(1, 3), (3, 2)]"),
        # the first bad member in sorted host-arc order is named
        ({(3, 1): 5, (2, 3): 7, (1, 2): 0},
         "assignment maps arc (2,3) to member 7, but the family has 2 members"),
        ({(3, 1): -1, (2, 3): 1, (1, 2): 0},
         "assignment maps arc (3,1) to member -1, but the family has 2 members"),
    ])
    def test_messages(self, assignment, message):
        with pytest.raises(BadAssignment) as info:
            otimes_h(oriented_cycle(3), assignment, S22)
        assert str(info.value) == message

    def test_first_bad_member_in_sorted_order(self):
        # the host's arc set iterates (3,4) before (2,3)
        assignment = {(1, 2): 0, (2, 3): 4, (3, 4): 3, (4, 5): 0, (5, 1): 0}
        with pytest.raises(BadAssignment) as info:
            otimes_h(oriented_cycle(5), assignment, S22)
        assert str(info.value) == (
            "assignment maps arc (2,3) to member 4, but the family has 2 members"
        )

    def test_size_identity_on_mixed_assignments(self, rng):
        fam = enumerate_snk(3, 3)
        for _ in range(20):
            host = oriented_cycle(rng.choice([3, 4, 5]))
            assignment = {arc: rng.randrange(len(fam)) for arc in host.arcs}
            prod = otimes_h(host, assignment, fam)
            assert prod.size == sum(fam[assignment[a]].size for a in host.arcs)
            assert prod.order == host.order * fam.n

    def test_indegree_one_closure(self, rng):
        # indegree-1 host and indegree-1 members give an indegree-1 product
        full = enumerate_snk(3, 2)
        members = tuple(m for m in full if _indegrees_all_one(m))
        assert members
        fam = LabeledFamily(full.n, full.k, members)
        for k in (3, 4, 5):
            host = oriented_cycle(k)
            assignment = {arc: rng.randrange(len(fam)) for arc in host.arcs}
            prod = otimes_h(host, assignment, fam)
            assert _indegrees_all_one(prod)


class TestKronecker:
    def test_loop_by_loop(self):
        assert kronecker(LOOP_D, LOOP_D) == LOOP_D

    def test_loop_unit(self):
        d = oriented_cycle(4)
        assert kronecker(d, LOOP_D) == d

    def test_cycle_by_cycle_counts(self):
        prod = kronecker(oriented_cycle(3), oriented_cycle(3))
        assert (prod.order, prod.size) == (9, 9)

    def test_arc_count_product(self, rng):
        for _ in range(10):
            d1 = oriented_cycle(rng.choice([3, 4]))
            d2 = indegree_one_orientation(star_with_loop(rng.randint(1, 3)))
            assert kronecker(d1, d2).size == d1.size * d2.size

    def test_equals_constant_otimes(self):
        host = oriented_cycle(4)
        for member in S22:
            fam = LabeledFamily(2, 2, (member,))
            assert kronecker(host, member) == otimes_h(
                host, constant_assignment(host), fam
            )


class TestCanonicalProductLabeling:
    def test_cycle_host_with_two_member_family(self):
        host = oriented_cycle(3)
        lab = canonical_product_labeling(host, identity_labeling(3), S22)
        # block formula: (a, i) -> 2(f(a)-1)+i
        assert lab.labels == (1, 2, 3, 4, 5, 6)

    def test_single_loop_family_collapses_to_host(self):
        host = oriented_cycle(5)
        fam = LabeledFamily(1, 2, (LOOP_D,))
        f_host = odd_cycle_labeling(5)
        lab = canonical_product_labeling(host, f_host, fam)
        assert lab == f_host

    def test_window_formula(self):
        host = oriented_cycle(3)
        f_host = identity_labeling(3)
        _, host_window = is_sem(underlying(host), f_host)
        fam = S22
        assignment = constant_assignment(host)
        lab = canonical_product_labeling(host, f_host, fam, assignment)
        prod = underlying(otimes_h(host, assignment, fam))
        ok, window = is_sem(prod, lab)
        assert ok
        assert window.s_min == fam.n * (host_window.s_min - 2) + fam.k

    def test_mixed_assignments_verify(self, rng):
        # same k suffices: members may vary arc by arc
        for n in (2, 3):
            for k in range(2, n + 2):
                fam = enumerate_snk(n, k)
                host = oriented_cycle(3)
                for _ in range(5):
                    assignment = {arc: rng.randrange(len(fam)) for arc in host.arcs}
                    lab = canonical_product_labeling(
                        host, identity_labeling(3), fam, assignment
                    )
                    prod = underlying(otimes_h(host, assignment, fam))
                    assert is_sem(prod, lab)[0]

    def test_rejects_non_sem_host_labeling(self):
        host = indegree_one_orientation(
            corona(cycle_graph(4), 0)
        )  # C4 is not SEM under any labeling, identity included
        with pytest.raises(NotSem):
            canonical_product_labeling(host, identity_labeling(4), S22)

    def test_rejects_antiparallel_host(self):
        # arcs (1,2) and (2,1) both sum to 3, but the underlying graph has
        # one edge (1,2), on which labels [1, 2] are SEM
        host = Digraph(2, {(1, 2), (2, 1)})
        with pytest.raises(NotSem):
            canonical_product_labeling(host, VertexLabeling((1, 2)), enumerate_snk(2, 3))

    def test_rejects_empty_family(self):
        with pytest.raises(ValueError, match="^family has no members$"):
            lift_to_product(oriented_cycle(3), identity_labeling(3), LabeledFamily(2, 2, ()))


class TestCoronaIso:
    def test_small_true(self):
        assert corona_iso_check(3, 1)

    def test_medium_true(self):
        assert corona_iso_check(5, 2)

    def test_wrong_corona_order_differs(self):
        host = oriented_cycle(3)
        fam = LabeledFamily(2, 2, (indegree_one_orientation(star_with_loop(1)),))
        prod = underlying(otimes_h(host, constant_assignment(host), fam))
        assert not isomorphic(prod, corona(cycle_graph(3), 2))


class TestCoronaUnionBuilds:
    def test_two_lk11_lk1n_small(self):
        graph, labeling = corona_union_via_product("2lk11-lk1n", k=3, n=1)
        assert graph.order == 18
        assert labeling is not None and is_sem(graph, labeling)[0]

    def test_one_copy_is_the_corona(self):
        graph, labeling = corona_union_via_product("odd-lk1n", k=3, s=0, n=1)
        assert isomorphic(graph, corona(cycle_graph(3), 1))
        assert is_sem(graph, labeling)[0]

    def test_even_cycle_gets_no_labeling(self):
        graph, labeling = corona_union_via_product("2lk11-lk1n", k=4, n=1)
        assert graph.order == 24
        assert labeling is None

    def test_two_lk1m_lk1n_and_thm24(self):
        graph, labeling = corona_union_via_product("2lk1m-lk1n", k=3, m=2, n=1)
        assert is_sem(graph, labeling)[0]
        graph, labeling = corona_union_via_product("thm24", k=5, m=1, n=1, s=1)
        assert is_sem(graph, labeling)[0]

    @pytest.mark.parametrize("family, builder, params", [
        ("2lk11-lk1n", build_two_lk11_lk1n, {"n": 2}),
        ("2lk1m-lk1n", build_two_lk1m_lk1n, {"m": 2, "n": 1}),
        ("odd-lk1n", build_odd_copies_lk1n, {"s": 1, "n": 1}),
        ("thm24", build_mixed_loop_stars, {"m": 1, "n": 1, "s": 1}),
        ("deer", build_deer, {"spec": [1, 0, 1]}),
    ])
    def test_family_draws_its_certified_constructor(self, family, builder, params):
        # the five families have orders 7, 8, 6, 10 and 5 here, so a swap shows
        graph, labeling = corona_union_via_product(family, k=3, **params)
        assert graph.order == 3 * builder(**params).graph.order
        assert is_sem(graph, labeling)[0]

    @pytest.mark.parametrize("family, params, message", [
        ("v", {"k": 3, "n": 1}, r"^unknown family 'v'$"),
        ("2lk11-lk1n", {"k": 2, "n": 1}, r"^cycle needs k >= 3, got 2$"),
        ("2lk11-lk1n", {"n": 1}, r"^corona union build needs the cycle length k$"),
        ("2lk11-lk1n", {"k": 3}, r"needs parameters n"),
        # primitive families build a bare graph, with no labeling to lift
        ("cycle", {"k": 3}, r"^family 'cycle' builds a bare graph"),
        ("lk1n", {"k": 3, "n": 1}, r"^family 'lk1n' builds a bare graph"),
    ])
    def test_bad_params(self, family, params, message):
        with pytest.raises(BadParam, match=message):
            corona_union_via_product(family, **params)


class TestFamilyIO:
    def test_save_load_round_trip(self, tmp_path):
        fam = enumerate_snk(3, 3)
        save_family(fam, tmp_path / "fam")
        loaded = load_family(tmp_path / "fam")
        assert loaded.n == fam.n and loaded.k == fam.k
        assert loaded.members == fam.members

    def test_assignment_round_trip(self):
        host = oriented_cycle(3)
        assignment = {arc: i % 2 for i, arc in enumerate(host.sorted_arcs)}
        again = parse_assignment(format_assignment(assignment))
        assert again == assignment

    def test_assignment_parse_errors(self):
        with pytest.raises(ValueError):
            parse_assignment("1 2\n")
        with pytest.raises(ValueError):
            parse_assignment("1 2 0\n1 2 0\n")

    @pytest.mark.parametrize("line", ["1 x 0", "1 2", "1 2 0 3", "1 2.0 0"])
    def test_malformed_line_is_quoted(self, line):
        with pytest.raises(ValueError, match=re.escape(f"malformed assignment line: {line!r}")):
            parse_assignment(f"1 1 0\n{line}\n")

    @given(st.text(alphabet="012 -#x\n", max_size=30))
    def test_assignment_parses_or_rejects(self, text):
        try:
            assignment = parse_assignment(text)
        except ValueError:
            return
        assert parse_assignment(format_assignment(assignment)) == assignment
