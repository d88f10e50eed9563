import itertools
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semforge import graphs
from semforge.errors import NoSuchOrientation, ResourceLimit
from semforge.graphs import (
    MATRIX_ORDER_BOUND,
    AdjacencyMatrix,
    Digraph,
    Graph,
    _degrees,
    _neighbourhoods,
    _twins,
    adjacency_matrix,
    canonical_form,
    corona,
    disjoint_union,
    format_digraph,
    format_graph,
    indegree_one_orientation,
    isomorphic,
    parse_digraph,
    parse_graph,
    parse_graph_or_digraph,
    relabel_digraph,
    underlying,
    union_offsets,
)
from semforge.families import caterpillar_graph, cycle_graph, loop_graph, star_with_loop

from conftest import (
    all_possible_edges,
    brute_force_isomorphic,
    random_equal_order_size_graph,
    random_indegree_one_graph,
    reference_indegree_one_orientation,
    reference_parse_edge_list,
)


def orientation_outcome(orient, g):
    """The arc set an orientation function returns, or its error message."""
    try:
        result = orient(g)
    except NoSuchOrientation as exc:
        return f"NoSuchOrientation: {exc}"
    return getattr(result, "arcs", result)


@st.composite
def orientation_inputs(draw):
    """Graphs in the orientation's domain, random loop-allowed graphs, and
    unions of both, so that bad components follow good ones."""
    rng = draw(st.randoms(use_true_random=False))
    good = random_indegree_one_graph(rng, max_order=draw(st.integers(1, 12)))
    p = draw(st.integers(1, 7))
    edges = draw(st.sets(st.sampled_from(all_possible_edges(p)), max_size=p + 2))
    other = Graph(p, frozenset(edges))
    return draw(st.sampled_from([
        good, other, disjoint_union([good, other]), disjoint_union([other, good])
    ]))


@st.composite
def iso_pairs(draw):
    """Two graphs of one order p <= 6 with the same number of edges, from
    none to all p(p+1)/2, so edgeless graphs and isolated vertices are
    common; h is a relabeled copy of g or an arbitrary graph."""
    p = draw(st.integers(1, 6))
    pool = all_possible_edges(p)
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    g = Graph(p, frozenset(edges))
    if draw(st.booleans()):
        perm = draw(st.permutations(range(1, p + 1)))
        return g, Graph(p, [(perm[u - 1], perm[v - 1]) for u, v in edges])
    other = draw(st.lists(st.sampled_from(pool), unique=True,
                          min_size=len(edges), max_size=len(edges)))
    return g, Graph(p, frozenset(other))


def cycles(*lengths, loops=False, seed=None) -> Graph:
    """Disjoint cycles of the given lengths, with a loop on every vertex if
    ``loops``, and relabeled by a seeded shuffle if ``seed`` is given."""
    g = disjoint_union([cycle_graph(k) for k in lengths])
    names = list(range(1, g.order + 1))
    if seed is not None:
        random.Random(seed).shuffle(names)
    edges = {(names[u - 1], names[v - 1]) for u, v in g.edges}
    if loops:
        edges |= {(v, v) for v in names}
    return Graph(g.order, edges)


@st.composite
def edge_list_texts(draw):
    """Edge-list texts, mostly well formed: graph and digraph headers with
    comments, blank lines, swapped endpoints, duplicates, out-of-range
    endpoints, lines of 1 or 3 tokens and wrong counts."""
    p = draw(st.sampled_from([-1, 0] + [1, 2, 3, 4, 5, 6] * 3))
    pairs = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=6))
    q = len(pairs) + draw(st.sampled_from([0, 0, 0, 0, 1, -1]))
    head = draw(st.sampled_from(
        ["{p} {q}"] * 4 + ["{p} {q} d"] * 4 + ["{p} {q} x", "{p}", "{p} {q} d d", "x {q}"]
    ))
    lines = [head.format(p=p, q=q)] + [f"{u} {v}" for u, v in pairs]
    for _ in range(draw(st.integers(0, 2))):
        junk = draw(st.sampled_from(["", "   ", "# a comment", "1", "1 2 3", "2 1", "a b"]))
        lines.insert(draw(st.integers(0, len(lines))), junk)
    tails = draw(st.lists(
        st.sampled_from(["", "", " # note", "#1 2", "\t"]), min_size=len(lines), max_size=len(lines)
    ))
    return "\n".join(line + tail for line, tail in zip(lines, tails)) + draw(st.sampled_from(["", "\n"]))


class TestConstruction:
    def test_edges_normalised_and_deduped(self):
        g = Graph(3, [(2, 1), (1, 2), (3, 3)])
        assert g.edges == frozenset({(1, 2), (3, 3)})
        assert g.size == 2

    def test_endpoint_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(1, 3)])
        with pytest.raises(ValueError):
            Digraph(2, [(0, 1)])

    def test_order_positive(self):
        with pytest.raises(ValueError):
            Graph(0, [])

    @pytest.mark.parametrize("cls, kind", [(Graph, "graph"), (Digraph, "digraph")])
    @pytest.mark.parametrize("order", [2.5, 3.0, True, "3"])
    def test_non_integer_order_rejected(self, cls, kind, order):
        with pytest.raises(ValueError) as info:
            cls(order, [(1, 1)])
        assert str(info.value) == f"{kind} order must be an integer, got {order!r}"

    @pytest.mark.parametrize("cls", [Graph, Digraph])
    @pytest.mark.parametrize("pair", [(1.5, 2), (True, 2), (1, 2.0), ("1", 2), (1.9, 2)])
    def test_non_integer_vertices_rejected(self, cls, pair):
        with pytest.raises(ValueError, match="integers"):
            cls(2, [pair])
        with pytest.raises(ValueError, match="integers"):
            cls(2, frozenset({pair}))

    @pytest.mark.parametrize("cls", [Graph, Digraph])
    @pytest.mark.parametrize("pairs", [[(1, 2, 3)], [(1,)], [5], frozenset({(1, 2, 2)}), 7])
    def test_non_pairs_rejected(self, cls, pairs):
        with pytest.raises(ValueError, match="pairs"):
            cls(3, pairs)

    def test_pair_lists_accepted(self):
        assert Graph(3, [[2, 1], [3, 3]]).edges == frozenset({(1, 2), (3, 3)})
        assert Digraph(2, [[2, 1]]).arcs == frozenset({(2, 1)})

    def test_normalised_frozenset_kept(self):
        edges = frozenset({(1, 2), (2, 2)})
        assert Graph(2, edges).edges is edges
        arcs = frozenset({(2, 1)})
        assert Digraph(2, arcs).arcs is arcs
        assert Graph(2, arcs).edges == frozenset({(1, 2)})

    def test_out_of_range_names_smallest_pair(self):
        with pytest.raises(ValueError, match=r"edge \(1,9\) has an endpoint outside \[1,3\]"):
            Graph(3, [(2, 8), (9, 1), (5, 4)])
        with pytest.raises(ValueError, match=r"arc \(0,3\) has an endpoint outside \[1,3\]"):
            Digraph(3, [(9, 9), (2, 8), (9, 1), (0, 3)])

    def test_degree_counts_loops_twice(self):
        deg = _degrees(_neighbourhoods(star_with_loop(2)))
        assert deg[1] == 4
        assert deg[2] == deg[3] == 1

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 7).flatmap(
        lambda p: st.sets(st.sampled_from(all_possible_edges(p)), max_size=2 * p)
        .map(lambda edges: Graph(p, frozenset(edges)))
    ))
    def test_twins_partition_and_swap(self, g):
        classes = _twins(_neighbourhoods(g))
        # ascending lists, in order of their smallest vertex, covering 1..p once
        assert all(cls == sorted(cls) for cls in classes)
        assert [cls[0] for cls in classes] == sorted(cls[0] for cls in classes)
        assert sorted(v for cls in classes for v in cls) == list(range(1, g.order + 1))
        for cls in classes:
            for u, w in itertools.combinations(cls, 2):
                swap = {u: w, w: u}
                moved = Graph(g.order, [(swap.get(a, a), swap.get(b, b)) for a, b in g.edges])
                assert moved.edges == g.edges

    def test_components(self):
        g = disjoint_union([star_with_loop(1), loop_graph()])
        assert g.components() == [[1, 2], [3]]


class TestUnderlying:
    def test_antiparallel_arcs_collapse(self):
        d = Digraph(2, [(1, 2), (2, 1)])
        assert underlying(d) == Graph(2, [(1, 2)])

    def test_loop_preserved(self):
        assert underlying(Digraph(1, [(1, 1)])) == loop_graph()

    def test_oriented_star_with_loop(self):
        d = Digraph(3, [(1, 1), (1, 2), (1, 3)])
        assert underlying(d) == star_with_loop(2)


class TestIndegreeOneOrientation:
    def test_star_with_loop_forced(self):
        d = indegree_one_orientation(star_with_loop(2))
        assert d.arcs == frozenset({(1, 1), (1, 2), (1, 3)})

    def test_cycle_ascending_rotation(self):
        d = indegree_one_orientation(cycle_graph(3))
        assert d.arcs == frozenset({(1, 2), (2, 3), (3, 1)})

    def test_single_edge_is_a_tree(self):
        with pytest.raises(NoSuchOrientation):
            indegree_one_orientation(Graph(2, [(1, 2)]))

    def test_two_cycles_in_one_component(self):
        with pytest.raises(NoSuchOrientation):
            indegree_one_orientation(Graph(2, [(1, 1), (2, 2), (1, 2)]))

    @pytest.mark.parametrize("g, message", [
        (Graph(2, [(1, 2)]), "component [1, 2] has no cycle (it is a tree)"),
        (Graph(3, [(1, 1), (2, 2)]), "component [3] has no cycle (it is a tree)"),
        (Graph(2, [(1, 1), (2, 2), (1, 2)]),
         "component [1, 2] has more than one independent cycle"),
        # several bad components: the one with the smallest vertex is named
        (Graph(7, [(1, 1), (2, 3), (4, 4), (5, 5), (4, 5), (6, 7)]),
         "component [2, 3] has no cycle (it is a tree)"),
        (Graph(6, [(1, 6), (6, 6), (1, 1), (2, 3)]),
         "component [1, 6] has more than one independent cycle"),
        (Graph(8, [(8, 8), (3, 7), (7, 3), (5, 7), (3, 5), (4, 6), (2, 2), (1, 2)]),
         "component [4, 6] has no cycle (it is a tree)"),
        # fewer edges than vertices: a bad component below the first vertex
        # on no edge is named before it, one above it is not
        (Graph(9, [(1, 1), (2, 8), (2, 2), (8, 8), (5, 5)]),
         "component [2, 8] has more than one independent cycle"),
        (Graph(9, [(1, 1), (2, 2), (4, 8)]), "component [3] has no cycle (it is a tree)"),
        (Graph(4, [(1, 2), (2, 3), (3, 4)]), "component [1, 2, 3, 4] has no cycle (it is a tree)"),
        (Graph(3), "component [1] has no cycle (it is a tree)"),
    ])
    def test_messages(self, g, message):
        with pytest.raises(NoSuchOrientation) as info:
            indegree_one_orientation(g)
        assert str(info.value) == message

    def test_huge_order_costs_no_per_vertex_table(self, monkeypatch):
        # vertex 2 lies on no edge: it is named without a table of 10**9 rows
        def small_only(g):
            assert g.order < 10**9, "per-vertex table of the full order"
            return _neighbourhoods(g)

        monkeypatch.setattr(graphs, "_neighbourhoods", small_only)
        with pytest.raises(NoSuchOrientation) as info:
            indegree_one_orientation(Graph(10**9, {(1, 1)}))
        assert str(info.value) == "component [2] has no cycle (it is a tree)"

    def test_leaves_get_outdegree_zero(self):
        d = indegree_one_orientation(star_with_loop(4))
        outdegree = Counter(a for a, _ in d.arcs)
        for leaf in range(2, 6):
            assert outdegree[leaf] == 0

    def test_many_components(self):
        g = Graph(15, [
            (1, 1), (2, 2),  # loops
            (3, 4), (4, 5), (3, 5),  # C3
            (6, 7), (7, 8), (8, 9), (9, 10), (6, 10),  # C5
            (11, 12), (12, 13), (11, 13), (12, 14), (14, 15),  # C3 with a path hung on 12
        ])
        assert indegree_one_orientation(g).arcs == frozenset({
            (1, 1), (2, 2),
            (3, 4), (4, 5), (5, 3),
            (6, 7), (7, 8), (8, 9), (9, 10), (10, 6),
            (11, 12), (12, 13), (13, 11), (12, 14), (14, 15),
        })
        loops = Graph(4000, [(v, v) for v in range(1, 4001)])
        assert indegree_one_orientation(loops).arcs == loops.edges

    @settings(max_examples=500, deadline=None)
    @given(orientation_inputs())
    def test_matches_reference(self, g):
        assert orientation_outcome(indegree_one_orientation, g) == orientation_outcome(
            reference_indegree_one_orientation, g
        )

    def test_round_trip_on_random_domain(self, rng):
        for _ in range(60):
            g = random_indegree_one_graph(rng)
            d = indegree_one_orientation(g)
            assert underlying(d) == g
            indegree = Counter(b for _, b in d.arcs)
            assert all(indegree[v] == 1 for v in range(1, g.order + 1))
            # one arc per vertex within every component
            for comp in g.components():
                comp_set = set(comp)
                assert sum(1 for a, _ in d.arcs if a in comp_set) == len(comp)


class TestAdjacencyMatrix:
    def test_single_loop(self):
        assert adjacency_matrix(Digraph(1, [(1, 1)])).rows == ((1,),)

    def test_relabel_permutes_indices(self):
        m = adjacency_matrix(Digraph(2, [(1, 2)]), [2, 1])
        assert m.rows == ((0, 0), (1, 0))

    def test_oriented_star_center_renamed(self):
        # arcs (1,1),(1,2) with center renamed 2, leaf renamed 1
        m = adjacency_matrix(Digraph(2, [(1, 1), (1, 2)]), [2, 1])
        assert m.rows[1] == (1, 1)
        assert m.rows[0] == (0, 0)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            adjacency_matrix(Digraph(2, [(1, 2)]), [1, 1])

    def test_order_bound_before_allocating(self):
        # p * p cells: the header alone must not decide the allocation
        with pytest.raises(ResourceLimit, match="order <= 2000"):
            adjacency_matrix(Digraph(MATRIX_ORDER_BOUND + 1, []))

    def test_order_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(graphs, "MATRIX_ORDER_BOUND", 2)
        assert adjacency_matrix(Digraph(2, [(1, 2)])).rows == ((0, 1), (0, 0))
        with pytest.raises(ResourceLimit):
            adjacency_matrix(Digraph(3, [(1, 2)]))

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            AdjacencyMatrix(((0, 1),))
        with pytest.raises(ValueError):
            AdjacencyMatrix(((2,),))
        with pytest.raises(ValueError):
            AdjacencyMatrix(((1.9, 0.2), ("1", True)))

    @pytest.mark.parametrize("bad", [1.9, 0.2, 1.0, "1", True, False, None])
    def test_matrix_entries_are_not_coerced(self, bad):
        with pytest.raises(ValueError):
            AdjacencyMatrix(((bad, 0), (1, 1)))


class TestIsomorphic:
    def test_relabeled_cycle(self):
        g = cycle_graph(3)
        h = Graph(3, [(2, 3), (1, 3), (1, 2)])
        assert isomorphic(g, h)

    def test_different_size(self):
        assert not isomorphic(cycle_graph(3), caterpillar_graph([0, 0, 0]))

    def test_loops_must_match(self):
        # swapping the loop to the other endpoint is an isomorphism ...
        assert isomorphic(Graph(2, [(1, 1), (1, 2)]), Graph(2, [(2, 2), (1, 2)]))
        # ... but a loop cannot map onto a plain edge
        assert not isomorphic(Graph(2, [(1, 1), (2, 2)]), Graph(2, [(1, 1), (1, 2)]))

    def test_reflexive_and_symmetric_on_corpus(self, rng):
        graphs = [random_equal_order_size_graph(rng, max_order=10) for _ in range(40)]
        for g in graphs:
            assert isomorphic(g, g)
        for g, h in zip(graphs, graphs[1:]):
            assert isomorphic(g, h) == isomorphic(h, g)

    def test_agrees_with_brute_force(self, rng):
        for _ in range(120):
            g = random_equal_order_size_graph(rng, max_order=6)
            h = random_equal_order_size_graph(rng, min_order=g.order, max_order=g.order)
            assert isomorphic(g, h) == brute_force_isomorphic(g, h)

    # refinement runs on g ⊔ h: an unused index 0, or isolated vertices that
    # share the starting colour, must not upset the class count
    @settings(max_examples=400, deadline=None)
    @given(iso_pairs())
    @example((Graph(4), Graph(4)))
    @example((Graph(4, [(1, 2), (3, 3)]), Graph(4, [(1, 1), (2, 3)])))
    @example((Graph(4, [(1, 2), (2, 3)]), Graph(4, [(1, 2), (3, 4)])))
    @example((Graph(3, all_possible_edges(3)), Graph(3, all_possible_edges(3))))
    # 2-regular graphs of one order: refinement leaves one colour class, so
    # only the backtracking can tell them apart
    @example((cycles(6), cycles(3, 3)))
    @example((cycles(6, loops=True), cycles(3, 3, loops=True)))
    @example((cycles(6), cycles(6, seed=1)))
    @example((cycles(3, 4), cycles(7, seed=2)))
    @example((cycles(3, 4), cycles(4, 3, seed=3)))
    @example((cycles(8), cycles(4, 4, seed=4)))
    @example((cycles(3, 5), cycles(4, 4, seed=5)))
    @example((cycles(5, 3), cycles(3, 5, seed=6)))
    def test_agrees_with_brute_force_any_size(self, pair):
        g, h = pair
        assert isomorphic(g, h) == brute_force_isomorphic(g, h)

    def test_agrees_with_brute_force_order_seven(self, rng):
        for _ in range(25):
            g = random_equal_order_size_graph(rng, min_order=7, max_order=7)
            perm = list(range(1, 8))
            rng.shuffle(perm)
            relabeled = Graph(7, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])
            h = relabeled if rng.random() < 0.5 else random_equal_order_size_graph(
                rng, min_order=7, max_order=7
            )
            assert isomorphic(g, h) == brute_force_isomorphic(g, h)


    def test_order_bound(self):
        with pytest.raises(ResourceLimit, match="order <= 512"):
            isomorphic(Graph(513), Graph(513))

    def test_node_budget(self, monkeypatch):
        # refinement leaves C6 and C3 ⊔ C3 in one colour class: only the
        # backtracking, which counts its nodes, tells them apart
        monkeypatch.setattr(graphs, "DEFAULT_ISO_NODE_BUDGET", 100)
        assert not isomorphic(cycles(6), cycles(3, 3))
        monkeypatch.setattr(graphs, "DEFAULT_ISO_NODE_BUDGET", 10)
        with pytest.raises(ResourceLimit, match="^isomorphism node budget exhausted$"):
            isomorphic(cycles(6), cycles(3, 3))


class TestCanonicalForm:
    def test_order_bound(self):
        with pytest.raises(ResourceLimit, match="order <= 10"):
            canonical_form(Graph(11))

    def test_invariant_under_relabeling(self, rng):
        for _ in range(30):
            g = random_equal_order_size_graph(rng, max_order=6)
            perm = list(range(1, g.order + 1))
            rng.shuffle(perm)
            h = Graph(g.order, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])
            assert canonical_form(g) == canonical_form(h)


class TestUnionAndCorona:
    def test_two_loops(self):
        g = disjoint_union([loop_graph(), loop_graph()])
        assert (g.order, g.size) == (2, 2)
        assert g.edges == frozenset({(1, 1), (2, 2)})

    def test_two_small_stars(self):
        g = disjoint_union([star_with_loop(1), star_with_loop(1)])
        assert (g.order, g.size) == (4, 4)

    def test_three_components_with_offsets(self):
        gs = [star_with_loop(1), star_with_loop(1), star_with_loop(1)]
        assert union_offsets(gs) == (0, 2, 4)
        g = disjoint_union(gs)
        assert (g.order, g.size) == (6, 6)

    def test_corona_sun(self):
        g = corona(cycle_graph(3), 1)
        assert (g.order, g.size) == (6, 6)

    def test_corona_identity(self):
        assert corona(cycle_graph(5), 0) == cycle_graph(5)

    def test_corona_counts(self):
        g = corona(cycle_graph(3), 2)
        assert (g.order, g.size) == (9, 9)

    @pytest.mark.parametrize("build, message", [
        (lambda: disjoint_union([]), "disjoint_union needs at least one component"),
        (lambda: corona(cycle_graph(3), -1), "corona requires n >= 0"),
    ])
    def test_rejects(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    @pytest.mark.parametrize("k", [3, 4, 5, 7])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_corona_equal_order_size(self, k, n):
        g = corona(cycle_graph(k), n)
        assert g.order == g.size


class TestRelabelDigraph:
    def test_names_become_labels(self):
        d = Digraph(2, [(1, 1), (1, 2)])
        r = relabel_digraph(d, [2, 1])
        assert r.arcs == frozenset({(2, 2), (2, 1)})

    @pytest.mark.parametrize("relabel", [relabel_digraph, adjacency_matrix])
    @pytest.mark.parametrize("names", [[2.0, 1.0], [True, 2]])
    def test_rejects_non_int_names(self, relabel, names):
        with pytest.raises(ValueError, match="bijection"):
            relabel(Digraph(2, [(1, 2)]), names)


class TestTextFormat:
    def test_graph_round_trip(self, rng):
        for _ in range(20):
            g = random_equal_order_size_graph(rng)
            assert parse_graph(format_graph(g)) == g

    def test_digraph_round_trip(self, rng):
        for _ in range(20):
            d = indegree_one_orientation(random_indegree_one_graph(rng))
            assert parse_digraph(format_digraph(d)) == d

    def test_comments_and_blanks(self):
        text = "# a loop-star\n2 2  # header\n\n1 1\n1 2\n"
        assert parse_graph(text) == star_with_loop(1)

    def test_autodetect(self):
        assert isinstance(parse_graph_or_digraph("1 1 d\n1 1\n"), Digraph)
        assert isinstance(parse_graph_or_digraph("1 1\n1 1\n"), Graph)

    @pytest.mark.parametrize("parse, message", [
        (parse_graph, "empty graph file"),
        (parse_digraph, "empty digraph file"),
        (parse_graph_or_digraph, "empty graph file"),
    ])
    def test_empty_file_rejected(self, parse, message):
        with pytest.raises(ValueError) as info:
            parse("# only a comment\n\n")
        assert str(info.value) == message

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            parse_graph("2 2\n1 2\n2 1\n")

    @settings(max_examples=400, deadline=None)
    @given(edge_list_texts())
    # a field that is not an integer: the line that holds it is quoted
    @example("2 1\n1 x\n")
    @example("2 1 d\n1 x\n")
    @example("2 1\n1 2.0\n")
    @example("a 2\n1 1\n2 2\n")
    @example("2 b d\n1 1\n")
    @example("2 2 d\n1 2\n1 y\n")
    def test_parse_matches_reference(self, text):
        try:
            directed, p, pairs = reference_parse_edge_list(text)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                parse_graph_or_digraph(text)
            assert str(info.value) == str(exc)
            return
        g = parse_graph_or_digraph(text)
        assert isinstance(g, Digraph) == directed and g.order == p
        assert (g.arcs if directed else g.edges) == pairs

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError):
            parse_graph("2 2\n1 2\n")
