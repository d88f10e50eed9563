import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semforge import families, graphs
from semforge.errors import BadParam, ResourceLimit
from semforge.families import (
    FAMILIES,
    CertifiedLabeledGraph,
    _loop_stars,
    build_deer,
    build_mixed_loop_stars,
    build_odd_copies_lk1n,
    build_two_lk11_lk1n,
    build_two_lk1m_lk1n,
    caterpillar_graph,
    construct_family,
    cycle_graph,
    loop_graph,
    odd_cycle_labeling,
    star_with_loop,
)
from semforge.graphs import Graph, disjoint_union
from semforge.labelings import VertexLabeling, complement, is_sem


def assert_certified(cert):
    """Contract of every constructor: verified SEM, equal order and size."""
    ok, window = is_sem(cert.graph, cert.labeling)
    assert ok and window == cert.window
    assert cert.graph.order == cert.graph.size
    assert sorted(cert.labeling.labels) == list(range(1, cert.graph.order + 1))


class TestTwoLk11Lk1n:
    def test_fig_instance(self):
        cert = build_two_lk11_lk1n(1)
        assert cert.labeling.labels == (3, 6, 5, 2, 4, 1)
        assert cert.window.as_pair() == [5, 10]

    def test_big_star_leaves_take_remaining_labels(self):
        cert = build_two_lk11_lk1n(2)
        leaf_labels = {cert.labeling.of(6), cert.labeling.of(7)}
        assert leaf_labels == {1, 7}
        assert_certified(cert)

    def test_counts(self):
        cert = build_two_lk11_lk1n(4)
        assert (cert.graph.order, cert.graph.size) == (9, 9)

    def test_bad_param(self):
        # the check of build_two_lk1m_lk1n(1, n)
        with pytest.raises(BadParam, match=r"^need m, n >= 1, got m=1, n=0$"):
            build_two_lk11_lk1n(0)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 30])
    def test_grid(self, n):
        assert_certified(build_two_lk11_lk1n(n))


class TestTwoLk1mLk1n:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_m1_reduces_to_base(self, n):
        a = build_two_lk1m_lk1n(1, n)
        b = build_two_lk11_lk1n(n)
        assert a.graph == b.graph
        assert a.labeling == b.labeling

    def test_fig_instance(self):
        cert = build_two_lk1m_lk1n(3, 4)
        assert cert.graph.order == 13
        assert_certified(cert)

    def test_small_instance_order(self):
        # order is 2m+n+3: two (m+1)-vertex components plus an (n+1)-vertex one
        cert = build_two_lk1m_lk1n(2, 1)
        assert cert.graph.order == 8
        assert_certified(cert)

    @pytest.mark.parametrize("m,n", [(2, 2), (4, 1), (3, 6), (5, 5)])
    def test_grid(self, m, n):
        cert = build_two_lk1m_lk1n(m, n)
        assert cert.graph.order == 2 * m + n + 3
        assert_certified(cert)

    def test_bad_param(self):
        with pytest.raises(BadParam):
            build_two_lk1m_lk1n(0, 1)


class TestOddCopies:
    def test_formula_values(self):
        cert = build_odd_copies_lk1n(3, 3)
        assert cert.labeling.of(1) == 4      # first center
        assert cert.labeling.of(18) == 1     # first leaf of copy 5
        assert cert.labeling.of(2) == 11     # first leaf of copy 1

    def test_single_copy_is_identity(self):
        cert = build_odd_copies_lk1n(0, 2)
        assert cert.labeling.labels == (1, 2, 3)
        assert_certified(cert)

    def test_three_copies(self):
        cert = build_odd_copies_lk1n(1, 1)
        assert cert.graph.order == 6
        assert_certified(cert)

    def test_injected_permutation(self, rng):
        # s = 0: one loop-star, on which every bijection is SEM
        for _ in range(25):
            n = rng.randint(1, 6)
            labels = list(range(1, n + 2))
            rng.shuffle(labels)
            graph = build_odd_copies_lk1n(0, n).graph
            assert is_sem(graph, VertexLabeling(tuple(labels)))[0]

    def test_bad_param(self):
        with pytest.raises(BadParam, match=r"^need s >= 0 and n >= 1, got s=-1, n=1$"):
            build_odd_copies_lk1n(-1, 1)

    @pytest.mark.parametrize("s,n", [(0, 1), (1, 2), (2, 3), (4, 1), (3, 5)])
    def test_grid(self, s, n):
        cert = build_odd_copies_lk1n(s, n)
        assert cert.graph.order == (2 * s + 1) * (n + 1)
        assert_certified(cert)


class TestMixedLoopStars:
    def test_smallest(self):
        cert = build_mixed_loop_stars(1, 1, 1)
        assert cert.graph.order == 10
        assert_certified(cert)

    def test_bigger(self):
        cert = build_mixed_loop_stars(3, 2, 2)
        assert cert.graph.order == 18
        assert_certified(cert)

    @pytest.mark.parametrize("m,n,s", [(1, 2, 1), (2, 1, 2), (4, 4, 3), (2, 3, 1)])
    def test_grid_and_range_identity(self, m, n, s):
        cert = build_mixed_loop_stars(m, n, s)
        assert cert.graph.order == 4 * s + m + 2 * n + 3
        # the scheme's label range has exactly order-many values
        assert (4 * s + m + 5) - (-2 * n + 3) + 1 == cert.graph.order
        assert_certified(cert)

    def test_bad_param(self):
        with pytest.raises(BadParam):
            build_mixed_loop_stars(1, 1, 0)


def _loop_star_grid():
    """Criterion 1's loop-star grids, in its loop order."""
    for n in range(1, 201):
        yield build_two_lk11_lk1n(n)
    for m in range(1, 51):
        for n in range(1, 51):
            yield build_two_lk1m_lk1n(m, n)
    for s in range(0, 11):
        for n in range(1, 21):
            yield build_odd_copies_lk1n(s, n)
    for s in range(1, 9):
        for m in range(1, 9):
            for n in range(1, 9):
                yield build_mixed_loop_stars(m, n, s)


class TestPinnedLoopStarLabels:
    """Every label of the loop-star constructors, pinned.  A slip in a
    scheme's transcription that still verifies SEM changes these."""

    def test_grid_digest(self):
        digest = hashlib.sha256()
        for cert in _loop_star_grid():
            record = {"provenance": cert.provenance, "labels": list(cert.labeling.labels),
                      "window": cert.window.as_pair()}
            digest.update((json.dumps(record) + "\n").encode())
        assert digest.hexdigest() == (
            "c5a36771b03595e682f789817249895a8806eb10add3d1760a538285d57ddbe4"
        )

    @pytest.mark.parametrize("build, args, labels, window", [
        # m-star [5, 10], n-stars [4, 9] and [6, 1], one-leaf stars [3, 8], [7, 2]
        (build_mixed_loop_stars, (1, 1, 1), (5, 10, 4, 9, 6, 1, 3, 8, 7, 2), [6, 15]),
        # [3, 6, 0, -2], [5, 2, -1, -3], [4, 1, 7], each shifted by 4
        (build_two_lk1m_lk1n, (3, 2), (7, 10, 4, 2, 9, 6, 3, 1, 8, 5, 11), [9, 19]),
    ], ids=["thm24(1,1,1)", "2lk1m-lk1n(3,2)"])
    def test_full_vector(self, build, args, labels, window):
        cert = build(*args)
        assert (cert.labeling.labels, cert.window.as_pair()) == (labels, window)


class TestDeer:
    def test_smallest_deer_is_loop(self):
        cert = build_deer([0])
        assert cert.graph == loop_graph()
        assert cert.labeling.labels == (1,)

    def test_five_spine(self):
        cert = build_deer([1, 0, 2, 0, 1])
        assert cert.graph.order == 9
        assert_certified(cert)

    def test_seven_spine(self):
        cert = build_deer([1, 0, 2, 1, 2, 0, 1])
        assert cert.graph.order == 14
        assert_certified(cert)

    @pytest.mark.parametrize("counts, message", [
        ([1, 0], "deer spine length must be odd and at least 1"),
        ([], "deer spine length must be odd and at least 1"),
        ([1, 0, 2], "leaf counts must be palindromic"),
        # the deer checks come first, so the negative count goes unnamed
        ([-1, 0, 1], "leaf counts must be palindromic"),
        ([-1], "leaf counts must be non-negative"),
    ])
    def test_invalid_specs(self, counts, message):
        with pytest.raises(BadParam, match=f"^{message}$"):
            build_deer(counts)

    @pytest.mark.parametrize("counts", [[1.7], [True], [1, "0", 1]])
    def test_rejects_non_int_counts(self, counts):
        with pytest.raises(ValueError, match="integers"):
            build_deer(counts)

    def test_random_specs(self, rng):
        for _ in range(40):
            spine = rng.choice([1, 3, 5, 7])
            half = [rng.randint(0, 3) for _ in range(spine // 2)]
            counts = half + [rng.randint(0, 3)] + half[::-1]
            assert_certified(build_deer(counts))

    @pytest.mark.parametrize("counts, labels", [
        ([0], (1,)),
        ([3], (1, 2, 3, 4)),
        ([1, 0, 1], (1, 4, 2, 3, 5)),
        ([2, 1, 2], (1, 6, 3, 4, 5, 2, 7, 8)),
        ([1, 0, 2, 0, 1], (1, 5, 2, 8, 3, 4, 6, 7, 9)),
        ([0, 3, 0], (1, 6, 5, 2, 3, 4)),
        ([1, 0, 2, 1, 2, 0, 1], (1, 7, 2, 10, 4, 13, 5, 6, 8, 9, 3, 11, 12, 14)),
    ])
    def test_pinned_labels(self, counts, labels):
        assert build_deer(counts).labeling.labels == labels

    def test_every_small_palindromic_spec(self):
        # the sweep verifies on every spec, so build_deer never raises
        # VerificationFailed: spine <= 9, leaf counts <= 3
        built = 0
        for half_len in range(5):
            for half in itertools.product(range(4), repeat=half_len):
                for mid in range(4):
                    counts = [*half, mid, *half[::-1]]
                    cert = build_deer(counts)
                    assert cert.graph.order == cert.graph.size == len(counts) + sum(counts)
                    built += 1
        assert built == 4 * (1 + 4 + 16 + 64 + 256)


class TestComplementOfOutputs:
    @pytest.mark.parametrize(
        "cert_fn",
        [
            lambda: build_two_lk11_lk1n(3),
            lambda: build_two_lk1m_lk1n(2, 3),
            lambda: build_odd_copies_lk1n(1, 2),
            lambda: build_mixed_loop_stars(2, 2, 1),
            lambda: build_deer([2, 1, 2]),
        ],
    )
    def test_complement_still_sem(self, cert_fn):
        cert = cert_fn()
        ok, _ = is_sem(cert.graph, complement(cert.labeling))
        assert ok


class TestPrimitives:
    def test_star_counts(self):
        g = star_with_loop(3)
        assert (g.order, g.size) == (4, 4)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=6))
    def test_loop_stars_are_the_union_of_stars(self, counts):
        stars = [star_with_loop(c) for c in counts]
        assert stars == [Graph(c + 1, [(1, j) for j in range(1, c + 2)]) for c in counts]
        assert _loop_stars(counts) == disjoint_union(stars)

    def test_cycle_counts(self):
        g = cycle_graph(5)
        assert (g.order, g.size) == (5, 5)

    def test_loop_counts(self):
        g = loop_graph()
        assert (g.order, g.size) == (1, 1)

    def test_caterpillar(self):
        g = caterpillar_graph([1, 0, 1])
        assert (g.order, g.size) == (5, 4)

    @pytest.mark.parametrize("build, message", [
        (lambda: cycle_graph(2), "cycle needs k >= 3, got 2"),
        (lambda: caterpillar_graph([]), "caterpillar needs at least one spine vertex"),
        (lambda: caterpillar_graph([1, -1]), "leaf counts must be non-negative"),
    ])
    def test_bad_params(self, build, message):
        with pytest.raises(BadParam) as info:
            build()
        assert str(info.value) == message

    @pytest.mark.parametrize("counts", [[2.9, "1"], [True], [1, 0.0]])
    def test_caterpillar_rejects_non_int_counts(self, counts):
        with pytest.raises(BadParam, match="integers"):
            caterpillar_graph(counts)

    def test_dispatch(self):
        assert construct_family("l") == loop_graph()
        assert construct_family("lk1n", {"n": 3}) == star_with_loop(3)
        assert construct_family("cycle", {"k": 4}) == cycle_graph(4)
        assert construct_family("caterpillar", spec=[1, 0, 1]) == caterpillar_graph([1, 0, 1])
        with pytest.raises(BadParam):
            construct_family("nope")

    @pytest.mark.parametrize("k", [3, 5, 7, 9])
    def test_odd_cycle_labeling(self, k):
        lab = odd_cycle_labeling(k)
        ok, window = is_sem(cycle_graph(k), lab)
        assert ok and window.width == k

    def test_odd_cycle_rejects_even(self):
        with pytest.raises(BadParam):
            odd_cycle_labeling(4)


class TestConstructFamilyDispatch:
    def test_certified(self):
        cert = construct_family("2lk11-lk1n", {"n": 1})
        assert cert.labeling.labels == (3, 6, 5, 2, 4, 1)

    def test_deer_via_spec(self):
        cert = construct_family("deer", spec=[1, 0, 1])
        assert cert.graph.order == 5

    def test_primitive(self):
        assert construct_family("cycle", {"k": 3}) == cycle_graph(3)

    def test_missing_params(self):
        with pytest.raises(BadParam):
            construct_family("2lk1m-lk1n", {"m": 2})

    def test_unknown(self):
        with pytest.raises(BadParam):
            construct_family("wat")


MINIMAL_ARGS = {"n": 1, "k": 3, "m": 1, "s": 1, "spec": [1]}


def _own_args(name):
    """The ``(params, spec)`` of MINIMAL_ARGS that family ``name`` takes."""
    arg_names = FAMILIES[name][0]
    params = {a: MINIMAL_ARGS[a] for a in arg_names if a != "spec"}
    return params, MINIMAL_ARGS["spec"] if "spec" in arg_names else None


class TestFamiliesTable:
    def test_names(self):
        assert set(FAMILIES) == {
            "l", "lk1n", "cycle", "caterpillar", "deer",
            "2lk11-lk1n", "2lk1m-lk1n", "odd-lk1n", "thm24",
        }

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_builds_with_minimal_params(self, name):
        arg_names, build, primitive = FAMILIES[name]
        result = construct_family(name, *_own_args(name))
        assert result == build(*(MINIMAL_ARGS[a] for a in arg_names))
        # the flag a request for a labeling is refused by, before building
        assert isinstance(result, CertifiedLabeledGraph) is not primitive

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_refuses_what_it_does_not_take(self, name):
        params, spec = _own_args(name)
        with pytest.raises(BadParam, match=rf"^{name} does not take x; it takes "):
            construct_family(name, {**params, "x": 7}, spec)
        # a "spec" key in params is refused even by a family that takes a spec
        with pytest.raises(BadParam, match=rf"^{name} does not take spec; it takes "):
            construct_family(name, {**params, "spec": [1]}, spec)
        if spec is None:
            with pytest.raises(BadParam, match=rf"^{name} does not take --spec; it takes "):
                construct_family(name, params, [1])

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_each_missing_param_is_bad_param(self, name):
        # a "spec" key in params never stands in for the spec argument
        arg_names = FAMILIES[name][0]
        for missing in arg_names:
            params = {a: v for a, v in MINIMAL_ARGS.items() if a != missing or a == "spec"}
            spec = None if missing == "spec" else MINIMAL_ARGS["spec"]
            with pytest.raises(BadParam, match=f"{name} needs"):
                construct_family(name, params, spec)


# (family, params, spec) at order 12 and above it, for a bound of 12; an
# odd-lk1n union has an order divisible by 2s+1, so its next order is 15
BOUND_CASES = [
    ("lk1n", {"n": 11}, None, {"n": 12}, None),
    ("cycle", {"k": 12}, None, {"k": 13}, None),
    ("caterpillar", {}, [3, 3, 3], {}, [3, 4, 3]),
    ("deer", {}, [3, 3, 3], {}, [3, 4, 3]),
    ("2lk11-lk1n", {"n": 7}, None, {"n": 8}, None),
    ("2lk1m-lk1n", {"m": 2, "n": 5}, None, {"m": 2, "n": 6}, None),
    ("odd-lk1n", {"s": 1, "n": 3}, None, {"s": 1, "n": 4}, None),
    ("thm24", {"m": 1, "n": 2, "s": 1}, None, {"m": 2, "n": 2, "s": 1}, None),
]


class TestBuildBound:
    """The bound is monkeypatched to 12, so a regression allocates nothing large."""

    @pytest.fixture(autouse=True)
    def small_bound(self, monkeypatch):
        monkeypatch.setattr(graphs, "BUILD_ORDER_BOUND", 12)

    @pytest.mark.parametrize("name, at, at_spec, above, above_spec", BOUND_CASES,
                             ids=[case[0] for case in BOUND_CASES])
    def test_bound_is_inclusive(self, name, at, at_spec, above, above_spec):
        result = construct_family(name, at, at_spec)
        assert getattr(result, "graph", result).order == 12
        with pytest.raises(ResourceLimit, match=r"^construction bound is order <= 12, got 1[35]$"):
            construct_family(name, above, above_spec)

    @pytest.mark.parametrize("name, params", [
        ("2lk1m-lk1n", {"m": 4, "n": 4}),
        ("odd-lk1n", {"s": 2, "n": 4}),
        ("thm24", {"m": 1, "n": 1, "s": 10**9}),
    ])
    def test_union_is_checked_before_its_stars(self, name, params, monkeypatch):
        # every star is within the bound, but their union is not
        def no_star(n):
            raise AssertionError("a star was built above the bound")

        monkeypatch.setattr(families, "star_with_loop", no_star)
        monkeypatch.setattr(families, "_loop_stars", no_star)
        with pytest.raises(ResourceLimit, match="construction bound is order <= 12"):
            construct_family(name, params)
