"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Expected values are frozen from independent computation: windows by
direct summation, family sizes by brute arc-subset enumeration, witness
counts by unpruned permutation scans.
"""

import itertools
import random
import time

from semforge.families import (
    build_deer,
    build_mixed_loop_stars,
    build_odd_copies_lk1n,
    build_two_lk11_lk1n,
    build_two_lk1m_lk1n,
    cycle_graph,
    loop_graph,
    star_with_loop,
)
from semforge.graphs import (
    adjacency_matrix,
    corona,
    disjoint_union,
    indegree_one_orientation,
)
from semforge.labelings import (
    complement,
    complete_to_edge_magic,
    counterdiagonal_profile,
    identity_labeling,
    is_sem,
    rotate_pi,
    verify_edge_magic,
)
from semforge.product import (
    canonical_product_labeling,
    constant_assignment,
    corona_union_via_product,
    corona_iso_check,
    otimes_h,
)
from semforge.graphs import underlying
from semforge.search import (
    EXHAUSTED,
    WITNESS,
    certify_not_sem,
    enumerate_snk,
    exhaustive_sem_search,
    find_sem,
)

from conftest import random_equal_order_size_graph, reference_two_star_sem


def _finish(num, description, failures, elapsed=None, limit=None):
    status = "PASS" if not failures else "FAIL"
    timing = f" [{elapsed:.1f}s < {limit:.0f}s]" if elapsed is not None else ""
    detail = "" if not failures else f" ({len(failures)} failures, first: {failures[0]})"
    print(f"[criterion {num}] {status}: {description}{timing}{detail}")
    assert not failures, failures[:5]
    if limit is not None:
        assert elapsed < limit, f"criterion {num} took {elapsed:.1f}s, limit {limit}s"


def _random_deer_specs(rng, count, max_spine=11, max_leaves=4):
    specs = []
    for _ in range(count):
        spine = rng.choice(range(1, max_spine + 1, 2))
        half = [rng.randint(0, max_leaves) for _ in range(spine // 2)]
        specs.append(half + [rng.randint(0, max_leaves)] + half[::-1])
    return specs


def test_criterion_1_constructive_grids():
    start = time.monotonic()
    failures = []

    def check(tag, cert):
        ok, window = is_sem(cert.graph, cert.labeling)
        if not (ok and window == cert.window and cert.graph.order == cert.graph.size):
            failures.append(tag)

    for n in range(1, 201):
        check(f"2lk11-lk1n n={n}", build_two_lk11_lk1n(n))
    for m in range(1, 51):
        for n in range(1, 51):
            check(f"2lk1m-lk1n m={m} n={n}", build_two_lk1m_lk1n(m, n))
    for s in range(0, 11):
        for n in range(1, 21):
            check(f"odd-lk1n s={s} n={n}", build_odd_copies_lk1n(s, n))
    for s in range(1, 9):
        for m in range(1, 9):
            for n in range(1, 9):
                check(f"thm24 m={m} n={n} s={s}", build_mixed_loop_stars(m, n, s))
    rng = random.Random(2024)
    for spec in _random_deer_specs(rng, 200):
        check(f"deer {spec}", build_deer(spec))
    elapsed = time.monotonic() - start
    _finish(1, "family constructor grids verify SEM exactly", failures, elapsed, 10.0)


def test_criterion_2_pinned_instances():
    failures = []
    cert = build_two_lk11_lk1n(1)
    if cert.labeling.labels[:5] != (3, 6, 5, 2, 4):
        failures.append(f"centers/partners got {cert.labeling.labels}")
    if cert.window.as_pair() != [5, 10]:
        failures.append(f"window got {cert.window.as_pair()}")
    seven = build_odd_copies_lk1n(3, 3)
    values = {
        "f(v_1)": (seven.labeling.of(1), 4),
        "f(v_5^1)": (seven.labeling.of(18), 1),
        "f(v_1^1)": (seven.labeling.of(2), 11),
    }
    for name, (got, want) in values.items():
        if got != want:
            failures.append(f"{name} = {got}, expected {want}")
    _finish(2, "pinned instances reproduce their exact labels", failures)


def test_criterion_3_nonexistence_certificates():
    start = time.monotonic()
    failures = []
    instances = []  # (tag, leaf counts of the loop-stars)
    for m in range(1, 23):
        for n in range(1, 23):
            if m + n + 2 <= 24:
                instances.append((f"lk1{m}+lk1{n}", [m, n]))
    for n in range(1, 23):
        instances.append((f"l+lk1{n}", [0, n]))
    for n in range(1, 22):
        instances.append((f"2l+lk1{n}", [0, 0, n]))
    # past the first-mode bound: every split of each order, as the sweep script runs them
    for p in [*range(25, 41), 100]:
        for m in range(1, (p - 2) // 2 + 1):
            instances.append((f"lk1{m}+lk1{p - 2 - m}", [m, p - 2 - m]))
        instances.append((f"l+lk1{p - 2}", [0, p - 2]))
        instances.append((f"2l+lk1{p - 3}", [0, 0, p - 3]))
    for tag, leaves in instances:
        g = disjoint_union([star_with_loop(n) for n in leaves])
        report = certify_not_sem(g)
        if report.outcome != EXHAUSTED:
            failures.append(f"{tag}: {report.outcome}")
        if reference_two_star_sem(leaves):
            failures.append(f"{tag}: the forced-matching oracle finds a SEM labeling")
        if g.order <= 8:
            count, _ = exhaustive_sem_search(g)
            if count != 0:
                failures.append(f"{tag}: unpruned scan found {count} witnesses")
    elapsed = time.monotonic() - start
    _finish(
        3,
        f"{len(instances)} non-existence instances of order <= 100 exhausted "
        "(each re-checked by the forced-matching oracle, order <= 8 also unpruned)",
        failures,
        elapsed,
        60.0,
    )


def test_criterion_4_pruning_soundness():
    failures = []
    rng = random.Random(777)
    for i in range(500):
        g = random_equal_order_size_graph(rng, max_order=7)
        pruned = find_sem(g, "all")
        count, _ = exhaustive_sem_search(g)
        if pruned.witness_count != count:
            failures.append(
                f"graph {i} (p={g.order}): pruned {pruned.witness_count} vs unpruned {count}"
            )
        if (pruned.outcome == WITNESS) != (count > 0):
            failures.append(f"graph {i}: existence disagreement")
    _finish(4, "pruned and unpruned searches agree on 500 random graphs", failures)


def test_criterion_5_product_closure():
    failures = []
    base = build_two_lk11_lk1n(1)
    hosts = [
        ("oriented C3", indegree_one_orientation(cycle_graph(3)), identity_labeling(3)),
        ("oriented LK12", indegree_one_orientation(star_with_loop(2)), identity_labeling(3)),
        ("three-star host", indegree_one_orientation(base.graph), base.labeling),
    ]
    for n in (1, 2, 3):
        for k in range(2, n + 2):
            family = enumerate_snk(n, k)
            if not family.members:
                failures.append(f"S_{n}^{k} unexpectedly empty")
                continue
            for host_name, host, host_lab in hosts:
                labeling = canonical_product_labeling(host, host_lab, family).labeling
                product = underlying(
                    otimes_h(host, constant_assignment(host), family)
                )
                ok, _ = is_sem(product, labeling)
                if not ok:
                    failures.append(f"{host_name} x S_{n}^{k} not SEM")
    if len(enumerate_snk(2, 2)) != 2:
        failures.append(f"|S_2^2| = {len(enumerate_snk(2, 2))}, expected 2")
    if len(enumerate_snk(2, 3)) != 2:
        failures.append(f"|S_2^3| = {len(enumerate_snk(2, 3))}, expected 2")
    _finish(5, "block labelings of products verify for n <= 3 families", failures)


def test_criterion_6_corona_isomorphism():
    start = time.monotonic()
    failures = []
    for k in range(3, 8):
        for n in range(1, 4):
            if not corona_iso_check(k, n):
                failures.append(f"k={k} n={n}")
    elapsed = time.monotonic() - start
    _finish(6, "cycle products match coronas for 3<=k<=7, 1<=n<=3", failures, elapsed, 10.0)


def _deer_specs_up_to_order(max_order):
    for spine in (1, 3, 5, 7, 9, 11):
        if spine > max_order:
            continue
        budget = max_order - spine
        half_len = spine // 2

        def rec(prefix, used):
            if len(prefix) == half_len:
                for mid in range(budget - used + 1):
                    yield list(prefix) + [mid] + list(reversed(prefix))
                return
            for c in range((budget - used) // 2 + 1):
                yield from rec(prefix + [c], used + 2 * c)

        yield from rec([], 0)


def _certified_outputs_up_to_order(max_order=12):
    for n in range(1, max_order - 4):
        if n + 5 <= max_order:
            yield build_two_lk11_lk1n(n)
    for m in range(1, 6):
        for n in range(1, 11):
            if 2 * m + n + 3 <= max_order:
                yield build_two_lk1m_lk1n(m, n)
    for s in range(0, 3):
        for n in range(1, 12):
            if (2 * s + 1) * (n + 1) <= max_order:
                yield build_odd_copies_lk1n(s, n)
    for s in range(1, 3):
        for m in range(1, 6):
            for n in range(1, 4):
                if 4 * s + m + 2 * n + 3 <= max_order:
                    yield build_mixed_loop_stars(m, n, s)
    for spec in _deer_specs_up_to_order(max_order):
        yield build_deer(spec)


def test_criterion_7_matrix_properties():
    failures = []
    count = 0
    for cert in _certified_outputs_up_to_order(12):
        count += 1
        oriented = indegree_one_orientation(cert.graph)
        mat = adjacency_matrix(oriented, cert.labeling)
        if not counterdiagonal_profile(mat).compliant:
            failures.append(f"{cert.provenance}: profile not compliant")
        if rotate_pi(mat) != adjacency_matrix(oriented, complement(cert.labeling)):
            failures.append(f"{cert.provenance}: rotation != complement relabeling")
    _finish(7, f"matrix diagnostics hold on {count} certified outputs of order <= 12",
            failures)


def test_criterion_8_corona_union_instances():
    start = time.monotonic()
    failures = []
    graph, labeling = corona_union_via_product("2lk11-lk1n", k=3, n=1)
    if labeling is None or not is_sem(graph, labeling)[0]:
        failures.append("2lk11-lk1n k=3 n=1")
    for s in (0, 1):
        graph, labeling = corona_union_via_product("odd-lk1n", k=3, s=s, n=1)
        if labeling is None or not is_sem(graph, labeling)[0]:
            failures.append(f"odd-lk1n k=3 s={s} n=1")
    sun4 = corona(cycle_graph(4), 1)
    report = find_sem(sun4)
    if report.outcome != WITNESS or not verify_edge_magic(
        sun4, complete_to_edge_magic(sun4, report.witness), require_super=True
    ):
        failures.append("C4 corona super edge-magic witness")
    elapsed = time.monotonic() - start
    _finish(8, "corona union instances verify (even cycle via a completed SEM witness)",
            failures, elapsed, 120.0)


def test_criterion_9_completion_identity():
    failures = []
    rng = random.Random(909)
    builders = [
        lambda r: build_two_lk11_lk1n(r.randint(1, 30)),
        lambda r: build_two_lk1m_lk1n(r.randint(1, 10), r.randint(1, 10)),
        lambda r: build_odd_copies_lk1n(r.randint(0, 4), r.randint(1, 6)),
        lambda r: build_mixed_loop_stars(r.randint(1, 5), r.randint(1, 5), r.randint(1, 5)),
        lambda r: build_deer(_random_deer_specs(r, 1)[0]),
    ]
    for i in range(100):
        cert = rng.choice(builders)(rng)
        full = complete_to_edge_magic(cert.graph, cert.labeling)
        if not verify_edge_magic(cert.graph, full, require_super=True):
            failures.append(f"pair {i} ({cert.provenance}): verification failed")
        expected = cert.graph.order + cert.graph.size + cert.window.s_min
        if full.magic_sum != expected:
            failures.append(
                f"pair {i} ({cert.provenance}): magic {full.magic_sum} != {expected}"
            )
    _finish(9, "100 random completions verify super with magic sum p+q+s", failures)
