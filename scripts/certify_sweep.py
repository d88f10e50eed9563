"""Exhaust the loop-star unions of each order and print the worst case.

    python scripts/certify_sweep.py --min-order 16 --max-order 24

For each order p the sweep searches every split lk1m+lk1n with m+n+2 = p
and 1 <= m <= n, plus l+lk1n and 2l+lk1n of order p, each under a cap of
20,000,000 nodes and no deadline.  The search is the one ``certify_not_sem``
runs (``_sem_backtrack`` in ``first`` mode), called directly rather than
through ``find_sem`` and its order bounds, so that orders above
``DEFAULT_CERTIFY_BOUND`` can be measured; each witness is re-verified by
``verified_window``.  It prints one line per order: the instance that took
the most nodes, its node count and CPU seconds, and how many instances were
exhausted, had a witness or aborted.
``DEFAULT_CERTIFY_BOUND`` is the largest order whose worst case takes at
most 10 CPU seconds, capped at the first-mode order bound of ``find_sem``
(24), which is also the default ``--max-order``.

Run it from the root of a source checkout; it imports ``semforge`` from
``src/``.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from semforge.families import loop_graph, star_with_loop  # noqa: E402
from semforge.graphs import disjoint_union  # noqa: E402
from semforge.labelings import verified_window  # noqa: E402
from semforge.search import _sem_backtrack  # noqa: E402

NODE_CAP = 20_000_000


def instances(p: int):
    """``(tag, graph)`` for every loop-star union of order p in the sweep."""
    for m in range(1, (p - 2) // 2 + 1):
        n = p - 2 - m
        yield f"lk1{m}+lk1{n}", disjoint_union([star_with_loop(m), star_with_loop(n)])
    yield f"l+lk1{p - 2}", disjoint_union([loop_graph(), star_with_loop(p - 2)])
    if p >= 4:
        yield f"2l+lk1{p - 3}", disjoint_union([loop_graph()] * 2 + [star_with_loop(p - 3)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--min-order", type=int, default=3)
    parser.add_argument("--max-order", type=int, default=24)
    args = parser.parse_args(argv)
    if args.min_order < 3:
        parser.error("the smallest union in the sweep, l+lk11, has order 3")
    for p in range(args.min_order, args.max_order + 1):
        outcomes = Counter()
        worst = None
        for tag, g in instances(p):
            start = time.process_time()
            outcome, witnesses, nodes = _sem_backtrack(g, "first", NODE_CAP, math.inf)
            for w in witnesses:
                verified_window(g, w, f"witness of {tag}")
            seconds = time.process_time() - start
            outcomes[outcome] += 1
            if worst is None or nodes > worst[1]:
                worst = (tag, nodes, seconds)
        tag, nodes, seconds = worst
        counts = ", ".join(f"{n} {outcome}" for outcome, n in sorted(outcomes.items()))
        print(f"p={p:<3} worst {tag:14} {nodes:>12,} nodes {seconds:7.2f} s   ({counts})",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
