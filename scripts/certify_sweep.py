"""Exhaust the loop-star unions of each order and print the worst case.

    python scripts/certify_sweep.py --min-order 16 --max-order 24

For each order p the sweep certifies every split lk1m+lk1n with m+n+2 = p
and 1 <= m <= n, plus l+lk1n and 2l+lk1n of order p, each through
``certify_not_sem`` under a cap of 20,000,000 nodes and no deadline.  It
prints one line per order: the instance that took the most nodes, its node
count and CPU seconds, and how many instances were exhausted, had a witness
or aborted.  After the last line it exits 1 if any instance of any order had
a witness or aborted, and 0 if every one was exhausted.

``DEFAULT_CERTIFY_BOUND`` is the largest order CI exhausts through
``certify_not_sem`` and the default ``--max-order``; a larger one is an
error, so to raise the bound, edit the constant, then sweep up to it.

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
from semforge.search import (  # noqa: E402
    DEFAULT_CERTIFY_BOUND,
    EXHAUSTED,
    ResourceBudget,
    certify_not_sem,
)

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
    parser.add_argument("--max-order", type=int, default=DEFAULT_CERTIFY_BOUND)
    args = parser.parse_args(argv)
    if args.min_order < 3:
        parser.error("the smallest union in the sweep, l+lk11, has order 3")
    if not args.min_order <= args.max_order <= DEFAULT_CERTIFY_BOUND:
        parser.error(f"--max-order must lie in [--min-order, {DEFAULT_CERTIFY_BOUND}]")
    all_exhausted = True
    for p in range(args.min_order, args.max_order + 1):
        outcomes = Counter()
        worst = None
        for tag, g in instances(p):
            start = time.process_time()
            report = certify_not_sem(g, ResourceBudget(NODE_CAP, math.inf))
            seconds = time.process_time() - start
            outcomes[report.outcome] += 1
            if worst is None or report.nodes > worst[1]:
                worst = (tag, report.nodes, seconds)
        tag, nodes, seconds = worst
        counts = ", ".join(f"{n} {outcome}" for outcome, n in sorted(outcomes.items()))
        print(f"p={p:<3} worst {tag:14} {nodes:>12,} nodes {seconds:7.2f} s   ({counts})",
              flush=True)
        all_exhausted = all_exhausted and outcomes.keys() == {EXHAUSTED}
    return 0 if all_exhausted else 1


if __name__ == "__main__":
    sys.exit(main())
