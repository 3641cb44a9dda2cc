"""Tour of the lineage-strategy optimizer (§VII).

Profiles the genomics workflow once, then asks the ILP optimizer for the
best strategy mix under a sweep of storage budgets — reproducing in miniature
what Figure 7 measures.  Watch the plan shift from black-box-only to
payload stores to dual-orientation indexes as the budget loosens.

Run with::

    python examples/optimizer_tour.py
"""

import time

from repro.bench.genomics import GenomicsBenchmark
from repro.core.subzero import SubZero


def main() -> None:
    bench = GenomicsBenchmark(scale=20, seed=0)
    budgets_mb = (0.05, 0.5, 2, 10, 50)

    for budget in budgets_mb:
        sz = SubZero(bench.build_spec())
        sz.use_mapping_where_possible()
        instance = sz.profile(bench.inputs())  # gather statistics, store nothing
        workload = list(bench.queries(instance).values())
        result = sz.optimize(workload, max_disk_bytes=budget * 1e6)

        print(f"\n=== budget {budget} MB ===")
        print(f"  predicted: disk={result.est_disk_bytes / 1e6:.2f} MB, "
              f"runtime +{result.est_runtime_seconds:.3f}s, "
              f"query ~{result.est_query_seconds * 1e3:.2f} ms")
        for node, strategies in sorted(result.plan.items()):
            stored = [s.label for s in strategies if s.stores_pairs]
            if stored:
                print(f"  {node}: {', '.join(stored)}")

        # apply the plan and measure reality
        sz.run(bench.inputs())
        queries = bench.queries(sz.instance)
        total = 0.0
        for query in queries.values():
            start = time.perf_counter()
            sz.query(query)
            total += time.perf_counter() - start
        print(f"  measured: disk={sz.lineage_disk_bytes() / 1e6:.2f} MB, "
              f"4-query workload {total * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
