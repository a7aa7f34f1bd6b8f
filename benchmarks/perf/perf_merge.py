"""Merge-kernel microbenchmark: the columnar merge_runs vs the seed heapq path.

Covers a 2-way and a 5-way merge and a 2-way merge under two live
snapshots, each against the frozen reference merge.
"""

if __name__ == "__main__":
    import sys

    from _harness import run_standalone

    sys.exit(run_standalone(["merge"], __doc__))
