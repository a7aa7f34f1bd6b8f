"""Read-path microbenchmark: the scan planner vs the scalar heap merge.

``scan`` -- the vectorized plan/replay assembler against the frozen
generator heap merge (``reference_scan``) on a version- and
tombstone-heavy leveled store, proven result- and sim-clock-identical
inline before timing.  Point reads have one path and so no comparison
here; the repo benchmark's ``ycsb_c_iam`` carries their cost.
"""

if __name__ == "__main__":
    import sys

    from _harness import run_standalone

    sys.exit(run_standalone(["reads"], __doc__))
