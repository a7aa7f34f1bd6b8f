"""Memtable bulk-load microbenchmark: two-tier index vs seed bisect.insort.

Measures a shuffled-unique-keys load through two paths: the frozen
ReferenceMemtable (per-record ``bisect.insort``) and the optimized
per-record ``add()`` -- each followed by ``sorted_records()`` so lazy
consolidation is paid inside the timing.
"""

if __name__ == "__main__":
    import sys

    from _harness import run_standalone

    sys.exit(run_standalone(["memtable"], __doc__))
