"""Table-build microbenchmark: Bloom filters and sequences cut from one run.

Builds filters of 25 and 500 keys and 25-record sequences from slices of a
hashed columnar run -- the shape of a flush at the store's run sizes.
"""

if __name__ == "__main__":
    import sys

    from _harness import run_standalone

    sys.exit(run_standalone(["table"], __doc__))
