"""YCSB workload specs and the op blocks."""

import gc
import itertools
import sys

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ConfigError
from repro.workloads import ycsb
from repro.workloads.distributions import permute64, permute64_many
from repro.workloads.runner import run_ycsb
from repro.workloads.ycsb import (
    INSERT, READ, RMW, SCAN, UPDATE, YCSB_WORKLOADS, YcsbSpec, op_blocks)
from tests.conftest import make_tiny_db
from tests.frozen_kernels import build_op_stream, frozen_op_blocks


def test_paper_workload_mixes():
    assert YCSB_WORKLOADS["A"].read == 0.5 and YCSB_WORKLOADS["A"].update == 0.5
    assert YCSB_WORKLOADS["B"].read == 0.95
    assert YCSB_WORKLOADS["C"].read == 1.0
    assert YCSB_WORKLOADS["D"].distribution == "latest"
    assert YCSB_WORKLOADS["E"].scan == 0.95 and YCSB_WORKLOADS["E"].max_scan_len == 100
    assert YCSB_WORKLOADS["F"].rmw == 0.5
    assert YCSB_WORKLOADS["G"].max_scan_len == 10_000


def test_spec_validation():
    with pytest.raises(ConfigError):
        YcsbSpec("bad", read=0.5)  # does not sum to 1
    with pytest.raises(ConfigError):
        YcsbSpec("bad", read=1.0, distribution="gaussian")
    with pytest.raises(ConfigError):
        YcsbSpec("bad", scan=1.0, max_scan_len=0)


@pytest.mark.parametrize("bad", [100.5, True, 100.0], ids=["float", "bool", "whole-float"])
def test_spec_refuses_a_non_int_max_scan_len(bad):
    # Once: 100.5 died mid-run in randrange, True made every scan one row
    # long, 100.0 warned (a TypeError on 3.12).  Now refused up front.
    with pytest.raises(ConfigError, match="max_scan_len must be an int"):
        YcsbSpec("bad", scan=1.0, max_scan_len=bad)


def _scan_lens(blocks):
    return [n for block in blocks for code, _, n in block if code == SCAN]


@given(seed=st.integers(0, 2 ** 32), n=st.sampled_from([1, 2, 3, 64, 100, 127, 128, 10_000]))
def test_the_inline_scan_length_draw_is_randrange(seed, n):
    # The draw is CPython's getrandbits rejection loop, inline: the lengths,
    # and every draw after them, are those of the frozen op_blocks, which
    # calls random.Random(...).randrange(1, n + 1).
    spec = YcsbSpec("S", scan=1.0, distribution="uniform", max_scan_len=n)
    got = list(op_blocks(spec, 12, 50, seed, 0, 0))
    assert got == list(frozen_op_blocks(spec, 12, 50, seed, 0, 0))
    assert all(1 <= length <= n for length in _scan_lens(got))


@pytest.mark.parametrize("name", ["E", "G"])
@pytest.mark.parametrize("seed", [11, 37])
def test_scan_op_blocks_equal_the_frozen_randrange_blocks(name, seed):
    spec = YCSB_WORKLOADS[name]
    for client, offset in ((0, 0), (1, 150)):
        got = list(op_blocks(spec, 2 * ycsb.KEYGEN_CHUNK + 7, 300, seed, client, offset))
        assert got == list(frozen_op_blocks(spec, 2 * ycsb.KEYGEN_CHUNK + 7, 300, seed,
                                            client, offset))
        assert len(set(_scan_lens(got))) > 20


def test_spec_refuses_negative_or_nan_fractions():
    with pytest.raises(ConfigError):
        YcsbSpec("bad", read=1.5, update=-0.5)  # sums to 1, ran all reads
    with pytest.raises(ConfigError):
        YcsbSpec("bad", read=float("nan"), update=1.0)


def _loaded_db(n=300):
    db = make_tiny_db("iam")
    for i in range(n):
        db.put(permute64(i), 64)
    return db


def test_run_ycsb_reports():
    db = _loaded_db()
    rep = run_ycsb(db, YCSB_WORKLOADS["A"], 300, 300, value_size=64)
    assert rep.ops == 300
    assert rep.throughput > 0
    assert "read" in rep.latency and "insert" in rep.latency


def test_op_mix_ratios_statistical():
    db = _loaded_db()
    reads_before = db.metrics.latency["read"].count
    run_ycsb(db, YCSB_WORKLOADS["B"], 1000, 300, value_size=64)
    reads = db.metrics.latency["read"].count - reads_before
    assert 900 <= reads <= 990  # ~95%


def test_insert_workload_grows_keyspace():
    db = _loaded_db()
    rep = run_ycsb(db, YCSB_WORKLOADS["D"], 600, 300, value_size=64)
    inserts = rep.latency.get("insert", {}).get("count", 0)
    assert inserts > 0


def test_scan_workload_runs_scans():
    db = _loaded_db()
    rep = run_ycsb(db, YCSB_WORKLOADS["E"], 200, 300, value_size=64)
    assert rep.latency["scan"]["count"] > 150


def test_rmw_reads_then_writes():
    db = _loaded_db()
    rep = run_ycsb(db, YCSB_WORKLOADS["F"], 400, 300, value_size=64)
    assert rep.latency["read"]["count"] > 0
    assert rep.latency["insert"]["count"] > 0


def test_op_stream_deterministic_per_seed():
    db1, db2 = _loaded_db(), _loaded_db()
    r1 = run_ycsb(db1, YCSB_WORKLOADS["A"], 300, 300, seed=5, value_size=64)
    r2 = run_ycsb(db2, YCSB_WORKLOADS["A"], 300, 300, seed=5, value_size=64)
    assert r1.latency["insert"]["count"] == r2.latency["insert"]["count"]
    assert db1.metrics.user_bytes == db2.metrics.user_bytes


def test_multi_client_interleaving_is_deterministic():
    db1, db2 = _loaded_db(), _loaded_db()
    r1 = run_ycsb(db1, YCSB_WORKLOADS["A"], 300, 300, seed=5, value_size=64,
                  clients=3)
    r2 = run_ycsb(db2, YCSB_WORKLOADS["A"], 300, 300, seed=5, value_size=64,
                  clients=3)
    assert r1.ops == r2.ops == 300
    assert r1.sim_seconds == r2.sim_seconds
    assert r1.latency == r2.latency


def test_multi_client_covers_all_ops_and_differs_from_single():
    db1, db2 = _loaded_db(), _loaded_db()
    r1 = run_ycsb(db1, YCSB_WORKLOADS["A"], 301, 300, seed=5, value_size=64)
    r2 = run_ycsb(db2, YCSB_WORKLOADS["A"], 301, 300, seed=5, value_size=64,
                  clients=4)
    assert r1.ops == r2.ops == 301  # uneven split still sums to n_ops
    # Different client count => different interleaving => different stream.
    assert r1.latency != r2.latency


STORE_CALLS = {READ: ["get"], UPDATE: ["put"], INSERT: ["put"], SCAN: ["scan"],
               RMW: ["get", "put"]}


def _logged_stream(spec, n_ops, n_records, client=0, key_offset=0,
                   insert_state=None):
    """One client's op blocks as the (op, key) store calls they make."""
    state, log = insert_state or {"inserted": n_records}, []
    for code, key, _ in itertools.chain(*op_blocks(spec, n_ops, n_records, 9,
                                                   client, key_offset)):
        if code == INSERT:
            key = permute64(state["inserted"])
            state["inserted"] += 1
        log += [(op, key) for op in STORE_CALLS[code]]
    return log


def test_client_zero_stream_matches_single_client():
    """Client 0 with no offset reproduces the single-stream op sequence."""
    spec = YCSB_WORKLOADS["A"]
    ops_a = _logged_stream(spec, 50, 300)
    ops_b = _logged_stream(spec, 50, 300, client=0, key_offset=0)
    assert ops_a == ops_b
    ops_c = _logged_stream(spec, 50, 300, client=1)
    assert ops_a != ops_c  # per-client RNG derivation


def test_key_offset_rotates_loaded_keyspace_only():
    from repro.workloads.distributions import permute64
    spec = YCSB_WORKLOADS["D"]  # latest: inserts grow the keyspace
    state = {"inserted": 100}
    log = _logged_stream(spec, 200, 100, client=1, key_offset=50,
                         insert_state=state)
    loaded = {permute64((i + 50) % 100) for i in range(100)}
    grown = {permute64(i) for i in range(100, state["inserted"] + 1)}
    for op, key in log:
        if op in ("get", "put"):
            assert key in loaded | grown
    assert state["inserted"] > 100  # shared insert state advanced


def _recording_db():
    """A tiny store whose get / put / scan log each call instead of running."""
    db, log = make_tiny_db("iam"), []
    for name in ("get", "put", "scan"):
        setattr(db, name, lambda *args, _name=name, **kw: log.append(
            (_name, args, kw, [type(a) for a in (*args, *kw.values())])))
    return db, log


MIXED_UNIFORM = YcsbSpec("U", read=0.3, update=0.2, insert=0.1, scan=0.2,
                         rmw=0.2, distribution="uniform", max_scan_len=7)


def _assert_blocks_issue_the_frozen_stream(spec, n_ops, n_records, clients):
    frozen_db, want = _recording_db()
    state = {"inserted": n_records}
    live = [build_op_stream(frozen_db, spec, (n_ops - c + clients - 1) // clients,
                            n_records, seed=9, value_size=64, client=c,
                            key_offset=(c * n_records) // clients, insert_state=state)
            for c in range(clients)]
    while live:  # a turn: each live client runs its next op, in client order
        live = [s for s in live if (op := next(s, None)) is not None and op() is None]
    db, got = _recording_db()
    assert run_ycsb(db, spec, n_ops, n_records, seed=9, value_size=64,
                    clients=clients).ops == n_ops
    assert got == want, (spec.name, n_ops, n_records, clients)
    # The shared insert counter handed out the frozen one's items, no more.
    puts = {args[0] for name, args, _, _ in got if name == "put"}
    assert puts - set(permute64_many(range(n_records))) == set(
        permute64_many(range(n_records, state["inserted"])))


@pytest.mark.parametrize("block", [4, 5, 6])
def test_op_blocks_issue_the_frozen_per_op_stream(monkeypatch, block):
    """A-G and a uniform mix, 1/3/4 clients, runs around block boundaries."""
    monkeypatch.setattr(ycsb, "KEYGEN_CHUNK", block)
    for spec, clients, n_records in itertools.product(
            [*YCSB_WORKLOADS.values(), MIXED_UNIFORM], (1, 3, 4), (1, 300)):
        for n_ops in {0, 1, block - 1, block, 2 * block + 5, clients * block - 1,
                      clients * block, clients * block + 1, clients * (2 * block + 5)}:
            _assert_blocks_issue_the_frozen_stream(spec, n_ops, n_records, clients)


@pytest.mark.parametrize("name, clients", [("A", 4), ("D", 1), ("E", 4), ("U", 1)])
def test_full_size_op_blocks_issue_the_frozen_per_op_stream(name, clients):
    _assert_blocks_issue_the_frozen_stream(YCSB_WORKLOADS.get(name, MIXED_UNIFORM),
                                           clients * (ycsb.KEYGEN_CHUNK + 1) + 1, 300, clients)


@pytest.mark.parametrize("workload, clients", [("C", 1), ("A", 4)])
def test_driver_calls_per_op_budget(workload, clients):
    """An op's calls ("call" + "c_call") besides a no-op store's: two serial
    draws, not the per-op closure, resume, ``sample`` and mixing (9-10)."""
    db, totals, n = make_tiny_db(), [], 2 * ycsb.KEYGEN_CHUNK
    db.get = db.put = db.scan = noop = lambda *args, **kw: None
    for n_ops in (n, 2 * n):
        totals.append(0)

        def profile(frame, event, arg):
            totals[-1] += event == "c_call" or (
                event == "call" and frame.f_code is not noop.__code__)
        gc.disable()
        sys.setprofile(profile)
        try:
            run_ycsb(db, YCSB_WORKLOADS[workload], n_ops, 300, clients=clients)
        finally:
            sys.setprofile(None)
            gc.enable()
    assert (totals[1] - totals[0]) / n <= 3
