"""Crash coverage for the shared-storage mirror path.

Three new sites extend the crash matrix
(:data:`repro.faults.crash.CRASH_SITES`): ``pre-objstore-log`` (data
objects uploaded, cut entry not appended), ``post-objstore-log`` (cut
durable, cleanup not run) and ``mid-objstore-cleanup`` (victims picked,
deletes not issued).  After any of them the log must sit on a whole-entry
boundary, recovery must sweep objects whose cut never landed, and the
local durability contract is untouched.  The default matrix
(:func:`run_crash_matrix`) has no tier attached, so the new sites are
unreachable there and the matrix stays green unchanged.
"""

import pytest

from tests.conftest import tiny_iam_options, tiny_storage_options
from repro.db.iamdb import IamDB
from repro.faults.crash import (
    CRASH_SITES,
    CrashPoints,
    CrashSpec,
    SimulatedCrash,
    run_crash_matrix,
)
from repro.objstore import ObjStoreOptions, ObjStoreTier, SharedManifestLog, SimObjectStore

NEW_SITES = ("pre-objstore-log", "post-objstore-log", "mid-objstore-cleanup")


def _mirrored_db(node_tag="n0", store=None, log=None):
    db = IamDB("iam", engine_options=tiny_iam_options(),
               storage_options=tiny_storage_options())
    if store is None:
        store = SimObjectStore(db.runtime.clock, ObjStoreOptions.zero())
    if log is None:
        log = SharedManifestLog(store, "shard0/")
    tier = ObjStoreTier(db, log, node_tag=node_tag)
    return db, store, log, tier


def _write_until_crash(db, limit=4000):
    """Drive puts until the armed crash point fires; returns ops applied."""
    for i in range(limit):
        try:
            db.put((0x9E3779B97F4A7C15 * (i + 1)) % 2 ** 64, 16 + (i % 50))
        except SimulatedCrash:
            return i
    raise AssertionError("armed crash point never fired")


def test_new_sites_are_registered():
    for site in NEW_SITES:
        assert site in CRASH_SITES


@pytest.mark.parametrize("site", NEW_SITES)
def test_crash_at_site_leaves_whole_entries_and_recovers(site):
    db, store, log, tier = _mirrored_db()
    occurrence = 2 if site != "mid-objstore-cleanup" else 1
    cp = CrashPoints(site, occurrence)
    db.runtime.arm_crash_points(cp)
    _write_until_crash(db)
    assert cp.fired
    # The log is on a whole-entry boundary right now: every retained cut
    # is a complete entry whose objects all exist.
    assert log.verify() == []
    # Recover the node, then resync the tier like the cluster layer does:
    # fresh mirror map under a new node tag, log resynced from the store.
    tier.detach()
    db.crash_and_recover(CrashSpec(torn_tail_records=0))
    tier2 = ObjStoreTier(db, log, node_tag="n1")
    report = tier2.recover()
    assert report["cuts"] == len(log.cuts)
    assert log.verify() == []
    if site == "pre-objstore-log":
        # Uploads landed but the cut never did: recovery swept them.
        assert report["orphans_swept"] > 0
    # Life goes on: more writes, a flush, a fresh durable cut.
    before = log.latest_cut().cut_id if log.latest_cut() else 0
    for i in range(40):
        db.put((0x9E3779B97F4A7C15 * (i + 1)) % 2 ** 64, 200 + i)
    db.flush()
    db.quiesce()
    cut = log.latest_cut()
    assert cut is not None and cut.cut_id > before
    assert cut.seq == db._seq
    assert log.verify() == []
    db.check_invariants()
    db.close()


def test_crash_between_upload_and_append_never_loses_local_writes():
    """The mirror is redundancy, not the write path: local durability holds."""
    db, store, log, tier = _mirrored_db()
    cp = CrashPoints("pre-objstore-log", 1)
    db.runtime.arm_crash_points(cp)
    model = {}
    applied = 0
    for i in range(4000):
        key = (0x9E3779B97F4A7C15 * (i + 1)) % 2 ** 64
        try:
            db.put(key, 16 + (i % 50))
        except SimulatedCrash:
            break
        model[key] = 16 + (i % 50)
        applied += 1
    assert cp.fired
    tier.detach()
    report = db.crash_and_recover(CrashSpec(torn_tail_records=0))
    # Untorn recovery: every acked write survives the mirror-path crash.
    assert report.recovered_seq >= applied
    for key, want in sorted(model.items()):
        assert db.get(key) == want
    db.check_invariants()
    db.close()


def test_default_crash_matrix_stays_green():
    """Without a tier the new sites are unreachable; the matrix is unchanged."""
    report = run_crash_matrix(engines=("iam",), n_ops=120, per_site=1,
                              seed=3)
    assert report["n_failures"] == 0
    assert report["n_cases"] > 0
    for site in NEW_SITES:
        assert report["sites"]["iam"].get(site, 0) == 0
