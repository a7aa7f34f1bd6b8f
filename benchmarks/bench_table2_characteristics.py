"""Table 2 + §6.8: characteristics of trees with appends.

* worst write case avoided: LSA/IAM bound flush fan-out near 2t; FLSM's
  guard fan-in is unbounded by design.
* good sequential writes: LSA/IAM/LSM load ordered data with WA ~ 1
  (metadata-only moves); FLSM rewrites at every level (paper: WA 6.42,
  ~6.7x fewer IOPS than LevelDB).
* scan support: every engine but LSM-trie scans (FLSM through its guard
  chains); LSM-trie is hash-based and refuses scans.
"""

import pytest

from benchmarks._util import run_once, save_result
from repro.bench.harness import exp_flsm_seqwrite
from repro.bench.report import format_table
from repro.bench.scale import SSD_100G, make_db
from repro.workloads import hash_load


def _measure():
    from repro.bench.scale import KEY_SIZE
    from repro.common.options import LsaOptions
    from repro.db.iamdb import IamDB
    from repro.lsm.lsmtrie import TRIE_FANOUT
    from repro.workloads import fill_seq

    out = {}
    # Sequential-write behaviour (§6.8) -- including the LSM-trie row of
    # Table 2 (hashing scatters ordered input, so no move-down fast path).
    seq = exp_flsm_seqwrite(SSD_100G)
    trie = IamDB("lsmtrie", engine_options=LsaOptions(key_size=KEY_SIZE),
                 storage_options=SSD_100G.storage_options())
    seq["lsmtrie"] = fill_seq(trie, SSD_100G.n_records, quiesce=False)
    out["trie_max_children"] = trie.engine.max_children()
    out["trie_fanout_bound"] = TRIE_FANOUT
    trie.close()
    out["seq"] = {name: {"wa": rep.write_amplification,
                         "ops_per_s": rep.throughput}
                  for name, rep in seq.items()}
    # Worst-write-case avoidance under a skewless hash load.
    db = make_db("A-1t", SSD_100G)
    hash_load(db, SSD_100G.n_records // 2, quiesce=False)
    out["lsa_max_flush_fanout"] = db.engine.max_flush_fanout
    out["lsa_fanout_t"] = db.engine.options.fanout
    db.close()
    return out


def test_table2_characteristics(benchmark):
    out = run_once(benchmark, _measure)
    seq = out["seq"]
    rows = [[name, d["wa"], d["ops_per_s"]] for name, d in seq.items()]
    table = format_table(["engine", "seq-load WA", "seq-load ops/s"], rows,
                         title="Table 2 / §6.8 (measured): sequential writes")
    table += (f"\nLSA max flush fan-out: {out['lsa_max_flush_fanout']} "
              f"(bound 2t = {2 * out['lsa_fanout_t']})")
    table += (f"\nLSM-trie max children: {out['trie_max_children']} "
              f"(fixed fan-out = {out['trie_fanout_bound']})")
    save_result("table2", table)
    benchmark.extra_info.update(out)

    # Worst write case avoided: flush fan-out stays within the split bound
    # (LSA, §4.2.2) / the fixed trie fan-out (LSM-trie, by construction).
    assert out["lsa_max_flush_fanout"] <= 2 * out["lsa_fanout_t"] + 2
    assert out["trie_max_children"] <= out["trie_fanout_bound"]
    # Good sequential writes: LSA/IAM/LSM near WA 1; FLSM rewrites per level;
    # LSM-trie gains nothing from ordered input (hash placement, Table 2).
    for good in ("lsa", "iam", "leveldb"):
        assert seq[good]["wa"] < 1.5
    assert seq["flsm"]["wa"] > 2.5
    assert seq["lsmtrie"]["wa"] > 1.5
    # FLSM sequential load is several times slower (paper: 6.7x vs LevelDB).
    assert seq["flsm"]["ops_per_s"] < seq["leveldb"]["ops_per_s"] / 1.5


def test_scan_support_all_engines(benchmark):
    from repro.bench.scale import KEY_SIZE
    from repro.common.options import LsaOptions, LsmOptions
    from repro.db.iamdb import IamDB
    from repro.lsm import ScansUnsupportedError

    def scan_all():
        out = {}
        dbs = {cfg: make_db(cfg, SSD_100G) for cfg in ("L", "A-1t", "I-1t")}
        dbs["flsm"] = IamDB("flsm", engine_options=LsmOptions.leveldb(key_size=KEY_SIZE),
                            storage_options=SSD_100G.storage_options())
        for name, db in dbs.items():
            hash_load(db, 5000, quiesce=False)
            out[name] = len(db.scan(None, None, limit=500))
            db.close()
        return out

    counts = run_once(benchmark, scan_all)
    assert set(counts) == {"L", "A-1t", "I-1t", "flsm"}
    assert all(v == 500 for v in counts.values())
    trie = IamDB("lsmtrie", engine_options=LsaOptions(key_size=KEY_SIZE),
                 storage_options=SSD_100G.storage_options())
    hash_load(trie, 5000, quiesce=False)
    with pytest.raises(ScansUnsupportedError):
        trie.scan(None, None, limit=500)
    trie.close()
