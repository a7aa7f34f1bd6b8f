"""CLI surface: argument parsing and command execution."""

import pytest

from repro.cli import build_parser, main


def test_info_runs(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "REPRO_SCALE" in out
    assert "ssd-100g" in out


def test_load_small(capsys):
    assert main(["load", "--engine", "iam", "--records", "2000"]) == 0
    out = capsys.readouterr().out
    assert "hash load" in out
    assert "WA" in out


def test_load_sequential_lsa(capsys):
    assert main(["load", "--engine", "lsa", "--records", "2000",
                 "--sequential"]) == 0
    assert "fillseq" in capsys.readouterr().out


def test_ycsb_command(capsys):
    assert main(["ycsb", "--workload", "b", "--records", "2000",
                 "--ops", "200"]) == 0
    out = capsys.readouterr().out
    assert "YCSB-B" in out
    assert "read" in out


def test_compare_command(capsys):
    assert main(["compare", "--records", "2000",
                 "--engines", "L", "I-1t"]) == 0
    out = capsys.readouterr().out
    assert "I-1t" in out and "vs L" in out


def test_compare_rejects_unknown_config(capsys):
    assert main(["compare", "--records", "100", "--engines", "Z-9t"]) == 2


def test_experiment_rejects_unknown(capsys):
    with pytest.raises(SystemExit):
        main(["experiment", "nope"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_lsmtrie_engine_via_cli(capsys):
    assert main(["load", "--engine", "lsmtrie", "--records", "2000"]) == 0
    assert "lsmtrie" in capsys.readouterr().out


def test_cluster_command(capsys):
    assert main(["cluster", "ycsb", "--shards", "3", "--replicas", "2",
                 "--records", "2000", "--ops", "200", "--clients", "2"]) == 0
    out = capsys.readouterr().out
    assert "cluster YCSB-A" in out
    assert "per-shard" in out
    assert "imbalance" in out


def test_cluster_load_mode(capsys):
    assert main(["cluster", "load", "--shards", "2", "--replicas", "1",
                 "--records", "2000"]) == 0
    assert "cluster hash load" in capsys.readouterr().out


def test_cluster_report_is_byte_identical(tmp_path, capsys):
    argv = ["cluster", "ycsb", "--shards", "3", "--replicas", "2",
            "--records", "2000", "--ops", "200",
            "--faults", "kill=1:100,rate=0.002,seed=5"]
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(argv + ["--report", str(r1)]) == 0
    assert main(argv + ["--report", str(r2)]) == 0
    capsys.readouterr()
    assert r1.read_bytes() == r2.read_bytes()
    import json
    stats = json.loads(r1.read_text())
    assert stats["failovers"][0]["shard"] == 1
    assert stats["failovers"][0]["recovered_seq"] >= \
        stats["failovers"][0]["acked_seq"]


def test_cluster_trace_validates(tmp_path, capsys):
    trace = tmp_path / "cluster.json"
    assert main(["cluster", "ycsb", "--shards", "2", "--replicas", "1",
                 "--records", "2000", "--ops", "100",
                 "--trace", str(trace), "--validate"]) == 0
    out = capsys.readouterr().out
    assert "trace schema ok" in out
    assert trace.exists()


# ------------------------------------------------------ scheduling flags

@pytest.mark.parametrize("flag", [["--legacy-gate"],
                                  ["--scheduler", "fair"],
                                  ["--compaction-selector", "provider"]])
@pytest.mark.parametrize("command", [["load"], ["ycsb"], ["trace", "load"],
                                     ["cluster", "load"],
                                     ["objstore", "load"]])
def test_retired_scheduling_flags_are_rejected(command, flag, capsys):
    # One gate, one pump, one picker: the knobs that used to fork them
    # are gone from every workload command.
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(command + flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_retired_read_coalescing_flag_is_rejected(capsys):
    # One point-read path: there is no batching front door to switch on.
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["cluster", "ycsb", "--coalesce-reads"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
