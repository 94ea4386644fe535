"""Tests for the command-line interface."""

import argparse
import json

import pytest

import repro.cli as tool_cli
from repro.cli import build_parser, main
from repro.errors import AnalysisError, TraceError


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "rodinia/bfs" in out
    assert "darknet" in out
    assert "Table 1 patterns" in out


def test_profile_command(capsys, tmp_path):
    dot = tmp_path / "graph.dot"
    json_path = tmp_path / "profile.json"
    code = main([
        "profile", "rodinia/backprop",
        "--scale", "0.125",
        "--coarse-only",
        "--dot", str(dot),
        "--json", str(json_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "ValueExpert report" in out
    assert dot.read_text().startswith("digraph")
    data = json.loads(json_path.read_text())
    assert data["workload"] == "rodinia/backprop"


def test_profile_platform_selection(capsys):
    main(["profile", "rodinia/hotspot", "--scale", "0.125",
          "--platform", "a100", "--coarse-only"])
    assert "A100" in capsys.readouterr().out


def test_profile_rejects_unknown_workload():
    with pytest.raises(SystemExit):
        main(["profile", "not-a-workload"])


def test_speedup_command(capsys):
    assert main(["speedup", "rodinia/backprop", "--scale", "0.25"]) == 0
    out = capsys.readouterr().out
    assert "RTX 2080 Ti" in out and "A100" in out
    assert "kernel" in out and "memory" in out


def test_figure3_command(capsys):
    assert main(["figure3"]) == 0
    out = capsys.readouterr().out
    assert "Figure 3b" in out


def test_figure3_rejects_scale(capsys):
    """Figure 3 is a fixed program; a --scale would be silently ignored."""
    with pytest.raises(SystemExit) as excinfo:
        main(["figure3", "--scale", "2"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --scale" in capsys.readouterr().err


def test_table1_command_small(capsys):
    assert main(["table1", "--scale", "0.125"]) == 0
    out = capsys.readouterr().out
    assert "rodinia/bfs" in out


def test_parser_covers_all_experiments():
    parser = build_parser()
    for command in ("table1", "table3", "table4", "table5",
                    "figure2", "figure3", "figure6", "casestudies"):
        args = parser.parse_args([command])
        assert args.command == command


def test_view_command_roundtrips(capsys, tmp_path):
    json_path = tmp_path / "p.json"
    html_path = tmp_path / "p.html"
    main([
        "profile", "rodinia/hotspot", "--scale", "0.125",
        "--coarse-only", "--json", str(json_path),
    ])
    capsys.readouterr()
    assert main(["view", str(json_path), "--html", str(html_path)]) == 0
    out = capsys.readouterr().out
    assert "ValueExpert report" in out
    assert html_path.read_text().startswith("<!DOCTYPE html>")


def test_fine_only_flag(capsys):
    assert main([
        "profile", "rodinia/huffman", "--scale", "0.125",
        "--fine-only", "--hot-kernels-only", "--kernel-period", "2",
    ]) == 0
    assert "ValueExpert report" in capsys.readouterr().out


def test_record_and_replay_commands(capsys, tmp_path):
    trace = tmp_path / "bfs.vetrace"
    assert main([
        "record", "rodinia/bfs", "--scale", "0.125", "--out", str(trace),
    ]) == 0
    out = capsys.readouterr().out
    assert "recorded" in out and str(trace) in out
    assert trace.exists()

    json_path = tmp_path / "replayed.json"
    assert main(["replay", str(trace), "--json", str(json_path)]) == 0
    out = capsys.readouterr().out
    assert "ValueExpert report" in out
    assert "rodinia/bfs" in out
    data = json.loads(json_path.read_text())
    assert data["workload"] == "rodinia/bfs"


def test_replay_gvprof_command(capsys, tmp_path):
    trace = tmp_path / "bfs.vetrace"
    main(["record", "rodinia/bfs", "--scale", "0.125", "--out", str(trace)])
    capsys.readouterr()
    assert main(["replay", str(trace), "--gvprof"]) == 0
    assert "GVProf report" in capsys.readouterr().out


def test_replay_kernel_filter(capsys, tmp_path):
    trace = tmp_path / "bp.vetrace"
    main(["record", "rodinia/backprop", "--scale", "0.125",
          "--out", str(trace)])
    capsys.readouterr()
    assert main([
        "replay", str(trace), "--fine-only",
        "--kernels", "bpnn_adjust_weights_cuda",
    ]) == 0
    assert "ValueExpert report" in capsys.readouterr().out


def test_record_default_output_name(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["record", "rodinia/bfs", "--scale", "0.125"]) == 0
    assert (tmp_path / "rodinia_bfs.vetrace").exists()


ALL_SUBCOMMANDS = (
    "list profile record replay speedup workflow view table1 table3 "
    "table4 table5 figure2 figure3 figure6 casestudies stats trace lint "
    "trace-diff"
).split()


def _subcommands():
    parser = build_parser()
    return next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices


def test_parser_lists_every_subcommand():
    assert list(_subcommands()) == ALL_SUBCOMMANDS


@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_profile_rejects_non_finite_scale(capsys, scale):
    assert main(["profile", "rodinia/bfs", "--scale", scale]) == 1
    err = capsys.readouterr().err
    assert err.startswith("repro: error: scale must be a finite positive")
    assert len(err.strip().splitlines()) == 1


def test_repro_cli_one_line_error_on_repro_error(capsys):
    code = main(["replay", "/no/such/file.vetrace"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("repro: error:")
    assert len(captured.err.strip().splitlines()) == 1


def test_repro_cli_debug_reraises():
    with pytest.raises(TraceError):
        main(["--debug", "replay", "/no/such/file.vetrace"])


def test_tool_cli_one_line_error_on_repro_error(capsys, monkeypatch):
    def boom(_args):
        raise AnalysisError("synthetic failure")

    monkeypatch.setattr(tool_cli, "_cmd_stats", boom)
    code = tool_cli.main(["stats", "rodinia/bfs"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "repro: error: synthetic failure\n"


def test_tool_cli_debug_reraises(monkeypatch):
    def boom(_args):
        raise AnalysisError("synthetic failure")

    monkeypatch.setattr(tool_cli, "_cmd_stats", boom)
    with pytest.raises(AnalysisError):
        tool_cli.main(["--debug", "stats", "rodinia/bfs"])



@pytest.fixture(scope="module")
def bfs_trace(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("traces") / "bfs.vetrace")
    assert main(
        ["record", "rodinia/bfs", "--scale", "0.125", "--out", path]
    ) == 0
    return path


def test_replay_prints_one_line_per_shard(bfs_trace, capsys):
    capsys.readouterr()
    assert main(["replay", bfs_trace, "--shards", "2"]) == 0
    out = capsys.readouterr().out
    assert "ValueExpert report" in out
    assert "sharded over 2 workers:" in out
    assert "  shard 0: events [0, " in out
    assert "  shard 1: events [" in out


@pytest.mark.parametrize("shards", ["0", "-1"])
def test_replay_rejects_nonpositive_shards(bfs_trace, capsys, shards):
    capsys.readouterr()
    assert main(["replay", bfs_trace, "--shards", shards]) == 1
    err = capsys.readouterr().err
    assert err.startswith("repro: error: shards must be at least 1")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["profile", "replay"])
def test_coarse_only_and_fine_only_are_exclusive(bfs_trace, capsys, command):
    target = "rodinia/bfs" if command == "profile" else bfs_trace
    with pytest.raises(SystemExit) as excinfo:
        main([command, target, "--coarse-only", "--fine-only"])
    assert excinfo.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        "[]",
        '"str"',
        '{"objects": [{"bogus": 1}]}',
        '{"hits": [{"x": 1}]}',
    ],
    ids=["not-json", "list", "string", "bad-object", "bad-hit"],
)
def test_view_of_malformed_profile_is_one_line_error(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["view", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("repro: error: malformed profile")
    assert len(err.strip().splitlines()) == 1


def test_view_of_missing_profile_is_one_line_error(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    assert main(["view", str(missing)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("repro: error: cannot open profile")
    assert len(err.strip().splitlines()) == 1
