"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.circuit import dump_file, ghz, load_file
from repro.cli import main


class TestInfo:
    def test_lists_routers_and_workloads(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "local" in out and "ats" in out
        assert "block_local" in out
        assert "backend" not in out


@pytest.mark.parametrize("command", ["route", "batch", "serve"])
def test_help_offers_no_backend_flag(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--rows" in out or "--workers" in out
    assert "--backend" not in out
    assert "--verify" not in out  # every served schedule is verified


class TestRoute:
    def test_default_routers(self, capsys):
        assert main(["route", "--rows", "4", "--cols", "4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        for name in ("local", "naive", "ats"):
            assert name in out
        assert "depth=" in out

    def test_single_router_with_show(self, capsys):
        rc = main(
            ["route", "--rows", "3", "--cols", "3", "--router", "local",
             "--workload", "block_local", "--show"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "schedule from local" in out
        assert "o" in out  # ASCII frame

    def test_fidelity_flag(self, capsys):
        rc = main(
            ["route", "--rows", "3", "--cols", "3", "--router", "naive",
             "--fidelity"]
        )
        assert rc == 0
        assert "est.success=" in capsys.readouterr().out

    def test_rejects_unknown_choices(self):
        with pytest.raises(SystemExit):
            main(["route", "--router", "bogus"])
        with pytest.raises(SystemExit):
            main(["route", "--workload", "bogus"])


class TestTranspile:
    def test_roundtrip(self, tmp_path, capsys):
        src = tmp_path / "in.qasm"
        out = tmp_path / "out.qasm"
        dump_file(ghz(6), str(src))
        rc = main(
            ["transpile", str(src), "--rows", "2", "--cols", "3",
             "--router", "local", "--out", str(out)]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "qasm" in text
        physical = load_file(str(out))
        assert physical.n_qubits == 6

    def test_error_reported_as_exit_code(self, tmp_path, capsys):
        src = tmp_path / "in.qasm"
        dump_file(ghz(9), str(src))
        rc = main(["transpile", str(src), "--rows", "2", "--cols", "2"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestSweep:
    def test_mini_sweep(self, capsys):
        rc = main(
            ["sweep", "--sizes", "4", "--seeds", "1", "--workloads", "random"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "depth (mean)" in out
        assert "router time (mean)" in out
