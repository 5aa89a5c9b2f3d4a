"""CLI surfacing of typed operational errors + the serve-bench command.

Typed errors escaping any subcommand become one clean line on stderr
and a distinct exit code (0/1/2 remain OK/gate-failure/usage), so
scripts and CI can switch on *what* failed without parsing messages.
"""

import json

import pytest

import repro.cli as cli
from repro.core.locks import LockTimeout
from repro.core.pool import OutOfChunks
from repro.serve.errors import Overloaded


class TestTypedErrorExits:
    @pytest.mark.parametrize("exc,code,label", [
        (Overloaded("admission"), 4, "Overloaded"),
        (LockTimeout(17, 250), 5, "LockTimeout"),
        (OutOfChunks("pool exhausted", capacity=64), 6, "OutOfChunks"),
    ])
    def test_exit_code_and_one_line_message(self, monkeypatch, capsys,
                                            exc, code, label):
        def raiser(args):
            raise exc
        monkeypatch.setattr(cli, "cmd_demo", raiser)
        assert cli.main(["demo"]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1           # one line, no traceback
        assert err.startswith(f"repro: {label}: ")

    def test_subclasses_map_to_the_base_code(self, monkeypatch, capsys):
        from repro.chaos.serve_faults import ShardFrozen

        def raiser(args):
            raise ShardFrozen(2, 900)
        monkeypatch.setattr(cli, "cmd_demo", raiser)
        assert cli.main(["demo"]) == 5        # it is a LockTimeout
        assert "frozen by chaos" in capsys.readouterr().err

    def test_unlisted_exceptions_still_raise(self, monkeypatch):
        def raiser(args):
            raise KeyError("not an operational error")
        monkeypatch.setattr(cli, "cmd_demo", raiser)
        with pytest.raises(KeyError):
            cli.main(["demo"])


class TestServeBenchCommand:
    def test_bad_mix_is_a_usage_error(self, capsys):
        assert cli.main(["serve-bench", "--mix", "50", "50", "0", "10"]) == 2
        assert "--mix" in capsys.readouterr().err

    def test_smoke_run_writes_artifacts(self, tmp_path, capsys):
        run = tmp_path / "run"
        code = cli.main([
            "serve-bench", "--structure", "gfsl@2", "--requests", "150",
            "--clients", "8", "--range", "512", "--rate", "800",
            "--admit-rate", "400", "--seed", "11", "--run-out", str(run)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "serve OK" in out
        assert f"wrote {run / 'summary.json'}" in out
        assert [p.name for p in run.iterdir()] == ["summary.json"]
        summary = json.loads((run / "summary.json").read_text())
        assert summary["config"]["structure"] == "gfsl@2"
        assert summary["config"]["load"]["seed"] == 11
        assert summary["verdict"]["ok"] is True
        histogram = summary["latency"]["histogram"]
        assert sum(histogram["point_us"].values()) \
            == histogram["point_samples"]
        assert summary["controller"] is None
        assert summary["migrations"] is None

    def test_old_artifact_flags_are_gone(self, capsys):
        for flag in ("--hist-out", "--bench-out", "--ctrl-out",
                     "--migration-out"):
            with pytest.raises(SystemExit) as exit_:
                cli.main(["serve-bench", flag, "x"])
            assert exit_.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_max_p99_gate_fails_closed(self, capsys):
        code = cli.main([
            "serve-bench", "--structure", "gfsl@2", "--requests", "150",
            "--clients", "8", "--range", "512", "--rate", "800",
            "--admit-rate", "400", "--seed", "11", "--max-p99", "0.5"])
        assert code == 1
        assert "exceeds the --max-p99 bound" in capsys.readouterr().err

    def test_elastic_without_adaptive_is_a_usage_error(self, capsys):
        code = cli.main([
            "serve-bench", "--structure", "pq@2", "--requests", "100",
            "--elastic"])
        assert code == 2
        assert "--elastic needs --adaptive" in capsys.readouterr().err

    def test_adaptive_without_admit_rate_is_a_usage_error(self, capsys):
        code = cli.main([
            "serve-bench", "--structure", "gfsl@2", "--requests", "100",
            "--adaptive", "--admit-rate", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("serve-bench: ") and "--admit-rate" in err

    def test_elastic_run_writes_the_migration_artifact(self, tmp_path,
                                                       capsys):
        run = tmp_path / "elastic"
        code = cli.main([
            "serve-bench", "--structure", "pq@2", "--requests", "400",
            "--clients", "8", "--range", "2048", "--mix", "30", "15",
            "50", "5", "--rate", "1200", "--deadline-steps", "6000",
            "--distribution", "front", "--seed", "11",
            "--admit-rate", "600", "--adaptive",
            "--control-interval", "100", "--elastic",
            "--partitioner", "range", "--headroom", "2.0",
            "--snapshot-audit", "--run-out", str(run)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "resharding: migrations=" in out
        summary = json.loads((run / "summary.json").read_text())
        assert summary["config"]["elastic"] is True
        mig = summary["migrations"]
        assert mig["migrations"] == summary["counters"]["migrations"] \
            == len([e for e in mig["events"] if e["status"] == "published"])
        assert len(mig["routing_history"]) == mig["migrations"]
        assert len(summary["controller"]["rates"]) == 2

    def test_zero_clients_is_a_usage_error(self, capsys):
        code = cli.main(["serve-bench", "--requests", "100",
                         "--clients", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "serve-bench: --clients must be at least 1\n"
