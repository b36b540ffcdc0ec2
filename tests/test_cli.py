from __future__ import annotations

from pathlib import Path

import pytest

from icosim.cli import build_parser, main
from icosim.trace import Trace, parse_trace

from conftest import v1_body

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
WHALE = str(SCENARIO_DIR / "whale.tsv")
OK_SALE = "t=1\tu=3\tgranularity=1"
OK_CURVE = "p0=1\tpt=1\tpu=1"


def run_cli(*argv):
    return main(list(argv))


class TestRun:
    def test_clean_run_writes_trace(self, tmp_path, capsys):
        code = run_cli("run", WHALE, "--out", str(tmp_path))
        out = capsys.readouterr().out
        assert code == 0
        assert "final valuation: 79" in out
        assert "audit: clean over 3 blocks" in out
        written = tmp_path / "whale.trace.tsv"
        assert written.exists()
        assert f"trace written: {written}" in out
        parse_trace(written.read_text())      # well-formed, digest intact

    def test_audit_only_writes_nothing(self, tmp_path, capsys):
        code = run_cli("run", WHALE, "--audit-only", "--out", str(tmp_path))
        assert code == 0
        assert list(tmp_path.iterdir()) == []
        assert "trace written" not in capsys.readouterr().out

    def test_full_report_prints_the_trace(self, tmp_path, capsys):
        run_cli("run", WHALE, "--audit-only", "--report", "full",
                "--out", str(tmp_path))
        out = capsys.readouterr().out
        assert out.startswith("ico-trace\t2\n")
        assert "\ndigest\t" in out
        assert "scenario: whale.tsv" in out

    @pytest.mark.parametrize("command", ["run", "replay"])
    def test_seed_option_is_gone(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, WHALE, "--seed", "5")
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert run_cli("run", str(tmp_path / "absent.tsv")) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_scenario(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("ico-scenario\t1\nsale\tt=1\n")
        assert run_cli("run", str(bad)) == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("sale,curve,extra,line,message", [
        ("t=5\tu=3\tgranularity=1", "p0=1\tpt=1\tpu=1", "", 3, "InvalidCurve"),
        ("t=1\tu=3\tgranularity=1", "p0=1\tpt=2\tpu=1", "", 4, "InvalidCurve"),
        ("t=1\tu=3\tgranularity=0", "p0=1\tpt=1\tpu=1", "", 3,
         "NegativeAmount"),
        (OK_SALE, OK_CURVE, "gas\tblock_limit=-5\n", 6, "NegativeAmount"),
        # keys, amounts and stages checked once every record is read
        ("t=1\tu=3\tgranularity=1\textra=1", OK_CURVE, "", 3,
         "unknown sale key 'extra'"),
        ("t=1\tu=3", OK_CURVE, "", 3, "sale record needs granularity="),
        ("t=1\tu=three\tgranularity=1", OK_CURVE, "", 3,
         "expected an integer amount, got 'three'"),
        (OK_SALE, "p0=1\tpt=1", "", 4, "curve record needs pu="),
        (OK_SALE, "p0=1\tpt=1\tpu=1\tq=2", "", 4, "unknown curve key 'q'"),
        (OK_SALE, "p0=1\tpt=x\tpu=1", "", 4, "expected an integer or num/den"),
        (OK_SALE, OK_CURVE, "gas\tstore=5\tfuel=3\n", 6, "unknown gas key 'fuel'"),
        (OK_SALE, OK_CURVE, "gas\tstore=lots\n", 6,
         "expected an integer amount, got 'lots'"),
        (OK_SALE, OK_CURVE, "option\tturbo=1\n", 6, "unknown option key 'turbo'"),
        (OK_SALE, OK_CURVE, "option\tmin_bid_deadline=soon\n", 6,
         "expected an integer amount, got 'soon'"),
        (OK_SALE, OK_CURVE, "event\t0\ta\tbid\tv=1\tcap=5\nevent\t4\ta\twithdraw\n",
         7, "event stage 4 outside 0..3"),
        # option values outside their range
        (OK_SALE, OK_CURVE, "option\tpenalty_free_withdrawal=2\tmin_bid_deadline=-3\n",
         6, "penalty_free_withdrawal must be 0 or 1, got '2'"),
        (OK_SALE, OK_CURVE, "option\tpenalty_free_withdrawal=yes\n", 6,
         "penalty_free_withdrawal must be 0 or 1, got 'yes'"),
        (OK_SALE, OK_CURVE, "option\tmin_bid_deadline=-3\n", 6,
         "min_bid_deadline must be >= 0, got -3"),
    ])
    def test_invalid_config_exits_2_at_its_line(self, tmp_path, capsys, sale,
                                                curve, extra, line, message):
        bad = tmp_path / "bad.tsv"
        bad.write_text(f"ico-scenario\t1\n# comment\nsale\t{sale}\n"
                       f"curve\t{curve}\nseed\t1\n{extra}")
        assert run_cli("run", str(bad), "--audit-only") == 2
        if message.isidentifier():    # an error code, then its own message
            message += ": "
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: line {line}, column 1: {message}")

    def test_blackout_summary_predicts_the_gain(self, tmp_path, capsys):
        code = run_cli("run", str(SCENARIO_DIR / "blackout.tsv"),
                       "--audit-only", "--out", str(tmp_path))
        out = capsys.readouterr().out
        assert code == 0
        assert "predicted share gain from the blind tranche: 1/46" in out

    def test_poke_scenario_runs_clean(self, tmp_path, capsys):
        assert run_cli("run", str(SCENARIO_DIR / "poke.tsv"),
                       "--audit-only") == 0
        assert "audit: clean" in capsys.readouterr().out


class TestReplay:
    @pytest.fixture()
    def stored(self, tmp_path):
        run_cli("run", WHALE, "--out", str(tmp_path))
        return tmp_path / "whale.trace.tsv"

    def test_verified_replay(self, stored, capsys):
        capsys.readouterr()
        assert run_cli("replay", str(stored)) == 0
        assert "replay verified: digests match" in capsys.readouterr().out

    def test_format_1_trace_refused(self, stored, capsys):
        trace = parse_trace(stored.read_text())
        stored.write_text(Trace(body=v1_body(trace.body),
                                audit_lines=trace.audit_lines).render())
        assert stored.read_text().startswith("ico-trace\t1\n")
        assert run_cli("replay", str(stored)) == 2
        assert "not a ico-trace v2 file" in capsys.readouterr().err

    def test_edited_file_fails_the_digest(self, stored, capsys):
        text = stored.read_text().replace("v=50", "v=51")
        stored.write_text(text)
        assert run_cli("replay", str(stored)) == 1
        assert "digest mismatch" in capsys.readouterr().err

    def test_consistently_forged_file_diverges(self, stored, capsys):
        # re-sign the edited body so the envelope parses, then replay:
        # the fresh run cannot reproduce the forged records
        trace = parse_trace(stored.read_text())
        body = [line.replace("tokens=14", "tokens=15")
                if line.startswith("alloc\ta1") else line
                for line in trace.body]
        stored.write_text(Trace(body=body, audit_lines=trace.audit_lines).render())
        capsys.readouterr()
        assert run_cli("replay", str(stored)) == 1
        assert "replay diverged" in capsys.readouterr().out

    def test_missing_trace_file(self, tmp_path, capsys):
        assert run_cli("replay", str(tmp_path / "none.trace.tsv")) == 2


def test_out_dir_from_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ICOSIM_OUT", str(tmp_path / "deep" / "dir"))
    assert run_cli("run", WHALE) == 0
    assert (tmp_path / "deep" / "dir" / "whale.trace.tsv").exists()


def test_cached_parser_carries_no_state_between_calls(tmp_path, capsys):
    assert build_parser() is build_parser()
    assert run_cli("run", WHALE, "--audit-only", "--report", "full",
                   "--out", str(tmp_path / "unused")) == 0
    full = capsys.readouterr().out
    assert full.startswith("ico-trace\t2\n") and "seed\t11" in full
    assert not (tmp_path / "unused").exists()
    # defaults come back: summary report, recorded seed, trace written
    assert run_cli("run", WHALE, "--out", str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert out.startswith("scenario: whale.tsv\n")
    assert "trace written" in out
    trace = parse_trace((tmp_path / "whale.trace.tsv").read_text())
    assert "seed\t11" in trace.scenario_lines
    digest = next(line for line in out.splitlines() if line.startswith("digest: "))
    assert digest == f"digest: {trace.digest}"
    assert run_cli("replay", str(tmp_path / "whale.trace.tsv")) == 0
    assert "replay verified" in capsys.readouterr().out
