from __future__ import annotations

import errno
import gc
import os
import stat
import threading
import weakref
from pathlib import Path

import pytest

from icosim.agents import run_scenario
from icosim.analysis import _Auditor, audit_trace
from icosim import cli, trace as trace_mod
from icosim.cli import _feed_stream, _Pipeline, build_parser, main
from icosim.errors import GasExhausted, ParseError
from icosim.scenario import parse as parse_scenario
from icosim.trace import Trace, parse_trace

from conftest import bench_module, random_spec, sized_scenario, v1_body

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
WHALE = str(SCENARIO_DIR / "whale.tsv")
OK_SALE = "t=1\tu=3\tgranularity=1"
OK_CURVE = "p0=1\tpt=1\tpu=1"


def run_cli(*argv):
    return main(list(argv))


def small_budget_scenario(u: int, block_limit: int, caps) -> str:
    """Unit bids at ``caps`` and one large bid, under a gas budget of
    ``block_limit`` pointer moves a block."""
    events = [f"event\t0\ta{cap}\tbid\tv=1\tcap={cap}" for cap in caps]
    return "\n".join([
        "ico-scenario\t1", f"sale\tt=1\tu={u}\tgranularity=1", f"curve\t{OK_CURVE}",
        f"gas\tblock_limit={block_limit}\tloop_base=0\tpointer_move=1\tstore=0"
        "\tbid_submit=0\tadvice_check=0",
        "seed\t1", *events, "event\t0\tw\tbid\tv=10\tcap=100"]) + "\n"


def spy_forks(monkeypatch, forking: bool) -> list[int]:
    """The body lines each run had taken when it forked its audit child: on
    two CPUs whatever the host has, or, unless ``forking``, never, as on a
    platform without ``os.fork``."""
    if not forking:
        monkeypatch.delattr(os, "fork", raising=False)
    elif not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    taken = []
    fork = _Pipeline._fork

    def spy(pipeline):
        taken.append(pipeline.auditor.line_no)
        fork(pipeline)
        assert pipeline.child  # in the parent, with the child running

    monkeypatch.setattr(_Pipeline, "_fork", spy)
    return taken


@pytest.fixture()
def forks(monkeypatch):
    """``spy_forks`` with the audit forked past one block."""
    return spy_forks(monkeypatch, True)


@pytest.fixture(params=["forked", "in-process"])
def audit_path(request, monkeypatch):
    """(forks, forking): each test once with the audit forked past one block
    and once in-process, which must behave the same."""
    forking = request.param == "forked"
    return spy_forks(monkeypatch, forking), forking


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

    @pytest.mark.parametrize("sale,curve,extra,line,column,message", [
        ("t=5\tu=3\tgranularity=1", "p0=1\tpt=1\tpu=1", "", 3, 1, "InvalidCurve"),
        ("t=1\tu=3\tgranularity=1", "p0=1\tpt=2\tpu=1", "", 4, 1, "InvalidCurve"),
        ("t=1\tu=3\tgranularity=0", "p0=1\tpt=1\tpu=1", "", 3, 1,
         "NegativeAmount"),
        (OK_SALE, OK_CURVE, "gas\tblock_limit=-5\n", 6, 1, "NegativeAmount"),
        # keys and amounts name their record's line; stages are checked once
        # every record is read
        ("t=1\tu=3\tgranularity=1\textra=1", OK_CURVE, "", 3, 28,
         "unknown sale key 'extra'"),
        ("t=1\tu=3", OK_CURVE, "", 3, 1, "sale record needs granularity="),
        ("t=1\tu=three\tgranularity=1", OK_CURVE, "", 3, 10,
         "expected an integer amount, got 'three'"),
        (OK_SALE, "p0=1\tpt=1", "", 4, 1, "curve record needs pu="),
        (OK_SALE, "p0=1\tpt=1\tpu=1\tq=2", "", 4, 22, "unknown curve key 'q'"),
        (OK_SALE, "p0=1\tpt=x\tpu=1", "", 4, 12, "expected an integer or num/den"),
        (OK_SALE, OK_CURVE, "gas\tstore=5\tfuel=3\n", 6, 13, "unknown gas key 'fuel'"),
        (OK_SALE, OK_CURVE, "gas\tstore=lots\n", 6, 5,
         "expected an integer amount, got 'lots'"),
        (OK_SALE, OK_CURVE, "option\tturbo=1\n", 6, 8, "unknown option key 'turbo'"),
        (OK_SALE, OK_CURVE, "option\tmin_bid_deadline=soon\n", 6, 8,
         "expected an integer amount, got 'soon'"),
        (OK_SALE, OK_CURVE, "event\t0\ta\tbid\tv=1\tcap=5\nevent\t4\ta\twithdraw\n",
         7, 7, "event stage 4 outside 0..3"),
        # option values outside their range
        (OK_SALE, OK_CURVE, "option\tpenalty_free_withdrawal=2\tmin_bid_deadline=-3\n",
         6, 8, "penalty_free_withdrawal must be 0 or 1, got '2'"),
        (OK_SALE, OK_CURVE, "option\tpenalty_free_withdrawal=yes\n", 6, 8,
         "penalty_free_withdrawal must be 0 or 1, got 'yes'"),
        (OK_SALE, OK_CURVE, "option\tmin_bid_deadline=-3\n", 6, 8,
         "min_bid_deadline must be >= 0, got -3"),
        (OK_SALE, OK_CURVE, "option\tpenalty_free_withdrawal=1\tmin_bid_deadline=-3\n",
         6, 34, "min_bid_deadline must be >= 0, got -3"),
        # a field's column counts the fields before it
        ("t=1\tu2", OK_CURVE, "", 3, 10, "expected key=value, got 'u2'"),
        ("t=1\tu=2\tgranularity=1\tu=3", OK_CURVE, "", 3, 28,
         "bad or duplicate key in 'u=3'"),
        (OK_SALE, "pu=1\tpt=1\tp0=1/0", "", 4, 17, "expected an integer or num/den"),
        (OK_SALE, OK_CURVE, "gas\tblock_limit=9\tstore=-\n", 6, 19,
         "expected an integer amount, got '-'"),
        (OK_SALE, OK_CURVE, "strategy\tab\tpassive\tentry=0\tv\n", 6, 29,
         "expected key=value, got 'v'"),
        (OK_SALE, OK_CURVE, "event\t0\tab\tbid\tv=1\tcap\n", 6, 20,
         "expected key=value, got 'cap'"),
        (OK_SALE, OK_CURVE, "event\t0\t-\twithdraw\n", 6, 9, "bad actor name '-'"),
        (OK_SALE, OK_CURVE, "event\t0\talice\tbidd\n", 6, 15,
         "unknown event action 'bidd'"),
        # only \n, \r\n and \r end a line, not a form feed in a comment
        (OK_SALE, OK_CURVE, "# a comment\fstill the comment\nevent\t0\talice\tbidd\n",
         7, 15, "unknown event action 'bidd'"),
        (OK_SALE, OK_CURVE, "strategy\tab\tpassiv\tentry=0\n", 6, 13,
         "unknown strategy kind 'passiv'"),
        # strategy stages are checked once every record is read, like event stages
        (OK_SALE, OK_CURVE, "strategy\tp\tpassive\tentry=99\tv=1\tcap=10\n", 6, 20,
         "strategy entry 99 outside 0..3"),
        (OK_SALE, OK_CURVE, "strategy\ts\tsniper\tentry=0\twithdraw=9\tv=1\tcap=10\n",
         6, 27, "strategy withdraw 9 outside 0..3"),
        # each config record may appear once; the repeat is at fault
        (OK_SALE, OK_CURVE, "sale\t" + OK_SALE + "\n", 6, 1, "duplicate sale record"),
        (OK_SALE, OK_CURVE, "curve\t" + OK_CURVE + "\n", 6, 1,
         "duplicate curve record"),
        (OK_SALE, OK_CURVE, "gas\tstore=7\ngas\tblock_limit=100\n", 7, 1,
         "duplicate gas record"),
        (OK_SALE, OK_CURVE,
         "option\tpenalty_free_withdrawal=1\noption\tmin_bid_deadline=2\n", 7, 1,
         "duplicate option record"),
        (OK_SALE, OK_CURVE, "seed\t2\n", 6, 1, "duplicate seed record"),
        # every strategy and event field is read once, into its type
        (OK_SALE, OK_CURVE, "strategy\tp\tpassive\tentry=x\tv=1\tcap=10\n", 6, 20,
         "expected an integer amount, got 'x'"),
        (OK_SALE, OK_CURVE, "strategy\tp\tpassive\tentry=0\tv=x\tcap=10\n", 6, 28,
         "expected an integer amount, got 'x'"),
        (OK_SALE, OK_CURVE, "strategy\tp\tpassive\tentry=0\tv=1\tcap=x\n", 6, 32,
         "expected an integer amount, got 'x'"),
        (OK_SALE, OK_CURVE, "strategy\tp\tpassive\tentry=0\tv=1\tcap=10\tm=x\n", 6, 39,
         "expected an integer amount, got 'x'"),
        (OK_SALE, OK_CURVE, "strategy\tp\tpassive\tentry=0\tv=1\tcap=10\tm=5\tfee=-\n",
         6, 43, "expected an integer amount, got '-'"),
        (OK_SALE, OK_CURVE, "strategy\tt\ttable\tentry=x\tsteps=50:30\n", 6, 18,
         "expected an integer amount, got 'x'"),
        (OK_SALE, OK_CURVE, "strategy\tt\ttable\tentry=0\tsteps=garbage\n", 6, 26,
         "bad table step 'garbage'"),
        (OK_SALE, OK_CURVE, "strategy\tt\ttable\tentry=0\tsteps=50:10,100:30\n", 6, 26,
         "NonMonotoneTable"),
        (OK_SALE, OK_CURVE, "strategy\tt\ttable\tentry=0\tsteps=50:30:x\n", 6, 26,
         "expected an integer amount, got 'x'"),
        (OK_SALE, OK_CURVE, "strategy\tr\treactive\tv=x\tcap=10\tthreshold=5\n", 6, 21,
         "expected an integer amount, got 'x'"),
        (OK_SALE, OK_CURVE, "strategy\tr\treactive\tv=1\tcap=x\tthreshold=5\n", 6, 25,
         "expected an integer amount, got 'x'"),
        (OK_SALE, OK_CURVE, "strategy\tr\treactive\tv=1\tcap=10\tthreshold=x\n", 6, 32,
         "expected an integer amount, got 'x'"),
        (OK_SALE, OK_CURVE,
         "strategy\tr\treactive\tv=1\tcap=10\tthreshold=5\tdelay=-\n", 6, 44,
         "expected an integer amount, got '-'"),
        (OK_SALE, OK_CURVE, "strategy\tb\tblackout\tstake=x\tstake_cap=10\tblind=2"
         "\tblind_cap=10\twithdraw=3\n", 6, 21, "expected an integer amount, got 'x'"),
        (OK_SALE, OK_CURVE, "strategy\tb\tblackout\tstake=1\tstake_cap=x\tblind=2"
         "\tblind_cap=10\twithdraw=3\n", 6, 29, "expected an integer amount, got 'x'"),
        (OK_SALE, OK_CURVE, "strategy\tb\tblackout\tstake=1\tstake_cap=10\tblind=x"
         "\tblind_cap=10\twithdraw=3\n", 6, 42, "expected an integer amount, got 'x'"),
        (OK_SALE, OK_CURVE, "strategy\tb\tblackout\tstake=1\tstake_cap=10\tblind=2"
         "\tblind_cap=x\twithdraw=3\n", 6, 50, "expected an integer amount, got 'x'"),
        (OK_SALE, OK_CURVE, "strategy\tb\tblackout\tstake=1\tstake_cap=10\tblind=2"
         "\tblind_cap=10\twithdraw=x\n", 6, 63, "expected an integer amount, got 'x'"),
        (OK_SALE, OK_CURVE, "strategy\tw\twhale\tentry=x\tv=5\tcap=10\n", 6, 18,
         "expected an integer amount, got 'x'"),
        (OK_SALE, OK_CURVE, "strategy\tw\twhale\tentry=0\tv=x\tcap=10\n", 6, 26,
         "expected an integer amount, got 'x'"),
        (OK_SALE, OK_CURVE, "strategy\tw\twhale\tentry=0\tv=-5\tcap=zz\n", 6, 31,
         "expected an integer amount, got 'zz'"),
        (OK_SALE, OK_CURVE, "strategy\ts\tsniper\tentry=x\twithdraw=1\tv=1\tcap=10\n",
         6, 19, "expected an integer amount, got 'x'"),
        (OK_SALE, OK_CURVE, "strategy\ts\tsniper\tentry=0\twithdraw=x\tv=1\tcap=10\n",
         6, 27, "expected an integer amount, got 'x'"),
        (OK_SALE, OK_CURVE, "strategy\ts\tsniper\tentry=0\twithdraw=1\tv=x\tcap=10\n",
         6, 38, "expected an integer amount, got 'x'"),
        (OK_SALE, OK_CURVE, "strategy\ts\tsniper\tentry=0\twithdraw=1\tv=1\tcap=x\n",
         6, 42, "expected an integer amount, got 'x'"),
        (OK_SALE, OK_CURVE, "event\t0\talice\tbid\tv=abc\tcap=5\n", 6, 19,
         "expected an integer amount, got 'abc'"),
        (OK_SALE, OK_CURVE, "event\t0\talice\tbid\tv=5\tcap=x\n", 6, 23,
         "expected an integer amount, got 'x'"),
        (OK_SALE, OK_CURVE, "event\t0\talice\tbid\tv=5\tcap=10\tm=q\n", 6, 30,
         "expected an integer amount, got 'q'"),
        (OK_SALE, OK_CURVE, "event\t0\talice\tbid\tv=5\tcap=10\tm=5\tfee=-\n", 6, 34,
         "expected an integer amount, got '-'"),
        (OK_SALE, OK_CURVE, "event\t0\talice\tbid\tv=5\tcap=10\tm=5\tfee=\n", 6, 34,
         "expected an integer amount, got ''"),
        (OK_SALE, OK_CURVE,
         "event\t0\talice\tbid\tv=5\tcap=10\tm=5\tfee=1\tadvice=xyz\n", 6, 40,
         "advice must be auto, head, - or an integer key, got 'xyz'"),
        (OK_SALE, OK_CURVE, "event\t0\tkeeper\tpoke\tx=q\ttarget=a\n", 6, 21,
         "expected an integer amount, got 'q'"),
        (OK_SALE, OK_CURVE, "event\t0\tkeeper\tpoke\tx=5\ttarget=\n", 6, 25,
         "bad actor name ''"),
        (OK_SALE, OK_CURVE, "event\t0\tkeeper\tpoke\tx=5\ttarget=a+-\n", 6, 25,
         "bad actor name '-'"),
        (OK_SALE, OK_CURVE, "event\t0\talice\tbid\tcap=5\n", 6, 1, "bid record needs v="),
        (OK_SALE, OK_CURVE, "event\t0\talice\twithdraw\tv=5\n", 6, 24,
         "unknown withdraw key 'v'"),
        # the first unknown key in record order, not in alphabetical order
        (OK_SALE, OK_CURVE, "event\t0\talice\tbid\tv=5\tcap=9\tzeta=1\talpha=2\n", 6, 29,
         "unknown bid key 'zeta'"),
        # a record too short for its positional fields
        (OK_SALE, OK_CURVE, "strategy\tab\n", 6, 1, "strategy needs an actor and a kind"),
        (OK_SALE, OK_CURVE, "event\t0\tab\n", 6, 1,
         "event needs a stage, an actor and an action"),
        # a missing record is reported at line 1
        (None, OK_CURVE, "", 1, 1, "missing sale record"),
        (OK_SALE, None, "", 1, 1, "missing curve record"),
    ])
    def test_invalid_config_exits_2_at_its_line(self, tmp_path, capsys, sale, curve,
                                                extra, line, column, message):
        sale, curve = (f"# no {tag} record" if value is None else f"{tag}\t{value}"
                       for tag, value in (("sale", sale), ("curve", curve)))
        bad = tmp_path / "bad.tsv"
        bad.write_text(f"ico-scenario\t1\n# comment\n{sale}\n{curve}\nseed\t1\n{extra}")
        assert run_cli("run", str(bad), "--audit-only") == 2
        if message.isidentifier():    # an error code, then its own message
            message += ": "
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: line {line}, column {column}: {message}")

    def test_lagging_sweep_is_reported(self, tmp_path, capsys):
        # two pointer moves a block: the sweep over caps 1..4 cannot finish
        # in the lock block
        scenario = tmp_path / "lag.tsv"
        scenario.write_text(small_budget_scenario(3, 2, caps=(1, 2, 3, 4)))
        assert run_cli("run", str(scenario), "--audit-only") == 1
        out = capsys.readouterr().out
        assert "  stage 1: pointer-lag: block closed with the sweep unfinished\n" in out
        assert "lagging blocks: 1\n" in out

    def test_final_block_that_cannot_settle(self, tmp_path, capsys):
        scenario = tmp_path / "stuck.tsv"
        scenario.write_text(small_budget_scenario(2, 1, caps=(1, 2, 3, 4, 5)))
        out_dir = tmp_path / "out"
        assert run_cli("run", str(scenario), "--out", str(out_dir)) == 1
        assert capsys.readouterr().err == (
            "error: GasExhausted: final block cannot settle the book in one gas budget\n")
        assert not out_dir.exists()
        # an older single-block trace of the same name is left as it was
        out_dir.mkdir()
        older = out_dir / "stuck.trace.tsv"
        older.write_bytes(b"older trace\n")
        assert run_cli("run", str(scenario), "--out", str(out_dir)) == 1
        assert older.read_bytes() == b"older trace\n"
        assert os.listdir(out_dir) == ["stuck.trace.tsv"]

    def test_failure_after_the_first_block_leaves_no_file(self, tmp_path, capsys,
                                                          audit_path):
        forks, forking = audit_path
        text = small_budget_scenario(2, 1, caps=range(1, 1101))
        handed_on = []  # the blocks written before the final block fails
        with pytest.raises(GasExhausted):
            run_scenario(parse_scenario(text), handed_on.append)
        assert sum(map(len, handed_on)) >= 2048
        scenario = tmp_path / "stuck.tsv"
        scenario.write_text(text)
        out_dir = tmp_path / "new" / "out"
        assert run_cli("run", str(scenario), "--out", str(out_dir)) == 1
        assert capsys.readouterr().err == (
            "error: GasExhausted: final block cannot settle the book in one gas budget\n")
        assert not (tmp_path / "new").exists()
        # an older trace of the same name is left as it was
        out_dir.mkdir(parents=True)
        older = out_dir / "stuck.trace.tsv"
        older.write_bytes(b"older trace\n")
        assert run_cli("run", str(scenario), "--out", str(out_dir)) == 1
        assert older.read_bytes() == b"older trace\n"
        assert os.listdir(out_dir) == ["stuck.trace.tsv"]
        # both runs audited in a child, which was reaped, or both in-process
        assert forks == ([0, 0] if forking else [])

    @pytest.mark.parametrize("size", [2047, 2048, 2049, 4097])
    def test_traces_at_block_edges(self, tmp_path, capsys, audit_path, size):
        forks, forking = audit_path
        text = sized_scenario(size)
        trace = run_scenario(parse_scenario(text)).trace
        handed_on = []
        run_scenario(parse_scenario(text), handed_on.append)
        assert len(trace.body) == size
        trace.audit_lines = audit_trace(trace).lines()
        digest = trace.digest
        expected = trace.render(digest)
        scenario = tmp_path / "edge.tsv"
        scenario.write_text(text)
        out_dir = tmp_path / "out"
        assert run_cli("run", str(scenario), "--out", str(out_dir), "--report", "full") == 0
        out = capsys.readouterr().out
        stored = out_dir / "edge.trace.tsv"
        assert os.listdir(out_dir) == [stored.name]
        assert stored.read_text() == expected
        reference = tmp_path / "reference"  # a new file's mode: 0o666 & ~umask
        reference.write_text("")
        assert stat.S_IMODE(stored.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)
        assert out[:len(expected)] == expected
        assert out[len(expected):].startswith("scenario: edge.tsv\n")
        assert run_cli("run", str(scenario), "--audit-only") == 0
        assert f"\ndigest: {digest}\n" in capsys.readouterr().out
        assert run_cli("replay", str(stored), "--report", "full") == 0
        out = capsys.readouterr().out
        assert out[:len(expected)] == expected
        assert "replay verified: digests match" in out
        # each run forks its audit as the first block is handed on, before
        # taking it, and only then; a replay reports the stored trace's audit
        assert forks == ([0, 0] if handed_on and forking else [])
        assert bool(handed_on) is (size > 2048)

    @pytest.mark.parametrize("older", ["longer", "shorter", "identical"])
    @pytest.mark.parametrize("size", [2047, 4097])
    def test_rewrite_over_an_older_trace(self, tmp_path, capsys, size, older):
        """A single-block trace is rewritten in place and cut to its length,
        a longer one replaces the file; either way the file holds exactly
        ``Trace.render``'s bytes."""
        text = sized_scenario(size)
        trace = run_scenario(parse_scenario(text)).trace
        trace.audit_lines = audit_trace(trace).lines()
        expected = trace.render().encode()
        scenario = tmp_path / "edge.tsv"
        scenario.write_text(text)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        stored = out_dir / "edge.trace.tsv"
        stored.write_bytes({"longer": expected + expected, "shorter": expected[:100],
                            "identical": expected}[older])
        assert run_cli("run", str(scenario), "--out", str(out_dir)) == 0
        assert stored.read_bytes() == expected
        assert os.listdir(out_dir) == [stored.name]

    def test_runs_make_no_reference_cycles(self, tmp_path, capsys):
        """The premise of ``main`` turning the cyclic collector off."""
        scenarios = sorted(SCENARIO_DIR.glob("*.tsv"))
        for index in range(10):  # a corpus slice
            scenarios.append(tmp_path / f"corpus{index}.tsv")
            scenarios[-1].write_text("\n".join(random_spec(index).normalize()) + "\n")
        with bench_module("workloads") as workloads:  # withdrawals, pokes, kicks, scales
            generated = {**workloads.churn(7, 2_000), **workloads.sweep(7, 500)}
        for name, text in generated.items():
            scenarios.append(tmp_path / name)
            scenarios[-1].write_text(text)
        scenarios.append(tmp_path / "blocks.tsv")
        scenarios[-1].write_text(sized_scenario(5000))
        out_dir = tmp_path / "out"
        calls = [["run", str(path), "--out", str(out_dir)] for path in scenarios]
        calls.append(["replay", str(out_dir / "blocks.trace.tsv")])
        for argv in calls[:1] + calls[-2:]:  # warm every lazy cache first
            assert run_cli(*argv) == 0
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for argv in calls:
                assert run_cli(*argv) == 0, argv
            found = gc.collect()
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert found == 0
        assert all("\terr:" in (out_dir / f"corpus{index}.trace.tsv").read_text()
                   for index in range(10))  # every one refuses transactions
        churn, sweep = ((out_dir / name.replace(".tsv", ".trace.tsv")).read_text()
                        for name in generated)
        assert all(kind in churn for kind in ("\twithdraw\tok\t", "\tpoke\tok\t", "\tkick\t"))
        assert all(kind in sweep for kind in ("\tkick\t", "\tscale\t"))

    @pytest.mark.parametrize("collecting", [True, False])
    def test_main_leaves_the_collector_as_it_found_it(self, tmp_path, capsys,
                                                      monkeypatch, audit_path, collecting):
        forks, forking = audit_path
        blocks = tmp_path / "blocks.tsv"
        blocks.write_text(sized_scenario(5000))
        bad = tmp_path / "bad.tsv"
        bad.write_text("ico-scenario\t1\nsale\tt=1\n")
        stored = tmp_path / "whale.trace.tsv"
        assert run_cli("run", WHALE, "--out", str(tmp_path)) == 0
        stored.write_text(stored.read_text().replace("v=50", "v=51"))
        inside = []

        def boom(*args):
            inside.append(gc.isenabled())
            raise RuntimeError("boom")

        def fail_after_a_block(spec, sink):
            def failing(lines):
                sink(lines)
                raise RuntimeError("after a block")
            return run_scenario(spec, failing)

        was = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            for argv, code in ((["run", WHALE, "--audit-only"], 0),
                               (["replay", str(stored)], 1),   # digest mismatch
                               (["run", str(bad)], 2)):        # parse error
                assert run_cli(*argv) == code
                assert gc.isenabled() is collecting
            monkeypatch.setattr("icosim.cli.run_scenario", boom)
            with pytest.raises(RuntimeError, match="boom"):  # out of main
                run_cli("run", WHALE, "--audit-only")
            assert gc.isenabled() is collecting
            # the same mid-play, past the first block: the audit child is
            # stopped and reaped, and the partial trace removed
            monkeypatch.setattr("icosim.cli.run_scenario", fail_after_a_block)
            with pytest.raises(RuntimeError, match="after a block"):
                run_cli("run", str(blocks), "--out", str(tmp_path / "out"))
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if was else gc.disable)()
        assert inside == [False]  # off while the command ran
        assert forks == ([0] if forking else [])
        assert not (tmp_path / "out").exists()

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


class TestAuditChild:
    """Past one block ``run`` audits in a forked child: its output equals the
    in-process audit's, and its failures are the run's."""

    @staticmethod
    def run_both(monkeypatch, capsys, argv, trace, alone="no-fork"):
        """(exit code, stdout, trace bytes) with the child, then in-process:
        where the platform has no ``os.fork``, or the process one CPU."""
        def outcome():
            code = run_cli(*argv)
            return code, capsys.readouterr().out, trace.read_bytes()

        forked = outcome()
        trace.unlink()
        if alone == "no-fork":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        return forked, outcome()

    @pytest.mark.parametrize("alone", ["no-fork", "one-cpu"])
    @pytest.mark.parametrize("workload,size", [("churn", 2_000), ("sweep", 500)])
    def test_same_output_as_in_process(self, tmp_path, capsys, monkeypatch, forks,
                                       workload, size, alone):
        with bench_module("workloads") as workloads:
            (name, text), = getattr(workloads, workload)(7, size).items()
        scenario = tmp_path / name
        scenario.write_text(text)
        out_dir = tmp_path / "out"
        forked, in_process = self.run_both(
            monkeypatch, capsys, ["run", str(scenario), "--out", str(out_dir)],
            out_dir / f"{scenario.stem}.trace.tsv", alone)
        assert forks == [0]  # the first run only
        assert forked == in_process
        assert forked[0] == 0 and "audit: clean" in forked[1]

    def test_violation_found_in_the_child(self, tmp_path, capsys, monkeypatch, forks):
        on_block = _Auditor.on_block

        def forged(auditor, line, line_no):
            on_block(auditor, line, line_no)
            auditor.flag(auditor.stage - 1, "forged", f"at line {line_no}")

        scenario = tmp_path / "blocks.tsv"
        scenario.write_text(sized_scenario(5000))
        monkeypatch.setattr(_Auditor, "on_block", forged)  # the fork copies the patch
        out_dir = tmp_path / "out"
        forked, in_process = self.run_both(
            monkeypatch, capsys, ["run", str(scenario), "--out", str(out_dir)],
            out_dir / "blocks.trace.tsv")
        assert forks == [0]
        assert forked == in_process
        code, out, trace = forked
        assert code == 1
        assert "audit: 3 violation(s) over 3 blocks\n  stage 0: forged: at line " in out
        assert b"\naudit\tviolation\tblocks=3\tcount=3\nviolation\tstage=0\tcheck=forged" in trace

    @pytest.mark.parametrize("refused", ["fork", "second pipe"])
    def test_refused_fork_audits_in_process(self, tmp_path, capsys, monkeypatch, refused):
        """A fork or a pipe refused (at a process, memory or file limit)
        keeps the audit in-process, with the same output, once per run, and
        closes every pipe end made for it."""
        made, forked = [], []
        pipe = os.pipe

        def limited_pipe():
            if refused == "second pipe" and made:
                raise OSError(errno.EMFILE, "Too many open files")
            ends = pipe()
            made.extend(ends)
            return ends

        def limited_fork():
            forked.append(True)
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "pipe", limited_pipe)
        monkeypatch.setattr(os, "fork", limited_fork)
        scenario = tmp_path / "blocks.tsv"
        scenario.write_text(sized_scenario(5000))
        out_dir = tmp_path / "out"
        refused_run, in_process = self.run_both(
            monkeypatch, capsys, ["run", str(scenario), "--out", str(out_dir)],
            out_dir / "blocks.trace.tsv")
        assert refused_run == in_process
        assert refused_run[0] == 0 and "audit: clean over 3 blocks" in refused_run[1]
        assert (len(made), forked) == ((4, [True]) if refused == "fork" else (2, []))
        for fd in made:
            with pytest.raises(OSError) as closed:
                os.fstat(fd)
            assert closed.value.errno == errno.EBADF

    @pytest.mark.parametrize("failure", ["parse", "raise", "exit"])
    def test_child_failure(self, tmp_path, capsys, monkeypatch, forks, failure):
        parent = os.getpid()

        def feed(auditor, lines):
            if failure == "parse":
                raise ParseError("forged record", 12, 3)
            if failure == "raise":
                raise ValueError("auditor bug")
            assert os.getpid() != parent  # never end the test process
            os._exit(3)

        scenario = tmp_path / "blocks.tsv"
        scenario.write_text(sized_scenario(5000))
        out_dir = tmp_path / "new" / "out"
        monkeypatch.setattr(_Auditor, "feed", feed)
        if failure == "parse":  # as in-process: exit 2 at the record's place
            assert run_cli("run", str(scenario), "--out", str(out_dir)) == 2
            assert capsys.readouterr().err == "parse error: line 12, column 3: forged record\n"
        else:  # out of main, as an in-process auditor bug
            message = "ValueError: auditor bug" if failure == "raise" else "exited with status 3"
            with pytest.raises(RuntimeError, match=message):
                run_cli("run", str(scenario), "--out", str(out_dir))
        assert forks == [0]
        assert not (tmp_path / "new").exists()


class TestStreamReader:
    """The audit child's read loop, ``_feed_stream``, over a pipe in this
    process: however the trace's bytes are cut into writes and reads, it
    makes the report ``audit_trace`` makes of the body."""

    @pytest.fixture(scope="class")
    def body(self):
        with bench_module("workloads") as workloads:
            (text,) = workloads.sweep(7, 500).values()
        body = run_scenario(parse_scenario(text)).trace.body
        assert len(body) > 2048  # past one block
        return body

    @staticmethod
    def streamed(pieces):
        """(report, reads) of ``_feed_stream`` reading a pipe into which
        each read first writes the next of ``pieces``, each at most a
        pipe's buffer, so that each read returns one piece."""
        read_end, write_end = os.pipe()
        pending = iter(pieces)
        read, reads = os.read, []

        def one_piece_a_read(fd, size):
            piece = next(pending, None)
            if piece is None:
                os.close(write_end)
            else:
                os.write(write_end, piece)
            reads.append(read(fd, size))
            return reads[-1]

        auditor = _Auditor()
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(os, "read", one_piece_a_read)
                _feed_stream(auditor, read_end)
        finally:
            os.close(read_end)
        return auditor.finish(), reads

    @pytest.mark.parametrize("cut", ["byte", "after-newline", "inside-line"])
    def test_any_cut(self, body, cut):
        data = "".join(line + "\n" for line in body).encode()
        if cut == "byte":
            pieces = [data[i:i + 1] for i in range(len(data))]
        else:  # at each line end, or three bytes before it, in runs of lines
            ends = [i + 1 for i in range(len(data)) if data[i] == ord("\n")][7::7]
            if cut == "inside-line":
                ends = [end - 3 for end in ends]
            pieces = [data[i:j] for i, j in zip([0, *ends], [*ends, len(data)])]
        report, reads = self.streamed(pieces)
        assert reads == [*pieces, b""]
        assert report == audit_trace(Trace(body=body))

    def test_a_last_line_without_a_newline_is_fed(self, body):
        data = "\n".join(body).encode()
        report, _ = self.streamed([data[i:i + 50_000] for i in range(0, len(data), 50_000)])
        assert report == audit_trace(Trace(body=body))
        assert report.clean
        cut = audit_trace(Trace(body=body[:-1]))  # what dropping it would report
        assert not cut.clean

    def test_one_write_larger_than_a_read(self, body):
        data = "".join(line + "\n" for line in body).encode()
        assert len(data) > 2 * cli.READ_BYTES
        read_end, write_end = os.pipe()

        def write_all():
            with open(write_end, "wb") as out:
                out.write(data)

        writer = threading.Thread(target=write_all)
        writer.start()
        auditor = _Auditor()
        try:
            _feed_stream(auditor, read_end)
        finally:
            writer.join()
            os.close(read_end)
        assert auditor.finish() == audit_trace(Trace(body=body))


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

    @pytest.mark.parametrize("separator",
                             ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_a_field_may_hold_any_other_line_separator(self, stored, capsys, separator):
        # only \n, \r\n and \r end a line: the forged actor stays in the
        # record at line 10, and the re-signed file parses but diverges
        trace = parse_trace(stored.read_text(encoding="utf-8"))
        body = [line.replace("\ta1\t", f"\t{separator}a1\t") if line.startswith("ev\t0\t1\t")
                else line for line in trace.body]
        assert body != trace.body
        stored.write_text(Trace(body=body, audit_lines=trace.audit_lines).render(),
                          encoding="utf-8")
        assert parse_trace(stored.read_text(encoding="utf-8")).body == body
        capsys.readouterr()
        assert run_cli("replay", str(stored)) == 1
        out, err = capsys.readouterr()
        assert "replay diverged" in out and err == ""

    @pytest.mark.parametrize("ending", ["\r\n", "\r"])
    def test_crlf_and_cr_copies_verify(self, stored, capsys, ending):
        text = stored.read_text(encoding="utf-8")
        stored.write_bytes(text.replace("\n", ending).encode("utf-8"))
        copy, lf = parse_trace(text.replace("\n", ending)), parse_trace(text)
        assert (copy.body, copy.audit_lines, copy.digest) == (lf.body, lf.audit_lines, lf.digest)
        capsys.readouterr()
        assert run_cli("replay", str(stored)) == 0
        assert "replay verified: digests match" in capsys.readouterr().out

    @pytest.mark.parametrize("edit,error", [
        # the field sits at line 3, column 18 of the trace, not line 2,
        # column 14 of the scenario text echoed in it
        (lambda body: [line.replace("granularity=1", "granularity=x") for line in body],
         "line 3, column 18: expected an integer amount, got 'x'"),
        # a missing record is reported at the first scn record
        (lambda body: [line for line in body if not line.startswith("scn\tseed")],
         "line 2, column 5: missing seed record"),
        # with no scn record at all, the trace header line
        (lambda body: [line for line in body if not line.startswith("scn\t")],
         "line 1, column 5: empty file, expected ico-scenario header"),
    ])
    def test_bad_scenario_echo_names_its_trace_line(self, stored, capsys, edit, error):
        trace = parse_trace(stored.read_text())
        stored.write_text(Trace(body=edit(trace.body), audit_lines=trace.audit_lines).render())
        capsys.readouterr()
        assert run_cli("replay", str(stored)) == 2
        assert capsys.readouterr().err == f"parse error: {error}\n"

    def test_full_report_prints_the_audit_footer(self, stored, capsys):
        capsys.readouterr()
        assert run_cli("replay", str(stored), "--report", "full") == 0
        assert "\naudit\tclean\tblocks=3\tcount=0\ndigest\t" in capsys.readouterr().out

    def test_stored_trace_is_let_go_before_the_re_run(self, stored, capsys, monkeypatch):
        """Only the stored digest and audit outlive the check: the re-run
        holds memory for its own book, not for the stored body."""
        parsed, alive = [], []

        def keep_a_weakref(text):
            trace = parse_trace(text)
            parsed.append(weakref.ref(trace))
            return trace

        def note_the_stored_trace(*args):
            alive.append(parsed[0]() is not None)
            return run_scenario(*args)

        monkeypatch.setattr("icosim.cli.parse_trace", keep_a_weakref)
        monkeypatch.setattr("icosim.cli.run_scenario", note_the_stored_trace)
        capsys.readouterr()
        assert run_cli("replay", str(stored)) == 0
        assert "replay verified: digests match" in capsys.readouterr().out
        assert alive == [False]

    def test_unreadable_record_is_refused_before_the_re_run(self, tmp_path, capsys):
        """The stored trace is audited before anything replays: a record the
        auditor cannot read, past the first block, stops ``--report full``
        before it prints a line."""
        body = run_scenario(parse_scenario(sized_scenario(5000))).trace.body
        line = next(i for i, record in enumerate(body, start=1) if record.startswith("alloc\t"))
        assert line > 2048
        fields = body[line - 1].split("\t")
        assert fields[2].startswith("tokens=")
        fields[2] = "tokens=x"
        body[line - 1] = "\t".join(fields)
        stored = tmp_path / "forged.trace.tsv"
        stored.write_text(Trace(body=body).render())
        assert run_cli("replay", str(stored), "--report", "full") == 2
        assert capsys.readouterr() == ("", f"parse error: line {line}, column 10: "
                                           f"expected an integer amount, got 'x'\n")

    @pytest.mark.parametrize("edited", [False, True])
    def test_the_stored_body_is_hashed_once(self, tmp_path, capsys, monkeypatch, edited):
        """``replay`` takes the digest that ``parse_trace`` checked, and a
        mismatch is reported without hashing the body again."""
        scenario = tmp_path / "blocks.tsv"
        scenario.write_text(sized_scenario(5000))
        assert run_cli("run", str(scenario), "--out", str(tmp_path)) == 0
        stored = tmp_path / "blocks.trace.tsv"
        if edited:
            stored.write_text(stored.read_text().replace("\tb17\t", "\tb71\t"))
        hashed = []
        body_digest = trace_mod.body_digest

        def counted(body):
            hashed.append(len(body))
            return body_digest(body)

        monkeypatch.setattr(trace_mod, "body_digest", counted)
        capsys.readouterr()
        assert run_cli("replay", str(stored)) == (1 if edited else 0)
        assert hashed == [5000]
        out, err = capsys.readouterr()
        assert ("digest mismatch: " in err) if edited else ("replay verified" in out)

    def test_missing_trace_file(self, tmp_path, capsys):
        assert run_cli("replay", str(tmp_path / "none.trace.tsv")) == 2

    @pytest.mark.parametrize("footer,message", [
        (["{digest}", "{digest}"], "second digest record"),
        (["{digest}", "audit\tclean\tblocks=3\tcount=0"], "audit record after the digest"),
    ])
    def test_footer_after_the_digest(self, stored, capsys, footer, message):
        lines = stored.read_text().splitlines()
        footer = [row.format(digest=lines[-1]) for row in footer]
        stored.write_text("\n".join(lines[:-1] + footer) + "\n")
        assert run_cli("replay", str(stored)) == 2
        assert capsys.readouterr().err == (
            f"parse error: line {len(lines) + 1}, column 1: {message}\n")

    def test_bare_digest_record(self, stored, capsys):
        lines = stored.read_text().splitlines()
        stored.write_text("\n".join(lines[:-1] + ["digest"]) + "\n")
        assert run_cli("replay", str(stored)) == 2
        assert capsys.readouterr().err == (
            f"parse error: line {len(lines)}, column 1: digest record has no value\n")


@pytest.mark.parametrize("command", ["run", "replay"])
def test_non_utf8_file(tmp_path, capsys, command):
    latin1 = tmp_path / "latin1.tsv"
    latin1.write_bytes("ico-scenario\t1\n# caf\xe9\n".encode("latin-1"))
    assert run_cli(command, str(latin1)) == 2
    assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode")


def test_out_dir_that_is_a_file(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert run_cli("run", WHALE, "--out", str(taken)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(taken) in err


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
