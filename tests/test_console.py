"""The ``icosim`` command as an outsider runs it: one child process per call.

Each call runs ``python -m icosim.cli`` on this checkout's sources, which is
what the installed ``icosim`` script runs (``sys.exit(main())``), and checks
the process-level promises: the exit code, at most one line on standard
error, and never a traceback.  The child gets the parent's ``-X dev`` and
``-W`` options, so a warnings-as-errors run of this suite covers the
child's process too.  ``tests/test_cli.py`` checks the messages in-process.
"""

from __future__ import annotations

import errno
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from icosim.agents import run_scenario
from icosim.analysis import audit_trace
from icosim.scenario import parse as parse_scenario
from icosim.trace import Trace

from conftest import sized_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.tsv"))


def command(*argv) -> list[str]:
    """The child process's command line, with the parent's ``-X dev`` and ``-W``."""
    flags = [f"-W{option}" for option in sys.warnoptions]
    if sys.flags.dev_mode:
        flags += ["-X", "dev"]
    return [sys.executable, *flags, "-m", "icosim.cli", *map(str, argv)]


ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def icosim(*argv, cwd: Path, code: int, setup=None) -> tuple[str, str]:
    """Run the CLI in a child process, after ``setup`` when given, check its
    exit code and standard error, and return its standard output and
    standard error."""
    done = subprocess.run(command(*argv), cwd=cwd, env=ENV, capture_output=True,
                          encoding="utf-8", timeout=120, preexec_fn=setup)
    assert "Traceback" not in done.stderr
    assert len(done.stderr.splitlines()) <= 1, done.stderr
    assert done.returncode == code, done.stderr
    return done.stdout, done.stderr


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda path: path.stem)
def test_run_then_replay(tmp_path, scenario):
    out, err = icosim("run", scenario, "--out", tmp_path, cwd=tmp_path, code=0)
    assert "audit: clean" in out and err == ""
    trace = tmp_path / f"{scenario.stem}.trace.tsv"
    out, err = icosim("replay", trace, cwd=tmp_path, code=0)
    assert "replay verified: digests match" in out and err == ""


def small_sale(u: int, *events: str) -> bytes:
    """A sale over stages ``0..u`` with these event records."""
    return "".join([f"ico-scenario\t1\nsale\tt=1\tu={u}\tgranularity=1\n",
                    "curve\tp0=1\tpt=1\tpu=1\nseed\t1\n", *(f"{e}\n" for e in events)]).encode()


def edited_trace() -> bytes:
    """The whale scenario's trace with one bid amount changed after the run."""
    result = run_scenario(parse_scenario((ROOT / "scenarios" / "whale.tsv").read_text()))
    return result.trace.render().replace("v=50", "v=51").encode()


def forged_trace(separator: str) -> bytes:
    """The whale scenario's trace, re-signed, with ``separator`` put before
    the actor of its first event record, at line 10."""
    result = run_scenario(parse_scenario((ROOT / "scenarios" / "whale.tsv").read_text()))
    body = [line.replace("\ta1\t", f"\t{separator}a1\t") if line.startswith("ev\t0\t1\t")
            else line for line in result.trace.body]
    return Trace(body=body).render().encode()


# name: (arguments, where "{input}" names the input file and "{taken}" a
# directory in which the input's trace path is a directory; a function
# making the input; exit code; start of the one line on standard error, ""
# for none; text on standard output)
ROWS = {
    "bidd": (("run", "{input}", "--audit-only"),
             lambda: small_sale(3, "event\t0\talice\tbidd"),
             2, "parse error: line 5, column 15: unknown event action 'bidd'", ""),
    "non-utf8-trace": (("replay", "{input}"), lambda: b"ico-trace\t2\n\xff\xfe\n",
                       2, "error: 'utf-8' codec can't decode", ""),
    "edited-trace": (("replay", "{input}"), edited_trace, 1, "digest mismatch: ", ""),
    # NEL ends no line: the record stays line 10 and the replay diverges
    "nel-in-actor": (("replay", "{input}"), lambda: forged_trace("\x85"), 1, "",
                     "replay diverged: "),
    # more digits than ``int`` reads: a parse error at the field, as any bad amount
    "bid-v-5000-digits": (("run", "{input}", "--audit-only"),
                          lambda: small_sale(2, f"event\t0\ta\tbid\tv={'7' * 5000}\tcap=60"),
                          2, "parse error: line 5, column 15: expected an integer amount", ""),
    "poke-x-5000-digits": (("run", "{input}", "--audit-only"),
                           lambda: small_sale(2, f"event\t0\tk\tpoke\tx={'7' * 5000}\ttarget=a"),
                           2, "parse error: line 5, column 16: expected an integer amount", ""),
    "trace-path-is-a-directory": (("run", "{input}", "--out", "{taken}"),
                                  lambda: small_sale(2, "event\t0\ta\tbid\tv=10\tcap=60"),
                                  2, "error: [Errno 21] Is a directory: ", ""),
    "poke-target-a+a": (("run", "{input}", "--audit-only", "--report", "full"),
                        lambda: small_sale(2, "event\t0\ta\tbid\tv=10\tcap=60\tm=15",
                                           "event\t1\tk\tpoke\tx=20\ttarget=a+a"),
                        0, "", "\tk\tpoke\terr:InvalidTarget\t"),
}


@pytest.mark.parametrize("row", ROWS)
def test_row(tmp_path, row):
    argv, make_input, code, err_start, out_text = ROWS[row]
    given = tmp_path / "input.tsv"
    given.write_bytes(make_input())
    taken = tmp_path / "taken"
    (taken / "input.trace.tsv").mkdir(parents=True)
    out, err = icosim(*(arg.format(input=given, taken=taken) for arg in argv),
                      cwd=tmp_path, code=code)
    assert err.startswith(err_start) if err_start else err == ""
    assert out_text in out


def test_reader_that_closes_early(tmp_path):
    """``--report full`` into a pipe whose reader stops after one line:
    the run still finishes, writes its whole trace and exits with the
    audit's code, and nothing reaches standard error."""
    text = sized_scenario(20_000)
    trace = run_scenario(parse_scenario(text)).trace
    trace.audit_lines = audit_trace(trace).lines()
    expected = trace.render()
    assert len(expected) > 1_000_000  # far more than a pipe holds
    scenario = tmp_path / "big.tsv"
    scenario.write_text(text)
    with subprocess.Popen(command("run", scenario, "--out", tmp_path, "--report", "full"),
                          cwd=tmp_path, env=ENV, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, encoding="utf-8") as child:
        first = child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=120)
    assert first == "ico-trace\t2\n"
    assert (code, err) == (0, "")
    assert (tmp_path / "big.trace.tsv").read_text() == expected


def test_failed_trace_write_leaves_nothing_behind(tmp_path):
    """A trace write cut short by the file size limit exits 2 and leaves no
    partial file and no directory it made.  An older multi-block trace of
    that name is kept; an older one-block trace, rewritten in place, is
    removed."""
    resource = pytest.importorskip("resource")
    if not hasattr(signal, "SIGXFSZ"):
        pytest.skip("no SIGXFSZ on this platform")

    def file_size_limit(size):
        def setup():  # SIGXFSZ ignored: a write past the limit fails with EFBIG
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, (size, size))
        return setup

    too_large = f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}"
    older = b"older trace\n" * 10
    whale = ROOT / "scenarios" / "whale.tsv"
    fresh, one_block, multi_block = (tmp_path / name for name in ("fresh", "one", "multi"))
    for folder in (fresh, one_block, multi_block):
        folder.mkdir()
    (one_block / "whale.trace.tsv").write_bytes(older)
    (multi_block / "blocks.trace.tsv").write_bytes(older)
    blocks = tmp_path / "blocks.tsv"
    blocks.write_text(sized_scenario(5000))
    for scenario, out, size in [(whale, fresh / "new" / "deeper", 200),
                                (whale, one_block, 200),
                                (blocks, multi_block, 100_000)]:
        _, err = icosim("run", scenario, "--out", out, cwd=tmp_path, code=2,
                        setup=file_size_limit(size))
        assert err == too_large + "\n"
    assert list(fresh.iterdir()) == []
    assert list(one_block.iterdir()) == []
    assert os.listdir(multi_block) == ["blocks.trace.tsv"]
    assert (multi_block / "blocks.trace.tsv").read_bytes() == older
