from __future__ import annotations

import dataclasses
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from icosim.agents import run_scenario
from icosim.analysis import _LEDGER
from icosim.book import HEAD
from icosim.engine import BlockSummary, WithdrawalBatch
from icosim.errors import DigestMismatch, ParseError
from icosim.ledger import Pots
from icosim.scenario import ScenarioSpec, parse as parse_scenario
from icosim.trace import (
    REQUIRED, Trace, TraceBuilder, body_digest, fmt, parse_amount, parse_fraction,
    parse_optional_amount, parse_trace, read_fields,
)

from test_golden import ALL_KINDS_ROWS

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def lines(*rows):
    return "\n".join("\t".join(row) for row in rows) + "\n"


MINIMAL = lines(
    ("ico-scenario", "1"),
    ("sale", "t=1", "u=2", "granularity=1"),
    ("curve", "p0=1", "pt=1", "pu=1"),
    ("seed", "7"),
)


class TestFieldCodecs:
    def test_fmt(self):
        assert fmt(None) == "-"
        assert fmt(True) == "1" and fmt(False) == "0"
        assert fmt(Fraction(3, 4)) == "3/4"
        assert fmt(Fraction(10, 5)) == "2"
        assert fmt(["a", "b"]) == "a+b"
        assert fmt([]) == "-"
        assert fmt(17) == "17"
        assert fmt("head") == "head"

    def test_parse_amount(self):
        assert parse_amount("42", 1, 1) == 42
        assert parse_amount("-3", 1, 1) == -3
        with pytest.raises(ParseError):
            parse_amount("4.5", 1, 1)

    def test_parse_fraction(self):
        assert parse_fraction("3/4", 1, 1) == Fraction(3, 4)
        assert parse_fraction("5", 1, 1) == Fraction(5)
        for bad in ("x", "1/0", "3/4/5", ""):
            with pytest.raises(ParseError):
                parse_fraction(bad, 1, 1)

    def test_key_value_fields(self):
        assert read_fields(["a=1", "b=x=y"], 0, 1, {}, "r") == {"a": "1", "b": "x=y"}
        with pytest.raises(ParseError) as exc:
            read_fields(["t", "a=1", "b"], 1, 5, {}, "r")
        assert (exc.value.line, exc.value.column) == (5, 7)
        with pytest.raises(ParseError):
            read_fields(["a=1", "a=2"], 0, 1, {}, "r")       # duplicate key
        with pytest.raises(ParseError):
            read_fields(["=3"], 0, 1, {}, "r")               # empty key


def _oracle_fmt(value) -> str:
    """The field renderer before its type fast path: isinstance checks only."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, Fraction):
        return (str(value.numerator) if value.denominator == 1
                else f"{value.numerator}/{value.denominator}")
    if isinstance(value, (list, tuple)):
        return "+".join(str(v) for v in value) if value else "-"
    return str(value)


class _OracleWriter:
    """The record writer before typed f-strings: every field through fmt.

    Kept as the reference the fast ``TraceBuilder`` must match byte for byte.
    """

    def __init__(self) -> None:
        self.lines: list[str] = []
        self._seq = 0

    def _emit(self, *fields) -> None:
        self.lines.append("\t".join(_oracle_fmt(f) for f in fields))

    def event(self, stage, actor, action, outcome, details) -> None:
        self._seq += 1
        kv = [f"{k}={_oracle_fmt(v)}" for k, v in details.items()]
        self._emit("ev", stage, self._seq, actor, action, outcome, *kv)

    def step3(self, index, batch) -> None:
        f = _oracle_fmt
        self._emit(
            "s3", batch.stage, index, batch.kind,
            f"cap={f(batch.cap)}", f"n={f(batch.size)}",
            f"live={f(batch.live_capital)}", f"q={f(batch.q)}",
            f"out={f(batch.removed)}", f"credited={f(batch.credited)}",
            f"addrs={f(batch.addrs)}")

    def block(self, s) -> None:
        f, p = _oracle_fmt, s.pots
        for i, batch in enumerate(s.batches, start=1):
            self.step3(i, batch)
        self._emit(
            "blk", s.stage, f"V={f(s.V)}", f"gas={f(s.gas_spent)}",
            f"boundary={f(s.boundary)}", f"carry={f(s.carryover)}",
            f"dormant={f(p.dormant)}", f"permanent={f(p.permanent)}",
            f"pending={f(p.pending)}", f"escrow={f(p.escrow)}",
            f"fees_paid={f(p.fees_paid)}", f"refunds={f(p.refunds)}",
            f"proceeds={f(p.proceeds)}", f"deposits={f(p.deposits)}")

    def allocation(self, address, tokens, retained, refund_final, status) -> None:
        f = _oracle_fmt
        self._emit("alloc", address, f"tokens={f(tokens)}",
                   f"retained={f(retained)}", f"refund_final={f(refund_final)}",
                   f"status={status}")

    def final(self, v, stage, proceeds) -> None:
        f = _oracle_fmt
        self._emit("fin", f"V={f(v)}", f"stage={f(stage)}", f"proceeds={f(proceeds)}")


_amounts = st.integers(min_value=0, max_value=10**30)
_names = st.text(alphabet="abcxyz0189_.:-", min_size=1, max_size=6)
_detail_values = st.one_of(
    _amounts, st.integers(min_value=-5, max_value=-1), st.none(), st.booleans(),
    st.just(HEAD), st.just("auto"), st.lists(_names, max_size=3),
    st.fractions(min_value=0, max_value=10).filter(lambda q: q > 0))
_batches = st.builds(
    WithdrawalBatch, stage=st.integers(0, 50), cap=_amounts,
    kind=st.sampled_from(["kick", "scale"]), size=st.integers(0, 9),
    live_capital=_amounts,
    # None on kicks, a proper fraction or a whole number on scales
    q=st.one_of(st.none(), st.fractions(min_value=0, max_value=1),
                st.integers(1, 4).map(lambda n: Fraction(2 * n, 2))),
    removed=_amounts, credited=_amounts,
    addrs=st.lists(_names, max_size=3).map(tuple))
_summaries = st.builds(
    BlockSummary, stage=st.integers(0, 50), V=_amounts, gas_spent=_amounts,
    boundary=_amounts, carryover=st.booleans(),
    batches=st.lists(_batches, max_size=3).map(tuple),
    pots=st.builds(Pots, *[_amounts] * len(dataclasses.fields(Pots))))
_records = st.one_of(
    st.tuples(st.just("event"), st.integers(0, 50), _names,
              st.sampled_from(["bid", "withdraw", "poke"]),
              st.sampled_from(["ok", "err:CapTooLow"]),
              st.dictionaries(st.sampled_from(["v", "cap", "m", "fee", "advice",
                                               "target", "activated", "b"]),
                              _detail_values, max_size=6)),
    st.tuples(st.just("block"), _summaries),
    st.tuples(st.just("allocation"), _names, _amounts, _amounts, _amounts,
              st.sampled_from(["active", "used:kicked", "dormant",
                               "permanent:voluntary"])),
    st.tuples(st.just("final"), _amounts, st.integers(0, 50), _amounts))


def test_pot_names_meet():
    """The Pots fields are the pot keys of a written ``blk`` record, in
    order, and with V they are the values the auditor derives."""
    names = [f.name for f in dataclasses.fields(Pots)]
    builder = TraceBuilder([])
    builder.block(BlockSummary(0, 1, 0, 0, False, (), Pots(*range(2, 10))))
    keys = [f.split("=", 1)[0] for f in builder.lines[-1].split("\t")[6:]]
    assert keys == names
    assert sorted(_LEDGER) == sorted(["V", *names])


class TestWriterFastPath:
    def test_fmt_fast_path_keeps_every_rendering(self):
        assert fmt(True) == "1" and fmt(False) == "0"
        assert fmt(Fraction(6, 3)) == "2"
        assert fmt(HEAD) == "head"
        for value in (0, -7, 10**40, "x", None, True, False, Fraction(3, 4),
                      Fraction(5), [], ["a"], ("a", "b"), HEAD):
            assert fmt(value) == _oracle_fmt(value), value

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_records, max_size=12))
    def test_builder_matches_the_fmt_oracle(self, records):
        builder, oracle = TraceBuilder([]), _OracleWriter()
        for method, *args in records:
            getattr(builder, method)(*args)
            getattr(oracle, method)(*args)
        assert builder.lines[1:] == oracle.lines

    def test_corner_records(self):
        builder, oracle = TraceBuilder([]), _OracleWriter()
        kick = WithdrawalBatch(3, 40, "kick", 2, 90, None, 90, 100, ("a", "b"))
        scale = WithdrawalBatch(3, 50, "scale", 1, 60, Fraction(4, 4), 0, 0, ())
        for carry in (True, False):
            summary = BlockSummary(3, 10, 7, 50, carry, (kick, scale),
                                   Pots(0, 0, 0, 0, 0, 100, 0, 110))
            builder.block(summary)
            oracle.block(summary)
        details = {"v": 5, "cap": 50, "m": None, "fee": 0, "advice": HEAD}
        builder.event(0, "a", "bid", "ok", details)
        oracle.event(0, "a", "bid", "ok", details)
        assert builder.lines[1:] == oracle.lines
        assert "q=-\tout=90\tcredited=100\taddrs=a+b" in builder.lines[1]
        assert "q=1\tout=0\tcredited=0\taddrs=-" in builder.lines[2]
        assert "\tcarry=1\t" in builder.lines[3]
        assert "\tcarry=0\t" in builder.lines[6]
        assert builder.lines[-1].endswith("\tm=-\tfee=0\tadvice=head")


def _oracle_split_kv(fields, line_no, first_column=1):
    """The field-by-field key=value parser, the reference for errors."""
    out = {}
    column = first_column
    for raw in fields:
        if "=" not in raw:
            raise ParseError(f"expected key=value, got {raw!r}", line_no, column)
        key, value = raw.split("=", 1)
        if not key or key in out:
            raise ParseError(f"bad or duplicate key in {raw!r}", line_no, column)
        out[key] = value
        column += len(raw) + 1
    return out


def _prefix(first_column):
    """Positional fields after which the ``key=value`` fields start at
    ``first_column``: none for column 1, else one field of the right width."""
    return [] if first_column == 1 else ["t" * (first_column - 2)]


class TestKeyValueErrors:
    """``read_fields`` checks every field's ``key=value`` shape, also the
    fields its table does not name, exactly as the reference walk does."""

    GOOD = ["alpha=1", "b=22", "gamma=x=y"]

    @pytest.mark.parametrize("bad", ["novalue", "b=dup", "=3"])
    @pytest.mark.parametrize("where", [0, 1, 3])
    @pytest.mark.parametrize("first_column", [1, 9])
    def test_error_line_and_column_unchanged(self, bad, where, first_column):
        fields = self.GOOD[:where] + [bad] + self.GOOD[where:]
        if bad == "b=dup" and where <= 1:
            fields = ["b=first"] + fields    # the duplicate needs a b= before it
            where += 1
        prefix = _prefix(first_column)
        with pytest.raises(ParseError) as expected:
            _oracle_split_kv(fields, 12, first_column)
        with pytest.raises(ParseError) as got:
            read_fields(prefix + fields, len(prefix), 12, {}, "rec")
        assert str(got.value) == str(expected.value)
        column = first_column + sum(len(f) + 1 for f in fields[:where])
        assert (got.value.line, got.value.column) == (12, column)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(alphabet="ab=", max_size=4), max_size=5),
           st.integers(1, 30))
    def test_agrees_with_the_reference(self, fields, first_column):
        prefix = _prefix(first_column)
        try:
            expected = _oracle_split_kv(fields, 4, first_column)
        except ParseError as err:
            with pytest.raises(ParseError) as got:
                read_fields(prefix + fields, len(prefix), 4, {}, "rec")
            assert (str(got.value), got.value.column) == (str(err), err.column)
        else:
            assert read_fields(prefix + fields, len(prefix), 4, {}, "rec") == expected


def _oracle_read_fields(fields, start, table):
    """Reference field reader: one walk that stops at the first bad field."""
    seen = {}
    column = sum(len(f) + 1 for f in fields[:start]) + 1
    for raw in fields[start:]:
        if "=" not in raw:
            raise ParseError(f"expected key=value, got {raw!r}", 4, column)
        key, text = raw.split("=", 1)
        if not key or key in seen:
            raise ParseError(f"bad or duplicate key in {raw!r}", 4, column)
        seen[key] = text
        if key in table:
            table[key][0](text, 4, column)
        column += len(raw) + 1
    for key, (_, default) in table.items():
        if key not in seen and default is REQUIRED:
            raise ParseError(f"rec record needs {key}=", 4)
    values = {key: read(seen[key], 4, 1) if key in seen else default
              for key, (read, default) in table.items()}
    return {**seen, **values}


class TestReadFields:
    TABLE = {"a": (parse_amount, REQUIRED), "b": (parse_optional_amount, None)}

    def test_typed_values_defaults_and_the_rest(self):
        fields = ["rec", "x", "c=z", "a=7"]
        assert read_fields(fields, 2, 4, self.TABLE, "rec") == {"a": 7, "b": None, "c": "z"}

    def test_short_record(self):
        with pytest.raises(ParseError, match="line 4, column 1: rec record has 1 fields, "
                                             "needs 2"):
            read_fields(["rec"], 2, 4, self.TABLE, "rec")

    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet="ab=1-", max_size=3),
           st.lists(st.text(alphabet="ab=1-", max_size=4), max_size=5))
    def test_agrees_with_the_reference(self, tag, fields):
        fields = [tag] + fields
        try:
            expected = _oracle_read_fields(fields, 1, self.TABLE)
        except ParseError as err:
            with pytest.raises(ParseError) as got:
                read_fields(fields, 1, 4, self.TABLE, "rec")
            assert (str(got.value), got.value.column) == (str(err), err.column)
        else:
            assert read_fields(fields, 1, 4, self.TABLE, "rec") == expected


class TestTraceEnvelope:
    def build_sample(self):
        builder = TraceBuilder(["sale\tt=1\tu=2\tgranularity=1"])
        builder.event(0, "a", "bid", "ok", {"v": 10, "cap": 50, "m": None})
        builder.event(0, "b", "bid", "err:CapNotAligned", {"v": 1, "cap": 3})
        builder.final(10, 2, 10)
        return builder.build()

    def test_event_sequencing_and_fields(self):
        trace = self.build_sample()
        ev = trace.records("ev")
        assert ev[0][:6] == ["ev", "0", "1", "a", "bid", "ok"]
        assert ev[1][:6] == ["ev", "0", "2", "b", "bid", "err:CapNotAligned"]
        assert "m=-" in ev[0]
        assert trace.scenario_lines == ["sale\tt=1\tu=2\tgranularity=1"]

    def test_digest_is_over_body_lines(self):
        trace = self.build_sample()
        assert trace.digest == body_digest(trace.body)
        other = self.build_sample()
        assert other.digest == trace.digest    # construction is deterministic

    def test_round_trip_with_audit_footer(self):
        trace = self.build_sample()
        trace.audit_lines = ["audit\tclean\tblocks=0\tcount=0"]
        parsed = parse_trace(trace.render())
        assert parsed.body == trace.body
        assert parsed.audit_lines == trace.audit_lines
        assert parsed.digest == trace.digest

    def test_tampering_detected(self):
        text = self.build_sample().render()
        tampered = text.replace("v=10", "v=11")
        with pytest.raises(DigestMismatch):
            parse_trace(tampered)

    def test_envelope_errors(self):
        with pytest.raises(ParseError):
            parse_trace("not-a-trace\t1\n")
        trace = self.build_sample()
        with pytest.raises(ParseError):
            parse_trace("\n".join(trace.body) + "\n")     # no digest record
        with pytest.raises(ParseError):
            parse_trace(trace.render() + "mystery\t1\n")
        body_after_footer = "\n".join(
            trace.body[:1] + ["audit\tclean"] + trace.body[1:]
            + [f"digest\t{trace.digest}"]) + "\n"
        with pytest.raises(ParseError):
            parse_trace(body_after_footer)

    @pytest.mark.parametrize("footer,line,message", [
        # an earlier digest, right or wrong, would be overwritten unseen
        (["digest\tbogus", "digest\t{digest}"], 2, "second digest record"),
        (["digest\t{digest}", "digest\t{digest}"], 2, "second digest record"),
        (["digest\t{digest}", "audit\tclean\tblocks=0\tcount=0"], 2,
         "audit record after the digest"),
        (["audit\tviolation\tblocks=0\tcount=1", "digest\t{digest}",
          "violation\tstage=-\tcheck=x\tdetail=y"], 3, "violation record after the digest"),
    ])
    def test_footer_out_of_order(self, footer, line, message):
        trace = self.build_sample()
        lines = trace.body + [row.format(digest=trace.digest) for row in footer]
        with pytest.raises(ParseError) as err:
            parse_trace("\n".join(lines) + "\n")
        assert (err.value.line, err.value.message) == (len(trace.body) + line, message)


class TestScenarioParsing:
    def test_minimal_defaults(self):
        spec = parse_scenario(MINIMAL)
        cfg = spec.config
        assert (cfg.t, cfg.u, cfg.granularity) == (1, 2, 1)
        assert cfg.gas.block_limit == 6_700_000
        assert not cfg.penalty_free_withdrawal and cfg.min_bid_deadline is None
        assert spec.seed == 7
        assert spec.strategies == [] and spec.events == {}

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\n" + MINIMAL + "\n  # trailing\n"
        assert parse_scenario(text).seed == 7

    @pytest.mark.parametrize("separator",
                             ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_a_comment_may_hold_any_other_line_separator(self, separator):
        text = (SCENARIO_DIR / "whale.tsv").read_text()
        commented = text.replace("\n", f"\n# a comment{separator}still the comment\n", 1)
        assert parse_scenario(commented) == parse_scenario(text)

    @pytest.mark.parametrize("ending", ["\r\n", "\r"])
    def test_crlf_and_cr_end_lines(self, ending):
        text = (SCENARIO_DIR / "whale.tsv").read_text()
        assert parse_scenario(text.replace("\n", ending)) == parse_scenario(text)

    def test_full_record_set(self):
        text = lines(
            ("ico-scenario", "1"),
            ("sale", "t=2", "u=5", "granularity=10"),
            ("curve", "p0=6/5", "pt=11/10", "pu=1"),
            ("gas", "block_limit=500000", "pointer_move=7"),
            ("option", "penalty_free_withdrawal=1", "min_bid_deadline=1"),
            ("seed", "3"),
            ("strategy", "anna", "passive", "entry=0", "v=40", "cap=200"),
            ("strategy", "rex", "reactive", "v=10", "cap=100", "threshold=50",
             "delay=2"),
            ("event", "1", "keeper", "poke", "x=30", "target=a+b"),
            ("event", "0", "zed", "bid", "v=5", "cap=50", "m=10", "fee=2"),
        )
        spec = parse_scenario(text)
        assert spec.config.curve.p0 == Fraction(6, 5)
        assert spec.config.gas.block_limit == 500_000
        assert spec.config.gas.pointer_move == 7
        assert spec.config.gas.loop_base == 40_000      # untouched default
        assert spec.config.penalty_free_withdrawal
        assert spec.config.min_bid_deadline == 1
        assert [s.kind for s in spec.strategies] == ["passive", "reactive"]
        assert spec.strategies[1].params["delay"] == 2
        assert {stage: [a.kind for a in actions] for stage, actions in spec.events.items()} \
            == {1: ["poke"], 0: ["bid"]}

    def test_normalization_is_idempotent(self):
        text = lines(
            ("ico-scenario", "1"),
            ("sale", "t=2", "u=5", "granularity=10"),
            ("curve", "p0=12/10", "pt=11/10", "pu=1"),
            ("option", "penalty_free_withdrawal=1"),
            ("seed", "3"),
            ("strategy", "anna", "passive", "entry=0", "v=40", "cap=200",
             "fee=0"),
            ("event", "1", "keeper", "poke", "x=30", "target=a+b"),
            ("event", "0", "zed", "bid", "v=5", "cap=50"),
        )
        spec = parse_scenario(text)
        normalized = spec.normalize()
        again = parse_scenario(spec.render()).normalize()
        assert normalized == again
        # rationals reduced, events ordered by stage, defaults dropped
        assert "curve\tp0=6/5\tpt=11/10\tpu=1" in normalized
        events = [line for line in normalized if line.startswith("event")]
        assert events[0].split("\t")[1] == "0"
        assert "fee=0" not in normalized[-3]

    def test_interleaved_event_stages_keep_file_order(self):
        spec = parse_scenario(MINIMAL + lines(
            ("event", "2", "zed", "withdraw"),
            ("event", "0", "amy", "bid", "v=5", "cap=50"),
            ("event", "2", "amy", "withdraw"),
            ("event", "1", "bo", "bid", "v=7", "cap=60"),
        ))
        assert [(stage, [a.actor for a in actions]) for stage, actions in spec.events.items()] \
            == [(2, ["zed", "amy"]), (0, ["amy"]), (1, ["bo"])]
        expected = [("0", "amy", "bid"), ("1", "bo", "bid"),
                    ("2", "zed", "withdraw"), ("2", "amy", "withdraw")]
        events = [line.split("\t") for line in spec.normalize() if line.startswith("event")]
        assert [(e[1], e[2], e[3]) for e in events] == expected
        records = run_scenario(spec).trace.records("ev")
        assert [(r[1], r[3], r[4]) for r in records] == expected

    def test_bundled_scenarios_normalize_cleanly(self):
        for path in sorted(SCENARIO_DIR.glob("*.tsv")):
            spec = parse_scenario(path.read_text())
            assert parse_scenario(spec.render()).normalize() == spec.normalize()

    @pytest.mark.parametrize("mutate,message", [
        (lambda rows: rows[1:], "first record"),
        (lambda rows: rows + [rows[1]], "duplicate sale"),
        (lambda rows: rows[:3], "missing seed"),
        (lambda rows: rows + [("seed", "1", "2")], "seed takes exactly one"),
        (lambda rows: rows + [("mystery", "x=1")], "unknown record tag"),
        (lambda rows: rows + [("strategy", "a", "clairvoyant", "v=1")],
         "unknown strategy kind"),
        (lambda rows: rows + [("strategy", "a", "passive", "entry=0", "v=1")],
         "needs cap="),
        (lambda rows: rows + [("strategy", "a", "passive", "entry=0", "v=1",
                               "cap=10", "color=red")], "unknown passive key"),
        (lambda rows: rows + [("strategy", "a", "whale", "entry=0", "v=1",
                               "cap=10"),
                              ("strategy", "a", "whale", "entry=0", "v=1",
                               "cap=10")], "declared twice"),
        (lambda rows: rows + [("event", "9", "a", "bid", "v=1", "cap=10")],
         "outside 0..2"),
        (lambda rows: rows + [("event", "0", "a", "teleport")],
         "unknown event action"),
        # a strategy stage outside 0..u would never fire
        (lambda rows: rows + [("strategy", "a", "passive", "entry=99", "v=1",
                               "cap=10")], "strategy entry 99 outside 0..2"),
        (lambda rows: rows + [("strategy", "a", "whale", "entry=-1", "v=1",
                               "cap=10")], "strategy entry -1 outside 0..2"),
        (lambda rows: rows + [("strategy", "a", "table", "entry=3",
                               "steps=50:30")], "strategy entry 3 outside 0..2"),
        (lambda rows: rows + [("strategy", "a", "blackout", "stake=1", "stake_cap=10",
                               "blind=2", "blind_cap=10", "withdraw=3")],
         "strategy withdraw 3 outside 0..2"),
        (lambda rows: rows + [("strategy", "a", "sniper", "entry=0", "withdraw=5",
                               "v=1", "cap=10")], "strategy withdraw 5 outside 0..2"),
        (lambda rows: rows + [("event", "0", "-", "withdraw")], "bad actor"),
        (lambda rows: rows + [("option", "gravity=9.8")], "unknown option key"),
        (lambda rows: rows + [("gas", "sparkle=1")], "unknown gas key"),
        (lambda rows: rows + [("sale", "t=1", "u=2", "granularity=1",
                               "extra=1")], "duplicate sale"),
    ])
    def test_rejections(self, mutate, message):
        rows = [
            ("ico-scenario", "1"),
            ("sale", "t=1", "u=2", "granularity=1"),
            ("curve", "p0=1", "pt=1", "pu=1"),
            ("seed", "7"),
        ]
        text = lines(*mutate(rows))
        with pytest.raises(ParseError, match=message):
            parse_scenario(text)

    def test_error_carries_line_number(self):
        text = MINIMAL + "strategy\ta\tnope\tv=1\n"
        with pytest.raises(ParseError) as exc:
            parse_scenario(text)
        assert exc.value.line == 5


ALL_KINDS_TEXT = lines(*ALL_KINDS_ROWS)

# spellings that exercise each field type: blanks and dashes, integers in
# non-canonical form, advice words, actor lists and table steps
FIELD_TEXT = st.one_of(
    st.text(),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["", "-", "auto", "head", "1_0", "+5", " 7", "007", "a+b", "a+-",
                     "50:30:20,100:10", "50:10,100:30", "50:30:", "x=y", "10/2"]),
)

# (row, field) of every key=value field of a strategy or event record
FIELD_SITES = [(i, j) for i, row in enumerate(ALL_KINDS_ROWS) if row[0] in ("strategy", "event")
               for j in range(3 if row[0] == "strategy" else 4, len(row))]


class TestTypedRecords:
    def test_values_are_typed(self):
        spec = parse_scenario(ALL_KINDS_TEXT)
        kinds = {s.kind: s.params for s in spec.strategies}
        assert kinds["passive"] == {"entry": 0, "v": 40, "cap": 500, "m": 20, "fee": 3}
        assert str(kinds["table"]["steps"]) == "300:50:20,600:20"
        assert kinds["reactive"]["delay"] == 2
        actions = [a for stage in sorted(spec.events) for a in spec.events[stage]]
        advice = [a.params["advice"] for a in actions if a.kind == "bid"]
        assert advice == [HEAD, 100, None, "auto", 300, None]
        poke = next(a for a in actions if a.kind == "poke")
        assert poke.params == {"x": 30, "target": ["e4", "pa"]}

    def test_values_echo_in_canonical_spelling(self):
        loose = parse_scenario(MINIMAL + lines(
            ("strategy", "rex", "reactive", "v=+10", "cap=1_00", "threshold= 5",
             "delay=01"),
            ("strategy", "tab", "table", "entry=0", "steps=050:30:020,100:10"),
            ("event", "0", "zed", "bid", "v=1_0", "cap=050", "m=-", "fee=00",
             "advice=auto"),
        ))
        tidy = parse_scenario(MINIMAL + lines(
            ("strategy", "rex", "reactive", "v=10", "cap=100", "threshold=5"),
            ("strategy", "tab", "table", "entry=0", "steps=50:30:20,100:10"),
            ("event", "0", "zed", "bid", "v=10", "cap=50"),
        ))
        assert loose.normalize() == tidy.normalize()
        assert tidy.normalize()[-3:] == [
            "strategy\trex\treactive\tv=10\tcap=100\tthreshold=5",
            "strategy\ttab\ttable\tentry=0\tsteps=50:30:20,100:10",
            "event\t0\tzed\tbid\tv=10\tcap=50",
        ]

    @pytest.mark.parametrize("row", [
        ("strategy", "p", "passive", "entry=0", "v=1", "cap=10", "fee="),
        ("strategy", "p", "passive", "entry=0", "v=1", "cap=10", "fee=-"),
        ("strategy", "r", "reactive", "v=1", "cap=10", "threshold=5", "delay=-"),
        ("event", "0", "k", "poke", "x=5", "target="),
        ("event", "0", "k", "poke", "x=5", "target=-"),
    ])
    def test_blanks_and_dashes_mean_none_only_for_m_and_advice(self, row):
        with pytest.raises(ParseError) as exc:
            parse_scenario(MINIMAL + lines(row))
        assert exc.value.column == len("\t".join(row[:-1])) + 2

    @pytest.mark.parametrize("i,j", FIELD_SITES)
    @settings(max_examples=30, deadline=None)
    @given(value=FIELD_TEXT)
    def test_any_field_value_parses_or_is_a_parse_error(self, i, j, value):
        rows = [list(row) for row in ALL_KINDS_ROWS]
        key = rows[i][j].split("=", 1)[0]
        rows[i][j] = f"{key}={value}"
        try:
            spec = parse_scenario(lines(*rows))
        except ParseError:
            return
        rendered = spec.render()
        assert parse_scenario(rendered).render() == rendered
