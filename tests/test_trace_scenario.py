from __future__ import annotations

import dataclasses
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from icosim.agents import _apply, run_scenario
from icosim.analysis import _LEDGER
from icosim.book import HEAD
from icosim.engine import BlockSummary, PokeReport, Sale, WithdrawalBatch, WithdrawReceipt
from icosim.errors import DigestMismatch, IcoError, ParseError
from icosim.ledger import BidStatus, Pots
from icosim import scenario
from icosim.scenario import (AUTO, EVENT_ACTIONS, ScenarioSpec, _read_event, _render,
                             parse as parse_scenario)
from icosim.trace import (
    BLOCK_LINES, HANDOFF_LINES, REQUIRED, Trace, TraceBuilder, body_digest, fmt, parse_amount,
    parse_fraction, parse_optional_amount, parse_trace, read_fields,
)

from conftest import bench_module, sized_scenario
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


def _oracle_details(action, values, receipt) -> dict:
    """The detail dict the runner built for an ``ev`` record before the
    builder rendered it: the values sent, by key, then the receipt's."""
    details = dict(zip(EVENT_ACTIONS[action], values))
    if action == "poke":
        details["target"] = sorted(details["target"])
    if receipt is None:
        return details
    if action == "bid":
        details.update(b=receipt.b, status=receipt.status.value)
    elif action == "withdraw":
        details.update(refund=receipt.refund, fee_back=receipt.fee_back,
                       perm_v=receipt.perm_v, perm_b=receipt.perm_b)
    else:
        details.update(activated=sorted(receipt.activated), fee=receipt.fee)
    return details


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
_SENT = {  # action -> (the values the runner sends, a stand-in for the engine's receipt)
    "bid": (st.tuples(_amounts, _amounts, st.one_of(st.none(), _amounts), _amounts,
                      st.one_of(st.none(), st.just(HEAD), _amounts)),
            st.builds(SimpleNamespace, b=_amounts, status=st.sampled_from(BidStatus))),
    "withdraw": (st.just(()), st.builds(WithdrawReceipt, _amounts, _amounts, _amounts,
                                        _amounts)),
    "poke": (st.tuples(_amounts, st.lists(_names, min_size=1, max_size=3).map(tuple)),
             st.builds(PokeReport, st.lists(_names, max_size=3).map(tuple), _amounts)),
}


@st.composite
def _event_records(draw):
    """An ``event`` call: accepted with a receipt, or refused without one."""
    action = draw(st.sampled_from(sorted(_SENT)))
    values, receipts = _SENT[action]
    receipt = draw(st.one_of(st.none(), receipts))
    return ("event", draw(st.integers(0, 50)), draw(_names), action,
            "err:CapTooLow" if receipt is None else "ok", draw(values), receipt)


_records = st.one_of(
    _event_records(),
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
            if method == "event":  # the oracle takes the detail dict
                args[-2:] = [_oracle_details(args[2], *args[-2:])]
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
        values = (5, 50, None, 0, HEAD)
        builder.event(0, "a", "bid", "err:CapTooLow", values, None)
        oracle.event(0, "a", "bid", "err:CapTooLow", _oracle_details("bid", values, None))
        assert builder.lines[1:] == oracle.lines
        assert "q=-\tout=90\tcredited=100\taddrs=a+b" in builder.lines[1]
        assert "q=1\tout=0\tcredited=0\taddrs=-" in builder.lines[2]
        assert "\tcarry=1\t" in builder.lines[3]
        assert "\tcarry=0\t" in builder.lines[6]
        assert builder.lines[-1].endswith("\tm=-\tfee=0\tadvice=head")


def _oracle_apply(sale, row, writer):
    """The runner's transaction step as it was before ``ev`` tails were
    rendered from the values sent and the receipt: one detail dict per
    transaction, written through the oracle writer."""
    stage, (actor, kind, *values) = sale.stage_index, row
    p = dict(zip(EVENT_ACTIONS[kind], values))
    try:
        if kind == "bid":
            hint = p["advice"]
            if hint == AUTO:
                hint = sale.compute_advice(p["cap"], p["m"])
            detail = {"v": p["v"], "cap": p["cap"], "m": p["m"], "fee": p["fee"],
                      "advice": hint}
            bid = sale.submit_bid(actor, p["v"], p["cap"],
                                  minimum=p["m"], fee=p["fee"], advice=hint)
            detail.update(b=bid.b, status=bid.status.value)
        elif kind == "withdraw":
            detail = {}
            r = sale.voluntary_withdraw(actor)
            detail.update(refund=r.refund, fee_back=r.fee_back, perm_v=r.perm_v,
                          perm_b=r.perm_b)
        else:
            detail = {"x": p["x"], "target": sorted(p["target"])}
            report = sale.poke(p["x"], p["target"], actor)
            detail.update(activated=sorted(report.activated), fee=report.fee)
        result = "ok"
    except IcoError as err:
        result = f"err:{err.code}"
    writer.event(stage, actor, kind, result, detail)


def _bid(actor, v, cap, m=None, fee=0, advice=AUTO):
    return (actor, "bid", v, cap, m, fee, advice)


def _poke(actor, x, target):
    return (actor, "poke", x, tuple(target))


_bidders = ["a0", "a1", "a2", "a3", "a4"]
_actors = st.sampled_from([*_bidders, "zz"])
_keys = st.integers(1, 40).map(lambda n: 10 * n)  # on the grid of 10
_advice = st.one_of(st.just(AUTO), st.sampled_from([None, HEAD]), _keys)


def _fair_bids(actor):
    """Bids with aligned caps and minimums, mostly accepted."""
    return st.builds(_bid, actor, v=st.integers(1, 100), cap=_keys,
                     m=st.one_of(st.none(), st.integers(1, 10).map(lambda n: 10 * n)),
                     fee=st.sampled_from([0, 0, 0, 2]), advice=_advice)


_openings = st.tuples(*[_fair_bids(st.just(actor)) for actor in _bidders])
_actions = st.one_of(
    _fair_bids(_actors),
    st.builds(_bid, _actors, v=st.integers(0, 100), cap=st.integers(0, 400),
              m=st.one_of(st.none(), st.integers(0, 400)), fee=st.integers(0, 5),
              advice=_advice),
    st.builds(lambda actor: (actor, "withdraw"), _actors),
    st.builds(_poke, _actors, st.one_of(st.integers(1, 100), st.integers(0, 10**30)),
              st.lists(st.sampled_from(_bidders), max_size=3, unique=True)))


class TestEventTails:
    """The ``ev`` tails the runner and the builder write equal the oracle
    rendering of the detail dict the runner used to build, outcome by
    outcome."""

    STAGES = [  # (actions, the outcome of each); the lock is at stage 2
        ([_bid("a1", 100, 100), _bid("a2", 50, 100), _bid("a3", 30, 200),
          _bid("a4", 30, 300, advice=HEAD), _bid("a5", 30, 300, advice=None),
          _bid("d1", 40, 300, m=50, fee=2), _bid("d2", 40, 300, m=60, fee=1, advice=50),
          _bid("d3", 40, 300, m=70, advice=None), _bid("e1", 10, 15),
          _bid("e2", 10, 100, m=100), _bid("a1", 10, 100),
          _poke("p1", 50, ["d1", "a1"]), _poke("p2", 100, ["a2", "a1"]),
          _poke("p3", 100, ["a1", "zz"]), _poke("p4", 10**6, ["a1"])],
         ["ok"] * 3 + ["err:BadAdvice", "err:AdviceRequired"] + ["ok"] * 2
         + ["err:AdviceRequired", "err:CapNotAligned", "err:InvalidMinimum",
            "err:AddressReused", "ok", "ok", "err:UnknownBid", "err:InvalidTarget"]),
        ([("a2", "withdraw"), ("d2", "withdraw"), ("zz", "withdraw"),
          _poke("p1", 50, ["d1", "a1"])],
         ["ok", "ok", "err:UnknownBid", "err:DuplicatePoke"]),
        ([("a1", "withdraw"), _bid("a6", 10, 100)],
         ["err:WithdrawalLocked", "err:CapTooLow"]),
    ]

    @staticmethod
    def twin_sales():
        spec = parse_scenario(lines(
            ("ico-scenario", "1"), ("sale", "t=2", "u=3", "granularity=10"),
            ("curve", "p0=6/5", "pt=11/10", "pu=1"), ("seed", "7")))
        return Sale(spec.config), Sale(spec.config), TraceBuilder([]), _OracleWriter()

    def test_tails_match_the_fmt_oracle(self):
        sale, oracle_sale, builder, oracle = self.twin_sales()
        for rows, outcomes in self.STAGES:
            for row in rows:
                _apply(sale, row, builder)
                _oracle_apply(oracle_sale, row, oracle)
            got = [line.split("\t")[5] for line in builder.lines[-len(rows):]]
            assert got == outcomes
            sale.advance_block()
            oracle_sale.advance_block()
        assert builder.lines[1:] == oracle.lines
        ok_bids = [line for line in oracle.lines if "\tbid\tok\t" in line]
        assert {line.split("advice=")[1].split("\t")[0] for line in ok_bids} \
            == {"head", "-", "100", "50"}
        assert {line.split("\tm=")[1].split("\t")[0] for line in ok_bids} == {"-", "50", "60"}
        pokes = [line for line in oracle.lines if "\tpoke\tok\t" in line]
        assert [line.split("activated=")[1].split("\t")[0] for line in pokes] == ["d1", "-"]

    @settings(max_examples=200, deadline=None)
    @given(_openings, st.lists(st.lists(_actions, max_size=12), min_size=1, max_size=4))
    def test_random_actions_match_the_fmt_oracle(self, openings, stages):
        """Random bids, withdrawals and pokes, across the lock at stage 2,
        reach the builder's own tail rendering and the oracle's alike."""
        sale, oracle_sale, builder, oracle = self.twin_sales()
        for index, rows in enumerate([[*openings, *stages[0]], *stages[1:]]):
            if index:
                sale.advance_block()
                oracle_sale.advance_block()
            for row in rows:
                _apply(sale, row, builder)
                _oracle_apply(oracle_sale, row, oracle)
        assert builder.lines[1:] == oracle.lines


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
        builder.event(0, "a", "bid", "ok", (10, 50, None, 0, None),
                      SimpleNamespace(b=10, status=BidStatus.ACTIVE))
        builder.event(0, "b", "bid", "err:CapNotAligned", (1, 3, None, 0, None), None)
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
        assert parsed.digest == parsed.stored_digest == trace.digest

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


class TestHandOffs:
    """A builder with a sink hands on its first ``BLOCK_LINES`` lines at
    once, then ``HANDOFF_LINES`` at a time, always at a record boundary."""

    @pytest.mark.parametrize("name", ["blocks", "churn", "sweep"])
    def test_schedule(self, name):
        if name == "blocks":
            text = sized_scenario(5000)
        else:
            with bench_module("workloads") as workloads:
                (text,) = getattr(workloads, name)(7, 2_000 if name == "churn" else 500).values()
        spec = parse_scenario(text)
        body = run_scenario(spec).trace.body
        handed = []
        left = run_scenario(spec, handed.append).trace.body
        assert [line for lines in handed for line in lines] + left == body
        echo_end = sum(line.startswith(("ico-trace\t", "scn\t")) for line in body)
        edges = [n for n, line in enumerate(body, start=1)
                 if n == echo_end or line.startswith(("blk\t", "alloc\t"))]
        assert len(handed[0]) == min(n for n in edges if n >= BLOCK_LINES)
        later = [lines for lines in handed[1:] if lines[-1].startswith("alloc\t")]
        assert all(len(lines) <= HANDOFF_LINES for lines in later)


# The most heap a parsed scheduled event may hold.  One row per event held
# 178-188 bytes on CPython 3.10-3.13 (5,000 unit bids, a fresh process); an
# object with a dict of its values per event held 380.
EVENT_BYTES = 240


class TestScenarioParsing:
    def test_parsed_events_are_compact(self):
        text = sized_scenario(15_010)  # 5,000 bids
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            spec = parse_scenario(text)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        events = sum(map(len, spec.events.values()))
        assert events == 5_000
        assert held <= EVENT_BYTES * events

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
        assert {stage: [row[1] for row in rows] for stage, rows in spec.events.items()} \
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
        assert [(stage, [row[0] for row in rows]) for stage, rows in spec.events.items()] \
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
        rows = [row for stage in sorted(spec.events) for row in spec.events[stage]]
        advice = [row[6] for row in rows if row[1] == "bid"]
        assert advice == [HEAD, 100, None, "auto", 300, None]
        poke = next(row for row in rows if row[1] == "poke")
        assert poke == ("kp", "poke", 30, ("e4", "pa"))

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


# --- the event layout: one match per echoed event ---------------------------

# stages up to 10**6 are in range, so only the event's own fields can fail
WIDE = lines(
    ("ico-scenario", "1"),
    ("sale", "t=1", f"u={10**6}", "granularity=1"),
    ("curve", "p0=1", "pt=1", "pu=1"),
    ("seed", "7"),
)
WIDE_LINE = WIDE.count("\n") + 1  # the line of the event record after it

# spellings of an int: canonical, others ``int`` reads, and more digits than it reads
STAGE_TEXT = st.one_of(st.integers(0, 10**6).map(str),
                       st.sampled_from(["10", "010", "+5", "1_0", " 5", "\u0663", "5" * 5000]))
INT_TEXT = st.one_of(STAGE_TEXT, st.sampled_from(["-3", "", "x"]))
NAME_TEXT = st.one_of(st.from_regex(r"[A-Za-z0-9_.:-]{1,4}", fullmatch=True),
                      st.sampled_from(["-", "", "--", "-a", "a b", "\u00e9", "a\x85"]))
EVENT_VALUES = {
    "v": INT_TEXT, "cap": INT_TEXT, "x": INT_TEXT,
    "m": st.one_of(st.just("-"), INT_TEXT),
    "fee": st.one_of(st.just("0"), INT_TEXT),
    "advice": st.one_of(st.sampled_from([AUTO, HEAD, "-", "tail"]), INT_TEXT),
    "target": st.one_of(st.lists(NAME_TEXT, min_size=1, max_size=3).map("+".join),
                        st.sampled_from(["a++b", "+a", "a+", "a+-"])),
}


@st.composite
def event_lines(draw) -> str:
    """An event record of any action: its keys in table order or shuffled,
    an optional key absent, at its default or off it, now and then a
    required key missing or a field the table does not hold."""
    action = draw(st.sampled_from([*EVENT_ACTIONS, "teleport"]))
    table = EVENT_ACTIONS.get(action, {})
    keys = [key for key, (_, default) in table.items()
            if draw(st.booleans() if default is not REQUIRED else st.integers(0, 9))]
    if draw(st.booleans()):
        keys = draw(st.permutations(keys))
    fields = [f"{key}={draw(EVENT_VALUES[key])}" for key in keys]
    fields += draw(st.lists(st.sampled_from(["color=red", "v=1", "fee", ""]), max_size=1))
    return "\t".join(["event", draw(STAGE_TEXT), draw(NAME_TEXT), action, *fields])


def _no_field_read(fields, line_no):
    raise AssertionError(f"line {line_no} read field by field")


class TestEventLayout:
    """An event record in the echo's layout is read in ``parse`` by one
    pattern match; the result must be exactly that of ``_read_event``,
    the field-by-field read, on the same line."""

    @settings(max_examples=500, deadline=None)
    @given(line=event_lines())
    def test_layout_read_agrees_with_the_field_read(self, line):
        try:
            stage, row = _read_event(line.split("\t"), WIDE_LINE)
        except ParseError as err:
            with pytest.raises(ParseError) as got:
                parse_scenario(WIDE + line + "\n")
            assert (got.value.line, got.value.column, got.value.message) \
                == (err.line, err.column, err.message)
            return
        spec = parse_scenario(WIDE + line + "\n")
        assert spec.events == {stage: [row]}
        (got,) = spec.events[stage]
        assert [type(v) for v in got] == [type(v) for v in row]
        by_field = dataclasses.replace(spec, events={stage: [row]})
        assert spec.normalize() == by_field.normalize()

    @settings(max_examples=200, deadline=None)
    @given(line=event_lines())
    def test_every_echoed_event_is_read_by_the_layout(self, line):
        try:
            spec = parse_scenario(WIDE + line + "\n")
        except ParseError:
            return
        echo = spec.render()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scenario, "_read_event", _no_field_read)
            assert parse_scenario(echo).events == spec.events

    @pytest.mark.parametrize("line", [
        "event\t0\tb1\tbid\tv=5\tcap=60\tm=-\tfee=0",  # the corpus spelling
        "event\t0\tb1\tbid\tv=5\tcap=60\tm=-\tfee=0\tadvice=auto",
        "event\t3\tb1\tbid\tv=05\tcap=60\tm=20\tfee=1\tadvice=head",
        "event\t3\tb1\tbid\tv=5\tcap=60\tadvice=-",
        "event\t0\t--\tbid\tv=5\tcap=60\tadvice=40",
        "event\t2\tb.1:x\twithdraw",
        "event\t9\tk\tpoke\tx=30\ttarget=-a+b-+c",
    ])
    def test_in_layout_spellings(self, line):
        assert scenario._EVENT_LAYOUT.fullmatch(line)
        expected = _read_event(line.split("\t"), WIDE_LINE)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scenario, "_read_event", _no_field_read)
            assert parse_scenario(WIDE + line + "\n").events == {expected[0]: [expected[1]]}

    @pytest.mark.parametrize("line", [
        "event\t0\tb1\tbid\tv=٣\tcap=60",  # a digit, but not ASCII
        "event\t0\tb1\tbid\tv=+5\tcap=60",
        "event\t0\tb1\tbid\tv=1_0\tcap=60",
        "event\t0\tb1\tbid\tv= 5\tcap=60",
        "event\t0\tb1\tbid\tcap=60\tv=5",
        "event\t0\tb1\tbid\tv=5\tcap=60\tfee=0\tm=-",
        "event\t0\tb1\tbid\tv=5\tcap=60\tm=",
        "event\t0\tb1\tbid\tv=5\tcap=60\tadvice=tail",
        "event\t0\t-\twithdraw",
        "event\t0\t\twithdraw",
        "event\t0\tbé1\twithdraw",
        "event\t0\tb1\twithdraw\t",
        "event\t0\tk\tpoke\tx=30\ttarget=a++b",
        "event\t0\tk\tpoke\tx=30\ttarget=a+-",
        " event\t0\tb1\twithdraw",
    ])
    def test_out_of_layout_spellings(self, line):
        assert scenario._EVENT_LAYOUT.fullmatch(line) is None

    @pytest.mark.parametrize("name", ["churn", "sweep", "corpus"])
    def test_generated_workloads_are_read_by_the_layout(self, name):
        with bench_module("workloads") as workloads:
            texts = list(getattr(workloads, name)(7, 60).values())[:20]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scenario, "_read_event", _no_field_read)
            assert all(parse_scenario(text).events for text in texts)


BID_ADVICE = st.one_of(st.sampled_from([AUTO, HEAD, None]), st.integers(0, 10**9))
EVENT_ACTION = st.one_of(
    st.builds(_bid, NAME_TEXT, st.integers(0, 10**9), st.integers(0, 10**9),
              st.one_of(st.none(), st.integers(0, 10**9)),
              st.one_of(st.just(0), st.integers(1, 10**9)), BID_ADVICE),
    st.builds(lambda actor: (actor, "withdraw"), NAME_TEXT),
    st.builds(_poke, NAME_TEXT, st.integers(0, 10**9), st.lists(NAME_TEXT, min_size=1, max_size=4)),
)


class TestEventEcho:
    @settings(max_examples=300, deadline=None)
    @given(events=st.dictionaries(st.integers(0, 50),
                                  st.lists(EVENT_ACTION, min_size=1, max_size=4), max_size=4))
    def test_one_template_per_action_matches_render(self, events):
        spec = dataclasses.replace(parse_scenario(MINIMAL), events=events)
        expected = ["\t".join(["event", str(stage), actor, kind]
                              + _render(EVENT_ACTIONS[kind], dict(zip(EVENT_ACTIONS[kind], values))))
                    for stage in sorted(events) for actor, kind, *values in events[stage]]
        assert [line for line in spec.normalize() if line.startswith("event\t")] == expected
