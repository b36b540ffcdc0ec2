"""Scenario files: a tab-separated description of one sale run.

A scenario pins everything a run depends on: the stage schedule, the
price curve, the gas schedule, protocol options, the strategy roster
and any explicitly scheduled transactions.  The ``seed`` record is a
required label that is echoed into the trace and changes nothing else.
Parsing produces a normalized form; the normalized lines are echoed into
every trace so a stored run can be replayed from the trace alone.  An
error names the line of the record at fault, and the column of the field
at fault where there is one; only a missing record is reported at line 1.

Grammar (one record per line, fields separated by tabs, ``#`` starts a
comment line):

    ico-scenario  1
    sale      t=<int> u=<int> granularity=<int>
    curve     p0=<rat> pt=<rat> pu=<rat>
    gas       block_limit=.. loop_base=.. pointer_move=.. store=.. bid_submit=.. advice_check=..
    option    penalty_free_withdrawal=0|1  min_bid_deadline=<int>
    seed      <int>
    strategy  <actor> <kind> k=v ...
    event     <stage> <actor> bid|withdraw|poke k=v ...
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .engine import SaleConfig
from .errors import IcoError, InvalidCurve, NegativeAmount, ParseError
from .gas import GasSchedule
from .pricing import PriceCurve
from .trace import fmt, parse_amount, parse_fraction, split_kv

FORMAT_TAG = "ico-scenario"
FORMAT_VERSION = "1"

_NAME = re.compile(r"^[A-Za-z0-9_.:-]+$")

_GAS_KEYS = ("block_limit", "loop_base", "pointer_move", "store",
             "bid_submit", "advice_check")

# kind -> (required keys, optional keys with defaults)
STRATEGY_KINDS: dict[str, tuple[tuple[str, ...], dict[str, str]]] = {
    "passive": (("entry", "v", "cap"), {"m": "-", "fee": "0"}),
    "table": (("entry", "steps"), {}),
    "reactive": (("v", "cap", "threshold"), {"delay": "1"}),
    "blackout": (("stake", "stake_cap", "blind", "blind_cap", "withdraw"), {}),
    "whale": (("entry", "v", "cap"), {}),
    "sniper": (("entry", "withdraw", "v", "cap"), {}),
}

EVENT_ACTIONS: dict[str, tuple[tuple[str, ...], dict[str, str]]] = {
    "bid": (("v", "cap"), {"m": "-", "fee": "0", "advice": "auto"}),
    "withdraw": ((), {}),
    "poke": (("x", "target"), {}),
}


@dataclass(frozen=True)
class StrategyDecl:
    actor: str
    kind: str
    params: dict[str, str]


@dataclass(frozen=True)
class ScheduledEvent:
    stage: int
    actor: str
    action: str
    params: dict[str, str]


@dataclass
class ScenarioSpec:
    config: SaleConfig
    seed: int
    strategies: list[StrategyDecl] = field(default_factory=list)
    events: list[ScheduledEvent] = field(default_factory=list)

    def normalize(self) -> list[str]:
        """Canonical line rendering: fixed key order, reduced rationals."""
        cfg, curve, gas = self.config, self.config.curve, self.config.gas
        lines = [
            f"{FORMAT_TAG}\t{FORMAT_VERSION}",
            f"sale\tt={cfg.t}\tu={cfg.u}\tgranularity={cfg.granularity}",
            f"curve\tp0={fmt(curve.p0)}\tpt={fmt(curve.pt)}\tpu={fmt(curve.pu)}",
            "gas\t" + "\t".join(
                f"{k}={getattr(gas, _GAS_ATTRS[k])}" for k in _GAS_KEYS),
        ]
        options = []
        if cfg.penalty_free_withdrawal:
            options.append("penalty_free_withdrawal=1")
        if cfg.min_bid_deadline is not None:
            options.append(f"min_bid_deadline={cfg.min_bid_deadline}")
        if options:
            lines.append("option\t" + "\t".join(options))
        lines.append(f"seed\t{self.seed}")
        for s in self.strategies:
            required, optional = STRATEGY_KINDS[s.kind]
            kv = [f"{k}={s.params[k]}" for k in required]
            kv += [f"{k}={s.params[k]}" for k in optional
                   if s.params.get(k, optional[k]) != optional[k]]
            lines.append("\t".join(["strategy", s.actor, s.kind] + kv))
        for e in sorted(self.events, key=lambda e: e.stage):
            required, optional = EVENT_ACTIONS[e.action]
            kv = [f"{k}={e.params[k]}" for k in required]
            kv += [f"{k}={e.params[k]}" for k in optional
                   if e.params.get(k, optional[k]) != optional[k]]
            lines.append("\t".join(["event", str(e.stage), e.actor, e.action] + kv))
        return lines

    def render(self) -> str:
        return "\n".join(self.normalize()) + "\n"


def _split(fields: list[str], start: int, line_no: int) -> dict[str, str]:
    """``split_kv`` of ``fields[start:]``, naming a bad field's column.

    The column is worked out only once a field is known to be bad: the
    split is repeated with it, which raises the same error there."""
    try:
        return split_kv(fields[start:], line_no)
    except ParseError:
        split_kv(fields[start:], line_no, sum(map(len, fields[:start])) + start + 1)
        raise


@dataclass(frozen=True)
class _Record:
    """A config record as read: its tag, line number, text and key=value map."""

    tag: str
    line: int
    text: str
    kv: dict[str, str]

    def column(self, key: str) -> int:
        """Column at which the ``key=`` field starts."""
        return self.text.index(f"\t{key}=") + 2

    def value(self, key: str, parse=parse_amount, default=None):
        """``parse`` of the ``key=`` field's value, or ``default`` when the
        field is absent; a bad value is named at its column as in ``_split``."""
        if key not in self.kv:
            return default
        try:
            return parse(self.kv[key], self.line, 1)
        except ParseError:
            parse(self.kv[key], self.line, self.column(key))
            raise

    def check_keys(self, required: tuple[str, ...], allowed: tuple[str, ...] = ()) -> None:
        for key in required:
            if key not in self.kv:
                raise ParseError(f"{self.tag} record needs {key}=", self.line)
        extra = set(self.kv) - set(required) - set(allowed)
        if extra:
            raise ParseError(f"unknown {self.tag} key {sorted(extra)[0]!r}", self.line)


def _check_name(name: str, line_no: int, column: int) -> str:
    if not _NAME.match(name) or name == "-":
        raise ParseError(f"bad actor name {name!r}", line_no, column)
    return name


def _take_params(kind: str, table: dict, kv: dict[str, str],
                 line_no: int) -> dict[str, str]:
    required, optional = table[kind]
    params: dict[str, str] = {}
    for key in required:
        if key not in kv:
            raise ParseError(f"{kind} needs {key}=", line_no)
        params[key] = kv.pop(key)
    for key, default in optional.items():
        params[key] = kv.pop(key, default)
    if kv:
        raise ParseError(f"unknown {kind} key {sorted(kv)[0]!r}", line_no)
    return params


def _invalid(err: IcoError, line_no: int) -> ParseError:
    """A semantically invalid record, reported as a parse error at its line."""
    return ParseError(f"{err.code}: {err}", line_no)


def parse(text: str) -> ScenarioSpec:
    records: dict[str, _Record] = {}  # config records, checked once all are read
    seed: int | None = None
    strategies: list[StrategyDecl] = []
    events: list[ScheduledEvent] = []
    event_lines: list[int] = []
    actors_seen: set[str] = set()
    header_seen = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        tag = fields[0]
        if not header_seen:
            if fields != [FORMAT_TAG, FORMAT_VERSION]:
                raise ParseError(
                    f"first record must be {FORMAT_TAG}\\t{FORMAT_VERSION}", line_no)
            header_seen = True
            continue
        if tag in ("sale", "curve", "gas", "option", "seed"):  # each at most once
            if tag == "seed":
                if len(fields) != 2:
                    raise ParseError("seed takes exactly one value", line_no)
                seed = parse_amount(fields[1], line_no, 6)
                kv = {}
            else:
                kv = _split(fields, 1, line_no)
            if tag in records:
                raise ParseError(f"duplicate {tag} record", line_no)
            records[tag] = _Record(tag, line_no, line, kv)
        elif tag == "strategy":
            if len(fields) < 3:
                raise ParseError("strategy needs an actor and a kind", line_no)
            actor = _check_name(fields[1], line_no, 10)
            kind = fields[2]
            if kind not in STRATEGY_KINDS:
                raise ParseError(f"unknown strategy kind {kind!r}", line_no,
                                 10 + len(actor) + 1)
            if actor in actors_seen:
                raise ParseError(f"actor {actor!r} declared twice", line_no, 10)
            actors_seen.add(actor)
            kv = _split(fields, 3, line_no)
            strategies.append(StrategyDecl(
                actor, kind, _take_params(kind, STRATEGY_KINDS, kv, line_no)))
        elif tag == "event":
            if len(fields) < 4:
                raise ParseError("event needs a stage, an actor and an action",
                                 line_no)
            stage = parse_amount(fields[1], line_no, 7)
            actor = _check_name(fields[2], line_no, 8 + len(fields[1]))
            action = fields[3]
            if action not in EVENT_ACTIONS:
                raise ParseError(f"unknown event action {action!r}", line_no)
            kv = _split(fields, 4, line_no)
            events.append(ScheduledEvent(
                stage, actor, action,
                _take_params(action, EVENT_ACTIONS, kv, line_no)))
            event_lines.append(line_no)
        else:
            raise ParseError(f"unknown record tag {tag!r}", line_no)

    if not header_seen:
        raise ParseError(f"empty file, expected {FORMAT_TAG} header", 1)
    for tag in ("sale", "curve", "seed"):
        if tag not in records:
            raise ParseError(f"missing {tag} record", 1)
    sale, curve_rec = records["sale"], records["curve"]
    gas_rec = records.get("gas", _Record("gas", 1, "gas", {}))
    option = records.get("option", _Record("option", 1, "option", {}))

    sale.check_keys(("t", "u", "granularity"))
    t, u, granularity = (sale.value(k) for k in ("t", "u", "granularity"))

    curve_rec.check_keys(("p0", "pt", "pu"))
    knots = [curve_rec.value(k, parse_fraction) for k in ("p0", "pt", "pu")]
    try:
        curve = PriceCurve(*knots, t, u)
    except InvalidCurve as err:
        # PriceCurve checks the sale's stages before its own knots
        raise _invalid(err, curve_rec.line if 0 <= t < u else sale.line) from None

    defaults = GasSchedule()
    gas_rec.check_keys((), _GAS_KEYS)
    try:
        gas = GasSchedule(**{
            _GAS_ATTRS[k]: gas_rec.value(k, default=getattr(defaults, _GAS_ATTRS[k]))
            for k in _GAS_KEYS})
    except NegativeAmount as err:
        raise _invalid(err, gas_rec.line) from None

    option.check_keys((), ("penalty_free_withdrawal", "min_bid_deadline"))
    penalty_free = option.kv.get("penalty_free_withdrawal", "0")
    if penalty_free not in ("0", "1"):
        raise ParseError(
            f"penalty_free_withdrawal must be 0 or 1, got {penalty_free!r}",
            option.line, option.column("penalty_free_withdrawal"))
    deadline = option.value("min_bid_deadline")
    if deadline is not None and deadline < 0:
        raise ParseError(f"min_bid_deadline must be >= 0, got {deadline}",
                         option.line, option.column("min_bid_deadline"))

    try:
        config = SaleConfig(t=t, u=u, granularity=granularity, curve=curve, gas=gas,
                            penalty_free_withdrawal=penalty_free == "1",
                            min_bid_deadline=deadline)
    except NegativeAmount as err:
        raise _invalid(err, sale.line) from None
    for e, line_no in zip(events, event_lines):
        if not 0 <= e.stage <= u:
            raise ParseError(f"event stage {e.stage} outside 0..{u}", line_no)
    return ScenarioSpec(config=config, seed=seed, strategies=strategies,
                        events=events)


_GAS_ATTRS = {
    "block_limit": "block_limit", "loop_base": "loop_base",
    "pointer_move": "per_pointer_move", "store": "per_store",
    "bid_submit": "per_bid_submit", "advice_check": "per_advice_check",
}


def parse_file(path) -> ScenarioSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())
