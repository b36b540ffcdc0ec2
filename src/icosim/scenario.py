"""Scenario files: a tab-separated description of one sale run.

A scenario pins everything a run depends on: the stage schedule, the
price curve, the gas schedule, protocol options, the strategy roster
and any explicitly scheduled transactions.  The ``seed`` record is a
required label that is echoed into the trace and changes nothing else.
Parsing produces a normalized form; the normalized lines are echoed into
every trace so a stored run can be replayed from the trace alone.  An
error names the line of the record at fault; only a missing record is
reported at line 1.

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


def _check_keys(record: str, kv: dict[str, str], required: tuple[str, ...],
                allowed: tuple[str, ...], line_no: int) -> None:
    for key in required:
        if key not in kv:
            raise ParseError(f"{record} record needs {key}=", line_no)
    extra = set(kv) - set(required) - set(allowed)
    if extra:
        raise ParseError(f"unknown {record} key {sorted(extra)[0]!r}", line_no)


def _invalid(err: IcoError, line_no: int) -> ParseError:
    """A semantically invalid record, reported as a parse error at its line."""
    return ParseError(f"{err.code}: {err}", line_no)


def parse(text: str) -> ScenarioSpec:
    sale_kv: dict[str, str] | None = None
    curve_kv: dict[str, str] | None = None
    gas_kv: dict[str, str] = {}
    option_kv: dict[str, str] = {}
    seed: int | None = None
    strategies: list[StrategyDecl] = []
    events: list[ScheduledEvent] = []
    event_lines: list[int] = []
    actors_seen: set[str] = set()
    header_seen = False
    # line of each config record, for errors found once all are read
    sale_line = curve_line = gas_line = option_line = 1

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
        if tag == "sale":
            if sale_kv is not None:
                raise ParseError("duplicate sale record", line_no)
            sale_kv = split_kv(fields[1:], line_no)
            sale_line = line_no
        elif tag == "curve":
            if curve_kv is not None:
                raise ParseError("duplicate curve record", line_no)
            curve_kv = split_kv(fields[1:], line_no)
            curve_line = line_no
        elif tag == "gas":
            gas_kv = split_kv(fields[1:], line_no)
            gas_line = line_no
        elif tag == "option":
            option_kv = split_kv(fields[1:], line_no)
            option_line = line_no
        elif tag == "seed":
            if len(fields) != 2:
                raise ParseError("seed takes exactly one value", line_no)
            seed = parse_amount(fields[1], line_no, 6)
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
            kv = split_kv(fields[3:], line_no)
            strategies.append(StrategyDecl(
                actor, kind, _take_params(kind, STRATEGY_KINDS, kv, line_no)))
        elif tag == "event":
            if len(fields) < 4:
                raise ParseError("event needs a stage, an actor and an action",
                                 line_no)
            stage = parse_amount(fields[1], line_no, 7)
            actor = _check_name(fields[2], line_no, 7)
            action = fields[3]
            if action not in EVENT_ACTIONS:
                raise ParseError(f"unknown event action {action!r}", line_no)
            kv = split_kv(fields[4:], line_no)
            events.append(ScheduledEvent(
                stage, actor, action,
                _take_params(action, EVENT_ACTIONS, kv, line_no)))
            event_lines.append(line_no)
        else:
            raise ParseError(f"unknown record tag {tag!r}", line_no)

    if not header_seen:
        raise ParseError(f"empty file, expected {FORMAT_TAG} header", 1)
    if sale_kv is None:
        raise ParseError("missing sale record", 1)
    if curve_kv is None:
        raise ParseError("missing curve record", 1)
    if seed is None:
        raise ParseError("missing seed record", 1)

    _check_keys("sale", sale_kv, ("t", "u", "granularity"), (), sale_line)
    t, u, granularity = (parse_amount(sale_kv[k], sale_line, 1)
                         for k in ("t", "u", "granularity"))

    _check_keys("curve", curve_kv, ("p0", "pt", "pu"), (), curve_line)
    knots = [parse_fraction(curve_kv[k], curve_line, 1) for k in ("p0", "pt", "pu")]
    try:
        curve = PriceCurve(*knots, t, u)
    except InvalidCurve as err:
        # PriceCurve checks the sale's stages before its own knots
        raise _invalid(err, curve_line if 0 <= t < u else sale_line) from None

    defaults = GasSchedule()
    _check_keys("gas", gas_kv, (), _GAS_KEYS, gas_line)
    try:
        gas = GasSchedule(**{
            _GAS_ATTRS[k]: (parse_amount(gas_kv[k], gas_line, 1) if k in gas_kv
                            else getattr(defaults, _GAS_ATTRS[k]))
            for k in _GAS_KEYS})
    except NegativeAmount as err:
        raise _invalid(err, gas_line) from None

    _check_keys("option", option_kv, (),
                ("penalty_free_withdrawal", "min_bid_deadline"), option_line)
    penalty_free = option_kv.get("penalty_free_withdrawal", "0")
    if penalty_free not in ("0", "1"):
        raise ParseError(
            f"penalty_free_withdrawal must be 0 or 1, got {penalty_free!r}", option_line)
    deadline_raw = option_kv.get("min_bid_deadline")
    deadline = None if deadline_raw is None else parse_amount(deadline_raw, option_line, 1)
    if deadline is not None and deadline < 0:
        raise ParseError(f"min_bid_deadline must be >= 0, got {deadline}", option_line)

    try:
        config = SaleConfig(t=t, u=u, granularity=granularity, curve=curve, gas=gas,
                            penalty_free_withdrawal=penalty_free == "1",
                            min_bid_deadline=deadline)
    except NegativeAmount as err:
        raise _invalid(err, sale_line) from None
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
