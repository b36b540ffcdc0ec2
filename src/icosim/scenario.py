"""Scenario files: a tab-separated description of one sale run.

A scenario pins everything a run depends on: the stage schedule, the
price curve, the gas schedule, protocol options, the strategy roster
and any explicitly scheduled transactions.  The ``seed`` record is a
required label that is echoed into the trace and changes nothing else.
Parsing produces a normalized form; the normalized lines are echoed into
every trace so a stored run can be replayed from the trace alone.  An
error names the line of the record at fault, and the column of the field
at fault where there is one; only a missing record is reported at line 1.

One record per line, fields separated by tabs, ``#`` starts a comment
line.  The first record is ``ico-scenario<TAB>1`` and ``seed<TAB><int>``
is required.  Every other record is a tag, its positional fields, then
``key=value`` fields in any order:

    sale|curve|gas|option  k=v ...                         CONFIG_RECORDS
    strategy               <actor> <kind> k=v ...          STRATEGY_KINDS
    event                  <stage> <actor> <action> k=v ...  EVENT_ACTIONS

Those three field tables give each record's keys with their types and
defaults.  Every value is read once, into its typed form, and the
normalized lines are rendered from the typed values.

An event record in the echo's layout (its action's keys in
``EVENT_ACTIONS`` order, an optional one maybe absent or at its default,
plain ASCII integers and names) is read by one compiled match,
``_EVENT_LAYOUT``, whose captured values are converted with ``int`` by
hand.  Any other line, or a value ``int`` refuses, is read field by
field by ``_read_event``, which words every error.  The echo writes each
event with one f-string per action; strategy, option and config records
are rendered from their field tables.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field

from .book import HEAD
from .engine import SaleConfig
from .errors import IcoError, InvalidCurve, NegativeAmount, NonMonotoneTable, ParseError
from .gas import GasSchedule
from .pricing import PriceCurve
from .trace import (REQUIRED, _column, fmt, parse_amount, parse_fraction,
                    parse_optional_amount, read_fields, split_lines)

FORMAT_TAG = "ico-scenario"
FORMAT_VERSION = "1"

_NAME_CHAR = "[A-Za-z0-9_.:-]"
_NAME = re.compile(f"^{_NAME_CHAR}+$")

AUTO = "auto"  # a bid's advice when the runner is to compute the hint


# --- typed values -----------------------------------------------------------


@dataclass(frozen=True)
class TableStep:
    """One level of a demand schedule: want ``amount`` while V < cap."""

    cap: int
    amount: int
    minimum: int | None = None


@dataclass(frozen=True)
class ValuationTable:
    steps: tuple[TableStep, ...]

    def __post_init__(self) -> None:
        caps = [s.cap for s in self.steps]
        amounts = [s.amount for s in self.steps]
        if any(a <= 0 for a in amounts) or any(c <= 0 for c in caps):
            raise NonMonotoneTable("table entries must be positive")
        if caps != sorted(set(caps)):
            raise NonMonotoneTable(f"caps must strictly increase, got {caps}")
        if amounts != sorted(set(amounts), reverse=True):
            raise NonMonotoneTable(
                f"amounts must strictly decrease, got {amounts}")

    def evaluate(self, valuation: int) -> int:
        """Demand at a given valuation: the Σ of bids whose cap exceeds it."""
        for step in self.steps:
            if step.cap > valuation:
                return step.amount
        return 0

    def __str__(self) -> str:
        """The scenario spelling: ``cap:amount[:minimum]`` steps joined by commas."""
        return ",".join(f"{s.cap}:{s.amount}" if s.minimum is None
                        else f"{s.cap}:{s.amount}:{s.minimum}" for s in self.steps)


@dataclass(slots=True)
class Action:
    """One transaction, scheduled by the scenario or emitted by a strategy."""

    actor: str
    kind: str  # bid | withdraw | poke
    params: dict


@dataclass(slots=True)
class StrategyDecl:
    actor: str
    kind: str
    params: dict  # typed values, keyed as in STRATEGY_KINDS[kind]


# --- field readers: (text, line, column) -> typed value ------------------------


def _check_name(name: str, line_no: int, column: int) -> str:
    if not _NAME.match(name) or name == "-":
        raise ParseError(f"bad actor name {name!r}", line_no, column)
    return name


def _actors(text: str, line_no: int, column: int) -> list[str]:
    return [_check_name(name, line_no, column) for name in text.split("+")]


def _advice(text: str, line_no: int, column: int):
    """``auto`` (the runner computes the hint), ``head``, ``-`` for no
    hint, or the integer key of the bucket to insert after."""
    if text in (AUTO, HEAD):
        return text
    try:
        return parse_optional_amount(text, line_no, column)
    except ParseError:
        raise ParseError(f"advice must be auto, head, - or an integer key, got {text!r}",
                         line_no, column) from None


def _steps(text: str, line_no: int, column: int) -> ValuationTable:
    steps = []
    for part in text.split(","):
        bits = part.split(":")
        if len(bits) not in (2, 3):
            raise ParseError(f"bad table step {part!r}", line_no, column)
        steps.append(TableStep(*(parse_amount(b, line_no, column) for b in bits)))
    try:
        return ValuationTable(tuple(steps))
    except NonMonotoneTable as err:
        raise ParseError(f"{err.code}: {err}", line_no, column) from None


def _flag(text: str, line_no: int, column: int) -> bool:
    if text not in ("0", "1"):
        raise ParseError(f"penalty_free_withdrawal must be 0 or 1, got {text!r}",
                         line_no, column)
    return text == "1"


def _deadline(text: str, line_no: int, column: int) -> int:
    deadline = parse_amount(text, line_no, column)
    if deadline < 0:
        raise ParseError(f"min_bid_deadline must be >= 0, got {deadline}",
                         line_no, column)
    return deadline


# --- field tables: key -> (reader, default) --------------------------------------

_AMOUNT = (parse_amount, REQUIRED)
_MINIMUM = (parse_optional_amount, None)
_FEE = (parse_amount, 0)

CONFIG_RECORDS: dict[str, dict] = {
    "sale": dict.fromkeys(("t", "u", "granularity"), _AMOUNT),
    "curve": dict.fromkeys(("p0", "pt", "pu"), (parse_fraction, REQUIRED)),
    "gas": {f.name: (parse_amount, f.default) for f in dataclasses.fields(GasSchedule)},
    "option": {"penalty_free_withdrawal": (_flag, False),
               "min_bid_deadline": (_deadline, None)},
}

# required keys first: ``normalize`` renders in table order
STRATEGY_KINDS: dict[str, dict] = {
    "passive": {"entry": _AMOUNT, "v": _AMOUNT, "cap": _AMOUNT, "m": _MINIMUM,
                "fee": _FEE},
    "table": {"entry": _AMOUNT, "steps": (_steps, REQUIRED)},
    "reactive": {"v": _AMOUNT, "cap": _AMOUNT, "threshold": _AMOUNT,
                 "delay": (parse_amount, 1)},
    "blackout": dict.fromkeys(("stake", "stake_cap", "blind", "blind_cap", "withdraw"),
                              _AMOUNT),
    "whale": dict.fromkeys(("entry", "v", "cap"), _AMOUNT),
    "sniper": dict.fromkeys(("entry", "withdraw", "v", "cap"), _AMOUNT),
}

EVENT_ACTIONS: dict[str, dict] = {
    "bid": {"v": _AMOUNT, "cap": _AMOUNT, "m": _MINIMUM, "fee": _FEE,
            "advice": (_advice, AUTO)},
    "withdraw": {},
    "poke": {"x": _AMOUNT, "target": (_actors, REQUIRED)},
}


def _read(fields: list[str], start: int, line_no: int, table: dict,
          name: str) -> dict:
    values = read_fields(fields, start, line_no, table, name)
    if len(values) != len(table):  # name the first unknown key, in record order
        keys = [f.split("=", 1)[0] for f in fields]
        index = next(i for i in range(start, len(keys)) if keys[i] not in table)
        raise ParseError(f"unknown {name} key {keys[index]!r}", line_no, _column(fields, index))
    return values


# One full-line pattern for every event record in the echo's layout: the
# keys of each action in table order, each once; an optional key may be
# absent.  Integers are ASCII (``-?[0-9]+``, not ``\d``) and names use
# ``_NAME``'s characters, but never ``-`` alone, so every captured value reads
# as its field's reader would read it, once ``int`` takes it.  ``m=-`` and
# ``advice=auto`` capture nothing: they read as an absent key.
_INT = "-?[0-9]+"
_LAYOUT_NAME = f"(?!-(?!{_NAME_CHAR})){_NAME_CHAR}+"
_EVENT_LAYOUT = re.compile(
    f"event\t({_INT})\t({_LAYOUT_NAME})\t(?:"
    f"(bid)\tv=({_INT})\tcap=({_INT})(?:\tm=(?:-|({_INT})))?(?:\tfee=({_INT}))?"
    f"(?:\tadvice=(?:{AUTO}|({HEAD}|-|{_INT})))?"
    "|withdraw"
    f"|(poke)\tx=({_INT})\ttarget=({_LAYOUT_NAME}(?:\\+{_LAYOUT_NAME})*))")


def _read_event(fields: list[str], line_no: int) -> tuple[int, Action]:
    """An ``event`` record read field by field: its stage and its action."""
    if len(fields) < 4:
        raise ParseError("event needs a stage, an actor and an action", line_no)
    stage = parse_amount(fields[1], line_no, 7)  # columns after "event\t"
    actor = _check_name(fields[2], line_no, 8 + len(fields[1]))
    action = fields[3]
    if action not in EVENT_ACTIONS:
        raise ParseError(f"unknown event action {action!r}", line_no, _column(fields, 3))
    return stage, Action(actor, action, _read(fields, 4, line_no, EVENT_ACTIONS[action], action))


def _render(table: dict, params: dict) -> list[str]:
    """``key=value`` fields in table order; optional ones only off their default."""
    out = []
    for key, (_, default) in table.items():
        if default is REQUIRED:
            out.append(f"{key}={fmt(params[key])}")
        elif (value := params.get(key, default)) != default:
            out.append(f"{key}={fmt(value)}")
    return out


@dataclass
class ScenarioSpec:
    config: SaleConfig
    seed: int
    strategies: list[StrategyDecl] = field(default_factory=list)
    events: dict[int, list[Action]] = field(default_factory=dict)  # by stage, file order

    def normalize(self) -> list[str]:
        """Canonical line rendering: fixed key order, reduced rationals."""
        cfg, curve, gas = self.config, self.config.curve, self.config.gas
        lines = [
            f"{FORMAT_TAG}\t{FORMAT_VERSION}",
            f"sale\tt={cfg.t}\tu={cfg.u}\tgranularity={cfg.granularity}",
            f"curve\tp0={fmt(curve.p0)}\tpt={fmt(curve.pt)}\tpu={fmt(curve.pu)}",
            "gas\t" + "\t".join(f"{f.name}={getattr(gas, f.name)}"
                                  for f in dataclasses.fields(GasSchedule)),
        ]
        options = _render(CONFIG_RECORDS["option"], {
            "penalty_free_withdrawal": cfg.penalty_free_withdrawal,
            "min_bid_deadline": cfg.min_bid_deadline})
        if options:
            lines.append("\t".join(["option"] + options))
        lines.append(f"seed\t{self.seed}")
        for s in self.strategies:
            lines.append("\t".join(["strategy", s.actor, s.kind]
                                   + _render(STRATEGY_KINDS[s.kind], s.params)))
        for stage in sorted(self.events):  # one template per action: the bytes of _render
            for a in self.events[stage]:
                p = a.params
                if a.kind == "bid":
                    line = f"event\t{stage}\t{a.actor}\tbid\tv={p['v']}\tcap={p['cap']}"
                    if (m := p.get("m")) is not None:
                        line += f"\tm={m}"
                    if (fee := p.get("fee", 0)) != 0:
                        line += f"\tfee={fee}"
                    if (advice := p.get("advice", AUTO)) != AUTO:
                        line += f"\tadvice={fmt(advice)}"
                elif a.kind == "withdraw":
                    line = f"event\t{stage}\t{a.actor}\twithdraw"
                elif a.kind == "poke":
                    line = f"event\t{stage}\t{a.actor}\tpoke\tx={p['x']}\ttarget={fmt(p['target'])}"
                else:
                    raise ValueError(f"unknown action kind {a.kind!r}")
                lines.append(line)
        return lines

    def render(self) -> str:
        return "\n".join(self.normalize()) + "\n"


def _invalid(err: IcoError, line_no: int) -> ParseError:
    """A semantically invalid record, reported as a parse error at its line."""
    return ParseError(f"{err.code}: {err}", line_no)


def parse(text: str) -> ScenarioSpec:
    config: dict[str, tuple[int, dict]] = {}  # tag -> (line, typed values)
    seed: int | None = None
    strategies: list[StrategyDecl] = []
    events: dict[int, list[Action]] = {}
    strategy_lines: list[int] = []
    stage_lines: dict[int, int] = {}  # stage -> line of its first event
    actors_seen: set[str] = set()
    header_seen = False

    lines = split_lines(text)
    for line_no, line in enumerate(lines, start=1):
        if header_seen and (match := _EVENT_LAYOUT.fullmatch(line)):
            stage, actor, bid, v, cap, m, fee, advice, poke, x, target = match.groups()
            try:
                if bid:
                    params = {"v": int(v), "cap": int(cap),
                              "m": None if m is None else int(m),
                              "fee": 0 if fee is None else int(fee),
                              "advice": (AUTO if advice is None else HEAD if advice == HEAD
                                         else None if advice == "-" else int(advice))}
                elif poke:
                    params = {"x": int(x), "target": target.split("+")}
                else:
                    params = {}
                stage = int(stage)
            except ValueError:  # more digits than ``int`` reads: worded below
                pass
            else:
                events.setdefault(stage, []).append(Action(actor, bid or poke or "withdraw",
                                                           params))
                stage_lines.setdefault(stage, line_no)
                continue
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
        if tag == "seed":
            if len(fields) != 2:
                raise ParseError("seed takes exactly one value", line_no)
            if seed is not None:
                raise ParseError("duplicate seed record", line_no)
            seed = parse_amount(fields[1], line_no, _column(fields, 1))
        elif tag in CONFIG_RECORDS:
            if tag in config:
                raise ParseError(f"duplicate {tag} record", line_no)
            config[tag] = (line_no, _read(fields, 1, line_no, CONFIG_RECORDS[tag], tag))
        elif tag == "strategy":
            if len(fields) < 3:
                raise ParseError("strategy needs an actor and a kind", line_no)
            actor = _check_name(fields[1], line_no, _column(fields, 1))
            kind = fields[2]
            if kind not in STRATEGY_KINDS:
                raise ParseError(f"unknown strategy kind {kind!r}", line_no, _column(fields, 2))
            if actor in actors_seen:
                raise ParseError(f"actor {actor!r} declared twice", line_no, _column(fields, 1))
            actors_seen.add(actor)
            strategies.append(StrategyDecl(
                actor, kind, _read(fields, 3, line_no, STRATEGY_KINDS[kind], kind)))
            strategy_lines.append(line_no)
        elif tag == "event":
            stage, action = _read_event(fields, line_no)
            events.setdefault(stage, []).append(action)
            stage_lines.setdefault(stage, line_no)
        else:
            raise ParseError(f"unknown record tag {tag!r}", line_no)

    if not header_seen:
        raise ParseError(f"empty file, expected {FORMAT_TAG} header", 1)
    for tag in ("sale", "curve"):
        if tag not in config:
            raise ParseError(f"missing {tag} record", 1)
    if seed is None:
        raise ParseError("missing seed record", 1)
    for tag in ("gas", "option"):  # an absent record reads as one with no fields
        config.setdefault(tag, (1, _read([tag], 1, 1, CONFIG_RECORDS[tag], tag)))
    (sale_line, sale), (curve_line, knots) = config["sale"], config["curve"]
    (gas_line, gas), (_, option) = config["gas"], config["option"]

    t, u = sale["t"], sale["u"]
    try:
        curve = PriceCurve(knots["p0"], knots["pt"], knots["pu"], t, u)
    except InvalidCurve as err:
        # PriceCurve checks the sale's stages before its own knots
        raise _invalid(err, curve_line if 0 <= t < u else sale_line) from None
    try:
        schedule = GasSchedule(**gas)
    except NegativeAmount as err:
        raise _invalid(err, gas_line) from None
    try:
        sale_config = SaleConfig(t=t, u=u, granularity=sale["granularity"], curve=curve,
                                 gas=schedule, **option)
    except NegativeAmount as err:
        raise _invalid(err, sale_line) from None
    for s, line_no in zip(strategies, strategy_lines):
        for key in ("entry", "withdraw"):  # reactive's delay is a latency, not a stage
            if not 0 <= s.params.get(key, 0) <= u:
                fields = lines[line_no - 1].split("\t")
                index = next(i for i, f in enumerate(fields) if f.startswith(f"{key}="))
                raise ParseError(f"strategy {key} {s.params[key]} outside 0..{u}",
                                 line_no, _column(fields, index))
    for stage, line_no in stage_lines.items():
        if not 0 <= stage <= u:
            raise ParseError(f"event stage {stage} outside 0..{u}", line_no, 7)
    return ScenarioSpec(config=sale_config, seed=seed, strategies=strategies,
                        events=events)


def parse_file(path) -> ScenarioSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())
