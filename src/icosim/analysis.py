"""The referee: outcome checks and the trace auditor.

Everything here works on trace records and the values read from them.
This module imports only ``errors`` and ``trace`` from the package, and
a test holds it to that, so the auditor is an independent referee for
any stored run: it shares no code with the engine that wrote the run.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field

from .errors import ParseError
from .trace import (REQUIRED, Trace, parse_amount, parse_fraction, parse_optional_amount,
                    read_fields)

# --- cap-rule satisfaction ---------------------------------------------------


@dataclass(frozen=True)
class SatisfactionFailure:
    address: str
    cap: int
    retained: int
    expected: str


@dataclass(frozen=True)
class SatisfactionReport:
    final_v: int
    checked: int
    failures: tuple[SatisfactionFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def satisfaction_check(final_v: int, outcomes) -> SatisfactionReport:
    """Check every funded position against its personal cap.

    ``outcomes`` yields (address, v, cap, retained) rows.  A cap above the
    final valuation must keep the full stake, a cap below it none of it,
    and exactly at the valuation anything in [0, v] is acceptable.
    """
    failures = []
    checked = 0
    for address, v, cap, retained in outcomes:
        checked += 1
        if cap > final_v:
            if retained != v:
                failures.append(SatisfactionFailure(address, cap, retained, f"== {v}"))
        elif cap < final_v:
            if retained != 0:
                failures.append(SatisfactionFailure(address, cap, retained, "== 0"))
        elif not (0 <= retained <= v):
            failures.append(SatisfactionFailure(address, cap, retained, f"in [0, {v}]"))
    return SatisfactionReport(final_v, checked, tuple(failures))


# --- trace auditor -----------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    stage: int | None
    check: str
    detail: str


@dataclass
class AuditReport:
    violations: list[Violation] = field(default_factory=list)
    lag_stages: list[int] = field(default_factory=list)
    blocks: int = 0
    final_v: int | None = None

    @property
    def clean(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        out = [f"audit\t{'clean' if self.clean else 'violation'}"
               f"\tblocks={self.blocks}\tcount={len(self.violations)}"]
        for v in self.violations:
            out.append(f"violation\tstage={'-' if v.stage is None else v.stage}"
                       f"\tcheck={v.check}\tdetail={v.detail}")
        return out


@dataclass(slots=True)
class _Position:
    v: int
    cap: int
    fee: int
    minimum: int | None
    status: str  # dormant | active | permanent | used
    perm_b: int = 0
    allocated: bool = False
    retained: int = 0               # from an active ``alloc`` record
    exit_reason: str | None = None  # from an ``alloc`` status "<status>:<reason>"


# --- field tables: key -> (reader, default), the keys the auditor reads -------
# A key no table names passes through unread; every record is still checked
# for its ``key=value`` shape.


def _names(text: str, line_no: int, column: int) -> list[str]:
    return [] if text == "-" else text.split("+")


def _granularity(text: str, line_no: int, column: int) -> int:
    granularity = parse_amount(text, line_no, column)
    if granularity <= 0:
        raise ParseError(f"granularity must be > 0, got {granularity}", line_no, column)
    return granularity


_AMOUNT = (parse_amount, REQUIRED)
_ZERO = (parse_amount, 0)
_NAMES = (_names, ())
_SWEEP = dict.fromkeys(("cap", "live", "out"), _AMOUNT)
_SHAPE: dict = {}  # reads no key, checks the key=value shape only

BLOCK_LIMIT = 6_700_000  # a scenario's block limit when its ``gas`` record names none
# ``scn`` records by their echoed tag; the other echoed records pass unread
SCENARIO_ECHOES: dict[str, dict] = {
    "sale": {"t": _AMOUNT, "u": _AMOUNT, "granularity": (_granularity, 1)},
    "gas": {"block_limit": (parse_amount, BLOCK_LIMIT)},
}
_READ_ECHOES = tuple(f"scn\t{tag}" for tag in SCENARIO_ECHOES)
# ``ev`` records with outcome ``ok``, by action; other outcomes and unknown
# actions are read for shape only
EVENT_FIELDS: dict[str, dict] = {
    "bid": {"v": _AMOUNT, "cap": _AMOUNT, "m": (parse_optional_amount, None),
            "fee": _ZERO},
    "withdraw": {"refund": _AMOUNT, "fee_back": _ZERO, "perm_v": _ZERO, "perm_b": _ZERO},
    "poke": {"x": _AMOUNT, "target": _NAMES, "activated": _NAMES, "fee": _ZERO},
}
# ``s3`` records by kind; an unknown kind is read as ``_SWEEP`` and flagged
SWEEP_KINDS: dict[str, dict] = {
    "kick": {**_SWEEP, "credited": _AMOUNT, "addrs": _NAMES},
    "scale": {**_SWEEP, "q": (parse_fraction, REQUIRED)},
}
BLOCK_FIELDS: dict = {
    **dict.fromkeys(("V", "gas", "boundary", "dormant", "permanent", "pending", "escrow",
                     "fees_paid", "refunds", "proceeds", "deposits"), _AMOUNT),
    "carry": (lambda text, line_no, column: text == "1", False),
}
# the block values the auditor derives itself, in the order it checks them
_LEDGER = ("V", "dormant", "permanent", "pending", "escrow", "fees_paid", "refunds",
           "deposits", "proceeds")
ALLOC_FIELDS: dict = {**dict.fromkeys(("tokens", "retained", "refund_final"), _AMOUNT),
                      "status": (lambda text, line_no, column: text, REQUIRED)}
# every ``alloc`` status the engine writes, "<status>" or "<status>:<exit reason>"
_ALLOC_STATUSES = frozenset(("active", "dormant", "permanent:voluntary", "used:voluntary",
                             "used:kicked", "used:cancelled_dormant"))
FINAL_FIELDS: dict = dict.fromkeys(("V", "stage", "proceeds"), _AMOUNT)


# --- the writer's layouts: one full-line pattern per record kind but ``fin`` --
# Declared here from the trace format, not taken from the writer: each layout
# lists the writer's keys in the writer's order, and captures the value of
# each key its field table reads as one ``([^\t]*)`` group.  Any other value
# may be any text, as ``read_fields`` passes a key no table names unread.  So
# a line in a layout holds the keys its table reads, once each, and the
# groups are the texts ``read_fields`` would read.  A line in no layout, or
# with a value the layout read refuses, is read field by field.

_ANY = "[^\t]*"


def _keys(keys: str, table: dict) -> str:
    """``keys`` as ``key=value`` fields, capturing the values ``table`` reads."""
    return "".join(f"\t{key}=({_ANY})" if key in table else f"\t{key}={_ANY}"
                   for key in keys.split())


# ``scn`` echoes by tag, as ``ScenarioSpec.normalize`` writes them
ECHO_LAYOUTS = {"sale": "t u granularity",
                "gas": "block_limit loop_base pointer_move store bid_submit advice_check"}
_ECHO_LAYOUTS = {tag: re.compile(f"scn\t{tag}{_keys(keys, SCENARIO_ECHOES[tag])}")
                 for tag, keys in ECHO_LAYOUTS.items()}
# ``ev`` by action: the ``ok`` layout, its EVENT_FIELDS values captured, and
# the ``err:<code>`` layout, of which only the stage is read
EVENT_LAYOUTS = {"bid": ("v cap m fee advice b status", "v cap m fee advice"),
                 "withdraw": ("refund fee_back perm_v perm_b", ""),
                 "poke": ("x target activated fee", "x target")}


def _event_layout() -> tuple[re.Pattern, dict[int, tuple[str | None, int]]]:
    """Every ``ev`` layout in one pattern.  Also, by a match's last group,
    the ``ok`` action it matched and the index of that action's first value
    in ``match.groups()``: each ``ok`` layout's groups follow those of the
    layouts before it, and an ``err`` layout captures none, so its match
    ends at the actor, group 2."""
    ok, err, branch, last = [], [], {2: (None, 2)}, 2
    for action, (ok_keys, err_keys) in EVENT_LAYOUTS.items():
        table = EVENT_FIELDS[action]
        ok.append(f"{action}\tok{_keys(ok_keys, table)}")
        err.append(f"{action}\terr:{_ANY}{_keys(err_keys, _SHAPE)}")
        count = sum(key in table for key in ok_keys.split())
        branch[last + count] = (action, last)
        last += count
    return re.compile(f"ev\t({_ANY})\t{_ANY}\t({_ANY})\t(?:{'|'.join(ok + err)})"), branch


_EVENT_LAYOUT, _EVENT_BRANCH = _event_layout()
# ``s3``, either kind: every value either kind reads is captured
SWEEP_LAYOUT = "cap n live q out credited addrs"
_SWEEP_LAYOUT = re.compile(f"s3\t({_ANY})\t{_ANY}\t({'|'.join(SWEEP_KINDS)})"
                           + _keys(SWEEP_LAYOUT, {**SWEEP_KINDS["kick"], **SWEEP_KINDS["scale"]}))
# ``blk``: gas, boundary and carry are read; the stage, ``V`` and the pots
# after carry are captured as text, to compare with the derived values'
# rendering, which the writer's pots take in record order
BLOCK_POTS = "dormant permanent pending escrow fees_paid refunds proceeds deposits"
_BLOCK_LAYOUT = re.compile(f"blk\t({_ANY})\tV=({_ANY}){_keys('gas boundary carry', BLOCK_FIELDS)}"
                           f"({_keys(BLOCK_POTS, _SHAPE)})")
_POTS_TEXT = "".join(f"\t{key}={{{_LEDGER.index(key)}}}" for key in BLOCK_POTS.split())
ALLOC_LAYOUT = "tokens retained refund_final status"
_ALLOC_LAYOUT = re.compile(f"alloc\t({_ANY}){_keys(ALLOC_LAYOUT, ALLOC_FIELDS)}")


class _Auditor:
    """Replays a record stream with independent bookkeeping.

    The auditor never trusts a reported aggregate it can derive itself:
    it rebuilds the valuation, the dormant/permanent/pending/escrow pots
    and the refund totals from the transaction records alone, and flags
    every block whose snapshot disagrees.  Each record is read once: a
    line in the writer's layout of its kind (above) by one pattern match,
    whose captured values are converted with ``int`` or the field's own
    reader; any other line, or one with a value that conversion refuses,
    field by field with the field table of its kind, which names the
    line and column of its first fault.  A block record in its layout
    whose stage, ``V`` and pots are byte-equal to the derived values'
    rendering is checked by one text comparison, and only its gas,
    boundary and carry are read.  A ``fin`` record has no layout: one
    equal to the line the auditor expects, with the last settled ``V``,
    the last stage and the derived proceeds, is checked by one text
    comparison, and any other is read field by field.  Both reads feed
    the same checks.

    No check scans all positions.  An ``ev`` record costs O(1), a poke
    O(|target| + |activated|); a kick costs O(|addrs|) and a scale O(1),
    both against a per-cap count of active positions; a block costs
    O(1) amortized, reading the lowest active cap from a lazily pruned
    min-heap; an ``alloc`` costs O(1).  Only ``finish`` walks every
    position, once.

    The audit is a fold over the body in order: ``feed`` takes the next
    lines, any number at a time, and ``finish`` reports.  ``audit_trace``
    does both for a whole stored trace.
    """

    def __init__(self) -> None:
        self.line_no = 0  # body lines fed so far
        self.report = AuditReport()
        self.pos: dict[str, _Position] = {}
        self.active_at: dict[int, int] = {}  # cap -> active positions there
        self.active_caps: list[int] = []     # min-heap; caps counted 0 are stale
        self.V = 0
        self.dormant = 0
        self.permanent = 0
        self.pending = 0
        self.escrow = 0
        self.fees_paid = 0
        self.refunds = 0
        self.deposits = 0
        self.proceeds = 0
        self.stage = 0
        self.prev_boundary = 0
        self.last_settled_v: int | None = None
        self.final_v: int | None = None
        self.final_line: int | None = None  # body line of the first ``fin`` record
        self.t = 0
        self.u = 0
        self.granularity = 1
        self.block_limit = BLOCK_LIMIT
        self.last_echo = 1       # body line of the last ``scn`` record; 1 is the header
        self.echoed: set[str] = set()  # the ``SCENARIO_ECHOES`` tags seen so far
        # the last block's derived values and their rendering: most blocks
        # of a quiet sale repeat them
        self.last_derived: tuple | None = None
        self.last_pots = ""

    def flag(self, stage: int | None, check: str, detail: str) -> None:
        self.report.violations.append(Violation(stage, check, detail))

    def _activate(self, pos: _Position) -> None:
        pos.status = "active"
        count = self.active_at.get(pos.cap, 0)
        if not count:
            heapq.heappush(self.active_caps, pos.cap)
        self.active_at[pos.cap] = count + 1

    def _deactivate(self, pos: _Position, status: str) -> None:
        if pos.status == "active":
            self.active_at[pos.cap] -= 1
        pos.status = status

    def _lowest_active_cap(self) -> int | None:
        heap = self.active_caps
        while heap and not self.active_at[heap[0]]:
            heapq.heappop(heap)
        return heap[0] if heap else None

    # -- record handlers --
    # Each reads its record by its layout when the line is in it, and field
    # by field otherwise; both reads feed the one set of checks below it.

    def on_scenario(self, line: str, line_no: int) -> None:
        """The echoed ``sale`` and ``gas`` records; they precede every other."""
        fields = line.split("\t")  # two records a trace: no gain in not splitting
        table = SCENARIO_ECHOES.get(fields[1]) if len(fields) > 1 else _SHAPE
        if table is None:
            return
        echo = None
        match = _ECHO_LAYOUTS[fields[1]].fullmatch(line) if table is not _SHAPE else None
        if match is not None:
            try:
                echo = {key: read(text, line_no, 1)
                        for (key, (read, _)), text in zip(table.items(), match.groups())}
            except ParseError:
                pass
        if echo is None:
            echo = read_fields(fields, 2, line_no, table, "scn")
        for key in table:  # each names one of the auditor's settings
            setattr(self, key, echo[key])

    def on_event(self, line: str, line_no: int) -> None:
        match = _EVENT_LAYOUT.fullmatch(line)
        if match is not None:
            found = match.groups()
            action, first = _EVENT_BRANCH[match.lastindex]
            values = found[first:match.lastindex]
            actor = found[1]
            try:
                stage = int(found[0])
                if action == "bid":
                    v, cap, m, fee = values
                    values = int(v), int(cap), None if m == "-" else int(m), int(fee)
                elif action == "withdraw":
                    values = tuple(map(int, values))
                elif action == "poke":
                    x, target, activated, fee = values
                    values = (int(x), _names(target, line_no, 1),
                              _names(activated, line_no, 1), int(fee))
            except ValueError:
                match = None
        if match is None:
            fields = line.split("\t")
            ok = len(fields) > 5 and fields[5] == "ok"
            table = EVENT_FIELDS.get(fields[4], _SHAPE) if ok else _SHAPE
            rec = read_fields(fields, 6, line_no, table, "ev")
            stage = parse_amount(fields[1], line_no, 4)  # column after "ev\t"
            actor = fields[3]
            action = fields[4] if table is not _SHAPE else None
            values = [rec[key] for key in table]
        if stage != self.stage:
            self.flag(stage, "stage-order",
                      f"event at stage {stage} inside block {self.stage}")
        if action == "bid":
            v, cap, m, fee = values
            old = self.pos.get(actor)
            if old is not None:
                self.flag(stage, "address-reuse", actor)
                self._deactivate(old, "used")  # the new bid replaces it
            if cap <= 0 or cap % self.granularity:
                self.flag(stage, "misaligned-cap", f"{actor} cap={cap}")
            if m is not None and (m <= 0 or m % self.granularity or m >= cap):
                self.flag(stage, "bad-minimum", f"{actor} m={m} cap={cap}")
            if m is None and stage >= self.t and cap <= self.V:
                self.flag(stage, "accepted-low-cap",
                          f"{actor} cap={cap} valuation={self.V}")
            pos = self.pos[actor] = _Position(v, cap, fee, m, "dormant")
            self.deposits += v + fee
            self.escrow += fee
            if m is None:
                self._activate(pos)
                self.V += v
            else:
                self.dormant += v
        elif action == "withdraw":
            pos = self.pos.get(actor)
            if pos is None:
                self.flag(stage, "unknown-actor", actor)
                return
            refund, fee_back, perm_v, perm_b = values
            if stage >= self.t:
                self.flag(stage, "late-withdrawal", actor)
            if pos.status == "dormant":
                if refund != pos.v + pos.fee or fee_back != pos.fee:
                    self.flag(stage, "refund-mismatch",
                              f"{actor} refund={refund} expected {pos.v + pos.fee}")
                self.dormant -= pos.v
                self.escrow -= fee_back
                pos.status = "used"
            elif pos.status == "active":
                if refund + perm_v != pos.v:
                    self.flag(stage, "refund-mismatch",
                              f"{actor} refund+perm={refund + perm_v} face={pos.v}")
                self.V -= pos.v
                self.permanent += perm_v
                self._deactivate(pos, "permanent" if perm_v else "used")
                pos.perm_b = perm_b
            else:
                self.flag(stage, "withdraw-status", f"{actor} is {pos.status}")
            self.refunds += refund
        elif action == "poke":
            x, target, activated, fee = values
            known = [a for a in target if a in self.pos]
            if len(known) != len(target):
                self.flag(stage, "poke-verify", "unknown target address")
            elif len(set(target)) != len(target):
                self.flag(stage, "poke-verify", "target names an address twice")
            elif (not target
                  or sum(self.pos[a].v for a in target) < x
                  or any((self.pos[a].minimum or 0) > x for a in target)):
                self.flag(stage, "poke-verify",
                          f"target set does not certify x={x}")
            fee_sum = 0
            for a in activated:
                pos = self.pos.get(a)
                if pos is None or pos.status != "dormant":
                    self.flag(stage, "poke-not-dormant", a)
                    continue
                if pos.minimum is not None and pos.minimum > x:
                    self.flag(stage, "poke-verify", f"{a} minimum above x={x}")
                self._activate(pos)
                self.dormant -= pos.v
                self.V += pos.v
                self.escrow -= pos.fee
                fee_sum += pos.fee
            self.fees_paid += fee_sum
            if fee_sum != fee:
                self.flag(stage, "poke-fee", f"reported {fee} != {fee_sum}")

    def on_step3(self, line: str, line_no: int) -> None:
        match = _SWEEP_LAYOUT.fullmatch(line)
        if match is not None:
            stage, kind, cap, live, q, out, credited, addrs = match.groups()
            try:
                stage, cap, live, out = int(stage), int(cap), int(live), int(out)
                if kind == "kick":
                    credited, addrs = int(credited), _names(addrs, line_no, 1)
                else:
                    q = parse_fraction(q, line_no, 1)
            except (ValueError, ParseError):
                match = None
        if match is None:
            fields = line.split("\t")
            kind = fields[3] if len(fields) > 3 else ""
            rec = read_fields(fields, 4, line_no, SWEEP_KINDS.get(kind, _SWEEP), "s3")
            stage = parse_amount(fields[1], line_no, 4)  # column after "s3\t"
            cap, live, out = rec["cap"], rec["live"], rec["out"]
            q, credited, addrs = rec.get("q"), rec.get("credited"), rec.get("addrs")
        if stage != self.stage:
            self.flag(stage, "stage-order", f"sweep at stage {stage} in block {self.stage}")
        if stage < self.t:
            self.flag(stage, "early-sweep", "automatic withdrawal before the lock")
        if kind == "kick":
            if self.V - live < cap:
                self.flag(stage, "kick-condition",
                          f"V={self.V} live={live} cap={cap}")
            if out != live:
                self.flag(stage, "kick-out", f"out={out} live={live}")
            listed = [self.pos.get(a) for a in addrs]
            # distinct, each active at this cap, and as many as are active
            # there: exactly the tracked member set
            if (len(set(addrs)) != len(addrs)
                    or len(addrs) != self.active_at.get(cap, 0)
                    or any(p is None or p.status != "active" or p.cap != cap
                           for p in listed)):
                members = sorted(a for a, p in self.pos.items()
                                 if p.status == "active" and p.cap == cap)
                self.flag(stage, "kick-members",
                          f"cap={cap} listed {sorted(addrs)} tracked {members}")
            face = sum(p.v for p in listed if p is not None)
            if face != credited:
                self.flag(stage, "kick-credit", f"credited={credited} face={face}")
            for p in listed:
                if p is not None:
                    self._deactivate(p, "used")
            self.V -= out
            self.pending -= credited - out
            self.refunds += credited
        elif kind == "scale":
            if not (0 < q < 1):
                self.flag(stage, "scale-fraction", f"q={q}")
            if out != self.V - cap:
                self.flag(stage, "scale-exactness",
                          f"out={out} but V-cap={self.V - cap}")
            if not self.active_at.get(cap):
                self.flag(stage, "scale-members", f"no active bids at cap={cap}")
            self.V -= out
            self.pending += out
        else:
            self.flag(stage, "sweep-kind", kind)

    def on_block(self, line: str, line_no: int) -> None:
        derived = (self.V, self.dormant, self.permanent, self.pending, self.escrow,
                   self.fees_paid, self.refunds, self.deposits, self.proceeds)
        stage, reported = self.stage, None
        match = _BLOCK_LAYOUT.fullmatch(line)
        if match is not None:
            stage_text, v, gas, boundary, carry, pots = match.groups()
            if stage_text == str(stage) and v == str(self.V):
                if derived != self.last_derived:
                    self.last_derived, self.last_pots = derived, _POTS_TEXT.format(*derived)
                if pots == self.last_pots:
                    # every derived value as the writer renders it: only
                    # gas, boundary and carry are left to read
                    try:
                        gas, boundary, carry = int(gas), int(boundary), carry == "1"
                        reported = derived
                    except ValueError:
                        pass  # the read below names the bad field's column
        if reported is None:
            fields = line.split("\t")
            rep = read_fields(fields, 2, line_no, BLOCK_FIELDS, "blk")
            stage = parse_amount(fields[1], line_no, 5)  # column after "blk\t"
            gas, boundary, carry = rep["gas"], rep["boundary"], rep["carry"]
            reported = tuple(rep[name] for name in _LEDGER)
        if stage != self.stage:
            self.flag(stage, "stage-order",
                      f"block {stage} closed where {self.stage} was expected")

        if reported != derived:
            for name, theirs, mine in zip(_LEDGER, reported, derived):
                if theirs != mine:
                    self.flag(stage, f"ledger-mismatch:{name}",
                              f"reported {theirs}, derived {mine}")
        deposits = reported[7]
        held = sum(reported) - deposits
        if held != deposits:
            self.flag(stage, "conservation", f"holdings {held} != deposits {deposits}")
        if gas > self.block_limit:
            self.flag(stage, "gas-over-limit", f"{gas} > {self.block_limit}")
        if boundary < self.prev_boundary:
            self.flag(stage, "boundary-decrease", f"{boundary} < {self.prev_boundary}")
        self.prev_boundary = boundary

        if carry:
            self.report.lag_stages.append(stage)
            self.flag(stage, "pointer-lag",
                      "block closed with the sweep unfinished")
        if stage >= self.t:
            if not carry:
                lowest = self._lowest_active_cap()
                if lowest is not None and lowest < self.V:
                    self.flag(stage, "stale-pointer",
                              f"active cap {lowest} below valuation {self.V}")
                if self.last_settled_v is not None and reported[0] < self.last_settled_v:
                    self.flag(stage, "valuation-decrease",
                              f"{reported[0]} < {self.last_settled_v}")
                self.last_settled_v = reported[0]
        self.report.blocks += 1
        self.stage += 1

    def on_alloc(self, line: str, line_no: int) -> None:
        match = _ALLOC_LAYOUT.fullmatch(line)
        if match is not None:
            actor, tokens, retained, refund, status = match.groups()
            try:
                tokens, retained, refund = int(tokens), int(retained), int(refund)
            except ValueError:
                match = None
        if match is None:
            fields = line.split("\t")
            rec = read_fields(fields, 2, line_no, ALLOC_FIELDS, "alloc")
            actor = fields[1]
            tokens, retained, refund = rec["tokens"], rec["retained"], rec["refund_final"]
            status = rec["status"]
        pos = self.pos.get(actor)
        if pos is None:
            self.flag(None, "unknown-alloc", actor)
            return
        if pos.allocated:
            self.flag(None, "duplicate-alloc", actor)
        pos.allocated = True
        if ":" in status:
            pos.exit_reason = status.split(":", 1)[1]
        settled = status.partition(":")[0] if status in _ALLOC_STATUSES else None
        if settled == "active":
            if retained + refund != pos.v or not 0 <= retained <= pos.v:
                self.flag(None, "alloc-split",
                          f"{actor} retained={retained} refund={refund} face={pos.v}")
            self.proceeds += retained
            self.refunds += refund
            pos.retained = retained
        elif settled == "dormant":
            if refund != pos.v + pos.fee or tokens or retained:
                self.flag(None, "alloc-split", f"{actor} dormant refund={refund}")
            self.dormant -= pos.v
            self.escrow -= pos.fee
            self.refunds += refund
        elif settled == "permanent":
            if tokens != pos.perm_b or refund:
                self.flag(None, "alloc-permanent",
                          f"{actor} tokens={tokens} recorded {pos.perm_b}")
        elif settled == "used":
            if tokens or retained or refund:
                self.flag(None, "alloc-used", f"{actor} settled twice")
        else:
            self.flag(None, "alloc-status", f"{actor} status={status}")

    def on_final(self, line: str, line_no: int) -> None:
        final_v, stage, proceeds = self.last_settled_v, self.u, self.proceeds
        if final_v is None or line != f"fin\tV={final_v}\tstage={stage}\tproceeds={proceeds}":
            rec = read_fields(line.split("\t"), 1, line_no, FINAL_FIELDS, "fin")
            final_v, stage, proceeds = rec["V"], rec["stage"], rec["proceeds"]
        self.final_v = self.report.final_v = final_v
        if self.final_line is None:
            self.final_line = line_no
        if stage != self.u or self.stage != self.u + 1:
            self.flag(stage, "final-stage",
                      f"settled at stage {stage}, expected {self.u}")
        if self.last_settled_v is not None and self.final_v != self.last_settled_v:
            self.flag(stage, "final-mismatch",
                      f"final V {self.final_v} != last block {self.last_settled_v}")
        if proceeds != self.proceeds:
            self.flag(stage, "ledger-mismatch:proceeds",
                      f"reported {proceeds}, derived {self.proceeds}")

    def finish(self) -> AuditReport:
        if self.final_v is None:
            self.flag(None, "truncated", "no final settlement record")
            return self.report
        if self.final_line != self.line_no:
            self.flag(None, "after-final",
                      f"{self.line_no - self.final_line} body lines follow the final "
                      f"record at line {self.final_line}")
        if self.stage != self.u + 1 or self.report.blocks != self.u + 1:
            self.flag(None, "truncated",
                      f"{self.report.blocks} blocks for stages 0..{self.u}")
        missing = [a for a, p in self.pos.items() if not p.allocated]
        if missing:
            self.flag(None, "missing-alloc", "+".join(sorted(missing)))
        if self.dormant or self.escrow:
            self.flag(None, "undrained-pot",
                      f"dormant={self.dormant} escrow={self.escrow} after payout")
        settled = self.refunds + self.fees_paid + self.proceeds + self.permanent
        if settled != self.deposits:
            self.flag(None, "final-conservation",
                      f"settled {settled} != deposits {self.deposits}")
        rows = []
        for a, p in self.pos.items():
            if p.status == "active" and p.allocated:
                rows.append((a, p.v, p.cap, p.retained))
            elif p.status == "used" and p.exit_reason == "kicked":
                rows.append((a, p.v, p.cap, 0))
        sat = satisfaction_check(self.final_v, rows)
        for f in sat.failures:
            self.flag(None, "satisfaction",
                      f"{f.address} cap={f.cap} retained={f.retained} "
                      f"expected {f.expected}")
        return self.report

    def _echo_order(self, line: str, line_no: int, last_echo: int) -> None:
        """The writer echoes the scenario once, right after the header: flag
        a ``scn`` record that does not directly follow the header or another
        ``scn`` record, at ``last_echo``, and a second ``sale`` or ``gas``."""
        if line_no != last_echo + 1:
            self.flag(None, "echo-order", f"scn record at line {line_no} does not "
                      f"follow the header or another scn record")
        tag = line.split("\t", 2)[1]
        if tag in self.echoed:
            self.flag(None, "echo-order", f"second scn {tag} record at line {line_no}")
        elif tag in SCENARIO_ECHOES:
            self.echoed.add(tag)

    def feed(self, lines: list[str]) -> None:
        """Check the next body lines."""
        # bound methods, made per call: kept on self they would make a cycle
        handlers = {"scn": self.on_scenario, "ev": self.on_event, "s3": self.on_step3,
                    "blk": self.on_block, "alloc": self.on_alloc, "fin": self.on_final}
        last_echo = self.last_echo
        for line_no, line in enumerate(lines, start=self.line_no + 1):
            if line.startswith("scn\t"):
                read = line.startswith(_READ_ECHOES)
                if read or line_no != last_echo + 1:
                    self._echo_order(line, line_no, last_echo)
                last_echo = line_no
                if not read:
                    continue  # an echoed record the auditor does not read
            handler = handlers.get(line.partition("\t")[0])
            if handler is not None:
                handler(line, line_no)
        self.last_echo = last_echo
        self.line_no += len(lines)


def audit_trace(trace: Trace) -> AuditReport:
    """Referee a stored run without consulting the engine."""
    auditor = _Auditor()
    auditor.feed(trace.body)
    return auditor.finish()
