"""Line-oriented trace records with a digest over the normalized stream.

A trace is the full account of one sale run: the normalized scenario it
was produced from, every transaction with its outcome, every iteration
of the automatic-withdrawal loop, an end-of-block snapshot per stage,
and the final allocations.  One record per line, tab-separated fields,
first field the record tag; integers are minimal units, rationals are
rendered ``num/den``.  Two runs of the same scenario produce byte-equal
bodies, and the digest line pins the body for replay verification.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DigestMismatch, ParseError

FORMAT_TAG = "ico-trace"
FORMAT_VERSION = "2"
BLOCK_LINES = 2048  # lines a builder holds before its first hand-off; the digest's block
HANDOFF_LINES = 256  # lines it holds before each later hand-off
_BODY_TAGS = frozenset((FORMAT_TAG, "scn", "ev", "s3", "blk", "alloc", "fin"))


def fmt(value) -> str:
    """Render one field value: int, Fraction, list of names, None or str."""
    kind = type(value)
    if kind is int or kind is str:  # the common cases, before any isinstance
        return str(value)
    if value is None:
        return "-"
    if kind is bool:
        return "1" if value else "0"
    if isinstance(value, Fraction):
        return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    if isinstance(value, (list, tuple)):
        return "+".join(str(v) for v in value) if value else "-"
    return str(value)


def parse_amount(text: str, line: int, column: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected an integer amount, got {text!r}", line, column) from None


def parse_optional_amount(text: str, line: int, column: int) -> int | None:
    """An integer amount, or None spelled ``-``."""
    return None if text == "-" else parse_amount(text, line, column)


def parse_fraction(text: str, line: int, column: int) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"expected an integer or num/den rational, got {text!r}",
                         line, column) from None


REQUIRED = object()  # the default of a field that must be present


def _column(fields: list[str], index: int) -> int:
    """Column at which ``fields[index]`` starts in its tab-joined line."""
    return sum(map(len, fields[:index])) + index + 1


def read_fields(fields: list[str], start: int, line_no: int, table: dict,
                record: str) -> dict:
    """Read the ``key=value`` fields ``fields[start:]`` by a field table.

    ``table`` maps each key to ``(read, default)``; ``read(text, line,
    column)`` returns the typed value or raises ParseError, and a key whose
    default is ``REQUIRED`` must be present.  Returns every field by key, in
    record order: the table's keys as typed values, the others as text; then
    the table's absent keys at their defaults.

    One walk in record order raises the first fault: a record shorter than
    ``start`` fields; a field without ``=``, an empty or repeated key, or a
    value its reader refuses, at that field's column; last, a missing
    required key."""
    if len(fields) < start:
        raise ParseError(f"{record} record has {len(fields)} fields, needs {start}", line_no)
    values = {}
    for index in range(start, len(fields)):
        key, sep, text = fields[index].partition("=")
        if not sep or not key or key in values:
            raise ParseError(f"bad or duplicate key in {fields[index]!r}" if sep
                             else f"expected key=value, got {fields[index]!r}",
                             line_no, _column(fields, index))
        if key in table:
            try:
                text = table[key][0](text, line_no, 1)
            except ParseError as err:  # a column is counted only for a fault
                raise ParseError(err.message, line_no, _column(fields, index)) from None
        values[key] = text
    for key, (_, default) in table.items():
        if key not in values:
            if default is REQUIRED:
                raise ParseError(f"{record} record needs {key}=", line_no)
            values[key] = default
    return values


def split_lines(text: str) -> list[str]:
    r"""The lines of ``text``, each ended by ``\n``, ``\r\n`` or ``\r``;
    a final line end starts no further line.  ``str.splitlines`` also ends
    lines at ``\f``, ``\v``, ``\x1c``-``\x1e``, ``\x85``, ``\u2028`` and
    ``\u2029``, which a field may hold."""
    if "\r" in text:  # never in a trace the writer makes
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


class TraceBuilder:
    """Accumulates body lines during a run.

    Given a ``sink``, the builder hands it the lines made so far, the
    scenario echo included, and drops them, each time they reach a limit
    at the end of the echo, of a block record or of an ``alloc`` record;
    ``lines`` then holds only the lines not yet handed on.  The limit is
    ``BLOCK_LINES`` until the first hand-off, so a trace that fits in one
    block is never handed on, and ``HANDOFF_LINES`` after it, so that a
    consumer working beside the run has little left to take at its end.
    Without a sink it keeps every line.

    Fields whose type is fixed (stages, counters, integer amounts, the
    carry flag) are written straight into f-strings; only the sweep's
    optional rational and address list go through ``fmt``.  An ``ev``
    record's ``key=value`` tail comes rendered from the runner, which
    formats only its optional and list values with ``fmt``.  The bytes are
    the same as rendering every field with ``fmt``.
    """

    def __init__(self, scenario_lines: list[str], sink=None) -> None:
        self.lines: list[str] = [f"{FORMAT_TAG}\t{FORMAT_VERSION}"]
        self.lines += [f"scn\t{line}" for line in scenario_lines]
        self._seq = 0
        self._sink = sink
        self._limit = BLOCK_LINES
        self._spill()

    def _spill(self) -> None:
        """Hand the lines to the sink once they reach the limit."""
        if self._sink is not None and len(self.lines) >= self._limit:
            self._sink(self.lines)
            self.lines = []
            self._limit = HANDOFF_LINES

    def event(self, stage: int, actor: str, action: str, outcome: str,
              tail: str) -> None:
        r"""An ``ev`` record; ``tail`` is its rendered ``\tkey=value`` fields."""
        self._seq += 1
        self.lines.append(f"ev\t{stage}\t{self._seq}\t{actor}\t{action}\t{outcome}{tail}")

    def step3(self, index: int, batch) -> None:
        self.lines.append(
            f"s3\t{batch.stage}\t{index}\t{batch.kind}\tcap={batch.cap}"
            f"\tn={batch.size}\tlive={batch.live_capital}\tq={fmt(batch.q)}"
            f"\tout={batch.removed}\tcredited={batch.credited}"
            f"\taddrs={fmt(batch.addrs)}")

    def block(self, summary) -> None:
        for i, batch in enumerate(summary.batches, start=1):
            self.step3(i, batch)
        s, p = summary, summary.pots
        self.lines.append(
            f"blk\t{s.stage}\tV={s.V}\tgas={s.gas_spent}\tboundary={s.boundary}"
            f"\tcarry={int(s.carryover)}\tdormant={p.dormant}\tpermanent={p.permanent}"
            f"\tpending={p.pending}\tescrow={p.escrow}"
            f"\tfees_paid={p.fees_paid}\trefunds={p.refunds}"
            f"\tproceeds={p.proceeds}\tdeposits={p.deposits}")
        self._spill()

    def allocation(self, address: str, tokens: int, retained: int,
                   refund_final: int, status: str) -> None:
        self.lines.append(
            f"alloc\t{address}\ttokens={tokens}\tretained={retained}"
            f"\trefund_final={refund_final}\tstatus={status}")
        self._spill()

    def final(self, v: int, stage: int, proceeds: int) -> None:
        self.lines.append(f"fin\tV={v}\tstage={stage}\tproceeds={proceeds}")

    def build(self) -> "Trace":
        """The finished trace, or with a sink the lines it was not handed;
        it takes over the lines, so add no more."""
        return Trace(body=self.lines)


def block_bytes(lines: list[str]) -> bytes:
    """The stored and hashed form of body lines: each ended by a newline."""
    return ("\n".join(lines) + "\n").encode("utf-8")


def body_digest(body: list[str]) -> str:
    """SHA-256 of the lines, each ended by a newline, hashed in blocks of lines."""
    h = hashlib.sha256()
    for i in range(0, len(body), BLOCK_LINES):
        h.update(block_bytes(body[i:i + BLOCK_LINES]))
    return h.hexdigest()


@dataclass
class Trace:
    """A completed run: body records plus optional audit/digest footer.

    ``stored_digest`` is a parsed trace's digest record, which matched its
    body when parsed; ``digest`` hashes the body as it is now."""

    body: list[str]
    audit_lines: list[str] = field(default_factory=list)
    stored_digest: str | None = None

    @property
    def digest(self) -> str:
        return body_digest(self.body)

    @property
    def scenario_lines(self) -> list[str]:
        return [line[4:] for line in self.body if line.startswith("scn\t")]

    def records(self, tag: str) -> list[list[str]]:
        prefix = tag + "\t"
        return [line.split("\t") for line in self.body if line.startswith(prefix)]

    def render(self, digest: str | None = None) -> str:
        """The stored form; pass ``digest`` when the caller already has it."""
        if digest is None:
            digest = self.digest
        footer = self.audit_lines + [f"digest\t{digest}"]
        return "\n".join(self.body + footer) + "\n"


def parse_trace(text: str) -> Trace:
    """Split a stored trace into body and footer, verifying the envelope.

    The body comes first, then any ``audit``/``violation`` lines, then one
    ``digest`` line, which ends the file.  The stored digest must match the
    stored body, and the trace keeps it as ``stored_digest``; a mismatch
    means the file was edited after the run.
    """
    lines = split_lines(text)
    if not lines or lines[0] != f"{FORMAT_TAG}\t{FORMAT_VERSION}":
        raise ParseError(f"not a {FORMAT_TAG} v{FORMAT_VERSION} file", 1)
    body: list[str] = []
    audit_lines: list[str] = []
    stored_digest: str | None = None
    for i, line in enumerate(lines, start=1):
        tag = line.split("\t", 1)[0]
        if tag in _BODY_TAGS:  # nearly every line: tested first
            if stored_digest is not None or audit_lines:
                raise ParseError("body record after the audit/digest footer", i)
            body.append(line)
        elif tag in ("audit", "violation"):
            if stored_digest is not None:
                raise ParseError(f"{tag} record after the digest", i)
            audit_lines.append(line)
        elif tag == "digest":
            if stored_digest is not None:
                raise ParseError("second digest record", i)
            _, tab, stored_digest = line.partition("\t")
            if not tab:
                raise ParseError("digest record has no value", i)
        else:
            raise ParseError(f"unknown record tag {tag!r}", i)
    if stored_digest is None:
        raise ParseError("missing digest record", len(lines))
    digest = body_digest(body)
    if stored_digest != digest:
        raise DigestMismatch(
            f"stored digest {stored_digest[:12]}.. does not match body {digest[:12]}..")
    return Trace(body=body, audit_lines=audit_lines, stored_digest=digest)
