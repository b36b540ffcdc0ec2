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


def split_kv(fields: list[str], line_no: int, first_column: int = 1) -> dict[str, str]:
    """Parse trailing ``key=value`` fields, rejecting malformed ones."""
    try:
        out = dict([f.split("=", 1) for f in fields])
    except ValueError:  # a field without "="
        pass
    else:
        if len(out) == len(fields) and "" not in out:
            return out
    # malformed: walk the fields again to report the first bad one's column
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


REQUIRED = object()  # the default of a field that must be present


def _column(fields: list[str], index: int) -> int:
    """Column at which ``fields[index]`` starts in its tab-joined line."""
    return sum(map(len, fields[:index])) + index + 1


def read_fields(fields: list[str], start: int, line_no: int, table: dict,
                record: str) -> tuple[dict, dict[str, str]]:
    """Read the ``key=value`` fields ``fields[start:]`` by a field table.

    ``table`` maps each key to ``(read, default)``; ``read(text, line,
    column)`` returns the typed value or raises ParseError, and a key whose
    default is ``REQUIRED`` must be present.  Returns the typed values (absent
    keys at their default) and, as text, the fields the table does not name.
    The first bad field in record order is reported; its column is worked
    out only then, by repeating the split or read with it."""
    values: dict = {}
    rest: dict[str, str] = {}
    for raw in fields[start:]:
        key, sep, text = raw.partition("=")
        if not sep or not key or key in values or key in rest:
            split_kv(fields[start:], line_no, _column(fields, start))  # raises here
        entry = table.get(key)
        if entry is None:
            rest[key] = text
            continue
        try:
            values[key] = entry[0](text, line_no, 1)
        except ParseError:
            entry[0](text, line_no, _column(fields, fields.index(raw, start)))
            raise
    if len(values) != len(table):
        for key, (_, default) in table.items():
            if key not in values:
                if default is REQUIRED:
                    raise ParseError(f"{record} record needs {key}=", line_no)
                values[key] = default
    return values, rest


class TraceBuilder:
    """Accumulates body lines during a run.

    Fields whose type is fixed (stages, counters, integer amounts, the
    carry flag) are written straight into f-strings; only free-form event
    details and the sweep's optional rational and address list go through
    ``fmt``.  The bytes are the same as rendering every field with ``fmt``.
    """

    def __init__(self, scenario_lines: list[str]) -> None:
        self.lines: list[str] = [f"{FORMAT_TAG}\t{FORMAT_VERSION}"]
        for line in scenario_lines:
            self.lines.append(f"scn\t{line}")
        self._seq = 0

    def event(self, stage: int, actor: str, action: str, outcome: str,
              details: dict) -> None:
        self._seq += 1
        kv = "".join([f"\t{k}={fmt(v)}" for k, v in details.items()])
        self.lines.append(f"ev\t{stage}\t{self._seq}\t{actor}\t{action}\t{outcome}{kv}")

    def step3(self, index: int, batch) -> None:
        self.lines.append(
            f"s3\t{batch.stage}\t{index}\t{batch.kind}\tcap={batch.cap}"
            f"\tn={batch.size}\tlive={batch.live_capital}\tq={fmt(batch.q)}"
            f"\tout={batch.removed}\tcredited={batch.credited}"
            f"\taddrs={fmt([a for a, _ in batch.refunds])}")

    def block(self, summary) -> None:
        for i, batch in enumerate(summary.batches, start=1):
            self.step3(i, batch)
        s = summary
        self.lines.append(
            f"blk\t{s.stage}\tV={s.V}\tgas={s.gas_spent}\tboundary={s.boundary}"
            f"\tcarry={int(s.carryover)}\tdormant={s.dormant}\tpermanent={s.permanent}"
            f"\tpending={s.pending_refunds}\tescrow={s.fees_escrowed}"
            f"\tfees_paid={s.fees_paid}\trefunds={s.refunds}"
            f"\tproceeds={s.proceeds}\tdeposits={s.deposits}")

    def allocation(self, address: str, tokens: int, retained: int,
                   refund_final: int, status: str) -> None:
        self.lines.append(
            f"alloc\t{address}\ttokens={tokens}\tretained={retained}"
            f"\trefund_final={refund_final}\tstatus={status}")

    def final(self, v: int, stage: int, proceeds: int) -> None:
        self.lines.append(f"fin\tV={v}\tstage={stage}\tproceeds={proceeds}")

    def build(self) -> "Trace":
        return Trace(body=list(self.lines))


def body_digest(body: list[str]) -> str:
    h = hashlib.sha256()
    for line in body:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


@dataclass
class Trace:
    """A completed run: body records plus optional audit/digest footer."""

    body: list[str]
    audit_lines: list[str] = field(default_factory=list)

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

    The stored digest must match the stored body; a mismatch means the
    file was edited after the run.
    """
    lines = text.splitlines()
    if not lines or lines[0] != f"{FORMAT_TAG}\t{FORMAT_VERSION}":
        raise ParseError(f"not a {FORMAT_TAG} v{FORMAT_VERSION} file", 1)
    body: list[str] = []
    audit_lines: list[str] = []
    stored_digest: str | None = None
    for i, line in enumerate(lines, start=1):
        tag = line.split("\t", 1)[0]
        if tag == "digest":
            stored_digest = line.split("\t", 1)[1]
        elif tag in ("audit", "violation"):
            audit_lines.append(line)
        elif tag in (FORMAT_TAG, "scn", "ev", "s3", "blk", "alloc", "fin"):
            if stored_digest is not None or audit_lines:
                raise ParseError("body record after the audit/digest footer", i)
            body.append(line)
        else:
            raise ParseError(f"unknown record tag {tag!r}", i)
    trace = Trace(body=body, audit_lines=audit_lines)
    if stored_digest is None:
        raise ParseError("missing digest record", len(lines))
    if stored_digest != trace.digest:
        raise DigestMismatch(
            f"stored digest {stored_digest[:12]}.. does not match body "
            f"{trace.digest[:12]}..")
    return trace
