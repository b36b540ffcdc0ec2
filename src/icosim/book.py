"""Bucketed order book: buckets in sorted key order plus a clearing boundary.

Bids are aggregated per personal cap so automatic withdrawals touch one
bucket, not every member: a partial withdrawal multiplies the bucket
scale, a full one unlinks the bucket and materializes member refunds.
Insertion takes a hint (the predecessor key) supplied by the bidder; a
contract checks it in O(1), the simulator against the slot its insertion
bisect finds anyway, so the book never scans on a bidder's behalf.  The
same structure indexes dormant bids by personal minimum.

The boundary records the highest cap the withdrawal loop has settled;
it only ever grows, and every fully settled bucket is unlinked, so the
list head is always the lowest-cap bucket still holding active capital.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import AdviceRequired, BadAdvice, InvalidFraction
from .ledger import Amount, Bid

# Hint value claiming the new key belongs in front of the current head.
HEAD = "head"


@dataclass
class BookEntry:
    """A bid's membership in one bucket: face capital and scale snapshot."""

    address: str
    v: Amount
    b: Amount
    entry_scale: Fraction


@dataclass
class Bucket:
    """All bids sharing one key (cap or minimum), scaled as a unit.

    ``weight`` is the scale-normalized capital sum v/entry_scale, so the
    live capital of the bucket is always floor(weight * scale) no matter
    when each member joined.  ``members`` is keyed by address, in joining
    order.  ``add``, ``remove`` and ``rescale`` each cost O(1) Fraction
    operations; ``effective`` costs one Fraction multiply after one of
    them and a cached read otherwise.  Change ``scale`` only through
    ``rescale``, which drops the cached value.
    """

    key: Amount
    scale: Fraction = Fraction(1)
    weight: Fraction = Fraction(0)
    total_v: Amount = 0
    members: dict[str, BookEntry] = field(default_factory=dict)
    _live: Amount | None = field(default=None, init=False, repr=False, compare=False)

    def effective(self) -> Amount:
        """Live capital the bucket contributes to the valuation."""
        if self._live is None:
            self._live = math.floor(self.weight * self.scale)
        return self._live

    def rescale(self, factor: Fraction) -> None:
        """Multiply every member's live capital by ``factor``, lazily."""
        self.scale *= factor
        self._live = None

    def member_effective(self, entry: BookEntry) -> Amount:
        return math.floor(entry.v * self.scale / entry.entry_scale)

    def member_tokens(self, entry: BookEntry) -> Amount:
        return math.floor(entry.b * self.scale / entry.entry_scale)

    def add(self, address: str, v: Amount, b: Amount) -> BookEntry:
        entry = BookEntry(address, v, b, self.scale)
        self.weight += Fraction(v) / self.scale
        self.total_v += v
        self.members[address] = entry
        self._live = None
        return entry

    def remove(self, address: str) -> BookEntry:
        entry = self.members.pop(address)
        self.weight -= Fraction(entry.v) / entry.entry_scale
        self.total_v -= entry.v
        self._live = None
        return entry


class BucketList:
    """Buckets in ascending key order, kept as one sorted key list indexed
    by a key -> bucket dict, with advice-checked insertion."""

    def __init__(self) -> None:
        self._by_key: dict[Amount, Bucket] = {}
        self._keys: list[Amount] = []  # sorted

    @property
    def head(self) -> Bucket | None:
        """The lowest-key bucket, or None when the list is empty."""
        return self._by_key[self._keys[0]] if self._keys else None

    def __iter__(self) -> Iterator[Bucket]:
        # map runs the loop in C; the engine iterates the caps every block
        return map(self._by_key.__getitem__, self._keys)

    def get(self, key: Amount) -> Bucket | None:
        return self._by_key.get(key)

    def insert_with_advice(self, key: Amount, hint) -> Bucket:
        """Return the bucket for ``key``, inserting a new one if needed.

        A new bucket requires a bracketing hint: HEAD when the key goes
        in front of the current head, otherwise the key of the bucket
        that will precede it.  The check reads the slot that the
        insertion's own bisect finds; a hint that does not bracket
        raises BadAdvice, no hint raises AdviceRequired.
        """
        existing = self._by_key.get(key)
        if existing is not None:
            return existing
        if hint is None:
            raise AdviceRequired(f"no bucket keyed {key} and no insertion hint")
        keys = self._keys
        i = bisect.bisect_left(keys, key)
        if hint == HEAD:
            if i:
                raise BadAdvice(f"{key} does not precede head bucket {keys[0]}")
        elif hint not in self._by_key:
            raise BadAdvice(f"hint bucket {hint} is not in the book")
        elif i == 0 or keys[i - 1] != hint:
            raise BadAdvice(f"hint {hint} does not bracket {key}")
        bucket = Bucket(key)
        self._by_key[key] = bucket
        keys.insert(i, key)
        return bucket

    def find_advice(self, key: Amount):
        """Off-chain helper: compute the hint a bidder should submit.

        Returns None when a bucket for the key already exists (joining
        needs no advice), HEAD for a new head position, otherwise the
        predecessor key.
        """
        if key in self._by_key:
            return None
        i = bisect.bisect_left(self._keys, key)
        return HEAD if i == 0 else self._keys[i - 1]

    def insert_scanned(self, key: Amount) -> Bucket:
        """Insert finding the slot ourselves (used for poke migration,
        where the poking transaction carries the placement work)."""
        return self.insert_with_advice(key, self.find_advice(key))

    def unlink(self, bucket: Bucket) -> None:
        if self._by_key.get(bucket.key) is not bucket:
            raise KeyError(bucket.key)
        del self._by_key[bucket.key]
        del self._keys[bisect.bisect_left(self._keys, bucket.key)]

    def remove_member(self, key: Amount, address: str) -> None:
        """Take ``address`` out of the bucket keyed ``key``, unlinking the
        bucket once it has no members left."""
        bucket = self._by_key[key]
        bucket.remove(address)
        if not bucket.members:
            self.unlink(bucket)


class OrderBook:
    """Cap-keyed active book plus the minimum-keyed dormant book."""

    def __init__(self) -> None:
        self.caps = BucketList()
        self.minimums = BucketList()
        self.boundary: Amount = 0  # highest cap settled by the withdrawal loop

    def scale_bucket(self, bucket: Bucket, q: Fraction) -> Amount:
        """Shrink every member of ``bucket`` by the factor (1 - q), lazily.

        Returns the integer amount of live capital removed; per-member
        refunds are materialized later, at full kick-out or at the final
        stage, from the accumulated scale.
        """
        if not (0 < q < 1):
            raise InvalidFraction(f"scaling fraction must be in (0, 1), got {q}")
        if bucket is not self.caps.head:
            raise ValueError("only the bucket at the valuation pointer may be scaled")
        before = bucket.effective()
        bucket.rescale(1 - q)
        self.boundary = max(self.boundary, bucket.key)
        return before - bucket.effective()

    def kick_bucket(self, bucket: Bucket) -> tuple[list[tuple[str, Amount]], Amount, Amount]:
        """Fully withdraw every member of ``bucket`` and unlink it.

        Returns (per-member live refunds, live capital removed, total
        face capital credited).  The live refund is the member's scaled
        capital; the rest of its face value is the accrued share of
        earlier partial withdrawals, materialized by the same credit.
        """
        if bucket is not self.caps.head:
            raise ValueError("only the bucket at the valuation pointer may be kicked")
        refunds = [(e.address, bucket.member_effective(e))
                   for e in bucket.members.values()]
        removed = bucket.effective()
        credited = bucket.total_v
        self.boundary = max(self.boundary, bucket.key)
        self.caps.unlink(bucket)
        return refunds, removed, credited


def verify_poke(x: Amount, bids: Iterable[Bid]) -> bool:
    """O(|target|) certificate check for waking dormant bids.

    True iff the claimed valuation x clears every target bid's personal
    minimum and the target's combined face capital can actually fund x.
    """
    total = 0
    for bid in bids:
        if bid.minimum is not None and x < bid.minimum:
            return False
        total += bid.v
    return total >= x
