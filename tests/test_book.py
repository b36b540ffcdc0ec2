from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from icosim.book import HEAD, BookEntry, Bucket, BucketList, OrderBook, verify_poke
from icosim.errors import AdviceRequired, BadAdvice, InvalidFraction
from icosim.ledger import Bid, BidStatus


def make_list(*keys):
    bl = BucketList()
    for k in keys:
        bl.insert_scanned(k)
    return bl


def keys_of(bl):
    return [b.key for b in bl]


class TestInsertWithAdvice:
    def test_head_insert_on_empty(self):
        bl = BucketList()
        b = bl.insert_with_advice(50, HEAD)
        assert bl.head is b and keys_of(bl) == [50]

    def test_head_insert_in_front(self):
        bl = make_list(50)
        bl.insert_with_advice(30, HEAD)
        assert keys_of(bl) == [30, 50]
        assert bl.head.key == 30

    def test_head_hint_behind_head_rejected(self):
        bl = make_list(50)
        with pytest.raises(BadAdvice):
            bl.insert_with_advice(60, HEAD)

    def test_predecessor_hint(self):
        bl = make_list(10, 50)
        bl.insert_with_advice(30, 10)
        assert keys_of(bl) == [10, 30, 50]
        bl.insert_with_advice(70, 50)      # append via last bucket
        assert keys_of(bl) == [10, 30, 50, 70]

    def test_unknown_hint_rejected(self):
        bl = make_list(10)
        with pytest.raises(BadAdvice):
            bl.insert_with_advice(30, 20)

    def test_non_bracketing_hint_rejected(self):
        bl = make_list(10, 20, 50)
        with pytest.raises(BadAdvice):
            bl.insert_with_advice(30, 10)  # 20 sits between the hint and the key
        with pytest.raises(BadAdvice):
            bl.insert_with_advice(5, 10)   # hint must precede the key

    def test_join_needs_no_hint(self):
        bl = make_list(10)
        assert bl.insert_with_advice(10, None) is bl.get(10)

    def test_missing_hint_for_new_bucket(self):
        bl = make_list(10)
        with pytest.raises(AdviceRequired):
            bl.insert_with_advice(30, None)


class TestFindAdvice:
    def test_positions(self):
        bl = make_list(10, 30)
        assert bl.find_advice(5) == HEAD
        assert bl.find_advice(20) == 10
        assert bl.find_advice(99) == 30
        assert bl.find_advice(30) is None  # join, no hint needed

    def test_empty_book(self):
        assert BucketList().find_advice(42) == HEAD

    def test_random_inserts_stay_sorted(self):
        rng = random.Random(131)
        bl = BucketList()
        keys = set()
        for _ in range(300):
            k = rng.randint(1, 100)
            bl.insert_with_advice(k, bl.find_advice(k))
            keys.add(k)
            assert keys_of(bl) == sorted(keys)


class TestUnlink:
    def test_unlink_each_position(self):
        for victim in (10, 20, 30):
            bl = make_list(10, 20, 30)
            bl.unlink(bl.get(victim))
            assert keys_of(bl) == sorted({10, 20, 30} - {victim})
            assert bl.head.key == min({10, 20, 30} - {victim})
            assert bl.get(victim) is None

    def test_unlink_detached_bucket(self):
        bl = make_list(10)
        with pytest.raises(KeyError):
            bl.unlink(Bucket(99))
        with pytest.raises(KeyError):
            bl.unlink(Bucket(10))     # same key, but not the listed bucket
        assert keys_of(bl) == [10]

    def test_remove_member_unlinks_only_an_emptied_bucket(self):
        bl = make_list(10, 20)
        bucket = bl.get(10)
        bucket.add("a", 5, 5)
        bucket.add("b", 7, 7)
        bl.remove_member(10, "a")
        assert keys_of(bl) == [10, 20] and list(bucket.members) == ["b"]
        bl.remove_member(10, "b")
        assert keys_of(bl) == [20] and bl.get(10) is None
        with pytest.raises(KeyError):
            bl.remove_member(10, "b")


@dataclass
class _LinkedBucket(Bucket):
    next: "_LinkedBucket | None" = None


class _LinkedBucketList:
    """Reference book: the ascending singly linked bucket list the book
    kept before it became one sorted key list.  The advice check reads
    the hint bucket's link, and ``find_advice`` walks the links, so
    neither shares the bisect with ``BucketList``.  Used only to check
    that both accept, refuse and order exactly the same."""

    def __init__(self) -> None:
        self.head: _LinkedBucket | None = None
        self._by_key: dict[int, _LinkedBucket] = {}

    def __iter__(self):
        node = self.head
        while node is not None:
            yield node
            node = node.next

    def get(self, key):
        return self._by_key.get(key)

    def insert_with_advice(self, key, hint):
        existing = self._by_key.get(key)
        if existing is not None:
            return existing
        if hint is None:
            raise AdviceRequired(f"no bucket keyed {key} and no insertion hint")
        if hint == HEAD:
            if self.head is not None and self.head.key < key:
                raise BadAdvice(f"{key} does not precede head bucket {self.head.key}")
            bucket = _LinkedBucket(key, next=self.head)
            self.head = bucket
        else:
            pred = self._by_key.get(hint)
            if pred is None:
                raise BadAdvice(f"hint bucket {hint} is not in the book")
            if not (pred.key < key and (pred.next is None or key < pred.next.key)):
                raise BadAdvice(f"hint {pred.key} does not bracket {key}")
            bucket = _LinkedBucket(key, next=pred.next)
            pred.next = bucket
        self._by_key[key] = bucket
        return bucket

    def find_advice(self, key):
        if key in self._by_key:
            return None
        pred = HEAD
        for node in self:
            if node.key > key:
                break
            pred = node.key
        return pred

    def insert_scanned(self, key):
        return self.insert_with_advice(key, self.find_advice(key))

    def unlink(self, bucket) -> None:
        if self.head is bucket:
            self.head = bucket.next
        else:
            node = self.head
            while node is not None and node.next is not bucket:
                node = node.next
            if node is None:
                raise KeyError(bucket.key)
            node.next = bucket.next
        bucket.next = None
        del self._by_key[bucket.key]


_KEYS = st.integers(0, 24)
# hint kinds: HEAD, none, the true predecessor (what find_advice says),
# the present key at an index (not the predecessor, mostly), any key
# (absent, mostly)
_HINTS = st.one_of(st.just(("head",)), st.just(("none",)), st.just(("pred",)),
                   st.tuples(st.just("present"), st.integers(0, 10**6)),
                   st.tuples(st.just("raw"), _KEYS))
_LIST_OPS = st.lists(st.one_of(
    st.tuples(st.just("insert"), _KEYS, _HINTS),
    st.tuples(st.just("scanned"), _KEYS),
    st.tuples(st.just("unlink"), st.integers(0, 10**6)),
    st.tuples(st.just("unlink_detached"), _KEYS),
    st.tuples(st.just("find"), _KEYS),
    st.tuples(st.just("get"), _KEYS),
), max_size=60)


def _outcome(call):
    """The exception type a call raised, or the key of the bucket (or
    the hint) it returned."""
    try:
        result = call()
    except (AdviceRequired, BadAdvice, KeyError) as err:
        return type(err)
    return result.key if isinstance(result, Bucket) else result


def _head_key(bucket_list):
    return None if bucket_list.head is None else bucket_list.head.key


@settings(deadline=None, max_examples=300)
@given(_LIST_OPS)
def test_sorted_list_matches_linked_reference(ops):
    fast, ref = BucketList(), _LinkedBucketList()
    for op in ops:
        kind = op[0]
        if kind == "insert":
            key, hint = op[1], op[2]
            present = [b.key for b in ref]
            if hint[0] == "head":
                value = HEAD
            elif hint[0] == "none":
                value = None
            elif hint[0] == "pred":
                value = ref.find_advice(key)
            elif hint[0] == "present":
                value = present[hint[1] % len(present)] if present else HEAD
            else:
                value = hint[1]
            outcomes = [_outcome(lambda b=b: b.insert_with_advice(key, value))
                        for b in (fast, ref)]
        elif kind in ("scanned", "find", "get"):
            method = {"scanned": "insert_scanned", "find": "find_advice",
                      "get": "get"}[kind]
            outcomes = [_outcome(lambda b=b: getattr(b, method)(op[1]))
                        for b in (fast, ref)]
        elif kind == "unlink":
            present = [b.key for b in ref]
            if not present:
                continue
            key = present[op[1] % len(present)]
            outcomes = [_outcome(lambda b=b: b.unlink(b.get(key))) for b in (fast, ref)]
        else:  # a bucket never inserted, whose key may be in the list
            outcomes = [_outcome(lambda: fast.unlink(Bucket(op[1]))),
                        _outcome(lambda: ref.unlink(_LinkedBucket(op[1])))]
        assert outcomes[0] == outcomes[1], op
        assert [b.key for b in fast] == [b.key for b in ref]
        assert _head_key(fast) == _head_key(ref)


class TestBucketScaleMath:
    def test_snapshot_shields_late_joiners(self):
        book = OrderBook()
        bucket = book.caps.insert_with_advice(60, HEAD)
        bucket.add("a", 10, 12)
        removed = book.scale_bucket(bucket, Fraction(1, 3))
        assert bucket.scale == Fraction(2, 3)
        assert bucket.effective() == 6 and removed == 4

        # b joins after the scaling and must not share in it
        entry_b = bucket.add("b", 5, 6)
        assert entry_b.entry_scale == Fraction(2, 3)
        assert bucket.member_effective(entry_b) == 5
        assert bucket.effective() == 11

        book.scale_bucket(bucket, Fraction(1, 2))
        assert bucket.member_effective(bucket.members["a"]) == 3  # floor(10/3)
        assert bucket.member_effective(entry_b) == 2            # floor(5/2)
        assert bucket.effective() == 5

    def test_member_floors_never_exceed_bucket_floor(self):
        rng = random.Random(7)
        for _ in range(100):
            book = OrderBook()
            bucket = book.caps.insert_with_advice(1000, HEAD)
            for i in range(rng.randint(1, 6)):
                bucket.add(f"m{i}", rng.randint(1, 500), rng.randint(1, 600))
                if rng.random() < 0.5 and bucket.effective() > 1:
                    book.scale_bucket(bucket, Fraction(1, rng.randint(2, 9)))
            total = sum(bucket.member_effective(e) for e in bucket.members.values())
            assert total <= bucket.effective()

    def test_scale_fraction_bounds(self):
        book = OrderBook()
        bucket = book.caps.insert_with_advice(60, HEAD)
        bucket.add("a", 10, 12)
        for q in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2)):
            with pytest.raises(InvalidFraction):
                book.scale_bucket(bucket, q)

    def test_only_pointer_bucket_may_shrink(self):
        book = OrderBook()
        book.caps.insert_with_advice(60, HEAD).add("a", 10, 12)
        tail = book.caps.insert_with_advice(90, 60)
        tail.add("b", 10, 12)
        with pytest.raises(ValueError):
            book.scale_bucket(tail, Fraction(1, 2))
        with pytest.raises(ValueError):
            book.kick_bucket(tail)

    def test_remove_restores_weight(self):
        bucket = Bucket(60)
        bucket.add("a", 10, 12)
        entry = bucket.add("b", 7, 8)
        bucket.remove("b")
        assert bucket.weight == 10 and bucket.total_v == 10
        assert isinstance(entry, BookEntry)
        with pytest.raises(KeyError):
            bucket.remove("b")


_BUCKET_OPS = st.lists(st.one_of(
    st.tuples(st.just("add"), st.integers(1, 10**6), st.integers(0, 10**6)),
    st.tuples(st.just("remove"), st.integers(0, 10**6)),
    st.tuples(st.just("rescale"), st.fractions(Fraction(1, 1000), Fraction(999, 1000),
                                                max_denominator=1000)),
), max_size=40)


@settings(deadline=None)
@given(_BUCKET_OPS)
def test_cached_effective_is_the_exact_floor(ops):
    bucket = Bucket(60)
    names = (f"m{i}" for i in itertools.count())
    for op in ops:
        if op[0] == "add":
            bucket.add(next(names), op[1], op[2])
        elif op[0] == "remove" and bucket.members:
            bucket.remove(list(bucket.members)[op[1] % len(bucket.members)])
        elif op[0] == "rescale":
            bucket.rescale(op[1])
        assert bucket.effective() == math.floor(bucket.weight * bucket.scale)


class TestKick:
    def test_kick_returns_full_accounting(self):
        book = OrderBook()
        bucket = book.caps.insert_with_advice(60, HEAD)
        bucket.add("a", 10, 12)
        book.scale_bucket(bucket, Fraction(1, 3))
        bucket.add("b", 5, 6)
        book.scale_bucket(bucket, Fraction(1, 2))

        refunds, removed, credited = book.kick_bucket(bucket)
        assert refunds == [("a", 3), ("b", 2)]
        assert removed == 5          # live capital leaving the valuation
        assert credited == 15        # face value owed back across members
        assert book.caps.head is None
        assert book.boundary == 60

    def test_boundary_monotone(self):
        book = OrderBook()
        for key in (30, 60):
            b = book.caps.insert_scanned(key)
            b.add(f"x{key}", 10, 10)
        book.kick_bucket(book.caps.head)
        assert book.boundary == 30
        book.scale_bucket(book.caps.head, Fraction(1, 2))
        assert book.boundary == 60


def _dormant(address, v, minimum):
    return Bid(address=address, v=v, b=0, cap=10**9, entry_stage=0,
               status=BidStatus.DORMANT, minimum=minimum)


class TestVerifyPoke:
    def test_accepts_exactly_funded_clearing_set(self):
        bids = [_dormant("a", 10, 30), _dormant("b", 10, 30), _dormant("c", 10, 30)]
        assert verify_poke(30, bids)

    def test_rejects_unmet_minimum(self):
        bids = [_dormant("a", 40, 30), _dormant("b", 10, 45)]
        assert not verify_poke(40, bids)

    def test_rejects_underfunded_claim(self):
        bids = [_dormant("a", 10, 5), _dormant("b", 10, 5)]
        assert not verify_poke(21, bids)

    def test_minimum_free_bids_only_need_funding(self):
        assert verify_poke(15, [_dormant("a", 20, None)])
        assert not verify_poke(25, [_dormant("a", 20, None)])
