"""Pinned SHA-256 body digests: any change to simulated behaviour fails here.

The pins cover the three bundled scenarios, every 20th scenario of the
randomized acceptance corpus plus seed 858, a few gas-bounded runs from
criterion 8, including the control whose pointer lags one block, one
inline scenario that uses every strategy kind and every optional event
field, and one in which a post-lock poke wakes a bid into a cap bucket
that was already scaled.  A refactor or speed-up must leave every digest
unchanged; a deliberate change to the trace format updates the pins in
the same change and says so in CHANGES.md.

The pins were taken on format-1 traces.  Format 2 differs only by the
dropped ``dust`` field, so each format-2 body is re-encoded to its exact
format-1 bytes (``conftest.v1_body``) and hashed against the same pin.
The all-kinds and wake-into-scaled pins were taken on format-2 bodies
and hash them as is.
"""

from __future__ import annotations

import dataclasses

import pytest

from icosim.agents import run_scenario
from icosim.scenario import parse, parse_file
from icosim.trace import body_digest

from conftest import assert_matches_oracle, random_spec, v1_body
from test_acceptance import _bounded_inflow_spec, _concentrated_poke_spec

SCENARIOS = {
    "whale": "19fe68f3f8780cb817b6d1000e9c4502c3645c6d1433e35b37debd55045a2084",
    "blackout": "ef6f33fe88c3c9918a22c1e0514a06580cc41927143b8b257682a098827dc86f",
    "poke": "68b18ef16d5729e4f24910e6dcd92f9af95b6355abe2f10c77c3630bf003ac2d",
}
CORPUS = {
    0: "cd5918d69560fbb64b08eef6d4dafbcdec4082e2eba569f6c8a4d39b08677029",
    20: "4c8564de9db7c3f875c0300af00cd0d1f1d50b0751f24a9943492d3ee4d89cbc",
    40: "4dbfc3a5e958c5c2a4e8a01b2fa6a13832c95a477d152b4a8841318e3bc63677",
    60: "fd4439a033968674d41419da941d3b0ce4ccb0820c4cfeec2a8c640522e1d29a",
    80: "390d737c524eec882ed5653af55b44f3393f60bd8c3f8874299887725a034a18",
    100: "02da4030c041f971171b55ed35cfe814963c44de05100424f0862f482c7b28f7",
    120: "40517cc612bd4c81948963f722287102963661dc19c468eee94d71226acfc6c9",
    140: "a70442fbc56fe49e5e5af82137ac226cdf4005f88eb6d92f195eab87b7a23602",
    160: "90044d22084cc95072f560453a3bf76cf2fe600cc4cf5728bad9f163b74fa356",
    180: "a3004319be8b71536e2f7cbce96bcf37b75d133bbac80bf04cd7d62063bc7397",
    200: "615aa11060efb968b3446f4df4bd96560b918e50090b3ef83da21df337f6c4fa",
    220: "4082248909bbbb34e19eb93836ec18d42bd7f393ea16d50b765b40c01eba1853",
    240: "1c3be1ed0d8227d5852061f01108a711fc7646f2eb26cb5f3863419ff9ac6124",
    260: "33e85a669560ceb1665bfc954b072c9684178ba24972f23643e0aa85af720e52",
    280: "291ed49f415ff22d68cff57f111e2695171fddca48daeb65362bea1273ae75f3",
    300: "61e87b55a7bbcac6aacda7eb1a0ef858fc79f03c3a7c3dea6d33ecf18dba3ca3",
    320: "8d61998ceedf4457955444c900f60bbcb7caf24b02dc852638f53a2b4d04c92d",
    340: "902d4612894ab956de52124fd9990604f7dbc2aa8e123aeaf241eb6ed5ea30a7",
    360: "e373df1df48811c3ed2158794c6ffa94ea1ea00143c948e45881b72c31ba688e",
    380: "003c8a7ab356a3e972d3838229b89285e38e1ccfd01b00f780d0ba1efd65b17c",
    400: "4a56c66f393dcb0250e1ca927b79901a5fc53f17674c95e31eb5387608f7d15d",
    420: "71bb8a1948620931625098b70d14b574ad656f732dc03216d6dcb1c27c7ee58a",
    440: "d5fd7c6f5254d69dfb23f2747c46e9d773bdd3afd838073e1fd5b115b7792b1e",
    460: "3224c4946cd64dc7f85b61cdbb4b82907f7ec9372084603e95df90fd993c9d2c",
    480: "f8a967c027a99dcd8b054c16ec1b400b8f49360b09ce11690b9f9c04bff02241",
    500: "2b51c2e848fb289d21f72783e091f9b1786fde25f56a2f92c9c2af6193a398cc",
    520: "209d19a2a39bf82641013e44ffecfa9716e6a00a743aaf8d55a165f59b8462d5",
    540: "6aa32656fb2ee1f545f4e3e5281b6bcdf77725c6528e20f3befbf981d4d3821a",
    560: "a5019f3ca62d8850076858a498ca4479c2ba4bcaf2d1818571da275c307d123e",
    580: "c10b1ca175bcdebac48d55e1b39478bb5a832c988c9359189a0a6653f3defee2",
    600: "8284a85d99f9c4ec857dc90537d287b2e758e3aeae4121888fc2371b75af1c48",
    620: "e1ec84ae2f0f9490cca90cadecd33b6a58f59bbd05f2ece8fd7f9b89a2604ffb",
    640: "ece4e368e3041e757bfbef318e7d5307dbbfd298bd4d6fb11a68f02b5a2afcb9",
    660: "cc62f8b4ceb22a4d718dcbf7d5b9b5c2ada77d20b434fcf70cc16fa039f2380d",
    680: "5b9c8115bec8bc3401c275f296efe57ac0d94c606d5f9ec1db2704436c56082b",
    700: "32672096028955edde99c5e93011a54cf989a7ef0d6da1ae9e55c164cad1ee30",
    720: "c1e63506b4a685faf66e503ca6238445a7d9900b057121a6fd9ff537f62c1903",
    740: "18027a556bec64d380fb130833b253711104cbb55295676fefe038065edcffba",
    760: "9310746b78ece08e554804a9b49626027253c464fe63f1723082a8a00a09466a",
    780: "46de50f49d37e8abab0739c578481708a1839498f1bb48b81908cb8729096b91",
    800: "6c1ce69f5f47a3a26472399cb0ecd41f0881ba8fbaf93595ca258e11a3187ad3",
    820: "ba0ee69ec87d063775c1610464aef9509349a2f8e99791eb43cd8ec7b35db193",
    840: "80252fefa1119a326bef747947b218dc68997a342441a552a83704efd2d7d594",
    # the only corpus run that wakes a bid into an already scaled cap
    # bucket: b2 at stage 11, joining at scale 100/323
    858: "d93800165ac8c44e7fafd34b20051ece8d914ad46cfe344c6c304849391cbe40",
    860: "9e2008d2d7e1a10921521c95c1c415838a0c8d34e0e1ac2dabc89008697b8ac3",
    880: "692428ff71eb95682ef434e728e85f91a3b9c8a64ffb719cdf0c79f49324b975",
    900: "c3529c4356b63a7a5187dc83af4272beef2b5480f88aebaf363fa0a00648a0ff",
    920: "fcf75078c941534cf7ce6b365075e63e0672e9c81a9de75f87dc2b9080abe8cf",
    940: "14f5dbb08ba3f54da7149e03b6f636079c67bd3c6ff8b73e703a40995ff41672",
    960: "06e895c86985a6bd43e07e36094b9cb61a7b85ff41c3aa87f40afe968a04a423",
    980: "769575d581ba74089c5bcae45acea02c7dd436844568d5b428009d4fdf74339f",
}
BOUNDED_INFLOW = {
    0: "6eda4ada240f996e6a6af2d07e52e85e86ba32bede2daea261b241c7a5c66cf6",
    1: "bdf3400ee0bf312a63c60070c1ca572353814d0a2ccdd1edb21f1f25438cb400",
    2: "ca7ec7d1ba06a0126d8bb967959d5fbbfa2f4a4291ae6fecc54d6984902410ea",
    3: "0a5573038ee001ff575b2540210dad31a816b9380f7986947c5a302fa35fd68b",
    4: "9ae3035c083c4e3eea86770a2bac530a49835b1994983a7aa20da559a1cc27c6",
}
CONCENTRATED_POKE = "f5b05da27518287aaa60348fb9d239d346aaa792853d234d07b15e20521b371e"

# every strategy kind, a table step with a minimum, a non-default reactive
# delay, and bids using m, fee and each advice spelling (head, -, a key)
ALL_KINDS_ROWS = (
    ("ico-scenario", "1"),
    ("sale", "t=3", "u=6", "granularity=10"),
    ("curve", "p0=6/5", "pt=11/10", "pu=1"),
    ("seed", "17"),
    ("strategy", "pa", "passive", "entry=0", "v=40", "cap=500", "m=20", "fee=3"),
    ("strategy", "tb", "table", "entry=1", "steps=300:50:20,600:20"),
    ("strategy", "rx", "reactive", "v=30", "cap=900", "threshold=1000", "delay=2"),
    ("strategy", "bo", "blackout", "stake=60", "stake_cap=800", "blind=200",
     "blind_cap=800", "withdraw=2"),
    ("strategy", "wh", "whale", "entry=4", "v=400", "cap=2000"),
    ("strategy", "sn", "sniper", "entry=0", "withdraw=1", "v=25", "cap=700"),
    ("event", "0", "e1", "bid", "v=10", "cap=100", "advice=head"),
    ("event", "0", "e2", "bid", "v=10", "cap=200", "advice=100"),
    ("event", "1", "e3", "bid", "v=15", "cap=200", "advice=-"),
    ("event", "1", "e4", "bid", "v=12", "cap=400", "m=30", "fee=2"),
    ("event", "1", "e5", "bid", "v=9", "cap=1000", "advice=300"),
    ("event", "2", "kp", "poke", "x=30", "target=e4+pa"),
    ("event", "5", "e6", "bid", "v=5", "cap=3000", "advice=-"),
)
ALL_KINDS = "c7960772a3c13368ac88e977ab1e73b5c9ff983ac2854afd883ddeec5cefb6ba"

# the lock-stage sweep scales cap 100 by 2/3; d, dormant under m=50, is
# woken into that bucket at stage 2 and must not share the earlier
# scaling when the next sweep scales the bucket again
WAKE_ROWS = (
    ("ico-scenario", "1"),
    ("sale", "t=1", "u=4", "granularity=10"),
    ("curve", "p0=6/5", "pt=11/10", "pu=1"),
    ("seed", "3"),
    ("event", "0", "a", "bid", "v=60", "cap=100"),
    ("event", "0", "b", "bid", "v=60", "cap=200"),
    ("event", "0", "d", "bid", "v=30", "cap=100", "m=50", "fee=2"),
    ("event", "2", "kp", "poke", "x=60", "target=b+d"),
)
WAKE_INTO_SCALED = "f3d34d9422b02696edcd13b117c010520a67e91dff58ebd2b3baf1f123c50440"


def _parse_rows(rows):
    return parse("\n".join("\t".join(row) for row in rows) + "\n")


def assert_pinned(trace, pin):
    assert trace.body[0] == "ico-trace\t2"
    assert not any(f.startswith("dust=") for line in trace.body
                   for f in line.split("\t"))
    assert body_digest(v1_body(trace.body)) == pin


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_bundled_scenario_digest(name):
    assert_pinned(run_scenario(parse_file(f"scenarios/{name}.tsv")).trace,
                  SCENARIOS[name])


@pytest.mark.parametrize("seed", sorted(CORPUS))
def test_corpus_digest(seed):
    assert_pinned(run_scenario(random_spec(seed)).trace, CORPUS[seed])


@pytest.mark.parametrize("index", sorted(BOUNDED_INFLOW))
def test_bounded_inflow_digest(index):
    assert_pinned(run_scenario(_bounded_inflow_spec(index)).trace,
                  BOUNDED_INFLOW[index])


def test_lagging_control_digest():
    assert_pinned(run_scenario(_concentrated_poke_spec()).trace, CONCENTRATED_POKE)


def test_all_kinds_digest():
    trace = run_scenario(_parse_rows(ALL_KINDS_ROWS)).trace
    assert body_digest(trace.body) == ALL_KINDS


def test_all_kinds_events_match_oracle():
    # strategies dropped: the oracle replays events only.  e5's hint does
    # not bracket its cap and e6 gives none, so both are refused.
    spec = dataclasses.replace(_parse_rows(ALL_KINDS_ROWS), strategies=[])
    result = run_scenario(spec)
    assert_matches_oracle(spec, result.sale, result.trace)
    outcomes = {r[3]: r[5] for r in result.trace.records("ev")}
    assert (outcomes["e5"], outcomes["e6"]) == ("err:BadAdvice", "err:AdviceRequired")


def test_wake_into_scaled_bucket():
    spec = _parse_rows(WAKE_ROWS)
    result = run_scenario(spec)
    assert body_digest(result.trace.body) == WAKE_INTO_SCALED
    assert_matches_oracle(spec, result.sale, result.trace)
    # d kept floor(30 * 4/7), not floor(30 * 2/3 * 4/7)
    retained = {a: bid.retained for a, bid in result.sale.bids.items()}
    assert retained == {"a": 22, "b": 60, "d": 17}
