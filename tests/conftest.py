"""Shared fixtures: the randomized scenario corpus and its engine runs.

The corpus is generated once per session from fixed seeds, so every test
that consumes it sees the same 1,000 scenarios.  Scenarios are events
only (no strategies); that keeps them replayable through the reference
engine, which knows nothing about strategy objects.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

from icosim.agents import run_scenario
from icosim.analysis import AuditReport, audit_trace
from icosim.engine import Sale, SaleConfig
from icosim.gas import GasSchedule
from icosim.pricing import PriceCurve
from icosim.scenario import AUTO, Action, ScenarioSpec, ScheduledEvent

CORPUS_SIZE = 1000

# roomy budget so corpus runs never hit the meter; gas behavior has its
# own dedicated scenarios
AMPLE_GAS = GasSchedule(block_limit=10**12)

BONUS_CHOICES = (Fraction(0), Fraction(1, 10), Fraction(1, 5),
                 Fraction(3, 10), Fraction(1, 2))


def bid_event(stage: int, address: str, v: int, cap: int, m: int | None = None,
              fee: int = 0) -> ScheduledEvent:
    """A scheduled bid as ``scenario.parse`` reads it, advice left to the runner."""
    return ScheduledEvent(stage, Action(address, "bid", {
        "v": v, "cap": cap, "m": m, "fee": fee, "advice": AUTO}))


def withdraw_event(stage: int, address: str) -> ScheduledEvent:
    return ScheduledEvent(stage, Action(address, "withdraw", {}))


def poke_event(stage: int, poker: str, x: int, target: list[str]) -> ScheduledEvent:
    return ScheduledEvent(stage, Action(poker, "poke", {"x": x, "target": target}))


def random_spec(index: int) -> ScenarioSpec:
    rng = random.Random(9_000_000 + index)
    u = rng.randint(2, 50)
    t = rng.randint(0, u // 2)
    g = rng.choice((1, 2, 5, 10))
    a = rng.choice(BONUS_CHOICES)
    b = rng.choice([f for f in BONUS_CHOICES if f <= a])
    p0, pt, pu = 1 + a, 1 + b, Fraction(1)
    if t == 0:
        p0 = pt
    config = SaleConfig(
        t=t, u=u, granularity=g,
        curve=PriceCurve(p0, pt, pu, t, u),
        gas=AMPLE_GAS,
        penalty_free_withdrawal=rng.random() < 0.25,
        min_bid_deadline=rng.randint(0, u) if rng.random() < 0.10 else None,
    )

    events: list[ScheduledEvent] = []
    n_bids = rng.randint(100, 200) if rng.random() < 0.03 else rng.randint(1, 40)
    dormant: list[tuple[str, int, int]] = []  # address, v, minimum
    names: list[str] = []
    for j in range(n_bids):
        address = f"b{j}"
        if names and rng.random() < 0.03:
            address = rng.choice(names)  # duplicate on purpose
        stage = rng.randint(0, u)
        v = rng.randint(1, 400)
        cap = g * rng.randint(1, 60)
        if g > 1 and rng.random() < 0.03:
            cap += 1  # misaligned on purpose
        minimum = None
        fee = 0
        if cap % g == 0 and cap // g >= 2 and rng.random() < 0.15:
            minimum = g * rng.randint(1, cap // g - 1)
            fee = rng.randint(0, 3)
            if rng.random() < 0.05:
                minimum = cap + g  # above the cap on purpose
        elif rng.random() < 0.02:
            fee = 1  # fee without a minimum, rejected
        events.append(bid_event(stage, address, v, cap, minimum, fee))
        if address == f"b{j}":
            names.append(address)
            if minimum is not None and minimum < cap:
                dormant.append((address, v, minimum))

    for j, address in enumerate(names):
        roll = rng.random()
        if t >= 1 and roll < 0.20:
            events.append(withdraw_event(rng.randint(0, t - 1), address))
        elif roll < 0.25:
            events.append(withdraw_event(rng.randint(t, u), address))
    if rng.random() < 0.02:
        events.append(withdraw_event(rng.randint(0, u), "nobody"))

    if dormant:
        for k in range(rng.randint(0, 2)):
            stage = rng.randint(0, u)
            sample = rng.sample(dormant, rng.randint(1, min(4, len(dormant))))
            if rng.random() < 0.6:
                x_hi = sum(v for _, v, _ in sample)
                x_lo = max(m for _, _, m in sample)
                x = rng.randint(x_lo, x_hi) if x_lo <= x_hi else x_hi + 1
            else:
                x = rng.randint(1, 5000)
            target = sorted(a for a, _, _ in sample)
            events.append(poke_event(stage, f"p{k}", x, target))
            if rng.random() < 0.3:
                events.append(poke_event(min(stage + 1, u), f"p{k}x", x, target))

    return ScenarioSpec(config=config, seed=index, strategies=[], events=events)


def v1_body(body: list[str]) -> list[str]:
    """The exact body a format-1 writer produced for the same run.

    Format 2 only dropped the always-zero ``dust`` field, which format 1
    wrote before ``deposits=`` in every ``blk`` record and last in the
    ``fin`` record.
    """
    assert body[0] == "ico-trace\t2"
    out = ["ico-trace\t1"]
    for line in body[1:]:
        if line.startswith("blk\t"):
            line = line.replace("\tdeposits=", "\tdust=0\tdeposits=")
        elif line.startswith("fin\t"):
            line += "\tdust=0"
        out.append(line)
    return out


@dataclass
class CorpusRun:
    spec: ScenarioSpec
    sale: Sale
    trace: object
    report: AuditReport


@pytest.fixture(scope="session")
def corpus_specs() -> list[ScenarioSpec]:
    return [random_spec(i) for i in range(CORPUS_SIZE)]


@pytest.fixture(scope="session")
def corpus_runs(corpus_specs) -> tuple[list[CorpusRun], float]:
    started = time.perf_counter()
    runs = []
    for spec in corpus_specs:
        result = run_scenario(spec)
        runs.append(CorpusRun(spec, result.sale, result.trace,
                              audit_trace(result.trace)))
    return runs, time.perf_counter() - started
