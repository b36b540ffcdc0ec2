"""Seeded scenario generators for the benchmark workloads.

Every generator is a pure function of (seed, scale): the same arguments
give byte-identical scenario files.  The generators write the scenario
text format directly and never call into ``icosim``, so the program only
ever receives the generated files and a change to the program cannot
change the benchmark's inputs.

Why each workload exists (performance work cites these names):

``churn``  Pre-lock churn in a crowded book.  About 16k bids crowd into
    8 cap buckets at no more than 100 per block, so the block count
    grows with n.  Two thirds of the active bids withdraw voluntarily in
    random order, a quarter of all bids are dormant minimum-bids woken
    by about 1k overlapping pokes, a tenth of the dormant bids cancel,
    and one post-lock whale makes a few kicks.  It loads the book's
    removal and migration paths (``Bucket.remove``, ``BucketList.unlink``,
    ``insert_scanned``), the engine's withdraw and poke paths and
    ``pricing.committed_balance``.  The sweep and per-bucket work stay
    almost idle.
``sweep``  Post-lock sweep over about 4k distinct caps.  Every bid sits on
    its own cap, placed before the lock; then 40 ``whale`` strategies
    push V up block by block and the pointer kicks or scales about n/40
    buckets per block.  It loads the engine sweep, ``kick_bucket`` and
    ``scale_bucket``, the per-block ``recompute_valuation`` over thousands
    of buckets, the ``s3`` trace records, the auditor's ``on_step3`` and
    ``on_block`` scans and the strategy polling.  There are no
    withdrawals, so ``Bucket.remove`` stays idle.
``corpus`` 1,000 small randomized sales, built the way the acceptance
    corpus in ``tests/conftest.py`` builds them: rejections on purpose,
    dormant bids, pokes and ample gas, with the seed base taken from the
    benchmark seed.  Each sale is one CLI run, so per-run fixed cost
    (argument parsing, trace formatting and writing) dominates and the
    structures that matter only at scale barely run.  A change that adds
    per-run set-up to speed up big books shows as a regression here.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

HEADER = "ico-scenario\t1"

CHURN_BIDS = 16_000
SWEEP_CAPS = 4_000
CORPUS_SALES = 1_000

BIDS_PER_BLOCK = 100     # the default 6.7M gas holds at most 134 submissions
DEFAULT_BLOCK_LIMIT = 6_700_000
SUBMIT_GAS_BOUND = 52_000  # bid_submit plus a possible advice_check
POKE_STORE_GAS = 5_000
MIN_KEYS = 64            # distinct personal minimums among dormant bids


def _event(stage: int, actor: str, action: str, **kv) -> str:
    fields = ["event", str(stage), actor, action]
    fields += [f"{k}={v}" for k, v in kv.items()]
    return "\t".join(fields)


def _frac(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else \
        f"{value.numerator}/{value.denominator}"


def _scenario(name: str, t: int, u: int, granularity: int, curve: str,
              seed: int, body: list[str], gas: str = "", option: str = "") -> str:
    lines = [HEADER, f"# {name}",
             f"sale\tt={t}\tu={u}\tgranularity={granularity}", f"curve\t{curve}"]
    if gas:
        lines.append(f"gas\t{gas}")
    if option:
        lines.append(f"option\t{option}")
    lines.append(f"seed\t{seed}")
    return "\n".join(lines + body) + "\n"


def churn(seed: int, n: int = CHURN_BIDS) -> dict[str, str]:
    """One crowded pre-lock sale of ``n`` bids; returns {file name: text}."""
    rng = random.Random(1_000_003 * seed + 11)
    t = -(-n // BIDS_PER_BLOCK)
    n_dormant = n // 4
    kinds = [True] * n_dormant + [False] * (n - n_dormant)
    rng.shuffle(kinds)
    # Per bid: stage, v, cap bucket 0..7, personal minimum (None if active), fee.
    bids = []
    for i, dormant in enumerate(kinds):
        bids.append((i // BIDS_PER_BLOCK, rng.randint(100, 400), rng.randrange(8),
                     rng.randint(1, MIN_KEYS) if dormant else None,
                     rng.randint(0, 3) if dormant else 0))
    active = [i for i, b in enumerate(bids) if b[3] is None]
    dormant_ids = [i for i, b in enumerate(bids) if b[3] is not None]

    # Two thirds of the active bids withdraw, each at a random pre-lock
    # stage no earlier than its own; a tenth of the dormant bids try to
    # cancel one stage after submitting.
    withdraw_at: dict[int, list[int]] = {}
    for i in rng.sample(active, 2 * len(active) // 3):
        withdraw_at.setdefault(rng.randint(bids[i][0], t - 1), []).append(i)
    cancel_at: dict[int, list[int]] = {}
    for i in rng.sample(dormant_ids, len(dormant_ids) // 10):
        cancel_at.setdefault(min(bids[i][0] + 1, t - 1), []).append(i)
    pokes_per_block = max(1, round(1_000 * n / CHURN_BIDS / t))

    # Replay the dormant book while generating, so that every poke
    # certifies its target set, never repeats an (x, target) pair, fits
    # the block's gas next to the submissions, and no cancel hits a bid a
    # poke has already woken.  Waking moves a whole minimum bucket.
    state: dict[int, str] = {}
    asleep_by_min: dict[int, set[int]] = {}
    seen_pokes: set[tuple[int, frozenset]] = set()
    events: list[tuple] = []  # (stage, actor, action, kv); bid caps as bucket index
    for stage in range(t):
        placed = range(stage * BIDS_PER_BLOCK, min(n, (stage + 1) * BIDS_PER_BLOCK))
        for i in placed:
            _, v, bucket, minimum, fee = bids[i]
            if minimum is None:
                events.append((stage, f"a{i}", "bid", {"v": v, "cap": bucket}))
                state[i] = "active"
            else:
                events.append((stage, f"d{i}", "bid",
                               {"v": v, "cap": bucket, "m": minimum, "fee": fee}))
                state[i] = "asleep"
                asleep_by_min.setdefault(minimum, set()).add(i)
        leaving = withdraw_at.get(stage, [])
        rng.shuffle(leaving)
        for i in leaving:
            events.append((stage, f"a{i}", "withdraw", {}))
            state[i] = "gone"
        for i in cancel_at.get(stage, []):
            if state[i] == "asleep":
                events.append((stage, f"d{i}", "withdraw", {}))
                state[i] = "gone"
                asleep_by_min[bids[i][3]].discard(i)
        gas_left = DEFAULT_BLOCK_LIMIT - SUBMIT_GAS_BOUND * len(placed)
        pokeable = [i for i in dormant_ids if state.get(i) in ("asleep", "woken")]
        for k in range(pokes_per_block):
            asleep = [i for i in pokeable if state[i] == "asleep"]
            target = set(rng.sample(pokeable, min(len(pokeable), rng.randint(1, 3))))
            if asleep and rng.random() < 0.7:
                target.add(rng.choice(asleep))
            if not target:
                break
            waking = set()
            for m in {bids[i][3] for i in target if state[i] == "asleep"}:
                waking |= asleep_by_min[m]
            x = rng.randint(max(bids[i][3] for i in target),
                            sum(bids[i][1] for i in target))
            key = (x, frozenset(target))
            if POKE_STORE_GAS * len(waking) > gas_left or key in seen_pokes:
                continue
            seen_pokes.add(key)
            gas_left -= POKE_STORE_GAS * len(waking)
            events.append((stage, f"p{stage}.{k}", "poke", {
                "x": x, "target": "+".join(sorted(f"d{i}" for i in target))}))
            for i in waking:
                state[i] = "woken"
                asleep_by_min[bids[i][3]].discard(i)

    # The eight caps sit above the valuation at the lock, one sixteenth
    # of it apart; the whale lifts V past the two or three lowest buckets.
    v_lock = sum(bids[i][1] for i, s in state.items() if s in ("active", "woken"))
    step = max(1, v_lock // 16)
    caps = [v_lock + (k + 1) * step for k in range(8)]
    body = [f"strategy\twhale\twhale\tentry={t}\tv={9 * step}\tcap={10 * caps[-1]}"]
    for stage, actor, action, kv in events:
        if action == "bid":
            kv = dict(kv, cap=caps[kv["cap"]])
        body.append(_event(stage, actor, action, **kv))
    return {f"churn-{n}.tsv": _scenario(
        f"churn: {n} bids, seed {seed}", t, t + 2, 1, "p0=6/5\tpt=11/10\tpu=1",
        seed, body)}


def sweep(seed: int, n: int = SWEEP_CAPS) -> dict[str, str]:
    """``n`` bids on distinct caps, then 40 whales push the pointer through them."""
    rng = random.Random(1_000_003 * seed + 23)
    t = -(-n // BIDS_PER_BLOCK)
    whales = 40
    spacing = 100
    vs = [rng.randint(100, 300) for _ in range(n)]
    first_cap = sum(vs) + spacing
    caps = [first_cap + spacing * k for k in range(n)]
    rng.shuffle(caps)
    # Each whale's capital crosses about n/40 buckets: the valuation must
    # climb by a bucket's live capital plus the cap spacing per bucket.
    per_whale = (n // whales) * (sum(vs) // n + spacing)
    top = first_cap + spacing * n
    body = [f"strategy\tw{j}\twhale\tentry={t + j}"
            f"\tv={per_whale + rng.randint(0, spacing)}\tcap={10 * top + j}"
            for j in range(whales)]
    body += [_event(i // BIDS_PER_BLOCK, f"b{i}", "bid", v=vs[i], cap=caps[i])
             for i in range(n)]
    return {f"sweep-{n}.tsv": _scenario(
        f"sweep: {n} caps, seed {seed}", t, t + whales + 1, 1,
        "p0=6/5\tpt=11/10\tpu=1", seed, body)}


BONUS_CHOICES = (Fraction(0), Fraction(1, 10), Fraction(1, 5),
                 Fraction(3, 10), Fraction(1, 2))


def _corpus_sale(rng_seed: int, index: int) -> str:
    """One randomized small sale, drawn the way the acceptance corpus draws it."""
    rng = random.Random(rng_seed)
    u = rng.randint(2, 50)
    t = rng.randint(0, u // 2)
    g = rng.choice((1, 2, 5, 10))
    a = rng.choice(BONUS_CHOICES)
    b = rng.choice([f for f in BONUS_CHOICES if f <= a])
    p0, pt = 1 + a, 1 + b
    if t == 0:
        p0 = pt
    options = []
    if rng.random() < 0.25:
        options.append("penalty_free_withdrawal=1")
    if rng.random() < 0.10:
        options.append(f"min_bid_deadline={rng.randint(0, u)}")

    events: list[tuple[int, str]] = []
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
        events.append((stage, _event(stage, address, "bid", v=v, cap=cap,
                                     m="-" if minimum is None else minimum,
                                     fee=fee)))
        if address == f"b{j}":
            names.append(address)
            if minimum is not None and minimum < cap:
                dormant.append((address, v, minimum))

    for address in names:
        roll = rng.random()
        if t >= 1 and roll < 0.20:
            stage = rng.randint(0, t - 1)
            events.append((stage, _event(stage, address, "withdraw")))
        elif roll < 0.25:
            stage = rng.randint(t, u)
            events.append((stage, _event(stage, address, "withdraw")))
    if rng.random() < 0.02:
        stage = rng.randint(0, u)
        events.append((stage, _event(stage, "nobody", "withdraw")))

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
            target = "+".join(sorted(a for a, _, _ in sample))
            events.append((stage, _event(stage, f"p{k}", "poke", x=x, target=target)))
            if rng.random() < 0.3:
                again = min(stage + 1, u)
                events.append((again, _event(again, f"p{k}x", "poke",
                                             x=x, target=target)))
    events.sort(key=lambda e: e[0])  # stable: file order within a stage
    return _scenario(f"corpus sale {index}", t, u, g,
                     f"p0={_frac(p0)}\tpt={_frac(pt)}\tpu=1", index,
                     [line for _, line in events], gas=f"block_limit={10**12}",
                     option="\t".join(options))


def corpus(seed: int, n: int = CORPUS_SALES) -> dict[str, str]:
    """``n`` small sales; seed 0 draws the acceptance corpus's own seeds."""
    base = 9_000_000 + CORPUS_SALES * seed
    return {f"sale-{k:04d}.tsv": _corpus_sale(base + k, k) for k in range(n)}


# name -> (generator, full size); the traced run also plays a quarter size
WORKLOADS = {"churn": (churn, CHURN_BIDS), "sweep": (sweep, SWEEP_CAPS),
             "corpus": (corpus, CORPUS_SALES)}


def write_inputs(workload: str, seed: int, directory: Path,
                 quarter: bool = False) -> list[Path]:
    """Generate one workload's scenario files into ``directory``."""
    make, size = WORKLOADS[workload]
    files = make(seed, size // 4 if quarter else size)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in files.items():
        path = directory / name
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths
