import re
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from typing import Optional

import pytest
from hypothesis import strategies as st

from avauction import (
    Allocation,
    AuctionError,
    AuctionInstance,
    BidderCharge,
    BidSchedule,
    CompiledCase,
    InvalidLaw,
    Money,
    NegativeAmount,
    NonConcavePrices,
    NonMonotonePrices,
    PrecisionLoss,
    ScenarioBatch,
    ServiceType,
    ValidationError,
    money_from_decimal,
    rng_stream,
    validate_instance,
)
from avauction import studies
from avauction.core import BOUND_DIGITS, MICROS_PER_UNIT, PastBound, round_half_up
from avauction.scenario import MAX_DRAW_ATTEMPTS, draw_cost_micros


def sched(bidder_id, available, prices, concave=False):
    return BidSchedule(
        bidder_id=bidder_id,
        available_seats=available,
        prices={m: money_from_decimal(p) for m, p in prices.items()},
        concave=concave,
    )


def make_instance(capacity, requested, service, bids):
    return AuctionInstance(
        capacity=capacity, requested_seats=requested, service=service, bids=tuple(bids)
    )


def full_case(bids, capacity):
    """The bids compiled at full width, q_r = capacity, so the case answers
    every request a vehicle of that capacity can take."""
    return CompiledCase(make_instance(capacity, capacity, ServiceType.SPLITTABLE, bids))


def significant_digits(digits: str) -> int:
    """How many digits a run of decimal digits of any script has once its
    leading zeros are dropped, read one digit at a time, so at any length."""
    return len("".join(str(int(digit)) for digit in digits).lstrip("0"))


# money_from_decimal with its grammar as a regex: the oracle of the money
# and parsing differential tests.
_REGEX_DECIMAL = re.compile(r"^(\d+)(?:\.(\d*))?$|^\.(\d+)$")


def regex_money_from_decimal(text: str) -> Money:
    text = text.strip()
    if text.startswith("-"):
        raise NegativeAmount(f"negative money literal {text!r}")
    m = _REGEX_DECIMAL.match(text)
    if m is None:
        raise ValidationError(f"not a decimal money literal: {text!r}")
    whole = m.group(1) or "0"
    frac = m.group(2) or m.group(3) or ""
    if significant_digits(whole) + 6 > BOUND_DIGITS:
        raise PastBound(f"price, in micros, past the bound 10**{BOUND_DIGITS}")
    if len(frac) > 6:
        raise PrecisionLoss(f"{text!r} has more than 6 fractional digits")
    return Money(int(whole) * MICROS_PER_UNIT + int(frac.ljust(6, "0") or "0"))


# Assignments ``brute_force_wdp`` enumerates at most.
ENUMERATION_CAP = 10**7


class EnumerationCapExceeded(AuctionError):
    pass


def brute_force_wdp(instance: AuctionInstance) -> Optional[Allocation]:
    """Independent oracle: enumerate every one-size-or-nothing assignment
    that can be optimal.

    It reads the validated instance's own bids, in their given order, not a
    compiled case.  Constraints are applied as literally written for each
    service type, keeping the seat-coverage condition in its inequality form
    (>= q_r, or >= capacity for private) rather than the equality the fast
    solver uses.  Ties break as the engine's do: lowest total, then fewest
    assignments, then the smallest sorted (bidder_id, size) list.

    A single vehicle takes one winner.  A split with more winners than the
    seats it needs is never optimal: dropping its smallest winner still
    covers them, at no greater total and with one winner fewer.  So only
    assignments of at most that many winners are enumerated, which keeps a
    small request cheap at any K.
    """
    validate_instance(instance)
    options = [
        [(m, price.micros) for m, price in sorted(bid.prices.items())] for bid in instance.bids
    ]
    service = instance.service
    need = (
        instance.capacity if service is ServiceType.PRIVATE else instance.requested_seats
    )
    most = min(need if service is ServiceType.SPLITTABLE else 1, len(options))
    ways = [1] + [0] * most  # ways[c]: the assignments of exactly c winners
    for sizes in options:
        for count in range(most, 0, -1):
            ways[count] += ways[count - 1] * len(sizes)
    if sum(ways) > ENUMERATION_CAP:
        raise EnumerationCapExceeded(f"search space exceeds cap of {ENUMERATION_CAP} assignments")
    best_key: Optional[tuple[int, int, tuple[tuple[str, int], ...]]] = None
    for count in range(most + 1):
        for chosen in combinations(range(len(options)), count):
            for combo in product(*(options[i] for i in chosen)):
                if sum(m for m, _ in combo) < need:
                    continue
                total = sum(price for _, price in combo)
                if best_key is not None and (total, count) > best_key[:2]:
                    continue
                assigns = tuple(sorted(
                    (instance.bids[i].bidder_id, m) for i, (m, _) in zip(chosen, combo)
                ))
                key = (total, count, assigns)
                if best_key is None or key < best_key:
                    best_key = key
    if best_key is None:
        return None
    return Allocation(assignments=best_key[2], total_bid=Money(best_key[0]))


@st.composite
def small_instances(draw, max_bidders=4, capacity=5):
    """Instances of 1..max_bidders bidders: ids in a drawn order, so bid
    order and id order disagree, zero availability, and first prices that
    may be 0."""
    k = draw(st.integers(min_value=1, max_value=max_bidders))
    ids = draw(st.permutations([f"b{j}" for j in range(k)]))
    bids = []
    for bidder_id in ids:
        available = draw(st.integers(min_value=0, max_value=capacity))
        top = min(available, capacity)
        increments = draw(
            st.lists(st.integers(min_value=1, max_value=500_000), min_size=top, max_size=top)
        )
        if increments and draw(st.booleans()):
            increments[0] = 0
        prices, level = {}, 0
        for m, inc in enumerate(increments, start=1):
            level += inc
            prices[m] = Money(level)
        bids.append(BidSchedule(bidder_id, available, prices))
    return AuctionInstance(
        capacity=capacity,
        requested_seats=draw(st.integers(min_value=1, max_value=capacity)),
        service=draw(st.sampled_from(list(ServiceType))),
        bids=tuple(bids),
    )


def outcome(fn, arg):
    """What ``fn`` makes of ``arg``: its value, or its exception's class and message."""
    try:
        return fn(arg)
    except Exception as exc:  # the differential compares every failure too
        return type(exc), str(exc)


def failed(result) -> bool:
    """Whether an ``outcome`` is an exception's (class, message)."""
    return isinstance(result, tuple) and len(result) == 2 and isinstance(result[0], type)


def tuple_cover_table(rows, width):
    """table[i][s]: minimal (cost, count) covering exactly s <= width seats
    with the first i rows, one size or nothing from each; None if no cover.
    The cover table as ``wdp._cover_table`` built it before it packed each
    cell into one int: the oracle of the packed kernel."""
    prev = [(0, 0)] + [None] * width
    table = [prev]
    for prices in rows:
        cur = prev[:]  # contribute nothing
        for s in range(1, width + 1):
            best = cur[s]
            for m in range(1, min(len(prices), s) + 1):
                rest = prev[s - m]
                if rest is not None:
                    cand = (prices[m - 1] + rest[0], rest[1] + 1)
                    if best is None or cand < best:
                        best = cand
            cur[s] = best
        table.append(cur)
        prev = cur
    return table


def _fraction_schedule(stream, bidder_id, capacity, law, sums):
    available = stream.randint(1, capacity)
    for _ in range(MAX_DRAW_ATTEMPTS):
        cost = draw_cost_micros(stream, law.cost_law)
        try:
            return BidSchedule(
                bidder_id=bidder_id,
                available_seats=available,
                prices={m: Money(round_half_up(cost * sums[m - 1])) for m in range(1, available + 1)},
                concave=True,
            )
        except (NonMonotonePrices, NonConcavePrices):
            continue
    raise InvalidLaw(
        f"gamma {law.gamma} cannot produce valid micro-unit price curves"
    )


def fraction_generate_batch(law, bidders, capacity, cases):
    """``generate_batch`` with each size priced by an exact ``Fraction``
    product, as the generator drew before integer price curves: the oracle
    of the generator."""
    sums, acc, term = [], Fraction(0), Fraction(1)
    for _ in range(capacity):
        acc += term
        sums.append(acc)
        term *= law.gamma
    return ScenarioBatch(
        law=law,
        capacity=capacity,
        cases=tuple(
            tuple(
                _fraction_schedule(
                    rng_stream(law.seed, f"case{case:04d}/bidder{j:04d}"),
                    f"b{j:04d}", capacity, law, sums,
                )
                for j in range(bidders)
            )
            for case in range(cases)
        ),
    )


def full_report(case, service, allocation, pivotal):
    """A charge report's fields with one ``BidderCharge`` per bidder, as
    ``vcg._report`` built them before reports listed only the entries that
    differ from a non-winner's: the oracle of the lean report."""
    p_star = allocation.total_bid.micros
    winning_amount = {
        bidder_id: case.price(bidder_id, size) for bidder_id, size in allocation.assignments
    }
    listed = {}
    fallback = False
    total = 0
    for bidder_id, piv in pivotal.items():
        own = winning_amount.get(bidder_id, 0)
        if piv is None:
            assert bidder_id in winning_amount
            fallback = True
            charge = own
        else:
            charge = piv - (p_star - own)
            assert charge >= 0
        total += charge
        listed[bidder_id] = BidderCharge(
            bidder_id=bidder_id,
            pivotal=None if piv is None else Money(piv),
            charge=Money(charge),
        )
    zero = Money(0)
    return {
        "service": service,
        "optimum": allocation.total_bid,
        "winner_allocation": allocation,
        "per_bidder": tuple(
            listed.get(bidder_id) or BidderCharge(bidder_id, allocation.total_bid, zero)
            for bidder_id in case.ids
        ),
        "total_charge": Money(p_star if fallback else total),
        "fallback": fallback,
    }


def oracle_off_by_one_micro(monkeypatch):
    """Make the literal per-bidder solves disagree with the engine."""
    original = studies.vcg_charges

    def charges(instance, *, independent_solves=False):
        report = original(instance, independent_solves=independent_solves)
        if independent_solves:
            report = replace(report, total_charge=Money(report.total_charge.micros + 1))
        return report

    monkeypatch.setattr(studies, "vcg_charges", charges)


@pytest.fixture
def e1():
    """Two bidders, Q=5, q_r=3; the splittable optimum is B taking all 3 seats."""
    return make_instance(
        5, 3, ServiceType.SPLITTABLE,
        [
            sched("A", 5, {1: "0.40", 2: "0.70", 3: "0.90", 4: "1.05", 5: "1.15"}),
            sched("B", 3, {1: "0.30", 2: "0.55", 3: "0.78"}),
        ],
    )


@pytest.fixture
def e2():
    """Three bidders, Q=5, q_r=4; the optimum is a genuine two-vehicle split."""
    return make_instance(
        5, 4, ServiceType.SPLITTABLE,
        [
            sched("A", 5, {1: "0.20", 2: "0.38", 3: "0.80", 4: "1.20", 5: "1.50"}),
            sched("B", 3, {1: "0.22", 2: "0.40", 3: "0.85"}),
            sched("C", 5, {1: "0.30", 2: "0.60", 3: "0.95", 4: "1.30", 5: "1.60"}),
        ],
    )
