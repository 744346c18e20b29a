"""Seeded random generation of auction cases.

Each case draws, per bidder, an availability uniform on [1, Q] and a unit
seat cost, then prices size m at cost * sum(gamma^(i-1), i=1..m) rounded
half-up to micro-units in integer arithmetic, ``round_half_up(cost * n, d)``
for the sum n/d: strictly increasing with diminishing marginals, so every
generated schedule carries the concave flag.  A draw that micro-rounding
flattens is redrawn.

Every draw comes from a stream: a ``random.Random`` seeded with the sha256
of (seed, label).  Distinct labels give independent sequences, and the same
(seed, label) pair always replays the same one.  Case streams are labelled
by (case, bidder) only, never by the bidder count, so scenarios of different
sizes share their common bidders: the K=5 batch is a prefix of the K=100
batch for the same seed.  That is what makes the paired-seed comparisons
across K meaningful, and it lets the studies draw each law once, at their
largest K, and take every smaller K with ``ScenarioBatch.head``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

from .core import (
    MICROS_PER_UNIT,
    AuctionError,
    AuctionInstance,
    BidSchedule,
    NonConcavePrices,
    NonMonotonePrices,
    OversizedRatio,
    ServiceType,
    ValidationError,
    _is_int,
    as_fraction,
    check_request,
    price_series,
    round_half_up,
)

# Redraws per bidder before declaring the law degenerate (a gamma so extreme
# that micro-rounding can never produce a valid price curve).
MAX_DRAW_ATTEMPTS = 1000

# The most digits gamma's numerator or denominator may have, so that every
# message and label that renders gamma stays short.
MAX_GAMMA_DIGITS = 100


class InvalidLaw(AuctionError):
    pass


class CostLaw(Enum):
    """Unit seat-cost distribution: uniform (0,1] or uniform (0,0.1] + 0.5."""

    LARGE_VARIATION = "large"
    SMALL_VARIATION = "small"


def rng_stream(seed: int, label: str) -> random.Random:
    """The stream for ``label`` under ``seed``."""
    digest = hashlib.sha256(f"{seed}\x1f{label}".encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


@dataclass(frozen=True)
class GenerationLaw:
    """How random cases are drawn; availability is always uniform on [1, Q]."""

    seed: int
    cost_law: CostLaw = CostLaw.LARGE_VARIATION
    gamma: Fraction = Fraction(4, 5)

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "gamma", as_fraction(self.gamma, MAX_GAMMA_DIGITS))
        except OversizedRatio:
            raise InvalidLaw(
                f"gamma must be a ratio of integers of at most {MAX_GAMMA_DIGITS} digits"
            ) from None
        except ValidationError:
            raise InvalidLaw(f"gamma must be a ratio, got {self.gamma!r}") from None
        if not isinstance(self.cost_law, CostLaw):
            raise InvalidLaw(f"cost_law must be a CostLaw, got {self.cost_law!r}")
        if not (0 < self.gamma <= 1):
            raise InvalidLaw(f"gamma must lie in (0, 1], got {self.gamma}")
        if not (_is_int(self.seed) and 0 <= self.seed < 2**64):
            raise InvalidLaw(f"seed must be an unsigned 64-bit integer, got {self.seed}")


def draw_cost_micros(stream: random.Random, cost_law: CostLaw) -> int:
    """One unit seat cost in micro-units, per the configured law."""
    if cost_law is CostLaw.LARGE_VARIATION:
        return stream.randint(1, MICROS_PER_UNIT)
    return MICROS_PER_UNIT // 2 + stream.randint(1, MICROS_PER_UNIT // 10)


def _geometric_sums(gamma: Fraction, capacity: int) -> list[tuple[int, int]]:
    """sum(gamma^(i-1), i=1..m) for m = 1..capacity as (numerator,
    denominator) pairs over q^(m-1), where gamma = p/q."""
    p, q = gamma.numerator, gamma.denominator
    sums = [(1, 1)]
    num, den, power = 1, 1, 1
    for _ in range(1, capacity):
        power *= p
        num, den = num * q + power, den * q
        sums.append((num, den))
    return sums


def _draw_schedule(
    stream: random.Random,
    bidder_id: str,
    capacity: int,
    law: GenerationLaw,
    sums: list[tuple[int, int]],
) -> BidSchedule:
    available = stream.randint(1, capacity)
    for _ in range(MAX_DRAW_ATTEMPTS):
        cost = draw_cost_micros(stream, law.cost_law)
        prices = {
            m: round_half_up(cost * num, den) for m, (num, den) in enumerate(sums[:available], 1)
        }
        schedule = BidSchedule._of_micros(bidder_id, available, prices, True)
        # Micro-rounding can collapse sub-micro marginals for tiny costs;
        # such draws are rejected so every emitted schedule validates.
        try:
            price_series(schedule, capacity)
        except (NonMonotonePrices, NonConcavePrices):
            continue
        return schedule
    raise InvalidLaw(
        f"gamma {law.gamma} cannot produce valid micro-unit price curves"
    )


@dataclass(frozen=True)
class ScenarioBatch:
    """Generated bid schedules: one tuple of schedules per random case, each
    of ``bidder_count`` bidders.

    A case is evaluated at every requested size and service type, so the
    batch stores the schedules and assembles instances on demand.
    """

    law: GenerationLaw
    capacity: int
    cases: tuple[tuple[BidSchedule, ...], ...]
    # Case i of the batch is case first_case + i of the law's draw.
    first_case: int = 0

    def __post_init__(self) -> None:
        if len({len(schedules) for schedules in self.cases}) != 1:
            raise InvalidLaw("a batch needs at least one case, all of one bidder count")

    @property
    def bidder_count(self) -> int:
        return len(self.cases[0])

    @property
    def case_count(self) -> int:
        return len(self.cases)

    def instance(self, case: int, service: ServiceType, requested_seats: int) -> AuctionInstance:
        if not (_is_int(case) and 0 <= case < self.case_count):
            raise InvalidLaw(f"case {case} outside a batch of {self.case_count} case(s)")
        check_request(self.capacity, service, requested_seats)
        return AuctionInstance(
            capacity=self.capacity,
            requested_seats=requested_seats,
            service=service,
            bids=self.cases[case],
        )

    def head(self, bidders: int, cases: int) -> "ScenarioBatch":
        """The first ``cases`` cases, each cut to its first ``bidders``
        schedules: the batch ``generate_batch`` draws at that size, since
        streams are keyed by (case, bidder) only."""
        if not (_is_int(bidders) and _is_int(cases)
                and 1 <= bidders <= self.bidder_count and 1 <= cases <= self.case_count):
            raise InvalidLaw(
                f"head({bidders}, {cases}) outside a batch of {self.case_count} "
                f"case(s) of {self.bidder_count} bidder(s)"
            )
        return replace(self, cases=tuple(schedules[:bidders] for schedules in self.cases[:cases]))

    def case_label(self, case: int) -> str:
        return (
            f"seed={self.law.seed} law={self.law.cost_law.value} "
            f"gamma={self.law.gamma} K={self.bidder_count} case={self.first_case + case}"
        )

    def digest(self) -> str:
        h = hashlib.sha256()
        for schedules in self.cases:
            for s in schedules:
                prices = ",".join(f"{m}:{s._micros[m]}" for m in sorted(s._micros))
                h.update(f"{s.bidder_id}|{s.available_seats}|{prices}\n".encode())
        return h.hexdigest()


def generate_batch(
    law: GenerationLaw, bidders: int, capacity: int, cases: int, first_case: int = 0
) -> ScenarioBatch:
    """Draw ``cases`` independent cases of ``bidders`` schedules each,
    starting at case ``first_case``: since streams are keyed by (case,
    bidder), that is the same slice of any batch that draws those cases."""
    if not all(_is_int(n) and n >= 1 for n in (bidders, capacity, cases)):
        raise InvalidLaw("bidders, capacity, and cases must all be ints of at least 1")
    if not (_is_int(first_case) and first_case >= 0):
        raise InvalidLaw(f"first_case must be an int of at least 0, got {first_case!r}")
    sums = _geometric_sums(law.gamma, capacity)
    out = []
    for case in range(first_case, first_case + cases):
        schedules = []
        for j in range(bidders):
            stream = rng_stream(law.seed, f"case{case:04d}/bidder{j:04d}")
            schedules.append(_draw_schedule(stream, f"b{j:04d}", capacity, law, sums))
        out.append(tuple(schedules))
    return ScenarioBatch(law=law, capacity=capacity, cases=tuple(out), first_case=first_case)
