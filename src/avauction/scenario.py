"""Seeded random generation of auction cases.

Each case draws, per bidder, an availability uniform on [1, Q] and a unit
seat cost, then prices size m at cost * sum(gamma^(i-1), i=1..m) rounded
half-up to micro-units in integer arithmetic, ``round_half_up(cost * n, d)``
for the sum n/d: strictly increasing with diminishing marginals, so every
generated schedule carries the concave flag.  The draw builds its
schedule from that tuple with ``BidSchedule._of_series``, which applies the
package's one price rule, so a draw that micro-rounding flattens is
redrawn.

Every draw comes from a stream: a ``random.Random`` seeded with the sha256
of (seed, label).  Distinct labels give independent sequences, and the same
(seed, label) pair always replays the same one.  A batch reseeds one
``Random`` per stream, which puts it in the state a new ``Random`` seeded
with that key starts in, so its draws are ``rng_stream``'s.  Case streams
are labelled by (case, bidder) only, never by the bidder count, so
scenarios of different sizes share their common bidders: the K=5 batch is
a prefix of the K=100 batch for the same seed.  That is what makes the
paired-seed comparisons across K meaningful, and it lets the studies draw
each law once, at their largest K, and take every smaller K with
``ScenarioBatch.head``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Optional

from .core import (
    INT_BOUND, MICROS_PER_UNIT, AuctionError, AuctionInstance, BidSchedule, OversizedRatio,
    ServiceType, ValidationError, _is_int, _past, _shown, as_fraction, check_request,
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


def _stream_key(seed: int, label: str) -> int:
    """The seed of the stream for ``label`` under ``seed``."""
    return int.from_bytes(hashlib.sha256(f"{seed}\x1f{label}".encode()).digest(), "big")


def rng_stream(seed: int, label: str) -> random.Random:
    """The stream for ``label`` under ``seed``."""
    return random.Random(_stream_key(seed, label))


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
            raise InvalidLaw(
                f"seed must be an unsigned 64-bit integer, got {_shown(self.seed, str)}"
            )


def draw_cost_micros(stream: random.Random, cost_law: CostLaw) -> int:
    """One unit seat cost in micro-units, per the configured law."""
    if cost_law is CostLaw.LARGE_VARIATION:
        return stream.randint(1, MICROS_PER_UNIT)
    return MICROS_PER_UNIT // 2 + stream.randint(1, MICROS_PER_UNIT // 10)


def _geometric_sum(gamma: Fraction, m: int,
                   above: Optional[tuple[int, int, int]]) -> tuple[int, int, int]:
    """sum(gamma^(i-1), i=1..m) as (numerator, denominator, p^(m-1)), the
    sum over q^(m-1), where gamma = p/q.  From size m + 1's triple it takes
    three exact divisions; otherwise the numerator is the closed form
    (q^m - p^m) / (q - p), or m at gamma 1."""
    p, q = gamma.numerator, gamma.denominator
    if above is not None:
        num, den, power = above
        return (num - power) // q, den // q, power // p
    if p == q:
        return m, 1, 1
    power, den = p ** (m - 1), q ** (m - 1)
    return (q * den - p * power) // (q - p), den, power


def _draw_schedule(
    stream: random.Random,
    bidder_id: str,
    capacity: int,
    law: GenerationLaw,
    sums: dict[int, tuple[int, int, int]],
) -> BidSchedule:
    available = stream.randint(1, capacity)
    for _ in range(MAX_DRAW_ATTEMPTS):
        cost = draw_cost_micros(stream, law.cost_law)
        # Micro-rounding can flatten sub-micro marginals for tiny costs, so
        # sizes are rounded from the largest down and a draw is redrawn at
        # its first flat step, most often the last, the smallest marginal.
        # A size's sum is built the first time a draw of the batch reads it,
        # from the size above when that one is built.
        series = []
        for m in range(available, 0, -1):
            if m not in sums:
                sums[m] = _geometric_sum(law.gamma, m, sums.get(m + 1))
            num, den, _ = sums[m]
            price = round_half_up(cost * num, den)
            if series and price >= series[-1]:
                break
            series.append(price)
        else:
            if schedule := BidSchedule._of_series(bidder_id, available, tuple(series[::-1]), True):
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
            raise InvalidLaw(
                f"case {_shown(case, str)} outside a batch of {self.case_count} case(s)"
            )
        check_request(self.capacity, service, requested_seats)
        return AuctionInstance(
            capacity=self.capacity,
            requested_seats=requested_seats,
            service=service,
            bids=self.cases[case],
        )

    def head(self, bidders: int) -> "ScenarioBatch":
        """Every case cut to its first ``bidders`` schedules: the batch
        ``generate_batch`` draws at that size, since streams are keyed by
        (case, bidder) only."""
        if not (_is_int(bidders) and 1 <= bidders <= self.bidder_count):
            raise InvalidLaw(
                f"head({_shown(bidders, str)}) outside a batch of {self.bidder_count} bidder(s)"
            )
        return replace(self, cases=tuple(schedules[:bidders] for schedules in self.cases))

    def case_label(self, case: int) -> str:
        return (
            f"seed={self.law.seed} law={self.law.cost_law.value} "
            f"gamma={self.law.gamma} K={self.bidder_count} case={self.first_case + case}"
        )

    def digest(self) -> str:
        h = hashlib.sha256()
        for schedules in self.cases:
            for s in schedules:
                prices = ",".join(f"{m}:{micros}" for m, micros in enumerate(s._series, 1))
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
    if capacity >= INT_BOUND:
        raise _past("capacity")
    if not (_is_int(first_case) and first_case >= 0):
        raise InvalidLaw(f"first_case must be an int of at least 0, got {_shown(first_case)}")
    sums: dict[int, tuple[int, int, int]] = {}
    ids = [f"b{j:04d}" for j in range(bidders)]
    stream = random.Random(0)  # any seed: every stream below reseeds it
    out = []
    for case in range(first_case, first_case + cases):
        schedules = []
        for j, bidder_id in enumerate(ids):
            stream.seed(_stream_key(law.seed, f"case{case:04d}/bidder{j:04d}"))
            schedules.append(_draw_schedule(stream, bidder_id, capacity, law, sums))
        out.append(tuple(schedules))
    return ScenarioBatch(law=law, capacity=capacity, cases=tuple(out), first_case=first_case)
