"""Domain types, validation, and exact money arithmetic for the seat auction.

Prices are kept as integer micro-units (10^-6 currency units) end to end so
that charge identities and tie-breaks can be checked with exact equality
instead of float tolerances.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass, field
from enum import Enum
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Union

MICROS_PER_UNIT = 10**6


class AuctionError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(AuctionError):
    """An instance or money value violates a structural invariant."""


class SeatBoundViolation(ValidationError):
    pass


class NonMonotonePrices(ValidationError):
    pass


class NonConcavePrices(ValidationError):
    pass


class MissingPrice(ValidationError):
    pass


class DuplicateBidder(ValidationError):
    pass


class OversizedCombination(ValidationError):
    pass


class PrecisionLoss(ValidationError):
    pass


class NegativeAmount(ValidationError):
    pass


class OversizedRatio(ValidationError):
    pass


class UnknownBidder(AuctionError):
    pass


def round_half_up(numerator: Union[int, Fraction], denominator: int = 1) -> int:
    """Round the non-negative ratio numerator / denominator to the nearest
    integer, ties upward; ``numerator`` may itself be a Fraction."""
    return (2 * numerator + denominator) // (2 * denominator)


# A decimal text's exponent as Fraction reads it, after the text's last "e".
_EXPONENT_RE = re.compile(r"(.*)[eE]([-+]?\d+(?:_\d+)*)(\s*)", re.DOTALL)
_DIGIT_RE = re.compile(r"\d")


def as_fraction(
    value: Union[Fraction, int, str, float], max_digits: Optional[int] = None
) -> Fraction:
    """Coerce a ratio-like value to an exact Fraction, or raise ValidationError.

    Floats are interpreted through their shortest decimal repr, so 0.1 means
    exactly 1/10 rather than the nearest binary double.  With ``max_digits``,
    a ratio with more digits in either term raises OversizedRatio; a text
    scaled by 10^X does so before 10^X is built (seconds at X = 10^7) when
    |X| > len(text) + max_digits, as a nonzero mantissa's terms are below
    10^len(text).
    """
    try:
        match = max_digits is not None and isinstance(value, str) and _EXPONENT_RE.fullmatch(value)
        if match:  # zeroing the exponent's digits keeps the text well formed or not
            mantissa = Fraction(match[1] + "e" + _DIGIT_RE.sub("0", match[2]) + match[3])
            if not mantissa:
                return mantissa
            if abs(int(match[2])) > len(value) + max_digits:
                raise OversizedRatio(f"a ratio of more than {max_digits} digits")
        ratio = Fraction(str(value) if isinstance(value, float) else value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValidationError(f"not a ratio: {value!r}") from None
    if max_digits is not None and max(abs(ratio.numerator), ratio.denominator) >= 10**max_digits:
        raise OversizedRatio(f"a ratio of more than {max_digits} digits")
    return ratio


# The bidder ids the instance text format can carry: one whitespace-free token.
BIDDER_ID_RE = re.compile(r"[A-Za-z0-9_.-]+")


@dataclass(frozen=True, order=True, slots=True)
class Money:
    """A non-negative amount in integer micro-units; bids and charges are
    non-negative by assumption, so a negative amount raises."""

    micros: int

    def __post_init__(self) -> None:
        if isinstance(self.micros, bool) or not isinstance(self.micros, int):
            raise ValidationError(f"micros must be int, got {type(self.micros).__name__}")
        if self.micros < 0:
            raise NegativeAmount(f"negative amount: {self.micros} micros")

    def to_decimal(self) -> str:
        """Render with exactly six fractional digits (lossless round trip)."""
        return micros_to_decimal(self.micros)

    def __str__(self) -> str:
        return self.to_decimal()


# ``str`` refuses an int of more than ``sys.get_int_max_str_digits()``
# digits (4300 unless set, never below 640), so a longer whole part is
# rendered in blocks of this many digits.
_BLOCK_DIGITS = 600
_BLOCK = 10**_BLOCK_DIGITS


def micros_to_decimal(micros: int) -> str:
    """The one money renderer: non-negative micros with exactly six
    fractional digits, exact at any size."""
    whole, frac = divmod(micros, MICROS_PER_UNIT)
    blocks = []
    while whole >= _BLOCK:
        whole, block = divmod(whole, _BLOCK)
        blocks.append(f"{block:0{_BLOCK_DIGITS}d}")
    return f"{whole}{''.join(reversed(blocks))}.{frac:06d}"


def micros_from_decimal(text: str) -> int:
    """The one money grammar: a non-negative decimal string with at most 6
    fractional digits, in micros.

    The grammar is digits with an optional fraction (``12``, ``12.``,
    ``12.5``) or a bare fraction (``.5``); a digit is any character
    ``str.isdecimal`` accepts, which is exactly the set the regex ``\\d``
    accepts.  The whole and fractional digits go through ``int`` apart, so
    only a whole part too long for ``int`` raises its ValueError.
    """
    text = text.strip()
    whole, _, frac = text.partition(".")
    if (whole.isdecimal() or not whole and frac) and (not frac or frac.isdecimal()):
        if len(frac) > 6:
            raise PrecisionLoss(f"{text!r} has more than 6 fractional digits")
        return int(whole or "0") * MICROS_PER_UNIT + int(frac.ljust(6, "0"))
    if text.startswith("-"):
        raise NegativeAmount(f"negative money literal {text!r}")
    raise ValidationError(f"not a decimal money literal: {text!r}")


def money_from_decimal(text: str) -> Money:
    """``micros_from_decimal``'s amount as Money."""
    return Money(micros_from_decimal(text))


class ServiceType(Enum):
    """The three ways a seat request may be fulfilled."""

    SPLITTABLE = "splittable"
    NON_SPLITTABLE = "nonsplittable"
    PRIVATE = "private"

    @classmethod
    def from_token(cls, token: str) -> "ServiceType":
        try:
            return cls(token.strip().lower())
        except ValueError:
            raise ValidationError(f"unknown service type {token!r}") from None


@dataclass(frozen=True, slots=True)
class _NotMoney:
    """A price given to ``BidSchedule`` that is not Money, kept as given
    for ``price_series`` to reject."""

    value: object


@dataclass(slots=True, init=False)
class BidSchedule:
    """One bidder's price for each offerable seat-combination size.

    ``prices`` maps sizes 1..min(available_seats, capacity) to Money; sizes a
    bidder cannot offer are absent rather than priced with sentinels.  The
    same shape doubles as a valuation schedule when it holds true valuations.
    A schedule keeps its prices as int micros, ``_micros``, which the
    package's readers read directly, and ``prices`` is a read-only Money
    view derived from them.  Built from a mapping, it keeps a copy (a price
    that is not Money is kept for ``price_series`` to reject); the parser,
    the generator and ``perturb_bids`` hand over an int mapping of their own
    instead (``_of_micros``), which nothing writes again.  So a schedule
    never changes once built; ``price_series`` relies on that to check each
    schedule once and keep the series it checked.
    """

    bidder_id: str
    available_seats: int
    _micros: Mapping[int, int]
    concave: bool = False
    # The series ``price_series`` returned once every check passed.
    _series: Optional[tuple[int, ...]] = field(default=None, repr=False, compare=False)

    def __init__(self, bidder_id: str, available_seats: int, prices: Mapping[int, Money],
                 concave: bool = False) -> None:
        micros = {
            size: price.micros if isinstance(price, Money) else _NotMoney(price)
            for size, price in dict(prices).items()
        }
        self._fill(bidder_id, available_seats, micros, concave)

    @classmethod
    def _of_micros(cls, bidder_id: str, available_seats: int, micros: dict[int, int],
                   concave: bool) -> "BidSchedule":
        """A schedule that keeps ``micros``, sizes to int micros, without a
        copy: the caller hands it over and never writes it again."""
        schedule = object.__new__(cls)
        schedule._fill(bidder_id, available_seats, micros, concave)
        return schedule

    def _fill(self, bidder_id, available_seats, micros, concave) -> None:
        put = object.__setattr__
        put(self, "bidder_id", bidder_id)
        put(self, "available_seats", available_seats)
        put(self, "_micros", micros)
        put(self, "concave", concave)
        put(self, "_series", None)

    # Frozen by hand: a frozen dataclass with slots raises TypeError, not
    # FrozenInstanceError, on assigning a name that is not a field, such as
    # the ``prices`` property (CPython 3.10 to 3.13).
    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def prices(self) -> Mapping[int, Money]:
        """Each size's price as Money, a read-only view built on each read."""
        return MappingProxyType({
            size: Money(micros) if type(micros) is int else micros.value
            for size, micros in self._micros.items()
        })


@dataclass(frozen=True)
class AuctionInstance:
    """A single pricing problem: capacity, request, service, and all bids."""

    capacity: int
    requested_seats: int
    service: ServiceType
    bids: tuple[BidSchedule, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bids", tuple(self.bids))

    def bidder_ids(self) -> tuple[str, ...]:
        return tuple(b.bidder_id for b in self.bids)

    def with_service(self, service: ServiceType) -> "AuctionInstance":
        return AuctionInstance(self.capacity, self.requested_seats, service, self.bids)

    def without_bidder(self, bidder_id: str) -> "AuctionInstance":
        """The instance with every bid of ``bidder_id`` removed."""
        bids = tuple(b for b in self.bids if b.bidder_id != bidder_id)
        if len(bids) == len(self.bids):
            raise UnknownBidder(bidder_id)
        return AuctionInstance(
            capacity=self.capacity,
            requested_seats=self.requested_seats,
            service=self.service,
            bids=bids,
        )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _bad_id(who) -> ValidationError:
    return ValidationError(f"bad bidder id {who!r}: use letters, digits, '_', '.' or '-'")


def price_series(schedule: BidSchedule, capacity: int) -> tuple[int, ...]:
    """The schedule's prices for sizes 1..available_seats, in micros.

    The one check of a schedule, shared by validation, the engine and the
    generator.  One pass raises the first violation of, in order: an id
    that is one token of the text format (so every valid instance survives
    serialisation and parsing), an int availability and a bool concave
    flag, availability within [0, capacity], a price for every size 1..top
    (given as Money, or as int micros by the package's own builders), read
    as ints, strictly increasing prices, every size key an int in 1..top,
    and non-increasing marginals when the schedule is flagged concave.

    A schedule is checked once: the series of a check that passed is kept
    on the schedule and returned by every later call whose capacity is at
    least its availability.  That is exact, because the series depends only
    on the schedule's frozen fields, and availability within the capacity
    is the only check that depends on the call.  Any other call runs the
    full check; a check that fails keeps nothing.
    """
    series = schedule._series
    if series is not None and schedule.available_seats <= capacity:
        return series
    series = _checked_series(schedule, capacity)
    object.__setattr__(schedule, "_series", series)
    return series


def _checked_series(schedule: BidSchedule, capacity: int) -> tuple[int, ...]:
    """``price_series``'s full check, which raises the first violation."""
    who = schedule.bidder_id
    if not (isinstance(who, str) and BIDDER_ID_RE.fullmatch(who)):
        raise _bad_id(who)
    top = schedule.available_seats
    if not _is_int(top) or not isinstance(schedule.concave, bool):
        raise ValidationError(f"bidder {who}: available_seats must be int and concave bool")
    if not (0 <= top <= capacity):
        raise SeatBoundViolation(f"bidder {who}: available_seats {top} outside [0, {capacity}]")
    prices = schedule._micros
    series: list[int] = []
    increasing = concave = True
    prev = step = None
    for m in range(1, top + 1):
        try:
            micros = prices[m]
        except KeyError:
            raise MissingPrice(
                f"bidder {who}: no price for size {m} (must cover 1..{top})"
            ) from None
        if type(micros) is not int:
            raise ValidationError(
                f"bidder {who}: price for size {m} must be Money, got {type(micros.value).__name__}"
            )
        if prev is not None:
            if step is not None and micros - prev > step:
                concave = False
            step = micros - prev
            increasing = increasing and step > 0
        series.append(micros)
        prev = micros
    if not increasing:
        raise NonMonotonePrices(f"bidder {who}: prices must strictly increase with size")
    for size in prices:
        # A key that only equals an int (2.0, True) passed the lookups above.
        if type(size) is not int and not _is_int(size) or not 1 <= size <= top:
            raise OversizedCombination(
                f"bidder {who}: price defined for size {size} outside 1..{top}"
            )
    if schedule.concave and not concave:
        raise NonConcavePrices(f"bidder {who}: flagged concave but marginals increase")
    return tuple(series)


def check_request(capacity: int, service: ServiceType, requested_seats: int) -> None:
    """The one check of a request: int capacity and seats, a ``ServiceType``
    (never a coerced value), a capacity of at least 1 and 1 <= q_r <= capacity."""
    if not (_is_int(capacity) and _is_int(requested_seats)):
        raise ValidationError("capacity and requested_seats must be int")
    if not isinstance(service, ServiceType):
        raise ValidationError(f"service must be a ServiceType, got {service!r}")
    if capacity < 1:
        raise SeatBoundViolation(f"capacity {capacity} must be at least 1")
    if not (1 <= requested_seats <= capacity):
        raise SeatBoundViolation(f"requested_seats {requested_seats} outside [1, {capacity}]")


def check_fields(instance: AuctionInstance) -> None:
    """Check the instance's own fields, not its bids; anything that is not
    an ``AuctionInstance`` is rejected, never coerced."""
    if not isinstance(instance, AuctionInstance):
        raise ValidationError(f"expected an AuctionInstance, got {type(instance).__name__}")
    check_request(instance.capacity, instance.service, instance.requested_seats)


def bid_series(bids: Iterable[BidSchedule], capacity: int) -> dict[str, tuple[int, ...]]:
    """Each bidder's checked price series by id, in the given order: the one
    walk over a case's bids, which raises at the first bid whose id is not a
    string or repeats an earlier one, or whose schedule ``price_series``
    rejects."""
    series: dict[str, tuple[int, ...]] = {}
    for schedule in bids:
        who = schedule.bidder_id
        if not isinstance(who, str):
            raise _bad_id(who)
        if who in series:
            raise DuplicateBidder(who)
        series[who] = price_series(schedule, capacity)
    return series


def validate_instance(instance: AuctionInstance) -> AuctionInstance:
    """Return the instance unchanged, or raise the first ValidationError of
    ``check_fields`` and then ``bid_series``, the checks compiling it makes."""
    check_fields(instance)
    bid_series(instance.bids, instance.capacity)
    return instance
