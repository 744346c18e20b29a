"""Domain types, validation, and exact money arithmetic for the seat auction.

Prices are kept as integer micro-units (10^-6 currency units) end to end so
that charge identities and tie-breaks can be checked with exact equality
instead of float tolerances.  A bid schedule is checked when it is built and
holds its prices as one tuple of micros; validating an instance adds only the
checks that depend on it, in one check, ``bid_series``.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Optional, Sequence, Union

MICROS_PER_UNIT = 10**6

# Every int a valid instance holds (capacity, requested seats, availability
# and each price in micros) lies strictly within INT_BOUND, so every total,
# pivotal value, charge (at most q_r winners, each charged below 10**400)
# and study ratio stays below MONEY_BOUND, which Money keeps: fewer than 640
# digits, the lowest int-string limit Python allows, so plain ``str`` and
# ``int`` are exact.  A value past a bound raises PastBound, never shown.
BOUND_DIGITS = 200
INT_BOUND = 10**BOUND_DIGITS
MONEY_BOUND = 10**600
WHOLE_DIGITS = BOUND_DIGITS - 6  # the most whole digits of a price below the bound


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


class PastBound(ValidationError):
    """An int or amount lies past its bound (``INT_BOUND``, ``MONEY_BOUND``)."""


class UnknownBidder(AuctionError):
    pass


def _past(what: str) -> PastBound:
    return PastBound(f"{what} past the bound 10**{BOUND_DIGITS}")


# A text int as ``int`` reads it: blanks (not \x1c-\x1f, which ``int`` refuses)
# around one optional sign and digits with single ``_`` between them.
_INT_RE = re.compile(r"[^\S\x1c-\x1f]*[-+]?(\d+(?:_\d+)*)[^\S\x1c-\x1f]*")


def _integer(text: str, what: str) -> int:
    """The one reader of a text int, for the parser and the command line:
    ``int(text)``, or PastBound for (signed) digits past the bound, however
    many, before ``int`` reads them.  Blanks around the number and ``_``
    between its digits count as the digits they hold: ``" 1_0"`` is 10."""
    match = len(text) > BOUND_DIGITS and _INT_RE.fullmatch(text)
    if match:
        digits = match[1].replace("_", "")
        if len(digits) > BOUND_DIGITS and any(map(int, digits[:-BOUND_DIGITS])):
            raise _past(what)
    return int(text)


def _shown(value: object, form=repr) -> str:
    """``form(value)`` for a message, or, for an int past the bound, only that."""
    if isinstance(value, int) and not -INT_BOUND < value < INT_BOUND:
        return "an int past the bound"
    return form(value)


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
        if not -MONEY_BOUND < self.micros < MONEY_BOUND:
            raise PastBound("an amount, in micros, past the bound 10**600")
        if self.micros < 0:
            raise NegativeAmount(f"negative amount: {self.micros} micros")

    def to_decimal(self) -> str:
        """Render with exactly six fractional digits (lossless round trip)."""
        return micros_to_decimal(self.micros)

    def __str__(self) -> str:
        return self.to_decimal()


def micros_to_decimal(micros: int) -> str:
    """The one money renderer: non-negative micros below ``MONEY_BOUND``
    with exactly six fractional digits."""
    whole, frac = divmod(micros, MICROS_PER_UNIT)
    return f"{whole}.{frac:06d}"


def micros_from_decimal(text: str) -> int:
    """The one money grammar: a non-negative decimal string with at most 6
    fractional digits, in micros.

    The grammar is digits with an optional fraction (``12``, ``12.``,
    ``12.5``) or a bare fraction (``.5``); a digit is any character
    ``str.isdecimal`` accepts, which is exactly the set the regex ``\\d``
    accepts.  A literal is a price: one of more than ``WHOLE_DIGITS``
    significant whole digits is past the bound (PastBound).  The whole and
    fractional digits go through ``int`` apart, so only a whole part padded
    with zeros past the digits ``int`` reads raises its ValueError.  (The
    parser reads the prices of a bidder line in the serializer's own form
    without this grammar; see ``instance_io``.)
    """
    text = text.strip()
    whole, _, frac = text.partition(".")
    if (whole.isdecimal() or not whole and frac) and (not frac or frac.isdecimal()):
        if len(whole) > WHOLE_DIGITS and any(map(int, whole[:-WHOLE_DIGITS])):
            raise _past("price, in micros,")
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


@dataclass(slots=True, init=False, repr=False)
class BidSchedule:
    """One bidder's price for each offerable seat-combination size.

    A schedule is its bidder id, its availability, its concave flag and its
    series: the int micros of sizes 1..available_seats, checked when the
    schedule is built.  Building one from a mapping of sizes to Money raises
    the first violation of, in order: an id that is one token of the text
    format, an int availability and a bool concave flag, an availability
    within the bound, a Money price for every size 1..available_seats,
    strictly increasing prices, a last (so largest) price below the bound,
    every size key an int in 1..available_seats, and non-increasing
    marginals when flagged concave; so every valid instance survives
    serialisation and parsing.  Availability within the vehicle's capacity
    is the one check left to each instance (``bid_series``).  ``prices`` is
    a read-only Money view of the series; a schedule doubles as a valuation.

    The parser, the generator and ``perturb_bids`` build their schedules
    from a series with ``_of_series``, which applies the price rule
    (``_plain_series``) and no other check; so do ``pickle`` and ``copy``,
    through ``__reduce__``.  A schedule never changes once built, so a case
    shares its series as its rows.
    """

    bidder_id: str
    available_seats: int
    concave: bool
    _series: tuple[int, ...]

    def __init__(self, bidder_id: str, available_seats: int, prices: Mapping[int, Money],
                 concave: bool = False) -> None:
        prices = dict(prices)
        who, top = bidder_id, available_seats
        if not (isinstance(who, str) and BIDDER_ID_RE.fullmatch(who)):
            raise ValidationError(f"bad bidder id {who!r}: use letters, digits, '_', '.' or '-'")
        if not _is_int(top) or not isinstance(concave, bool):
            raise ValidationError(f"bidder {who}: available_seats must be int and concave bool")
        if not -INT_BOUND < top < INT_BOUND:
            raise _past(f"bidder {who}: available_seats")
        series: list[int] = []
        for m in range(1, top + 1):
            try:
                price = prices[m]
            except KeyError:
                raise MissingPrice(
                    f"bidder {who}: no price for size {m} (must cover 1..{top})"
                ) from None
            if not isinstance(price, Money):
                raise ValidationError(
                    f"bidder {who}: price for size {m} must be Money, got {type(price).__name__}"
                )
            series.append(price.micros)
        if not _plain_series(series, False):
            raise NonMonotonePrices(f"bidder {who}: prices must strictly increase with size")
        if series and series[-1] >= INT_BOUND:  # the last price is the largest
            raise _past(f"bidder {who}: price of size {top}, in micros,")
        for size in prices:
            # A key that only equals an int (2.0, True) passed the lookups above.
            if type(size) is not int and not _is_int(size) or not 1 <= size <= top:
                raise OversizedCombination(
                    f"bidder {who}: price defined for size {_shown(size, str)} outside 1..{top}"
                )
        if concave and not _plain_series(series, True):
            raise NonConcavePrices(f"bidder {who}: flagged concave but marginals increase")
        _SET_ID(self, who)
        _SET_AVAILABLE(self, top)
        _SET_CONCAVE(self, concave)
        _SET_SERIES(self, tuple(series))

    @classmethod
    def _of_series(cls, bidder_id: str, available_seats: int, series: tuple[int, ...],
                   concave: bool) -> Optional["BidSchedule"]:
        """The schedule of a series of sizes 1..available_seats, or None when
        the price rule rejects the series with the concave flag.  The caller
        makes the constructor's other checks: a token id, an int
        availability, a bool flag and prices within the bound."""
        if not _plain_series(series, concave):
            return None
        schedule = object.__new__(cls)
        _SET_ID(schedule, bidder_id)
        _SET_AVAILABLE(schedule, available_seats)
        _SET_CONCAVE(schedule, concave)
        _SET_SERIES(schedule, series)
        return schedule

    # Frozen by hand: a frozen dataclass with slots raises TypeError, not
    # FrozenInstanceError, on assigning a name that is not a field, such as
    # the ``prices`` property (CPython 3.10 to 3.13).
    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return BidSchedule._of_series, (
            self.bidder_id, self.available_seats, self._series, self.concave
        )

    def __repr__(self) -> str:
        prices = ", ".join(f"{m}: {Money(micros)!r}" for m, micros in enumerate(self._series, 1))
        return (f"BidSchedule(bidder_id={self.bidder_id!r}, "
                f"available_seats={self.available_seats}, "
                f"prices={{{prices}}}, concave={self.concave!r})")

    @property
    def prices(self) -> Mapping[int, Money]:
        """Each size's price as Money, a read-only view built on each read."""
        return MappingProxyType({m: Money(micros) for m, micros in enumerate(self._series, 1)})


# The slots' own setters, which the hand-written ``__setattr__`` bypasses.
_SET_ID, _SET_AVAILABLE, _SET_CONCAVE, _SET_SERIES = (
    BidSchedule.__dict__[name].__set__
    for name in ("bidder_id", "available_seats", "concave", "_series")
)


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


def _plain_series(series: Sequence[int], concave: bool) -> bool:
    """The price rule, written once: whether the int prices of ``series``
    strictly increase and, when ``concave``, their marginals never increase.
    ``BidSchedule`` raises on it, and ``BidSchedule._of_series`` returns
    None on it."""
    prev = gap = None
    for price in series:
        if prev is not None:
            step = price - prev
            if step <= 0 or concave and gap is not None and step > gap:
                return False
            gap = step
        prev = price
    return True


def check_request(capacity: int, service: ServiceType, requested_seats: int) -> None:
    """The one check of a request: int capacity and seats, a ``ServiceType``
    (never a coerced value), both ints within the bound, a capacity of at
    least 1 and 1 <= q_r <= capacity."""
    if not (_is_int(capacity) and _is_int(requested_seats)):
        raise ValidationError("capacity and requested_seats must be int")
    if not isinstance(service, ServiceType):
        raise ValidationError(f"service must be a ServiceType, got {service!r}")
    if not -INT_BOUND < capacity < INT_BOUND:
        raise _past("capacity")
    if not -INT_BOUND < requested_seats < INT_BOUND:
        raise _past("requested_seats")
    if capacity < 1:
        raise SeatBoundViolation(f"capacity {capacity} must be at least 1")
    if not (1 <= requested_seats <= capacity):
        raise SeatBoundViolation(f"requested_seats {requested_seats} outside [1, {capacity}]")


def bid_series(instance: AuctionInstance) -> dict[str, tuple[int, ...]]:
    """The one check of an instance, which gives each bidder's price series
    by id, in the given order.  Anything that is not an ``AuctionInstance``
    is rejected, never coerced; then the request is checked
    (``check_request``); then one walk over the bids raises at the first
    bid that is not a ``BidSchedule``, whose id repeats an earlier one, or
    whose availability lies outside [0, capacity]; every other check was
    made when the schedule was built."""
    if not isinstance(instance, AuctionInstance):
        raise ValidationError(f"expected an AuctionInstance, got {type(instance).__name__}")
    capacity = instance.capacity
    check_request(capacity, instance.service, instance.requested_seats)
    series: dict[str, tuple[int, ...]] = {}
    for schedule in instance.bids:
        if not isinstance(schedule, BidSchedule):
            raise ValidationError(f"each bid must be a BidSchedule, got {type(schedule).__name__}")
        who = schedule.bidder_id
        if who in series:
            raise DuplicateBidder(who)
        top = schedule.available_seats
        if not 0 <= top <= capacity:
            raise SeatBoundViolation(
                f"bidder {who}: available_seats {top} outside [0, {capacity}]"
            )
        series[who] = schedule._series
    return series


def validate_instance(instance: AuctionInstance) -> AuctionInstance:
    """Return the instance unchanged, or raise the first ValidationError of
    ``bid_series``, the one check compiling it makes (each schedule was
    checked when it was built)."""
    bid_series(instance)
    return instance
