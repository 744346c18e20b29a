"""Plain-text instance documents (version header ``avauction-instance v1``).

Layout, one field per line, ``#`` comments and blank lines ignored:

    avauction-instance v1
    capacity 5
    requested_seats 3
    service splittable
    bidder A available 5 prices 1:0.400000 2:0.700000 3:0.900000
    bidder B available 3 concave prices 1:0.300000 2:0.550000 3:0.780000

Parsing checks the syntax and the bidder-id token, so a bad id is a parse
error; ``validate_instance`` checks everything else, and solving or charging
the result makes the same checks.  A bidder line that parses as the plain
valid case keeps its checked series (see ``core.price_series``), so those
checks read it instead of walking the line again.  Unknown versions are
rejected.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Union

from .core import (
    BIDDER_ID_RE,
    AuctionError,
    AuctionInstance,
    BidSchedule,
    ServiceType,
    ValidationError,
    _digits,
    _plain_series,
    micros_from_decimal,
    micros_to_decimal,
)

FORMAT_NAME = "avauction-instance"
FORMAT_VERSION = "v1"


class ParseError(AuctionError):
    pass


def parse_instance(text: str) -> AuctionInstance:
    # Each line is split once, as it is reached; a line with no tokens is
    # blank, and one whose first token starts with '#' is a comment.
    records = (
        (n, tokens)
        for n, tokens in enumerate(map(str.split, text.splitlines()), start=1)
        if tokens and not tokens[0].startswith("#")
    )
    for n, parts in records:
        break
    else:
        raise ParseError("empty document")
    if parts[0] != FORMAT_NAME:
        raise ParseError(f"line {n}: expected '{FORMAT_NAME} {FORMAT_VERSION}' header")
    if len(parts) != 2 or parts[1] != FORMAT_VERSION:
        raise ParseError(f"line {n}: unsupported version {' '.join(parts[1:])!r}")
    fields: dict[str, str] = {}
    bids: list[BidSchedule] = []
    for n, tokens in records:
        if tokens[0] == "bidder":
            bids.append(_parse_bidder(n, tokens))
        elif tokens[0] in ("capacity", "requested_seats", "service"):
            if tokens[0] in fields:
                raise ParseError(f"line {n}: duplicate field {tokens[0]!r}")
            if len(tokens) != 2:
                raise ParseError(f"line {n}: field {tokens[0]!r} takes exactly one value")
            fields[tokens[0]] = tokens[1]
        else:
            raise ParseError(f"line {n}: unknown directive {tokens[0]!r}")
    for required in ("capacity", "requested_seats", "service"):
        if required not in fields:
            raise ParseError(f"missing required field {required!r}")
    try:
        capacity = int(fields["capacity"])
        requested = int(fields["requested_seats"])
    except ValueError:
        raise ParseError("capacity and requested_seats must be integers") from None
    try:
        service = ServiceType.from_token(fields["service"])
    except ValidationError as exc:
        raise ParseError(str(exc)) from None
    return AuctionInstance(
        capacity=capacity,
        requested_seats=requested,
        service=service,
        bids=tuple(bids),
    )


def _parse_bidder(n: int, tokens: list[str]) -> BidSchedule:
    # bidder <id> available <int> [concave] prices <size>:<decimal> ...
    try:
        bidder_id = tokens[1]
        if not BIDDER_ID_RE.fullmatch(bidder_id):
            raise ParseError(f"line {n}: bad bidder id {bidder_id!r}")
        if tokens[2] != "available":
            raise ParseError(f"line {n}: expected 'available' after bidder id")
        available = int(tokens[3])
        rest = tokens[4:]
        concave = False
        if rest and rest[0] == "concave":
            concave = True
            rest = rest[1:]
        if not rest or rest[0] != "prices":
            raise ParseError(f"line {n}: expected 'prices' section")
        prices: dict[int, int] = {}
        # The line is plain (see ``price_series``) when its sizes run 1, 2,
        # ..., available in order and its series passes the price rule.
        in_order = True
        for item in rest[1:]:
            size_text, _, price_text = item.partition(":")
            size = int(size_text)
            if size in prices:
                raise ParseError(f"line {n}: duplicate price for size {size}")
            prices[size] = micros_from_decimal(price_text)
            in_order = in_order and size == len(prices)
    except ParseError:
        raise
    except (IndexError, ValueError, ValidationError) as exc:
        raise ParseError(f"line {n}: malformed bidder record ({exc})") from None
    series = tuple(prices.values())
    if not (in_order and len(series) == available and _plain_series(series, concave)):
        series = None
    return BidSchedule._of_micros(bidder_id, available, prices, concave, series)


def serialize_instance(instance: AuctionInstance, comments: Iterable[str] = ()) -> str:
    lines = [f"{FORMAT_NAME} {FORMAT_VERSION}"]
    lines.extend(f"# {comment}" for comment in comments)
    lines.append(f"capacity {_digits(instance.capacity)}")
    lines.append(f"requested_seats {_digits(instance.requested_seats)}")
    lines.append(f"service {instance.service.value}")
    for sched in instance.bids:
        prices = sched._micros
        shown = "".join([f" {m}:{micros_to_decimal(prices[m])}" for m in sorted(prices)])
        lines.append(
            f"bidder {sched.bidder_id} available {_digits(sched.available_seats)}"
            f"{' concave' if sched.concave else ''} prices{shown}"
        )
    return "\n".join(lines) + "\n"


def read_instance(path: Union[str, Path]) -> AuctionInstance:
    return parse_instance(Path(path).read_text())


def write_instance(
    path: Union[str, Path], instance: AuctionInstance, comments: Iterable[str] = ()
) -> None:
    Path(path).write_text(serialize_instance(instance, comments))
