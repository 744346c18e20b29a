"""Plain-text instance documents (version header ``avauction-instance v1``).

Layout, one field per line, ``#`` comments and blank lines ignored:

    avauction-instance v1
    capacity 5
    requested_seats 3
    service splittable
    bidder A available 5 prices 1:0.400000 2:0.700000 3:0.900000
    bidder B available 3 concave prices 1:0.300000 2:0.550000 3:0.780000

Parsing checks the syntax and the bidder-id token, so a bad id is a parse
error, and builds each schedule, which checks its prices (see
``core.BidSchedule``); ``core.bid_series``, the one check of an instance,
checks what depends on the instance, and validating, solving or charging
the result makes it.  Unknown versions are rejected.  A number past the
bound (``core.INT_BOUND``) raises PastBound, a validation error, where it
is read (a field's after every line), so every instance
``validate_instance`` accepts parses back from its text.  A line whose
schedule cannot be built does not stop the parse: every syntax error comes
first, and the line's validation error is raised where ``bid_series``
would reach it, after the fields and after the id and availability checks
of that bid and of every bid before it.

The parse is one pass over the document's lines, its line breaks those of
``str.splitlines``.  One ``findall`` reads every line; a bidder line as the
serializer writes it (single spaces and none around it, ASCII digits,
sizes of at most 4 digits, prices of at most ``WHOLE_DIGITS`` whole digits
and exactly six fractional ones) also yields its fields, and every such
line's prices are read with one join, ``split`` and ``map(int)``.  Such a
line whose sizes are 1..available in order, and whose series the price
rule accepts, becomes a schedule with no second check.  Every other line,
and every bidder line the batch does not take, is read by the token
grammar, with its own line number: it raises every parse error, and each
of its schedules is built by the checking constructor.  So an edited line
costs only its own token parse.
"""

from __future__ import annotations

import re
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Optional, Union

from .core import (
    BIDDER_ID_RE, WHOLE_DIGITS, AuctionError, AuctionInstance, BidSchedule, Money, PastBound,
    ServiceType, ValidationError, _integer, bid_series, micros_to_decimal, money_from_decimal,
)

FORMAT_NAME = "avauction-instance"
FORMAT_VERSION = "v1"

# One line of a document whose only line break is "\n": the whole line and,
# for a bidder line as the serializer writes it, its id, availability,
# concave flag and price items.  A price has at most WHOLE_DIGITS whole
# digits, so the regex keeps it below the bound and its one ``int`` reads at
# most 200 digits, below any int-string limit.  Any other line matches
# ``.*``: a bidder line with other blanks is read by tokens.
_LINE = re.compile(
    rf"^(bidder ({BIDDER_ID_RE.pattern}) available ([0-9]{{1,4}})( concave)? prices"
    rf"((?: [0-9]{{1,4}}:[0-9]{{1,{WHOLE_DIGITS}}}\.[0-9]{{6}})*)|.*)$",
    re.M,
)
# The size texts the serializer writes, "1" to "1000"; a line of more sizes
# is left to the token grammar.
_SIZES = [str(size) for size in range(1, 1001)]


class ParseError(AuctionError):
    pass


def parse_instance(text: str) -> AuctionInstance:
    # Each line is one row, so line n is row n - 1.
    rows = _LINE.findall("\n".join(text.splitlines()))
    runs = "".join(map(itemgetter(4), rows)).replace(".", "").replace(":", " ").split()
    sizes, micros = runs[::2], tuple(map(int, runs[1::2]))
    # A line with no tokens is blank, and one whose first token starts with
    # '#' is a comment.
    lines = enumerate(rows, start=1)
    for n, row in lines:
        parts = row[0].split()
        if parts and not parts[0].startswith("#"):
            break
    else:
        raise ParseError("empty document")
    if parts[0] != FORMAT_NAME:
        raise ParseError(f"line {n}: expected '{FORMAT_NAME} {FORMAT_VERSION}' header")
    if len(parts) != 2 or parts[1] != FORMAT_VERSION:
        raise ParseError(f"line {n}: unsupported version {' '.join(parts[1:])!r}")
    fields: dict[str, str] = {}
    bids: list[BidSchedule] = []
    # The first bidder line whose schedule cannot be built: its place among
    # the bids, a stand-in with its id and availability, and its error.
    held: Optional[tuple[int, BidSchedule, ValidationError]] = None
    end = 0
    for n, (line, bidder_id, available, concave, items) in lines:
        if bidder_id:
            # A written line's prices are micros[start:end], taken or not.
            start, top = end, int(available)
            end += items.count(":")
            if end - start == top and sizes[start:end] == _SIZES[:top]:
                schedule = BidSchedule._of_series(bidder_id, top, micros[start:end], concave != "")
                if schedule is not None:
                    bids.append(schedule)
                    continue
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0] == "bidder":
            bidder_id, available, prices, concave = _parse_bidder(n, tokens)
            try:
                bids.append(BidSchedule(bidder_id, available, prices, concave))
            except ValidationError as exc:
                if held is None:
                    held = len(bids), BidSchedule._of_series(bidder_id, available, (), concave), exc
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
        capacity = _integer(fields["capacity"], "capacity")
        requested = _integer(fields["requested_seats"], "requested_seats")
    except ValueError:
        raise ParseError("capacity and requested_seats must be integers") from None
    try:
        service = ServiceType.from_token(fields["service"])
    except ValidationError as exc:
        raise ParseError(str(exc)) from None
    instance = AuctionInstance(
        capacity=capacity,
        requested_seats=requested,
        service=service,
        bids=tuple(bids),
    )
    if held is not None:
        # Raise the line's error where ``bid_series`` would reach it: after
        # the fields, and after the checks of the bids before it and of its
        # own id and availability, which the stand-in carries.
        index, stand_in, error = held
        bid_series(AuctionInstance(capacity, requested, service, (*bids[:index], stand_in)))
        raise error
    return instance


def _parse_bidder(n: int, tokens: list[str]) -> tuple[str, int, dict[int, Money], bool]:
    """The id, availability, prices and concave flag of a bidder line, or
    a ParseError; the schedule is built, and checked, by the caller."""
    # bidder <id> available <int> [concave] prices <size>:<decimal> ...
    try:
        bidder_id = tokens[1]
        if not BIDDER_ID_RE.fullmatch(bidder_id):
            raise ParseError(f"line {n}: bad bidder id {bidder_id!r}")
        if tokens[2] != "available":
            raise ParseError(f"line {n}: expected 'available' after bidder id")
        available = _integer(tokens[3], "available_seats")
        rest = tokens[4:]
        concave = False
        if rest and rest[0] == "concave":
            concave = True
            rest = rest[1:]
        if not rest or rest[0] != "prices":
            raise ParseError(f"line {n}: expected 'prices' section")
        prices: dict[int, Money] = {}
        for item in rest[1:]:
            size_text, _, price_text = item.partition(":")
            size = _integer(size_text, "size")
            if size in prices:
                raise ParseError(f"line {n}: duplicate price for size {size}")
            prices[size] = money_from_decimal(price_text)
    except ParseError:
        raise
    except PastBound as exc:
        raise PastBound(f"line {n}: {exc}") from None
    except (IndexError, ValueError, ValidationError) as exc:
        raise ParseError(f"line {n}: malformed bidder record ({exc})") from None
    return bidder_id, available, prices, concave


def serialize_instance(instance: AuctionInstance, comments: Iterable[str] = ()) -> str:
    lines = [f"{FORMAT_NAME} {FORMAT_VERSION}"]
    lines.extend(f"# {comment}" for comment in comments)
    lines.append(f"capacity {instance.capacity}")
    lines.append(f"requested_seats {instance.requested_seats}")
    lines.append(f"service {instance.service.value}")
    for sched in instance.bids:
        shown = "".join([f" {m}:{micros_to_decimal(p)}" for m, p in enumerate(sched._series, 1)])
        lines.append(
            f"bidder {sched.bidder_id} available {sched.available_seats}"
            f"{' concave' if sched.concave else ''} prices{shown}"
        )
    return "\n".join(lines) + "\n"


def read_instance(path: Union[str, Path]) -> AuctionInstance:
    return parse_instance(Path(path).read_text())


def write_instance(
    path: Union[str, Path], instance: AuctionInstance, comments: Iterable[str] = ()
) -> None:
    Path(path).write_text(serialize_instance(instance, comments))
