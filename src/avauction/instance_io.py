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
``core.BidSchedule``); ``validate_instance`` checks what depends on the
instance, and solving or charging the result makes the same checks.
Unknown versions are rejected.  A number past the bound (``core.INT_BOUND``)
raises PastBound, a validation error, where it is read (a field's after
every line), so every instance ``validate_instance`` accepts parses back
from its text.  A line whose schedule cannot be built does not stop the
parse: every syntax error comes first, and the line's validation error is
raised where validating the instance would reach it, after the fields and
after the id and availability checks of that bid and of every bid before
it.

A document written exactly as ``serialize_instance`` writes it is read in
one pass (``_read_written``): one match reads its head, the header, the
``# `` comment lines and the three fields in the serializer's order and
form; one ``findall`` reads its bidder lines (single spaces, ASCII digits,
sizes written 1..available in order, six fractional digits and no digit run
longer than ``WHOLE_DIGITS``); and every price of the document is read
with one join, ``split`` and ``map(int)``.  Each series becomes a schedule
with no second check when the price rule accepts it.  On any miss the
document is split into lines and tokens and read by the general grammar,
which raises every parse error, and each schedule is built by the checking
constructor.
"""

from __future__ import annotations

import re
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Optional, Union

from .core import (
    BIDDER_ID_RE, BOUND_DIGITS, WHOLE_DIGITS, AuctionError, AuctionInstance, BidSchedule, Money,
    PastBound, ServiceType, ValidationError, _integer, bid_series, check_fields,
    micros_to_decimal, money_from_decimal,
)

FORMAT_NAME = "avauction-instance"
FORMAT_VERSION = "v1"

# A document as the serializer writes it.  Its head: a comment holds no
# character ``str.splitlines`` breaks on, and a field at most BOUND_DIGITS
# digits, so its ``int`` is within the bound.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_HEAD = re.compile(
    rf"{FORMAT_NAME} {FORMAT_VERSION}\n(?:# [^{_LINE_BREAKS}]*\n)*"
    rf"capacity ([0-9]{{1,{BOUND_DIGITS}}})\nrequested_seats ([0-9]{{1,{BOUND_DIGITS}}})\n"
    rf"service ({'|'.join(service.value for service in ServiceType)})\n"
)
# Its bidder lines, each read whole: a price has at most WHOLE_DIGITS whole
# digits, so the regex keeps it below the bound and its one ``int`` reads at
# most 200 digits, below any int-string limit.
_BIDDER_LINE = re.compile(
    rf"^bidder ({BIDDER_ID_RE.pattern}) available ([0-9]{{1,4}})( concave)? prices"
    rf"((?: [0-9]{{1,4}}:[0-9]{{1,{WHOLE_DIGITS}}}\.[0-9]{{6}})*)$",
    re.M,
)
# The size texts the serializer writes, "1" to "1000"; a document with a
# line of more sizes is left to the token path.
_SIZES = [str(size) for size in range(1, 1001)]


class ParseError(AuctionError):
    pass


def parse_instance(text: str) -> AuctionInstance:
    written = _read_written(text)
    if written is not None:
        return written
    # A line with no tokens is blank, and one whose first token starts with
    # '#' is a comment.
    lines = enumerate(text.splitlines(), start=1)
    for n, line in lines:
        parts = line.split()
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
    for n, line in lines:
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
        # Raise the line's error where validating the instance would reach
        # it: after the fields, and after the checks of the bids before it
        # and of its own id and availability, which the stand-in carries.
        index, stand_in, error = held
        check_fields(instance)
        bid_series((*bids[:index], stand_in), capacity)
        raise error
    return instance


def _read_written(text: str) -> Optional[AuctionInstance]:
    """The instance of a document written as the serializer writes it, or
    None on any miss: a line not in its form (its last line may lack the
    newline), sizes not written 1..available in order, or a series the
    price rule rejects.  The token path then reads the document, and raises
    what it has."""
    head = _HEAD.match(text)
    if head is None:
        return None
    rest = text[head.end():]
    if rest[-1:] not in ("", "\n"):
        rest += "\n"
    # Anchored and newline-free, each match is one whole line of the rest.
    rows = _BIDDER_LINE.findall(rest)
    if len(rows) != rest.count("\n"):
        return None
    runs = "".join(map(itemgetter(3), rows)).replace(".", "").replace(":", " ").split()
    sizes, prices = runs[::2], tuple(map(int, runs[1::2]))
    bids = []
    end = 0
    for bidder_id, available, concave, items in rows:
        start, top = end, int(available)
        end += top
        if items.count(":") != top or sizes[start:end] != _SIZES[:top]:
            return None
        schedule = BidSchedule._of_series(bidder_id, top, prices[start:end], concave != "")
        if schedule is None:
            return None
        bids.append(schedule)
    capacity, requested, service = head.groups()
    return AuctionInstance(int(capacity), int(requested), ServiceType(service), tuple(bids))


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
