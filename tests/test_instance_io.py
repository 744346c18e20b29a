import pytest
from hypothesis import given, settings, strategies as st

from avauction import (
    AuctionInstance,
    BidSchedule,
    Money,
    ParseError,
    ServiceType,
    ValidationError,
    parse_instance,
    read_instance,
    serialize_instance,
    validate_instance,
    write_instance,
)
from avauction.core import BIDDER_ID_RE

from conftest import make_instance, sched

E1_DOC = """\
avauction-instance v1
# two bidders, three seats requested
capacity 5
requested_seats 3
service splittable
bidder A available 5 prices 1:0.40 2:0.70 3:0.90 4:1.05 5:1.15
bidder B available 3 prices 1:0.30 2:0.55 3:0.78
"""


def test_parse_known_document():
    inst = parse_instance(E1_DOC)
    assert inst.capacity == 5
    assert inst.requested_seats == 3
    assert inst.service is ServiceType.SPLITTABLE
    assert inst.bidder_ids() == ("A", "B")
    assert inst.schedule("B").prices[3].micros == 780_000
    validate_instance(inst)


def test_round_trip(e2):
    text = serialize_instance(e2, comments=["frozen fixture"])
    assert parse_instance(text) == e2
    assert "# frozen fixture" in text


def test_round_trip_preserves_concave_flag():
    inst = make_instance(
        5, 2, ServiceType.PRIVATE,
        [sched("x-1", 5, {m: f"0.{m}0" for m in range(1, 6)}, concave=True)],
    )
    again = parse_instance(serialize_instance(inst))
    assert again.schedule("x-1").concave
    assert again == inst


def test_unknown_version_rejected():
    with pytest.raises(ParseError, match="version"):
        parse_instance(E1_DOC.replace("v1", "v2"))


def test_missing_header_rejected():
    with pytest.raises(ParseError):
        parse_instance("capacity 5\nrequested_seats 1\nservice private\n")


@pytest.mark.parametrize(
    "mutation",
    [
        lambda t: t.replace("capacity 5\n", ""),                  # missing field
        lambda t: t.replace("service splittable", "service charter"),
        lambda t: t + "capacity 6\n",                             # duplicate field
        lambda t: t.replace("1:0.40", "1:0.40000001"),            # over-precise money
        lambda t: t.replace("available 5", "available five"),
        lambda t: t + "mystery directive\n",
        lambda t: t.replace("1:0.30", "1:0.30 1:0.31"),           # duplicate size
    ],
)
def test_malformed_documents(mutation):
    with pytest.raises(ParseError):
        parse_instance(mutation(E1_DOC))


def test_parse_is_syntactic_validate_is_semantic():
    # non-monotone prices parse fine and fail validation, not parsing
    text = E1_DOC.replace("2:0.55", "2:0.30")
    inst = parse_instance(text)
    with pytest.raises(Exception):
        validate_instance(inst)


def test_file_round_trip(tmp_path, e1):
    path = tmp_path / "e1.txt"
    write_instance(path, e1, comments=["written by test"])
    assert read_instance(path) == e1


@st.composite
def valid_instances(draw):
    """Instances ``validate_instance`` accepts: ids drawn from the id
    pattern, zero availability, concave curves (flagged) and unflagged ones
    of any shape, and prices beyond 2**62 micros."""
    capacity = draw(st.integers(min_value=1, max_value=6))
    ids = draw(st.lists(st.from_regex(BIDDER_ID_RE, fullmatch=True), max_size=4, unique=True))
    bids = []
    for bidder_id in ids:
        available = draw(st.integers(min_value=0, max_value=capacity))
        level = draw(st.sampled_from([0, 2**62, 10**20]))
        increments = draw(st.lists(st.integers(1, 10**7), min_size=available, max_size=available))
        concave = draw(st.booleans())
        if concave:
            increments.sort(reverse=True)
        prices = {}
        for m, inc in enumerate(increments, start=1):
            level += inc
            prices[m] = Money(level)
        bids.append(BidSchedule(bidder_id, available, prices, concave=concave))
    return validate_instance(
        AuctionInstance(
            capacity=capacity,
            requested_seats=draw(st.integers(min_value=1, max_value=capacity)),
            service=draw(st.sampled_from(list(ServiceType))),
            bids=tuple(bids),
        )
    )


@settings(deadline=None)
@given(valid_instances())
def test_every_valid_instance_round_trips(instance):
    assert validate_instance(parse_instance(serialize_instance(instance))) == instance


@pytest.mark.parametrize("bad_id", ["x y", "", "A\n", "b\u00e9"])
def test_validation_rejects_ids_the_format_cannot_carry(bad_id):
    inst = make_instance(5, 1, ServiceType.SPLITTABLE, [sched(bad_id, 1, {1: "0.10"})])
    with pytest.raises(ValidationError, match="bidder id"):
        validate_instance(inst)
    with pytest.raises(ParseError, match="bidder"):
        parse_instance(serialize_instance(inst))
