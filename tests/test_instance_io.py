import re
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from avauction import (
    AuctionInstance,
    BidSchedule,
    CompiledCase,
    DuplicateBidder,
    GenerationLaw,
    Money,
    ParseError,
    SeatBoundViolation,
    ServiceType,
    ValidationError,
    generate_batch,
    parse_instance,
    read_instance,
    serialize_instance,
    validate_instance,
    vcg_charges,
    write_instance,
)
from avauction import instance_io
from avauction.core import (
    BIDDER_ID_RE, BOUND_DIGITS, INT_BOUND, WHOLE_DIGITS, PastBound, micros_to_decimal,
)
from avauction.instance_io import FORMAT_NAME, FORMAT_VERSION

from conftest import (
    failed, make_instance, outcome, regex_money_from_decimal, sched, significant_digits,
)

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
    assert inst.bids[1].prices[3].micros == 780_000
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
    assert again.bids[0].concave
    assert again == inst


def test_fields_at_the_bound_are_written_exactly_and_past_it_refused():
    """A valid instance whose capacity and request are just below the bound
    is written digit for digit and read back; one whose fields are at the
    bound, or have 5000 digits, which ``str`` cannot convert, is refused by
    validation, and so is its text by the parser, where ``int`` once raised
    a parse error on the 5000 digits."""
    inst = validate_instance(make_instance(INT_BOUND - 1, 5 * 10**199, ServiceType.SPLITTABLE,
                                           [sched("A", 1, {1: "1"})]))
    text = serialize_instance(inst)
    assert text.splitlines()[1:3] == ["capacity " + "9" * 200, "requested_seats 5" + "0" * 199]
    assert parse_instance(text) == inst
    for field, value, written in [("capacity", INT_BOUND, "1" + "0" * 200),
                                  ("capacity", -(10**5000), "-1" + "0" * 5000),
                                  ("requested_seats", 10**5000, "1" + "0" * 5000)]:
        past = (PastBound, f"{field} past the bound 10**200")
        fields = {"capacity": inst.capacity, "requested_seats": inst.requested_seats, field: value}
        assert outcome(validate_instance, make_instance(
            fields["capacity"], fields["requested_seats"], ServiceType.SPLITTABLE, inst.bids)) == past
        written_text = re.sub(rf"^{field} .*$", f"{field} {written}", text, flags=re.M)
        assert outcome(parse_instance, written_text) == past


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
    # non-monotone prices are well formed: a validation error, not a parse error
    text = E1_DOC.replace("2:0.55", "2:0.30")
    with pytest.raises(ValidationError):
        validate_instance(parse_instance(text))


def test_file_round_trip(tmp_path, e1):
    path = tmp_path / "e1.txt"
    write_instance(path, e1, comments=["written by test"])
    assert read_instance(path) == e1


@st.composite
def valid_instances(draw, levels=(0, 2**62, 10**20)):
    """Instances ``validate_instance`` accepts: ids drawn from the id
    pattern, zero availability, concave curves (flagged) and unflagged ones
    of any shape, and prices beyond 2**62 micros (from just above one of
    ``levels``)."""
    capacity = draw(st.integers(min_value=1, max_value=6))
    ids = draw(st.lists(st.from_regex(BIDDER_ID_RE, fullmatch=True), max_size=4, unique=True))
    bids = []
    for bidder_id in ids:
        available = draw(st.integers(min_value=0, max_value=capacity))
        level = draw(st.sampled_from(levels))
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


# Levels whose prices have whole parts of 192, 193 and 194 digits, the most
# a price below the bound has, one whose prices cross from 193 to 194
# digits within a schedule, and one just below the bound: the price batch
# takes whole parts of at most 194 digits.
LONG_LEVELS = (10**197, 10**198, 10**199, 10**199 - 2 * 10**7, INT_BOUND - 10**8)


@st.composite
def written_documents(draw):
    """A valid instance's document, long prices included, in which some
    bidder lines of two sizes or more are rewritten as the serializer would
    write a series the price rule rejects: two equal prices, or a concave
    flag on increasing marginals.  Also the instance, when no line was
    rewritten, and whether every line is still valid."""
    instance = draw(valid_instances(levels=(0, 10**20) + LONG_LEVELS))
    lines = serialize_instance(instance).splitlines()
    first = len(lines) - len(instance.bids)
    valid = True
    for i, bid in enumerate(instance.bids):
        series, concave = list(bid._series), bid.concave
        broken = len(series) >= 2 and draw(st.sampled_from(["kept", "equal", "convex"]))
        if broken == "equal":
            series[1] = series[0]
        elif broken == "convex":
            series = [series[0] + m * m for m in range(1, len(series) + 1)]
            concave = True
        if broken and broken != "kept":
            items = "".join(f" {m}:{micros_to_decimal(p)}" for m, p in enumerate(series, 1))
            lines[first + i] = (f"bidder {bid.bidder_id} available {len(series)}"
                                f"{' concave' if concave else ''} prices{items}")
            instance = None
            # two sizes have one marginal, which no concave flag breaks
            valid = valid and broken == "convex" and len(series) == 2
    return "\n".join(lines) + "\n", instance, valid


@settings(deadline=None, max_examples=200)
@given(written_documents())
def test_written_lines_parse_as_the_strip_each_line_parser_reads_them(document):
    """A written document, and the same document with every separator
    doubled, which the token grammar reads line by line, parse as the
    strip-each-line parser reads them, errors included: a line whose
    series the price rule rejects raises what its schedule raises when
    built.  A document of valid lines parses to its instance."""
    text, instance, valid = document
    read = outcome(parse_instance, text)
    assert read == outcome(strip_each_line_parse_instance, text)
    spaced = text.replace(" ", "  ")
    assert outcome(parse_instance, spaced) == outcome(strip_each_line_parse_instance, spaced)
    assert failed(read) is not valid
    if instance is not None:
        assert read == instance
        assert [bid._series for bid in read.bids] == [bid._series for bid in instance.bids]


@pytest.mark.parametrize("bad_id", ["x y", "", "A\n", "b\u00e9"])
def test_validation_rejects_ids_the_format_cannot_carry(bad_id):
    # A schedule is checked when it is built, so its id raises there; the
    # line the serializer would write for it is a parse error.
    with pytest.raises(ValidationError, match="bidder id"):
        sched(bad_id, 1, {1: "0.10"})
    line = f"bidder {bad_id} available 1 prices 1:0.100000\n"
    with pytest.raises(ParseError, match="bidder"):
        parse_instance(serialize_instance(make_instance(5, 1, ServiceType.SPLITTABLE, [])) + line)


def _bounded_int(text: str, what: str) -> int:
    """``int(text)``, after a signed run of digits of more significant
    digits than the bound allows is refused as past it."""
    digits = re.fullmatch(r"[+-]?(\d+)", text)
    if digits and significant_digits(digits[1]) > BOUND_DIGITS:
        raise PastBound(f"{what} past the bound 10**{BOUND_DIGITS}")
    return int(text)


def strip_each_line_parse_instance(text: str) -> AuctionInstance:
    """parse_instance with a strip() per use of a line, and the money
    grammar as a regex: the oracle of the differential below.  A bidder
    line whose schedule cannot be built raises where validating the
    instance would reach it, after every syntax error; a number past the
    bound raises where it is read."""
    lines = [
        (n, line.strip())
        for n, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.strip().startswith("#")
    ]
    if not lines:
        raise ParseError("empty document")
    n, header = lines[0]
    parts = header.split()
    if not parts or parts[0] != FORMAT_NAME:
        raise ParseError(f"line {n}: expected '{FORMAT_NAME} {FORMAT_VERSION}' header")
    if len(parts) != 2 or parts[1] != FORMAT_VERSION:
        raise ParseError(f"line {n}: unsupported version {' '.join(parts[1:])!r}")
    fields, lines_read = {}, []
    for n, line in lines[1:]:
        tokens = line.split()
        if tokens[0] == "bidder":
            lines_read.append(_regex_parse_bidder(n, tokens))
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
        capacity = _bounded_int(fields["capacity"], "capacity")
        requested = _bounded_int(fields["requested_seats"], "requested_seats")
    except ValueError:
        raise ParseError("capacity and requested_seats must be integers") from None
    try:
        service = ServiceType.from_token(fields["service"])
    except ValidationError as exc:
        raise ParseError(str(exc)) from None
    bids = []
    for bidder_id, available, prices, concave in lines_read:
        try:
            bids.append(BidSchedule(bidder_id, available, prices, concave=concave))
        except ValidationError:
            # what the walk raises before it reaches this bid's prices
            validate_instance(AuctionInstance(capacity, requested, service, tuple(bids)))
            if bidder_id in [bid.bidder_id for bid in bids]:
                raise DuplicateBidder(bidder_id) from None
            if not 0 <= available <= capacity:
                raise SeatBoundViolation(
                    f"bidder {bidder_id}: available_seats {available} outside [0, {capacity}]"
                ) from None
            raise
    return AuctionInstance(capacity, requested, service, tuple(bids))


def _regex_parse_bidder(n: int, tokens: list[str]) -> tuple:
    try:
        bidder_id = tokens[1]
        if not BIDDER_ID_RE.fullmatch(bidder_id):
            raise ParseError(f"line {n}: bad bidder id {bidder_id!r}")
        if tokens[2] != "available":
            raise ParseError(f"line {n}: expected 'available' after bidder id")
        available = _bounded_int(tokens[3], "available_seats")
        rest = tokens[4:]
        concave = False
        if rest and rest[0] == "concave":
            concave = True
            rest = rest[1:]
        if not rest or rest[0] != "prices":
            raise ParseError(f"line {n}: expected 'prices' section")
        prices = {}
        for item in rest[1:]:
            size_text, _, price_text = item.partition(":")
            size = _bounded_int(size_text, "size")
            if size in prices:
                raise ParseError(f"line {n}: duplicate price for size {size}")
            prices[size] = regex_money_from_decimal(price_text)
    except ParseError:
        raise
    except PastBound as exc:
        raise PastBound(f"line {n}: {exc}") from None
    except (IndexError, ValueError, ValidationError) as exc:
        raise ParseError(f"line {n}: malformed bidder record ({exc})") from None
    return bidder_id, available, prices, concave


# Characters and tokens that sit on the parser's edges: separators the two
# ways of finding blank lines could treat differently, comment markers,
# signs, non-ASCII digits and the directive words.
FUZZ_PIECES = st.one_of(
    st.text(alphabet="0123456789.:-+_# \t\n\r\x0b\x0c\x1c\x1f\x85 　١", max_size=3),
    st.sampled_from(["bidder", "available", "concave", "prices", "capacity 5", "service",
                     "requested_seats", "# note", "\n\n", "0.1234567", "avauction-instance v1"]),
)


@st.composite
def fuzzed_documents(draw):
    """A valid instance's document with a few pieces spliced in or cut out,
    often at the start of a line."""
    text = serialize_instance(draw(valid_instances()), comments=draw(st.lists(st.text(max_size=4), max_size=2)))
    for _ in range(draw(st.integers(0, 4))):
        line_starts = [0] + [i + 1 for i, c in enumerate(text) if c == "\n"]
        start = draw(st.one_of(st.integers(0, len(text)), st.sampled_from(line_starts)))
        end = draw(st.integers(start, min(len(text), start + 6)))
        text = text[:start] + draw(FUZZ_PIECES) + text[end:]
    return text


# E1_DOC as the serializer writes it, so the price batch reads its bidder lines.
WRITTEN_DOC = serialize_instance(parse_instance(E1_DOC))
NINES = "9" * WHOLE_DIGITS


def wide_line(available, sizes):
    """WRITTEN_DOC with bidder B's line widened, at a capacity it fits."""
    items = "".join(f" {m}:{m}.000000" for m in range(1, sizes + 1))
    return WRITTEN_DOC.replace("capacity 5", "capacity 2000").replace(
        "available 3 prices 1:0.300000 2:0.550000 3:0.780000", f"available {available} prices{items}")


@settings(deadline=None, max_examples=300)
@given(st.one_of(fuzzed_documents(), st.text()))
@example(E1_DOC)
@example("")
@example("  # only a comment\n\t\n")
@example(E1_DOC.replace("capacity 5\n", "capacity 5\n#no space\n"))
@example(E1_DOC.replace("1:0.40", "1:١.40"))
@example(E1_DOC.replace("1:0.40", "1:1_0"))
@example(E1_DOC.replace("1:0.40", "1:.5 "))
@example(E1_DOC.replace("capacity 5", "capacity\x1f5"))
@example(E1_DOC.replace("1:0.30 2:0.55", "2:0.55 1:0.30"))              # sizes out of order
@example(E1_DOC.replace("1:0.30", "01:0.30"))
@example(E1_DOC.replace("1:0.30", "+1:0.30"))
@example(E1_DOC.replace("1:0.30", "1_0:0.30"))
@example(E1_DOC.replace("1:0.30", "0:0.10 1:0.30"))                     # a size of 0
@example(E1_DOC.replace("available 3", "available 4"))                  # above the prices
@example(E1_DOC.replace("available 3", "available 2"))                  # below the prices
@example(E1_DOC.replace("available 3 prices 1:0.30 2:0.55 3:0.78", "available 0 prices"))
@example(E1_DOC.replace("available 5 prices", "available 6 prices").replace("5:1.15", "5:1.15 6:1.20"))
@example(E1_DOC.replace("2:0.55", "2:0.30"))                            # two equal prices
@example(E1_DOC.replace("available 3 prices 1:0.30 2:0.55 3:0.78",
                        "available 3 concave prices 1:0.30 2:0.55 3:0.90"))  # marginals increase
@example(WRITTEN_DOC)
@example(WRITTEN_DOC.replace(" 1:0.300000", " 01:0.300000"))
@example(WRITTEN_DOC.replace("3:0.780000\n", "3:0.780000 \n"))         # a trailing space
@example(WRITTEN_DOC.replace("3:0.780000\n", "3:0.780000\t\n"))        # a trailing tab
@example(WRITTEN_DOC.replace("3:0.780000", f"3:{NINES}.780000"))        # 194 whole digits
@example(WRITTEN_DOC.replace("3:0.780000", f"3:9{NINES}.780000"))       # 195 whole digits
@example(WRITTEN_DOC.replace("3:0.780000", f"3:0{NINES}.780000"))       # 195, padded
@example(WRITTEN_DOC.replace("3:0.780000", f"3:{'9' * 4301}.780000"))    # 4301, past int's limit
@example(WRITTEN_DOC.replace("capacity 5", f"capacity 9{NINES}999999"))  # at the bound
@example(WRITTEN_DOC.replace("capacity 5", f"capacity 1{NINES}000000"))  # past the bound
@example(WRITTEN_DOC.replace("capacity 5", f"capacity -{'9' * 4301}"))
@example(WRITTEN_DOC.replace("requested_seats 3", f"requested_seats +{'9' * 4301}"))
@example(WRITTEN_DOC.replace("capacity 5", f"capacity +-{'9' * 300}"))   # malformed, not past
@example(WRITTEN_DOC.replace(" 1:0.300000", f" 1{'0' * 300}:0.300000"))  # a size past the bound
@example(WRITTEN_DOC.replace(" 1:0.300000", f" {'0' * 300}1:0.300000"))  # padded, not past
@example(WRITTEN_DOC.replace("3:0.780000", "3:\u0660.780000"))          # a non-ASCII digit
@example(WRITTEN_DOC.replace("available 3", "available \u0663"))
@example(WRITTEN_DOC.replace("available 3 prices 1:0.300000 2:0.550000 3:0.780000",
                             "available 0 prices"))
@example(WRITTEN_DOC.replace("available 3", "available 4"))             # sizes 1..n of n+1
@example(WRITTEN_DOC.replace("available 3", f"available {NINES}"))
@example(WRITTEN_DOC.replace("available 3", f"available 1{'0' * 200}"))   # past the bound
@example(WRITTEN_DOC.replace("1:0.300000 2:0.550000", "2:0.550000 1:0.300000"))
@example(WRITTEN_DOC.replace("2:0.550000", "1:0.550000"))               # a size twice
@example(wide_line(1000, 1000))
@example(wide_line(1001, 1000))
@example(wide_line(1001, 1001))
def test_parse_instance_matches_the_strip_each_line_parser(text):
    """The two parsers agree, errors included, and so do the checks of what
    they build and the series of every schedule."""
    parsed = outcome(parse_instance, text)
    oracle = outcome(strip_each_line_parse_instance, text)
    assert parsed == oracle
    if failed(parsed):
        return
    for check in (lambda i: CompiledCase(i).rows, validate_instance):
        assert outcome(check, parsed) == outcome(check, oracle)
    assert [bid._series for bid in parsed.bids] == [bid._series for bid in oracle.bids]


def count_parse_calls(monkeypatch) -> Counter:
    """The calls, from now on, of the token grammar's bidder reader, of the
    money grammar and of the checking constructor, by name."""
    calls = Counter()

    def counted(owner, name):
        fn = getattr(owner, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    counted(BidSchedule, "__init__")
    counted(instance_io, "_parse_bidder")
    counted(instance_io, "money_from_decimal")
    return calls


def k1000_document():
    """A generated K = 1000 splittable document, and its instance."""
    batch = generate_batch(GenerationLaw(seed=23), 1000, 5, 1)
    instance = batch.instance(0, ServiceType.SPLITTABLE, 3)
    return serialize_instance(instance), instance


def swap_first_sizes(text):
    """The document with the first bidder line of two sizes or more given
    its sizes 1 and 2 in swapped order, and that line's item count."""
    match = re.search(r"^(bidder \S+ .*prices) (1:\S+) (2:\S+)(.*)$", text, re.M)
    swapped = f"{match[1]} {match[3]} {match[2]}{match[4]}"
    return text[:match.start()] + swapped + text[match.end():], match[0].count(":")


def test_a_parsed_k1000_charge_runs_no_full_check(monkeypatch):
    """Every bidder line of a generated document is read by the price
    batch, with no call per price and no call of the checking constructor,
    and charging it reads the series the parse built.  With one line's
    sizes out of order the token grammar reads that line alone, with one
    call per price of it and the constructor's one full check; both give
    the same charges."""
    calls = count_parse_calls(monkeypatch)
    text, _ = k1000_document()
    calls.clear()
    report = vcg_charges(parse_instance(text))
    assert calls == {}
    swapped, items = swap_first_sizes(text)
    assert vcg_charges(parse_instance(swapped)) == report
    assert calls == {"_parse_bidder": 1, "money_from_decimal": items, "__init__": 1}


@pytest.mark.parametrize("ending", ["\n", "\r\n"])
def test_an_edited_k1000_document_reads_only_its_edited_lines_by_tokens(monkeypatch, ending):
    """A generated document with a blank line appended, a comment between
    two bidder lines, and a trailing space, doubled spaces and tabs in
    three others, in either line ending, is its instance: the token grammar
    reads those three lines alone, each with one call per price and the
    constructor's one full check.  With one more line's sizes swapped, it
    reads that line too."""
    text, instance = k1000_document()
    lines = text.split("\n")
    lines[10] += " "
    lines[20] = lines[20].replace(" ", "  ")
    lines[30] = lines[30].replace(" ", "\t", 2)
    items = sum(lines[i].count(":") for i in (10, 20, 30))
    lines.insert(40, "# a note between bidder lines")
    edited = ending.join(lines) + ending
    calls = count_parse_calls(monkeypatch)
    assert parse_instance(edited) == instance
    assert calls == {"_parse_bidder": 3, "money_from_decimal": items, "__init__": 3}
    swapped, swapped_items = swap_first_sizes(edited)
    calls.clear()
    assert parse_instance(swapped) == instance
    assert calls == {"_parse_bidder": 4, "money_from_decimal": items + swapped_items,
                     "__init__": 4}


def test_a_gen_document_is_read_with_no_call_per_line(tmp_path, monkeypatch):
    """A document ``gen`` writes, its comment included, is read by the
    price batch alone."""
    from avauction.cli import main

    assert main(["gen", "--k", "1000", "--cases", "1", "--out", str(tmp_path)]) == 0
    path = tmp_path / "k1000-case0000.txt"
    assert path.read_text().splitlines()[1].startswith("# generated: ")
    calls = count_parse_calls(monkeypatch)
    instance = read_instance(path)
    assert calls == {} and len(instance.bids) == 1000


# The line breaks of ``str.splitlines`` besides "\n"; a comment that holds
# one is more than one line.
SPLITLINES_BREAKS = ("\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                     "\u2029")
COMMENT_TEXT = st.text(st.characters(blacklist_characters="".join(SPLITLINES_BREAKS) + "\n"),
                       max_size=8)
WRITTEN_LINE = "bidder zz available 1 prices 1:0.100000"


@st.composite
def generated_instances(draw):
    """A drawn case of 1, 30 or 1000 bidders, as ``gen`` draws them."""
    capacity = draw(st.integers(1, 8))
    batch = generate_batch(GenerationLaw(seed=draw(st.integers(0, 2**32))),
                           draw(st.sampled_from([1, 30, 1000])), capacity, 1)
    return batch.instance(0, draw(st.sampled_from(list(ServiceType))),
                          draw(st.integers(1, capacity)))


def _insert_line(draw, lines, line):
    lines.insert(draw(st.integers(0, len(lines))), line)


def _bidder_rows(lines):
    return [i for i, line in enumerate(lines) if line.startswith("bidder ")]


def _field_rows(lines):
    return [i for i, line in enumerate(lines)
            if line.split(" ")[0] in ("capacity", "requested_seats", "service")]


def _glue_prefix(draw, lines):
    rows = _bidder_rows(lines)
    if rows:
        i = draw(st.sampled_from(rows))
        prefix = draw(st.sampled_from(["0", "x", "#", " ", "\t", "\x0c", "bidder ", "1 "]))
        lines[i] = prefix + lines[i]


def _comment_a_bidder_line(draw, lines):
    written = [lines[i] for i in _bidder_rows(lines)] + [WRITTEN_LINE]
    marker = draw(st.sampled_from(["# ", "#", " # "]))
    _insert_line(draw, lines, marker + draw(st.sampled_from(written)))


def _break_a_comment(draw, lines):
    # often right after the header, where the serializer writes comments
    tail = draw(st.sampled_from(["", "x", WRITTEN_LINE, "capacity 9", "# more"]))
    at = draw(st.one_of(st.just(1), st.integers(0, len(lines))))
    lines.insert(at, f"# note{draw(st.sampled_from(SPLITLINES_BREAKS))}{tail}")


def _reorder_fields(draw, lines):
    rows = _field_rows(lines)
    for i, line in zip(rows, draw(st.permutations([lines[i] for i in rows]))):
        lines[i] = line


def _repeat_a_field(draw, lines):
    rows = _field_rows(lines)
    if rows:
        _insert_line(draw, lines, lines[draw(st.sampled_from(rows))])


def _add_blank_lines(draw, lines):
    for _ in range(draw(st.integers(1, 3))):
        _insert_line(draw, lines, draw(st.sampled_from(["", " ", "\t"])))


def _widen_past_1000_sizes(draw, lines):
    available, sizes = draw(st.sampled_from([(1000, 1000), (1001, 1001), (1001, 1000),
                                             (1000, 1001)]))
    items = "".join(f" {m}:{m}.000000" for m in range(1, sizes + 1))
    lines[:] = ["capacity 2000" if line.startswith("capacity ") else line for line in lines]
    _insert_line(draw, lines, f"bidder wide available {available} prices{items}")


LINE_MUTATIONS = {
    "glued-prefix": _glue_prefix,
    "commented-bidder-line": _comment_a_bidder_line,
    "break-in-comment": _break_a_comment,
    "fields-reordered": _reorder_fields,
    "field-repeated": _repeat_a_field,
    "blank-lines": _add_blank_lines,
    "past-1000-sizes": _widen_past_1000_sizes,
}
# The mutations that keep a document's instance.
KEEPING = {"blank-lines", "crlf", "no-final-newline"}


@st.composite
def mutated_documents(draw):
    """A ``serialize_instance`` document of up to 1000 bidders, with or
    without comments (one like ``gen``'s among them), with some of the
    document-level mutations applied: the line mutations above, CRLF line
    endings and no final newline.  Also the names applied, and the
    instance, when every mutation applied keeps it."""
    instance = draw(st.one_of(valid_instances(levels=(0, 10**20) + LONG_LEVELS),
                              generated_instances()))
    comments = draw(st.one_of(st.just([]), st.just(["generated: law=fixture"]),
                              st.lists(COMMENT_TEXT, max_size=3)))
    names = draw(st.lists(st.sampled_from([*LINE_MUTATIONS, "crlf", "no-final-newline"]),
                          max_size=3))
    lines = serialize_instance(instance, comments).split("\n")[:-1]
    for name in names:
        if name in LINE_MUTATIONS:
            LINE_MUTATIONS[name](draw, lines)
    ending = "\r\n" if "crlf" in names else "\n"
    text = ending.join(lines) + ("" if "no-final-newline" in names else ending)
    return text, names, None if set(names) - KEEPING else instance


@settings(deadline=None, max_examples=150)
@given(mutated_documents())
@example(("avauction-instance v1\ncapacity 5\nrequested_seats 1\nservice private\n", [],
          AuctionInstance(5, 1, ServiceType.PRIVATE, ())))
def test_the_document_reader_matches_the_strip_each_line_parser(document):
    """A written document, mutated or not, parses as the strip-each-line
    parser reads it, errors included.  One whose mutations keep its
    instance is that instance, read with no call of the token grammar, the
    money grammar or the checking constructor."""
    text, _names, instance = document
    with pytest.MonkeyPatch.context() as patch:
        calls = count_parse_calls(patch)
        parsed = outcome(parse_instance, text)
    oracle = outcome(strip_each_line_parse_instance, text)
    assert parsed == oracle
    if not failed(parsed):
        assert [bid._series for bid in parsed.bids] == [bid._series for bid in oracle.bids]
    if instance is not None:
        assert parsed == instance and calls == {}


@pytest.mark.parametrize("tail", ["", "capacity 9", WRITTEN_LINE])
@pytest.mark.parametrize("line_break", SPLITLINES_BREAKS)
def test_a_comment_that_breaks_a_line_is_read_as_two_lines(line_break, tail):
    """A comment the serializer writes with a break ``str.splitlines``
    makes is two lines, as the strip-each-line parser reads them: the
    second is a field, a bidder line or nothing."""
    text = serialize_instance(parse_instance(E1_DOC), comments=[f"note{line_break}{tail}"])
    read = outcome(parse_instance, text)
    assert read == outcome(strip_each_line_parse_instance, text)
    assert failed(read) is (tail == "capacity 9")
    assert tail != WRITTEN_LINE or read.bidder_ids() == ("zz", "A", "B")
