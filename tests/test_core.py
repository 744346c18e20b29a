import decimal
import math
import re
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from avauction import (
    AuctionInstance,
    BidSchedule,
    CompiledCase,
    DuplicateBidder,
    ExperimentConfig,
    GenerationLaw,
    InvalidLaw,
    MissingPrice,
    Money,
    NegativeAmount,
    NonConcavePrices,
    NonMonotonePrices,
    OversizedCombination,
    PrecisionLoss,
    SeatBoundViolation,
    ServiceType,
    UnknownBidder,
    ValidationError,
    exclusion_totals,
    money_from_decimal,
    perturb_bids,
    solve_wdp,
    validate_instance,
    vcg_charges,
)
from avauction import core
from avauction.core import (
    OversizedRatio, as_fraction, micros_from_decimal, micros_to_decimal, price_series, round_half_up,
)

from conftest import failed, full_case, make_instance, outcome, regex_money_from_decimal, sched


class TestMoney:
    def test_from_decimal_scaling(self):
        assert money_from_decimal("0.0295").micros == 29500
        assert money_from_decimal("0").micros == 0
        assert money_from_decimal("1.5").micros == 1_500_000
        assert money_from_decimal(".25").micros == 250_000

    def test_precision_loss(self):
        with pytest.raises(PrecisionLoss):
            money_from_decimal("0.0000001")

    def test_negative_rejected(self):
        with pytest.raises(NegativeAmount):
            money_from_decimal("-1")
        with pytest.raises(NegativeAmount):
            Money(-5)

    def test_bool_rejected(self):
        for flag in (True, False):
            with pytest.raises(ValidationError):
                Money(flag)

    def test_malformed(self):
        for bad in ("1e3", "abc", "1.2.3", ""):
            with pytest.raises(ValidationError):
                money_from_decimal(bad)

    def test_round_trip(self):
        for text in ("0.000000", "0.780000", "12.345678", "3.000001"):
            assert money_from_decimal(text).to_decimal() == text
            assert str(money_from_decimal(text)) == text

    @given(st.integers(min_value=0, max_value=10**13))
    def test_round_trip_property(self, micros):
        m = Money(micros)
        assert money_from_decimal(m.to_decimal()) == m

    def test_scaled_half_up(self):
        # micros * p, q: a price of micros scaled by p/q, in micro-units
        assert round_half_up(3 * 1, 2) == 2  # 3 * 1/2 = 1.5 rounds up
        assert round_half_up(5 * 1, 10) == 1  # 5 * 0.1 = 0.5 rounds up
        assert round_half_up(100 * 1, 1) == 100

    def test_ordering(self):
        assert Money(1) < Money(2) <= Money(2)


@given(
    micros=st.integers(0, 10**20),
    factor=st.one_of(
        st.fractions(min_value=0, max_denominator=10**30),
        st.builds(Fraction, st.integers(0, 10**40), st.integers(1, 10**30)),
    ),
)
@example(micros=3, factor=Fraction(1, 2))
@example(micros=10**20, factor=Fraction(10**40 - 1, 10**30 + 7))
def test_scaled_matches_the_fraction_product(micros, factor):
    expected = math.floor(micros * factor + Fraction(1, 2))
    assert round_half_up(micros * factor.numerator, factor.denominator) == expected
    assert round_half_up(micros * factor) == expected


def test_isdecimal_accepts_exactly_the_regex_digits():
    digit = re.compile(r"\d")
    assert all(chr(c).isdecimal() == bool(digit.fullmatch(chr(c))) for c in range(sys.maxunicode + 1))


LIMIT = sys.get_int_max_str_digits()
MONEY_ALPHABET = "0123456789.-+_ \t\n\u0661\u0662\uff15e\u00b2"


@settings(max_examples=500)
@given(st.one_of(
    st.text(),
    st.text(alphabet=MONEY_ALPHABET, max_size=12),
    # whole parts near int()'s digit limit: only the whole part counts
    # towards it, so padding the fraction must not make a literal raise
    st.builds(
        lambda whole, dot, frac: "7" * whole + dot + "3" * frac,
        st.integers(LIMIT - 8, LIMIT + 2), st.sampled_from(["", "."]), st.integers(0, 7),
    ),
))
@example("")
@example(".")
@example("1.")
@example(".5")
@example("0.1234567")
@example("\u0661\u0662.5")
@example("1_0")
@example("+1")
@example(" 1")
@example("-0")
@example("1.2.3")
@example("1.\u0665")
@example("9" * LIMIT + ".999999")
@example("9" * (LIMIT + 1))
def test_money_from_decimal_matches_the_regex_grammar(text):
    """Both entry points of the one money grammar, the int micros the
    parser reads and the Money that wraps them, match the regex oracle."""
    expected = outcome(regex_money_from_decimal, text)
    assert outcome(money_from_decimal, text) == expected
    micros = outcome(micros_from_decimal, text)
    assert micros == (expected if failed(expected) else expected.micros)
    assert failed(micros) or type(micros) is int


@given(st.integers(0, 10**9), st.integers(0, 3 * LIMIT))
@example(0, 0)
@example(10**6 - 1, LIMIT + 5)
@example(0, 2 * (LIMIT + 6))
def test_money_renders_exactly_at_any_size(low, digits):
    """``str`` refuses ints longer than the interpreter's digit limit; the
    renderer matches ``decimal``, which has no such limit, far past it."""
    micros = 10**digits + low
    exact = decimal.Decimal(micros).scaleb(-6, decimal.Context(prec=decimal.MAX_PREC))
    assert Money(micros).to_decimal() == micros_to_decimal(micros) == f"{exact:f}"


def test_round_half_up():
    assert round_half_up(Fraction(5, 2)) == 3
    assert round_half_up(Fraction(3, 2)) == 2
    assert round_half_up(Fraction(7, 3)) == 2
    assert round_half_up(Fraction(0)) == 0
    assert round_half_up(5, 2) == round_half_up(10, 4) == 3
    assert round_half_up(7, 3) == 2
    assert round_half_up(0, 9) == 0
    assert round_half_up(12) == 12


def test_readme_quick_start_prints_the_total(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    exec(block.split("```", 1)[0], {})
    assert capsys.readouterr().out.splitlines()[-1] == "0.900000"


def test_as_fraction_decimal_floats():
    assert as_fraction(0.1) == Fraction(1, 10)
    assert as_fraction("0.3") == Fraction(3, 10)
    assert as_fraction(Fraction(4, 5)) == Fraction(4, 5)
    assert as_fraction(2) == Fraction(2)


def _bounded_fraction(value, max_digits):
    """``as_fraction(value, max_digits)`` as built in full: the Fraction,
    then the digit bound."""
    ratio = as_fraction(value)
    if max(abs(ratio.numerator), ratio.denominator) >= 10**max_digits:
        raise OversizedRatio(f"a ratio of more than {max_digits} digits")
    return ratio


RATIO_TEXTS = st.from_regex(
    r"\A\s?[-+]?[0-9]{0,3}(\.[0-9]{0,3})?(/[0-9]{1,2})?([eE][-+]?[0-9]{1,3}(_[0-9])?)?\s?\Z"
) | st.text("0123456789.eE+-_/ ", max_size=8)
DIGIT_BOUNDS = st.integers(1, 5) | st.just(100)


@settings(deadline=None, max_examples=300)
@given(RATIO_TEXTS, DIGIT_BOUNDS)
@example("1e99_9", 1)
@example("0e1_0", 1)
@example("0.00001e5", 1)
@example("500e-3", 1)
@example("1e-103", 100)
@example("1e-104", 100)
@example("0e-999", 100)
@example("1e 5", 100)
@example("4/5e999", 100)
def test_a_digit_bound_refuses_what_the_built_fraction_would(text, max_digits):
    """A decimal exponent far past the bound is refused before its power of
    ten is built, with the outcome of building it: the same ratio, the same
    refusal, and "not a ratio" for every malformed text."""
    assert outcome(lambda t: as_fraction(t, max_digits), text) == outcome(
        lambda t: _bounded_fraction(t, max_digits), text
    )


class _FractionWithoutUnderscores(Fraction):
    """Fraction as Python 3.10 reads a text: a "_" anywhere is refused."""

    def __new__(cls, numerator=0, denominator=None, **kwargs):
        if isinstance(numerator, str) and "_" in numerator:
            raise ValueError(f"Invalid literal for Fraction: {numerator!r}")
        return super().__new__(cls, numerator, denominator, **kwargs)


@settings(deadline=None, max_examples=100)
@given(RATIO_TEXTS, DIGIT_BOUNDS)
@example("1e99_9", 1)
@example("0e1_0", 1)
def test_a_digit_bound_follows_the_grammar_of_the_running_fraction(text, max_digits):
    """The early refusal reads a text as the running Python's Fraction
    does, so under a grammar with no "_" an exponent with one is still "not
    a ratio", never an oversized ratio or 0."""
    with mock.patch.object(core, "Fraction", _FractionWithoutUnderscores):
        assert outcome(lambda t: as_fraction(t, max_digits), text) == outcome(
            lambda t: _bounded_fraction(t, max_digits), text
        )


NOT_RATIOS = ["abc", float("nan"), float("inf"), "1/0", None]
NOT_RATIO_IDS = ["text", "nan", "inf", "zero-denominator", "none"]


@pytest.mark.parametrize("value", NOT_RATIOS, ids=NOT_RATIO_IDS)
def test_a_value_that_is_no_ratio_raises_one_error_class(value, e1):
    """Every value ``Fraction`` rejects raises ValidationError from
    ``as_fraction`` and ``perturb_bids``, and InvalidLaw from the law and
    the study config, where ValueError, ZeroDivisionError or TypeError
    escaped before."""
    with pytest.raises(ValidationError, match="not a ratio"):
        as_fraction(value)
    with pytest.raises(ValidationError, match="not a ratio"):
        perturb_bids(e1, {"B"}, value)
    for build in (lambda: GenerationLaw(seed=1, gamma=value), lambda: ExperimentConfig(gamma=value)):
        with pytest.raises(InvalidLaw, match=f"gamma must be a ratio, got {re.escape(repr(value))}"):
            build()


class TestValidation:
    def test_valid_instance(self, e1):
        assert validate_instance(e1) is e1

    def test_seat_bound(self):
        inst = make_instance(5, 6, ServiceType.SPLITTABLE, [sched("A", 5, {m: f"0.{m}0" for m in range(1, 6)})])
        with pytest.raises(SeatBoundViolation):
            validate_instance(inst)

    def test_non_monotone(self):
        inst = make_instance(5, 1, ServiceType.SPLITTABLE, [sched("A", 2, {1: "0.40", 2: "0.40"})])
        with pytest.raises(NonMonotonePrices):
            validate_instance(inst)

    def test_duplicate_bidder(self):
        bid = sched("A", 1, {1: "0.40"})
        inst = make_instance(5, 1, ServiceType.SPLITTABLE, [bid, bid])
        with pytest.raises(DuplicateBidder):
            validate_instance(inst)

    def test_oversized_combination(self):
        inst = make_instance(5, 1, ServiceType.SPLITTABLE, [sched("A", 2, {1: "0.1", 2: "0.2", 3: "0.3"})])
        with pytest.raises(OversizedCombination):
            validate_instance(inst)

    def test_missing_price(self):
        inst = make_instance(5, 1, ServiceType.SPLITTABLE, [sched("A", 3, {1: "0.1", 3: "0.3"})])
        with pytest.raises(MissingPrice):
            validate_instance(inst)

    def test_availability_above_capacity(self):
        inst = make_instance(5, 1, ServiceType.SPLITTABLE, [sched("A", 6, {m: f"0.{m}0" for m in range(1, 6)})])
        with pytest.raises(SeatBoundViolation):
            validate_instance(inst)

    def test_concave_flag_rejects_increasing_marginals(self):
        inst = make_instance(
            5, 1, ServiceType.SPLITTABLE,
            [sched("A", 3, {1: "0.10", 2: "0.15", 3: "0.30"}, concave=True)],
        )
        with pytest.raises(NonConcavePrices):
            validate_instance(inst)

    def test_concave_flag_accepts_equal_marginals(self):
        inst = make_instance(
            5, 1, ServiceType.SPLITTABLE,
            [sched("A", 3, {1: "0.10", 2: "0.20", 3: "0.30"}, concave=True)],
        )
        validate_instance(inst)

    def test_empty_schedule_allowed(self):
        # an absent-bidder encoding: zero seats, no prices
        inst = make_instance(5, 1, ServiceType.SPLITTABLE, [sched("A", 1, {1: "0.1"}), sched("Z", 0, {})])
        validate_instance(inst)

    def test_raw_mapping_is_rejected(self):
        # coercing these fields would read 5.9 seats as 5 and "false" as True
        raw = {
            "capacity": 5.9,
            "requested_seats": 1,
            "service": "splittable",
            "bids": [{"bidder_id": "A", "available_seats": 2.7,
                      "prices": {1: "0.40", 2: "0.70"}, "concave": "false"}],
        }
        with pytest.raises(ValidationError, match="AuctionInstance"):
            validate_instance(raw)

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda i: AuctionInstance(5.0, 1, i.service, i.bids),
            lambda i: AuctionInstance(5, True, i.service, i.bids),
            lambda i: AuctionInstance(5, 1, "splittable", i.bids),
            lambda i: AuctionInstance(5, 1, i.service, [BidSchedule("A", True, {1: Money(1)})]),
            lambda i: AuctionInstance(5, 1, i.service, [BidSchedule("A", 1, {True: Money(1)})]),
            lambda i: AuctionInstance(5, 1, i.service, [BidSchedule("A", 0, {}, concave="no")]),
            # 2.0 finds its price as size 2, so only the key check sees it
            lambda i: AuctionInstance(5, 1, i.service, [BidSchedule("A", 2, {1: Money(1), 2.0: Money(2)})]),
            lambda i: AuctionInstance(5, 1, i.service, [BidSchedule("A", 1, {1: 5})]),
            lambda i: AuctionInstance(5, 1, i.service, [BidSchedule("A", 1, {1: "0.5"})]),
        ],
        ids=["float-capacity", "bool-request", "str-service", "bool-availability",
             "bool-size", "str-concave", "float-size", "int-price", "str-price"],
    )
    def test_fields_must_have_the_types_the_format_writes(self, e1, mutation):
        with pytest.raises(ValidationError):
            validate_instance(mutation(e1))

    def test_price_coverage_is_exact(self, e1, e2):
        for inst in (e1, e2):
            for bid in inst.bids:
                top = min(bid.available_seats, inst.capacity)
                assert sorted(bid.prices) == list(range(1, top + 1))


# The text format's bidder-id token, restated so the oracle below shares no
# code with avauction.core beyond its types and exceptions.
ORACLE_ID_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _plain_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def check_text_format_fields(schedule: BidSchedule) -> None:
    """price_series's field rules: an id that is one token of the text
    format, an int availability and a bool concave flag."""
    who = schedule.bidder_id
    if not (isinstance(who, str) and ORACLE_ID_RE.fullmatch(who)):
        raise ValidationError(f"bad bidder id {who!r}: use letters, digits, '_', '.' or '-'")
    if not _plain_int(schedule.available_seats) or not isinstance(schedule.concave, bool):
        raise ValidationError(f"bidder {who}: available_seats must be int and concave bool")


def two_pass_price_series(schedule: BidSchedule, capacity: int) -> list[int]:
    """price_series's checks as separate passes: a list comprehension over
    the sizes, a pairwise comparison, a loop over the keys and a list of
    marginals.  With check_text_format_fields, the oracle of the one-pass
    test below."""
    who = schedule.bidder_id
    top = schedule.available_seats
    if not (0 <= top <= capacity):
        raise SeatBoundViolation(f"bidder {who}: available_seats {top} outside [0, {capacity}]")
    prices = schedule.prices
    try:
        series = [prices[m].micros for m in range(1, top + 1)]
    except KeyError as exc:
        raise MissingPrice(
            f"bidder {who}: no price for size {exc.args[0]} (must cover 1..{top})"
        ) from None
    except AttributeError:
        m = next(m for m in range(1, top + 1) if not isinstance(prices[m], Money))
        raise ValidationError(
            f"bidder {who}: price for size {m} must be Money, got {type(prices[m]).__name__}"
        ) from None
    if not all(a < b for a, b in zip(series, series[1:])):
        raise NonMonotonePrices(f"bidder {who}: prices must strictly increase with size")
    for size in prices:
        if not _plain_int(size) or size < 1 or size > top:
            raise OversizedCombination(f"bidder {who}: price defined for size {size} outside 1..{top}")
    diffs = [b - a for a, b in zip(series, series[1:])]
    if schedule.concave and not all(a >= b for a, b in zip(diffs, diffs[1:])):
        raise NonConcavePrices(f"bidder {who}: flagged concave but marginals increase")
    return series


@st.composite
def rough_schedules(draw):
    """A capacity and a schedule near the edge of validity: odd key, price
    and field types, gaps, extra sizes, flat or rising marginals."""
    capacity = draw(st.integers(1, 6))
    available = draw(st.integers(0, capacity + 1))
    prices, level, step = {}, 0, 5
    for m in range(1, available + 1):  # a curve that is mostly increasing
        step = draw(st.integers(max(0, step - 3), step + 1))
        level += step
        prices[m] = Money(level)
    odd_sizes = st.one_of(st.integers(-1, 7), st.sampled_from([2.0, True, False, 1.5, "1"]))
    odd_prices = st.one_of(st.integers(0, 30).map(Money), st.sampled_from([5, "0.5"]))
    for _ in range(draw(st.integers(0, 2))):  # then a few edits
        if prices and draw(st.booleans()):
            del prices[draw(st.sampled_from(list(prices)))]
        else:
            prices[draw(odd_sizes)] = draw(odd_prices)
    schedule = BidSchedule(
        draw(st.sampled_from(["A"] * 8 + ["x y"])),
        draw(st.sampled_from([available] * 8 + [True, 2.0])),
        prices,
        concave=draw(st.sampled_from([True, False] * 4 + ["no"])),
    )
    return schedule, capacity


@settings(max_examples=500)
@given(rough_schedules())
def test_one_pass_validation_raises_the_same_first_violation(case):
    """price_series and the engine's compile give the oracle's outcome:
    the same exception class and message, or the oracle's series."""
    schedule, capacity = case
    fields = outcome(check_text_format_fields, schedule)
    series = outcome(lambda s: two_pass_price_series(s, capacity), schedule)
    expected = series if fields is None else fields
    assert outcome(lambda s: list(price_series(s, capacity)), schedule) == expected
    assert outcome(lambda s: list(full_case([s], capacity).rows[0]), schedule) == expected


@settings(max_examples=500)
@given(rough_schedules(), st.integers(1, 7), st.booleans())
@example((BidSchedule("A", 3, {1: Money(1), 2: Money(2), 3: Money(3)}), 5), 2, False)
@example((BidSchedule("A", 2, {1: Money(1), 2: Money(3), 3: Money(4)}), 5), 2, True)
def test_a_stored_series_never_changes_an_outcome(case, capacity2, through_validation):
    """A schedule checked once, at one capacity or through validation, gives
    at any other capacity what a fresh equal schedule gives: the same
    exception class and message, or the same series.  Only a check that
    passed leaves its series on the schedule."""
    schedule, capacity = case

    def fresh():
        return BidSchedule(schedule.bidder_id, schedule.available_seats, schedule.prices,
                           schedule.concave)

    if through_validation:
        def first_check(s):
            return validate_instance(make_instance(capacity, 1, ServiceType.SPLITTABLE, [s]))
    else:
        def first_check(s):
            return price_series(s, capacity)

    first = outcome(first_check, schedule)
    assert first == outcome(first_check, fresh())
    assert schedule._series == (None if failed(first) else price_series(fresh(), capacity))
    assert schedule == fresh()
    for check in (lambda s: price_series(s, capacity2),
                  lambda s: list(full_case([s], capacity2).rows[0])):
        assert outcome(check, schedule) == outcome(check, fresh())


def fresh(instance: AuctionInstance) -> AuctionInstance:
    """An equal instance whose schedules keep no checked series, so no
    check below leans on another's."""
    return AuctionInstance(instance.capacity, instance.requested_seats, instance.service, [
        BidSchedule(b.bidder_id, b.available_seats, b.prices, b.concave) for b in instance.bids
    ])


ENGINE = (CompiledCase, solve_wdp, vcg_charges, exclusion_totals)
ROUGH_SEATS = st.one_of(st.integers(-1, 6), st.sampled_from([True, 2.0]))


@st.composite
def rough_instances(draw):
    """An instance near the edge of validity: seat fields that are out of
    range or not plain ints, a service that is not a ServiceType, and
    ``rough_schedules``' bids under ids that repeat, are not one token of
    the text format, or are not strings at all."""
    ids = st.sampled_from(["A", "B", "x y", ["A"], 5])
    bids = [
        BidSchedule(draw(ids), s.available_seats, s.prices, s.concave)
        for s, _ in draw(st.lists(rough_schedules(), max_size=4))
    ]
    service = draw(st.sampled_from([*ServiceType, "splittable", None]))
    return AuctionInstance(draw(ROUGH_SEATS), draw(ROUGH_SEATS), service, bids)


@settings(max_examples=500)
@given(rough_instances())
def test_the_engine_rejects_exactly_what_validation_rejects(instance):
    """Whenever validate_instance raises, every entry point of the engine
    raises the same exception class and message; on an instance it
    accepts, none raises a ValidationError."""
    expected = outcome(validate_instance, fresh(instance))
    for fn in ENGINE:
        got = outcome(fn, fresh(instance))
        if failed(expected):
            assert got == expected, fn.__name__
        else:
            assert not (failed(got) and issubclass(got[0], ValidationError)), fn.__name__


GAP_BIDS = (sched("A", 2, {1: "0.10", 2: "0.30"}), sched("B", 3, {1: "0.20", 2: "0.35", 3: "0.45"}))
BAD_ID = "use letters, digits, '_', '.' or '-'"


@pytest.mark.parametrize(
    "instance, expected",
    [
        (AuctionInstance(5, 2, "splittable", GAP_BIDS),
         (ValidationError, "service must be a ServiceType, got 'splittable'")),
        (AuctionInstance(5.0, 2, ServiceType.SPLITTABLE, GAP_BIDS),
         (ValidationError, "capacity and requested_seats must be int")),
        (AuctionInstance(5, True, ServiceType.SPLITTABLE, GAP_BIDS),
         (ValidationError, "capacity and requested_seats must be int")),
        (AuctionInstance(0, 1, ServiceType.SPLITTABLE, GAP_BIDS),
         (SeatBoundViolation, "capacity 0 must be at least 1")),
        (AuctionInstance(5, 2, ServiceType.SPLITTABLE, [*GAP_BIDS, BidSchedule("x y", 1, {1: Money(1)})]),
         (ValidationError, f"bad bidder id 'x y': {BAD_ID}")),
        (AuctionInstance(5, 2, ServiceType.SPLITTABLE, [*GAP_BIDS, BidSchedule(["A"], 1, {1: Money(1)})]),
         (ValidationError, f"bad bidder id ['A']: {BAD_ID}")),
    ],
    ids=["str-service", "float-capacity", "bool-request", "capacity-0", "non-token-id", "unhashable-id"],
)
def test_the_engine_raises_what_validation_raises(instance, expected):
    """Instances the engine once solved, or failed on with a TypeError,
    although validation rejects them."""
    for fn in (validate_instance, *ENGINE):
        assert outcome(fn, fresh(instance)) == expected, fn.__name__


def test_prices_are_read_only_and_copied():
    prices = {1: Money(1), 2: Money(2)}
    schedule = BidSchedule("A", 2, prices)
    prices[2] = Money(0)
    assert schedule.prices == {1: Money(1), 2: Money(2)}
    with pytest.raises(TypeError):
        schedule.prices[1] = Money(5)
    with pytest.raises(TypeError):
        del schedule.prices[2]
    with pytest.raises(AttributeError):
        schedule.prices = prices


def test_a_checked_schedule_equals_an_unchecked_one(e1):
    checked = validate_instance(e1)
    assert all(bid._series is not None for bid in checked.bids)
    unchecked = make_instance(e1.capacity, e1.requested_seats, e1.service, [
        BidSchedule(b.bidder_id, b.available_seats, b.prices, b.concave) for b in e1.bids
    ])
    assert all(bid._series is None for bid in unchecked.bids)
    assert checked == unchecked
    assert checked.bids[0] == unchecked.bids[0] and repr(checked.bids[0]) == repr(unchecked.bids[0])


def test_service_type_tokens():
    assert ServiceType.from_token("splittable") is ServiceType.SPLITTABLE
    assert ServiceType.from_token("NONSPLITTABLE") is ServiceType.NON_SPLITTABLE
    with pytest.raises(ValidationError):
        ServiceType.from_token("chartered")


def test_without_bidder_raises_on_an_unknown_id():
    instance = make_instance(5, 2, ServiceType.SPLITTABLE, [sched("A", 1, {1: "0.1"})])
    with pytest.raises(UnknownBidder):
        instance.without_bidder("B")
    with pytest.raises(UnknownBidder):
        make_instance(5, 2, ServiceType.SPLITTABLE, []).without_bidder("A")


def test_without_bidder_removes_every_bid_of_a_duplicated_id():
    # AuctionInstance does not validate, so it can hold one id twice
    a1, a2, b = sched("A", 1, {1: "0.1"}), sched("A", 2, {1: "0.2", 2: "0.3"}), sched("B", 1, {1: "0.4"})
    instance = make_instance(5, 2, ServiceType.PRIVATE, [a1, b, a2])
    assert instance.without_bidder("A") == make_instance(5, 2, ServiceType.PRIVATE, [b])
    assert instance.without_bidder("B") == make_instance(5, 2, ServiceType.PRIVATE, [a1, a2])
    with pytest.raises(UnknownBidder):
        instance.without_bidder("C")
