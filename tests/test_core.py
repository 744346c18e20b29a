import copy
import decimal
import math
import pickle
import re
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
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
    bidder_utility,
    exclusion_totals,
    generate_batch,
    money_from_decimal,
    parse_instance,
    perturb_bids,
    serialize_instance,
    solve_wdp,
    validate_instance,
    vcg_charges,
)
from dataclasses import FrozenInstanceError

from avauction import core
from avauction.core import (
    INT_BOUND, MONEY_BOUND, WHOLE_DIGITS, OversizedRatio, PastBound, as_fraction, bid_series,
    micros_from_decimal, micros_to_decimal, round_half_up,
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
    # whole parts near int()'s digit limit, all past the price bound: they
    # are refused as such before int() reads them, whatever the fraction
    st.builds(
        lambda whole, dot, frac: "7" * whole + dot + "3" * frac,
        st.integers(LIMIT - 8, LIMIT + 2), st.sampled_from(["", "."]), st.integers(0, 7),
    ),
    # whole parts on either side of the price bound, some padded with zeros
    st.builds(
        lambda pad, whole, frac: pad * "0" + "9" * whole + "." + "9" * frac,
        st.sampled_from([0, 1, 300]), st.integers(WHOLE_DIGITS - 2, WHOLE_DIGITS + 2),
        st.integers(0, 7),
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
@example("9" * WHOLE_DIGITS + ".999999")  # INT_BOUND - 1 micros
@example("1" + "0" * WHOLE_DIGITS)  # INT_BOUND micros
@example("\u0660" * 300 + "5")  # leading zeros of another script
@example("9" * (WHOLE_DIGITS + 1) + ".1234567")  # past the bound before too precise
def test_money_from_decimal_matches_the_regex_grammar(text):
    """Both entry points of the one money grammar, the int micros the
    parser reads and the Money that wraps them, match the regex oracle."""
    expected = outcome(regex_money_from_decimal, text)
    assert outcome(money_from_decimal, text) == expected
    micros = outcome(micros_from_decimal, text)
    assert micros == (expected if failed(expected) else expected.micros)
    assert failed(micros) or type(micros) is int


@given(st.integers(0, 10**9), st.one_of(st.integers(0, 620), st.integers(0, 3 * LIMIT)))
@example(0, 0)
@example(-1, 600)  # MONEY_BOUND - 1
@example(0, 600)  # MONEY_BOUND
@example(10**6 - 1, LIMIT + 5)
@example(0, 2 * (LIMIT + 6))
def test_money_renders_exactly_up_to_its_bound(low, digits):
    """The renderer matches ``decimal`` on every amount Money holds, below
    10**600 micros, where plain ``str`` is exact under any digit limit;
    Money refuses every amount from the bound on, far past ``str``'s limit
    too, without rendering it."""
    micros = 10**digits + low
    if micros >= MONEY_BOUND:
        assert outcome(Money, micros) == (PastBound, "an amount, in micros, past the bound 10**600")
        return
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

    # A schedule is checked when it is built, so its own faults raise there.
    def test_non_monotone(self):
        with pytest.raises(NonMonotonePrices):
            sched("A", 2, {1: "0.40", 2: "0.40"})

    def test_duplicate_bidder(self):
        bid = sched("A", 1, {1: "0.40"})
        inst = make_instance(5, 1, ServiceType.SPLITTABLE, [bid, bid])
        with pytest.raises(DuplicateBidder):
            validate_instance(inst)

    def test_oversized_combination(self):
        with pytest.raises(OversizedCombination):
            sched("A", 2, {1: "0.1", 2: "0.2", 3: "0.3"})

    def test_missing_price(self):
        with pytest.raises(MissingPrice):
            sched("A", 3, {1: "0.1", 3: "0.3"})

    def test_availability_above_capacity(self):
        # A schedule that prices every size it offers, checked per instance;
        # one that also lacks the price of size 6 raises that when built.
        inst = make_instance(5, 1, ServiceType.SPLITTABLE, [sched("A", 6, {m: f"0.{m}0" for m in range(1, 7)})])
        with pytest.raises(SeatBoundViolation):
            validate_instance(inst)
        with pytest.raises(MissingPrice):
            sched("A", 6, {m: f"0.{m}0" for m in range(1, 6)})

    def test_concave_flag_rejects_increasing_marginals(self):
        with pytest.raises(NonConcavePrices):
            sched("A", 3, {1: "0.10", 2: "0.15", 3: "0.30"}, concave=True)

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


# What a schedule is built from: the constructor's four arguments.
RawSchedule = namedtuple("RawSchedule", "bidder_id available_seats prices concave")


def check_text_format_fields(schedule: RawSchedule) -> None:
    """The schedule's field rules: an id that is one token of the text
    format, an int availability and a bool concave flag."""
    who = schedule.bidder_id
    if not (isinstance(who, str) and ORACLE_ID_RE.fullmatch(who)):
        raise ValidationError(f"bad bidder id {who!r}: use letters, digits, '_', '.' or '-'")
    if not _plain_int(schedule.available_seats) or not isinstance(schedule.concave, bool):
        raise ValidationError(f"bidder {who}: available_seats must be int and concave bool")


def two_pass_price_series(schedule: RawSchedule, capacity: int) -> list[int]:
    """The schedule's price checks, then its availability within the
    capacity, as separate passes: a list comprehension over the sizes, a
    pairwise comparison, a loop over the keys and a list of marginals.
    With check_text_format_fields, the oracle of the one-pass test below."""
    who = schedule.bidder_id
    top = schedule.available_seats
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
    if not (0 <= top <= capacity):
        raise SeatBoundViolation(f"bidder {who}: available_seats {top} outside [0, {capacity}]")
    return series


@st.composite
def rough_schedules(draw):
    """A capacity and the arguments of a schedule near the edge of
    validity: odd key, price and field types, gaps, extra sizes, flat or
    rising marginals."""
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
    schedule = RawSchedule(
        draw(st.sampled_from(["A"] * 8 + ["x y"])),
        draw(st.sampled_from([available] * 8 + [True, 2.0])),
        prices,
        draw(st.sampled_from([True, False] * 4 + ["no"])),
    )
    return schedule, capacity


def one_bid(schedule, capacity):
    """An instance of one bid at q_r = 1, which any capacity of at least 1 admits."""
    return make_instance(capacity, 1, ServiceType.SPLITTABLE, [schedule])


@settings(max_examples=500)
@given(rough_schedules())
def test_one_pass_validation_raises_the_same_first_violation(case):
    """Building a schedule and checking it in an instance, through the
    validation walk or the engine's compile, gives the oracle's outcome:
    the same exception class and message, or the oracle's series."""
    raw, capacity = case
    fields = outcome(check_text_format_fields, raw)
    series = outcome(lambda s: two_pass_price_series(s, capacity), raw)
    expected = series if fields is None else fields
    assert outcome(lambda s: list(bid_series(one_bid(BidSchedule(*s), capacity))["A"]), raw) == expected
    assert outcome(lambda s: list(full_case([BidSchedule(*s)], capacity).rows[0]), raw) == expected


@settings(max_examples=500)
@given(rough_schedules(), st.integers(1, 7), st.booleans())
@example((RawSchedule("A", 3, {1: Money(1), 2: Money(2), 3: Money(3)}, False), 5), 2, False)
@example((RawSchedule("A", 2, {1: Money(1), 2: Money(3), 3: Money(4)}, False), 5), 2, True)
def test_a_stored_series_never_changes_an_outcome(case, capacity2, through_validation):
    """A schedule checked once, at one capacity or through validation, gives
    at any other capacity what a fresh equal schedule gives: the same
    exception class and message, or the same series.  A schedule that
    cannot be built raises the same error however often it is tried."""
    raw, capacity = case
    built = outcome(lambda s: BidSchedule(*s), raw)
    assert built == outcome(lambda s: BidSchedule(*s), raw)
    if failed(built):
        return
    schedule = built

    def fresh():
        return BidSchedule(schedule.bidder_id, schedule.available_seats, schedule.prices,
                           schedule.concave)

    if through_validation:
        def first_check(s):
            return validate_instance(make_instance(capacity, 1, ServiceType.SPLITTABLE, [s]))
    else:
        def first_check(s):
            return bid_series(one_bid(s, capacity))

    assert outcome(first_check, schedule) == outcome(first_check, fresh())
    assert schedule == fresh() and schedule._series == fresh()._series
    for check in (lambda s: bid_series(one_bid(s, capacity2)),
                  lambda s: list(full_case([s], capacity2).rows[0])):
        assert outcome(check, schedule) == outcome(check, fresh())


@settings(max_examples=500)
@given(
    st.sampled_from([0, 7, 2**64, INT_BOUND - 30]),
    st.lists(st.integers(-2, 4), max_size=6),
    st.booleans(),
)
@example(INT_BOUND - 30, [1, 1, 1], True)  # equal marginals at the bound
@example(0, [0], False)  # one price of 0
@example(0, [3, 0, 1], False)  # a tie
def test_the_price_rule_accepts_what_the_full_check_accepts(base, steps, concave):
    """``_plain_series(s, c)`` is True exactly when the constructor accepts
    the schedule built from series s with flag c; then it keeps s.  Money
    is never negative, so the schedule is built from s shifted by one
    constant, which changes no step."""
    series = [base + step for step in accumulate(steps)]
    low = min(series, default=0)
    prices = {m: Money(price - min(low, 0)) for m, price in enumerate(series, 1)}
    full = outcome(lambda p: BidSchedule("A", len(series), p, concave)._series, prices)
    assert core._plain_series(series, concave) is not failed(full)
    if failed(full):
        assert full[0] in (NonMonotonePrices, NonConcavePrices)
    else:
        assert full == tuple(price.micros for price in prices.values())


def perturb_nothing(instance):
    return perturb_bids(instance, [], 0)


def utility_without_valuations(instance):
    return bidder_utility(instance, {})


# Every entry that takes an instance: each checks it as compiling does.
ENGINE = (CompiledCase, solve_wdp, vcg_charges, exclusion_totals, perturb_nothing,
          utility_without_valuations)
ROUGH_SEATS = st.one_of(st.integers(-1, 6), st.sampled_from([True, 2.0]))
NOT_SCHEDULES = st.sampled_from([None, "A", 3])


@st.composite
def rough_instances(draw):
    """An instance near the edge of validity: seat fields that are out of
    range or not plain ints, a service that is not a ServiceType, and
    ``rough_schedules``' bids that can be built, under ids that repeat,
    with now and then a bid that is not a schedule at all.  (A schedule
    whose id is not one token of the text format cannot be built.)"""
    ids = st.sampled_from(["A", "B"])
    bids = []
    for raw, _ in draw(st.lists(rough_schedules(), max_size=4)):
        built = outcome(lambda s: BidSchedule(*s), raw._replace(bidder_id=draw(ids)))
        if not failed(built):
            bids.append(built)
    at = draw(st.integers(0, len(bids)))
    bids[at:at] = draw(st.lists(NOT_SCHEDULES, max_size=1))
    service = draw(st.sampled_from([*ServiceType, "splittable", None]))
    return AuctionInstance(draw(ROUGH_SEATS), draw(ROUGH_SEATS), service, bids)


@settings(max_examples=500)
@given(rough_instances())
def test_the_engine_rejects_exactly_what_validation_rejects(instance):
    """Whenever validate_instance raises, every entry point of the engine
    raises the same exception class and message; on an instance it
    accepts, none raises a ValidationError."""
    expected = outcome(validate_instance, instance)
    for fn in ENGINE:
        got = outcome(fn, instance)
        if failed(expected):
            assert got == expected, fn.__name__
        else:
            assert not (failed(got) and issubclass(got[0], ValidationError)), fn.__name__


GAP_BIDS = (sched("A", 2, {1: "0.10", 2: "0.30"}), sched("B", 3, {1: "0.20", 2: "0.35", 3: "0.45"}))
BAD_ID = "use letters, digits, '_', '.' or '-'"


@pytest.mark.parametrize(
    "build, expected",
    [
        (lambda: AuctionInstance(5, 2, "splittable", GAP_BIDS),
         (ValidationError, "service must be a ServiceType, got 'splittable'")),
        (lambda: AuctionInstance(5.0, 2, ServiceType.SPLITTABLE, GAP_BIDS),
         (ValidationError, "capacity and requested_seats must be int")),
        (lambda: AuctionInstance(5, True, ServiceType.SPLITTABLE, GAP_BIDS),
         (ValidationError, "capacity and requested_seats must be int")),
        (lambda: AuctionInstance(0, 1, ServiceType.SPLITTABLE, GAP_BIDS),
         (SeatBoundViolation, "capacity 0 must be at least 1")),
        (lambda: AuctionInstance(5, 2, ServiceType.SPLITTABLE,
                                 [*GAP_BIDS, BidSchedule("x y", 1, {1: Money(1)})]),
         (ValidationError, f"bad bidder id 'x y': {BAD_ID}")),
        (lambda: AuctionInstance(5, 2, ServiceType.SPLITTABLE,
                                 [*GAP_BIDS, BidSchedule(["A"], 1, {1: Money(1)})]),
         (ValidationError, f"bad bidder id ['A']: {BAD_ID}")),
    ],
    ids=["str-service", "float-capacity", "bool-request", "capacity-0", "non-token-id", "unhashable-id"],
)
def test_the_engine_raises_what_validation_raises(build, expected):
    """Instances the engine once solved, or failed on with a TypeError,
    although validation rejects them; a bad id now raises when its
    schedule is built."""
    for fn in (validate_instance, *ENGINE):
        assert outcome(lambda _: fn(build()), None) == expected, fn.__name__


@pytest.mark.parametrize("bid", [None, "A", 3])
def test_a_bid_that_is_not_a_schedule_raises_from_every_entry(bid):
    """The one bid walk refuses it, where each entry once raised
    AttributeError."""
    instance = AuctionInstance(5, 2, ServiceType.SPLITTABLE, (*GAP_BIDS, bid))
    expected = (ValidationError, f"each bid must be a BidSchedule, got {type(bid).__name__}")
    for fn in (validate_instance, *ENGINE):
        assert outcome(fn, instance) == expected, fn.__name__


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


@pytest.mark.parametrize("build", [
    lambda: BidSchedule("A", 2, {1: Money(1), 2: Money(2)}),
    lambda: parse_instance("avauction-instance v1\ncapacity 5\nrequested_seats 1\n"
                           "service private\nbidder A available 2 prices 1:1 2:2\n").bids[0],
    lambda: BidSchedule._of_series("A", 2, (1, 2), False),
], ids=["constructor", "parser", "of-micros"])
def test_a_schedule_is_frozen_however_it_is_built(build):
    schedule = build()
    before = repr(schedule)
    for name in ("bidder_id", "available_seats", "concave", "_series", "prices"):
        with pytest.raises(FrozenInstanceError):
            setattr(schedule, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(schedule, name)
    assert repr(schedule) == before


@pytest.mark.parametrize("build", [
    lambda: BidSchedule("A", 2, {1: Money(1), 2: Money(2)}),
    lambda: BidSchedule("A", 0, {}, concave=True),
    lambda: parse_instance("avauction-instance v1\ncapacity 5\nrequested_seats 1\n"
                           "service private\nbidder A available 2 prices 1:1 2:2\n").bids[0],
], ids=["constructor", "empty", "parser"])
@pytest.mark.parametrize("round_trip", [
    lambda value: pickle.loads(pickle.dumps(value)), copy.copy, copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_a_schedule_and_its_instance_survive_pickle_and_copy(build, round_trip):
    """Each once raised FrozenInstanceError from the hand-frozen setter;
    a schedule is now rebuilt through ``_of_series``, frozen as before."""
    schedule = build()
    instance = make_instance(5, 1, ServiceType.SPLITTABLE, [schedule, sched("B", 1, {1: "3"})])
    for value in (schedule, instance):
        again = round_trip(value)
        assert again == value and repr(again) == repr(value)
    again = round_trip(schedule)
    assert again._series == schedule._series and type(again._series) is tuple
    with pytest.raises(FrozenInstanceError):
        again.available_seats = 3


def test_reprs_are_exact_at_the_bound():
    """A valid document's largest price, INT_BOUND - 1 micros, shows every
    digit in the reprs of its schedule, its instance and every amount built
    from it, and so does the largest amount Money holds."""
    instance = parse_instance("avauction-instance v1\ncapacity 5\nrequested_seats 1\n"
                              f"service splittable\nbidder A available 1 prices 1:{TOP_PRICE}\n")
    micros = "9" * 200
    schedule = (f"BidSchedule(bidder_id='A', available_seats=1, "
                f"prices={{1: Money(micros={micros})}}, concave=False)")
    assert repr(instance.bids[0]) == schedule
    assert repr(instance) == (
        "AuctionInstance(capacity=5, requested_seats=1, "
        f"service=<ServiceType.SPLITTABLE: 'splittable'>, bids=({schedule},))"
    )
    assert repr(Money(MONEY_BOUND - 1)) == f"Money(micros={'9' * 600})"
    for amounts in (solve_wdp(instance), vcg_charges(instance)):
        assert f"Money(micros={micros})" in repr(amounts)


# The largest price a valid document holds, INT_BOUND - 1 micros.
TOP_PRICE = "9" * WHOLE_DIGITS + ".999999"
BIG = 10**5000
SPLIT = ServiceType.SPLITTABLE


def _message(error, call):
    """The text of the ``error`` that ``call(big)`` raises."""
    def text(big):
        with pytest.raises(error) as raised:
            call(big)
        return str(raised.value)
    return text


def _checked(capacity, requested, bid):
    return validate_instance(make_instance(capacity, requested, SPLIT, [bid]))


def _one_bid():
    return make_instance(5, 1, SPLIT, [sched("A", 1, {1: "1"})])


@pytest.mark.parametrize("big", [INT_BOUND, BIG], ids=["bound", "5000-digits"])
@pytest.mark.parametrize("text", [
    _message(PastBound, lambda big: BidSchedule("A", 1, {1: Money(big)})),
    _message(PastBound, lambda big: BidSchedule("A", 1, {1: Money(big**3)})),
    _message(PastBound, lambda big: BidSchedule("A", big, {big: Money(1)})),
    _message(PastBound, lambda big: BidSchedule("A", -big, {})),
    _message(PastBound, lambda big: _checked(-big, 1, sched("A", 1, {1: "1"}))),
    _message(PastBound, lambda big: _checked(5, big, sched("A", 1, {1: "1"}))),
    _message(OversizedCombination, lambda big: BidSchedule("A", 1, {1: Money(1), big: Money(2)})),
    _message(PastBound, lambda big: BidSchedule("A", big, {1: Money(1)})),
    _message(OversizedCombination, lambda big: CompiledCase(_one_bid()).price("A", big)),
    _message(PastBound, lambda big: Money(-(big**3))),
    _message(InvalidLaw, lambda big: GenerationLaw(seed=big)),
    _message(InvalidLaw, lambda big: generate_batch(GenerationLaw(seed=1), 1, 5, 1, first_case=-big)),
    _message(InvalidLaw, lambda big: generate_batch(GenerationLaw(seed=1), 1, 5, 1).instance(
        big, SPLIT, 1)),
    _message(InvalidLaw, lambda big: generate_batch(GenerationLaw(seed=1), 1, 5, 1).head(big)),
    _message(PastBound, lambda big: perturb_bids(_one_bid(), [], -big)),
    _message(PastBound, lambda big: perturb_bids(_one_bid(), [], Fraction(-big, 3))),
], ids=["price", "money", "availability-and-size", "availability-outside-bounds",
        "capacity", "request", "size-key", "missing-price", "compiled-price", "negative-money",
        "seed", "first-case", "batch-case", "batch-head", "negative-raise", "negative-ratio"])
def test_an_int_past_the_bound_is_refused_and_never_shown(text, big):
    """Each entry that once showed an int of more than 4300 digits in full
    refuses one past the bound, 10**200 for an instance's ints and 10**600
    for an amount, with an error that names it only as past the bound."""
    message = text(big)
    assert "past the bound" in message and not re.search(r"\d{201}", message)


def test_a_checked_schedule_equals_an_unchecked_one(e1):
    """A schedule the constructor checked equals the one the parser builds
    from the same line with no second check, and shows the same repr."""
    checked = validate_instance(e1)
    unchecked = parse_instance(serialize_instance(e1))
    assert checked == unchecked
    for bid, parsed in zip(checked.bids, unchecked.bids):
        assert bid == parsed and repr(bid) == repr(parsed) and bid._series == parsed._series


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
