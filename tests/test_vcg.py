from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings

from avauction import (
    BidSchedule,
    CompiledCase,
    FallbackReport,
    MissingValuation,
    Money,
    NonConcavePrices,
    NotServed,
    SeatBoundViolation,
    ServiceType,
    UnknownBidder,
    ValidationError,
    ZeroBaseline,
    GenerationLaw,
    bidder_utility,
    change_of_charge,
    change_of_payment,
    charge_identity_holds,
    generate_batch,
    money_from_decimal,
    parse_instance,
    perturb_bids,
    serialize_instance,
    solve_wdp,
    validate_instance,
    vcg_charges,
)

from avauction import vcg

from conftest import full_report, make_instance, outcome, sched, small_instances


def charges_by_id(report):
    return {e.bidder_id: e.charge.micros for e in report.per_bidder}


def pivotals_by_id(report):
    return {e.bidder_id: (None if e.pivotal is None else e.pivotal.micros) for e in report.per_bidder}


class TestChargeReports:
    def test_e1_splittable(self, e1):
        report = vcg_charges(e1)
        assert report.optimum == money_from_decimal("0.78")
        assert pivotals_by_id(report) == {"A": 780_000, "B": 900_000}
        assert charges_by_id(report) == {"A": 0, "B": 900_000}
        assert report.total_charge == money_from_decimal("0.90")
        assert not report.fallback
        assert charge_identity_holds(report)

    def test_e2_splittable(self, e2):
        report = vcg_charges(e2)
        assert charges_by_id(report) == {"A": 600_000, "B": 600_000, "C": 0}
        assert report.total_charge == money_from_decimal("1.20")
        # total decomposes as p* plus the pivotal gaps: 0.78 + 0.22 + 0.20 + 0
        assert charge_identity_holds(report)

    def test_e1_private_fallback(self, e1):
        report = vcg_charges(e1.with_service(ServiceType.PRIVATE))
        assert report.fallback
        assert report.total_charge == money_from_decimal("1.15")
        assert charges_by_id(report)["A"] == 1_150_000  # its own winning bid
        assert not charge_identity_holds(report)  # the identity holds only without fallback
        assert pivotals_by_id(report)["A"] is None
        assert charges_by_id(report)["B"] == 0

    def test_unservable_raises(self):
        inst = make_instance(5, 3, ServiceType.PRIVATE, [sched("A", 2, {1: "0.1", 2: "0.2"})])
        with pytest.raises(NotServed):
            vcg_charges(inst)

    def test_charge_covers_own_winning_bid(self, e1, e2):
        for base in (e1, e2):
            for svc in ServiceType:
                inst = base.with_service(svc)
                if solve_wdp(inst) is None:
                    continue
                report = vcg_charges(inst)
                schedules = {b.bidder_id: b for b in inst.bids}
                for bidder_id, size in report.winner_allocation.assignments:
                    own = schedules[bidder_id].prices[size]
                    assert report.charge_of(bidder_id) >= own

    def test_modes_agree(self, e2):
        for svc in ServiceType:
            inst = e2.with_service(svc)
            batched = vcg_charges(inst)
            independent = vcg_charges(inst, independent_solves=True)
            assert batched == independent


class TestUtilities:
    def test_truthful_utilities(self, e1):
        valuations = {b.bidder_id: b for b in e1.bids}
        assert bidder_utility(e1, valuations) == {"A": 0, "B": 120_000}

    def test_winner_overbid_keeps_charge_and_utility(self, e1):
        # B asks 0.85 for 3 seats while valuing them at 0.78: still wins,
        # charge stays 0.90, so its utility is unchanged
        valuations = {b.bidder_id: b for b in e1.bids}
        overbid = make_instance(
            5, 3, ServiceType.SPLITTABLE,
            [valuations["A"], sched("B", 3, {1: "0.30", 2: "0.55", 3: "0.85"})],
        )
        assert vcg_charges(overbid).charge_of("B") == money_from_decimal("0.90")
        assert bidder_utility(overbid, valuations) == {"A": 0, "B": 120_000}

    def test_missing_valuation(self, e1):
        with pytest.raises(MissingValuation):
            bidder_utility(e1, {"A": e1.bids[0]})
        # a valuation of fewer sizes than the bid (one of 3 sizes with only
        # size 1 priced cannot be built)
        partial = sched("B", 1, {1: "0.30"})
        with pytest.raises(MissingValuation, match=r"^bidder B: valuation lacks sizes \[2, 3\]$"):
            bidder_utility(e1, {"A": e1.bids[0], "B": partial})

    @pytest.mark.parametrize("value", [3, {1: "0.30"}, "B"])
    def test_a_valuation_that_is_not_a_schedule_is_refused(self, e1, value):
        with pytest.raises(ValidationError, match=(
                rf"^bidder B: valuation must be a BidSchedule, got {type(value).__name__}$")):
            bidder_utility(e1, {"A": e1.bids[0], "B": value})


class TestPerturbation:
    def test_half_up_scaling(self, e1):
        raised = perturb_bids(e1, {"B"}, "0.5")
        prices = raised.bids[1].prices
        assert raised.bidder_ids() == ("A", "B")
        assert [prices[m].micros for m in (1, 2, 3)] == [450_000, 825_000, 1_170_000]
        assert raised.bids[0] is e1.bids[0]
        validate_instance(raised)

    def test_zero_raise_is_identity(self, e1):
        assert perturb_bids(e1, {"A", "B"}, 0) == e1

    def test_unknown_target(self, e1):
        with pytest.raises(UnknownBidder):
            perturb_bids(e1, {"Z"}, "0.1")

    def test_negative_raise_rejected(self, e1):
        with pytest.raises(ValidationError):
            perturb_bids(e1, {"B"}, "-0.1")

    def test_monotonicity_survives_rounding(self):
        inst = make_instance(5, 1, ServiceType.SPLITTABLE,
                             [sched("A", 3, {1: "0.000001", 2: "0.000002", 3: "0.000003"})])
        raised = perturb_bids(inst, {"A"}, Fraction(1, 10))
        validate_instance(raised)

    def test_concave_flag_dropped_when_rounding_breaks_marginals(self):
        # marginals 5,5,5 micros scale to 7.5: rounding makes them 8,7,8
        inst = make_instance(
            5, 1, ServiceType.SPLITTABLE,
            [sched("A", 4, {1: "0.000005", 2: "0.000010", 3: "0.000015", 4: "0.000020"}, concave=True)],
        )
        raised = perturb_bids(inst, {"A"}, Fraction(1, 2))
        assert not raised.bids[0].concave
        validate_instance(raised)

    def test_a_raised_schedule_equals_the_checked_one(self):
        inst = make_instance(5, 1, ServiceType.SPLITTABLE,
                             [sched("A", 3, {2: "0.55", 1: "0.3", 3: "0.78"}, concave=True)])
        raised = perturb_bids(inst, {"A"}, "0.1").bids[0]
        checked = BidSchedule("A", 3, raised.prices, concave=True)
        assert raised == checked and raised.concave
        assert raised._series == checked._series == (330_000, 605_000, 858_000)

    # A target that validation rejects for its own prices cannot be built,
    # so it raises there, before ``perturb_bids`` or validation sees it.
    def test_a_target_price_that_is_not_money_raises_as_validation_does(self):
        def build():
            return make_instance(5, 1, ServiceType.SPLITTABLE,
                                 [BidSchedule("A", 2, {1: Money(1), 2: 5})])
        raised = outcome(lambda b: perturb_bids(b(), {"A"}, "0.1"), build)
        assert raised[0] is ValidationError
        assert raised == outcome(lambda b: validate_instance(b()), build)

    def test_a_target_with_a_broken_concave_flag_raises_as_validation_does(self):
        # marginals 0.25 then 0.35: the flag is wrong before any raise
        def build():
            return make_instance(5, 1, ServiceType.SPLITTABLE,
                                 [sched("A", 3, {1: "0.3", 2: "0.55", 3: "0.9"}, concave=True)])
        raised = outcome(lambda b: perturb_bids(b(), {"A"}, "0.1"), build)
        assert raised[0] is NonConcavePrices
        assert raised == outcome(lambda b: validate_instance(b()), build)

    @pytest.mark.parametrize("targets", [{"A"}, {"B"}, set()], ids=["target", "other", "none"])
    def test_a_bid_past_the_capacity_raises_as_validation_does(self, targets):
        """Every bid is walked first, whether it is raised or not."""
        inst = make_instance(2, 1, ServiceType.SPLITTABLE,
                             [sched("A", 3, {1: "0.3", 2: "0.55", 3: "0.78"}),
                              sched("B", 1, {1: "0.2"})])
        raised = outcome(lambda i: perturb_bids(i, targets, "0.1"), inst)
        assert raised == (SeatBoundViolation, "bidder A: available_seats 3 outside [0, 2]")
        assert raised == outcome(validate_instance, inst)

    @pytest.mark.parametrize("fields", [dict(capacity=None), dict(requested_seats="1"),
                                        dict(capacity=0), dict(service="splittable")])
    def test_an_instance_with_bad_fields_raises_as_validation_does(self, e1, fields):
        inst = replace(e1, **fields)
        raised = outcome(lambda i: perturb_bids(i, {"A"}, "0.1"), inst)
        assert issubclass(raised[0], ValidationError)
        assert raised == outcome(validate_instance, inst)

    def test_winner_flip_under_large_raise(self, e1):
        base = vcg_charges(e1)
        raised = vcg_charges(perturb_bids(e1, {"B"}, "0.5"))
        assert raised.winner_allocation.assignments == (("A", 3),)
        assert raised.total_charge == money_from_decimal("1.17")
        assert change_of_charge(base, raised) == Fraction(3, 10)

    def test_small_raise_keeps_winner_and_charge(self, e1):
        base = vcg_charges(e1)
        raised = vcg_charges(perturb_bids(e1, {"B"}, "0.09"))
        assert raised.winner_allocation.winner_ids() == ("B",)
        assert raised.charge_of("B") == base.charge_of("B") == money_from_decimal("0.90")


class TestChangeRatios:
    def test_change_of_charge_zero(self, e1):
        report = vcg_charges(e1)
        assert change_of_charge(report, report) == 0

    def test_change_of_charge_service_mismatch(self, e1):
        split = vcg_charges(e1)
        private = vcg_charges(e1.with_service(ServiceType.PRIVATE))
        with pytest.raises(ValidationError):
            change_of_charge(split, private)

    def test_change_of_payment_values(self, e1, e2):
        assert change_of_payment(vcg_charges(e1)) == Fraction(2, 13)   # 0.1538...
        assert change_of_payment(vcg_charges(e2)) == Fraction(7, 13)   # 0.5385...

    def test_change_of_payment_fallback_rejected(self, e1):
        with pytest.raises(FallbackReport):
            change_of_payment(vcg_charges(e1.with_service(ServiceType.PRIVATE)))

    def test_zero_baseline(self):
        inst = make_instance(
            5, 1, ServiceType.SPLITTABLE,
            [sched("A", 1, {1: "0"}), sched("B", 1, {1: "0.1"})],
        )
        report = vcg_charges(inst)
        assert report.optimum.micros == 0
        with pytest.raises(ZeroBaseline):
            change_of_payment(report)
        # Twin zero bids: the winner's pivotal is the other's 0, so the total is 0.
        twins = vcg_charges(make_instance(
            5, 1, ServiceType.SPLITTABLE, [sched("A", 1, {1: "0"}), sched("B", 1, {1: "0"})],
        ))
        assert twins.total_charge.micros == 0
        with pytest.raises(ZeroBaseline, match="^truthful total charge is zero$"):
            change_of_charge(twins, report)

    def test_no_bidder_pivotal_means_zero_premium(self):
        # twin cheapest offers: excluding either leaves the optimum intact
        inst = make_instance(
            5, 1, ServiceType.SPLITTABLE,
            [sched("A", 1, {1: "0.2"}), sched("B", 1, {1: "0.2"})],
        )
        assert change_of_payment(vcg_charges(inst)) == 0


def test_raising_losing_bids_never_lowers_the_total(e1):
    # a losing bid can only raise the winners' pivotal values
    base = vcg_charges(e1)
    raised = vcg_charges(perturb_bids(e1, {"A"}, "0.05"))
    assert raised.winner_allocation.winner_ids() == ("B",)
    assert change_of_charge(base, raised) == Fraction(1, 20)


def test_truthful_sweep_invariants():
    """Over generated cases: truthful utilities are never negative, winners'
    charges cover their accepted bids, and non-winners pay and receive zero."""
    from avauction import GenerationLaw, generate_batch

    batch = generate_batch(GenerationLaw(seed=2024), bidders=6, capacity=5, cases=40)
    checked = 0
    for i in range(batch.case_count):
        for svc in ServiceType:
            for q in (1, 2, 3, 4, 5):
                inst = batch.instance(i, svc, q)
                if solve_wdp(inst) is None:
                    continue
                schedules = {b.bidder_id: b for b in inst.bids}
                report = vcg_charges(inst)
                winners = dict(report.winner_allocation.assignments)
                for bidder_id, utility in bidder_utility(inst, schedules).items():
                    assert utility >= 0
                    if bidder_id in winners:
                        own = schedules[bidder_id].prices[winners[bidder_id]]
                        assert report.charge_of(bidder_id) >= own
                    else:
                        assert report.charge_of(bidder_id).micros == 0
                        assert utility == 0
                checked += 1
    assert checked > 400


def test_raised_co_winner_can_lower_the_total_in_thin_markets():
    """A winner that raises its bid and still wins lowers its co-winners'
    charges one for one: their pivotal values stay pinned by alternatives
    that exclude the raiser, while the raised bid enters the welfare term
    being subtracted.  This is why the nonnegative-change observation only
    holds in competitive markets, where any material raise flips the winner
    out of the allocation."""
    inst = make_instance(
        5, 5, ServiceType.SPLITTABLE,
        [
            sched("expensive", 5, {1: "0.80", 2: "1.50", 3: "2.10", 4: "2.60", 5: "3.00"}),
            sched("solo", 5, {1: "0.44", 2: "0.79", 3: "1.07", 4: "1.30", 5: "1.48"}),
            sched("tiny", 1, {1: "0.21"}),
            sched("quad", 4, {1: "0.22", 2: "0.40", 3: "0.54", 4: "0.66"}),
        ],
    )
    base = vcg_charges(inst)
    assert set(base.winner_allocation.winner_ids()) == {"tiny", "quad"}
    raised = vcg_charges(perturb_bids(inst, {"tiny"}, "0.2"))
    assert set(raised.winner_allocation.winner_ids()) == {"tiny", "quad"}
    assert raised.charge_of("tiny") == base.charge_of("tiny")  # own raise never helps
    assert raised.charge_of("quad") < base.charge_of("quad")
    assert change_of_charge(base, raised) < 0


@pytest.mark.parametrize("service", list(ServiceType))
def test_huge_prices_are_not_mistaken_for_infeasible(service):
    # A's prices sit at and above 2**62 micros; excluding the cheap winner B
    # leaves A to serve the request, so no path may report a fallback.
    inst = make_instance(
        2, 1, service,
        [
            BidSchedule("A", 2, {1: Money(2**62), 2: Money(2**62 + 1)}),
            BidSchedule("B", 2, {1: Money(1), 2: Money(2)}),
        ],
    )
    validate_instance(inst)
    report = vcg_charges(inst)
    assert not report.fallback
    assert report == vcg_charges(inst, independent_solves=True)
    assert report.charge_of("B").micros == (2**62 if service is not ServiceType.PRIVATE else 2**62 + 1)


def _lean_and_full(case, instance, pivotal):
    allocation = case.solve(instance.service, instance.requested_seats)
    lean = vcg._report(case, instance.service, allocation, pivotal)
    full = full_report(case, instance.service, allocation, pivotal)
    return {name: getattr(lean, name) for name in full}, full, lean


def test_lean_reports_rebuild_the_full_per_bidder_tuple():
    """From the engine's winner-only exclusions and from every bidder's
    literal solve, the lean report's fields and rebuilt ``per_bidder`` equal
    those of the report that built one entry per bidder."""
    twins = make_instance(5, 1, ServiceType.SPLITTABLE,
                          [sched("A", 1, {1: "0"}), sched("B", 1, {1: "0"})])
    batch = generate_batch(GenerationLaw(seed=77), bidders=8, capacity=5, cases=12)
    instances = [twins] + [
        batch.instance(i, svc, q)
        for i in range(batch.case_count) for svc in ServiceType for q in range(1, 6)
    ]
    checked = 0
    for instance in instances:
        case = CompiledCase(instance)
        allocation = case.solve(instance.service, instance.requested_seats)
        if allocation is None:
            continue
        engine = case.winner_exclusions(instance.service, allocation)
        for pivotal in (engine, vcg._independent_pivotals(instance)):
            fields, full, lean = _lean_and_full(case, instance, pivotal)
            assert fields == full
            assert lean.bidder_ids is case.ids
            assert all(e.pivotal != lean.optimum or e.charge.micros for e in lean.listed)
        checked += 1
    assert checked > 150
    # a zero-priced winner whose exclusion costs p* pays 0 and is not listed
    report = vcg_charges(twins)
    assert report.winner_allocation.winner_ids() == ("A",) and report.listed == ()
    assert report.charge_of("A") == Money(0)


def test_a_non_winner_off_the_optimum_makes_the_reports_unequal(e2, monkeypatch):
    """A literal solve that puts one non-winner's exclusion total 1 micro
    above p* must surface as a report that differs from the engine's."""
    assert vcg_charges(e2, independent_solves=True) == vcg_charges(e2)
    original = vcg._independent_pivotals

    def shifted(instance):
        totals = original(instance)
        totals["C"] += 1  # C does not win in e2
        return totals

    monkeypatch.setattr(vcg, "_independent_pivotals", shifted)
    oracle, engine = vcg_charges(e2, independent_solves=True), vcg_charges(e2)
    assert oracle != engine
    assert oracle.per_bidder != engine.per_bidder


def test_charge_of_reads_listed_then_bidder_ids(e2):
    report = vcg_charges(e2)
    assert [e.bidder_id for e in report.listed] == ["A", "B"]
    assert report.bidder_ids == ("A", "B", "C")
    assert report.charge_of("A") == Money(600_000)
    assert report.charge_of("C") == Money(0)
    with pytest.raises(UnknownBidder):
        report.charge_of("Z")


ZERO_PRICED_WINNERS = {
    # A sole bidder at 0: its exclusion leaves no supply.
    "sole": (
        make_instance(5, 1, ServiceType.SPLITTABLE, [sched("A", 1, {1: "0"})]),
        {"A": None}, {"A": 0},
    ),
    # A and B split 2 seats at 0; without B, A cannot cover them.
    "co-winner": (
        make_instance(5, 2, ServiceType.SPLITTABLE,
                      [sched("A", 1, {1: "0"}), sched("B", 2, {1: "0", 2: "1"})]),
        {"A": 1_000_000, "B": None}, {"A": 1_000_000, "B": 0},
    ),
    # A one-seat vehicle hired whole from its only bidder.
    "private": (
        make_instance(1, 1, ServiceType.PRIVATE, [sched("A", 1, {1: "0"})]),
        {"A": None}, {"A": 0},
    ),
}


@pytest.mark.parametrize("name", ZERO_PRICED_WINNERS)
def test_a_winner_bidding_0_whose_exclusion_is_unservable_is_a_fallback(name):
    """A bidder won because the allocation holds it, not because it bid
    more than 0: such a report once raised an AssertionError."""
    instance, pivotals, charges = ZERO_PRICED_WINNERS[name]
    report = vcg_charges(instance)
    assert report.optimum == Money(0)
    assert pivotals_by_id(report) == pivotals
    assert charges_by_id(report) == charges
    assert report.fallback and report.total_charge == Money(0)
    assert report == vcg_charges(instance, independent_solves=True)
    fields, full, _ = _lean_and_full(CompiledCase(instance), instance,
                                     vcg._independent_pivotals(instance))
    assert fields == full


@settings(deadline=None)
@given(small_instances())
def test_engine_and_literal_solves_agree_when_prices_may_be_0(instance):
    """The engine's report equals the literal per-bidder solves' and the
    one-entry-per-bidder report, on instances whose bidders may bid 0."""
    if solve_wdp(instance) is None:
        return
    report = vcg_charges(instance)
    assert report == vcg_charges(instance, independent_solves=True)
    case = CompiledCase(instance)
    pivotal = case.winner_exclusions(instance.service, report.winner_allocation)
    fields, full, _ = _lean_and_full(case, instance, pivotal)
    assert fields == full


def test_no_money_is_built_per_price_on_the_hot_paths(monkeypatch):
    """Parsing and validating a K = 1000 document and drawing a K = 1000
    batch build no Money at all: prices are int micros from the text or
    the draw.  Charging builds only the report's own Money."""
    text = serialize_instance(
        generate_batch(GenerationLaw(seed=3), 1000, 5, 1).instance(0, ServiceType.SPLITTABLE, 3)
    )
    built = []
    check = Money.__post_init__

    def counting(money):
        built.append(money)
        check(money)

    monkeypatch.setattr(Money, "__post_init__", counting)
    instance = validate_instance(parse_instance(text))
    generate_batch(GenerationLaw(seed=4), 1000, 5, 1)
    assert built == []
    report = vcg_charges(instance)
    own = [report.winner_allocation.total_bid, report.total_charge]
    for entry in report.listed:
        own += [entry.charge] if entry.pivotal is None else [entry.charge, entry.pivotal]
    assert report.listed and Counter(map(id, built)) == Counter(map(id, own))
