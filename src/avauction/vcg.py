"""Pivotal (VCG) charges, bidder utilities, and bid-perturbation tooling.

Each bidder's charge is its pivotal value minus the welfare the others get
at the chosen allocation; non-winners always land on exactly zero.  When a
winning bidder cannot be excluded (the remaining bids cannot serve the
request) the report falls back to the optimal totals: that bidder is charged
its winning bid and the customer pays the optimum, mirroring how single-
bidder markets have to be settled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from .core import (
    BOUND_DIGITS, INT_BOUND, AuctionError, AuctionInstance, BidSchedule, Money, OversizedRatio,
    ServiceType, UnknownBidder, ValidationError, _past, as_fraction, bid_series, round_half_up,
)
from .wdp import Allocation, CompiledCase, solve_wdp


class NotServed(AuctionError):
    """The instance itself is unservable, so there is nothing to charge."""


class MissingValuation(AuctionError):
    pass


class ZeroBaseline(AuctionError):
    pass


class FallbackReport(AuctionError):
    pass


@dataclass(frozen=True)
class BidderCharge:
    """One bidder's pivotal value and final charge.

    ``pivotal`` is None when removing the bidder makes the request
    unservable; that can only happen to winners.
    """

    bidder_id: str
    pivotal: Optional[Money]
    charge: Money


@dataclass(frozen=True)
class ChargeReport:
    """One request's charges; the optimum p* is ``winner_allocation``'s total.

    ``listed`` holds, in id order, only the entries that differ from a
    non-winner's (pivotal p*, charge 0); every other bidder of
    ``bidder_ids`` (all bidders, in id order) has that entry.  The shape is
    canonical: two reports with equal other fields are equal exactly when
    their ``per_bidder`` tuples are.  ``total_charge`` is kept, not derived,
    for ``charge_identity_holds`` to check.
    """

    service: ServiceType
    winner_allocation: Allocation
    listed: tuple[BidderCharge, ...]
    bidder_ids: tuple[str, ...]
    total_charge: Money

    @property
    def optimum(self) -> Money:
        return self.winner_allocation.total_bid

    @property
    def fallback(self) -> bool:
        """Whether a winner's exclusion is unservable (its entry is listed)."""
        return any(entry.pivotal is None for entry in self.listed)

    @property
    def per_bidder(self) -> tuple[BidderCharge, ...]:
        """Every bidder's entry, in id order."""
        listed = {entry.bidder_id: entry for entry in self.listed}
        zero = Money(0)
        return tuple(
            listed.get(bidder_id) or BidderCharge(bidder_id, self.optimum, zero)
            for bidder_id in self.bidder_ids
        )

    def charge_of(self, bidder_id: str) -> Money:
        for entry in self.listed:
            if entry.bidder_id == bidder_id:
                return entry.charge
        if bidder_id in self.bidder_ids:
            return Money(0)
        raise UnknownBidder(bidder_id)


def _independent_pivotals(instance: AuctionInstance) -> dict[str, Optional[int]]:
    """Every bidder's exclusion total from its own literal solve."""
    totals: dict[str, Optional[int]] = {}
    for bidder_id in sorted(instance.bidder_ids()):
        alloc = solve_wdp(instance.without_bidder(bidder_id))
        totals[bidder_id] = None if alloc is None else alloc.total_bid.micros
    return totals


def vcg_charges(instance: AuctionInstance, *, independent_solves: bool = False) -> ChargeReport:
    """Compute the full charge report for a servable instance.

    Pivotal values come from the instance's compiled case by default;
    ``independent_solves=True`` runs the literal per-bidder exclusion solves
    instead, as an oracle.  Both paths produce identical reports.
    """
    case = CompiledCase(instance)
    allocation = case.solve(instance.service, instance.requested_seats)
    if allocation is None:
        raise NotServed("instance is unservable; no charges to compute")
    if independent_solves:
        pivotal = _independent_pivotals(instance)
    else:
        pivotal = case.winner_exclusions(instance.service, allocation)
    return _report(case, instance.service, allocation, pivotal)


def case_charges(
    case: CompiledCase, service: ServiceType, requested_seats: int
) -> Optional[ChargeReport]:
    """The charge report of one request on a compiled case, or None when
    the request is unservable."""
    allocation = case.solve(service, requested_seats)
    if allocation is None:
        return None
    return _report(case, service, allocation, case.winner_exclusions(service, allocation))


def _report(
    case: CompiledCase,
    service: ServiceType,
    allocation: Allocation,
    pivotal: Mapping[str, Optional[int]],
) -> ChargeReport:
    """Assemble the report.  A bidder missing from ``pivotal`` is a
    non-winner whose exclusion total is the optimum, so it pays exactly 0.
    Only entries other than that (p*, 0) are listed, whether ``pivotal``
    holds them or not."""
    p_star = allocation.total_bid.micros
    winning_amount = {
        bidder_id: case.price(bidder_id, size) for bidder_id, size in allocation.assignments
    }
    listed: list[BidderCharge] = []
    total = 0
    for bidder_id, piv in pivotal.items():
        own = winning_amount.get(bidder_id, 0)
        if piv is None:
            if bidder_id not in winning_amount:
                raise AssertionError(
                    f"non-winner {bidder_id} cannot make the request unservable"
                )
            charge = own
        else:
            charge = piv - (p_star - own)
            if charge < 0:
                raise AssertionError(
                    f"negative charge for {bidder_id}: exclusion beat the optimum"
                )
        total += charge
        if piv != p_star or charge:
            listed.append(BidderCharge(
                bidder_id=bidder_id,
                pivotal=None if piv is None else Money(piv),
                charge=Money(charge),
            ))
    listed.sort(key=lambda entry: entry.bidder_id)
    return ChargeReport(
        service=service,
        winner_allocation=allocation,
        listed=tuple(listed),
        bidder_ids=case.ids,
        total_charge=Money(p_star if None in pivotal.values() else total),
    )


def charge_identity_holds(report: ChargeReport) -> bool:
    """Exact check of total = p* + sum_k (pivotal_k - p*) for non-fallback reports."""
    if report.fallback:
        return False
    p_star = report.optimum.micros
    expected = p_star + sum(e.pivotal.micros - p_star for e in report.listed)
    return report.total_charge.micros == expected


def bidder_utility(
    instance: AuctionInstance, valuations: Mapping[str, BidSchedule]
) -> dict[str, int]:
    """Each bidder's utility in micros, charge minus served valuation (may
    be negative); the instance is checked first, as compiling checks it."""
    series = bid_series(instance)
    for bidder_id, prices in series.items():
        val = valuations.get(bidder_id)
        if val is None:
            raise MissingValuation(f"no valuation schedule for bidder {bidder_id}")
        if not isinstance(val, BidSchedule):
            raise ValidationError(
                f"bidder {bidder_id}: valuation must be a BidSchedule, got {type(val).__name__}"
            )
        if len(val._series) < len(prices):
            missing = list(range(len(val._series) + 1, len(prices) + 1))
            raise MissingValuation(f"bidder {bidder_id}: valuation lacks sizes {missing}")
    report = vcg_charges(instance)
    assigned = dict(report.winner_allocation.assignments)
    utilities: dict[str, int] = {}
    for bidder_id in sorted(series):
        size = assigned.get(bidder_id)
        if size is None:
            utilities[bidder_id] = 0
        else:
            served_value = valuations[bidder_id]._series[size - 1]
            utilities[bidder_id] = report.charge_of(bidder_id).micros - served_value
    return utilities


def perturb_bids(
    instance: AuctionInstance,
    targets: Iterable[str],
    raise_fraction: Union[Fraction, int, str, float],
) -> AuctionInstance:
    """Scale every price of the targeted bidders by (1 + raise_fraction).

    The instance is checked first, as compiling checks it (``bid_series``,
    which gives each target's series), then the fraction's terms against
    the bound, the targets, and each raised series against the bound
    (PastBound).  Scaled prices are rounded half-up to micro-units; strict
    monotonicity survives any non-negative raise, but micro-rounding can
    break an exact diminishing-marginals pattern, so a raised schedule
    keeps the concave flag only when the price rule accepts its series
    with the flag.
    """
    checked = bid_series(instance)
    try:
        fraction = as_fraction(raise_fraction, BOUND_DIGITS)
    except OversizedRatio:
        raise _past("raise_fraction") from None
    if fraction < 0:
        raise ValidationError(f"raise_fraction must be non-negative, got {fraction}")
    target_set = set(targets)
    unknown = target_set - checked.keys()
    if unknown:
        raise UnknownBidder(", ".join(sorted(unknown)))
    factor = 1 + fraction
    p, q = factor.numerator, factor.denominator
    new_bids = []
    for sched in instance.bids:
        who, top = sched.bidder_id, sched.available_seats
        if who in target_set:
            series = tuple([round_half_up(micros * p, q) for micros in checked[who]])
            if series and series[-1] >= INT_BOUND:  # the last price is the largest
                raise _past(f"bidder {who}: raised price, in micros,")
            sched = (BidSchedule._of_series(who, top, series, sched.concave)
                     or BidSchedule._of_series(who, top, series, False))
        new_bids.append(sched)
    return AuctionInstance(
        capacity=instance.capacity,
        requested_seats=instance.requested_seats,
        service=instance.service,
        bids=tuple(new_bids),
    )


def change_of_charge(truthful: ChargeReport, perturbed: ChargeReport) -> Fraction:
    """(perturbed total - truthful total) / truthful total, as an exact rational."""
    if truthful.service is not perturbed.service:
        raise ValidationError(
            f"reports compare different services: {truthful.service.value} vs {perturbed.service.value}"
        )
    base = truthful.total_charge.micros
    if base == 0:
        raise ZeroBaseline("truthful total charge is zero")
    return Fraction(perturbed.total_charge.micros - base, base)


def change_of_payment(report: ChargeReport) -> Fraction:
    """(total charge - p*) / p*: the premium the charging rule adds over the optimum."""
    if report.fallback:
        raise FallbackReport("change of payment is undefined for fallback reports")
    p_star = report.optimum.micros
    if p_star == 0:
        raise ZeroBaseline("optimum is zero")
    return Fraction(report.total_charge.micros - p_star, p_star)
