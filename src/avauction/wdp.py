"""Exact winner determination for the three service types, over compiled cases.

A ``CompiledCase`` holds one instance's bids as checked integer price rows
in bidder-id order, and answers every (service, requested seats) query up to
the instance's request from tables built lazily, once, and as wide as that
request or the seats the rows offer, whichever is smaller:
for splittable requests the minimal (cost, count) covers of each seat count
by the bidders after i (suffix) and before j (prefix), each packed into one
int, cost * (width + 1) + count, whose int order is (cost, count) order; for
the single-vehicle services the two first offers of each size, since
strictly increasing prices make exactly the requested size optimal.  Each
size's offers are ranked once per case by (price, bidder id),
``_first_offers``, as many as the widest reader takes: the single vehicle
its first two, the splittable tables the rows below.

The splittable tables hold only the rows that can win.  Rank the offers of
each size m <= W, the table width, by (price, bidder id).  A cover of at
most W seats with an offer of size m has at most W - m other winners.  If
that offer is not among the W - m + 1 first, one of those belongs to no
winner, and swapping it in is cheaper, or as cheap with a smaller sorted
(bidder_id, size) list.  So the tie-broken optimum uses only the W - m + 1
first offers of each size.  Excluding a winner frees one place, so the
W - m + 2 first hold an optimum of every winner's exclusion too.  The tables
are built over the rows of those offers, in id order: at most W(W + 3)/2
rows, at any number of bidders.

Exclusion totals then need no further dynamic program: the replacement-paths
idea of Hershberger & Suri ("Vickrey prices and shortest paths", FOCS 2001),
applied across requests as well as across bidders.  A non-winner's exclusion
total is the optimum p*, because the chosen allocation stays feasible
without it; a splittable winner's joins the kept rows' prefix before it to
their suffix after it; a single-vehicle winner's is the second offer of
its size.
``None`` marks an unservable request; no sentinel price stands in for it.

``solve_wdp`` and ``exclusion_totals`` are views over a case compiled from
their instance.  A schedule is checked when it is built, so compiling
makes only the checks that depend on the instance and reads each series
as it is; the rows are those shared, immutable series.  The literal
enumeration oracle that keeps the engine honest lives with the tests.

All solvers return ``None`` exactly when ``CompiledCase.servable`` is false
(a split asks more seats than the bids offer, or no one bidder offers the
single vehicle's size), and break ties deterministically: lowest total, then
fewest assignments, then the lexicographically smallest sorted (bidder_id, size) list.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .core import (
    AuctionInstance, Money, OversizedCombination, ServiceType, UnknownBidder, _is_int, _shown,
    bid_series, check_request,
)


@dataclass(frozen=True)
class Allocation:
    """The winner set: (bidder_id, size) pairs and their exact total bid."""

    assignments: tuple[tuple[str, int], ...]
    total_bid: Money

    def winner_ids(self) -> tuple[str, ...]:
        return tuple(b for b, _ in self.assignments)

    def seat_total(self) -> int:
        return sum(size for _, size in self.assignments)


def _cover_table(rows: Iterable[Sequence[int]], width: int) -> list[list[Optional[int]]]:
    """table[i][s]: the minimal (cost, count) covering exactly s <= width
    seats with the first i rows, one size or nothing from each, packed as
    cost * (width + 1) + count; None if no cover.  Every row in a cover
    gives at least one seat, so count <= s < width + 1: int order is
    (cost, count) order, and ``// (width + 1)`` recovers the cost."""
    scale = width + 1
    prev: list[Optional[int]] = [0] + [None] * width
    table = [prev]
    for prices in rows:
        cur = prev[:]  # contribute nothing
        for m, price in enumerate(prices[:width], 1):
            offer = price * scale + 1
            for s, rest in enumerate(prev[: scale - m], m):
                if rest is not None:
                    cand = offer + rest
                    best = cur[s]
                    if best is None or cand < best:
                        cur[s] = cand
        table.append(cur)
        prev = cur
    return table


def _first_offers(rows: Sequence[Sequence[int]], size: int, n: int) -> list[tuple[int, int]]:
    """The n first (price, row) pairs, ascending, among the rows that offer
    exactly ``size`` seats, or all of them when fewer do.  Each offer is
    ranked packed into one int, price * len(rows) + row, whose int order is
    (price, row) order since row < len(rows): a tie in price goes to the
    smaller row, which is the smaller bidder id."""
    scale = len(rows)
    packed = [prices[size - 1] * scale + i for i, prices in enumerate(rows) if len(prices) >= size]
    return [divmod(offer, scale) for offer in sorted(packed)[:n]]


class CompiledCase:
    """One instance's bids, compiled once and queried for any service and
    any q_r up to the instance's request, ``width``.

    A case is built only from an instance, with the one check
    ``validate_instance`` makes, ``bid_series``, so it raises the first
    violation that validation raises.  To
    answer every request a vehicle can take, compile an instance that asks
    for the full capacity.  ``ids`` are the bidder ids in sorted order and
    ``rows[i]`` is bidder ``ids[i]``'s price series in micros for sizes
    1..available, the schedule's own tuple, shared and never written.  Each
    size's offers are ranked at most once (``_offers``), for the single
    vehicle and the kept rows alike.
    """

    def __init__(self, instance: AuctionInstance):
        series = bid_series(instance)
        self.capacity = instance.capacity
        self.width = instance.requested_seats
        self.ids = tuple(sorted(series))
        self.rows = [series[bidder_id] for bidder_id in self.ids]
        # The cover tables' width: no cover holds more seats than are offered.
        self.cover_width = min(self.width, sum(map(len, self.rows)))
        self.longest = max(map(len, self.rows), default=0)
        self._ranked: dict[int, list[tuple[int, int]]] = {}

    def price(self, bidder_id: str, size: int) -> int:
        i = bisect_left(self.ids, bidder_id)
        if i == len(self.ids) or self.ids[i] != bidder_id:
            raise UnknownBidder(bidder_id)
        row = self.rows[i]
        if not (_is_int(size) and 1 <= size <= len(row)):
            raise OversizedCombination(
                f"bidder {bidder_id}: no size {_shown(size)} in 1..{len(row)}"
            )
        return row[size - 1]

    def servable(self, service: ServiceType, requested_seats: int) -> bool:
        """The one servability rule; raises what ``check_request`` raises,
        with ``width`` as the capacity.  A row offers every size up to its
        length, so any q_r up to the seats offered can be split exactly."""
        check_request(self.width, service, requested_seats)
        if service is ServiceType.SPLITTABLE:
            return requested_seats <= self.cover_width
        if service is ServiceType.NON_SPLITTABLE:
            return requested_seats <= self.longest
        return self.capacity <= self.longest

    def solve(self, service: ServiceType, requested_seats: int) -> Optional[Allocation]:
        """Exact minimum-total allocation for one request, or None when it is
        not ``servable``, which raises for a request validation rejects."""
        if not self.servable(service, requested_seats):
            return None
        if service is ServiceType.SPLITTABLE:
            return self._splittable_optimum(requested_seats)
        size = requested_seats if service is ServiceType.NON_SPLITTABLE else self.capacity
        best, row = self._offers(size)[0]
        return Allocation(assignments=((self.ids[row], size),), total_bid=Money(best))

    def winner_exclusions(
        self, service: ServiceType, allocation: Allocation
    ) -> dict[str, Optional[int]]:
        """Exclusion totals (micros) of the winners of ``allocation``, which
        must be this case's optimum for the request; None marks a winner
        whose exclusion leaves the request unservable.  Every other
        bidder's exclusion total is ``allocation.total_bid``."""
        if service is not ServiceType.SPLITTABLE:
            ((bidder_id, size),) = allocation.assignments
            offers = self._offers(size)
            return {bidder_id: offers[1][0] if len(offers) > 1 else None}
        # The counts of a joined pair add up to at most q_r <= width, so the
        # least packed sum floor-divides to the least cost exactly.
        q_r = allocation.seat_total()
        prefix, suffix = self._prefix, self._suffix
        scale = len(suffix[0])
        ids = self._kept[0]
        totals: dict[str, Optional[int]] = {}
        for bidder_id, _ in allocation.assignments:
            j = bisect_left(ids, bidder_id)
            best = min(
                (head + tail for head, tail in zip(prefix[j][: q_r + 1], suffix[j + 1][q_r::-1])
                 if head is not None and tail is not None),
                default=None,
            )
            totals[bidder_id] = None if best is None else best // scale
        return totals

    def _offers(self, size: int) -> list[tuple[int, int]]:
        """The first (price, row) offers of exactly ``size`` seats, ranked
        once (``_first_offers``): the W - size + 2 the kept rows read, W the
        table width, and at least the two the single vehicle reads."""
        offers = self._ranked.get(size)
        if offers is None:
            n = max(2, self.cover_width - size + 2)
            offers = self._ranked[size] = _first_offers(self.rows, size, n)
        return offers

    @cached_property
    def _kept(self) -> tuple[Sequence[str], Sequence[tuple[int, ...]]]:
        """The ids and rows, in id order, the cover tables are built over:
        those of the W - m + 2 first offers of each size m <= W, at most
        W(W + 3)/2 rows (see the module docstring)."""
        kept = sorted({i for m in range(1, self.cover_width + 1) for _, i in self._offers(m)})
        return [self.ids[i] for i in kept], [self.rows[i] for i in kept]

    @cached_property
    def _suffix(self) -> list[list[Optional[int]]]:
        """suffix[i][s]: the packed minimal (cost, count) covering exactly s
        seats with the kept rows i.. (see ``_cover_table``)."""
        return _cover_table(reversed(self._kept[1]), self.cover_width)[::-1]

    @cached_property
    def _prefix(self) -> list[list[Optional[int]]]:
        """prefix[j][s]: the packed minimal (cost, count) covering exactly s
        seats with the kept rows before j (see ``_cover_table``)."""
        return _cover_table(self._kept[1], self.cover_width)

    def _splittable_optimum(self, q_r: int) -> Allocation:
        # Seat exactness: with strictly increasing prices the optimum covers
        # q_r seats exactly, so the tables target the equality form directly.
        # Walking the kept rows in id order and taking the first (bidder, size)
        # that keeps the optimum reachable yields the tie-broken winner list.
        suffix = self._suffix
        target = suffix[0][q_r]
        scale = len(suffix[0])
        total = target // scale
        assignments: list[tuple[str, int]] = []
        remaining = q_r
        ids, rows = self._kept
        for i, prices in enumerate(rows):
            if not remaining:
                break
            nxt = suffix[i + 1]
            for m in range(1, min(len(prices), remaining) + 1):
                rest = nxt[remaining - m]
                if rest is not None and prices[m - 1] * scale + 1 + rest == target:
                    assignments.append((ids[i], m))
                    remaining -= m
                    target = rest
                    break
            else:
                if nxt[remaining] != target:
                    raise AssertionError("splittable reconstruction lost the optimum")
        return Allocation(assignments=tuple(assignments), total_bid=Money(total))


def solve_wdp(instance: AuctionInstance) -> Optional[Allocation]:
    """Exact minimum-total allocation for the instance's service type."""
    return CompiledCase(instance).solve(instance.service, instance.requested_seats)


def exclusion_totals(instance: AuctionInstance) -> dict[str, Optional[int]]:
    """Optimal totals (micro-units) of every single-bidder-exclusion problem.

    Equivalent to running ``solve_wdp(instance.without_bidder(b))`` for
    each bidder ``b``; ``None`` marks an infeasible exclusion.
    """
    case = CompiledCase(instance)
    allocation = case.solve(instance.service, instance.requested_seats)
    if allocation is None:
        return dict.fromkeys(case.ids)
    totals: dict[str, Optional[int]] = dict.fromkeys(case.ids, allocation.total_bid.micros)
    totals.update(case.winner_exclusions(instance.service, allocation))
    return totals
