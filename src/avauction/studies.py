"""Desk-scale experiment harness: servability, charges, truthfulness,
asymptoticity, and timing studies over seeded random cases.

The charges, truthfulness and asymptoticity studies read every charge report
through ``_case_reports``, which re-checks the exact per-case identities (seat
exactness, the charge identity, the service-price ordering, a private optimum
that does not vary with the request) before any table sees the report.  On
top of those, truthfulness checks every negative change of charge against
the per-bidder exclusion solves and against a raise made alone, and
asymptoticity that no change of payment is negative and that small variation
stays below large.  Timing seat-checks each instance it times.  Every check
aborts with the offending case seed.  Each study draws one batch per cost
law, at the largest configured K, and reads every K as a ``head`` of it.
All tables except timing are byte-identical across runs with the same
config: aggregation uses exact rationals, never floats.

Servability, charges, asymptoticity and both truthfulness sub-studies
each give only a per-case score, a dict from each request to a tuple of
cells (exact counts and sums, or table rows), and their table rows.  One
driver, ``_tally``, owns the rest: it splits the cases into contiguous
ranges, one per CPU the process may run on and at most one per case; each
range draws only its own cases in a forked process and returns its summed
scores, which are added in range order; with one range it runs in this
process.  So their tables do not depend on the number of ranges, and a
failure raises what one loop over every case would raise first.  Timing
alone runs its own loop in this process, because it measures wall time.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial, reduce
from itertools import product
from operator import add
from pathlib import Path
from typing import Optional, Union

from .core import (
    MICROS_PER_UNIT, AuctionError, Money, ServiceType, _is_int, micros_to_decimal, round_half_up,
)
from .scenario import CostLaw, GenerationLaw, InvalidLaw, ScenarioBatch, generate_batch, rng_stream
from .vcg import (
    ChargeReport,
    bidder_utility,
    case_charges,
    change_of_charge,
    change_of_payment,
    charge_identity_holds,
    perturb_bids,
    vcg_charges,
)
from .wdp import Allocation, CompiledCase, solve_wdp

SERVICES = (ServiceType.SPLITTABLE, ServiceType.NON_SPLITTABLE, ServiceType.PRIVATE)

# Vehicle capacity of every generated case, and so the requested sizes q_r.
CAPACITY = 5
QS = tuple(range(1, CAPACITY + 1))
# Every (service, q_r) request of a case, in table row order.
REQUESTS = tuple(product(SERVICES, QS))
# Fig-5 style perturbations: fraction of bidders raised, and by how much.
TARGET_FRACTIONS = (Fraction(1, 10), Fraction(1, 5), Fraction(1, 2))
RAISE_FRACTIONS = (Fraction(1, 10), Fraction(1, 5), Fraction(3, 10))
# Every (target fraction, raise) cell of a request, in table row order.
UNTRUTHFUL_CELLS = tuple(product(TARGET_FRACTIONS, RAISE_FRACTIONS))
# Table-2 style raises applied to the base-case winners (0 = base row).
WINNER_RAISES = (Fraction(0), Fraction(1, 5), Fraction(1, 2))
# Cases per untruthful-subset cell, and per timing scenario (at most config.cases).
TRUTHFULNESS_RUNS = 5
TIMING_CASES = 5
TIMING_REPEATS = 3


class StudyInvariantViolation(AuctionError):
    """A per-case identity failed during a study; the message names the case."""


def ratio_to_decimal(value: Fraction) -> str:
    """Render an exact rational with six decimals, ties rounded away from 0."""
    micros = round_half_up(abs(value.numerator) * MICROS_PER_UNIT, value.denominator)
    return ("-" if value < 0 else "") + micros_to_decimal(micros)


@dataclass
class ExperimentConfig:
    """The study settings the command line exposes (``gen`` checks its
    shared settings here too), defaulting to the headline protocol (cost
    law and gamma are ``GenerationLaw``'s).  Settings
    no case generator accepts, and a bidder count given twice, raise
    InvalidLaw here, before any study runs."""

    scenario_sizes: tuple[int, ...] = (1, 5, 10, 30, 50, 100)
    cases: int = 100
    cost_law: CostLaw = GenerationLaw.cost_law
    gamma: Fraction = GenerationLaw.gamma
    seed: int = 20250810

    def __post_init__(self) -> None:
        if not self.scenario_sizes or not all(_is_int(k) and k >= 1 for k in self.scenario_sizes):
            raise InvalidLaw("scenario_sizes must be non-empty, all ints of at least 1")
        if len(set(self.scenario_sizes)) != len(self.scenario_sizes):
            raise InvalidLaw("scenario_sizes must not repeat a bidder count")
        if not (_is_int(self.cases) and self.cases >= 1):
            raise InvalidLaw("cases must be an int of at least 1")
        self.gamma = self.law().gamma

    def law(self, cost_law: Optional[CostLaw] = None) -> GenerationLaw:
        return GenerationLaw(
            seed=self.seed,
            cost_law=self.cost_law if cost_law is None else cost_law,
            gamma=self.gamma,
        )


@dataclass
class ResultTable:
    """A rectangular study result, written as CSV with a fixed header."""

    name: str
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)

    def add(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(f"{self.name}: row width {len(values)} != {len(self.columns)}")
        self.rows.append(values)

    def csv_text(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_format_cell(v) for v in row))
        return "\n".join(lines) + "\n"

    def write_csv(self, directory: Union[str, Path]) -> Path:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.name}.csv"
        path.write_text(self.csv_text())
        return path


def _format_cell(value) -> str:
    if isinstance(value, Money):
        return value.to_decimal()
    if isinstance(value, Fraction):
        return ratio_to_decimal(value)
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, ServiceType):
        return value.value
    return str(value)


def _check(condition: bool, label: str, message: str) -> None:
    if not condition:
        raise StudyInvariantViolation(f"{message} [{label}]")


def _seats_checked(alloc: Optional[Allocation], service: ServiceType, q_r: int,
                   label: str) -> Optional[Allocation]:
    """The seat-exactness assertion every study must enforce."""
    if alloc is not None and service is ServiceType.SPLITTABLE:
        _check(alloc.seat_total() == q_r, label,
               f"splittable allocation covers {alloc.seat_total()} != {q_r} seats")
    return alloc


def _case_reports(
    batch: ScenarioBatch, i: int
) -> dict[tuple[ServiceType, int], Optional[ChargeReport]]:
    """Compile case ``i`` once and return its charge report for every
    (service, q_r), None when unservable.

    Checks seat exactness, the charge identity of every non-fallback report,
    p^s <= p^n <= p^p at each q_r (an unservable service must stay
    unservable further right), and a private optimum that does not vary
    with q_r.
    """
    label = batch.case_label(i)
    case = CompiledCase(batch.instance(i, ServiceType.SPLITTABLE, CAPACITY))
    reports: dict[tuple[ServiceType, int], Optional[ChargeReport]] = {}
    private: Optional[int] = None
    for q in QS:
        optima: list[Optional[int]] = []
        for svc in SERVICES:
            report = reports[(svc, q)] = case_charges(case, svc, q)
            if report is None:
                optima.append(None)
                continue
            _seats_checked(report.winner_allocation, svc, q, label)
            if not report.fallback:
                _check(charge_identity_holds(report), label,
                       "charge identity total = p* + sum(pivotal - p*) failed")
            optimum = report.optimum.micros
            if svc is ServiceType.PRIVATE:
                private = optimum if private is None else private
                _check(optimum == private, label, "private total varies with q_r")
            optima.append(optimum)
        s, n, p = optima
        ordered = (n is None or s is not None and s <= n) and (p is None or n is not None and n <= p)
        _check(ordered, label, f"ordering p^s <= p^n <= p^p violated at q_r={q}: {s}, {n}, {p}")
    return reports


def _markets(config: ExperimentConfig) -> tuple[int, ...]:
    """The configured K of two bidders or more: a monopoly's charge is its
    own bid, so only these show how charges respond to bids."""
    return tuple(k for k in config.scenario_sizes if k >= 2)


def _generate(config: ExperimentConfig, cases: range,
              cost_law: Optional[CostLaw] = None) -> ScenarioBatch:
    """The study's batch of a law over ``cases``, at the largest K; every
    K it reads is a ``head`` of it."""
    return generate_batch(
        config.law(cost_law), max(config.scenario_sizes), CAPACITY, len(cases), cases.start
    )


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _range_sums(score, config: ExperimentConfig, ks: tuple, laws: tuple, cases: range):
    """Draw ``cases`` of each law, then sum ``score`` over them at each K
    of ``ks`` and then each law, one block per (K, law).

    Returns what it made, with the exception that stopped it or ``None``:
    a ``None`` item once every batch is drawn, then each finished block.
    """
    made: list = []
    try:
        fulls = [_generate(config, cases, law) for law in laws]
        made.append(None)
        for k in ks:
            for full in fulls:
                made.append(_summed(map(partial(score, full.head(k)), range(full.case_count))))
    except Exception as exc:
        return made, exc
    return made, None


def _summed(parts) -> dict:
    """Add dicts from each request to a tuple of cells, cell by cell with
    ``+``: counts and sums add, and tuples of table rows join in case order."""
    parts = list(parts)
    return {request: tuple(reduce(add, cell) for cell in zip(*(part[request] for part in parts)))
            for request in REQUESTS}


def _forked(run, ranges: list[range]) -> list:
    """``run`` of each range, each in a process forked from this one.

    A bare fork and pipe per range: a process pool's imports, queues and
    threads cost about 25 ms more a study, a tenth of servability's time.
    If a fork fails, the ranges already started are stopped and reaped,
    every pipe end is closed, and the fork's error is raised.
    """
    import pickle
    import signal

    children = []
    try:
        for cases in ranges:
            read, write = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:  # the child sends its result and leaves, running no exit handler
                    status = 1
                    try:
                        os.close(read)
                        with open(write, "wb") as sink:
                            pickle.dump(run(cases), sink)
                        status = 0
                    finally:
                        os._exit(status)
            except OSError:
                os.close(read)
                raise
            finally:
                os.close(write)
            children.append((pid, read))
    except OSError:
        for pid, read in children:
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    sent = []
    for pid, read in children:
        with open(read, "rb") as source:
            sent.append((source.read(), os.waitpid(pid, 0)[1]))
    for data, status in sent:
        if status:
            code = os.waitstatus_to_exitcode(status)
            raise ChildProcessError(f"the process of a case range exited with {code}")
    return [pickle.loads(data) for data, _ in sent]


def _tally(score, config: ExperimentConfig, ks: tuple, laws: tuple = (None,)):
    """Yield ``score(batch, i)`` summed over every case, at each K of ``ks``
    and then each law, in the order one loop over all cases makes them.

    Each range runs ``_range_sums``, so nothing is drawn here.  Where
    ranges fail, this raises what the one loop would raise first: drawing
    comes before every block, and within a block case ranges go in order.
    """
    workers = min(_usable_cpus(), config.cases)
    bounds = [config.cases * r // workers for r in range(workers + 1)]
    ranges = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    run = partial(_range_sums, score, config, ks, laws)
    results = [run(ranges[0])] if workers == 1 else _forked(run, ranges)
    # The first range to stop the earliest, the one loop's first failure.
    failed = min(((len(made), exc) for made, exc in results if exc is not None),
                 key=lambda failure: failure[0], default=None)
    for b in range(1, len(results[0][0]) if failed is None else failed[0]):
        yield _summed(made[b] for made, _ in results)
    if failed is not None:
        raise failed[1]


def _unservable(batch: ScenarioBatch, i: int) -> dict:
    case = CompiledCase(batch.instance(i, ServiceType.SPLITTABLE, CAPACITY))
    return {request: (0 if case.servable(*request) else 1,) for request in REQUESTS}


def run_servability_study(config: ExperimentConfig) -> ResultTable:
    """Count unservable cases per (K, service, requested size)."""
    table = ResultTable("servability", ("K", "service", "q_r", "cases", "unservable"))
    sizes = config.scenario_sizes
    for k, counts in zip(sizes, _tally(_unservable, config, sizes)):
        for svc, q in REQUESTS:
            table.add(k, svc, q, config.cases, counts[(svc, q)][0])
    return table


def _charge_sums(batch: ScenarioBatch, i: int) -> dict:
    return {request: (0, 0, 0) if report is None
            else (1, report.total_charge.micros, report.optimum.micros)
            for request, report in _case_reports(batch, i).items()}


def run_charge_study(config: ExperimentConfig) -> ResultTable:
    """Mean charging-rule total and mean optimal total per (K, service, q_r)."""
    table = ResultTable(
        "charges",
        ("K", "service", "q_r", "servable_cases", "mean_total_charge", "mean_optimal"),
    )
    sizes = config.scenario_sizes
    for k, sums in zip(sizes, _tally(_charge_sums, config, sizes)):
        for (svc, q), (count, *totals) in sums.items():
            table.add(k, svc, q, count, *(micros_to_decimal(round_half_up(t, count)) if count
                                          else "" for t in totals))
    return table


def _untruthful_changes(batch: ScenarioBatch, i: int) -> dict:
    """Case i's row ``(case, change_of_charge)`` alone in a tuple per (target
    fraction, raise) cell of each request; an unservable request's are empty."""
    k, case = batch.bidder_count, batch.first_case + i
    changes = dict.fromkeys(REQUESTS, ((),) * len(UNTRUTHFUL_CELLS))
    for (svc, q), truthful in _case_reports(batch, i).items():
        if truthful is None:
            continue
        instance, ids = batch.instance(i, svc, q), truthful.bidder_ids  # in id order
        rows = changes[(svc, q)] = []
        for frac, raise_f in UNTRUTHFUL_CELLS:
            label = f"untruthful/K{k}/{svc.value}/q{q}/f{frac}/r{raise_f}/case{case}"
            targets = rng_stream(batch.law.seed, label).sample(ids, max(1, round_half_up(frac * k)))
            perturbed = perturb_bids(instance, targets, raise_f)
            report = vcg_charges(perturbed)
            change = change_of_charge(truthful, report)
            if change < 0:
                _check_negative_change(instance, perturbed, report, targets, raise_f,
                                       f"negative change of charge {change}", batch.case_label(i))
            rows.append(((case, change),))
    return changes


def _winner_raises(batch: ScenarioBatch, i: int) -> dict:
    """Case i's base winners raising their bids: for each servable splittable
    request, one tuple of rows ``(raise, winners, their charges, total
    charge)``, one per raise of ``WINNER_RAISES``; every other is empty."""
    raises = dict.fromkeys(REQUESTS, ((),))
    for (svc, q), base in _case_reports(batch, i).items():
        if svc is ServiceType.SPLITTABLE and base is not None:
            instance, winners = batch.instance(i, svc, q), base.winner_allocation.winner_ids()
            rows = []
            for raise_f in WINNER_RAISES:
                report = vcg_charges(perturb_bids(instance, winners, raise_f))
                ids = report.winner_allocation.winner_ids()
                rows.append((raise_f, ";".join(ids),
                             ";".join(report.charge_of(b).to_decimal() for b in ids),
                             report.total_charge))
            raises[(svc, q)] = (tuple(rows),)
    return raises


def run_truthfulness_study(config: ExperimentConfig) -> tuple[ResultTable, ResultTable]:
    """Two sub-studies: base-case winners raising their bids, and randomly
    chosen untruthful subsets; the latter reports change of charge per run.

    Both run on ``_tally``: the winners over case 0 at every K, then the
    untruthful subsets over the first cases at the largest K.  A raise
    usually leaves the change of charge non-negative, but a raised co-winner
    can keep winning and other winners' charges then fall with it; this
    happens in thin markets and at K = 100 too.  Such a run is written like
    any other once ``_check_negative_change`` finds it an exact VCG outcome;
    otherwise the study aborts with what one loop meets first: the winners'
    checks of case 0 at every K, then the lowest failing case's first failure.
    """
    winners_table = ResultTable(
        "truthfulness_winners",
        ("K", "q_r", "raise_fraction", "winners", "winner_charges", "total_charge"),
    )
    changes_table = ResultTable(
        "truthfulness_changes",
        ("K", "service", "q_r", "target_fraction", "raise_fraction", "case", "change_of_charge"),
    )
    markets = _markets(config)
    if not markets:
        return winners_table, changes_table
    for k, raises in zip(markets, _tally(_winner_raises, replace(config, cases=1), markets)):
        for (_, q), (rows,) in raises.items():
            for row in rows:
                winners_table.add(k, q, *row)
    k, runs = max(markets), replace(config, cases=min(TRUTHFULNESS_RUNS, config.cases))
    (changes,) = _tally(_untruthful_changes, runs, (k,))
    for (svc, q), cells in changes.items():
        for (frac, raise_f), rows in zip(UNTRUTHFUL_CELLS, cells):
            for case, change in rows:
                changes_table.add(k, svc, q, frac, raise_f, case, change)
    return winners_table, changes_table


def _check_negative_change(instance, perturbed, report: ChargeReport, targets: list[str],
                           raise_f: Fraction, message: str, label: str) -> None:
    """Check a raise that lowered the total charge against what VCG guarantees.

    VCG is not monotone in revenue: raising bids can lower what it pays
    (Ausubel & Milgrom, "The Lovely but Lonely Vickrey Auction", 2006).  It
    is strategy-proof for each bidder on its own.  So the perturbed report
    must match the literal per-bidder exclusion solves, and no raiser may
    gain by making its raise alone, judged with the true bids as
    valuations.  A lowered total implies a truthful report without
    fallback, so every raiser here is one the rule can price.
    """
    _check(vcg_charges(perturbed, independent_solves=True) == report, label,
           f"{message}: the per-bidder exclusion solves disagree")
    valuations = {b.bidder_id: b for b in instance.bids}
    truthful = bidder_utility(instance, valuations)
    for bidder_id in targets:
        alone = perturb_bids(instance, [bidder_id], raise_f)
        gain = bidder_utility(alone, valuations)[bidder_id] - truthful[bidder_id]
        _check(gain <= 0, label, f"{message}: {bidder_id} gains {gain} micros by raising alone")


def _payment_changes(batch: ScenarioBatch, i: int) -> dict:
    changes = dict.fromkeys(REQUESTS, (0, 0))
    for request, report in _case_reports(batch, i).items():
        if report is not None and not report.fallback:
            cop = change_of_payment(report)
            if cop < 0:  # the label and the message are built only for a failure
                _check(False, batch.case_label(i), f"negative change of payment {cop}")
            changes[request] = (1, cop)
    return changes


def run_asymptoticity_study(config: ExperimentConfig) -> ResultTable:
    """Mean change of payment per (K, service, q_r) under both bid-variation
    regimes, with the paired small < large comparison enforced per cell."""
    table = ResultTable(
        "asymptoticity",
        ("K", "service", "q_r", "law", "qualifying_cases", "mean_change_of_payment"),
    )
    markets = _markets(config)
    if not markets:
        return table
    laws = (CostLaw.LARGE_VARIATION, CostLaw.SMALL_VARIATION)
    merged = _tally(_payment_changes, config, markets, laws)
    for k in markets:
        means: dict[CostLaw, dict[tuple[ServiceType, int], Optional[Fraction]]] = {}
        for law in laws:
            sums = next(merged)
            means[law] = {}
            for (svc, q), (count, total) in sums.items():
                mean = means[law][(svc, q)] = total / count if count else None
                table.add(k, svc, q, law.value, count, "" if mean is None else mean)
        for svc, q in REQUESTS:
            small = means[CostLaw.SMALL_VARIATION][(svc, q)]
            large = means[CostLaw.LARGE_VARIATION][(svc, q)]
            if small is not None and large is not None:
                _check(
                    small < large,
                    f"seed={config.seed} K={k} service={svc.value} q_r={q}",
                    f"small-variation mean {small} not below large-variation mean {large}",
                )
    return table


def time_charge(instance, repeats: int, independent_solves: bool) -> float:
    """Best-of-``repeats`` wall time of one full charge computation: the
    literal per-bidder exclusion solves if ``independent_solves``, else the
    shared pass."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        vcg_charges(instance, independent_solves=independent_solves)
        best = min(best, time.perf_counter() - start)
    return best


def run_timing_study(config: ExperimentConfig) -> ResultTable:
    """Wall-clock per full charge computation: ``sequential`` runs one
    literal solve per excluded bidder, ``shared`` is ``vcg_charges`` at its
    defaults, the path every other caller runs."""
    table = ResultTable("timing", ("K", "service", "mode", "cases", "mean_seconds"))
    markets = _markets(config)
    if not markets:
        return table
    full = _generate(config, range(min(TIMING_CASES, config.cases)))
    for k in markets:
        batch = full.head(k)
        for svc in SERVICES:
            instances = []
            for i in range(batch.case_count):
                instance = batch.instance(i, svc, CAPACITY)
                if _seats_checked(solve_wdp(instance), svc, CAPACITY,
                                  batch.case_label(i)) is not None:
                    instances.append(instance)
            if not instances:
                continue
            for mode, independent in (("sequential", True), ("shared", False)):
                times = [time_charge(inst, TIMING_REPEATS, independent) for inst in instances]
                table.add(k, svc, mode, len(instances), sum(times) / len(times))
    return table


STUDY_NAMES = ("servability", "charges", "truthfulness", "asymptoticity", "timing")


def run_study(name: str, config: ExperimentConfig) -> list[ResultTable]:
    if name == "servability":
        return [run_servability_study(config)]
    if name == "charges":
        return [run_charge_study(config)]
    if name == "truthfulness":
        return list(run_truthfulness_study(config))
    if name == "asymptoticity":
        return [run_asymptoticity_study(config)]
    if name == "timing":
        return [run_timing_study(config)]
    raise ValueError(f"unknown study {name!r}; expected one of {STUDY_NAMES}")
