"""Desk-scale experiment harness: servability, charges, truthfulness,
asymptoticity, and timing studies over seeded random cases.

Every study re-checks the exact per-case identities while it runs (seat
exactness for splittable winners, the service-price ordering, the charge
identity, non-negative change of charge) and aborts with the offending case
seed on any violation.  All tables except timing are byte-identical across
runs with the same config: aggregation uses exact rationals, never floats.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from .core import AuctionError, Money, ServiceType, as_fraction, round_half_up
from .scenario import CostLaw, GenerationLaw, ScenarioBatch, generate_batch, rng_stream
from .vcg import (
    ChargeReport,
    case_charges,
    change_of_charge,
    change_of_payment,
    charge_identity_holds,
    perturb_bids,
    vcg_charges,
)
from .wdp import Allocation, CompiledCase, feasibility, solve_wdp

SERVICES = (ServiceType.SPLITTABLE, ServiceType.NON_SPLITTABLE, ServiceType.PRIVATE)

DEFAULT_SCENARIO_SIZES = (1, 5, 10, 30, 50, 100)


class StudyInvariantViolation(AuctionError):
    """A per-case identity failed during a study; the message names the case."""


def ratio_to_decimal(value: Fraction, places: int = 6) -> str:
    """Render an exact rational as a fixed-point decimal, ties rounded up."""
    sign = "-" if value < 0 else ""
    scaled = round_half_up(abs(value) * 10**places)
    return f"{sign}{scaled // 10**places}.{scaled % 10**places:0{places}d}"


def _mean_money(total_micros: int, count: int) -> str:
    return ratio_to_decimal(Fraction(total_micros, count * 10**6))


@dataclass
class ExperimentConfig:
    """Knobs for the study suite; defaults mirror the headline protocol."""

    scenario_sizes: tuple[int, ...] = DEFAULT_SCENARIO_SIZES
    capacity: int = 5
    cases: int = 100
    cost_law: CostLaw = CostLaw.LARGE_VARIATION
    gamma: Fraction = Fraction(4, 5)
    seed: int = 20250810
    # Fig-5 style perturbations: fraction of bidders raised, and by how much.
    target_fractions: tuple[Fraction, ...] = (
        Fraction(1, 10),
        Fraction(1, 5),
        Fraction(1, 2),
    )
    raise_fractions: tuple[Fraction, ...] = (
        Fraction(1, 10),
        Fraction(1, 5),
        Fraction(3, 10),
    )
    # Table-2 style raises applied to the base-case winners (0 = base row).
    winner_raises: tuple[Fraction, ...] = (Fraction(0), Fraction(1, 5), Fraction(1, 2))
    # Scenario sizes for the untruthful-subset sub-study.  None means the
    # largest configured scenario: the sign property it asserts is an
    # observation about competitive markets, where raising a bid past the
    # thin winning margin drops the raiser from the winner set; in thin
    # markets (small K) a raised co-winner can keep winning and other
    # winners' charges then fall with it.
    untruthful_sizes: Optional[tuple[int, ...]] = None
    truthfulness_runs: int = 5
    timing_cases: int = 5
    timing_repeats: int = 3

    def __post_init__(self) -> None:
        self.gamma = as_fraction(self.gamma)
        if not self.scenario_sizes or any(k < 1 for k in self.scenario_sizes):
            raise ValueError("scenario_sizes must be non-empty, all at least 1")
        if self.untruthful_sizes is not None and (
            not self.untruthful_sizes or any(k < 1 for k in self.untruthful_sizes)
        ):
            raise ValueError("untruthful_sizes must be non-empty, all at least 1")
        for name in ("capacity", "cases", "truthfulness_runs", "timing_cases", "timing_repeats"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        for f in self.target_fractions + self.raise_fractions:
            if not (0 < f <= 1):
                raise ValueError(f"fractions must lie in (0, 1], got {f}")
        if any(f < 0 for f in self.winner_raises):
            raise ValueError("winner raises must be non-negative")

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


def _charges_checked(case: CompiledCase, service: ServiceType, q_r: int,
                     label: str) -> Optional[ChargeReport]:
    """One request's charge report (None if unservable), seat-checked."""
    report = case_charges(case, service, q_r)
    if report is not None:
        _seats_checked(report.winner_allocation, service, q_r, label)
    return report


def _generate(config: ExperimentConfig, k: int, cost_law: Optional[CostLaw] = None,
              cases: Optional[int] = None) -> ScenarioBatch:
    return generate_batch(
        config.law(cost_law), k, config.capacity,
        config.cases if cases is None else cases,
    )


def run_servability_study(config: ExperimentConfig) -> ResultTable:
    """Count unservable cases per (K, service, requested size)."""
    table = ResultTable("servability", ("K", "service", "q_r", "cases", "unservable"))
    for k in config.scenario_sizes:
        batch = _generate(config, k)
        counts = {(svc, q): 0 for svc in SERVICES for q in range(1, config.capacity + 1)}
        for i in range(batch.case_count):
            for q in range(1, config.capacity + 1):
                feasible = feasibility(batch.instance(i, ServiceType.SPLITTABLE, q))
                for svc in SERVICES:
                    counts[(svc, q)] += not feasible.for_service(svc)
        for svc in SERVICES:
            for q in range(1, config.capacity + 1):
                table.add(k, svc, q, batch.case_count, counts[(svc, q)])
    return table


def run_charge_study(config: ExperimentConfig) -> ResultTable:
    """Mean charging-rule total and mean optimal total per (K, service, q_r)."""
    table = ResultTable(
        "charges",
        ("K", "service", "q_r", "servable_cases", "mean_total_charge", "mean_optimal"),
    )
    for k in config.scenario_sizes:
        batch = _generate(config, k)
        acc: dict[tuple[ServiceType, int], list[int]] = {
            (svc, q): [0, 0, 0]
            for svc in SERVICES
            for q in range(1, config.capacity + 1)
        }
        for i in range(batch.case_count):
            label = batch.case_label(i)
            case = CompiledCase(batch.cases[i], batch.capacity)
            private_total: Optional[int] = None
            for q in range(1, config.capacity + 1):
                served: dict[ServiceType, int] = {}
                for svc in SERVICES:
                    report = _charges_checked(case, svc, q, label)
                    if report is None:
                        continue
                    optimum = report.optimum.micros
                    served[svc] = optimum
                    if svc is ServiceType.PRIVATE:
                        if private_total is None:
                            private_total = optimum
                        _check(optimum == private_total, label,
                               "private total varies with q_r")
                    if not report.fallback:
                        _check(charge_identity_holds(report), label,
                               "charge identity total = p* + sum(pivotal - p*) failed")
                    cell = acc[(svc, q)]
                    cell[0] += 1
                    cell[1] += report.total_charge.micros
                    cell[2] += optimum
                s = served.get(ServiceType.SPLITTABLE)
                n = served.get(ServiceType.NON_SPLITTABLE)
                p = served.get(ServiceType.PRIVATE)
                if n is not None:
                    _check(s is not None, label, "non-splittable servable but splittable not")
                    _check(s <= n, label, f"ordering violated: p^s {s} > p^n {n}")
                if p is not None:
                    _check(n is not None, label, "private servable but non-splittable not")
                    _check(n <= p, label, f"ordering violated: p^n {n} > p^p {p}")
        for svc in SERVICES:
            for q in range(1, config.capacity + 1):
                count, charge_sum, opt_sum = acc[(svc, q)]
                if count:
                    table.add(k, svc, q, count,
                              _mean_money(charge_sum, count), _mean_money(opt_sum, count))
                else:
                    table.add(k, svc, q, 0, "", "")
    return table


def run_truthfulness_study(config: ExperimentConfig) -> tuple[ResultTable, ResultTable]:
    """Two sub-studies: base-case winners raising their bids, and randomly
    chosen untruthful subsets; the latter reports change of charge per run."""
    winners_table = ResultTable(
        "truthfulness_winners",
        ("K", "q_r", "raise_fraction", "winners", "winner_charges", "total_charge"),
    )
    changes_table = ResultTable(
        "truthfulness_changes",
        ("K", "service", "q_r", "target_fraction", "raise_fraction", "case", "change_of_charge"),
    )
    for k in config.scenario_sizes:
        if k < 2:
            continue  # the charging rule degenerates to the optimum for a monopoly
        # Only case 0 is used; streams are keyed by (seed, case, bidder), so
        # it is the same case 0 as in a full batch.
        batch = _generate(config, k, cases=1)
        base_case = CompiledCase(batch.cases[0], batch.capacity)
        for q in range(1, config.capacity + 1):
            base_report = _charges_checked(base_case, ServiceType.SPLITTABLE, q,
                                           batch.case_label(0))
            if base_report is None:
                continue
            base_instance = batch.instance(0, ServiceType.SPLITTABLE, q)
            base_winners = base_report.winner_allocation.winner_ids()
            for raise_f in config.winner_raises:
                perturbed = perturb_bids(base_instance, base_winners, raise_f)
                report = vcg_charges(perturbed)
                ids = report.winner_allocation.winner_ids()
                winners_table.add(
                    k, q, raise_f,
                    ";".join(ids),
                    ";".join(report.charge_of(b).to_decimal() for b in ids),
                    report.total_charge,
                )
    untruthful_sizes = (
        config.untruthful_sizes
        if config.untruthful_sizes is not None
        else (max(config.scenario_sizes),)
    )
    for k in untruthful_sizes:
        if k < 2:
            continue
        runs = min(config.truthfulness_runs, config.cases)
        batch = _generate(config, k, cases=runs)
        truthful_reports: dict[tuple[int, ServiceType, int], Optional[ChargeReport]] = {}
        for case in range(runs):
            compiled = CompiledCase(batch.cases[case], batch.capacity)
            for svc in SERVICES:
                for q in range(1, config.capacity + 1):
                    truthful_reports[(case, svc, q)] = _charges_checked(
                        compiled, svc, q, batch.case_label(case))
        for svc in SERVICES:
            for q in range(1, config.capacity + 1):
                for frac in config.target_fractions:
                    for raise_f in config.raise_fractions:
                        for case in range(runs):
                            truthful = truthful_reports[(case, svc, q)]
                            if truthful is None:
                                continue
                            instance = batch.instance(case, svc, q)
                            label = batch.case_label(case)
                            count = max(1, round_half_up(frac * k))
                            stream = rng_stream(
                                config.seed,
                                f"untruthful/K{k}/{svc.value}/q{q}/f{frac}/r{raise_f}/case{case}",
                            )
                            targets = stream.sample(sorted(instance.bidder_ids()), count)
                            report = vcg_charges(perturb_bids(instance, targets, raise_f))
                            change = change_of_charge(truthful, report)
                            _check(change >= 0, label,
                                   f"negative change of charge {change}")
                            changes_table.add(k, svc, q, frac, raise_f, case, change)
    return winners_table, changes_table


def run_asymptoticity_study(config: ExperimentConfig) -> ResultTable:
    """Mean change of payment per (K, service, q_r) under both bid-variation
    regimes, with the paired small < large comparison enforced per cell."""
    table = ResultTable(
        "asymptoticity",
        ("K", "service", "q_r", "law", "qualifying_cases", "mean_change_of_payment"),
    )
    means: dict[tuple, Optional[Fraction]] = {}
    for k in config.scenario_sizes:
        if k < 2:
            continue
        for law in (CostLaw.LARGE_VARIATION, CostLaw.SMALL_VARIATION):
            batch = _generate(config, k, cost_law=law)
            sums: dict[tuple[ServiceType, int], list] = {
                (svc, q): [0, Fraction(0)]
                for svc in SERVICES
                for q in range(1, config.capacity + 1)
            }
            for i in range(batch.case_count):
                label = batch.case_label(i)
                case = CompiledCase(batch.cases[i], batch.capacity)
                for svc in SERVICES:
                    for q in range(1, config.capacity + 1):
                        report = _charges_checked(case, svc, q, label)
                        if report is None or report.fallback:
                            continue
                        cop = change_of_payment(report)
                        _check(cop >= 0, label, f"negative change of payment {cop}")
                        cell = sums[(svc, q)]
                        cell[0] += 1
                        cell[1] += cop
            for svc in SERVICES:
                for q in range(1, config.capacity + 1):
                    count, total = sums[(svc, q)]
                    mean = total / count if count else None
                    means[(k, svc, q, law)] = mean
                    table.add(k, svc, q, law.value, count, "" if mean is None else mean)
        for svc in SERVICES:
            for q in range(1, config.capacity + 1):
                small = means[(k, svc, q, CostLaw.SMALL_VARIATION)]
                large = means[(k, svc, q, CostLaw.LARGE_VARIATION)]
                if small is not None and large is not None:
                    _check(
                        small < large,
                        f"seed={config.seed} K={k} service={svc.value} q_r={q}",
                        f"small-variation mean {small} not below large-variation mean {large}",
                    )
    return table


def time_charge(instance, repeats: int, independent_solves: bool = True) -> float:
    """Best-of-``repeats`` wall time of one full charge computation: by
    default the literal per-bidder exclusion solves, else the shared pass."""
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
    for k in config.scenario_sizes:
        if k < 2:
            continue
        batch = _generate(config, k, cases=min(config.timing_cases, config.cases))
        for svc in SERVICES:
            instances = []
            for i in range(batch.case_count):
                instance = batch.instance(i, svc, config.capacity)
                if _seats_checked(solve_wdp(instance), svc, config.capacity,
                                  batch.case_label(i)) is not None:
                    instances.append(instance)
            if not instances:
                continue
            for mode, independent in (("sequential", True), ("shared", False)):
                times = [time_charge(inst, config.timing_repeats, independent)
                         for inst in instances]
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
