"""Acceptance gate: one test per numbered criterion, each printed as a
single PASS/FAIL line and asserted at its stated tolerance.

Everything is seeded and exact: money comparisons are in integer
micro-units with zero tolerance, directional Monte-Carlo claims run on the
documented default seed, and timing claims use best-of-N wall clocks.
"""

import math
import time
from fractions import Fraction

import pytest

from avauction import (
    AuctionInstance,
    BidSchedule,
    GenerationLaw,
    Money,
    ServiceType,
    bidder_utility,
    change_of_charge,
    charge_identity_holds,
    generate_batch,
    perturb_bids,
    rng_stream,
    solve_wdp,
    validate_instance,
    vcg_charges,
)
from avauction.core import round_half_up
from avauction.studies import (
    RAISE_FRACTIONS,
    SERVICES,
    TARGET_FRACTIONS,
    ExperimentConfig,
    run_asymptoticity_study,
    run_servability_study,
    time_charge,
)

from conftest import brute_force_wdp

SEED = ExperimentConfig().seed
KS_DEFAULT = ExperimentConfig().scenario_sizes
CAPACITY = 5
QS = tuple(range(1, CAPACITY + 1))


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _raw_instance(stream, bidders: int) -> tuple[BidSchedule, ...]:
    """Strictly increasing but not necessarily concave price curves."""
    bids = []
    for j in range(bidders):
        available = stream.randint(0, CAPACITY)
        prices, level = {}, 0
        for m in range(1, available + 1):
            level += stream.randint(1, 400_000)
            prices[m] = Money(level)
        bids.append(BidSchedule(f"b{j}", available, prices))
    return tuple(bids)


@pytest.fixture(scope="module")
def small_sweep():
    """Solves and charge reports over K in {5, 8, 10, 30}, 700 cases each.

    Returns per-(K, case, q, service) totals plus the running exact-identity
    counters shared by criteria 2, 3, and 4.
    """
    data = {}
    stats = {
        "seat_checks": 0,
        "seat_violations": 0,
        "identity_checks": 0,
        "identity_violations": 0,
        "ordering_checks": 0,
        "ordering_violations": 0,
    }
    for k in (5, 8, 10, 30):
        batch = generate_batch(GenerationLaw(seed=SEED), k, CAPACITY, 700)
        for i in range(batch.case_count):
            for q in QS:
                served = {}
                for svc in SERVICES:
                    instance = batch.instance(i, svc, q)
                    alloc = solve_wdp(instance)
                    if alloc is None:
                        continue
                    served[svc] = alloc.total_bid.micros
                    if svc is ServiceType.SPLITTABLE:
                        stats["seat_checks"] += 1
                        if alloc.seat_total() != q:
                            stats["seat_violations"] += 1
                    report = vcg_charges(instance)
                    if not report.fallback:
                        stats["identity_checks"] += 1
                        if not charge_identity_holds(report):
                            stats["identity_violations"] += 1
                if len(served) == 3:
                    stats["ordering_checks"] += 1
                    s, n, p = (served[svc] for svc in SERVICES)
                    if not (s <= n <= p):
                        stats["ordering_violations"] += 1
                data[(k, i, q)] = served
    return data, stats


@pytest.fixture(scope="module")
def default_grid():
    """Per-case totals for the default scenario sizes, 100 cases each."""
    grid = {}
    for k in KS_DEFAULT:
        batch = generate_batch(GenerationLaw(seed=SEED), k, CAPACITY, 100)
        for i in range(batch.case_count):
            for svc in SERVICES:
                for q in QS:
                    instance = batch.instance(i, svc, q)
                    alloc = solve_wdp(instance)
                    if alloc is None:
                        grid[(k, svc, q, i)] = None
                    else:
                        report = vcg_charges(instance)
                        grid[(k, svc, q, i)] = (
                            report.total_charge.micros,
                            alloc.total_bid.micros,
                            report.fallback,
                        )
    return grid


def test_criterion_01_oracle_equivalence():
    started = time.perf_counter()
    instances = mismatches = 0
    law = GenerationLaw(seed=SEED)
    concave = {k: generate_batch(law, k, CAPACITY, 12) for k in range(1, 7)}
    raw_stream = rng_stream(SEED, "oracle/raw")
    raw_cases = [
        _raw_instance(raw_stream, raw_stream.randint(1, 6)) for _ in range(30)
    ]
    pools = [batch.cases for batch in concave.values()]
    pools.append(raw_cases)
    for pool in pools:
        for schedules in pool:
            for svc in SERVICES:
                for q in QS:
                    instance = AuctionInstance(CAPACITY, q, svc, schedules)
                    validate_instance(instance)
                    instances += 1
                    fast = solve_wdp(instance)
                    oracle = brute_force_wdp(instance)
                    if fast != oracle:
                        mismatches += 1
    elapsed = time.perf_counter() - started
    _report(
        1, "oracle equivalence",
        instances >= 1000 and mismatches == 0 and elapsed < 30,
        f"{instances} instances (concave and non-concave), {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_02_service_price_ordering(small_sweep):
    _, stats = small_sweep
    _report(
        2, "service price ordering",
        stats["ordering_checks"] >= 10_000 and stats["ordering_violations"] == 0,
        f"{stats['ordering_checks']} all-three-feasible case checks, "
        f"{stats['ordering_violations']} violations",
    )


def test_criterion_03_seat_exactness(small_sweep):
    _, stats = small_sweep
    _report(
        3, "splittable seat exactness",
        stats["seat_checks"] >= 10_000 and stats["seat_violations"] == 0,
        f"{stats['seat_checks']} served splittable solves, {stats['seat_violations']} violations",
    )


def test_criterion_04_charge_identity(small_sweep):
    _, stats = small_sweep
    _report(
        4, "charge identity",
        stats["identity_checks"] >= 10_000 and stats["identity_violations"] == 0,
        f"{stats['identity_checks']} non-fallback reports, {stats['identity_violations']} violations",
    )


GRID_FACTORS = (
    Fraction(4, 5), Fraction(9, 10), Fraction(1),
    Fraction(11, 10), Fraction(5, 4), Fraction(3, 2),
)


def _deviate(schedule: BidSchedule, factors) -> BidSchedule:
    prices, floor = {}, 0
    for m in sorted(schedule.prices):
        scaled = round_half_up(schedule.prices[m].micros * factors[m - 1])
        floor = max(scaled, floor + 1)  # keep strict monotonicity
        prices[m] = Money(floor)
    return BidSchedule(schedule.bidder_id, schedule.available_seats, prices, concave=False)


def _swap_schedule(instance: AuctionInstance, schedule: BidSchedule) -> AuctionInstance:
    bids = tuple(
        schedule if b.bidder_id == schedule.bidder_id else b for b in instance.bids
    )
    return AuctionInstance(
        instance.capacity, instance.requested_seats, instance.service, bids
    )


def test_criterion_05_dominant_strategy():
    stream = rng_stream(SEED, "deviation-grid")
    eligible_instances = deviations = violations = 0
    for k in (2, 3, 4):
        batch = generate_batch(GenerationLaw(seed=SEED), k, CAPACITY, 30)
        for i in range(batch.case_count):
            for svc in SERVICES:
                for q in (1, 3, 5):
                    instance = batch.instance(i, svc, q)
                    if solve_wdp(instance) is None:
                        continue
                    valuations = {b.bidder_id: b for b in instance.bids}
                    truthful = bidder_utility(instance, valuations)
                    # the pivotal-infeasible convention charges a winner its
                    # own bid, which is trivially manipulable; the dominant-
                    # strategy claim is about bidders the rule can price
                    deviators = [
                        e.bidder_id for e in vcg_charges(instance).per_bidder
                        if e.pivotal is not None
                    ]
                    if not deviators:
                        continue
                    eligible_instances += 1
                    for bidder_id in deviators:
                        schedule = valuations[bidder_id]
                        sizes = len(schedule.prices)
                        trials = [[f] * sizes for f in GRID_FACTORS]
                        for s in range(sizes):
                            for f in GRID_FACTORS:
                                per_size = [Fraction(1)] * sizes
                                per_size[s] = f
                                trials.append(per_size)
                        for _ in range(4):
                            trials.append(
                                [GRID_FACTORS[stream.randint(0, 5)] for _ in range(sizes)]
                            )
                        for factors in trials:
                            deviated = _swap_schedule(instance, _deviate(schedule, factors))
                            utilities = bidder_utility(deviated, valuations)
                            deviations += 1
                            if utilities[bidder_id] > truthful[bidder_id]:
                                violations += 1
    _report(
        5, "dominant strategy",
        eligible_instances >= 200 and violations == 0,
        f"{eligible_instances} instances, {deviations} grid deviations, {violations} profitable",
    )


def test_criterion_06_own_bid_independence():
    scaled_instances = usable = mismatches = 0
    for k in (2, 3, 4, 6):
        batch = generate_batch(GenerationLaw(seed=SEED), k, CAPACITY, 50)
        for i in range(batch.case_count):
            for svc in SERVICES:
                for q in (1, 2, 4):
                    instance = batch.instance(i, svc, q)
                    base_alloc = solve_wdp(instance)
                    if base_alloc is None:
                        continue
                    base = vcg_charges(instance)
                    counted = False
                    for bidder_id, _ in base_alloc.assignments:
                        entry = next(
                            e for e in base.per_bidder if e.bidder_id == bidder_id
                        )
                        if entry.pivotal is None:
                            continue  # fallback convention reports the bid itself
                        for factor in ("0.05", "0.1", "0.25", "0.5"):
                            raised = perturb_bids(instance, {bidder_id}, factor)
                            alloc = solve_wdp(raised)
                            if alloc is None or bidder_id not in alloc.winner_ids():
                                continue
                            others_before = tuple(
                                a for a in base_alloc.assignments if a[0] != bidder_id
                            )
                            others_after = tuple(
                                a for a in alloc.assignments if a[0] != bidder_id
                            )
                            if others_before != others_after:
                                # the charge subtracts the co-winners' accepted
                                # bids, so it is pinned only while those stand
                                continue
                            usable += 1
                            counted = True
                            if vcg_charges(raised).charge_of(bidder_id) != entry.charge:
                                mismatches += 1
                    if counted:
                        scaled_instances += 1
    _report(
        6, "own-bid independence",
        scaled_instances >= 500 and mismatches == 0,
        f"{scaled_instances} instances, {usable} winner-preserving scalings, "
        f"{mismatches} charge changes",
    )


def test_criterion_07_servability_table(default_grid):
    table = run_servability_study(ExperimentConfig())
    cells = {(r[0], r[1], r[2]): r[4] for r in table.rows}
    problems = []
    for svc in SERVICES:
        for q in QS:
            seq = [cells[(k, svc, q)] for k in KS_DEFAULT]
            if any(a < b for a, b in zip(seq, seq[1:])):
                problems.append(f"{svc.value} q={q} not non-increasing in K: {seq}")
    for k in KS_DEFAULT:
        if len({cells[(k, ServiceType.PRIVATE, q)] for q in QS}) != 1:
            problems.append(f"K={k} private counts vary with q_r")
        for q in QS:
            s, n, p = (cells[(k, svc, q)] for svc in SERVICES)
            if not (s <= n <= p):
                problems.append(f"K={k} q={q} cellwise ordering {s},{n},{p}")
    _report(
        7, "servability table shape",
        not problems,
        problems[0] if problems else
        f"{len(cells)} cells: monotone in K, private constant, services ordered",
    )


def _mean(values):
    return Fraction(sum(values), len(values))


def test_criterion_08_charge_directionality(default_grid):
    grid = default_grid
    problems = []
    cases = range(100)
    # per-cell means over each cell's servable population, non-increasing in K
    for svc in SERVICES:
        for q in QS:
            for part, label in ((0, "charge"), (1, "optimal")):
                means = []
                for k in KS_DEFAULT:
                    vals = [grid[(k, svc, q, i)][part] for i in cases if grid[(k, svc, q, i)]]
                    if vals:
                        means.append((k, _mean(vals)))
                for (k1, m1), (k2, m2) in zip(means, means[1:]):
                    if m2 > m1:
                        problems.append(
                            f"{svc.value} q={q} mean {label} rose {k1}->{k2}"
                        )
    # paired (common-case) means for adjacent K; the charging-rule column
    # skips the monopoly row, whose total is the optimum by convention
    for svc in SERVICES:
        for q in QS:
            for k1, k2 in zip(KS_DEFAULT, KS_DEFAULT[1:]):
                common = [
                    i for i in cases
                    if grid[(k1, svc, q, i)] and grid[(k2, svc, q, i)]
                ]
                if not common:
                    continue
                for part, label in ((0, "charge"), (1, "optimal")):
                    if part == 0 and k1 == 1:
                        continue
                    m1 = _mean([grid[(k1, svc, q, i)][part] for i in common])
                    m2 = _mean([grid[(k2, svc, q, i)][part] for i in common])
                    if m2 > m1:
                        problems.append(
                            f"{svc.value} q={q} paired mean {label} rose {k1}->{k2}"
                        )
    # paired service ordering per (K, q)
    pairs = (
        (ServiceType.SPLITTABLE, ServiceType.NON_SPLITTABLE),
        (ServiceType.NON_SPLITTABLE, ServiceType.PRIVATE),
    )
    for k in KS_DEFAULT:
        for q in QS:
            for lo, hi in pairs:
                common = [
                    i for i in cases if grid[(k, lo, q, i)] and grid[(k, hi, q, i)]
                ]
                if not common:
                    continue
                for part, label in ((0, "charge"), (1, "optimal")):
                    m_lo = _mean([grid[(k, lo, q, i)][part] for i in common])
                    m_hi = _mean([grid[(k, hi, q, i)][part] for i in common])
                    if m_lo > m_hi:
                        problems.append(
                            f"K={k} q={q} paired mean {label}: {lo.value} above {hi.value}"
                        )
    # private totals must not depend on the requested size, case by case
    for k in KS_DEFAULT:
        for i in cases:
            vals = {
                grid[(k, ServiceType.PRIVATE, q, i)] for q in QS
            }
            if len(vals) != 1:
                problems.append(f"K={k} case={i} private totals vary with q_r")
    # the monopoly rows settle at the optimum
    for svc in SERVICES:
        for q in QS:
            for i in cases:
                rec = grid[(1, svc, q, i)]
                if rec and rec[0] != rec[1]:
                    problems.append(f"monopoly case {i} {svc.value} q={q} total != optimum")
    _report(
        8, "charge directionality",
        not problems,
        problems[0] if problems else
        "means fall with K (per-cell and paired), services ordered on common cases, "
        "private invariant in q_r, monopoly rows equal the optimum",
    )


def test_criterion_09_variation_pairing():
    config = ExperimentConfig()
    table = run_asymptoticity_study(config)  # aborts on any cell violation
    cells = {}
    for k, svc, q, law, count, mean in table.rows:
        cells[(k, svc, q, law)] = (count, mean)
    compared = 0
    problems = []
    for (k, svc, q, law), (count, mean) in cells.items():
        if law != "small":
            continue
        large_count, large_mean = cells[(k, svc, q, "large")]
        if count and large_count:
            compared += 1
            if not (mean < large_mean):
                problems.append(f"K={k} {svc.value} q={q}")
    _report(
        9, "variation pairing",
        config.cases >= 100 and compared > 0 and not problems,
        problems[0] if problems else
        f"{compared} cells over {config.cases} paired cases each: "
        "small-variation premium below large-variation premium",
    )


def test_criterion_10_perturbation_sign():
    config = ExperimentConfig()
    k = 100
    batch = generate_batch(config.law(), k, CAPACITY, 10)
    runs = negatives = 0
    for svc in SERVICES:
        for q in QS:
            for frac in TARGET_FRACTIONS:
                for raise_f in RAISE_FRACTIONS:
                    for case in range(batch.case_count):
                        instance = batch.instance(case, svc, q)
                        if solve_wdp(instance) is None:
                            continue
                        truthful = vcg_charges(instance)
                        count = max(1, round_half_up(frac * k))
                        stream = rng_stream(
                            config.seed,
                            f"untruthful/K{k}/{svc.value}/q{q}/f{frac}/r{raise_f}/case{case}",
                        )
                        targets = stream.sample(sorted(instance.bidder_ids()), count)
                        perturbed = vcg_charges(perturb_bids(instance, targets, raise_f))
                        runs += 1
                        if change_of_charge(truthful, perturbed) < 0:
                            negatives += 1
    _report(
        10, "perturbation sign",
        runs >= 1000 and negatives == 0,
        f"{runs} perturbation runs at K={k} (documented seed), {negatives} negative",
    )


def test_criterion_11_timing():
    law = GenerationLaw(seed=SEED)
    sizes = (5, 10, 30, 50, 100)
    means = {}
    per_k_instances = {}
    for k in sizes:
        batch = generate_batch(law, k, CAPACITY, 5)
        instances = [
            batch.instance(i, ServiceType.SPLITTABLE, CAPACITY)
            for i in range(batch.case_count)
        ]
        instances = [inst for inst in instances if solve_wdp(inst) is not None]
        per_k_instances[k] = instances
        times = [time_charge(inst, repeats=3, independent_solves=True) for inst in instances]
        means[k] = sum(times) / len(times)
    xs = [math.log(k) for k in sizes]
    ys = [math.log(means[k]) for k in sizes]
    n = len(xs)
    slope = (n * sum(x * y for x, y in zip(xs, ys)) - sum(xs) * sum(ys)) / (
        n * sum(x * x for x in xs) - sum(xs) ** 2
    )
    sequential = sum(
        time_charge(inst, repeats=5, independent_solves=True) for inst in per_k_instances[100]
    )
    shared = sum(
        time_charge(inst, repeats=5, independent_solves=False) for inst in per_k_instances[100]
    )
    ok = means[100] < 1.0 and slope <= 2.2 and shared <= sequential
    _report(
        11, "timing",
        ok,
        f"K=100 full computation {means[100]*1e3:.0f} ms (< 1 s), "
        f"log-log slope {slope:.2f} (at-worst-quadratic), "
        f"shared pass {shared*1e3:.0f} ms <= sequential {sequential*1e3:.0f} ms",
    )
