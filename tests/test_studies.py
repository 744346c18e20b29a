import errno
import hashlib
import os
from dataclasses import replace
from fractions import Fraction
from functools import partial

import pytest

from avauction import (
    BidSchedule,
    CostLaw,
    ExperimentConfig,
    InvalidLaw,
    Money,
    ServiceType,
    StudyInvariantViolation,
    run_asymptoticity_study,
    run_charge_study,
    run_servability_study,
    run_study,
    run_timing_study,
    run_truthfulness_study,
)
from avauction import scenario, studies, wdp
from avauction.studies import ratio_to_decimal

from conftest import oracle_off_by_one_micro


SMALL = dict(scenario_sizes=(1, 4, 8), cases=6, seed=303)


def test_ratio_to_decimal():
    assert ratio_to_decimal(Fraction(1, 2)) == "0.500000"
    assert ratio_to_decimal(Fraction(2, 3)) == "0.666667"
    assert ratio_to_decimal(Fraction(-1, 8)) == "-0.125000"
    assert ratio_to_decimal(Fraction(0)) == "0.000000"
    assert ratio_to_decimal(Fraction(1, 2_000_000)) == "0.000001"  # half-up


def test_config_validation():
    with pytest.raises(InvalidLaw):
        ExperimentConfig(scenario_sizes=())
    with pytest.raises(InvalidLaw):
        ExperimentConfig(cases=0)
    # checked when the config is built, not when a study first generates
    with pytest.raises(InvalidLaw):
        ExperimentConfig(scenario_sizes=(1,), seed=-1)
    # a bidder count given twice would write each of its rows twice
    with pytest.raises(InvalidLaw, match="repeat"):
        ExperimentConfig(scenario_sizes=(2, 5, 2))
    # every count and the seed must be an int, never a float, bool or string
    for bad in (dict(cases=1.5), dict(cases=True), dict(cases="7"),
                dict(scenario_sizes=(1.5,)), dict(scenario_sizes=(5, True)),
                dict(seed=7.0), dict(seed=True)):
        with pytest.raises(InvalidLaw):
            ExperimentConfig(**bad)


def test_servability_shape_and_structure():
    table = run_servability_study(ExperimentConfig(**SMALL))
    assert table.columns == ("K", "service", "q_r", "cases", "unservable")
    assert len(table.rows) == 3 * 3 * 5
    by_cell = {(r[0], r[1], r[2]): r[4] for r in table.rows}
    for k in (1, 4, 8):
        # private counts ignore the requested size
        assert len({by_cell[(k, ServiceType.PRIVATE, q)] for q in range(1, 6)}) == 1
        for q in range(1, 6):
            assert (
                by_cell[(k, ServiceType.SPLITTABLE, q)]
                <= by_cell[(k, ServiceType.NON_SPLITTABLE, q)]
                <= by_cell[(k, ServiceType.PRIVATE, q)]
            )


def test_a_count_over_one_case_is_written_as_an_int():
    """Cells add with ``+``, so a cell summed over one case is that case's
    own score: each count a score gives must be an int, not a bool."""
    cfg = ExperimentConfig(scenario_sizes=(1,), cases=1, seed=2)
    text = run_servability_study(cfg).csv_text()
    assert {line.rsplit(",", 1)[1] for line in text.splitlines()[1:]} == {"0", "1"}


def test_charge_study_shape():
    table = run_charge_study(ExperimentConfig(**SMALL))
    assert len(table.rows) == 3 * 3 * 5
    for row in table.rows:
        k, svc, q, servable, mean_charge, mean_opt = row
        if k == 1 and servable:
            assert mean_charge == mean_opt  # monopoly rows settle at the optimum


def test_truthfulness_tables():
    cfg = ExperimentConfig(scenario_sizes=(1, 30), cases=2, seed=101)
    winners, changes = run_truthfulness_study(cfg)
    assert winners.columns[:3] == ("K", "q_r", "raise_fraction")
    # K=1 contributes nothing; K=30 has 5 q_r x 3 raises
    assert len(winners.rows) == 15
    assert all(row[6] >= 0 for row in changes.rows)
    base_rows = [r for r in winners.rows if r[2] == 0]
    assert base_rows, "base (0% raise) rows present"


def test_truthfulness_writes_exact_thin_market_negatives():
    # at K=5 a raised co-winner can keep winning and lower the total; VCG is
    # not monotone in revenue, so these runs are written, not aborted
    cfg = ExperimentConfig(scenario_sizes=(5,), seed=20250810)
    _, changes = run_truthfulness_study(cfg)
    negatives = [row for row in changes.rows if row[6] < 0]
    assert len(negatives) == 3 and {row[5] for row in negatives} == {4}


def test_truthfulness_aborts_on_thin_market_negatives_vcg_cannot_explain(monkeypatch):
    cfg = ExperimentConfig(scenario_sizes=(5,), seed=20250810)
    with monkeypatch.context() as patch:
        oracle_off_by_one_micro(patch)
        with pytest.raises(StudyInvariantViolation,
                           match=r"^negative change of charge .*exclusion solves disagree \[.*case=4\]$"):
            run_truthfulness_study(cfg)

    original = studies.bidder_utility

    def raisers_gain(instance, valuations):
        # a raised bid is the only way an instance's bids differ from the valuations
        utilities = original(instance, valuations)
        if all(valuations[b.bidder_id] is b for b in instance.bids):
            return utilities
        return {b: u + 1 for b, u in utilities.items()}

    monkeypatch.setattr(studies, "bidder_utility", raisers_gain)
    with pytest.raises(StudyInvariantViolation, match=r"by raising alone \[.*case=4\]$"):
        run_truthfulness_study(cfg)


@pytest.mark.parametrize(
    "run", [run_charge_study, run_asymptoticity_study, run_truthfulness_study],
    ids=["charges", "asymptoticity", "truthfulness"],
)
def test_every_charge_study_checks_the_identity(monkeypatch, run):
    original = studies.case_charges

    def off_by_one_micro(case, service, q_r):
        report = original(case, service, q_r)
        if report is None or report.fallback:
            return report
        return replace(report, total_charge=Money(report.total_charge.micros + 1))

    monkeypatch.setattr(studies, "case_charges", off_by_one_micro)
    with pytest.raises(StudyInvariantViolation, match="charge identity"):
        run(ExperimentConfig(scenario_sizes=(5,), cases=2))


def test_asymptoticity_small_below_large():
    cfg = ExperimentConfig(scenario_sizes=(12,), cases=40, seed=77)
    table = run_asymptoticity_study(cfg)
    cells = {}
    for k, svc, q, law, count, mean in table.rows:
        cells[(svc, q, law)] = (count, mean)
    for svc in ServiceType:
        for q in range(1, 6):
            count_small, small = cells[(svc, q, "small")]
            count_large, large = cells[(svc, q, "large")]
            if count_small and count_large:
                assert small < large


def test_timing_study_reports_both_modes():
    cfg = ExperimentConfig(scenario_sizes=(6,), cases=2)
    table = run_timing_study(cfg)
    modes = {row[2] for row in table.rows}
    assert modes == {"sequential", "shared"}
    assert all(row[4] > 0 for row in table.rows)


def test_csv_bytes_are_reproducible(tmp_path):
    cfg = ExperimentConfig(**SMALL)
    first = run_charge_study(cfg).csv_text()
    second = run_charge_study(ExperimentConfig(**SMALL)).csv_text()
    assert first == second
    table = run_charge_study(cfg)
    path = table.write_csv(tmp_path)
    assert path.read_text() == first
    # A row of the wrong width is refused, so the CSV stays rectangular.
    with pytest.raises(ValueError, match=r"^charges: row width 5 != 6$"):
        table.add(*table.rows[0][:5])


def test_run_study_dispatch():
    tables = run_study("servability", ExperimentConfig(**SMALL))
    assert len(tables) == 1 and tables[0].name == "servability"
    with pytest.raises(ValueError):
        run_study("mystery", ExperimentConfig(**SMALL))


# sha256 of each deterministic table at a small config and the default seed:
# a byte change in any study output fails here, without a full-size run.
GOLDEN = {
    "charges": "0145e66430c41d9f03d3d26fefb930ec38f74bdcd9be13a77b946e62cbc41e8f",
    "asymptoticity": "c86093ba7cdd13998ae0c20d4d6b8fbcebb80a0baf953d70b0cb49438f445fda",
    "truthfulness_winners": "68a0321a3bf87ee069d3318a9cd413d51ed4722bc28ba2ee0be1b3fb00ed3b01",
    "truthfulness_changes": "b71c31944ee2aed6660d0dcbd8490c2fa132c6576d9a2e4631017da231a57ca7",
}


def test_study_tables_match_golden_digests():
    cfg = ExperimentConfig(scenario_sizes=(5, 30), cases=20)
    tables = [run_charge_study(cfg), run_asymptoticity_study(cfg), *run_truthfulness_study(cfg)]
    digests = {t.name: hashlib.sha256(t.csv_text().encode()).hexdigest() for t in tables}
    assert digests == GOLDEN


def test_each_drawn_schedule_is_checked_once(monkeypatch):
    """The generator checks each schedule it draws with the price rule and
    builds it from that series, so no draw and no compile at any K runs
    the checking constructor, and each drawn schedule equals the one the
    constructor builds from its prices afterwards.  The lists fill in the
    process that draws, so the whole study runs here at one worker, and
    then each range of a three-worker split runs here on its own."""
    checked = []
    full_check = BidSchedule.__init__

    def counting(schedule, *args):
        checked.append(args[0])
        full_check(schedule, *args)

    drawn = []
    draw = scenario._draw_schedule

    def recording(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    def kept_as_checked():
        def rebuilt(s):
            schedule = object.__new__(BidSchedule)
            full_check(schedule, s.bidder_id, s.available_seats, s.prices, s.concave)
            return schedule
        return all(rebuilt(s) == s and rebuilt(s)._series == s._series for s in drawn)

    monkeypatch.setattr(BidSchedule, "__init__", counting)
    monkeypatch.setattr(scenario, "_draw_schedule", recording)
    monkeypatch.setattr(studies, "_usable_cpus", lambda: 1)
    cfg = ExperimentConfig(scenario_sizes=(5, 30), cases=20)
    run_charge_study(cfg)
    assert len(drawn) == 30 * 20
    assert checked == []
    assert kept_as_checked()

    for cases in (range(0, 6), range(6, 13), range(13, 20)):
        drawn.clear()
        made, failure = studies._range_sums(studies._charge_sums, cfg, cfg.scenario_sizes,
                                            (None,), cases)
        assert failure is None and len(made) == 1 + len(cfg.scenario_sizes)
        assert len(drawn) == 30 * len(cases)
        assert checked == []
        assert kept_as_checked()


def test_a_compiled_case_ranks_each_size_once(monkeypatch):
    """All 15 reports of a K = 100 case, kept splittable rows and
    single-vehicle best and second-best alike, read one ranking per size."""
    ranked = []
    first_offers = wdp._first_offers

    def counting(rows, size, n):
        ranked.append(size)
        return first_offers(rows, size, n)

    monkeypatch.setattr(wdp, "_first_offers", counting)
    batch = scenario.generate_batch(scenario.GenerationLaw(seed=2024), 100, studies.CAPACITY, 1)
    assert len(studies._case_reports(batch, 0)) == 15
    assert sorted(ranked) == list(range(1, studies.CAPACITY + 1))


def test_an_asymptoticity_run_labels_each_compiled_case_once(monkeypatch):
    """A label is built once per compiled case, for its checks, and not
    again per report when no change of payment is negative."""
    labelled, compiled = [], []
    case_label = scenario.ScenarioBatch.case_label

    def labelling(batch, case):
        labelled.append(case)
        return case_label(batch, case)

    def compiling(instance):
        compiled.append(instance)
        return wdp.CompiledCase(instance)

    monkeypatch.setattr(scenario.ScenarioBatch, "case_label", labelling)
    monkeypatch.setattr(studies, "CompiledCase", compiling)
    monkeypatch.setattr(studies, "_usable_cpus", lambda: 1)
    run_asymptoticity_study(ExperimentConfig(scenario_sizes=(5, 12), cases=6))
    assert len(compiled) == 2 * 2 * 6
    assert 0 < len(labelled) <= len(compiled)


def test_a_negative_change_of_payment_names_its_case(monkeypatch):
    monkeypatch.setattr(studies, "change_of_payment", lambda report: Fraction(-1, 3))
    monkeypatch.setattr(studies, "_usable_cpus", lambda: 1)
    with pytest.raises(StudyInvariantViolation,
                       match=r"negative change of payment -1/3 \[seed=.* K=5 case=0\]"):
        run_asymptoticity_study(ExperimentConfig(scenario_sizes=(5,), cases=2))


# Each study that runs its cases in ranges, returning its list of tables.
RANGED = {name: partial(run_study, name)
          for name in ("servability", "charges", "asymptoticity", "truthfulness")}


def _at_workers(monkeypatch, workers, run, cfg):
    monkeypatch.setattr(studies, "_usable_cpus", lambda: workers)
    return run(cfg)


@pytest.mark.parametrize("name", RANGED)
def test_ranged_tables_do_not_depend_on_the_worker_count(monkeypatch, name):
    run = RANGED[name]
    for cfg in (ExperimentConfig(scenario_sizes=(1, 5, 30), cases=7, seed=11),
                ExperimentConfig(scenario_sizes=(3, 8), cases=2, seed=12)):
        texts = {
            workers: [table.csv_text() for table in _at_workers(monkeypatch, workers, run, cfg)]
            for workers in (1, 2, 3)
        }
        assert texts[2] == texts[1] and texts[3] == texts[1]


def test_the_worker_count_is_one_per_cpu_and_at_most_one_per_case(monkeypatch):
    forks = []
    fork = os.fork

    def counting():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    cfg = ExperimentConfig(scenario_sizes=(4,), cases=2)
    expected = _at_workers(monkeypatch, 1, run_servability_study, cfg).csv_text()
    assert forks == []  # one worker runs in this process
    assert _at_workers(monkeypatch, 3, run_servability_study, cfg).csv_text() == expected
    assert len(forks) == 2


def test_a_range_whose_process_dies_fails_the_study(monkeypatch):
    monkeypatch.setattr(studies, "_range_sums", lambda *args: os._exit(3))
    for name in ("charges", "truthfulness"):
        with pytest.raises(ChildProcessError, match="exited with 3$"):
            _at_workers(monkeypatch, 2, RANGED[name], ExperimentConfig(scenario_sizes=(2,), cases=2))


def test_a_fork_that_fails_leaves_no_process_or_pipe_behind(monkeypatch):
    """The second of three forks fails: the one range started is stopped and
    reaped, every pipe end is closed, and the fork's error is raised."""
    forks = []
    fork = os.fork

    def refusing_the_second():
        forks.append(1)
        if len(forks) == 2:
            raise BlockingIOError(errno.EAGAIN, "fork refused")
        return fork()

    monkeypatch.setattr(os, "fork", refusing_the_second)
    open_before = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError, match="fork refused"):
        _at_workers(monkeypatch, 3, run_servability_study,
                    ExperimentConfig(scenario_sizes=(4,), cases=3))
    assert len(forks) == 2
    assert sorted(os.listdir("/proc/self/fd")) == open_before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _planted(monkeypatch, faults):
    """Make ``_case_reports`` raise at each (K, absolute case) of ``faults``."""
    original = studies._case_reports

    def faulty(batch, i):
        fault = faults.get((batch.bidder_count, batch.first_case + i))
        if fault is not None:
            raise fault(f"planted [{batch.case_label(i)}]")
        return original(batch, i)

    monkeypatch.setattr(studies, "_case_reports", faulty)


# Two planted faults (K, case) in different ranges of a three-way split:
# the one a single loop meets second, then the one it meets first.
FAULTS = {
    # the later case at the smaller K: the loop goes over K, then case
    "charges": ((30, 3), (5, 15)),
    "asymptoticity": ((30, 3), (5, 15)),
    # the untruthful subsets read cases 0-4 at the largest K, and the
    # winners sub-study reads case 0 first, outside the ranges
    "truthfulness": ((30, 4), (30, 1)),
}


@pytest.mark.parametrize("name", ["charges", "asymptoticity", "truthfulness"])
@pytest.mark.parametrize("first", [StudyInvariantViolation, AssertionError])
def test_ranged_studies_raise_what_one_worker_raises_first(monkeypatch, name, first):
    """Faults in two of three ranges: at three workers the study raises the
    one a single loop meets first, as it does at one worker."""
    run = RANGED[name]
    cfg = ExperimentConfig(scenario_sizes=(5, 30), cases=20)
    later, (k, case) = FAULTS[name]
    _planted(monkeypatch, {later: StudyInvariantViolation, (k, case): first})
    raised = {}
    for workers in (1, 3):
        with pytest.raises(first) as info:
            _at_workers(monkeypatch, workers, run, cfg)
        raised[workers] = str(info.value)
    assert raised[3] == raised[1]
    assert raised[1].endswith(f" K={k} case={case}]")


def test_truthfulness_raises_the_lowest_failing_case_first(monkeypatch):
    """An untruthful cell of case 4 at the first request fails, and one of
    case 1 at a later request: the lower case is raised, at any worker
    count, whatever the request order of the table."""
    planted = {"untruthful/K30/splittable/q1/f1/10/r1/10/case4",
               "untruthful/K30/private/q1/f1/2/r3/10/case1"}
    original = studies.rng_stream

    def faulty(seed, label):
        if label in planted:
            raise StudyInvariantViolation(f"planted {label}")
        return original(seed, label)

    monkeypatch.setattr(studies, "rng_stream", faulty)
    cfg = ExperimentConfig(scenario_sizes=(5, 30), cases=20)
    for workers in (1, 3):
        with pytest.raises(StudyInvariantViolation, match="/case1$"):
            _at_workers(monkeypatch, workers, run_truthfulness_study, cfg)


def test_a_range_that_fails_to_draw_wins_over_an_earlier_block(monkeypatch):
    """One loop draws every case before its first block, so a range that
    cannot draw its cases fails before a fault in an earlier range's first
    block, at any worker count."""
    original = studies._generate

    def refusing(config, cases, cost_law=None):
        if 15 in cases:
            raise InvalidLaw("cannot draw case 15")
        return original(config, cases, cost_law)

    monkeypatch.setattr(studies, "_generate", refusing)
    _planted(monkeypatch, {(5, 0): StudyInvariantViolation})
    cfg = ExperimentConfig(scenario_sizes=(5, 30), cases=20)
    for workers in (1, 3):
        with pytest.raises(InvalidLaw, match="case 15$"):
            _at_workers(monkeypatch, workers, run_charge_study, cfg)


def test_asymptoticity_compares_the_laws_of_a_k_before_later_cases(monkeypatch):
    """The small < large check of K = 5 fails before a fault at K = 30, at
    any worker count: small-law cases are scored on their large-law bids."""
    original = studies._case_reports

    def large_bids(batch, i):
        if batch.law.cost_law is CostLaw.SMALL_VARIATION and batch.bidder_count == 5:
            law = replace(batch.law, cost_law=CostLaw.LARGE_VARIATION)
            batch = scenario.generate_batch(law, 5, batch.capacity, batch.case_count,
                                            batch.first_case)
        return original(batch, i)

    monkeypatch.setattr(studies, "_case_reports", large_bids)
    _planted(monkeypatch, {(30, 3): StudyInvariantViolation})
    cfg = ExperimentConfig(scenario_sizes=(5, 30), cases=20)
    raised = {}
    for workers in (1, 3):
        with pytest.raises(StudyInvariantViolation) as info:
            _at_workers(monkeypatch, workers, run_asymptoticity_study, cfg)
        raised[workers] = str(info.value)
    assert raised[3] == raised[1]
    assert "not below large-variation mean" in raised[1] and " K=5 " in raised[1]
