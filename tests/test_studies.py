import hashlib
from dataclasses import replace
from fractions import Fraction

import pytest

from avauction import (
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
from avauction import core, scenario, studies
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
    path = run_charge_study(cfg).write_csv(tmp_path)
    assert path.read_text() == first


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
    """The generator checks each schedule it draws; every compile after that,
    at every K, reads the series the schedule keeps."""
    checked = []
    full_check = core._checked_series

    def counting(schedule, capacity):
        checked.append(schedule)
        return full_check(schedule, capacity)

    drawn = []
    draw = scenario._draw_schedule

    def recording(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    monkeypatch.setattr(core, "_checked_series", counting)
    monkeypatch.setattr(scenario, "_draw_schedule", recording)
    run_charge_study(ExperimentConfig(scenario_sizes=(5, 30), cases=20))
    assert len(drawn) == 30 * 20
    assert len(checked) == len(drawn)
    assert {id(s) for s in checked} == {id(s) for s in drawn}
