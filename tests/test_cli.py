import argparse
import contextlib
import errno
import hashlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import avauction
from avauction import (
    CostLaw,
    ExperimentConfig,
    GenerationLaw,
    ServiceType,
    cli,
    generate_batch,
    parse_instance,
    serialize_instance,
    studies,
    validate_instance,
)
from avauction.core import WHOLE_DIGITS
from avauction.cli import (
    EXIT_INVARIANT, EXIT_OK, EXIT_OSERR, EXIT_PARSE, EXIT_UNSERVABLE, EXIT_VALIDATION, build_parser,
    main,
)

from conftest import make_instance, oracle_off_by_one_micro, sched


@pytest.fixture
def e1_file(tmp_path, e1):
    path = tmp_path / "e1.txt"
    path.write_text(serialize_instance(e1))
    return str(path)


def test_solve_prints_winner_and_total(e1_file, capsys):
    assert main(["solve", e1_file]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "winner B size 3 total 0.780000"


def test_solve_service_override(e1_file, capsys):
    assert main(["solve", e1_file, "--service", "private"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "winner A size 5 total 1.150000"


def test_solve_unservable_exit_code(tmp_path, capsys):
    inst = make_instance(5, 4, ServiceType.SPLITTABLE, [sched("A", 2, {1: "0.1", 2: "0.2"})])
    path = tmp_path / "short.txt"
    path.write_text(serialize_instance(inst))
    assert main(["solve", str(path)]) == EXIT_UNSERVABLE
    assert "unservable" in capsys.readouterr().out


def test_solve_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("not an instance\n")
    assert main(["solve", str(path)]) == EXIT_PARSE


def test_missing_file_is_parse_error(capsys):
    assert main(["solve", "/nonexistent/path.txt"]) == EXIT_PARSE


def test_solve_validation_error_exit_code(tmp_path, capsys):
    text = (
        "avauction-instance v1\ncapacity 5\nrequested_seats 2\nservice splittable\n"
        "bidder A available 2 prices 1:0.40 2:0.40\n"
    )
    path = tmp_path / "flat.txt"
    path.write_text(text)
    assert main(["solve", str(path)]) == EXIT_VALIDATION


# Documents with more than one fault, and the one error each reports: a
# syntax error (exit 64) before any validation error (exit 65), then the
# request's fields, then the bids in order, each bid's duplicate id and
# availability within the capacity before its prices.
HEADER = "avauction-instance v1\n"
FIELDS = "capacity 5\nrequested_seats 2\nservice splittable\n"
FLAT_B = "bidder B available 2 prices 1:0.500000 2:0.400000\n"
INCREASING = "bidder B: prices must strictly increase with size"
MULTI_FAULT = {
    "capacity-0": (HEADER + "capacity 0\nrequested_seats 1\nservice splittable\n" + FLAT_B,
                   EXIT_VALIDATION, "capacity 0 must be at least 1"),
    "range-before-a-later-fault": (
        HEADER + FIELDS + "bidder A available 7 prices 1:0.100000\n" + FLAT_B,
        EXIT_VALIDATION, "bidder A: available_seats 7 outside [0, 5]"),
    "duplicate-before-its-own-fault": (
        HEADER + FIELDS + "bidder A available 1 prices 1:0.100000\n"
        "bidder A available 2 prices 1:0.500000 2:0.400000\n",
        EXIT_VALIDATION, "A"),
    "negative-availability": (HEADER + FIELDS + "bidder A available -1 prices 1:0.100000\n",
                              EXIT_VALIDATION, "bidder A: available_seats -1 outside [0, 5]"),
    "syntax-after-a-fault": (
        HEADER + FIELDS + FLAT_B + "bidder C available x prices 1:0.1\n",
        EXIT_PARSE, "line 6: malformed bidder record (invalid literal for int() with base 10: 'x')"),
    "fields-after-the-bids": (
        HEADER + "requested_seats 1\nservice splittable\n"
        "bidder A available 4 prices 1:0.5 2:0.4\ncapacity 3\n",
        EXIT_VALIDATION, "bidder A: available_seats 4 outside [0, 3]"),
    "missing-field-after-a-fault": (HEADER + "capacity 5\nservice splittable\n" + FLAT_B,
                                    EXIT_PARSE, "missing required field 'requested_seats'"),
    "bad-capacity-after-a-fault": (
        HEADER + "capacity five\nrequested_seats 1\nservice splittable\n" + FLAT_B,
        EXIT_PARSE, "capacity and requested_seats must be integers"),
    "unknown-service-after-a-fault": (
        HEADER + "capacity 5\nrequested_seats 1\nservice bus\n" + FLAT_B,
        EXIT_PARSE, "unknown service type 'bus'"),
    "request-past-capacity-and-a-fault": (
        HEADER + "capacity 5\nrequested_seats 6\nservice splittable\n" + FLAT_B,
        EXIT_VALIDATION, "requested_seats 6 outside [1, 5]"),
    "bad-id-after-a-fault": (HEADER + FIELDS + FLAT_B + "bidder x/y available 1 prices 1:0.1\n",
                             EXIT_PARSE, "line 6: bad bidder id 'x/y'"),
    "no-prices-after-a-fault": (HEADER + FIELDS + FLAT_B + "bidder C available 1 concave\n",
                                EXIT_PARSE, "line 6: expected 'prices' section"),
    "first-fault-wins": (
        HEADER + FIELDS + "bidder A available 3 concave prices 1:0.1 2:0.2 3:0.4\n" + FLAT_B,
        EXIT_VALIDATION, "bidder A: flagged concave but marginals increase"),
    "fault-before-a-range": (HEADER + FIELDS + FLAT_B + "bidder C available 9 prices 1:0.100000\n",
                             EXIT_VALIDATION, INCREASING),
    "fault-before-a-duplicate": (HEADER + FIELDS + FLAT_B + "bidder B available 1 prices 1:0.1\n",
                                 EXIT_VALIDATION, INCREASING),
    "missing-before-oversized": (HEADER + FIELDS + "bidder A available 2 prices 1:0.1 3:0.3\n",
                                 EXIT_VALIDATION, "bidder A: no price for size 2 (must cover 1..2)"),
    "written-fault-then-syntax": (
        HEADER + FIELDS + "bidder A available 2 prices 1:0.200000 2:0.100000\n"
        "bidder B available 1 prices 1:0.1 1:0.2\n",
        EXIT_PARSE, "line 6: duplicate price for size 1"),
    "unservable-and-a-fault": (
        HEADER + "capacity 5\nrequested_seats 5\nservice splittable\n"
        "bidder A available 1 prices 1:0.100000\nbidder B available 3 prices 1:0.1 2:0.2 3:0.2\n",
        EXIT_VALIDATION, INCREASING),
}


@pytest.mark.parametrize("argv", [["charge"], ["solve"], ["charge", "--service", "private"],
                                  ["solve", "--service", "nonsplittable"]])
@pytest.mark.parametrize("name", MULTI_FAULT)
def test_a_document_with_several_faults_reports_the_first(tmp_path, capsys, name, argv):
    doc, code, message = MULTI_FAULT[name]
    path = tmp_path / "faults.txt"
    path.write_text(doc)
    assert main([argv[0], str(path), *argv[1:]]) == code
    kind = "parse" if code == EXIT_PARSE else "validation"
    assert capsys.readouterr() == ("", f"{kind} error: {message}\n")


def test_charge_report_output(tmp_path, e2, capsys):
    path = tmp_path / "e2.txt"
    path.write_text(serialize_instance(e2))
    assert main(["charge", str(path)]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "service splittable"
    assert out[1] == "optimum 0.780000"
    assert "bidder A pivotal 1.000000 charge 0.600000" in out
    assert "bidder B pivotal 0.980000 charge 0.600000" in out
    assert "bidder C pivotal 0.780000 charge 0.000000" in out
    assert "total 1.200000" in out
    assert "fallback false" in out


def test_charge_fallback_output(e1_file, capsys):
    assert main(["charge", e1_file, "--service", "private"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "fallback true" in out
    assert "total 1.150000" in out
    assert "bidder A pivotal unservable charge 1.150000" in out


def test_a_zero_priced_sole_winner_charges_as_a_fallback(tmp_path, capsys):
    """Such a document once exited 1 with an AssertionError traceback."""
    path = tmp_path / "zero.txt"
    path.write_text(
        "avauction-instance v1\ncapacity 5\nrequested_seats 1\nservice splittable\n"
        "bidder A available 1 prices 1:0\n"
    )
    assert main(["charge", str(path)]) == EXIT_OK
    assert capsys.readouterr() == (
        "service splittable\n"
        "optimum 0.000000\n"
        "bidder A pivotal unservable charge 0.000000\n"
        "total 0.000000\n"
        "fallback true\n",
        "",
    )


# The longest whole part of a price below the bound.
NINES = "9" * WHOLE_DIGITS
LONG_DOC = (
    "avauction-instance v1\ncapacity 5\nrequested_seats 2\nservice splittable\n"
    f"bidder A available 1 prices 1:{NINES}\nbidder B available 1 prices 1:{NINES}\n"
)


@pytest.mark.parametrize("command", ["solve", "charge"])
def test_a_total_at_the_bound_prints_exactly(tmp_path, capsys, command):
    """Two prices of the longest whole part the bound allows sum to an
    optimum of one digit more, printed digit for digit."""
    path = tmp_path / "long.txt"
    path.write_text(LONG_DOC)
    assert main([command, str(path)]) == EXIT_OK
    price, optimum = f"{NINES}.000000", f"1{NINES[1:]}8.000000"  # 2 * (10**194 - 1)
    expected = {
        "solve": f"winner A size 1 winner B size 1 total {optimum}\n",
        "charge": (
            f"service splittable\noptimum {optimum}\n"
            f"bidder A pivotal unservable charge {price}\n"
            f"bidder B pivotal unservable charge {price}\n"
            f"total {optimum}\nfallback true\n"
        ),
    }
    assert capsys.readouterr() == (expected[command], "")


@pytest.mark.parametrize("fraction", ["", ".999999"])
def test_a_price_may_have_as_many_whole_digits_as_the_bound_allows(tmp_path, capsys, fraction):
    """The whole and fractional digits are read apart, so the limit on a
    price's whole part is the bound's, 194 digits, whatever its fraction.
    One digit more is past the bound, and so are 4300 digits, which ``int``
    once read, and 4301, which it refused (a malformed record, exit 64):
    each is a validation error, exit 65, on one line that shows none of
    its digits."""
    path = tmp_path / "limit.txt"
    path.write_text(LONG_DOC.replace(f"{NINES}\n", f"{NINES}{fraction}\n", 1))
    assert main(["solve", str(path)]) == EXIT_OK
    capsys.readouterr()
    for whole in (WHOLE_DIGITS + 1, 4300, 4301):
        path.write_text(LONG_DOC.replace(f"{NINES}\n", f"{'9' * whole}{fraction}\n", 1))
        assert main(["solve", str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr() == (
            "", "validation error: line 5: price, in micros, past the bound 10**200\n"
        )


def test_charge_unservable_exit_code(tmp_path, capsys):
    inst = make_instance(5, 4, ServiceType.PRIVATE, [sched("A", 2, {1: "0.1", 2: "0.2"})])
    path = tmp_path / "np.txt"
    path.write_text(serialize_instance(inst))
    assert main(["charge", str(path)]) == EXIT_UNSERVABLE


def test_gen_writes_parseable_instances(tmp_path, capsys):
    out = tmp_path / "gen"
    code = main([
        "gen", "--k", "3", "--cases", "4", "--seed", "11",
        "--service", "nonsplittable", "--qr", "2", "--out", str(out),
    ])
    assert code == EXIT_OK
    files = sorted(out.glob("*.txt"))
    assert len(files) == 4
    batch = generate_batch(GenerationLaw(seed=11), 3, 5, 4)
    for i, f in enumerate(files):
        text = f.read_text()
        assert f"# generated: {batch.case_label(i)}\n" in text
        inst = validate_instance(parse_instance(text))
        assert inst.requested_seats == 2
        assert inst.service is ServiceType.NON_SPLITTABLE
        assert len(inst.bids) == 3


# sha256 of each document `gen` writes at the default seed and law: a byte
# change in drawing or writing a case fails here.
GEN_GOLDEN = {
    "k005-case0000.txt": "e6595f59f58ec5b727fda2fcda12e7638bdcb003c8b577794d2c1ee86ed23bc3",
    "k005-case0001.txt": "f6127622221b2186bb2ee89761d63818ee996a1f530a2a4336c33be120c73a8d",
    "k1000-case0000.txt": "1868c841d2c2a3d8b283e81bb4fdb32752aa95aa7c10a38e6fa09644f6834928",
    "k1000-case0001.txt": "15205452a927195215090931af67548ba17d200066e045f86f5369ce9a93c82c",
}


def test_gen_writes_the_golden_bytes(tmp_path, capsys):
    code = main(["gen", "--k", "5,1000", "--cases", "2", "--qr", "3", "--out", str(tmp_path)])
    assert code == EXIT_OK
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
    assert digests == GEN_GOLDEN


def test_gen_of_an_unsorted_k_list_writes_what_each_k_writes_alone(tmp_path, capsys):
    """One draw at the largest K, not at the last K listed, gives every K."""
    together = tmp_path / "together"
    assert main(["gen", "--k", "7,2,5", "--cases", "2", "--out", str(together)]) == EXIT_OK
    for k in (7, 2, 5):
        alone = tmp_path / f"k{k}"
        assert main(["gen", "--k", str(k), "--cases", "2", "--out", str(alone)]) == EXIT_OK
        assert len(list(alone.iterdir())) == 2
        for f in alone.iterdir():
            assert (together / f.name).read_bytes() == f.read_bytes()
    assert len(list(together.iterdir())) == 6


@pytest.mark.parametrize("argv", [["study", "charges"], ["gen"]])
def test_the_command_line_defaults_are_the_study_defaults(argv):
    args = build_parser().parse_args(argv)
    config = ExperimentConfig()
    assert (args.seed, CostLaw(args.law), args.gamma, args.cases) == (
        config.seed, config.cost_law, config.gamma, config.cases,
    )
    if argv == ["gen"]:
        assert args.capacity == studies.CAPACITY
        assert args.k == (5,)
    else:
        assert args.k == config.scenario_sizes


def test_gen_rejects_bad_gamma(tmp_path, capsys):
    code = main(["gen", "--k", "2", "--cases", "1", "--gamma", "1.5", "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION


HUGE_GAMMA = "validation error: gamma must be a ratio of integers of at most 100 digits\n"


@pytest.mark.parametrize("gamma", ["1e-200", "1e-2000", "1e-20000"])
@pytest.mark.parametrize("command", ["gen", "study"])
def test_a_gamma_of_too_many_digits_is_refused_in_one_short_line(
    tmp_path, capsys, command, gamma
):
    """Such gammas once printed their 200- or 2,000-digit fraction in the
    error, or (at 1e-20000) exited 1 with a traceback from rendering it."""
    argv = ["gen", "--k", "1", "--cases", "1"] if command == "gen" else ["study", "charges"]
    assert main([*argv, "--gamma", gamma, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert capsys.readouterr() == ("", HUGE_GAMMA)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("gamma, err", [
    ("1e-10000000", HUGE_GAMMA),
    ("0e-10000000", "validation error: gamma must lie in (0, 1], got 0\n"),
])
@pytest.mark.parametrize("command", [["gen"], ["study", "servability"]])
def test_a_huge_exponent_gamma_is_refused_before_its_power_of_ten_is_built(
    tmp_path, command, gamma, err
):
    """Such gammas once spent about 13 s building 10^10000000 before the
    checks refused them; the timeout turns a regression into a failure."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(avauction.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    out = tmp_path / "out"
    argv = [*command, "--k", "1", "--cases", "1", "--gamma", gamma, "--out", str(out)]
    done = subprocess.run(
        [sys.executable, "-m", "avauction.cli", *argv],
        capture_output=True, text=True, env=env, timeout=5,
    )
    assert (done.returncode, done.stdout, done.stderr) == (EXIT_VALIDATION, "", err)
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["--k", "2,0"], ["--cases", "0"], ["--qr", "6"], ["--qr", "0"], ["--capacity", "0"]],
    ids=["k-0", "cases-0", "qr-above-capacity", "qr-0", "capacity-0"],
)
def test_gen_checks_every_setting_before_writing(tmp_path, capsys, argv):
    out = tmp_path / "d"
    assert main(["gen", "--k", "2", "--cases", "1", *argv, "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", [["gen"], ["study", "charges"]])
def test_a_repeated_bidder_count_is_refused_alike_by_gen_and_study(tmp_path, capsys, command):
    """``gen --k 2,2`` once wrote the K = 2 batch twice and exited 0."""
    out = tmp_path / "d"
    assert main([*command, "--k", "2,2", "--cases", "1", "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr() == (
        "", "validation error: scenario_sizes must not repeat a bidder count\n"
    )
    assert not out.exists()


def test_study_servability_cli(tmp_path, capsys):
    code = main([
        "study", "servability", "--k", "1,4", "--cases", "6",
        "--seed", "5", "--out", str(tmp_path),
    ])
    assert code == EXIT_OK
    csv = (tmp_path / "servability.csv").read_text()
    assert csv.splitlines()[0] == "K,service,q_r,cases,unservable"
    assert len(csv.splitlines()) == 1 + 2 * 3 * 5


def test_study_truthfulness_cli_writes_two_tables(tmp_path):
    code = main([
        "study", "truthfulness", "--k", "30", "--cases", "2",
        "--seed", "101", "--out", str(tmp_path),
    ])
    assert code == EXIT_OK
    assert (tmp_path / "truthfulness_winners.csv").exists()
    assert (tmp_path / "truthfulness_changes.csv").exists()


@pytest.mark.parametrize("name, header", [
    ("charges", "K,service,q_r,servable_cases,mean_total_charge,mean_optimal"),
    ("asymptoticity", "K,service,q_r,law,qualifying_cases,mean_change_of_payment"),
    ("timing", "K,service,mode,cases,mean_seconds"),
])
def test_each_study_writes_its_table_from_the_command_line(tmp_path, capsys, name, header):
    assert main(["study", name, "--k", "2,5", "--cases", "2", "--out", str(tmp_path)]) == EXIT_OK
    assert capsys.readouterr().out == f"wrote {tmp_path / name}.csv\n"
    lines = (tmp_path / f"{name}.csv").read_text().splitlines()
    assert lines[0] == header and len(lines) > 1
    if name == "timing":  # a float cell has exactly six decimals
        assert all(re.fullmatch(r"\d+\.\d{6}", line.split(",")[4]) for line in lines[1:])


@pytest.mark.parametrize("name, tables", [
    ("truthfulness", ("truthfulness_winners", "truthfulness_changes")),
    ("asymptoticity", ("asymptoticity",)),
    ("timing", ("timing",)),
])
def test_a_study_of_monopolies_alone_writes_header_only_tables(tmp_path, name, tables):
    """A monopoly's charge is its own bid, so these studies read no K = 1
    market and write only their headers."""
    assert main(["study", name, "--k", "1", "--cases", "2", "--out", str(tmp_path)]) == EXIT_OK
    for table in tables:
        assert (tmp_path / f"{table}.csv").read_text().count("\n") == 1


def _dead_ranges(monkeypatch):
    parent, range_sums = os.getpid(), studies._range_sums
    monkeypatch.setattr(studies, "_range_sums",
                        lambda *args: range_sums(*args) if os.getpid() == parent else os._exit(3))


def _refused_forks(monkeypatch):
    def refused():
        raise BlockingIOError(errno.EAGAIN, "fork refused")
    monkeypatch.setattr(os, "fork", refused)


@pytest.mark.parametrize("fault, says", [
    (_dead_ranges, "the process of a case range exited with 3"),
    (_refused_forks, f"[Errno {errno.EAGAIN}] fork refused"),
], ids=["dead-range", "refused-fork"])
def test_a_study_whose_case_range_fails_is_a_system_error(tmp_path, capsys, monkeypatch,
                                                          fault, says):
    """A range that dies or cannot be forked is neither a parse error nor a
    bad setting: one line, exit 71, and no table written."""
    monkeypatch.setattr(studies, "_usable_cpus", lambda: 2)
    fault(monkeypatch)
    out = tmp_path / "out"
    code = main(["study", "charges", "--k", "2", "--cases", "2", "--out", str(out)])
    assert code == EXIT_OSERR == 71
    assert capsys.readouterr() == ("", f"system error: {says}\n")
    assert not out.exists()


def test_study_invariant_violation_is_one_line(tmp_path, capsys, monkeypatch):
    # at K=5 the untruthful sub-study meets a thin-market negative change at
    # case 4; with the per-bidder solves made to disagree it must abort there
    oracle_off_by_one_micro(monkeypatch)
    code = main([
        "study", "truthfulness", "--k", "5", "--cases", "5", "--out", str(tmp_path),
    ])
    assert code == EXIT_INVARIANT == 1
    err = capsys.readouterr().err
    assert err.startswith("invariant violation: ") and "case=4" in err
    assert len(err.splitlines()) == 1


def test_truthfulness_writes_negative_changes_vcg_explains(tmp_path, capsys):
    # seed 7 raises a co-winner at K=100 and lowers the total: an exact VCG
    # outcome, checked against the per-bidder solves, not a violation
    assert main(["study", "truthfulness", "--seed", "7", "--out", str(tmp_path)]) == EXIT_OK
    rows = (tmp_path / "truthfulness_changes.csv").read_text().splitlines()
    assert [row for row in rows if ",-" in row] == ["100,splittable,4,0.500000,0.300000,3,-0.087312"]


@pytest.mark.parametrize(
    "argv, says",
    [(["charge"], "the following arguments are required: instance"),
     (["study", "charges", "--k", "x"], "argument --k: bad bidder-count list 'x'"),
     (["study", "charges", "--k", ","], "argument --k: bidder-count list is empty"),
     (["gen", "--cases", "x"], "argument --cases: invalid int value: 'x'"),
     (["gen", "--law", "medium"], "argument --law: invalid choice: 'medium'"),
     ([], "the following arguments are required: command"),
     (["gen", "--gamma", "abc"], "argument --gamma: bad ratio 'abc'")],
    ids=["missing-file", "bad-k", "empty-k", "bad-int", "bad-choice", "no-command", "bad-gamma"],
)
def test_usage_errors_exit_parse_not_unservable(argv, says, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_PARSE != EXIT_UNSERVABLE
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: {says}") and "usage: avauction" in err
    assert len(err.splitlines()) == 1


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["charge", "--help"])
    assert exc.value.code == 0
    assert "usage: avauction charge" in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["directory", "non-utf8"])
def test_unreadable_file_is_parse_error(tmp_path, capsys, kind):
    path = tmp_path / "doc.txt"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"avauction-instance v1\ncapacity 5\n# \xff\xfe\n")
    assert main(["charge", str(path)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["study", "charges", "--cases", "0"],
        ["study", "charges", "--k", "0"],
        # K=1 is skipped by the studies, so only building the config sees the seed
        ["study", "timing", "--k", "1", "--seed", "-1"],
        ["study", "asymptoticity", "--k", "1", "--gamma", "5"],
        # a bidder count given twice would write each of its rows twice
        ["study", "asymptoticity", "--k", "2,2", "--cases", "1"],
    ],
    ids=["cases-0", "k-0", "seed-negative", "gamma-above-1", "k-repeated"],
)
def test_bad_study_settings_are_validation_errors(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "charge"])
def test_huge_declared_request_is_unservable_at_once(tmp_path, capsys, command):
    # Splittable cover tables are no wider than the 3 seats the bids offer,
    # however many seats the document declares.
    path = tmp_path / "huge.txt"
    path.write_text(
        "avauction-instance v1\n"
        "capacity 1000000000\n"
        "requested_seats 1000000000\n"
        "service splittable\n"
        "bidder A available 1 prices 1:0.1\n"
        "bidder B available 2 prices 1:0.1 2:0.3\n"
    )
    assert main([command, str(path)]) == EXIT_UNSERVABLE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("unservable\n", "")


# Every kind of call the parser sees: both document commands, each service
# override, usage errors, and help; "DOC" stands for a valid document.
ARGV_POOL = (
    ("charge", "DOC"),
    ("solve", "DOC"),
    *((command, "DOC", "--service", service.value)
      for command in ("charge", "solve") for service in ServiceType),
    ("charge",),
    ("bogus", "DOC"),
    (),
    ("--help",),
    ("charge", "--help"),
    ("study", "charges", "--k", "x"),
    ("gen", "--gamma", "x"),
    ("study", "nosuch"),
    ("charge", "DOC", "extra"),
)


@pytest.fixture
def fresh_parser():
    """No parser left over from an earlier test, and none left to a later one."""
    cli.build_parser.cache_clear()
    yield
    cli.build_parser.cache_clear()


def _run(argv):
    """``main``'s return value or exit code, with what it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ("returned", main(list(argv)))
        except SystemExit as exc:
            code = ("exited", exc.code)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def pool_runs(tmp_path_factory):
    """Each pool argv with the document path filled in, and what it gives
    against a parser built for that call alone."""
    out = tmp_path_factory.mktemp("cli")
    _run(["gen", "--k", "3", "--cases", "1", "--out", str(out)])
    doc = out / "k003-case0000.txt"
    runs = []
    for argv in ARGV_POOL:
        argv = [str(doc) if arg == "DOC" else arg for arg in argv]
        cli.build_parser.cache_clear()
        runs.append((argv, _run(argv)))
    cli.build_parser.cache_clear()
    return runs


@settings(max_examples=30, deadline=None)
@given(picks=st.lists(st.integers(0, len(ARGV_POOL) - 1), min_size=1, max_size=6))
def test_a_reused_parser_answers_as_a_fresh_one(pool_runs, picks):
    cli.build_parser.cache_clear()
    for pick in picks:
        argv, fresh = pool_runs[pick]
        assert _run(argv) == fresh, argv


def test_the_parser_is_built_on_the_first_call_only(e2, tmp_path, monkeypatch, fresh_parser):
    path = tmp_path / "e2.txt"
    path.write_text(serialize_instance(e2))
    built = []

    def counting_init(self, *args, **kwargs):
        built.append(self)
        argparse.ArgumentParser.__init__(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    counts = []
    for _ in range(3):
        assert _run(["charge", str(path)])[0] == ("returned", EXIT_OK)
        counts.append(len(built))
    # the top-level parser and its four sub-commands, all in the first call
    assert counts == [5, 5, 5]
