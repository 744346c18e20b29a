import argparse
import contextlib
import io
import os
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
from avauction.cli import (
    EXIT_INVARIANT, EXIT_OK, EXIT_PARSE, EXIT_UNSERVABLE, EXIT_VALIDATION, build_parser, main,
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


# The longest whole part ``int`` reads from text by default.
NINES = "9" * 4300
LONG_DOC = (
    "avauction-instance v1\ncapacity 5\nrequested_seats 2\nservice splittable\n"
    f"bidder A available 1 prices 1:{NINES}\nbidder B available 1 prices 1:{NINES}\n"
)


@pytest.mark.parametrize("command", ["solve", "charge"])
def test_a_total_of_more_than_4300_digits_prints_exactly(tmp_path, capsys, command):
    """Such a document once raised ValueError from ``str`` of the 4301-digit
    whole part of its optimum, and exited 1 with a traceback."""
    path = tmp_path / "long.txt"
    path.write_text(LONG_DOC)
    assert main([command, str(path)]) == EXIT_OK
    price, optimum = f"{NINES}.000000", f"1{NINES[1:]}8.000000"  # 2 * (10**4300 - 1)
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
def test_a_price_may_have_as_many_whole_digits_as_int_reads(tmp_path, capsys, fraction):
    """The whole and fractional digits are read apart, so the limit on a
    price's whole part is ``int``'s own, 4300 digits, whatever its
    fraction: one digit more is a malformed record, exit 64."""
    path = tmp_path / "limit.txt"
    path.write_text(LONG_DOC.replace(f"{NINES}\n", f"{NINES}{fraction}\n", 1))
    assert main(["solve", str(path)]) == EXIT_OK
    path.write_text(LONG_DOC.replace(f"{NINES}\n", f"9{NINES}{fraction}\n", 1))
    assert main(["solve", str(path)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("parse error: line 5: malformed bidder record (") and len(err.splitlines()) == 1


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


@pytest.mark.parametrize("argv", [["study", "charges"], ["gen"]])
def test_the_command_line_defaults_are_the_study_defaults(argv):
    args = build_parser().parse_args(argv)
    config = ExperimentConfig()
    assert (args.seed, CostLaw(args.law), args.gamma, args.cases) == (
        config.seed, config.cost_law, config.gamma, config.cases,
    )
    if argv == ["gen"]:
        assert args.capacity == studies.CAPACITY


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
    "argv",
    [["charge"], ["study", "charges", "--k", "x"], ["gen", "--law", "medium"], [],
     ["gen", "--gamma", "abc"]],
    ids=["missing-file", "bad-k", "bad-choice", "no-command", "bad-gamma"],
)
def test_usage_errors_exit_parse_not_unservable(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_PARSE != EXIT_UNSERVABLE
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and "usage: avauction" in err
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
