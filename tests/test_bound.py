"""The one bound on a valid instance's ints, from both sides of it.

Capacity, requested seats, availability and each price in micros lie
strictly within INT_BOUND = 10**200 in every instance ``validate_instance``
accepts, and every such instance survives its text.  One past the bound,
each entry (the library types, validation, the parser, ``perturb_bids``
and the int options of ``gen`` and ``study``) raises PastBound, a
ValidationError whose message never shows the value, and the command line
exits 65 on one line.
"""

import io
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from avauction import (
    AuctionInstance,
    BidSchedule,
    GenerationLaw,
    MissingPrice,
    Money,
    NotServed,
    ServiceType,
    generate_batch,
    parse_instance,
    perturb_bids,
    serialize_instance,
    validate_instance,
    vcg_charges,
)
from avauction.cli import EXIT_OK, EXIT_PARSE, EXIT_UNSERVABLE, EXIT_VALIDATION, main
from avauction.core import INT_BOUND, PastBound, micros_to_decimal

from conftest import failed, make_instance, outcome, sched

# Small ints, and ints within a few of the bound on either side of it.
NEAR = st.one_of(st.integers(1, 6), st.integers(INT_BOUND - 3, INT_BOUND + 2))


def past(value) -> bool:
    return not -INT_BOUND < value < INT_BOUND


def shows_no_digits_past_the_bound(message: str) -> bool:
    return "past the bound" in message and not re.search(r"\d{201}", message)


def written(fields, bids):
    """The text the serializer writes for these fields and bids, a bid
    being (id, price series in micros), whether they are valid or not."""
    capacity, requested, service = fields
    lines = ["avauction-instance v1", f"capacity {capacity}", f"requested_seats {requested}",
             f"service {service.value}"]
    for bidder_id, series in bids:
        items = "".join(f" {m}:{micros_to_decimal(p)}" for m, p in enumerate(series, 1))
        lines.append(f"bidder {bidder_id} available {len(series)} prices{items}")
    return "\n".join(lines) + "\n"


def run_cli(argv, text=None):
    """``main(argv)``'s exit code, stdout and stderr, with ``text`` as the
    document the last argument names."""
    with tempfile.TemporaryDirectory() as tmp:
        if text is not None:
            path = Path(tmp, "doc.txt")
            path.write_text(text)
            argv = [*argv, str(path)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def refused_on_one_line(run) -> bool:
    code, out, err = run
    return (code == EXIT_VALIDATION and out == "" and err.startswith("validation error: ")
            and err.count("\n") == 1 and err.endswith("\n") and shows_no_digits_past_the_bound(err))


def library_instance(fields, bids):
    """The instance the library builds and validates from the same ints."""
    capacity, requested, service = fields
    schedules = [BidSchedule(bidder_id, len(series), {m: Money(p) for m, p in enumerate(series, 1)})
                 for bidder_id, series in bids]
    return validate_instance(AuctionInstance(capacity, requested, service, tuple(schedules)))


@st.composite
def edge_cases(draw):
    """Fields and strictly increasing prices, each small or within a few of
    the bound on either side.  No concave flag, so a schedule's only faults
    are a price past the bound or an availability past the capacity."""
    fields = (draw(NEAR), draw(NEAR), draw(st.sampled_from(list(ServiceType))))
    bids = []
    for j in range(draw(st.integers(0, 3))):
        level = draw(st.sampled_from([0, INT_BOUND - 4, INT_BOUND - 1]))
        steps = draw(st.lists(st.integers(1, 2), max_size=4))
        bids.append((f"b{j}", [level + sum(steps[:m]) for m in range(1, len(steps) + 1)]))
    return fields, bids


SPLIT = ServiceType.SPLITTABLE


@settings(deadline=None, max_examples=150)
@given(edge_cases())
@example(((INT_BOUND - 1, INT_BOUND - 1, SPLIT), [("b0", [INT_BOUND - 1]), ("b1", [1, 2])]))
@example(((5, 2, SPLIT), [("b0", [INT_BOUND - 2, INT_BOUND - 1]), ("b1", [INT_BOUND - 1])]))
@example(((5, 2, SPLIT), [("b0", [INT_BOUND - 2, INT_BOUND])]))
@example(((INT_BOUND, 1, SPLIT), [("b0", [1])]))
@example(((5, INT_BOUND, SPLIT), []))
def test_the_library_and_the_text_agree_on_each_side_of_the_bound(case):
    """Below the bound the text the serializer writes parses back to the
    library's instance, or raises its error, and charges as it does; with
    any int past the bound, both raise PastBound without showing it, and
    the command line exits 65 on one line that does not show it either."""
    fields, bids = case
    text = written(fields, bids)
    library = outcome(lambda _: library_instance(fields, bids), None)
    parsed = outcome(lambda t: validate_instance(parse_instance(t)), text)
    run = run_cli(["charge"], text)
    if any(past(value) for value in [*fields[:2], *(p for _, series in bids for p in series)]):
        for result in (library, parsed):
            assert failed(result) and result[0] is PastBound, result
            assert shows_no_digits_past_the_bound(result[1])
        assert refused_on_one_line(run)
        return
    assert parsed == library
    if failed(library):
        assert run[0] == EXIT_VALIDATION
        return
    assert serialize_instance(library) == text
    charges = outcome(vcg_charges, library)
    assert outcome(vcg_charges, parsed) == charges
    if failed(charges):
        assert charges[0] is NotServed and run[0] == EXIT_UNSERVABLE
    else:
        assert run[0] == EXIT_OK and f"\noptimum {charges.optimum.to_decimal()}\n" in run[1]


def test_an_availability_is_bounded_before_its_prices_are_read():
    """An availability just below the bound asks for a price of every size
    (there cannot be that many); at the bound it is refused outright, by
    the constructor and by the parser alike."""
    with pytest.raises(MissingPrice):
        BidSchedule("A", INT_BOUND - 1, {1: Money(1)})
    with pytest.raises(PastBound, match="^bidder A: available_seats past the bound 10"):
        BidSchedule("A", INT_BOUND, {1: Money(1)})
    text = written((INT_BOUND - 1, 1, SPLIT), [("A", [1])])
    below = text.replace("available 1 ", f"available {INT_BOUND - 1} ")
    with pytest.raises(MissingPrice):
        validate_instance(parse_instance(below))
    at = text.replace("available 1 ", f"available {INT_BOUND} ")
    with pytest.raises(PastBound, match="^line 5: available_seats past the bound 10"):
        parse_instance(at)
    assert refused_on_one_line(run_cli(["solve"], at))


def test_a_raise_is_bounded_in_its_fraction_and_its_prices():
    """A raise whose terms reach the bound, or that lifts a price to it, is
    refused; one step short of either is taken exactly."""
    instance = make_instance(5, 1, SPLIT, [sched("A", 2, {1: "1", 2: "2"}), sched("B", 1, {1: "3"})])
    assert perturb_bids(instance, [], Fraction(1, INT_BOUND - 1)) == instance
    for fraction in (Fraction(1, INT_BOUND), Fraction(INT_BOUND, 3), -Fraction(INT_BOUND), 10**5000):
        with pytest.raises(PastBound, match="^raise_fraction past the bound 10"):
            perturb_bids(instance, [], fraction)
    top = 2 * 10**6  # A's largest price, in micros
    raised = perturb_bids(instance, ["A"], Fraction(INT_BOUND - 1 - top, top))
    assert raised.bids[0]._series[-1] == INT_BOUND - 1 and raised.bids[1] is instance.bids[1]
    with pytest.raises(PastBound, match="^bidder A: raised price, in micros, past the bound 10"):
        perturb_bids(instance, ["A"], Fraction(INT_BOUND - top, top))


@pytest.mark.parametrize("digits", [201, 4301, 5000])
@pytest.mark.parametrize("words", [
    *(f"gen {option}" for option in ("--capacity", "--qr", "--seed", "--cases", "--k")),
    *(f"study servability {option}" for option in ("--seed", "--cases", "--k")),
])
def test_gen_and_study_refuse_an_int_option_past_the_bound(tmp_path, words, digits):
    """An int option (each entry of ``--k`` too) past the bound is refused
    on one line that does not show it, however many digits it has, before
    anything is drawn or written; ``int`` alone reads no more than 4300.
    So is the same value with blanks around it or ``_`` in its digits."""
    *command, option = words.split()
    out = tmp_path / "out"
    zeros = "0" * (digits - 1)
    for value in ("1" + zeros, " 1" + zeros + "\t", "1_" + zeros):
        if option == "--k":
            value = "1," + value
        run = run_cli([*command, "--k", "1", "--cases", "1", option, value, "--out", str(out)])
        assert refused_on_one_line(run)
        assert not out.exists()
    with pytest.raises(PastBound):
        generate_batch(GenerationLaw(seed=1), 1, INT_BOUND, 1)


@pytest.mark.parametrize("words", [
    *(f"gen {option}" for option in ("--capacity", "--qr", "--seed", "--cases", "--k", "--gamma")),
    *(f"study servability {option}" for option in ("--seed", "--cases", "--k")),
])
def test_an_option_text_that_cannot_be_read_is_shown_only_when_short(tmp_path, capsys, words):
    """A text the option's reader refuses is a usage error (exit 64) on one
    line; 5000 zeros and a 5, which ``int`` cannot read but the bound does
    not refuse, are named by their length, not echoed, and a short bad
    value keeps argparse's message."""
    *command, option = words.split()
    out = tmp_path / "out"
    kind = {"--k": "bad bidder-count list", "--gamma": "bad ratio"}.get(option, "invalid int value:")
    for value, shown in [("abc", "'abc'"), ("0" * 5000 + "5", "<5001 characters>")]:
        with pytest.raises(SystemExit) as exc:
            main([*command, option, value, "--out", str(out)])
        stdout, err = capsys.readouterr()
        assert (exc.value.code, stdout) == (EXIT_PARSE, "")
        assert err.startswith(f"parse error: argument {option}: {kind} {shown} (usage: avauction ")
        assert err.count("\n") == 1 and len(err) < 400
    assert not out.exists()
