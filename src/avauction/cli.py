"""Command-line front end: solve or charge instance files, generate random
cases, and run the study suite.

Exit codes: 0 served, 1 study invariant violation, 2 unservable, 64 parse
error (also a command-line usage error, or a file that cannot be read or
written), 65 validation error (also a study setting no case generator
accepts), 71 system error (a study's case range that cannot be forked or
whose process dies).
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from pathlib import Path
from typing import NoReturn, Optional, Sequence

from .core import Money, OversizedRatio, ServiceType, ValidationError, _integer, as_fraction
# Not called here (compiling validates), but bound for bench/tracing.py and
# bench/test_bench.py, which patch and read ``cli.validate_instance``.
from .core import validate_instance  # noqa: F401
from .instance_io import ParseError, read_instance, write_instance
from .scenario import MAX_GAMMA_DIGITS, CostLaw, InvalidLaw, generate_batch
from .studies import CAPACITY, STUDY_NAMES, ExperimentConfig, StudyInvariantViolation, run_study
from .vcg import NotServed, vcg_charges
from .wdp import solve_wdp

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_UNSERVABLE = 2
EXIT_PARSE = 64
EXIT_VALIDATION = 65
EXIT_OSERR = 71


def _shown_text(text: str) -> str:
    """A bad option text in a usage error: its repr, or its length if long."""
    return repr(text) if len(text) <= 64 else f"<{len(text)} characters>"


def _int_option(option: str):
    """The reader of an int option: ``core._integer``, so a value past the
    bound raises PastBound (exit 65) however long it is, and is not shown;
    a text ``int`` cannot read is a usage error that shows it only when
    short (argparse's own message)."""
    def read(text: str) -> int:
        try:
            return _integer(text, option)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {_shown_text(text)}") from None
    return read


def _parse_k_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(_integer(part, "--k") for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad bidder-count list {_shown_text(text)}") from None
    if not values:
        raise argparse.ArgumentTypeError("bidder-count list is empty")
    return values


def _parse_gamma(text: str) -> Fraction | str:
    try:
        return as_fraction(text, MAX_GAMMA_DIGITS)
    except OversizedRatio:
        return text  # well formed: GenerationLaw refuses it, exit 65
    except ValidationError:
        raise argparse.ArgumentTypeError(f"bad ratio {_shown_text(text)}") from None


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one line and exits EXIT_PARSE; argparse's
    own code 2 means unservable here.  Subparsers inherit the class."""

    def error(self, message: str) -> NoReturn:
        usage = " ".join(self.format_usage().split())
        self.exit(EXIT_PARSE, f"parse error: {message} ({usage})\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole parser, built on the first ``main`` call of a process and
    reused by every later call: each parse makes a fresh namespace, and help
    and usage errors go to the streams current at that call."""
    parser = _Parser(
        prog="avauction",
        description="Exact combinatorial-auction pricing for seat requests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    services = [s.value for s in ServiceType]
    defaults = ExperimentConfig  # the headline protocol

    def add_common(p: argparse.ArgumentParser, run, sizes: tuple[int, ...]) -> None:
        p.set_defaults(run=run)
        p.add_argument("--seed", type=_int_option("--seed"), default=defaults.seed,
                       help="RNG seed (u64)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--law", choices=[law.value for law in CostLaw],
                       default=defaults.cost_law.value, help="unit-cost variation regime")
        p.add_argument("--gamma", type=_parse_gamma, default=defaults.gamma,
                       help="marginal decay ratio in (0, 1], e.g. 0.8 or 4/5")
        p.add_argument("--cases", type=_int_option("--cases"), default=defaults.cases,
                       help="random cases per scenario")
        p.add_argument("--k", type=_parse_k_list, default=sizes,
                       help="comma-separated bidder counts, e.g. 1,5,10,30,50,100")

    for name, text, run in [("solve", "solve one instance file", cmd_solve),
                            ("charge", "compute the full charge report", cmd_charge)]:
        p = sub.add_parser(name, help=text)
        p.set_defaults(run=run)
        p.add_argument("instance", help="instance document path")
        p.add_argument("--service", choices=services,
                       default=None, help="override the file's service type")

    p_gen = sub.add_parser("gen", help="generate random instance files")
    add_common(p_gen, cmd_gen, (5,))
    p_gen.add_argument("--service", choices=services, default="splittable")
    p_gen.add_argument("--qr", type=_int_option("--qr"), default=1, help="requested seats")
    p_gen.add_argument("--capacity", type=_int_option("--capacity"), default=CAPACITY)

    p_study = sub.add_parser("study", help="run a study and write its CSV tables")
    p_study.add_argument("name", choices=STUDY_NAMES)
    add_common(p_study, cmd_study, defaults.scenario_sizes)

    return parser


def _load_instance(path: str, service_override: Optional[str]):
    """The document's instance, not yet validated: ``solve_wdp`` and
    ``vcg_charges`` compile it first, which makes ``validate_instance``'s
    one check, ``bid_series``, so each schedule is checked once."""
    instance = read_instance(path)
    if service_override is not None:
        instance = instance.with_service(ServiceType(service_override))
    return instance


def cmd_solve(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance, args.service)
    allocation = solve_wdp(instance)
    if allocation is None:
        print("unservable")
        return EXIT_UNSERVABLE
    parts = [f"winner {b} size {m}" for b, m in allocation.assignments]
    parts.append(f"total {allocation.total_bid.to_decimal()}")
    print(" ".join(parts))
    return EXIT_OK


def cmd_charge(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance, args.service)
    try:
        report = vcg_charges(instance)
    except NotServed:
        print("unservable")
        return EXIT_UNSERVABLE
    optimum = report.optimum.to_decimal()
    # Every bidder the report does not list prints the optimum and a zero
    # charge, so that line is rendered once.
    non_winner = f" pivotal {optimum} charge {Money(0).to_decimal()}"
    listed = {}
    for entry in report.listed:
        pivotal = "unservable" if entry.pivotal is None else entry.pivotal.to_decimal()
        listed[entry.bidder_id] = f" pivotal {pivotal} charge {entry.charge.to_decimal()}"
    lines = [f"service {report.service.value}", f"optimum {optimum}"]
    for bidder_id in report.bidder_ids:
        lines.append(f"bidder {bidder_id}{listed.get(bidder_id, non_winner)}")
    lines.append(f"total {report.total_charge.to_decimal()}")
    lines.append(f"fallback {'true' if report.fallback else 'false'}")
    print("\n".join(lines))
    return EXIT_OK


def _config(args: argparse.Namespace) -> ExperimentConfig:
    """The settings ``gen`` and ``study`` share, checked by the study config."""
    return ExperimentConfig(
        scenario_sizes=args.k,
        cases=args.cases,
        cost_law=CostLaw(args.law),
        gamma=args.gamma,
        seed=args.seed,
    )


def cmd_gen(args: argparse.Namespace) -> int:
    config = _config(args)
    service = ServiceType(args.service)
    # Draw once at the largest K, take each K as a head of it, and assemble
    # everything before anything is written, so a bad setting leaves no
    # output directory behind.
    full = generate_batch(config.law(), max(config.scenario_sizes), args.capacity, config.cases)
    batches = [full.head(k) for k in config.scenario_sizes]
    instances = [[b.instance(i, service, args.qr) for i in range(b.case_count)] for b in batches]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for batch, batch_instances in zip(batches, instances):
        k = batch.bidder_count
        for i, instance in enumerate(batch_instances):
            comments = [f"generated: {batch.case_label(i)}"]
            write_instance(out / f"k{k:03d}-case{i:04d}.txt", instance, comments)
        print(f"wrote {batch.case_count} instance(s) for K={k} under {out}")
    return EXIT_OK


def cmd_study(args: argparse.Namespace) -> int:
    config = _config(args)
    try:
        tables = run_study(args.name, config)
    except OSError as exc:  # a study does no file I/O: a fork or a case range failed
        print(f"system error: {exc}", file=sys.stderr)
        return EXIT_OSERR
    for table in tables:
        path = table.write_csv(args.out)
        print(f"wrote {path}")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValidationError, InvalidLaw) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except StudyInvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
