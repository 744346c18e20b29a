"""Output checks for the benchmark, independent of the avauction package.

Every charge report is checked against invariants derived from its
instance document alone: exit code 2 exactly when the request is
unservable, non-winners pay 0, winners pay at least their accepted bid,
the winners cover the request, and the charge identity holds unless the
report falls back.  At the default seed every output must also match the
value recorded in ``expected.json``.

``python3 bench/checks.py`` re-records ``expected.json`` by running every
default-seed request and study once through the command-line entry point.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 20250810
MICROS = 10**6
EXPECTED_PATH = Path(__file__).with_name("expected.json")

# CSV files each study writes; timing.csv holds wall times, so only its
# header and row count are deterministic.
STUDY_TABLES = {
    "servability": ("servability",),
    "charges": ("charges",),
    "truthfulness": ("truthfulness_winners", "truthfulness_changes"),
    "asymptoticity": ("asymptoticity",),
    "timing": ("timing",),
}
UNTIMED = "timing"


def charge_output(code: int, text: str) -> str:
    """A charge request's exit code and a digest of its report text."""
    return f"{code}:{hashlib.sha256(text.encode()).hexdigest()[:16]}"


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def _micros(text: str) -> int:
    whole, _, frac = text.partition(".")
    return int(whole) * MICROS + int(frac.ljust(6, "0"))


@dataclass(frozen=True)
class Doc:
    """The parts of an instance document the invariants need."""

    capacity: int
    requested: int
    service: str
    prices: dict  # bidder id -> offerable prices in micros, size 1 first


def read_doc(text: str) -> Doc:
    fields, prices = {}, {}
    for line in text.splitlines():
        tokens = line.split()
        if not tokens or tokens[0].startswith("#") or tokens[0] == "avauction-instance":
            continue
        if tokens[0] == "bidder":
            available = int(tokens[3])
            series = dict(item.split(":") for item in tokens[tokens.index("prices") + 1:])
            prices[tokens[1]] = (available, series)
        else:
            fields[tokens[0]] = tokens[1]
    capacity = int(fields["capacity"])
    return Doc(
        capacity=capacity,
        requested=int(fields["requested_seats"]),
        service=fields["service"],
        prices={
            b: [_micros(series[str(m)]) for m in range(1, min(available, capacity) + 1)]
            for b, (available, series) in prices.items()
        },
    )


def servable(doc: Doc) -> bool:
    offered = [len(p) for p in doc.prices.values()]
    if doc.service == "splittable":
        return sum(offered) >= doc.requested
    if doc.service == "nonsplittable":
        return max(offered, default=0) >= doc.requested
    return doc.capacity in offered


def charge_problems(doc: Doc, code: int, text: str) -> list[str]:
    """Invariant violations of one ``charge`` output; empty when it is sound."""
    if not servable(doc):
        return [] if (code, text) == (2, "unservable\n") else [f"unservable request gave exit {code}"]
    if code != 0:
        return [f"servable request gave exit {code}"]
    lines = [line.split() for line in text.splitlines()]
    head = dict(line for line in lines if len(line) == 2)
    rows = [(t[1], None if t[3] == "unservable" else _micros(t[3]), _micros(t[5]))
            for t in lines if t[0] == "bidder"]
    problems = []
    if head.get("service") != doc.service:
        problems.append(f"service {head.get('service')} != {doc.service}")
    if [b for b, _, _ in rows] != sorted(doc.prices):
        problems.append("bidder lines do not list every bidder in id order")
    p_star, total = _micros(head["optimum"]), _micros(head["total"])
    fallback = head["fallback"] == "true"
    sizes, accepted = [], 0
    for bidder, pivotal, charge in rows:
        # charge = pivotal - (p* - own bid), so the accepted bid is recoverable.
        own = charge if pivotal is None else charge - pivotal + p_star
        if pivotal is None and not fallback:
            problems.append(f"{bidder}: unservable exclusion without fallback")
        if own == 0:
            if charge != 0:
                problems.append(f"non-winner {bidder} pays {charge}")
            continue
        if own not in doc.prices[bidder]:
            problems.append(f"winner {bidder}: accepted bid {own} is not one of its prices")
            continue
        if charge < own:
            problems.append(f"winner {bidder} pays {charge} below its bid {own}")
        sizes.append(doc.prices[bidder].index(own) + 1)
        accepted += own
    if accepted != p_star:
        problems.append(f"winning bids sum to {accepted}, optimum is {p_star}")
    need = doc.capacity if doc.service == "private" else doc.requested
    covered = sum(sizes) == need if doc.service == "splittable" else sizes == [need]
    if not covered:
        problems.append(f"winner sizes {sizes} do not serve {need} seats as {doc.service}")
    expected_total = p_star if fallback else p_star + sum(p - p_star for _, p, _ in rows)
    if total != expected_total:
        problems.append(f"total {total} != {'optimum' if fallback else 'charge identity'} {expected_total}")
    return problems


def fingerprint(table: str, text: str):
    """sha256 of a deterministic table; header and row count of timing.csv."""
    if table == UNTIMED:
        lines = text.splitlines()
        return {"header": lines[0] if lines else "", "rows": len(lines) - 1}
    return hashlib.sha256(text.encode()).hexdigest()


def study_problems(name: str, directory: Path, expected: dict) -> list[str]:
    """Compare one study's CSV files with the recorded default-config outputs."""
    problems = []
    for table in STUDY_TABLES[name]:
        path = directory / f"{table}.csv"
        if not path.is_file():
            problems.append(f"{path.name} missing")
        elif (got := fingerprint(table, path.read_text())) != expected[path.name]:
            problems.append(f"{path.name}: {got} != recorded {expected[path.name]}")
    return problems


def record(directory: Path) -> dict:
    """Run every default-seed operation once and return the outputs to expect."""
    import worker

    expected = {"seed": DEFAULT_SEED, "studies": {}}
    worker.setup_package()
    out = directory / "studies"
    for name in STUDY_TABLES:
        worker.call_cli(["study", name, "--out", str(out)])
        for table in STUDY_TABLES[name]:
            expected["studies"][f"{table}.csv"] = fingerprint(table, (out / f"{table}.csv").read_text())
    for workload in worker.CHARGE_WORKLOADS.values():
        outputs = []
        for path in workload.write_docs(DEFAULT_SEED, workload.docs, directory / workload.name):
            code, text, _ = worker.call_cli(["charge", str(path)])
            outputs.append(charge_output(code, text))
        expected[workload.name] = outputs
    return expected


if __name__ == "__main__":
    import sys
    import tempfile

    sys.path.insert(0, str(Path(__file__).parent))
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        EXPECTED_PATH.write_text(json.dumps(record(Path(tmp)), indent=1) + "\n")
    print(f"wrote {EXPECTED_PATH}")
