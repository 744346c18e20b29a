"""One benchmark worker: a fresh process that sets up, makes one timed pass
and writes its raw results for ``run.py``, which starts it.

    python3 bench/worker.py --workload NAME --seed N --unit U --trace 0|1 \
        --dir WORK [--spans PATH]

Set-up is everything before the first timed operation: importing
``avauction.cli`` from ``src/`` and, for the charge workloads, generating and writing the
pass's instance documents.  A pass never times the same input twice: a
charge pass requests each of its distinct documents once, and a study pass
runs one study (``--unit``) once.  Each operation goes through
``avauction.cli.main`` in-process with standard output captured, and is
checked after its clock stops.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks

ROOT = Path.cwd()
SERVICES = ("splittable", "nonsplittable", "private")
CAPACITY = 5
# Documents cycle through every service at every requested size.
REQUESTS = tuple((service, q) for q in range(1, CAPACITY + 1) for service in SERVICES)
# Seconds one study pass takes on the machine the benchmark was built on.
STUDY_PASS_S = 20
# Every input's best time comes from at least this many processes.  Three
# would steady the study times more, but a study run would then take about
# a minute, twice the run length the benchmark is set to.
MIN_PASSES = 2


def setup_package() -> None:
    """Import the package and its command-line module, as ``avauction`` does."""
    sys.path.insert(0, str(ROOT / "src"))
    import avauction.cli  # noqa: F401


def _doc_seed(seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class ChargeWorkload:
    name: str
    bidders: int
    docs: int  # a whole number of cycles through REQUESTS
    # Seconds one pass (set-up included) takes on the machine the benchmark
    # was built on.
    pass_s: float

    def write_docs(self, seed: int, count: int, directory: Path) -> list[Path]:
        """Write ``count`` documents, cycling through ``REQUESTS``.

        Every document gets a fresh case (a generator seed derived from
        ``seed`` and its index), so no two documents share bids.
        """
        from avauction.core import ServiceType
        from avauction.instance_io import serialize_instance
        from avauction.scenario import GenerationLaw, generate_batch

        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for index in range(count):
            service, q = REQUESTS[index % len(REQUESTS)]
            batch = generate_batch(GenerationLaw(seed=_doc_seed(seed, index)), self.bidders, CAPACITY, 1)
            path = directory / f"request{index:05d}.txt"
            path.write_text(serialize_instance(batch.instance(0, ServiceType(service), q)))
            paths.append(path)
        return paths


CHARGE_WORKLOADS = {
    w.name: w
    for w in (ChargeWorkload("charge-k1000", 1000, 30, 3.3), ChargeWorkload("charge-k10", 10, 750, 2.2))
}
WORKLOADS = ("studies", *CHARGE_WORKLOADS)


def schedule(workload: str, seconds: float) -> list[list[str]]:
    """The run's passes over the same inputs, each a list of units; each
    unit runs in a fresh process.  A run of S seconds makes as many passes
    as fit into S on the machine the benchmark was built on, and at least
    ``MIN_PASSES``; a traced run traces its odd passes."""
    if workload == "studies":
        pass_s, units = STUDY_PASS_S, list(checks.STUDY_TABLES)
    else:
        pass_s, units = CHARGE_WORKLOADS[workload].pass_s, ["requests"]
    return [units] * max(MIN_PASSES, round(seconds / pass_s))


def call_cli(argv: list[str]) -> tuple[int, str, int]:
    from avauction import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter_ns()
        code = cli.main(argv)
        elapsed = time.perf_counter_ns() - start
    return code, out.getvalue(), elapsed


class Charges:
    """Closed loop, one client, no think time, over distinct documents.

    Every report is checked against its document's invariants; at the
    default seed it must also match the recorded output.
    """

    def __init__(self, workload: ChargeWorkload, seed: int, directory: Path):
        self.paths = workload.write_docs(seed, workload.docs, directory)
        self.expected = checks.load_expected()[workload.name] if seed == checks.DEFAULT_SEED else []

    def keys(self) -> range:
        return range(len(self.paths))

    def label(self, key: int) -> str:
        return REQUESTS[key % len(REQUESTS)][0]

    def execute(self, key: int) -> tuple[int, str, list[str]]:
        code, text, elapsed = call_cli(["charge", str(self.paths[key])])
        output = checks.charge_output(code, text)
        problems = checks.charge_problems(checks.read_doc(self.paths[key].read_text()), code, text)
        if self.expected and output != self.expected[key]:
            problems.append(f"output {output} != recorded {self.expected[key]}")
        return elapsed, output, problems


class Study:
    """One study at default config.

    The default config fixes the study seed; the workload seed does not
    change these inputs.
    """

    def __init__(self, name: str, directory: Path):
        self.name = name
        self.out = directory / "studies"
        self.expected = checks.load_expected()["studies"]

    def keys(self) -> list[str]:
        return [self.name]

    def label(self, key: str) -> str:
        return key

    def execute(self, key: str) -> tuple[int, str, list[str]]:
        code, _, elapsed = call_cli(["study", key, "--out", str(self.out)])
        problems = [f"exit code {code}"] if code else []
        return elapsed, str(code), problems + checks.study_problems(key, self.out, self.expected)


def measure(workload) -> dict:
    """Run every operation of the pass once.

    Each operation is recorded as [key, label, nanoseconds, output, passed],
    where the key names what was run (a document index or a study name).
    """
    ops, failures = [], []
    start = time.perf_counter_ns()
    for key in workload.keys():
        try:
            elapsed, output, problems = workload.execute(key)
        except Exception as exc:  # a failed operation is counted, not fatal
            elapsed, output, problems = 0, None, [f"{type(exc).__name__}: {exc}"]
        ops.append([key, workload.label(key), elapsed, output, not problems])
        failures.extend(f"{workload.label(key)} #{key}: {p}" for p in problems)
    return {"ops": ops, "failures": failures[:20], "wall_ns": time.perf_counter_ns() - start}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--unit", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    setup_package()
    if args.workload == "studies":
        workload = Study(args.unit, args.dir)
    else:
        workload = Charges(CHARGE_WORKLOADS[args.workload], args.seed, args.dir / "docs")
    ready_ns = time.monotonic_ns()
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            result = measure(workload)
        finally:
            uninstall()
        result["layers"] = tracing.totals(tracer, result["wall_ns"])
        if args.spans:
            tracer.write(args.spans)
    else:
        result = measure(workload)
    result["ready_ns"] = ready_ns
    (args.dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
