"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest bench/test_bench.py

Run from the repository root.  The recorded charge outputs are checked
against the literal oracle, ``vcg_charges(..., independent_solves=True)``:
every charge-k10 request and a few charge-k1000 ones.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from avauction import NotServed, read_instance, validate_instance, vcg_charges  # noqa: E402

# charge-k1000 requests small enough for the per-bidder oracle: one per
# service at q_r = 1, and the single-vehicle services at q_r = 5.
K1000_SAMPLE = (0, 1, 2, 13, 14)


def oracle_output(path: Path) -> tuple[int, str]:
    """The exit code and text ``charge`` should print, from the literal oracle."""
    try:
        report = vcg_charges(validate_instance(read_instance(path)), independent_solves=True)
    except NotServed:
        return 2, "unservable\n"
    lines = [f"service {report.service.value}", f"optimum {report.optimum.to_decimal()}"]
    for entry in report.per_bidder:
        pivotal = "unservable" if entry.pivotal is None else entry.pivotal.to_decimal()
        lines.append(f"bidder {entry.bidder_id} pivotal {pivotal} charge {entry.charge.to_decimal()}")
    lines.append(f"total {report.total_charge.to_decimal()}")
    lines.append(f"fallback {'true' if report.fallback else 'false'}")
    return 0, "\n".join(lines) + "\n"


def write_docs(workload: str, seed: int, count: int, directory: Path) -> list[Path]:
    return worker.CHARGE_WORKLOADS[workload].write_docs(seed, count, directory)


@pytest.fixture(scope="module")
def k10_docs(tmp_path_factory):
    count = worker.CHARGE_WORKLOADS["charge-k10"].docs
    return write_docs("charge-k10", checks.DEFAULT_SEED, count, tmp_path_factory.mktemp("k10"))


def test_k10_recorded_outputs_match_oracle(k10_docs):
    expected = checks.load_expected()["charge-k10"]
    assert len(expected) == len(k10_docs)
    got = [checks.charge_output(*oracle_output(path)) for path in k10_docs]
    assert got == expected
    assert {o.split(":")[0] for o in expected} == {"0", "2"}  # both exit codes occur


def test_k1000_recorded_outputs_match_oracle_sample(tmp_path):
    docs = write_docs("charge-k1000", checks.DEFAULT_SEED, max(K1000_SAMPLE) + 1, tmp_path)
    expected = checks.load_expected()["charge-k1000"]
    assert len(expected) == worker.CHARGE_WORKLOADS["charge-k1000"].docs
    for index in K1000_SAMPLE:
        assert checks.charge_output(*oracle_output(docs[index])) == expected[index], index


def test_invariants_hold_for_oracle_reports_at_another_seed(tmp_path):
    docs = write_docs("charge-k10", 7, 150, tmp_path)
    codes = set()
    for path in docs:
        code, text = oracle_output(path)
        codes.add(code)
        assert checks.charge_problems(checks.read_doc(path.read_text()), code, text) == [], path.name
    assert codes == {0, 2}


def test_invariants_reject_tampered_reports(k10_docs):
    path = next(p for p in k10_docs if oracle_output(p)[0] == 0)
    doc = checks.read_doc(path.read_text())
    code, text = oracle_output(path)
    lines = text.splitlines(keepends=True)
    bidders = [i for i, line in enumerate(lines) if line.startswith("bidder")]
    winner = next(i for i in bidders if not lines[i].rstrip().endswith("charge 0.000000"))
    loser = next(i for i in bidders if lines[i].rstrip().endswith("charge 0.000000"))

    def with_line(index, line):
        return "".join(lines[:index] + [line] + lines[index + 1:])

    tampered = [
        with_line(loser, lines[loser].replace("charge 0.000000", "charge 0.000001")),
        with_line(winner, lines[winner].rsplit(" ", 1)[0] + " 0.000000\n"),
        with_line(len(lines) - 2, "total 0.000001\n"),
        text.replace("fallback false", "fallback true"),
    ]
    for bad in tampered:
        assert checks.charge_problems(doc, code, bad), bad
    assert checks.charge_problems(doc, 2, "unservable\n")


def test_tracer_patches_every_binding_and_accounts_for_wall_time(k10_docs):
    import avauction
    from avauction import cli, studies, vcg, wdp

    originals = (vcg.solve_wdp, studies.vcg_charges, cli.validate_instance, avauction.solve_wdp)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert wdp.solve_wdp is vcg.solve_wdp is studies.solve_wdp is cli.solve_wdp
        assert vcg.solve_wdp.__wrapped__ is originals[0]
        assert cli.validate_instance.__wrapped__ is originals[2]
        start = tracing.time.perf_counter_ns()
        for path in k10_docs[:30]:
            worker.call_cli(["charge", str(path)])
        wall = tracing.time.perf_counter_ns() - start
    finally:
        uninstall()
    assert (vcg.solve_wdp, studies.vcg_charges, cli.validate_instance, avauction.solve_wdp) == originals
    assert sum(tracer.self_ns().values()) == tracer.top_level_ns()
    metrics = tracing.layer_metrics(tracing.totals(tracer, wall), 0.0, 30)
    self_total = sum(m["value"] for name, m in metrics.items() if name.endswith(".self_s"))
    assert self_total + metrics["trace.remainder_s"]["value"] == pytest.approx(wall / 1e9, abs=1e-6)
    assert metrics["cli.main.calls"]["value"] == 30
    assert metrics["instance_io.parse.calls"]["value"] == 30
    assert metrics["wdp.solve.duplicate_frac"]["value"] == 0.0  # 30 distinct documents


def test_duplicate_solves_are_counted_by_content():
    from avauction.core import ServiceType
    from avauction.scenario import GenerationLaw, generate_batch
    from avauction.wdp import solve_wdp

    batch = generate_batch(GenerationLaw(seed=1), 20, 5, 1)
    tracer = tracing.Tracer()
    solve = tracer.wrap("wdp.solve", solve_wdp, tracing._solve_counts)
    instance = batch.instance(0, ServiceType.SPLITTABLE, 3)
    solve(instance)
    solve(instance)
    solve(batch.instance(0, ServiceType.SPLITTABLE, 4))
    solve(instance.without_bidder("b0000"))
    solve(generate_batch(GenerationLaw(seed=1), 20, 5, 1).instance(0, ServiceType.SPLITTABLE, 3))
    assert tracer.counters["wdp.solve.duplicates"] == 2


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert bench_run.tail(list(range(1, 1001))) == (99.0, 990, 10)
    assert bench_run.tail(list(range(1, 1000))) == (95.0, 950, 49)
    assert bench_run.tail([5, 1, 3]) == (100.0, 5, 0)


def test_benchmark_json_names_every_reported_metric():
    benchmark = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layers = tracing.layer_metrics(tracing.totals(tracing.Tracer(), 1), 0.0, 0)
    assert [m["name"] for m in benchmark["per_layer"]] == list(layers)
    assert all(m["unit"] == layers[m["name"]]["unit"] for m in benchmark["per_layer"])
    ops = [[0, "splittable", 2_000_000, True, False], [1, "private", 1_000_000, True, False],
           [0, "splittable", 3_000_000, True, False], [1, "private", 9_000_000, False, False]]
    end_to_end, detail = bench_run.end_to_end(ops, [0.5], 2048)
    assert [m["name"] for m in benchmark["end_to_end"]] == list(end_to_end)
    assert end_to_end["best_throughput_per_s"]["value"] == pytest.approx(2 / 0.003)
    assert detail["best_tail_ms"] == 2.0 and detail["best_p50_ms"] == 1.5
    assert detail["per_request"]["samples"] == 3
    assert [w["name"] for w in benchmark["workloads"]] == list(bench_run.WORKLOADS)


def test_no_pass_repeats_an_input_and_every_run_makes_several_passes():
    for name in worker.WORKLOADS:
        for seconds in (0.1, 30):
            passes = worker.schedule(name, seconds)
            assert len(passes) >= worker.MIN_PASSES >= 2  # a traced run needs an untraced twin
            assert all(units == passes[0] and len(units) == len(set(units)) for units in passes)
    for workload in worker.CHARGE_WORKLOADS.values():
        assert workload.docs % len(worker.REQUESTS) == 0


def test_outputs_that_differ_between_processes_fail_everywhere():
    workers = [
        {"ops": [[0, "private", 5, "0:aa", True], [1, "private", 7, "2:bb", True]], "failures": [], "traced": False},
        {"ops": [[0, "private", 4, "0:aa", True], [1, "private", 6, "0:cc", True]], "failures": [], "traced": True},
    ]
    ops, failures = bench_run.collate(workers)
    assert [op[3] for op in ops] == [True, False, True, False]
    assert failures == ["#1: output differs between processes"]
    # Only inputs that passed count: input 0's best traced time against its best untraced.
    assert bench_run.overhead(ops) == pytest.approx(4 / 5 - 1)


def test_traced_totals_merge_by_summing():
    part = {"calls": {"cli.main": 2}, "self_ns": {"cli.main": 10}, "counters": {"wdp.solve.duplicates": 1},
            "wall_ns": 30, "top_level_ns": 20}
    merged = tracing.merge([part, part])
    assert merged["calls"]["cli.main"] == 4 and merged["self_ns"]["cli.main"] == 20
    assert (merged["wall_ns"], merged["top_level_ns"]) == (60, 40)
    metrics = tracing.layer_metrics(merged, 0.1, 4)
    assert metrics["trace.remainder_s"]["value"] == pytest.approx(20e-9)


def test_run_fails_without_the_package(tmp_path):
    result = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "charge-k10", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
