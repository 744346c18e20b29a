"""The avauction benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload studies|charge-k1000|charge-k10 \
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  A run
is a few passes over the same inputs, and every unit of a pass (all the
documents of a charge pass, or one study) runs in a fresh worker process
(``worker.py``) that sets up and times each of its inputs once.  The
latency metrics take each input's best time across those processes.

Each metric is printed as ``name value unit``, then the result as one JSON
object on the last line: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The full run record, with the
machine, the sample counts and the per-study or per-service figures, is
written to ``.bench_out/<workload>-seed<N>-trace<T>.json``.  See
``bench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracing
from worker import WORKLOADS, schedule

BENCH = Path(__file__).resolve().parent
TIME_LIMIT_S = 170
# Candidate tail percentiles; the tail is the highest with >= 10 samples beyond it.
TAIL_PERCENTILES = ("90", "95", "99", "99.9", "99.99")


def tail(values: list[int]) -> tuple[float, int, int]:
    """(percentile, value, samples beyond it) by nearest rank; the maximum
    when no candidate has ten samples beyond it."""
    ordered = sorted(values)
    best = (100.0, ordered[-1], 0)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(Fraction(p) * len(ordered) / 100)
        if len(ordered) - rank >= 10:
            best = (float(p), ordered[rank - 1], len(ordered) - rank)
    return best


def spawn(args, unit: str, traced: bool, directory: Path, deadline: float, spans: Path | None):
    """Run one worker; return its result, its set-up time and its resource usage.

    The resource usage comes from wait4, so ru_maxrss covers the worker and
    every descendant it waited for (the timing study's pool workers).
    """
    command = [
        sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--unit", unit,
        "--trace", str(int(traced)), "--dir", str(directory),
    ] + (["--spans", str(spans)] if spans else [])
    directory.mkdir(parents=True)
    start = time.monotonic_ns()
    # A process group of its own, so that a worker past the deadline is
    # killed together with any pool workers it started.
    proc = subprocess.Popen(command, stdin=subprocess.DEVNULL, stdout=sys.stderr, process_group=0)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                raise TimeoutError
            time.sleep(0.02)
    except BaseException as exc:  # past the deadline, or run.py itself was stopped
        os.killpg(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        if not isinstance(exc, TimeoutError):
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(command)}")
    result = json.loads((directory / "result.json").read_text())
    shutil.rmtree(directory)
    return result, (result["ready_ns"] - start) / 1e9, usage


def machine(root: Path) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "commit": commit,
    }


def collate(workers: list[dict]) -> tuple[list, list[str]]:
    """Every worker's operations as [key, label, nanoseconds, passed, traced],
    and the failures.  An input whose output differs between processes
    fails in every process."""
    outputs: dict = {}
    for worker in workers:
        for key, _, _, output, _ in worker["ops"]:
            outputs.setdefault(key, set()).add(output)
    unstable = {key for key, seen in outputs.items() if len(seen) > 1}
    ops, failures = [], []
    for worker in workers:
        failures.extend(worker["failures"])
        for key, label, ns, _, ok in worker["ops"]:
            ops.append([key, label, ns, ok and key not in unstable, worker["traced"]])
    failures.extend(f"#{key}: output differs between processes" for key in sorted(unstable, key=str))
    return ops, failures[:20]


def end_to_end(ops: list, setups: list[float], peak_kb: int) -> tuple[dict, dict]:
    """The end-to-end metrics, and the per-request figures and sample counts behind them.

    The latency metrics are taken over each input's best time across the
    run's processes, which varies far less from run to run on a shared
    machine than the per-request figures do (see README.md).
    """
    best: dict = {}
    labels: dict = {}
    by_label: dict[str, list[int]] = {}
    for key, label, ns, ok, _ in ops:
        if ok:
            best[key] = min(best.get(key, ns), ns)
            labels[key] = label
            by_label.setdefault(label, []).append(ns)
    fastest = list(best.values()) or [0]
    percentile, tail_ns, beyond = tail(fastest)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "best_throughput_per_s": (len(best) / (sum(fastest) / 1e9) if best else 0.0, "1/s"),
    }
    latencies = [ns for v in by_label.values() for ns in v] or [0]
    request_percentile, request_tail, request_beyond = tail(latencies)
    detail = {
        "samples": {
            "operations": len(ops),
            "distinct_operations": len(best),
            "best_tail_percentile": percentile,
            "best_tail_samples_beyond": beyond,
            "setup": len(setups),
        },
        # Not bounded: on studies the median is one of five multi-second
        # studies, and with few inputs the tail is their maximum.
        "best_p50_ms": statistics.median(fastest) / 1e6,
        "best_tail_ms": tail_ns / 1e6,
        "setup_s_each": setups,
        "per_request": {
            "samples": len(latencies),
            "throughput_per_s": len(latencies) / (sum(latencies) / 1e9) if sum(latencies) else 0.0,
            "p50_ms": statistics.median(latencies) / 1e6,
            "tail_ms": request_tail / 1e6,
            "tail_percentile": request_percentile,
            "tail_samples_beyond": request_beyond,
        },
        "per_label": {
            label: {
                "samples": len(v),
                "p50_ms": statistics.median(v) / 1e6,
                "distinct": len(bests := [ns for key, ns in best.items() if labels[key] == label]),
                "best_p50_ms": statistics.median(bests) / 1e6,
            }
            for label, v in by_label.items()
        },
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, detail


def overhead(ops: list) -> float:
    """Traced time against untraced time on the same inputs, less one; each
    input's best time on each side."""
    sides: dict = {}
    for key, _, ns, ok, traced in ops:
        if ok:
            sides.setdefault(key, ([], []))[traced].append(ns)
    both = [(min(plain), min(traced)) for plain, traced in sides.values() if plain and traced]
    return sum(t for _, t in both) / sum(p for p, _ in both) - 1 if both else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    # On SIGTERM, unwind through spawn(), which kills the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    root = Path.cwd()
    if not (root / "src" / "avauction" / "__init__.py").is_file():
        print("bench/run.py: no src/avauction here; run it from the repository root", file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    out = root / ".bench_out"
    out.mkdir(exist_ok=True)
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    passes = schedule(args.workload, args.seconds)
    workers, setups, peak_kb = [], [], 0
    try:
        for index, units in enumerate(passes):
            traced = bool(args.trace) and index % 2 == 1
            for unit in units:
                n = len(workers)
                spans = out / f"spans-{args.workload}-seed{args.seed}-{n}.json" if traced else None
                result, setup_s, usage = spawn(args, unit, traced, work / str(n), deadline, spans)
                workers.append({**result, "traced": traced})
                setups.append(setup_s)
                peak_kb = max(peak_kb, usage.ru_maxrss)
    except RuntimeError as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops, failures = collate(workers)
    failed = sum(not op[3] for op in ops)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **machine(root),
        "run_s": time.monotonic() - started,
        "passes": len(passes),
        "processes": len(workers),
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "error_rate": failed / len(ops),
        "failures": failures,
    }
    if args.trace:
        traced = [w for w in workers if w["traced"]]
        metrics = tracing.layer_metrics(
            tracing.merge([w["layers"] for w in traced]), overhead(ops), sum(len(w["ops"]) for w in traced)
        )
    else:
        metrics, detail = end_to_end(ops, setups, peak_kb)
        record.update(detail)
    record["metrics"] = metrics

    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for failure in failures:
        print(f"failed: {failure}")
    print(f"error_rate {record['error_rate']} ratio ({failed}/{len(ops)})")
    if not args.trace:
        plain, samples = record["per_request"], record["samples"]
        for label, stats in record["per_label"].items():
            if args.workload == "studies":
                print(f"study.{label}_s {stats['best_p50_ms'] / 1e3} s (best of {stats['samples']} passes)")
            else:
                print(f"charge.{label}.p50_ms {stats['p50_ms']} ms ({stats['samples']} requests)")
        if args.workload != "studies":
            print(f"charge.throughput_per_s {plain['throughput_per_s']} 1/s ({plain['samples']} requests)")
            print(f"charge.p50_ms {plain['p50_ms']} ms ({plain['samples']} requests)")
            print(f"charge.tail_ms {plain['tail_ms']} ms (p{plain['tail_percentile']:g}, "
                  f"{plain['tail_samples_beyond']} samples beyond)")
        print(f"best of {len(passes)} passes for each of {samples['distinct_operations']} inputs: "
              f"best_p50_ms {record['best_p50_ms']} ms, best_tail_ms {record['best_tail_ms']} ms "
              f"(p{samples['best_tail_percentile']:g}, {samples['best_tail_samples_beyond']} beyond)")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": record["correct"], "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
