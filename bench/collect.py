"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 bench/collect.py [--workloads studies,charge-k10] [--seeds 1-10] \
        [--trace-seed N] [--out PATH]

Runs ``bench/run.py`` once per workload and seed, one run after another,
from the repository root.  For every end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, beside the metric's bound from
``BENCHMARK.json``; the per-study and per-service medians follow.  With
``--trace-seed`` it adds one traced run per workload.  With ``--out`` it
writes every run record and the summary to one JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    return json.loads(Path(f".bench_out/{workload}-seed{seed}-trace{trace}.json").read_text())


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def summarise(records: list[dict], bounds: dict) -> dict:
    summary = {}
    for name in records[0]["metrics"]:
        summary[name] = spread([r["metrics"][name]["value"] for r in records])
        summary[name]["bound"] = bounds[name]
    for name in ("best_p50_ms", "best_tail_ms"):
        summary[name] = spread([r[name] for r in records])
    for name in ("p50_ms", "tail_ms", "throughput_per_s"):
        summary[f"per_request.{name}"] = spread([r["per_request"][name] for r in records])
    for label in records[0]["per_label"]:
        for name in ("best_p50_ms", "p50_ms"):
            summary[f"{label}.{name}"] = spread([r["per_label"][label][name] for r in records])
    return summary


def main() -> int:
    benchmark = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in benchmark["workloads"]))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    report = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        records = [run(workload, seed, args.seconds, 0) for seed in args.seeds]
        entry = {"summary": summarise(records, bounds), "runs": records}
        if args.trace_seed is not None:
            entry["traced"] = run(workload, args.trace_seed, args.seconds, 1)
        report["workloads"][workload] = entry
        print(f"{workload}: {sum(r['failed'] for r in records)} failed of {sum(r['attempted'] for r in records)}")
        for name, s in entry["summary"].items():
            bound = s.get("bound")
            flag = "" if bound is None else f"  bound {bound}" + ("  OVER BOUND/3" if s["spread"] > bound / 3 else "")
            print(f"  {name:28s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.4f}{flag}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
