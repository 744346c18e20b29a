"""Span tracing of avauction's public entry points, installed from outside.

``install`` replaces each traced function with a wrapper in every
``avauction`` module that binds it: ``from .wdp import solve_wdp`` copies the
name into ``vcg`` and ``studies``, so patching ``wdp.solve_wdp`` alone would
miss those callers.  Spans (name, start, end, parent) are kept in flat
arrays, so a traced study run holding ~10^5 spans adds no objects for the
garbage collector to scan.

Counters are derived from each wrapped call's arguments and return value.
The work of deriving them runs outside the wrapped call and is recorded as
a ``trace.bookkeeping`` span, so it is charged to neither the traced layer
nor its caller.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.child = array("q")  # summed duration of direct children
        self.counters: Counter[str] = Counter()
        self._open: list[int] = []
        self.seen_solves: set[bytes] = set()
        self.recent_bids: dict[int, tuple] = {}

    def _enter(self, name: str, now: int) -> int:
        index = len(self.names)
        self.names.append(name)
        self.start.append(now)
        self.end.append(0)
        self.parent.append(self._open[-1] if self._open else -1)
        self.child.append(0)
        self._open.append(index)
        return index

    def _exit(self, index: int, now: int) -> None:
        self._open.pop()
        self.end[index] = now
        parent = self.parent[index]
        if parent >= 0:
            self.child[parent] += now - self.start[index]

    def wrap(self, name, fn, count=None):
        """Wrap ``fn`` in a span; ``name`` is a string or a function of the call's arguments."""
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = self._enter(name if isinstance(name, str) else name(*args), clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index, clock())
            if count is not None:
                book = self._enter(BOOKKEEPING, clock())
                try:
                    count(self, args, result)
                finally:
                    self._exit(book, clock())
            return result

        traced.__wrapped__ = fn
        return traced

    def self_ns(self) -> dict[str, int]:
        """Per span name, summed duration minus the time covered by child spans."""
        totals: Counter[str] = Counter()
        for i, name in enumerate(self.names):
            totals[name] += self.end[i] - self.start[i] - self.child[i]
        return dict(totals)

    def calls(self) -> dict[str, int]:
        return dict(Counter(self.names))

    def top_level_ns(self) -> int:
        return sum(self.end[i] - self.start[i] for i in range(len(self.names)) if self.parent[i] < 0)

    def write(self, path: Path) -> None:
        """Write every span as [name index, start_ns, end_ns, parent span index]."""
        names = sorted(set(self.names))
        index = {name: i for i, name in enumerate(names)}
        spans = [
            [index[self.names[i]], self.start[i], self.end[i], self.parent[i]]
            for i in range(len(self.names))
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"names": names, "spans": spans, "counters": dict(self.counters)}))


def _bids_digest(tracer: Tracer, bids: tuple) -> bytes:
    # Studies solve the same bids tuple for many requests in a row, so the
    # digests of the last few tuples are kept, each beside the tuple itself
    # so that its id cannot be reused while it is cached.
    cached = tracer.recent_bids.get(id(bids))
    if cached is not None and cached[0] is bids:
        return cached[1]
    text = ";".join(
        f"{s.bidder_id}|{s.available_seats}|{s.concave}|" + ",".join(str(s.prices[m].micros) for m in sorted(s.prices))
        for s in bids
    )
    digest = hashlib.blake2b(text.encode(), digest_size=16).digest()
    tracer.recent_bids[id(bids)] = (bids, digest)
    if len(tracer.recent_bids) > 64:
        del tracer.recent_bids[next(iter(tracer.recent_bids))]
    return digest


def _solve_counts(tracer: Tracer, args, result) -> None:
    instance = args[0]
    if result is None:
        tracer.counters["wdp.solve.unservable"] += 1
    digest = _bids_digest(tracer, instance.bids) + f"|{instance.service.value}|{instance.requested_seats}".encode()
    if digest in tracer.seen_solves:
        tracer.counters["wdp.solve.duplicates"] += 1
    else:
        tracer.seen_solves.add(digest)


def _exclusion_name(instance, *_args) -> str:
    service = instance.service.value
    kind = "split" if service == "splittable" else "single"
    return f"wdp.exclusion.{kind}.{service}"


def _exclusion_counts(tracer: Tracer, args, result) -> None:
    tracer.counters[_exclusion_name(args[0]) + ".bidders"] += len(args[0].bids)


def _generate_counts(tracer: Tracer, args, result) -> None:
    tracer.counters["scenario.generate.schedules"] += result.bidder_count * result.case_count


def _charges_counts(tracer: Tracer, args, result) -> None:
    tracer.counters["vcg.charges.fallbacks"] += int(result.fallback)


# (module, attribute, span name, counter); module and attribute name where
# the function is defined.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("instance_io", "parse_instance", "instance_io.parse", None),
    ("core", "validate_instance", "core.validate", None),
    ("scenario", "generate_batch", "scenario.generate", _generate_counts),
    ("wdp", "solve_wdp", "wdp.solve", _solve_counts),
    ("wdp", "exclusion_totals", _exclusion_name, _exclusion_counts),
    ("vcg", "vcg_charges", "vcg.charges", _charges_counts),
    ("vcg", "perturb_bids", "vcg.perturb", None),
    ("studies", "run_servability_study", "studies.servability", None),
    ("studies", "run_charge_study", "studies.charges", None),
    ("studies", "run_truthfulness_study", "studies.truthfulness", None),
    ("studies", "run_asymptoticity_study", "studies.asymptoticity", None),
    ("studies", "run_timing_study", "studies.timing", None),
)


def install(tracer: Tracer):
    """Patch every binding of each target in the loaded avauction modules.

    Returns a function that restores the originals.
    """
    modules = [m for n, m in sys.modules.items() if n == "avauction" or n.startswith("avauction.")]
    undo = []
    for module_name, attr, name, count in TARGETS:
        original = getattr(sys.modules[f"avauction.{module_name}"], attr)
        wrapper = tracer.wrap(name, original, count)
        for module in modules:
            for binding, value in list(vars(module).items()):
                if value is original:
                    setattr(module, binding, wrapper)
                    undo.append((module, binding, original))
    table = sys.modules["avauction.studies"].ResultTable
    original_write = table.write_csv
    table.write_csv = tracer.wrap("studies.csv", original_write)
    undo.append((table, "write_csv", original_write))

    def uninstall() -> None:
        for owner, binding, original in reversed(undo):
            setattr(owner, binding, original)

    return uninstall


# Every span name, in report order; each gets .calls and .self_s.
LAYERS = (
    "cli.main",
    "instance_io.parse",
    "core.validate",
    "scenario.generate",
    "wdp.solve",
    "wdp.exclusion.split.splittable",
    "wdp.exclusion.single.nonsplittable",
    "wdp.exclusion.single.private",
    "vcg.charges",
    "vcg.perturb",
    "studies.servability",
    "studies.charges",
    "studies.truthfulness",
    "studies.asymptoticity",
    "studies.timing",
    "studies.csv",
    BOOKKEEPING,
)
COUNTS = (
    "scenario.generate.schedules",
    "wdp.solve.unservable",
    "wdp.exclusion.split.splittable.bidders",
    "wdp.exclusion.single.nonsplittable.bidders",
    "wdp.exclusion.single.private.bidders",
    "vcg.charges.fallbacks",
)


def totals(tracer: Tracer, wall_ns: int) -> dict:
    """One traced process's raw figures, for ``merge`` and ``layer_metrics``."""
    return {
        "calls": tracer.calls(),
        "self_ns": tracer.self_ns(),
        "counters": dict(tracer.counters),
        "wall_ns": wall_ns,
        "top_level_ns": tracer.top_level_ns(),
    }


def merge(parts: list[dict]) -> dict:
    """The sum of several processes' ``totals``."""
    merged = {"calls": Counter(), "self_ns": Counter(), "counters": Counter(), "wall_ns": 0, "top_level_ns": 0}
    for part in parts:
        for key in ("calls", "self_ns", "counters"):
            merged[key].update(part[key])
        merged["wall_ns"] += part["wall_ns"]
        merged["top_level_ns"] += part["top_level_ns"]
    return merged


def layer_metrics(raw: dict, overhead_frac: float, ops: int) -> dict:
    """Per-layer metrics from the ``totals`` of the traced passes.

    The self times of all layers plus ``trace.remainder_s``, the time no
    span covers, add up to ``trace.wall_s``.  ``wdp.solve.duplicate_frac``
    is a share of ``wdp.solve.calls``; a duplicate is a solve already made
    in the same process.
    """
    calls, self_ns, counters = raw["calls"], raw["self_ns"], raw["counters"]
    unlisted = set(calls) - set(LAYERS)
    if unlisted:
        raise ValueError(f"spans without a layer metric: {sorted(unlisted)}")
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (calls.get(layer, 0), "count")
        metrics[f"{layer}.self_s"] = (self_ns.get(layer, 0) / 1e9, "s")
    for name in COUNTS:
        metrics[name] = (counters.get(name, 0), "count")
    solves = calls.get("wdp.solve", 0)
    metrics["wdp.solve.duplicate_frac"] = (
        counters.get("wdp.solve.duplicates", 0) / solves if solves else 0.0, "ratio"
    )
    metrics["trace.overhead_frac"] = (overhead_frac, "ratio")
    metrics["trace.wall_s"] = (raw["wall_ns"] / 1e9, "s")
    metrics["trace.remainder_s"] = ((raw["wall_ns"] - raw["top_level_ns"]) / 1e9, "s")
    metrics["trace.ops"] = (ops, "count")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
