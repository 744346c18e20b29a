"""The names the benchmark tracer patches, checked against the package.

``bench/tracing.py`` wraps each ``(module, attr)`` of its ``TARGETS`` in
every avauction module that binds it; a target the package no longer has
would otherwise go unnoticed until a traced benchmark run.
"""

import hashlib
import importlib
import importlib.util
from pathlib import Path

from avauction import (
    GenerationLaw, ServiceType, cli, core, generate_batch, parse_instance, serialize_instance, wdp,
)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("avauction_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_in_the_package():
    targets = _tracing_module().TARGETS
    assert targets
    for module_name, attr, *_ in targets:
        module = importlib.import_module(f"avauction.{module_name}")
        assert callable(getattr(module, attr, None)), f"avauction.{module_name}.{attr}"


def test_validation_is_traced_where_the_cli_calls_it_and_not_per_compile():
    """The ``core.validate`` span wraps the cli's validation; a binding in
    ``wdp`` would count every compile as a validation too."""
    assert cli.validate_instance is core.validate_instance
    assert not hasattr(wdp, "validate_instance")


def test_the_tracer_reads_parsed_and_drawn_schedules():
    """``_bids_digest`` reads each schedule's availability, concave flag and
    ``prices``; a schedule the parser reads whole, one it reads by tokens
    and one the generator draws must all still give it those."""
    tracing = _tracing_module()
    text = ("avauction-instance v1\ncapacity 5\nrequested_seats 2\nservice splittable\n"
            "bidder A available 2 prices 1:0.400000 2:0.700000\n"
            "bidder B  available 1 concave prices 1:0.3\n")
    expected = hashlib.blake2b(b"A|2|False|400000,700000;B|1|True|300000", digest_size=16)
    assert tracing._bids_digest(tracing.Tracer(), parse_instance(text).bids) == expected.digest()
    batch = generate_batch(GenerationLaw(seed=1), 3, 5, 1)
    reparsed = parse_instance(serialize_instance(batch.instance(0, ServiceType.SPLITTABLE, 1)))
    drawn = tracing._bids_digest(tracing.Tracer(), batch.cases[0])
    assert drawn == tracing._bids_digest(tracing.Tracer(), reparsed.bids)
