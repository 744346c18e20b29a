"""The names the benchmark tracer patches, checked against the package.

``bench/tracing.py`` wraps each ``(module, attr)`` of its ``TARGETS`` in
every avauction module that binds it; a target the package no longer has
would otherwise go unnoticed until a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

from avauction import cli, core, wdp

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
