"""What the benchmark's tracer (bench/tracer.py) relies on in the package.

The tracer wraps each public function at every module attribute that binds
it and counts from the call's bound arguments.  It skips anything that is not
a plain function, such as a cache wrapper, and a renamed argument breaks its
counter.  Either way the traced per-layer metrics would silently read 0, so
caching stays in private helpers and the counted arguments keep their names.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
)
tracer = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

# the argument names each of the tracer's counters reads
COUNTED_ARGUMENTS = {
    "energy.rep_sum": {"X", "Y"},
    "energy.rep_diff": {"X", "Y"},
    "sieve.DifferenceTable": {"A"},
    "sieve.divisor_sum_partition": {"N"},
    "arith.series_table": {"xs"},
    "sets.is_sidon": {"X"},
    "limits.check_allocation": {"nbytes"},
}


def traced_function(name: str):
    """The function a span name wraps; a class is wrapped on `__init__`."""
    layer, _, path = name.partition(".")
    attr, _, method = path.partition(".")
    obj = getattr(importlib.import_module(f"energysieve.{layer}"), attr)
    if inspect.isclass(obj):
        obj = vars(obj)[method or "__init__"]
    return obj


def test_traced_names_are_plain_functions():
    names = set(tracer.TIMED) | set(tracer.SELF_TIMED) | set(tracer.CALLED)
    assert {"arith.sieve_primes", "arith.delta", "arith.factorize", "sets.occupancy",
            "limits.check_allocation"} <= names
    for name in sorted(names):
        fn = traced_function(name)
        assert inspect.isfunction(fn), name
        assert fn.__module__ == "energysieve." + name.partition(".")[0], name


def test_every_counter_is_listed():
    assert set(tracer.COUNTERS) == set(COUNTED_ARGUMENTS)


def test_counted_arguments_keep_their_names():
    for name, arguments in COUNTED_ARGUMENTS.items():
        parameters = set(inspect.signature(traced_function(name)).parameters)
        assert arguments <= parameters, name
