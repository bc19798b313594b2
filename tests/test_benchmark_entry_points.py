"""The benchmark's entry points into entlab still resolve.

perfbench/tracing.py wraps the functions it lists in TRACED, and
perfbench/workloads.py calls a handful of entlab names directly. A refactor
that renames or moves one of them fails here instead of in every benchmark
operation.
"""

import importlib
import importlib.util
import inspect
import os

TRACING_PY = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")

# (module under entlab, name) that perfbench/workloads.py looks up
WORKLOAD_NAMES = (
    ("locc", "StandardFormProtocol"),
    ("locc", "BlockShiftFamily"),
    ("locc", "build_block_dilution"),
    ("locc", "run_protocol_dense"),
    ("locc", "random_toy_ir"),
    ("locc", "standardize"),
    ("locc", "run_standard_form"),
    ("locc", "simulate_dense"),
    ("locc", "group_by_message"),
    ("locc", "compare_ensembles"),
    ("lab", "spot_check_outputs"),
    ("lab.commands", "dilution_dim"),
    ("lab.commands", "find_min_budget"),
    ("spectrum", "BaseSpectrum"),
    ("spectrum", "tensor_power_spectrum"),
    ("qmath", "PureBipartiteState"),
    ("sampling", "random_pure"),
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracing = _load_tracing()
    assert tracing.TRACED
    for module, attr in tracing.TRACED:
        fn = getattr(importlib.import_module("entlab." + module), attr, None)
        assert callable(fn), f"entlab.{module}.{attr}"


def test_workload_names_resolve():
    for module, attr in WORKLOAD_NAMES:
        assert hasattr(importlib.import_module("entlab." + module), attr), f"entlab.{module}.{attr}"


def test_find_min_budget_takes_epsilon_third():
    # the tracer reads the budget search's epsilon from its third positional argument
    from entlab.lab.commands import find_min_budget

    assert list(inspect.signature(find_min_budget).parameters)[:3] == ["spec", "n", "epsilon"]
