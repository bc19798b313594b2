"""The benchmark's entry points into entlab still resolve and still bind.

perfbench/tracing.py wraps the functions it lists in TRACED and reads a
few attributes of what they take and return, and perfbench/workloads.py
calls a handful of entlab names directly. A refactor that renames, moves
or reshapes one of them fails here instead of in every benchmark
operation.
"""

import importlib
import importlib.util
import inspect
import os
import time

import numpy as np

TRACING_PY = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")

# (module under entlab, name) that perfbench looks up without calling; the
# names it calls are in WORKLOAD_CALLS
WORKLOAD_NAMES = (
    ("locc", "StandardFormProtocol"),
    ("locc", "BlockShiftFamily"),
)

# (module under entlab, name, positional argument count, keyword names) of
# each call perfbench/workloads.py and perfbench/worker.py make
WORKLOAD_CALLS = (
    ("spectrum", "BaseSpectrum", 1, ()),
    ("spectrum", "tensor_power_spectrum", 2, ()),
    ("lab.commands", "find_min_budget", 3, ()),
    ("lab.commands", "dilution_dim", 1, ()),
    ("locc", "build_block_dilution", 2, ("eps_target",)),
    ("locc", "run_protocol_dense", 3, ("n",)),
    ("locc", "random_toy_ir", 1, ("max_dim", "rounds")),
    ("locc", "standardize", 2, ()),
    ("locc", "run_standard_form", 2, ()),
    ("locc", "simulate_dense", 2, ()),
    ("locc", "group_by_message", 1, ()),
    ("locc", "compare_ensembles", 2, ()),
    ("lab", "spot_check_outputs", 1, ()),
    ("lab", "load_config", 1, ()),
    ("lab.cli", "main", 1, ()),
    ("qmath", "PureBipartiteState", 3, ()),
    ("sampling", "random_pure", 2, ()),
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


def test_workload_calls_bind():
    for module, attr, nargs, keywords in WORKLOAD_CALLS:
        fn = getattr(importlib.import_module("entlab." + module), attr)
        try:
            inspect.signature(fn).bind(*range(nargs), **dict.fromkeys(keywords))
        except TypeError as exc:
            raise AssertionError(f"entlab.{module}.{attr}: {exc}") from None


def test_tracer_reads_what_a_spectrum_carries():
    # the tracer keys each spectrum built by its base_probs and n
    from entlab.spectrum import tensor_power_spectrum

    tracer = _load_tracing().Tracer(time.perf_counter)
    spec = tensor_power_spectrum(np.array([0.75, 0.25]), 4)
    tracer._observe_tensor_power_spectrum(spec, None)
    assert tracer.spectra == {((0.75, 0.25), 4): 5}
