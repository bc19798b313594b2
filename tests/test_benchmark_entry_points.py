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

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")

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


def _load_perfbench(name):
    path = os.path.join(PERFBENCH, name + ".py")
    spec = importlib.util.spec_from_file_location("perfbench_" + name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracing = _load_perfbench("tracing")
    assert tracing.TRACED
    for module, attr in tracing.TRACED:
        fn = getattr(importlib.import_module("entlab." + module), attr, None)
        assert callable(fn), f"entlab.{module}.{attr}"


def test_tracer_wraps_the_sorted_view_constructor():
    # the tracer wraps SortedSpectrumView.__init__ outside TRACED, so one
    # span counts one view built from one spectrum
    from entlab import spectrum

    view = getattr(spectrum, "SortedSpectrumView", None)
    assert inspect.isclass(view), "entlab.spectrum.SortedSpectrumView"
    spec = spectrum.tensor_power_spectrum(np.array([0.75, 0.25]), 4)
    inspect.signature(view).bind(spec)


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

    tracer = _load_perfbench("tracing").Tracer(time.perf_counter)
    spec = tensor_power_spectrum(np.array([0.75, 0.25]), 4)
    tracer._observe_tensor_power_spectrum(spec, None)
    assert tracer.spectra == {((0.75, 0.25), 4): 5}


def test_tracer_reads_what_a_run_returns():
    # a run_protocol call under find_min_budget is one probe, accepted when
    # the run succeeds within the search's epsilon, its third argument
    from entlab.locc import build_block_dilution, run_protocol
    from entlab.spectrum import tensor_power_spectrum

    tracer = _load_perfbench("tracing").Tracer(time.perf_counter)
    spec = tensor_power_spectrum(np.array([0.75, 0.25]), 8)
    search = [0, "lab.commands.find_min_budget", (spec, 8, 0.1), 0.0]
    for budget in (8, 7):  # c*(8) = 8 at epsilon 0.1
        proto, _ = build_block_dilution(spec, budget, eps_target=0.1)
        tracer._observe_run_protocol(run_protocol(proto, spec), search)
    assert (tracer.probes, tracer.accepted) == (2, 1)


def test_classes_d4_inputs_keep_their_class_counts():
    # the gate checks these counts, and communication needs exact
    # multiplicities at every n of the grid
    from entlab.spectrum import tensor_power_spectrum

    workload = _load_perfbench("workloads").WORKLOADS["classes_d4"]
    p = np.array(workload["config"]["p"])
    assert workload["classes"] == {25: 676, 50: 2601, 100: 10201}
    for n in workload["config"]["n_grid"]:
        spec = tensor_power_spectrum(p, n)
        assert spec.num_classes == workload["classes"][n], n
        assert spec.exact_mults is not None, n
