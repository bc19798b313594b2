"""In-memory span tracer that wraps entlab's public layer functions.

`Tracer.install()` replaces each traced function at every module binding
its callers look up (for example `lab.commands.build_block_dilution` as
well as `locc.protocols.build_block_dilution`), including the command
table inside `lab.cli`. `SortedSpectrumView` is traced by wrapping its
`__init__`, so a span counts one construction. Spans nest on one stack, so
a span's self time is its duration minus the time its direct children
cover. Times come from the clock passed in, which leaves out the
benchmark's calibration pauses. Spans stay in memory until `write_spans`
is called when the timed body ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys

# (module under entlab, function); "module.function" is the span name and metric prefix
TRACED = (
    ("spectrum", "tensor_power_spectrum"),
    ("spectrum", "berry_esseen_residual"),
    ("sigsub", "sig_dim"),
    ("sigsub", "growth_fit"),
    ("sigsub", "min_dilution_dimension"),
    ("locc.protocols", "build_block_dilution"),
    ("locc.runner", "run_protocol"),
    ("locc.runner", "run_protocol_dense"),
    ("locc.runner", "verify_theorem_chain"),
    ("locc.runner", "concentrate"),
    ("locc.standard", "standardize"),
    ("locc.standard", "run_standard_form"),
    ("locc.ir", "simulate_dense"),
    ("lab.commands", "find_min_budget"),
    ("lab.commands", "cmd_spectrum"),
    ("lab.commands", "cmd_inefficiency"),
    ("lab.commands", "cmd_communication"),
    ("lab.commands", "cmd_concentration"),
)
SPANS = tuple(f"{module}.{attr}" for module, attr in TRACED) + ("spectrum.SortedSpectrumView",)


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans = []  # (name, start, end, parent index or -1)
        self._stack = []  # [span index, name, args, child seconds]
        self.calls = {}
        self.self_s = {}
        self.wall_s = {}
        self.spectra = {}  # (p, n) -> class count of each distinct spectrum built
        self.symbolic = 0
        self.probes = 0
        self.accepted = 0
        self.output_bytes = 0

    def wrap(self, name, fn):
        attr = name.rsplit(".", 1)[1]
        observe = self._observe_cmd if attr.startswith("cmd_") else getattr(self, "_observe_" + attr, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            idx = len(self.spans)
            self.spans.append(None)
            frame = [idx, name, args, 0.0]
            self._stack.append(frame)
            t0 = self.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = self.clock()
                self._stack.pop()
                dur = t1 - t0
                self.spans[idx] = (name, t0, t1, parent[0] if parent else -1)
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[3]
                self.wall_s[name] = self.wall_s.get(name, 0.0) + dur
                if parent is not None:
                    parent[3] += dur
            if observe is not None:
                observe(out, parent)
            return out

        return traced

    def _observe_tensor_power_spectrum(self, spec, parent):
        self.spectra[(tuple(float(v) for v in spec.base_probs), spec.n)] = spec.num_classes

    def _observe_build_block_dilution(self, out, parent):
        from entlab.locc import BlockShiftFamily

        self.symbolic += isinstance(out[0], BlockShiftFamily)

    def _observe_run_protocol(self, out, parent):
        if parent is None or parent[1] != "lab.commands.find_min_budget":
            return
        epsilon = parent[2][2]
        report = out[1]
        self.probes += 1
        self.accepted += bool(report.success and report.epsilon <= epsilon)

    def _observe_cmd(self, written, parent):
        self.output_bytes += sum(os.path.getsize(p) for p in written)

    def install(self):
        """Swap every traced function for its wrapper in all entlab modules."""
        swaps = {}
        for module, attr in TRACED:
            orig = getattr(importlib.import_module("entlab." + module), attr)
            swaps[id(orig)] = (orig, self.wrap(f"{module}.{attr}", orig))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("entlab"):
                continue
            for key, val in list(vars(mod).items()):
                if id(val) in swaps and val is swaps[id(val)][0]:
                    setattr(mod, key, swaps[id(val)][1])
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if id(v) in swaps and v is swaps[id(v)][0]:
                            val[k] = swaps[id(v)][1]
        view = importlib.import_module("entlab.spectrum").SortedSpectrumView
        view.__init__ = self.wrap(SPANS[-1], view.__init__)

    def metrics(self) -> dict:
        """Per-layer counts and times, keyed by the benchmark's metric names."""

        def calls(name):
            return self.calls.get(name, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name in SPANS:
            out[name + ".calls"] = calls(name)
            out[name + ".self_s"] = self.self_s.get(name, 0.0)
            if ".cmd_" in name:
                out[name + ".wall_s"] = self.wall_s.get(name, 0.0)
        tps = "spectrum.tensor_power_spectrum"
        bbd = "locc.protocols.build_block_dilution"
        out[tps + ".useful_ratio"] = ratio(len(self.spectra), calls(tps))
        out["spectrum.classes"] = sum(self.spectra.values())
        out[bbd + ".symbolic_share"] = ratio(self.symbolic, calls(bbd))
        out["lab.commands.find_min_budget.probes"] = self.probes
        out["lab.commands.find_min_budget.accepted_ratio"] = ratio(self.accepted, self.probes)
        out["lab.commands.output_bytes"] = self.output_bytes
        return out

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
