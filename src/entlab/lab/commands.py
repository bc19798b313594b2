"""Experiment commands: compute scaling tables and write CSV/JSON outputs.

Each command takes an ExperimentConfig, computes one row set per grid
point in grid order, and writes plot-ready files. The grids are validated
strictly ascending, so the rows come out sorted. All numbers are formatted
with %.12g so a fixed config yields byte-identical output.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import replace

import numpy as np

from ..errors import ValidationError
from ..locc import (
    BlockShiftFamily,
    build_block_dilution,
    concentrate,
    run_protocol,
    verify_theorem_chain,
)
from ..logdomain import exact_int_digits
from ..sigsub import growth_fit, min_dilution_dimension
from ..spectrum import (
    BaseSpectrum,
    ClassSpectrum,
    berry_esseen_grid,
    gaussian_quantile,
    spectrum_stats,
    tensor_power_spectrum,
)
from .config import ExperimentConfig


_FLOAT = "%.12g"


def _fmt(value) -> str:
    """The CSV text of one field."""
    if isinstance(value, float):
        return _FLOAT % value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _FLOAT % float(value)


def _lines(block):
    """The CSV lines of a block of fields, each a scalar or a 1-D array.

    A block without arrays is one line. Otherwise the arrays, float or
    bool, hold one entry per line and the scalars are the same on every
    line: they are formatted once, into one % template whose specs give
    _fmt's text for the array entries (no _fmt text holds a %).
    """
    if not any(isinstance(f, np.ndarray) for f in block):
        return [",".join(map(_fmt, block)) + "\n"]
    specs, columns = [], []
    for f in block:
        if not isinstance(f, np.ndarray):
            specs.append(_fmt(f))
        elif f.dtype == bool:
            texts = (_fmt(False), _fmt(True))
            specs.append("%s")
            columns.append([texts[v] for v in f.tolist()])
        else:
            specs.append(_FLOAT)
            columns.append(f.tolist())
    return map((",".join(specs) + "\n").__mod__, zip(*columns))


def _write_csv(path: str, header, blocks) -> str:
    """Write a header and the lines of each block (see _lines) to path.

    The text is written block by block, never held whole. No field holds a
    comma, quote or newline, so none is ever quoted.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            fh.write("".join(_lines(block)))
    return path


def _write_json(path: str, obj) -> str:
    # a certificate's exact ints pass 4300 decimal digits from n = 17500 at d = 2
    with open(path, "w", encoding="utf-8") as fh, exact_int_digits():
        json.dump(obj, fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return path


def _ensure_out(config: ExperimentConfig) -> str:
    os.makedirs(config.out, exist_ok=True)
    return config.out


# classes per write of write_spectrum_json
SPECTRUM_CHUNK = 1 << 12
_CLASS_JSON = '  {\n   "log2_eig": %r,\n   "log2_mass": %r,\n   "log2_mult": %r\n  }'


def write_spectrum_json(path: str, spec) -> str:
    """Write a ClassSpectrum as json.dump(indent=1, sort_keys=True) would.

    The document is {"base_probs", "classes": [{"log2_eig", "log2_mass",
    "log2_mult"}, ...], "n"}. The class table is written SPECTRUM_CHUNK
    classes at a time, so the text of the whole table is never held at
    once. A spectrum's entries are all finite, so %r of each float is its
    JSON text.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n "base_probs": [\n')
        fh.write(",\n".join("  %r" % x for x in spec.base_probs.tolist()))
        fh.write('\n ],\n "classes": [\n')
        for lo in range(0, spec.num_classes, SPECTRUM_CHUNK):
            cut = slice(lo, lo + SPECTRUM_CHUNK)
            rows = zip(
                spec.log2_eigs[cut].tolist(),
                spec.log2_masses[cut].tolist(),
                spec.log2_mults[cut].tolist(),
            )
            fh.write(",\n" if lo else "")
            fh.write(",\n".join(map(_CLASS_JSON.__mod__, rows)))
        fh.write('\n ],\n "n": %d\n}\n' % spec.n)
    return path


# the spectra _power_spectrum holds: ((base probs, grid), the n it holds, {n: spectrum})
_held = None


def _held_ns(d: int, grid: tuple) -> set:
    """The n of grid whose spectra _power_spectrum holds.

    The largest n, and below it each n from the top down while the class
    counts of the smaller ones held sum to at most the largest's: the held
    smaller spectra never outweigh the largest, and a dense grid rebuilds
    its lowest n on every walk.
    """
    room = math.comb(grid[-1] + d - 1, d - 1)
    held = {grid[-1]}
    for n in reversed(grid[:-1]):
        room -= math.comb(n + d - 1, d - 1)
        if room < 0:
            break
        held.add(n)
    return held


def _power_spectrum(base: BaseSpectrum, n: int, grid: tuple) -> ClassSpectrum:
    """tensor_power_spectrum(base, n) for a command that walks grid.

    The spectra of one grid are built once per process and held, as
    tensor_power_spectrum returns them, for every command that walks the
    same base and grid; another base or grid frees them all before anything
    is built. The first call on a grid builds its largest n, so the
    costliest build peaks while nothing else is held. The smaller n are held
    while their class counts fit (_held_ns) and rebuilt on each call
    otherwise. A spectrum holds its exact class boundaries, its one exact
    representation, as one list through its mass cut: at d = 2 that is
    under half of them. The caller gets a fresh ClassSpectrum on the held
    arrays and list, so its view, and the whole list the view completes
    when a query reads past the cut, are freed with it and not kept with
    the held spectrum.
    """
    global _held
    key = (tuple(base.probs.tolist()), tuple(grid))
    if _held is None or _held[0] != key:
        _held = None  # free the last grid's spectra before building
        largest = tensor_power_spectrum(base, grid[-1])
        _held = (key, _held_ns(base.dim, grid), {grid[-1]: largest})
    _, held_ns, held = _held
    if n not in held_ns:
        return tensor_power_spectrum(base, n)
    if n not in held:
        held[n] = tensor_power_spectrum(base, n)
    return replace(held[n])


def residual_grid(cells: int):
    """Standardized interval endpoints covering [-4, 4] sigma.

    Pairs a left endpoint with a nonnegative width so every cell is a valid
    interval; width 0 probes single atoms against a zero Gaussian mass.
    """
    lefts = np.linspace(-4.0, 4.0, cells)
    widths = np.linspace(0.0, 8.0, cells)
    return lefts, widths


def cmd_spectrum(config: ExperimentConfig) -> tuple:
    """Exact class spectra plus a Gaussian-surrogate residual table."""
    out = _ensure_out(config)
    base = BaseSpectrum(np.asarray(config.p, dtype=float))

    written = []
    tables = []
    for n in config.n_grid:
        spec = _power_spectrum(base, n, config.n_grid)
        tables.append(berry_esseen_grid(spec, *residual_grid(config.grid_cells)))
        written.append(write_spectrum_json(os.path.join(out, f"spectrum_n{n}.json"), spec))
        del spec  # frees this row's view, and the spectrum unless _power_spectrum holds it
    # one block per grid row: n, a and bound are the same along it
    blocks = (
        (t.n, a, b, residual, t.bound, passed)
        for t in tables
        for a, b, residual, passed in zip(t.a.tolist(), t.b, t.residual, t.passed)
    )
    written.append(
        _write_csv(
            os.path.join(out, "residuals.csv"),
            ("n", "a", "b", "residual", "bound", "pass"),
            blocks,
        )
    )
    return tuple(written)


def cmd_inefficiency(config: ExperimentConfig) -> tuple:
    """Dilution dimension window and significant-subspace growth fit.

    The window is taken at the reference accuracy eps_reference.
    """
    out = _ensure_out(config)
    base = BaseSpectrum(np.asarray(config.p, dtype=float))

    rows = []

    def spectra():
        # each spectrum gives its inefficiency row, then feeds the growth fit
        for n in config.n_grid:
            spec = _power_spectrum(base, n, config.n_grid)
            st = spec.stats
            md = min_dilution_dimension(spec, config.eps_reference)
            ne, lo = n * st.entropy, md.lower_log2
            rows.append((n, ne, lo, md.upper_log2, lo - ne, st.alpha * math.sqrt(n)))
            yield spec
            del spec  # frees this row's view, and the spectrum unless _power_spectrum holds it

    fit = growth_fit(spectra(), config.delta)
    written = [
        _write_csv(
            os.path.join(out, "inefficiency.csv"),
            ("n", "nE", "lower_bits", "upper_bits", "excess_over_nE", "alpha_sqrt_n"),
            rows,
        )
    ]
    fit_rows = [
        (n, ex, res, ok, mc)
        for n, ex, res, ok, mc in zip(
            fit.n_grid, fit.excess, fit.residuals, fit.floor_ok, fit.measured_coeff
        )
    ]
    written.append(
        _write_csv(
            os.path.join(out, "growth_fit.csv"),
            ("n", "excess_bits", "fit_residual", "floor_ok", "measured_coeff"),
            fit_rows,
        )
    )
    st = spectrum_stats(base)  # the summary describes the base itself
    summary = {
        "delta": fit.delta,
        "floor_coeff": fit.floor_coeff,
        "fitted_sqrt_coeff": fit.fitted_coeff,
        "fitted_const": fit.fitted_const,
        "entropy": st.entropy,
        "alpha": st.alpha,
        "beta": st.beta,
        "gaussian_quantile_coeff": gaussian_quantile(fit.delta) * st.alpha,
        "eps_reference": config.eps_reference,
    }
    # JSON has no infinity: the quantile coefficient is inf at delta = 1
    summary = {k: v if math.isfinite(v) else None for k, v in summary.items()}
    written.append(_write_json(os.path.join(out, "growth_summary.json"), summary))
    return tuple(written)


def dilution_dim(proto) -> int:
    """Source dimension a dilution protocol acts on (perfbench's dense check reads it)."""
    if isinstance(proto, BlockShiftFamily):
        return proto.d_prime
    return proto.dim_a


def probe_budget(spec, budget: int, epsilon: float):
    """Build and run the block dilution of the power state spec at one
    budget; spec carries n and the base.

    Returns (meets, predicted_error, outcomes, report), where meets says the
    run succeeded within epsilon.
    """
    proto, predicted = build_block_dilution(spec, budget, eps_target=epsilon)
    outcomes, report = run_protocol(proto, spec)
    return report.success and report.epsilon <= epsilon, predicted, outcomes, report


# c*(n) / (alpha sqrt n) measured on the reference grid; it sets only
# where the budget search starts, not its answer (see find_min_budget)
BUDGET_START_COEFF = 6.0


def find_min_budget(spec, n: int, epsilon: float):
    """Smallest message budget whose block dilution run meets epsilon.

    The search probes the Gaussian prediction round(BUDGET_START_COEFF *
    alpha sqrt n), clamped to [0, n log2(rank)], gallops away from it in
    steps 1, 2, 4, ... until one budget meets and one below it fails, then
    bisects between the two. The answer always meets and the budget below
    it fails. It is the smallest meeting budget wherever meeting epsilon is
    monotone in the budget: more bits cut the kept prefix into finer
    blocks, and budgets past ceil(log2) of its dimension all build the same
    exact shift. That holds on every d = 2 case tested, but padding the
    prefix to 2^c equal blocks breaks it on a few d = 3 cases at n <= 9.
    Only the lowest meeting probe's (outcomes, report) is kept. spec
    carries n and the base; n must equal spec.n.
    """
    if n != spec.n:
        raise ValidationError(f"budget search at n = {n} passed a spectrum of n = {spec.n}")
    hi = max(1, int(math.ceil(n * math.log2(max(2, len(spec.base_probs))))))
    alpha = spec.stats.alpha
    budget = min(hi, max(0, round(BUDGET_START_COEFF * alpha * math.sqrt(n))))
    fail = -1  # highest budget known to fail
    best = None  # (budget, outcomes, report) of the lowest meeting probe
    step = 1
    while True:
        meets, _, outcomes, report = probe_budget(spec, budget, epsilon)
        if meets:
            best = (budget, outcomes, report)
            if fail >= 0 or budget == 0:
                break
            budget = max(0, budget - step)
        else:
            fail = budget
            if best is not None:
                break
            if budget >= hi:
                raise ValidationError(f"no budget up to {hi} meets epsilon {epsilon} at n {n}")
            budget = min(hi, budget + step)
        step *= 2
    while best[0] - fail > 1:
        mid = (fail + best[0]) // 2
        meets, _, outcomes, report = probe_budget(spec, mid, epsilon)
        if meets:
            best = (mid, outcomes, report)
        else:
            fail = mid
    return best


def cmd_communication(config: ExperimentConfig) -> tuple:
    """Minimal-budget search per n, with a theorem-chain certificate each."""
    out = _ensure_out(config)
    cert_dir = os.path.join(out, "certificates")
    os.makedirs(cert_dir, exist_ok=True)
    base = BaseSpectrum(np.asarray(config.p, dtype=float))

    rows = []
    sweep_rows = []
    docs = []
    for n in config.n_grid:
        spec = _power_spectrum(base, n, config.n_grid)
        budget, outcomes, report = find_min_budget(spec, n, config.epsilon)
        good = next(o for o in outcomes if o.good)
        cert = verify_theorem_chain(good, spec, report)
        for extra in config.budget_grid:
            _, terr, _, rep = probe_budget(spec, extra, config.epsilon)
            sweep_rows.append((n, extra, terr, rep.epsilon, rep.c, rep.s))
        asn = spec.stats.alpha * math.sqrt(n)
        rows.append((n, budget, asn, budget / asn))
        doc = {
            "n": n,
            "c_star": budget,
            "epsilon_target": config.epsilon,
            "run": report.to_doc(),
            "certificate": cert.to_doc(),
            "consistent": cert.consistent,
        }
        docs.append((n, doc))
        del spec  # frees this row's view, and the spectrum unless _power_spectrum holds it
    # no certificate is written unless every n has run
    written = [_write_json(os.path.join(cert_dir, f"cert_n{n}.json"), doc) for n, doc in docs]
    written.append(
        _write_csv(
            os.path.join(out, "communication.csv"),
            ("n", "c_star", "alpha_sqrt_n", "ratio"),
            rows,
        )
    )
    if sweep_rows:
        written.append(
            _write_csv(
                os.path.join(out, "communication_budgets.csv"),
                ("n", "budget", "target_error", "run_epsilon", "c", "s"),
                sweep_rows,
            )
        )
    return tuple(written)


def cmd_concentration(config: ExperimentConfig) -> tuple:
    """Expected distillation yield per n and its shortfall against nE."""
    out = _ensure_out(config)
    base = BaseSpectrum(np.asarray(config.p, dtype=float))

    rows = []
    for n in config.n_grid:
        spec = _power_spectrum(base, n, config.n_grid)
        res = concentrate(spec)
        ne = n * spec.stats.entropy
        rows.append((n, ne, res.expected_yield, res.deficit, res.deficit / math.sqrt(n)))
        del spec  # frees this row's view, and the spectrum unless _power_spectrum holds it
    path = _write_csv(
        os.path.join(out, "concentration.csv"),
        ("n", "nE", "expected_yield", "deficit", "deficit_over_sqrt_n"),
        rows,
    )
    return (path,)
