"""Config parsing, command outputs, CLI exit codes, determinism."""

import csv
import filecmp
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import norm

from entlab import (
    ValidationError,
    berry_esseen_grid,
    berry_esseen_residual,
    min_dilution_dimension,
)
from entlab.lab import (
    ExperimentConfig,
    cmd_communication,
    cmd_concentration,
    cmd_inefficiency,
    cmd_spectrum,
    find_min_budget,
    load_config,
    parse_config_file,
    spot_check_outputs,
)
from entlab.lab import cli
from entlab.lab.cli import main
from entlab.lab import commands
from entlab.lab.commands import _fmt, probe_budget, residual_grid, write_spectrum_json
from entlab.lab.config import _PARSERS
from entlab.lab.spotcheck import read_certificate, residual_problems
from entlab.logdomain import log2_int
from entlab.locc import verify_theorem_chain
from entlab import spectrum as spectrum_module
from entlab.spectrum import BaseSpectrum, gaussian_quantile, tensor_power_spectrum
from oracles import write_spectrum_json_by_dump

P_QUARTER = np.array([0.75, 0.25])


def tiny_config(out, **kw):
    base = dict(
        p=(0.75, 0.25),
        n_grid=(8, 16),
        grid_cells=5,
        seed=3,
        out=str(out),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "p = 0.6, 0.4\n"
        "n_grid = 16, 64\n"
        "\n"
        "delta = 0.9   # trailing comment\n"
        "grid_cells = 7\n"
        "out = results\n"
    )
    raw = parse_config_file(str(cfg))
    assert raw["p"] == "0.6, 0.4"  # parse keeps strings, load coerces
    config = load_config(str(cfg))
    assert config.p == (0.6, 0.4)
    assert config.n_grid == (16, 64)
    assert config.delta == 0.9
    assert config.grid_cells == 7
    assert config.out == "results"


def test_default_cfg_loads_the_reference_table():
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "default.cfg")
    config = load_config(path)
    assert config.p == (0.75, 0.25)
    assert config.n_grid == (64, 256, 1024, 4096)
    assert config.delta == 0.95
    assert config.epsilon == 0.1
    assert config.eps_reference == 0.01
    assert config.grid_cells == 50


def test_parse_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("p = 0.5, 0.5\nmystery = 3\n")
    with pytest.raises(ValidationError) as err:
        parse_config_file(str(cfg))
    assert "bad.cfg:2" in str(err.value)


def test_load_config_rejects_malformed_values(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("grid_cells = soon\n")
    with pytest.raises(ValidationError) as err:
        load_config(str(cfg))
    assert "grid_cells" in str(err.value)


def test_parse_config_rejects_missing_equals(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n")
    with pytest.raises(ValidationError) as err:
        parse_config_file(str(cfg))
    assert "bad.cfg:1" in str(err.value)


def test_every_config_field_has_one_parser():
    assert set(_PARSERS) == {f.name for f in fields(ExperimentConfig)}


def test_load_config_override_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta = 0.9\nseed = 5\n")
    config = load_config(str(cfg), {"seed": 11, "epsilon": None})
    assert config.delta == 0.9  # file value kept
    assert config.seed == 11  # override wins
    assert config.epsilon == 0.1  # default, None override skipped


def test_config_validation():
    with pytest.raises(ValidationError):
        ExperimentConfig(p=(0.9, 0.2))
    with pytest.raises(ValidationError):
        ExperimentConfig(n_grid=(64, 32))
    with pytest.raises(ValidationError):
        ExperimentConfig(delta=0.0)
    with pytest.raises(ValidationError):
        ExperimentConfig(epsilon=2.0)
    cfg = ExperimentConfig()
    assert replace(cfg, seed=9).seed == 9


def test_integer_config_fields_are_strict():
    # integral values of any numeric type are stored as int
    cfg = ExperimentConfig(n_grid=(8.0, np.int64(16)), budget_grid=[2.0], grid_cells=7.0, seed=3.0)
    assert (cfg.n_grid, cfg.budget_grid, cfg.grid_cells, cfg.seed) == ((8, 16), (2,), 7, 3)
    for value in (cfg.grid_cells, cfg.seed, *cfg.n_grid, *cfg.budget_grid):
        assert type(value) is int
    # anything else names its field
    bad = [
        {"grid_cells": 7.5},
        {"seed": 2.5},
        {"seed": "4"},
        {"n_grid": (8.5,)},
        {"n_grid": (8, math.nan)},
        {"n_grid": (math.inf,)},
        {"n_grid": 8},
        {"budget_grid": (None,)},
    ]
    for kwargs in bad:
        with pytest.raises(ValidationError, match=next(iter(kwargs))):
            ExperimentConfig(**kwargs)
    # programmatic overrides reach the same check; files and flags parse with int
    for overrides in ({"grid_cells": 7.5, "n_grid": "8"}, {"seed": 2.5}, {"n_grid": [8.5]}):
        with pytest.raises(ValidationError, match="is not an integer"):
            load_config(None, overrides)
    assert load_config(None, {"n_grid": "8, 16", "seed": "5"}).n_grid == (8, 16)


def test_float_and_string_config_fields_are_strict():
    # real numbers of any type are stored as float
    cfg = ExperimentConfig(delta=np.float64(0.9), epsilon=1, eps_reference=Fraction(1, 50))
    assert (cfg.delta, cfg.epsilon, cfg.eps_reference) == (0.9, 1.0, 0.02)
    for value in (cfg.delta, cfg.epsilon, cfg.eps_reference):
        assert type(value) is float
    # anything else names its field, through the config and through overrides
    bad = [
        {"delta": [0.9]},
        {"delta": True},
        {"epsilon": None},
        {"epsilon": np.array([0.1])},
        {"eps_reference": "0.01"},
        {"out": 5},
        {"out": None},
    ]
    for kwargs in bad:
        with pytest.raises(ValidationError, match=next(iter(kwargs))):
            ExperimentConfig(**kwargs)
    for overrides in ({"delta": [0.9]}, {"epsilon": False}, {"out": 5}, {"p": [[0.5], [0.5]]}):
        with pytest.raises(ValidationError, match=next(iter(overrides))):
            load_config(None, overrides)
    # files and flags parse strings as before
    cfg = load_config(None, {"delta": "0.5", "eps_reference": "0.02", "out": "o"})
    assert (cfg.delta, cfg.eps_reference, cfg.out) == (0.5, 0.02, "o")


def test_malformed_p_names_p():
    # a p that is not a list of reals is named before its entries are tested
    for p in ("0.5,0.5", (0.5, [0.5]), 0.5, (0.5, None), (True,)):
        with pytest.raises(ValidationError, match=r"^p[ :]"):
            ExperimentConfig(p=p)
    # any list of reals is stored as a tuple of floats; files and flags parse as before
    assert ExperimentConfig(p=[np.float64(0.75), Fraction(1, 4)]).p == (0.75, 0.25)
    assert load_config(None, {"p": "0.75, 0.25"}).p == (0.75, 0.25)


def test_cmd_spectrum_rows_rederive(tmp_path):
    config = tiny_config(tmp_path / "o")
    written = cmd_spectrum(config)
    names = {os.path.basename(w) for w in written}
    assert "residuals.csv" in names
    assert {"spectrum_n8.json", "spectrum_n16.json"} <= names

    doc = json.load(open(tmp_path / "o" / "spectrum_n8.json"))
    assert doc["n"] == 8

    rows = read_rows(tmp_path / "o" / "residuals.csv")
    assert len(rows) == 2 * config.grid_cells**2
    for row in rows[:: len(rows) // 7]:
        spec = tensor_power_spectrum(P_QUARTER, int(row["n"]))
        res = berry_esseen_residual(spec, float(row["a"]), float(row["b"]))
        assert abs(res.residual - float(row["residual"])) < 1e-9
        # %.12g keeps 12 significant digits, so compare relatively
        assert abs(res.bound - float(row["bound"])) < 5e-12 * max(1.0, res.bound)
        assert row["pass"] == ("true" if res.passed else "false")


@pytest.mark.parametrize(
    "p, n_grid", [((0.75, 0.25), (8, 64)), ((0.4, 0.3, 0.2, 0.1), (6, 12))], ids=["d2", "d4"]
)
def test_residuals_csv_lines_are_fmt_of_the_table_rows(tmp_path, p, n_grid):
    # the writer formats n, a and bound once per grid row and the other
    # fields by one template per cell; every line must still be _fmt's text
    config = ExperimentConfig(p=p, n_grid=n_grid, out=str(tmp_path))
    cmd_spectrum(config)
    want = ["n,a,b,residual,bound,pass"]
    for n in n_grid:
        t = berry_esseen_grid(tensor_power_spectrum(np.array(p), n), *residual_grid(50))
        for i, a in enumerate(t.a.tolist()):
            cells = zip(t.b[i].tolist(), t.residual[i].tolist(), t.passed[i].tolist())
            want += [",".join(map(_fmt, (t.n, a, b, r, t.bound, ok))) for b, r, ok in cells]
    lines = (tmp_path / "residuals.csv").read_bytes().decode().split("\n")
    assert lines == want + [""]
    assert len(want) == 1 + len(n_grid) * 50 * 50


def test_cmd_inefficiency_rows_rederive(tmp_path):
    config = tiny_config(tmp_path / "o")
    written = cmd_inefficiency(config)
    names = {os.path.basename(w) for w in written}
    assert {"inefficiency.csv", "growth_fit.csv", "growth_summary.json"} <= names

    for row in read_rows(tmp_path / "o" / "inefficiency.csv"):
        n = int(row["n"])
        md = min_dilution_dimension(tensor_power_spectrum(P_QUARTER, n), config.eps_reference)
        assert abs(float(row["lower_bits"]) - md.lower_log2) < 1e-9
        assert abs(float(row["upper_bits"]) - md.upper_log2) < 1e-9
        assert float(row["upper_bits"]) >= float(row["lower_bits"])

    summary = json.load(open(tmp_path / "o" / "growth_summary.json"))
    assert "fitted_sqrt_coeff" in summary and "gaussian_quantile_coeff" in summary


def _strict_json(path):
    def refuse(name):
        raise AssertionError(f"{path} holds {name}, which is not JSON")

    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=refuse)


def test_growth_summary_at_delta_one_is_valid_json(tmp_path):
    # the quantile coefficient is inf at delta = 1; it used to be written
    # as the non-JSON token Infinity
    cmd_inefficiency(tiny_config(tmp_path / "o", delta=1.0))
    summary = _strict_json(tmp_path / "o" / "growth_summary.json")
    assert summary["gaussian_quantile_coeff"] is None
    assert summary["delta"] == 1.0 and math.isfinite(summary["fitted_sqrt_coeff"])
    # every other JSON writer refuses a non-finite value outright
    with pytest.raises(ValueError):
        commands._write_json(str(tmp_path / "nan.json"), {"x": math.nan})


def test_gaussian_quantile_is_norm_ppf_bit_for_bit():
    # growth_summary.json computes norm.ppf(delta) as gaussian_quantile, a
    # port of the Cephes ndtri that norm.ppf calls with loc 0 and scale 1;
    # the bits must agree for every delta a config may carry, not only the
    # reference 0.95
    rng = np.random.default_rng(14)
    edges = []
    # the branch points: exp(-2) and 1 - exp(-2), and exp(-32), where
    # sqrt(-2 log y) crosses 8
    for edge in (math.exp(-2), 1.0 - math.exp(-2), math.exp(-32), 1.0 - math.exp(-32)):
        edges += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)]
    grid = np.concatenate(
        [
            np.linspace(0.0, 1.0, 200_001)[1:-1],
            np.logspace(-300, -1, 3000),
            1.0 - np.logspace(-16, -1, 3000),
            10.0 ** rng.uniform(-323.0, 0.0, 20_000),
            1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 20_000),
            [0.0, 1.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.95],
            edges,
        ]
    )
    assert np.array_equal(ndtri(grid).view(np.int64), norm.ppf(grid).view(np.int64))
    ours = np.array([gaussian_quantile(float(y)) for y in grid])
    assert np.array_equal(ours.view(np.int64), ndtri(grid).view(np.int64))
    # scipy's scalar path, on a coarser grid
    for delta in [0.95, *grid[::997].tolist()]:
        assert float(ndtri(delta)).hex() == float(norm.ppf(delta)).hex()
    for bad in (-0.1, 1.5, math.nan):
        with pytest.raises(ValidationError):
            gaussian_quantile(bad)


def _scipy_modules_after(code):
    code += "\nprint(' '.join(sorted(m for m in sys.modules if m.startswith('scipy'))))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.split()


def test_cli_import_loads_no_heavy_scipy_module():
    # no scipy module at all: scipy.special alone was half of every
    # command's start-up, and only log-only spectra need it (gammaln)
    assert _scipy_modules_after("import sys, entlab.lab.cli, entlab.locc") == []
    # past the exact limit, tensor_power_spectrum loads it on first use
    loaded = _scipy_modules_after(
        "import sys\n"
        "from entlab.spectrum import EXACT_MULT_MAX_N, tensor_power_spectrum\n"
        "assert tensor_power_spectrum([0.75, 0.25], EXACT_MULT_MAX_N + 1).exact_bounds is None"
    )
    assert "scipy.special" in loaded


# the only (p, n, epsilon) on the scanned grids where meeting epsilon is not
# monotone in the budget: the kept prefix holds all 9 positions, and budget 3
# pads it to 8 blocks of 2 (16 positions), which fails where budget 2 meets
NON_MONOTONE = {((0.5, 0.3, 0.2), 2, 0.3)}


@pytest.mark.parametrize(
    "p, ns", [((0.75, 0.25), range(2, 65)), ((0.5, 0.3, 0.2), range(1, 21))]
)
def test_find_min_budget_is_the_first_meeting_budget_of_a_linear_scan(p, ns):
    non_monotone = set()
    for n in ns:
        spec = tensor_power_spectrum(np.array(p), n)
        hi = max(1, math.ceil(n * math.log2(len(p))))
        for eps in (0.05, 0.1, 0.3):
            c_star, _, _ = find_min_budget(spec, n, eps)
            meets = [probe_budget(spec, b, eps)[0] for b in range(hi + 1)]
            # always: the answer meets and the budget below it does not
            assert meets[c_star] and (c_star == 0 or not meets[c_star - 1]), (p, n, eps)
            first = meets.index(True)
            if all(meets[first:]):
                assert c_star == first, (p, n, eps)
            else:
                non_monotone.add((p, n, eps))
    assert non_monotone == {case for case in NON_MONOTONE if case[0] == p}


def test_find_min_budget_probes_at_most_eight_budgets_at_n_4096(quarter_spectra, monkeypatch):
    import entlab.lab.commands as commands

    probed = []

    def counting(spec, budget, epsilon):
        probed.append(budget)
        return probe_budget(spec, budget, epsilon)

    monkeypatch.setattr(commands, "probe_budget", counting)
    c_star, _, _ = commands.find_min_budget(quarter_spectra[4096], 4096, 0.1)
    assert c_star == 264
    assert len(probed) <= 8, probed


def test_find_min_budget_reproduces_the_recorded_large_n_budgets():
    # the c*(n) values the dilution_d2 benchmark workload records
    for n, want in ((8192, 376), (16384, 535)):
        spec = tensor_power_spectrum(P_QUARTER, n)
        c_star, outcomes, report = find_min_budget(spec, n, 0.1)
        assert c_star == want
        assert report.success and report.epsilon <= 0.1
        assert len(outcomes) == 1 and outcomes[0].good


def test_find_min_budget_refuses_n_of_another_power(quarter_spectra):
    with pytest.raises(ValidationError, match="n = 128 passed a spectrum of n = 64"):
        find_min_budget(quarter_spectra[64], 128, 0.1)


def test_find_min_budget_names_the_largest_budget_it_tried(monkeypatch):
    import entlab.lab.commands as commands

    probed = []

    def never_meets(spec, budget, epsilon):
        probed.append(budget)
        return False, None, None, None

    monkeypatch.setattr(commands, "probe_budget", never_meets)
    spec = tensor_power_spectrum(P_QUARTER, 64)
    with pytest.raises(ValidationError, match="no budget up to 64 meets"):
        commands.find_min_budget(spec, 64, 0.1)
    # the gallop climbs from round(6 alpha sqrt 64) = 33 to the cap
    assert probed == [33, 34, 36, 40, 48, 64]


def test_cmd_communication_budget_table(tmp_path):
    config = tiny_config(tmp_path / "o", budget_grid=(0, 1, 2))
    written = cmd_communication(config)
    names = {os.path.basename(w) for w in written}
    assert "communication.csv" in names
    assert "communication_budgets.csv" in names
    assert {"cert_n8.json", "cert_n16.json"} <= names

    rows = read_rows(tmp_path / "o" / "communication.csv")
    spec8 = tensor_power_spectrum(P_QUARTER, 8)
    c8 = int([r for r in rows if r["n"] == "8"][0]["c_star"])
    c_star, _, report = find_min_budget(spec8, 8, config.epsilon)
    assert c8 == c_star
    assert report.epsilon <= config.epsilon

    cert = json.load(open(tmp_path / "o" / "certificates" / "cert_n8.json"))
    assert cert["n"] == 8
    assert cert["c_star"] == c8
    assert cert["consistent"] is True

    budget_rows = read_rows(tmp_path / "o" / "communication_budgets.csv")
    assert {int(r["budget"]) for r in budget_rows if r["n"] == "8"} == {0, 1, 2}
    # run error can only improve as budget grows
    errs = [float(r["run_epsilon"]) for r in sorted(budget_rows, key=lambda r: (int(r["n"]), int(r["budget"]))) if r["n"] == "8"]
    assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))


def test_cmd_communication_certificates_serialize_at_every_small_n(tmp_path):
    # at n = 10..12 the minimal budget is c* = n with flat blocks of one
    # position, whose certificate once carried numpy bools json rejects
    config = tiny_config(tmp_path / "o", n_grid=tuple(range(2, 17)))
    cmd_communication(config)
    for n in config.n_grid:
        with open(tmp_path / "o" / "certificates" / f"cert_n{n}.json") as fh:
            doc = json.load(fh)
        assert doc["consistent"] is True, n
        assert doc["certificate"]["consistent"] is True, n


def test_cmd_concentration_rows_rederive(tmp_path):
    from entlab.locc import concentrate

    config = tiny_config(tmp_path / "o")
    cmd_concentration(config)
    for row in read_rows(tmp_path / "o" / "concentration.csv"):
        n = int(row["n"])
        res = concentrate(tensor_power_spectrum(P_QUARTER, n))
        assert abs(float(row["expected_yield"]) - res.expected_yield) < 1e-9
        deficit = n * res.entropy_rate - res.expected_yield
        assert abs(float(row["deficit"]) - deficit) < 1e-9


def test_concentration_runs_past_exact_multiplicities(tmp_path):
    # beyond n = 20000 the spectrum carries only log2 multiplicities; the
    # deficit must still follow the type-measurement entropy expansion
    # (1/2) log2(2 pi e n) + (1/2) sum_i log2 p_i + O(1/n)
    out = tmp_path / "o"
    code = main(["concentration", "--n-grid", "30000,65536", "--out", str(out)])
    assert code == 0
    rows = read_rows(out / "concentration.csv")
    assert [int(r["n"]) for r in rows] == [30000, 65536]
    for row in rows:
        n = int(row["n"])
        want = 0.5 * math.log2(2.0 * math.pi * math.e * n) + 0.5 * float(
            np.log2(P_QUARTER).sum()
        )
        assert abs(float(row["deficit"]) - want) < 1e-4, n


def _run_everything(config):
    cmd_spectrum(config)
    cmd_inefficiency(config)
    cmd_communication(config)
    cmd_concentration(config)


def _tree(root):
    out = {}
    for base, _, files in os.walk(root):
        for f in files:
            p = os.path.join(base, f)
            out[os.path.relpath(p, root)] = p
    return out


def _same_tree(a, b):
    ta, tb = _tree(a), _tree(b)
    assert ta.keys() == tb.keys()
    for rel in ta:
        assert filecmp.cmp(ta[rel], tb[rel], shallow=False), rel


def test_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _run_everything(tiny_config(a))
    _run_everything(tiny_config(b))
    _same_tree(a, b)


@pytest.fixture
def cleared_slot(monkeypatch):
    """The commands' held spectra, emptied for this test and restored after it."""
    monkeypatch.setattr(commands, "_held", None)


def _counting_builds(monkeypatch):
    """The n of every spectrum the commands build, in build order."""
    built = []

    def counting(base, n):
        built.append(n)
        return tensor_power_spectrum(base, n)

    monkeypatch.setattr(commands, "tensor_power_spectrum", counting)
    return built


def test_pipeline_builds_each_grid_spectrum_once_largest_first(tmp_path, monkeypatch, cleared_slot):
    built = _counting_builds(monkeypatch)
    _run_everything(tiny_config(tmp_path, n_grid=(8, 16, 32)))
    assert built == [32, 8, 16]
    # a second pipeline on the same grid builds nothing
    built.clear()
    _run_everything(tiny_config(tmp_path, n_grid=(8, 16, 32)))
    assert built == []


def test_held_spectra_hand_out_fresh_spectra(tmp_path, cleared_slot):
    _run_everything(tiny_config(tmp_path, n_grid=(8, 16, 256)))
    key, held_ns, held = commands._held
    assert held_ns == set(held) == {8, 16, 256}
    big = held[256]
    assert type(big.exact_bounds) is list and "view" not in vars(big)
    kept = big.exact_bounds
    spec = commands._power_spectrum(BaseSpectrum(big.base_probs), 256, (8, 16, 256))
    assert spec is not big and "view" not in vars(spec)
    assert spec.log2_masses is big.log2_masses and spec.exact_bounds is big.exact_bounds
    # a query past the held boundaries completes into the caller's view, and
    # the held spectrum keeps only what it held
    assert spec.view.bounds(spec.num_classes)[-1] == 2**256
    assert len(spec.view.bounds(0)) == 258 > len(kept)
    assert big.exact_bounds is kept and "view" not in vars(big)
    # another grid of the same base drops every held spectrum and builds its
    # largest n first
    small = held[8]
    commands._power_spectrum(BaseSpectrum(big.base_probs), 8, (8, 12))
    _, _, now = commands._held
    assert list(now) == [12, 8] and now[8] is not small


@pytest.mark.parametrize(
    "p, n",
    [((0.75, 0.25), 4096), ((0.75, 0.25), 16384), ((0.5, 0.3, 0.2), 100), ((0.4, 0.3, 0.2, 0.1), 100)],
)
def test_log2_mults_are_the_log2_int_of_every_kept_multiplicity(p, n, cleared_slot):
    # the block builder and the certificate read a whole class's log2
    # length from log2_mults in place of log2_int of its exact count
    held = commands._power_spectrum(BaseSpectrum(np.array(p)), n, (n,))
    # a held spectrum keeps its boundaries where the mass is (at d = 2 under
    # half of them), all of them when that is the whole spectrum
    kept = held.exact_bounds
    assert len(p) > 2 or len(kept) < held.num_classes / 2
    counts = [b - a for a, b in zip(kept, kept[1:])]
    assert held.log2_mults[: len(counts)].tolist() == [log2_int(c) for c in counts], (p, n)


def test_dilution_d2_grid_reads_only_kept_multiplicities(tmp_path, monkeypatch, cleared_slot):
    # every query of the four commands on the benchmark's d = 2 grid, and on
    # its reference and classes_d4 grids, stays in the boundaries each held
    # spectrum keeps, so nothing is completed or rebuilt
    completed = []
    monkeypatch.setattr(spectrum_module, "_complete_bounds", lambda *args: completed.append(args))
    built = _counting_builds(monkeypatch)
    for p, grid in (
        ((0.75, 0.25), (1024, 4096, 8192, 16384)),
        ((0.75, 0.25), (64, 256, 1024, 4096)),
        ((0.4, 0.3, 0.2, 0.1), (25, 50, 100)),
    ):
        built.clear()
        _run_everything(tiny_config(tmp_path / str(grid[0]), p=p, n_grid=grid))
        assert completed == [] and built == [grid[-1], *grid[:-1]], grid
        held = commands._held[2].values()
        assert all(len(spec.exact_bounds) <= spec.num_classes for spec in held), grid


def test_dense_grid_holds_a_bounded_set_and_writes_the_same_bytes(
    tmp_path, monkeypatch, cleared_slot
):
    grid = tuple(range(16, 1025, 16))
    built = _counting_builds(monkeypatch)
    _run_everything(tiny_config(tmp_path / "held", n_grid=grid))
    # the held smaller spectra hold no more classes than the largest
    _, held_ns, held = commands._held
    assert set(held) == held_ns == {1008, 1024}
    assert built.count(1024) == built.count(1008) == 1 and built.count(16) == 4
    monkeypatch.setattr(
        commands, "_power_spectrum", lambda base, n, grid: tensor_power_spectrum(base, n)
    )
    _run_everything(tiny_config(tmp_path / "built", n_grid=grid))
    _same_tree(tmp_path / "held", tmp_path / "built")


def test_communication_at_n_16384_never_sums_total_dim(tmp_path, monkeypatch, cleared_slot):
    # every query of the budget search and its certificate stays inside the
    # boundaries the spectrum holds, so none completes them to the last one,
    # the sum of all 16,385 multiplicities
    completed = []
    monkeypatch.setattr(spectrum_module, "_complete_bounds", lambda *args: completed.append(args))
    cmd_communication(tiny_config(tmp_path, n_grid=(16384,)))
    assert completed == []
    assert read_rows(tmp_path / "communication.csv")[0]["c_star"] == "535"


@pytest.mark.parametrize(
    "argv",
    [
        # growth_fit's sig_dim at delta = 1 reads to the last of 1,326 classes
        ["inefficiency", "--p", "0.5,0.3,0.2", "--n-grid", "50", "--delta", "1"],
        # the block family's prefix masses read past the held boundaries of 65 classes
        ["communication", "--p", "0.75,0.25", "--n-grid", "64", "--epsilon", "0.001"],
    ],
    ids=["inefficiency", "communication"],
)
def test_commands_past_the_held_boundaries_complete_once_and_write_whole_build_bytes(
    tmp_path, monkeypatch, cleared_slot, argv
):
    complete = spectrum_module._complete_bounds
    completed = []

    def counting(probs, n, held, num_classes):
        completed.append(n)
        return complete(probs, n, held, num_classes)

    monkeypatch.setattr(spectrum_module, "_complete_bounds", counting)
    assert main([*argv, "--out", str(tmp_path / "held")]) == 0
    assert completed == [int(argv[4])]
    # the same command on whole builds, which hold every boundary
    completed.clear()
    monkeypatch.setattr(commands, "_held", None)
    monkeypatch.setattr(
        commands,
        "tensor_power_spectrum",
        lambda base, n: spectrum_module._build_spectrum(base, n, whole=True),
    )
    assert main([*argv, "--out", str(tmp_path / "whole")]) == 0
    assert completed == []
    _same_tree(tmp_path / "held", tmp_path / "whole")


def test_pipelines_in_one_process_write_the_bytes_of_unheld_runs(tmp_path, monkeypatch):
    # each pipeline finds held the spectra of another base's grid, of
    # another grid of the same base and largest n, or of another largest n
    # of the same base; each must write what fresh builds write
    configs = [
        ((0.75, 0.25), (4, 8)),
        ((0.5, 0.3, 0.2), (4, 8)),
        ((0.5, 0.3, 0.2), (2, 8)),
        ((0.5, 0.3, 0.2), (4, 6)),
    ]
    for i, (p, n_grid) in enumerate(configs):
        _run_everything(ExperimentConfig(p=p, n_grid=n_grid, out=str(tmp_path / f"seq{i}")))
    monkeypatch.setattr(
        commands, "_power_spectrum", lambda base, n, grid: tensor_power_spectrum(base, n)
    )
    for i, (p, n_grid) in enumerate(configs):
        _run_everything(ExperimentConfig(p=p, n_grid=n_grid, out=str(tmp_path / f"new{i}")))
        _same_tree(tmp_path / f"seq{i}", tmp_path / f"new{i}")


@pytest.mark.parametrize("p, n_grid", [("0.75,0.25", "8,16,64"), ("0.5,0.3,0.2", "6,12")])
def test_pipeline_equals_one_process_per_command(tmp_path, p, n_grid):
    _run_everything(load_config(None, {"p": p, "n_grid": n_grid, "out": str(tmp_path / "one")}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for name in ("spectrum", "inefficiency", "communication", "concentration"):
        args = [name, "--p", p, "--n-grid", n_grid, "--out", str(tmp_path / "each")]
        subprocess.run(
            [sys.executable, "-m", "entlab.lab.cli", *args], env=env, capture_output=True, check=True
        )
    _same_tree(tmp_path / "one", tmp_path / "each")


# sha256 of every file the four commands write at the default config apart
# from p and n_grid, as json.dump, csv.writer and the per-cell residual loop
# wrote them; a change here is a deliberate change of the published outputs
RECORDED_OUTPUTS = {
    ((0.75, 0.25), (64, 256)): {
        "communication.csv": "44ace455b95dc1589e213afa6a24d40782a247aa39094a8906e592201731c5b0",
        "concentration.csv": "0933b2869e15f0c17bbd27fc61c4140f488e55322675f2c68b8c51ebd8d19857",
        "growth_fit.csv": "b5bb68904af7f4cdf799955246d15ce2d8be63f58a4ca883092b709fa43db028",
        "growth_summary.json": "e176ca14d395883d5f5ec7da4464fd5d599e7f86906e9babaff71eb92ab23598",
        "inefficiency.csv": "51981e9ca9d0282b44539c3e39a543ae4c1e2d8cbfd897d2ea6147975dc43b55",
        "residuals.csv": "4115882a0c45d4fd517d4f58cdece4feb9c6f6cb3bd9bcb1c6a27cdb574f6f01",
        "spectrum_n256.json": "81591c3e0c31c2d6ba9a27414a6fb4dcef031da2255208ede4eae060d8cfa536",
        "spectrum_n64.json": "b46bd47c9e7eb46ec0b8ccbab7471f5ad36f9a8e125e65d03ce9aadb64ae1137",
        "certificates/cert_n256.json": (
            "f6e64b73828bb08612e72642dd38e3c13fe6e7d4218084ff7a79684dbc408cb9"
        ),
        "certificates/cert_n64.json": (
            "b4278ade0468085b18515eaf6a5e5a45e4d5ab1ac9cdc67d410d7e5dd86f5c6c"
        ),
    },
    ((0.4, 0.3, 0.2, 0.1), (25,)): {
        "communication.csv": "b7bbf1fed141c3c394df4eba6637b6879dcc2b6659b7eba378ab9f4dc68a1c22",
        "concentration.csv": "d0332a79a74c78a02b0d031c80a16fc13c8661e9ccffb4826a482bb697cdb23c",
        "growth_fit.csv": "b4d373f9d01e8b5d8d191db001c022792249cfbf99cd127ae9ad25b0942b977c",
        "growth_summary.json": "0126c96eef11db3b8dee8c79dc24763ab561d872838860f6d8ed63a8641e700d",
        "inefficiency.csv": "8e0dedd4c3808278b537b85c65570e796df5b150a81d0b49d0d27ae56746517b",
        "residuals.csv": "180d7c81b20d952e8a42b9d30666c0ccde2da1c38ef73f9e94dcd2f11b82a268",
        "spectrum_n25.json": "0805a6a9758fb2631348811fb2b2b9c42d7855fc7dc11437941423c86ef9e2ad",
        "certificates/cert_n25.json": (
            "50b7379b7f8945129df2f44ccfedfaeb91bfe8b6e6768030852df218908424d6"
        ),
    },
    # n <= 8 at d = 3: the c* families of n <= 4 (d' <= 128) are scored on
    # their materialized weights, those of n = 5, 6 and 8 as one symbolic
    # outcome of multiplicity K
    ((0.5, 0.3, 0.2), (2, 3, 4, 5, 6, 8)): {
        "communication.csv": "86be81be6870af386ba081c056270daba54b26413972dab7f3e8bb5eedcedee7",
        "concentration.csv": "7460e115a40f27d0033b10cb70cf8126de3b2ae8c47bb4712ade7b4505db0d0c",
        "growth_fit.csv": "2c6e3ca1e01c076e9fe06e0f0a298db099e90512b76a9a08378f2f492560cd6d",
        "growth_summary.json": "783e9251562c6151d1219f74def2c8ef2cf337348487932b048332edff865c55",
        "inefficiency.csv": "c539a5c965da8568c18d6bbc3af900c88cd1eb061ec5d577be140835bfb7ce26",
        "residuals.csv": "c31b9abdef9ceff13a0db8588101eff3dc1335216ebea986aff38c69468d5924",
        "spectrum_n2.json": "2c2949befce15f54dd55a663a9953a48cd6d57ef25abb439874f73256e34151f",
        "spectrum_n3.json": "8f55e8910590636f29bddf995b2920fc0f504494c73905f2307965e7f4faccb2",
        "spectrum_n4.json": "0234944e6dd61c3b30ba100fbf3e1764e70a2e91311e59f84b320ffa2ca57fa1",
        "spectrum_n5.json": "70ae8415b2e84d47f4c88b6ce22818424f022032cb97318e164eff68528bc50b",
        "spectrum_n6.json": "616427ff456ebfd03688aaeea3bb1a1a3ada2cd343a1a5adae6c950dbb022560",
        "spectrum_n8.json": "18f44969e843808d31a4fe8f69bd12510d5ae86bfe5121a9677adab16fd96c23",
        "certificates/cert_n2.json": (
            "212dfc17528c476f94fb4b7d2f827e17734c4db3c7f4c642a3cd9a7c9e991086"
        ),
        "certificates/cert_n3.json": (
            "ad226dbeb68e10f5bc34391ed28bdd699de377abe44d510dc8bf223ef86aed35"
        ),
        "certificates/cert_n4.json": (
            "eee4b0f74d2de4895360385f9ccede76c764914e817745b7926f01b25ea0439d"
        ),
        "certificates/cert_n5.json": (
            "dd15bab0aa06b2518006cef6627402bf463efd58f91899e476d80b3819446818"
        ),
        "certificates/cert_n6.json": (
            "d5ebf7a6126febec162e401d257596680b932afa2ccb60c3ce6b763d20c8941d"
        ),
        "certificates/cert_n8.json": (
            "5a9473a510e69a5beabcf654b15aaef5570fd04f6beb599e86e5f35a662d088d"
        ),
    },
    # n <= 9 at d = 2: the c* families of n <= 6 (d' <= 128) are scored on
    # their materialized weights, that of n = 9 as one symbolic outcome of
    # multiplicity K
    ((0.75, 0.25), (2, 3, 5, 6, 9)): {
        "communication.csv": "0fd71bfcf3cc20831cad686552f8ce2e1ebe5d56c11b78b808561493408e0f99",
        "concentration.csv": "9f2f54a362d74e1011ff9da36e86a771948c0293bc11ed45d4385d6ac763d4ac",
        "growth_fit.csv": "a9ab9216d293ddaae11c2f1e69410c855f9c2e3d04df20155a22821b4af52b0b",
        "growth_summary.json": "5f0170a3dda6f4112bae492c1aac175f6288afaabb893af9889f96399f0e66be",
        "inefficiency.csv": "2cefb3a96390208060cbc2c902482cc9b1f5075a532476702538c5191dfbdde2",
        "residuals.csv": "8ba6832a2e53416d269d4992ee2f6c66ebe18d945f999bd8523c55d8fce75ace",
        "spectrum_n2.json": "ece4704971eb7450b952a86f8748111ab67e2bde89c088cda8bd1be84f35883f",
        "spectrum_n3.json": "23d0ce433ffb74fb4cd9bb7fc3b1aa1f4dc4fb1b97553e034427af68f0e01c44",
        "spectrum_n5.json": "0ddc362dda5fbc4211078b74795dd731294566549cda45ab037fc5063b18c68c",
        "spectrum_n6.json": "17d4b5a095ff40f73e285216f2d9315c300afccd4a4b8098c13d7c677d3b6ec9",
        "spectrum_n9.json": "d694d86e3a19d1bfe8b3cb15d741e685c888c082b193b516375c0a2b567419e3",
        "certificates/cert_n2.json": (
            "8391e4c75cfbc294163d327159b423c34e2f1389a0c5d73d3cf531e628d3d98b"
        ),
        "certificates/cert_n3.json": (
            "d35b2f0867a94cb843840c41b94f2ef808005d0fc20f1ff2e45c98da6ef83509"
        ),
        "certificates/cert_n5.json": (
            "3076c4816d044d754789424f5f747eb7fa18069aee642cdd2f40b41b922c1ceb"
        ),
        "certificates/cert_n6.json": (
            "6b9f61de82b56f618da80907ce629dd3243e3fa29a2a91fd18754008d2abd985"
        ),
        "certificates/cert_n9.json": (
            "9f6a4c4fe735acb8ecb9730a674f197db57610698e03ef7af627c09a49eaa41e"
        ),
    },
}


@pytest.mark.parametrize(
    "p, n_grid", list(RECORDED_OUTPUTS), ids=["d2", "d4", "d3", "d2_materialized"]
)
def test_commands_write_the_recorded_bytes(tmp_path, p, n_grid):
    _run_everything(ExperimentConfig(p=p, n_grid=n_grid, out=str(tmp_path)))
    digests = {}
    for rel, path in _tree(tmp_path).items():
        with open(path, "rb") as fh:
            digests[rel.replace(os.sep, "/")] = hashlib.sha256(fh.read()).hexdigest()
    assert digests == RECORDED_OUTPUTS[p, n_grid]


@pytest.mark.parametrize(
    "p, n, exact",
    [
        ((1.0,), 7, True),
        ((0.75, 0.25), 1, True),
        ((0.75, 0.25), 4096, True),
        # 212,226 classes: past EXACT_MULT_MAX_CLASSES, so log2 multiplicities only
        ((0.5, 0.3, 0.2), 650, False),
        ((0.4, 0.3, 0.2, 0.1), 25, True),
    ],
)
def test_spectrum_writer_equals_json_dump(tmp_path, p, n, exact):
    spec = tensor_power_spectrum(np.array(p), n)
    assert (spec.exact_bounds is not None) == exact
    write_spectrum_json(str(tmp_path / "new.json"), spec)
    write_spectrum_json_by_dump(str(tmp_path / "old.json"), spec)
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()


@pytest.mark.parametrize("chunk", [1, 7, 26, 676, 677])
def test_spectrum_writer_equals_json_dump_across_chunks(tmp_path, monkeypatch, chunk):
    # 676 classes: one chunk, one class per chunk, and chunk edges that
    # divide the table exactly (26, 676) or not (7, 677)
    spec = tensor_power_spectrum(np.array([0.4, 0.3, 0.2, 0.1]), 25)
    assert spec.num_classes == 676
    monkeypatch.setattr(commands, "SPECTRUM_CHUNK", chunk)
    write_spectrum_json(str(tmp_path / "new.json"), spec)
    write_spectrum_json_by_dump(str(tmp_path / "old.json"), spec)
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()


def test_cli_spectrum_roundtrip(tmp_path, capsys):
    code = main(
        [
            "spectrum",
            "--out",
            str(tmp_path / "cli"),
            "--n-grid",
            "8",
            "--p",
            "0.75,0.25",
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert any(line.endswith("residuals.csv") for line in printed)
    assert (tmp_path / "cli" / "spectrum_n8.json").exists()


def test_cli_builds_one_parser_per_process(tmp_path, capsys):
    """main() calls in one process share one parser, and a call after
    another with other flags writes the bytes its first call, on a freshly
    built parser, wrote."""
    cli._build_parser.cache_clear()
    args = ["spectrum", "--n-grid", "8", "--p", "0.75,0.25", "--out"]
    assert main(args + [str(tmp_path / "first")]) == 0
    other = ["spectrum", "--n-grid", "6", "--p", "0.5,0.3,0.2", "--delta", "0.2"]
    assert main(other + ["--out", str(tmp_path / "other")]) == 0
    assert main(args + [str(tmp_path / "again")]) == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    _same_tree(tmp_path / "first", tmp_path / "again")


def test_cli_exit_codes(tmp_path, capsys):
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("mystery = 1\n")
    assert main(["spectrum", "--config", str(bad_cfg)]) == 2

    assert main(["spectrum", "--p", "0.9,0.2", "--out", str(tmp_path / "x")]) == 2
    # a nan compares false with everything, so it once passed every p check
    for p in ("0.5,nan,0.5", "nan,0.75,0.25", "inf,0.75,0.25"):
        capsys.readouterr()
        assert main(["concentration", "--p", p, "--n-grid", "8", "--out", str(tmp_path / "x")]) == 2
        assert "error: p must be" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()

    blocker = tmp_path / "file_not_dir"
    blocker.write_text("x")
    code = main(["concentration", "--n-grid", "4", "--out", str(blocker)])
    assert code == 4

    with pytest.raises(SystemExit):
        main(["no-such-command"])
    capsys.readouterr()


def test_cli_has_no_seed_flag(capsys):
    # no command reads a seed, so the flag is gone (the config key stays)
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_cli_selftest_refuses_the_flags_it_ignores(tmp_path, capsys):
    # selftest picks its own grid and output directory, so these are usage errors
    for flag, value in (("--out", str(tmp_path / "st")), ("--n-grid", "5")):
        with pytest.raises(SystemExit) as exc:
            main(["selftest", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
    assert not (tmp_path / "st").exists()


def test_cli_selftest_passes(capsys):
    code = main(["selftest"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 problems re-deriving" in out


def test_cli_selftest_exits_2_when_a_row_does_not_rederive(monkeypatch, capsys):
    import entlab.lab.spotcheck as spotcheck

    monkeypatch.setattr(spotcheck, "spot_check_outputs", lambda config: ["residuals.csv bad"])
    assert main(["selftest"]) == 2
    out = capsys.readouterr().out
    assert "FAIL residuals.csv bad" in out
    assert "1 problems re-deriving" in out


def test_spot_check_names_each_corrupted_csv(tmp_path):
    config = tiny_config(tmp_path / "o")
    _run_everything(config)
    assert spot_check_outputs(config) == []
    # the first data row is always sampled; bump one re-derived value in each file
    for name, col in (
        ("residuals.csv", "residual"),
        ("inefficiency.csv", "lower_bits"),
        ("communication.csv", "alpha_sqrt_n"),
        ("concentration.csv", "expected_yield"),
    ):
        path = tmp_path / "o" / name
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        rows[0][col] = repr(float(rows[0][col]) + 0.5)
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
    # one certificate field at the first n, one run field at the last
    for n, part, key in ((8, "certificate", "trpi_x"), (16, "run", "epsilon")):
        path = tmp_path / "o" / "certificates" / f"cert_n{n}.json"
        doc = json.loads(path.read_text())
        doc[part][key] += 0.5
        path.write_text(json.dumps(doc))
    problems = spot_check_outputs(config)
    for name in ("residuals.csv", "inefficiency.csv", "communication.csv", "concentration.csv"):
        assert any(msg.startswith(name) for msg in problems), name
    for n in (8, 16):
        assert f"certificate at n={n} not re-derivable" in problems, n


def test_communication_writes_exact_ints_past_the_str_digit_limit(tmp_path):
    # at n = 17500 the run's exact dimension d has more than 4300 decimal
    # digits and the certificate's n1 almost as many; both are written and
    # read in full, and the process-wide digit limit is back in force after
    limit = sys.get_int_max_str_digits()
    out = tmp_path / "o"
    assert main(["communication", "--n-grid", "17500", "--out", str(out)]) == 0
    assert sys.get_int_max_str_digits() == limit
    doc = read_certificate(str(out), 17500)
    assert sys.get_int_max_str_digits() == limit
    assert doc["consistent"] is True and doc["certificate"]["consistent"] is True
    n1 = doc["certificate"]["n1"]
    assert doc["run"]["d"].bit_length() > 4300 * math.log2(10)
    spec = tensor_power_spectrum(P_QUARTER, 17500)
    assert n1 == spec.view.count_eigs_at_least(-17500 * spec.stats.entropy)
    rows = read_rows(out / "communication.csv")
    assert [(r["n"], r["c_star"]) for r in rows] == [("17500", str(doc["c_star"]))]


def test_run_report_and_certificate_docs_past_the_str_digit_limit(tmp_path):
    # the documents carry d and n1 as exact ints; the JSON writer and the
    # certificate reader open the exact-int scope themselves, so a caller
    # with the default digit limit in force gets every decimal digit
    limit = sys.get_int_max_str_digits()
    spec = tensor_power_spectrum(P_QUARTER, 17500)
    _, outcomes, report = find_min_budget(spec, 17500, 0.1)
    cert = verify_theorem_chain(next(o for o in outcomes if o.good), spec, report)
    run_doc, cert_doc = report.to_doc(), cert.to_doc()
    assert run_doc["d"] == report.d and report.d.bit_length() > 4300 * math.log2(10)
    assert cert_doc["n1"] == cert.n1 and cert_doc["consistent"] is True
    with pytest.raises(ValueError):
        str(report.d)  # the limit is in force outside the writer
    path = tmp_path / "certificates" / "cert_n17500.json"
    path.parent.mkdir()
    commands._write_json(str(path), {"run": run_doc, "certificate": cert_doc})
    assert sys.get_int_max_str_digits() == limit
    back = read_certificate(str(tmp_path), 17500)
    assert sys.get_int_max_str_digits() == limit
    assert back["run"]["d"] == report.d and back["certificate"]["n1"] == cert.n1


def test_theorem_chain_bound_past_the_double_range_is_checked_without_a_warning():
    # at n = 17500 with every class kept, log2 of the bound n1 * ||x|| is
    # past 1024: the bound is compared in log2, and exp2 is not asked
    spec = tensor_power_spectrum(P_QUARTER, 17500)
    _, _, outcomes, report = probe_budget(spec, 10**6, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = verify_theorem_chain(next(o for o in outcomes if o.good), spec, report)
    assert cert.log2_n1 + cert.log2_x_norm > 1024
    assert cert.consistent and cert.trpi_x_bound_ok


# the certificate's keys: every quantity the chain computes on a
# Schmidt-diagonal run, its verdicts, the two reference parameters and
# the aggregate
CERTIFICATE_KEYS = {
    "n", "c", "s", "log2_d", "error", "log2_prob", "entropy", "alpha", "beta",
    "n_threshold", "n_past_threshold", "n1", "log2_n1", "bound_n1_ok", "trp1_rho",
    "trp1_quarter_ok", "trp1_delta_rho_ok", "margin_quarter_ok", "log2_x_norm",
    "xnorm_pd_ok", "xnorm_cc_ok", "prob_qualifies", "trpi_x", "trpi_x_bound_ok",
    "witness_lower", "d_reduced", "witness_ok", "dp_ok", "implied_c_plus_s",
    "implied_ok", "log2_capture_const", "delta_rho", "delta_gamma", "consistent",
}

# the verdicts consistent() ands: eight always, the last two past n_threshold
CORE_FLAGS = (
    "prob_qualifies", "bound_n1_ok", "xnorm_pd_ok", "xnorm_cc_ok", "trpi_x_bound_ok",
    "witness_ok", "dp_ok", "implied_ok", "trp1_quarter_ok", "margin_quarter_ok",
)


def test_certificate_publishes_the_computed_fields_and_ands_each_verdict():
    # at n = 16384, ||x|| = 2^-13019.75 underflows a double; its log2 is
    # what the certificate publishes
    spec = tensor_power_spectrum(P_QUARTER, 16384)
    c_star, outcomes, report = find_min_budget(spec, 16384, 0.1)
    good = next(o for o in outcomes if o.good)
    cert = verify_theorem_chain(good, spec, report)
    assert c_star == 535 and cert.consistent and cert.n_past_threshold
    assert set(cert.to_doc()) == CERTIFICATE_KEYS
    assert math.isfinite(cert.log2_x_norm) and 2.0**cert.log2_x_norm == 0.0
    assert cert.log2_x_norm == float(np.max(good.x_runs[1]))
    for flag in CORE_FLAGS:
        assert getattr(cert, flag) and not replace(cert, **{flag: False}).consistent, flag
    flipped = replace(cert, trp1_delta_rho_ok=not cert.trp1_delta_rho_ok)
    assert flipped.consistent


@pytest.mark.parametrize("n", [4096, 16384])
def test_every_residual_row_rederives_with_endpoints_on_eigenvalues(tmp_path, n):
    # with 3 grid cells the left edge x1 = 0 gives a = -nE, the eigenvalue of
    # class k = n/4 for p = (3/4, 1/4); its 12-digit print leaves the slice
    # slack, so the rows are re-derived from the cells' unrounded endpoints
    config = tiny_config(tmp_path / "o", n_grid=(n,), grid_cells=3)
    cmd_spectrum(config)
    rows = [list(r.values()) for r in read_rows(tmp_path / "o" / "residuals.csv")]
    assert len(rows) == 9
    spec = tensor_power_spectrum(P_QUARTER, n)
    rounded = [berry_esseen_residual(spec, float(r[1]), float(r[2])).residual for r in rows]
    assert any(abs(res - float(r[3])) > 1e-6 for res, r in zip(rounded, rows))
    assert residual_problems(config, rows, lambda _: spec) == []
    # a row that prints no cell's endpoints is still reported
    moved = rows[0][:1] + [repr(float(rows[0][1]) + 1e-3)] + rows[0][2:]
    assert residual_problems(config, [moved], lambda _: spec) == [
        f"residuals.csv row not re-derivable: {moved}"
    ]


def test_composition_cap_names_compositions_n_d_and_the_cap(tmp_path, capsys, monkeypatch):
    # the cap counts compositions before they merge into classes: C(22, 2)
    # = 231 compositions of n = 20 into 3 parts, merged into 21 classes
    monkeypatch.setattr(spectrum_module, "CLASS_CAP_DEFAULT", 230)
    argv = ["communication", "--p", "0.5,0.25,0.25", "--n-grid", "20"]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == (
        "error: 231 compositions of n = 20 into d = 3 parts exceed CLASS_CAP_DEFAULT = 230\n"
    )


def test_communication_past_exact_multiplicities_exits_3(tmp_path, capsys):
    # the message names the cap it passes, by the constant's name
    code = main(["communication", "--n-grid", "30000", "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "EXACT_MULT_MAX_N = 20000" in err and "n = 30000" in err
    # the composition limit counts compositions before they merge into
    # classes: C(113, 3) = 234,136 here, merged into 12,321 classes
    argv = ["communication", "--p", "0.4,0.3,0.2,0.1", "--n-grid", "110"]
    assert main(argv + ["--out", str(tmp_path / "o4")]) == 3
    err = capsys.readouterr().err
    assert "EXACT_MULT_MAX_CLASSES = 200000" in err and "n = 110" in err and "234136" in err
