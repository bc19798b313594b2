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

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import norm

from entlab import ValidationError, berry_esseen_residual, min_dilution_dimension
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
from entlab.lab.cli import main
from entlab.lab import commands
from entlab.lab.commands import probe_budget, write_spectrum_json
from entlab.lab.config import _PARSERS
from entlab.lab.spotcheck import read_certificate, residual_problems
from entlab.locc import verify_theorem_chain
from entlab.spectrum import gaussian_quantile, tensor_power_spectrum
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
        "assert tensor_power_spectrum([0.75, 0.25], EXACT_MULT_MAX_N + 1).exact_mults is None"
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


def test_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _run_everything(tiny_config(a))
    _run_everything(tiny_config(b))
    ta, tb = _tree(a), _tree(b)
    assert ta.keys() == tb.keys()
    for rel in ta:
        assert filecmp.cmp(ta[rel], tb[rel], shallow=False), rel


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
            "e2a45440613699ce3599f38c9ecfb899c9e6d64e62b008db96d4d500dee5572d"
        ),
        "certificates/cert_n64.json": (
            "4c42f868ed2abc828d34c45167ffd9630ea1d8bad6e3e8af59a66d53a061c7b1"
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
            "96058b8ea6ef0e0cc187e3a99aa57a961566171ab63f55d390eee73b7f486d8c"
        ),
    },
    # n <= 8 at d = 3: every c* outcome is scored on its materialized weights
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
            "4944319dcdfdc9dc095a38f2260f4ca8df58a06ea89ad6d3e09f76762a4a2ca9"
        ),
        "certificates/cert_n3.json": (
            "59bca37b469a674456ea903bada3f2e5b959b7c910c1347ea535273c3a6bf180"
        ),
        "certificates/cert_n4.json": (
            "0c0c87df022f1c671675535af782869d3779b4224e84efd21bc49c35fc050e33"
        ),
        "certificates/cert_n5.json": (
            "b1d9be0718ccace7afb5e3f8bc4aef9f5eea56ef117ae7b448c8ebac876917c4"
        ),
        "certificates/cert_n6.json": (
            "9561dc4704af5bd1f4e8215e4dadc30e87aab9da58b56a6644f58104b59207c2"
        ),
        "certificates/cert_n8.json": (
            "4ba76cd7d50cb36aec4f34482705bb295c2e96e4b07871b7f5ccaaac2491ab35"
        ),
    },
    # n <= 9 at d = 2: every c* outcome is scored on its materialized weights
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
            "e09582cab903f38661299d0ceba679181d4334d4f3c946a749853ae8c535d5b1"
        ),
        "certificates/cert_n3.json": (
            "81863426b317d8ce5c90de3902761d4f4dc8aabd8c4ce87bdd059f08cc5e1690"
        ),
        "certificates/cert_n5.json": (
            "21609e33438383c2f8c10fd141850646a5cfada74ee95f7dd6e187802f853a4e"
        ),
        "certificates/cert_n6.json": (
            "97ee99d9ee988b9f0546d04d8592761664bdac6ba633849a82ecad874c8e861b"
        ),
        "certificates/cert_n9.json": (
            "5687c9cbba53dcc4bec286d82386447c0d2d8d373cd69031ed5f5dd4db7b8a3f"
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
    assert (spec.exact_mults is not None) == exact
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
    problems = spot_check_outputs(config)
    for name in ("residuals.csv", "inefficiency.csv", "communication.csv", "concentration.csv"):
        assert any(msg.startswith(name) for msg in problems), name


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


def test_theorem_chain_bound_past_the_double_range_is_inf_without_a_warning():
    # at n = 17500 with every class kept, log2 of the bound n1 * ||x|| is
    # past 1024: the bound is inf, written as null, and exp2 is not asked
    spec = tensor_power_spectrum(P_QUARTER, 17500)
    _, _, outcomes, report = probe_budget(spec, 10**6, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = verify_theorem_chain(next(o for o in outcomes if o.good), spec, report)
    assert cert.consistent and cert.trpi_x_bound_ok
    assert cert.trpi_x_bound == math.inf
    assert cert.to_doc()["trpi_x_bound"] is None


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


def test_communication_past_exact_multiplicities_exits_3(tmp_path, capsys):
    code = main(["communication", "--n-grid", "30000", "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "20000" in err and "n = 30000" in err
    # the composition limit counts compositions before they merge into
    # classes: C(113, 3) = 234,136 here, merged into 12,321 classes
    argv = ["communication", "--p", "0.4,0.3,0.2,0.1", "--n-grid", "110"]
    assert main(argv + ["--out", str(tmp_path / "o4")]) == 3
    err = capsys.readouterr().err
    assert "200000" in err and "n = 110" in err and "234136" in err
