"""Config parsing, command outputs, CLI exit codes, determinism."""

import csv
import filecmp
import json
import math
import os

import numpy as np
import pytest

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
    with_updates,
)
from entlab.lab.cli import main
from entlab.lab.commands import probe_budget
from entlab.spectrum import tensor_power_spectrum

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
    assert with_updates(cfg, seed=9).seed == 9


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


def test_cli_selftest_passes(tmp_path, capsys):
    code = main(["selftest", "--out", str(tmp_path / "st")])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 problems re-deriving" in out


def test_cli_selftest_exits_2_when_a_row_does_not_rederive(tmp_path, monkeypatch, capsys):
    import entlab.lab.spotcheck as spotcheck

    monkeypatch.setattr(spotcheck, "spot_check_outputs", lambda config: ["residuals.csv bad"])
    assert main(["selftest", "--out", str(tmp_path / "st")]) == 2
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


def test_communication_past_exact_multiplicities_exits_3(tmp_path, capsys):
    code = main(["communication", "--n-grid", "30000", "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "20000" in err and "n = 30000" in err
