"""Self-test battery and CSV re-derivation harness.

`run_selftest` exercises every module against hand values and randomized
oracles, then regenerates a reduced output set and re-derives sampled CSV
rows through the underlying operations.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile

import numpy as np

from ..locc import (
    DiagonalKraus,
    StandardFormProtocol,
    build_block_dilution,
    build_shift_dilution,
    compare_ensembles,
    concentrate,
    group_by_message,
    lift_success_probability,
    random_toy_ir,
    run_protocol,
    run_protocol_dense,
    simulate_dense,
    standardize,
    run_standard_form,
)
from ..qmath import PureBipartiteState
from ..sampling import random_density, random_pure
from ..sigsub import check_prop1, check_prop2, min_dilution_dimension, sig_dim
from ..spectrum import BaseSpectrum, berry_esseen_residual, mu, tensor_power_spectrum
from .commands import (
    cmd_communication,
    cmd_concentration,
    cmd_inefficiency,
    cmd_spectrum,
    dilution_dim,
    find_min_budget,
)
from .config import ExperimentConfig, with_updates


def brute_force_log2_spectrum(p, n: int) -> np.ndarray:
    """All d^n product eigenvalues of the n-fold power, log2, descending."""
    logs = np.log2(np.asarray(p, dtype=float))
    acc = np.zeros(1)
    for _ in range(n):
        acc = (acc[:, None] + logs[None, :]).reshape(-1)
    return np.sort(acc)[::-1]


def _expand_class_log2(spec) -> np.ndarray:
    parts = [np.full(int(c), e) for c, e in zip(spec.exact_mults, spec.log2_eigs)]
    return np.concatenate(parts)


def _approx(a: float, b: float, tol: float = 1e-9) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _check_spectrum_oracle(rng) -> list:
    bad = []
    p = np.array([0.75, 0.25])
    for n in (1, 3, 5, 8):
        spec = tensor_power_spectrum(p, n)
        got = _expand_class_log2(spec)
        want = brute_force_log2_spectrum(p, n)
        if got.size != want.size or np.abs(got - want).max() > 1e-12:
            bad.append(f"spectrum oracle mismatch at n={n}")
    spec2 = tensor_power_spectrum(p, 2)
    if abs(mu(spec2, -3.0, -1.0) - 0.375) > 1e-12:
        bad.append("interval mass hand case n=2 failed")
    return bad


def _check_berry_esseen() -> list:
    p = np.array([0.75, 0.25])
    n = 100
    spec = tensor_power_spectrum(p, n)
    from ..spectrum import spectrum_stats

    st = spectrum_stats(BaseSpectrum(p))
    scale = st.alpha * math.sqrt(n)
    for x1 in np.linspace(-3.0, 3.0, 7):
        for w in np.linspace(0.0, 6.0, 7):
            a = x1 * scale - n * st.entropy
            b = (x1 + w) * scale - n * st.entropy
            res = berry_esseen_residual(p, n, a, b, spectrum=spec)
            if not res.passed:
                return [f"residual {res.residual} exceeds bound {res.bound} at ({a},{b})"]
    return []


def _check_props(rng) -> list:
    bad = []
    for trial in range(60):
        dim = int(rng.integers(2, 9))
        rho = random_density(rng, dim)
        sigma = random_density(rng, dim, rank=int(rng.integers(1, dim + 1)))
        delta = float(rng.uniform(0.05, 0.95))
        r1 = check_prop1(rho, sigma, delta)
        if not r1.holds:
            bad.append(f"prop1 violated at trial {trial}")
    for trial in range(60):
        da = int(rng.integers(2, 7))
        db = int(rng.integers(2, 7))
        a = rng.dirichlet(np.ones(da))
        b = rng.dirichlet(np.ones(db))
        deltas = rng.uniform(0.05, 0.45, size=2)
        r2 = check_prop2(a, b, float(deltas[0]), float(deltas[1]))
        if not r2.holds:
            bad.append(f"prop2 violated at trial {trial}")
    return bad


def _check_shift(rng) -> list:
    bad = []
    for d in (2, 5, 16):
        q = np.sort(rng.random(d) + 0.05)[::-1]
        q = q / q.sum()
        proto = build_shift_dilution(q)
        mats = [op.matrix() for op in proto.alice_ops]
        comp = sum(m.conj().T @ m for m in mats)
        if np.abs(comp - np.eye(d)).max() > 1e-10:
            bad.append(f"shift completeness failed at d={d}")
        _, rep = run_protocol(proto, d, q)
        if rep.epsilon > 1e-12 or rep.s != 0.0 or rep.c != (d - 1).bit_length():
            bad.append(f"shift run wrong at d={d}: eps={rep.epsilon} s={rep.s} c={rep.c}")
    return bad


def _check_block() -> list:
    bad = []
    spec = tensor_power_spectrum(np.array([0.75, 0.25]), 2)
    target = np.array([9.0, 3.0, 3.0, 1.0]) / 16.0
    proto, terr = build_block_dilution(spec, 1, eps_target=0.8)
    want = 2.0 * math.sqrt(
        1.0 - ((math.sqrt(54) + math.sqrt(18) + math.sqrt(6) + math.sqrt(2)) / 16.0) ** 2
    )
    if abs(terr - want) > 1e-12:
        bad.append(f"block target error {terr} != {want}")
    o, rep = run_protocol(proto, 4, target)
    od, repd = run_protocol_dense(proto, 4, target)
    if abs(rep.epsilon - want) > 1e-9:
        bad.append(f"block run epsilon {rep.epsilon}")
    for a, b in zip(o, od):
        if abs(a.prob - b.prob) > 1e-10 or abs(a.error - b.error) > 1e-9:
            bad.append("block fast path disagrees with dense")
            break
    return bad


def _check_standardize(rng) -> list:
    bad = []
    for trial in range(15):
        ir = random_toy_ir(rng, max_dim=4, rounds=3)
        amp = random_pure(rng, ir.dim_a * ir.dim_b).reshape(ir.dim_a, ir.dim_b)
        st = PureBipartiteState(ir.dim_a, ir.dim_b, amp)
        sf = standardize(ir, st)
        if sf.message_bits != ir.message_bits():
            bad.append(f"message bits changed at trial {trial}")
            continue
        tv, worst = compare_ensembles(
            run_standard_form(sf, st), group_by_message(simulate_dense(ir, st))
        )
        if tv > 1e-9 or worst > 1e-9:
            bad.append(f"standardize ensemble drift tv={tv} D={worst} at trial {trial}")
    return bad


def _check_aggregates() -> list:
    bad = []
    res = concentrate(np.array([0.75, 0.25]), 2)
    if abs(res.expected_yield - 6.0 / 16.0) > 1e-12:
        bad.append(f"concentrate n=2 yield {res.expected_yield}")
    q = np.array([0.75, 0.25])
    w0 = q / 4.0
    ops = (
        DiagonalKraus(w0, np.array([0, 1])),
        DiagonalKraus(np.array([1.0 - w0[0], 0.0]), np.array([0, 1])),
        DiagonalKraus(np.array([0.0, 1.0 - w0[1]]), np.array([0, 1])),
    )
    proto = StandardFormProtocol(dim_a=2, dim_b=2, alice_ops=ops, message_bits=2)
    _, rep = run_protocol(proto, 2, q)
    lifted = lift_success_probability(rep, 0.01)
    if rep.s != 3.0 or lifted.repetitions != 37 or lifted.c != rep.c + 6:
        bad.append(f"lift arithmetic wrong: s={rep.s} R={lifted.repetitions}")
    md = min_dilution_dimension(np.array([0.75, 0.25]), 2, 0.5)
    if md.lower_exact != 2 or abs(md.upper_log2 - math.log2(3)) > 1e-12:
        bad.append(f"dilution window wrong: {md}")
    return bad


def _read_csv(path: str) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _sample(rows: list, k: int = 8) -> list:
    step = max(1, len(rows) // k)
    return rows[::step]


def spot_check_outputs(config: ExperimentConfig) -> list:
    """Re-derive sampled rows of every CSV in config.out via module calls."""
    bad = []
    base = BaseSpectrum(np.asarray(config.p, dtype=float))
    from ..spectrum import spectrum_stats

    st = spectrum_stats(base)
    specs = {}

    def spec_of(n):
        if n not in specs:
            specs[n] = tensor_power_spectrum(base, n)
        return specs[n]

    path = os.path.join(config.out, "residuals.csv")
    _, rows = _read_csv(path)
    for row in _sample(rows):
        n, a, b = int(row[0]), float(row[1]), float(row[2])
        res = berry_esseen_residual(base, n, a, b, spectrum=spec_of(n))
        if not (
            _approx(res.residual, float(row[3]))
            and _approx(res.bound, float(row[4]))
            and (row[5] == "true") == res.passed
        ):
            bad.append(f"residuals.csv row not re-derivable: {row}")

    path = os.path.join(config.out, "inefficiency.csv")
    _, rows = _read_csv(path)
    for row in _sample(rows):
        n = int(row[0])
        md = min_dilution_dimension(base, n, config.eps_reference, spectrum=spec_of(n))
        if not (_approx(md.lower_log2, float(row[2])) and _approx(md.upper_log2, float(row[3]))):
            bad.append(f"inefficiency.csv row not re-derivable: {row}")

    path = os.path.join(config.out, "communication.csv")
    _, rows = _read_csv(path)
    for row in _sample(rows, k=4):
        n, c_star = int(row[0]), int(row[1])
        spec = spec_of(n)
        proto, _ = build_block_dilution(spec, c_star, eps_target=config.epsilon)
        _, rep = run_protocol(proto, dilution_dim(proto), spec, n=n)
        ok = rep.success and rep.epsilon <= config.epsilon
        if ok and c_star > 0:
            proto2, _ = build_block_dilution(spec, c_star - 1, eps_target=config.epsilon)
            _, rep2 = run_protocol(proto2, dilution_dim(proto2), spec, n=n)
            ok = not (rep2.success and rep2.epsilon <= config.epsilon)
        if not (ok and _approx(st.alpha * math.sqrt(n), float(row[2]))):
            bad.append(f"communication.csv row not minimal or wrong: {row}")
        cert_path = os.path.join(config.out, "certificates", f"cert_n{n}.json")
        with open(cert_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc["c_star"] != c_star or not doc["consistent"]:
            bad.append(f"certificate at n={n} inconsistent with table")

    path = os.path.join(config.out, "concentration.csv")
    _, rows = _read_csv(path)
    for row in _sample(rows):
        n = int(row[0])
        res = concentrate(base, n, spectrum=spec_of(n))
        if not (
            _approx(res.expected_yield, float(row[2])) and _approx(res.deficit, float(row[3]))
        ):
            bad.append(f"concentration.csv row not re-derivable: {row}")
    return bad


def _check_outputs(config: ExperimentConfig) -> list:
    with tempfile.TemporaryDirectory(prefix="entlab-selftest-") as tmp:
        reduced = with_updates(
            config,
            n_grid=(8, 32, 64),
            grid_cells=6,
            out=tmp,
            budget_grid=(),
        )
        cmd_spectrum(reduced)
        cmd_inefficiency(reduced)
        cmd_communication(reduced)
        cmd_concentration(reduced)
        return spot_check_outputs(reduced)


_CHECKS = (
    ("spectrum vs brute force", lambda rng, cfg: _check_spectrum_oracle(rng)),
    ("gaussian surrogate residuals", lambda rng, cfg: _check_berry_esseen()),
    ("subspace propositions", lambda rng, cfg: _check_props(rng)),
    ("exact shift dilution", lambda rng, cfg: _check_shift(rng)),
    ("block dilution hand case", lambda rng, cfg: _check_block()),
    ("standardize vs dense oracle", lambda rng, cfg: _check_standardize(rng)),
    ("concentrate / lift / window", lambda rng, cfg: _check_aggregates()),
    ("csv rows re-derivable", lambda rng, cfg: _check_outputs(cfg)),
)


def run_selftest(config: ExperimentConfig) -> int:
    """Run every check; print one line each; return the failure count."""
    rng = np.random.default_rng(config.seed)
    failures = 0
    for name, fn in _CHECKS:
        problems = fn(rng, config)
        if problems:
            failures += 1
            print(f"FAIL {name}")
            for msg in problems[:4]:
                print(f"     {msg}")
        else:
            print(f"ok   {name}")
    print(f"{len(_CHECKS) - failures}/{len(_CHECKS)} checks passed")
    return failures
