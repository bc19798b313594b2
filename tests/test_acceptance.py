"""Top-level acceptance checks, one marked test per shipped guarantee.

Each criterion-marked test contributes one line to the summary table the
conftest hook prints. Three of the ten are strict xfails: the plain
25 beta/sqrt(n) residual envelope, the fixed concentration-deficit band,
and the linear near-product distance bound are all violated by honest
arithmetic on seeded instances. Each xfail sits next to an unmarked
companion that pins the corrected statement and freezes the measured
counterexample so the failure stays reproducible, not mysterious.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    completeness_defect,
    diagonal_kraus_dense,
    enumerate_product_masses,
    exact_bounds_and_counts,
)
from samplers import random_density, random_near_product, random_spectrum

from entlab.lab.commands import find_min_budget, residual_grid
from entlab.locc.ir import (
    compare_ensembles,
    group_by_message,
    random_toy_ir,
    simulate_dense,
)
from entlab.locc.protocols import build_shift_dilution
from entlab.locc.runner import concentrate, run_protocol, verify_theorem_chain
from entlab.locc.standard import run_standard_form, standardize
from entlab.qmath import (
    DensityMatrix,
    PureBipartiteState,
    fidelity,
    nearest_product_extension,
    trace_distance,
)
from entlab.sampling import random_pure
from entlab.sigsub import (
    check_prop1,
    check_prop2,
    growth_fit,
    min_dilution_dimension,
)
from entlab.spectrum import berry_esseen_grid, spectrum_stats, tensor_power_spectrum

P_QUARTER = np.array([0.75, 0.25])
QUARTER_FRACS = (Fraction(3, 4), Fraction(1, 4))

# Phi^{-1}(0.95) * alpha for the (3/4, 1/4) base, to 16 digits
QUANTILE_COEFF = 1.1288776748785982


@pytest.mark.criterion(1, "class spectrum matches exhaustive enumeration")
def test_class_spectrum_equals_brute_force_for_all_small_n():
    for n in range(1, 15):
        spec = tensor_power_spectrum(P_QUARTER, n)
        table = enumerate_product_masses(QUARTER_FRACS, n)
        values = sorted(table, reverse=True)
        assert len(values) == spec.log2_eigs.size
        counts = exact_bounds_and_counts(spec)[1]
        for i, v in enumerate(values):
            cnt, mass = table[v]
            assert counts[i] == cnt
            assert abs(spec.log2_eigs[i] - math.log2(v)) < 1e-12
            assert abs(spec.log2_masses[i] - math.log2(mass)) < 1e-12


@pytest.fixture(scope="module")
def residual_scan():
    """One pass over the 3 x 4 x 50 x 50 residual grid.

    Records, per (p1, n), the worst residual-to-bound ratio for the plain
    25 beta/sqrt(n) envelope and for the third-moment normalized envelope
    25 (beta/alpha^3)/sqrt(n), so both bound tests share a single scan.
    """
    out = {}
    for p1 in (0.6, 0.75, 0.9):
        base = np.array([p1, 1.0 - p1])
        st = spectrum_stats(base)
        norm_scale = st.alpha**3
        for n in (100, 400, 1600, 6400):
            spec = tensor_power_spectrum(base, n)
            table = berry_esseen_grid(spec, *residual_grid(50))
            ratios = table.residual / table.bound
            worst_plain = float(ratios.max())
            worst_norm = float((ratios * norm_scale).max())
            out[(p1, n)] = (worst_plain, worst_norm)
    return out


@pytest.mark.criterion(2, "residual under 25 beta/sqrt(n) on the full grid")
@pytest.mark.xfail(
    strict=True,
    reason="the plain envelope omits the 1/alpha^3 moment normalization; "
    "five near-central cells at p1=0.6, n=100 exceed it, worst by 22%",
)
def test_residual_under_plain_envelope_everywhere(residual_scan):
    offenders = {key: r for key, (r, _) in residual_scan.items() if r >= 1.0}
    assert not offenders


def test_residual_under_normalized_envelope_everywhere(residual_scan):
    worst = max(r for _, r in residual_scan.values())
    assert worst < 1.0  # tightest cell still has ~34x headroom
    # away from p1 = 0.6 the plain envelope holds too (worst ratios 0.066, 0.022)
    for p1 in (0.75, 0.9):
        for n in (100, 400, 1600, 6400):
            assert residual_scan[(p1, n)][0] < 1.0, (p1, n)
    # freeze the counterexample the plain-envelope xfail rests on
    assert residual_scan[(0.6, 100)][0] == pytest.approx(1.22498107687, abs=1e-6)


@pytest.mark.criterion(3, "rank and tensor dimension bounds, randomized")
def test_dimension_bounds_hold_on_seeded_instances():
    # mix toward a low-rank sigma so the rank bound actually bites, then
    # pick delta inside the distance hypothesis so no case is vacuous
    gen = np.random.default_rng(1001)
    for _ in range(1000):
        d = int(gen.integers(2, 13))
        r = int(gen.integers(1, d + 1))
        sigma = random_density(gen, d, r)
        t = float(gen.uniform(0.0, 0.35))
        mix = (1.0 - t) * sigma.mat + t * random_density(gen, d).mat
        rho = DensityMatrix(mix / np.trace(mix).real)
        dist = trace_distance(rho, sigma)
        delta = float(gen.uniform(0.05, 1.0)) * (1.0 - dist / 2.0)
        res = check_prop1(rho, sigma, delta)
        assert res.hypothesis_ok
        assert res.holds

    gen = np.random.default_rng(1002)
    for i in range(1000):
        da, db = int(gen.integers(2, 9)), int(gen.integers(2, 9))
        a = random_density(gen, da) if i % 2 else gen.dirichlet(np.ones(da))
        b = random_density(gen, db) if i % 3 else gen.dirichlet(np.ones(db))
        delta_a = float(gen.uniform(0.0, 1.0))
        delta_b = float(gen.uniform(0.0, 1.0 - delta_a))
        assert check_prop2(a, b, delta_a, delta_b).holds


@pytest.mark.criterion(4, "sqrt(n) growth coefficient of the 0.95-subspace")
def test_growth_coefficient_matches_gaussian_quantile():
    grid = (100, 178, 316, 562, 1000, 1778, 3162, 5623, 10000)
    fit = growth_fit((tensor_power_spectrum(P_QUARTER, n) for n in grid), 0.95)
    assert abs(fit.fitted_coeff / QUANTILE_COEFF - 1.0) <= 0.10
    # strictly above alpha: the quantile factor 1.645 is visible in the data
    assert fit.fitted_coeff > spectrum_stats(P_QUARTER).alpha
    assert math.isfinite(fit.fitted_const)
    assert all(fit.floor_ok)


@pytest.mark.criterion(5, "standardization preserves message ensembles")
def test_standardization_battery_two_hundred_programs():
    gen = np.random.default_rng(505)
    worst_tv = 0.0
    for _ in range(200):
        ir = random_toy_ir(gen, max_dim=4, rounds=3)
        amp = random_pure(gen, ir.dim_a * ir.dim_b).reshape(ir.dim_a, ir.dim_b)
        st = PureBipartiteState(ir.dim_a, ir.dim_b, amp)
        sf = standardize(ir, st)
        assert sf.message_bits == ir.message_bits()
        tv, _ = compare_ensembles(
            run_standard_form(sf, st), group_by_message(simulate_dense(ir, st))
        )
        worst_tv = max(worst_tv, tv)
    assert worst_tv <= 1e-9


@pytest.mark.criterion(6, "shift dilution exact with ceil(log2 d) bits")
def test_shift_dilution_exact_for_every_dim_to_64():
    gen = np.random.default_rng(600)
    for d in range(2, 65):
        q = random_spectrum(gen, d)
        proto = build_shift_dilution(q)
        dense = [diagonal_kraus_dense(w, perm) for w, perm in proto.kraus_ops()]
        assert completeness_defect(dense, d) <= 1e-10
        outcomes, report = run_protocol(proto, q)
        assert report.epsilon <= 1e-12
        assert report.s == 0.0
        assert report.c == (d - 1).bit_length() == math.ceil(math.log2(d))
        assert len(outcomes) == d


@pytest.mark.criterion(7, "minimal message budget scales like sqrt(n)")
def test_minimal_budget_quadrupling_ratio_and_certificates(quarter_spectra):
    found = {}
    for n, spec in sorted(quarter_spectra.items()):
        c_star, outcomes, report = find_min_budget(spec, n, 0.1)
        assert report.epsilon <= 0.1
        cert = verify_theorem_chain(outcomes[0], spec, report)
        assert cert.consistent
        found[n] = c_star
    assert found == {64: 30, 256: 63, 1024: 129, 4096: 264}
    for n in (64, 256, 1024):
        assert 1.6 <= found[4 * n] / found[n] <= 2.4


@pytest.mark.criterion(8, "dilution lower bound exceeds nE by a sqrt term")
def test_dilution_lower_bound_overhead_grows(quarter_spectra):
    st = spectrum_stats(P_QUARTER)
    excess = []
    for n in (256, 1024, 4096):
        res = min_dilution_dimension(quarter_spectra[n], 0.01)
        assert res.upper_log2 >= res.lower_log2
        excess.append((res.lower_log2 - n * st.entropy) / math.sqrt(n))
    assert all(v > 0.0 for v in excess)
    for prev, nxt in zip(excess, excess[1:]):
        assert nxt >= 0.95 * prev


@pytest.mark.criterion(9, "concentration deficit in fixed sqrt(n) band")
@pytest.mark.xfail(
    strict=True,
    reason="the deficit is (1/2) log2(n) + O(1): divided by sqrt(n) it is "
    "not bounded below and drifts under the band floor at n=4096",
)
def test_concentration_deficit_stays_in_band(quarter_spectra):
    st = spectrum_stats(P_QUARTER)
    lo, hi = 0.2 * st.alpha, 0.6 * st.alpha
    for n in (256, 1024, 4096):
        res = concentrate(quarter_spectra[n])
        scaled = (n * st.entropy - res.expected_yield) / math.sqrt(n)
        assert lo <= scaled <= hi


def test_concentration_deficit_is_logarithmic(quarter_spectra):
    """What the deficit actually does: stays positive and gains one bit
    per quadrupling of n, the signature of (1/2) log2(n) + O(1)."""
    st = spectrum_stats(P_QUARTER)
    deficits = []
    for n in (256, 1024, 4096):
        res = concentrate(quarter_spectra[n])
        deficits.append(n * st.entropy - res.expected_yield)
    assert all(d > 0.0 for d in deficits)
    for prev, nxt in zip(deficits, deficits[1:]):
        assert 0.8 <= nxt - prev <= 1.2


@pytest.fixture(scope="module")
def near_product_extensions():
    gen = np.random.default_rng(41)
    exts = []
    for _ in range(1000):
        da, db = int(gen.integers(2, 7)), int(gen.integers(2, 7))
        t = float(gen.uniform(0.0, 0.6))
        psi, phi = random_near_product(gen, da, db, t)
        exts.append(nearest_product_extension(psi, phi))
    return exts


def _fvdg_violations():
    gen = np.random.default_rng(42)
    bad = 0
    for _ in range(1000):
        d = int(gen.integers(2, 9))
        rho, sigma = random_density(gen, d), random_density(gen, d)
        if 1.0 - fidelity(rho, sigma) > 0.5 * trace_distance(rho, sigma) + 1e-9:
            bad += 1
    return bad


@pytest.mark.criterion(10, "near-product distance and fidelity bounds")
@pytest.mark.xfail(
    strict=True,
    reason="D < 2 eps is false as stated: 256 of 1000 seeded instances "
    "exceed it; the envelope that holds is 2 sqrt(eps - eps^2/4)",
)
def test_linear_extension_bound_and_fvdg_suites(near_product_extensions):
    assert _fvdg_violations() == 0
    assert sum(not e.holds_linear for e in near_product_extensions) == 0


def test_sqrt_extension_bound_and_fvdg_suites(near_product_extensions):
    assert sum(not e.holds_sqrt for e in near_product_extensions) == 0
    assert _fvdg_violations() == 0
    # the linear form fails reproducibly and by a wide margin, not by noise
    bad = [e for e in near_product_extensions if not e.holds_linear]
    assert len(bad) == 256
    assert max(e.distance - e.bound_linear for e in bad) > 0.2
