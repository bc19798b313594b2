"""Significant-subspace dimension, proposition checkers, growth, dilution bounds."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entlab import (
    DegenerateSpectrumError,
    DensityMatrix,
    ValidationError,
    check_prop1,
    check_prop2,
    growth_fit,
    min_dilution_dimension,
    sig_dim,
    tensor_power_spectrum,
)
from entlab.sampling import random_density
from oracles import binomial_sig_dim

P_QUARTER = np.array([0.75, 0.25])
E_QUARTER = 0.8112781244591329
ALPHA_QUARTER = 0.6863088948351165


def test_sig_dim_hand_values():
    for d in range(2, 10):
        res = sig_dim(DensityMatrix(np.eye(d) / d), 0.5)
        assert res.exact_dim == math.ceil(d / 2)
        assert res.achieved_mass >= 0.5

    pure = DensityMatrix(np.diag([1.0, 0.0, 0.0]))
    for delta in (0.1, 0.5, 1.0):
        assert sig_dim(pure, delta).exact_dim == 1

    spiky = DensityMatrix(np.diag([9 / 16, 3 / 16, 3 / 16, 1 / 16]))
    res = sig_dim(spiky, 0.6)
    assert res.exact_dim == 2
    assert abs(res.achieved_mass - 0.75) < 1e-12


def test_sig_dim_zero_delta_convention():
    res = sig_dim(DensityMatrix(np.eye(3) / 3), 0.0)
    assert res.exact_dim == 0
    assert res.achieved_mass == 0.0


def test_sig_dim_rejects_bad_delta():
    rho = DensityMatrix(np.eye(2) / 2)
    with pytest.raises(ValidationError):
        sig_dim(rho, -0.1)
    with pytest.raises(ValidationError):
        sig_dim(rho, 1.1)


def test_sig_dim_on_class_spectrum_matches_integer_oracle():
    # small n: eigenvector-exact integer counts
    for n in (8, 40):
        spec = tensor_power_spectrum(P_QUARTER, n)
        for num, den in ((1, 2), (3, 4), (19, 20), (99, 100)):
            res = sig_dim(spec, num / den)
            want = binomial_sig_dim(num, den, n)
            assert res.exact_dim == want
            assert abs(res.log2_dim - math.log2(want)) < 1e-9


def test_sig_dim_large_n_is_honest_about_exactness():
    # one eigenvector of the 200th power weighs ~2^-162: float masses cannot
    # resolve single dimensions there, so the integer field must be withheld
    # while log2_dim still lands on the exact-arithmetic answer
    spec = tensor_power_spectrum(P_QUARTER, 200)
    for num, den in ((1, 2), (19, 20)):
        res = sig_dim(spec, num / den)
        assert res.exact_dim is None
        assert abs(res.log2_dim - math.log2(binomial_sig_dim(num, den, 200))) < 1e-9


def test_log_only_walker_matches_exact_walker():
    # beyond the exact-multiplicity limit sig_dim walks log2 multiplicities
    # only; on spectra small enough to have both, the two walks must land on
    # the same dimension and mass, and the log-only one must not publish an int
    for n in (8, 200, 4096, 20000):
        spec = tensor_power_spectrum(P_QUARTER, n)
        logs_only = dataclasses.replace(spec, exact_mults=None)
        for delta in (0.5, 0.95, 0.99, 0.999999):
            exact = sig_dim(spec, delta)
            approx = sig_dim(logs_only, delta)
            assert approx.exact_dim is None
            assert approx.achieved_mass == exact.achieved_mass, (n, delta)
            assert abs(approx.log2_dim - exact.log2_dim) <= 1e-12 * exact.log2_dim, (n, delta)


def test_sig_dim_dense_and_spectrum_agree():
    spec = tensor_power_spectrum(P_QUARTER, 4)
    probs = np.repeat(np.exp2(spec.log2_eigs), spec.exact_mults)
    dense = DensityMatrix(np.diag(probs))
    for delta in (0.3, 0.6, 0.9, 0.99):
        assert sig_dim(spec, delta).exact_dim == sig_dim(dense, delta).exact_dim


def test_prop1_hand_cases():
    rho = DensityMatrix(np.diag([0.5, 0.5]))
    res = check_prop1(rho, rho, 1.0)
    assert res.holds and res.hypothesis_ok
    assert res.rank_sigma == res.sig.exact_dim == 2

    sigma = DensityMatrix(np.diag([1.0, 0.0]))
    res = check_prop1(rho, sigma, 0.5)  # D = 1 = 2(1 - delta), boundary
    assert res.hypothesis_ok
    assert res.holds
    assert res.rank_sigma == 1 and res.sig.exact_dim == 1


def test_prop1_reports_violated_hypothesis():
    rho = DensityMatrix(np.diag([1.0, 0.0]))
    sigma = DensityMatrix(np.diag([0.0, 1.0]))
    res = check_prop1(rho, sigma, 0.9)  # D = 2 > 2(1 - 0.9)
    assert not res.hypothesis_ok


def test_prop2_hand_cases():
    pure = DensityMatrix(np.diag([1.0, 0.0]))
    res = check_prop2(pure, pure, 0.3, 0.3)
    assert res.holds and res.rhs == 0

    mixed = DensityMatrix(np.diag([0.5, 0.5]))
    res = check_prop2(mixed, mixed, 0.5, 0.5)
    assert res.holds
    assert res.lhs == 4 and res.mid == 3 and res.rhs == 0


def test_prop2_rejects_bad_deltas():
    rho = DensityMatrix(np.diag([0.5, 0.5]))
    with pytest.raises(ValidationError):
        check_prop2(rho, rho, 0.7, 0.7)  # sum past 1
    with pytest.raises(ValidationError):
        check_prop2(rho, rho, -0.1, 0.5)


def test_growth_fit_quarter_base_short_grid():
    fit = growth_fit((tensor_power_spectrum(P_QUARTER, n) for n in (64, 128, 256, 512)), 0.95)
    assert fit.fitted_coeff > ALPHA_QUARTER * 0.8
    assert len(fit.excess) == 4
    assert all(np.isfinite(fit.excess))
    # excess nondecreasing on this grid for delta well past 1/2
    assert all(x <= y + 1e-9 for x, y in zip(fit.excess, fit.excess[1:]))
    assert all(fit.floor_ok)


def test_growth_fit_median_coefficient_shrinks():
    fit = growth_fit((tensor_power_spectrum(P_QUARTER, n) for n in (256, 1024, 4096)), 0.5)
    # median excess is o(sqrt n): the fitted slope sits far below alpha
    assert abs(fit.fitted_coeff) < 0.25 * ALPHA_QUARTER


def test_growth_fit_reads_each_spectrum_once_and_refuses_bad_streams():
    grid = (64, 128, 256)
    seen = []

    def powers():
        for n in grid:
            seen.append(n)
            yield tensor_power_spectrum(P_QUARTER, n)

    fit = growth_fit(powers(), 0.95)
    assert seen == list(grid) and fit.n_grid == grid
    two = tensor_power_spectrum(P_QUARTER, 2)
    other = tensor_power_spectrum(np.array([0.6, 0.4]), 4)
    with pytest.raises(ValidationError, match="ascending"):
        growth_fit([tensor_power_spectrum(P_QUARTER, 4), two], 0.95)
    with pytest.raises(ValidationError, match="ascending"):
        growth_fit([two, two], 0.95)
    with pytest.raises(ValidationError, match="one base"):
        growth_fit([two, other], 0.95)
    with pytest.raises(ValidationError, match="at least one"):
        growth_fit([], 0.95)
    with pytest.raises(DegenerateSpectrumError):
        growth_fit([tensor_power_spectrum(np.array([0.5, 0.5]), 4)], 0.95)


def test_min_dilution_hand_case():
    res = min_dilution_dimension(tensor_power_spectrum(P_QUARTER, 2), 0.5)
    assert res.lower_exact == 2
    assert abs(res.lower_log2 - 1.0) < 1e-12
    assert res.upper_exact == 3
    assert abs(res.upper_log2 - math.log2(3.0)) < 1e-12
    assert abs(res.lower_delta - 0.75) < 1e-15
    assert abs(res.upper_delta - (1.0 - 0.25 / 4.0)) < 1e-15


def test_min_dilution_wide_epsilon_collapses():
    spec = tensor_power_spectrum(P_QUARTER, 4)
    res = min_dilution_dimension(spec, 1.999999)
    assert res.lower_log2 <= 1e-6
    with pytest.raises(ValidationError):
        min_dilution_dimension(spec, 2.0)
    with pytest.raises(ValidationError):
        min_dilution_dimension(spec, 0.0)


def test_min_dilution_ordering_random_instances():
    gen = np.random.default_rng(43)
    for _ in range(40):
        d = int(gen.integers(2, 5))
        raw = gen.dirichlet(np.ones(d))
        n = int(gen.integers(1, 7))
        eps = float(gen.uniform(0.05, 1.9))
        res = min_dilution_dimension(tensor_power_spectrum(raw, n), eps)
        assert res.lower_log2 <= res.upper_log2 + 1e-12


def test_min_dilution_upper_is_achievable():
    # the reported upper dimension truncates to within eps, one dim less does not
    spec = tensor_power_spectrum(P_QUARTER, 6)
    probs = np.repeat(np.exp2(spec.log2_eigs), spec.exact_mults)

    def trunc_err(k):
        top = probs[:k]
        f = float(np.sqrt(top * (top / top.sum())).sum())
        return 2.0 * math.sqrt(max(0.0, 1.0 - f * f))

    for eps in (0.2, 0.5, 1.0):
        res = min_dilution_dimension(spec, eps)
        k = res.upper_exact
        assert trunc_err(k) <= eps + 1e-12
        if k > 1:
            assert trunc_err(k - 1) > eps


@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_sig_dim_nondecreasing_in_delta(d, seed):
    gen = np.random.default_rng(seed)
    rho = random_density(gen, d)
    deltas = np.linspace(0.05, 1.0, 8)
    dims = [sig_dim(rho, float(t)).exact_dim for t in deltas]
    assert all(a <= b for a, b in zip(dims, dims[1:]))


@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_sig_dim_antitone_under_majorization(d, seed, t):
    # mixing toward uniform is majorization-decreasing, so S can only grow
    gen = np.random.default_rng(seed)
    q = np.sort(gen.dirichlet(np.ones(d)))[::-1]
    r = t * q + (1.0 - t) * np.full(d, 1.0 / d)
    for delta in (0.25, 0.5, 0.75, 0.95):
        sq = sig_dim(DensityMatrix(np.diag(q)), delta).exact_dim
        sr = sig_dim(DensityMatrix(np.diag(r)), delta).exact_dim
        assert sq <= sr  # q majorizes r, so q concentrates mass in fewer dims
