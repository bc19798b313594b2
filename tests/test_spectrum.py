"""Tensor-power class spectrum checks against exact rational oracles."""

import dataclasses
import gc
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entlab import (
    BaseSpectrum,
    DegenerateSpectrumError,
    ValidationError,
    berry_esseen_residual,
    gaussian_cdf,
    mu,
    spectrum_stats,
    tensor_power_spectrum,
)
from entlab.lab.commands import find_min_budget
from entlab.locc import verify_theorem_chain
from entlab.sigsub import sig_dim
from entlab.spectrum import SortedSpectrumView
from oracles import enumerate_product_masses, norm_cdf

P_QUARTER = np.array([0.75, 0.25])

# frozen against a 50-digit rational computation of the (3/4, 1/4) base
E_QUARTER = 0.8112781244591329
ALPHA_QUARTER = 0.6863088948351165
BETA_QUARTER = 0.4665930482588705


def test_stats_frozen_values():
    st_ = spectrum_stats(P_QUARTER)
    assert abs(st_.entropy - E_QUARTER) < 1e-12
    assert abs(st_.alpha - ALPHA_QUARTER) < 1e-12
    assert abs(st_.beta - BETA_QUARTER) < 1e-12
    assert not st_.degenerate


def test_stats_uniform_is_degenerate():
    st_ = spectrum_stats(np.array([0.25, 0.25, 0.25, 0.25]))
    assert st_.degenerate
    assert abs(st_.entropy - 2.0) < 1e-12
    assert st_.alpha < 1e-12


def test_spectrum_stats_are_built_once_and_equal_the_base_stats():
    for p, n in ((P_QUARTER, 64), (np.array([0.2, 0.5, 0.3]), 9)):
        spec = tensor_power_spectrum(p, n)
        assert spec.stats is spec.stats
        want = spectrum_stats(BaseSpectrum(p))
        for field in dataclasses.fields(want):
            got, exp = getattr(spec.stats, field.name), getattr(want, field.name)
            assert type(got) is type(exp), field.name
            assert np.array(got).tobytes() == np.array(exp).tobytes(), field.name


def test_base_spectrum_validation():
    with pytest.raises(ValidationError):
        BaseSpectrum(np.array([0.9, 0.2]))
    with pytest.raises(ValidationError):
        BaseSpectrum(np.array([1.2, -0.2]))


def _assert_matches_brute_force(p_fracs, n, spec):
    """Every class must agree with exact enumeration: eigenvalue,
    multiplicity, and mass, all compared in log domain at 1e-12."""
    table = enumerate_product_masses(p_fracs, n)
    values = sorted(table, reverse=True)
    assert len(values) == spec.log2_eigs.size
    assert spec.exact_mults is not None
    for i, v in enumerate(values):
        cnt, mass = table[v]
        assert spec.exact_mults[i] == cnt
        assert abs(spec.log2_eigs[i] - math.log2(v)) < 1e-12
        assert abs(spec.log2_masses[i] - math.log2(mass)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 4, 9])
def test_quarter_spectrum_matches_enumeration(n):
    spec = tensor_power_spectrum(P_QUARTER, n)
    _assert_matches_brute_force((Fraction(3, 4), Fraction(1, 4)), n, spec)


@pytest.mark.parametrize("n", [2, 5])
def test_colliding_three_level_spectrum_matches_enumeration(n):
    # (1/2)(1/3) = (1/6): distinct compositions share eigenvalues, so the
    # class table must merge them exactly the way raw enumeration does
    p = np.array([1 / 2, 1 / 3, 1 / 6])
    spec = tensor_power_spectrum(p, n)
    _assert_matches_brute_force((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)), n, spec)


def test_spectrum_mass_normalization_large_n():
    spec = tensor_power_spectrum(P_QUARTER, 200)
    total = float(np.exp2(np.logaddexp2.reduce(spec.log2_masses)))
    assert abs(total - 1.0) < 1e-9


def test_mu_hand_value():
    spec = tensor_power_spectrum(P_QUARTER, 2)
    # classes: 9/16 at -0.83, 3/16 twice at -2.415, 1/16 at -4
    assert abs(mu(spec, -3.0, -1.0) - 0.375) < 1e-12
    assert abs(mu(spec, -5.0, 0.0) - 1.0) < 1e-12
    assert mu(spec, -0.5, 0.0) == 0.0


def test_mu_matches_enumeration_on_random_windows():
    spec = tensor_power_spectrum(P_QUARTER, 6)
    table = enumerate_product_masses((Fraction(3, 4), Fraction(1, 4)), 6)
    gen = np.random.default_rng(37)
    for _ in range(200):
        a = float(gen.uniform(-8.0, 0.0))
        b = a + float(gen.uniform(0.0, 8.0))
        want = float(sum(m for v, (_, m) in table.items() if a <= math.log2(v) <= b))
        assert abs(mu(spec, a, b) - want) < 1e-10


def test_gaussian_cdf_values():
    assert abs(gaussian_cdf(-1.0, 1.0) - 0.6826894921370859) < 1e-12
    assert abs(gaussian_cdf(-40.0, 40.0) - 1.0) < 1e-15
    assert abs(gaussian_cdf(-2.0, 0.0) - gaussian_cdf(0.0, 2.0)) < 1e-15
    assert gaussian_cdf(1.0, 1.0) == 0.0


def test_berry_esseen_result_is_self_consistent():
    spec = tensor_power_spectrum(P_QUARTER, 64)
    st_ = spectrum_stats(P_QUARTER)
    sq = st_.alpha * 8.0
    a = -1.3 * sq - 64 * st_.entropy
    b = a + 2.2 * sq
    res = berry_esseen_residual(spec, a, b)
    assert abs(res.mu_value - mu(spec, a, b)) < 1e-15
    gauss = norm_cdf((b + 64 * st_.entropy) / sq) - norm_cdf((a + 64 * st_.entropy) / sq)
    assert abs(res.gauss_value - gauss) < 1e-12
    assert abs(res.residual - abs(res.mu_value - res.gauss_value)) < 1e-15
    assert abs(res.bound - 25.0 * st_.beta / 8.0) < 1e-12
    assert res.passed == (res.residual < res.bound)


def test_berry_esseen_known_violation_is_reported():
    """At base (0.6, 0.4), n=100, the cell with standardized left edge
    -20/49 and width 40/49 exceeds the 25 beta/sqrt(n) envelope by 22%.
    The checker must report that honestly instead of clipping it."""
    p = np.array([0.6, 0.4])
    st_ = spectrum_stats(p)
    sq = st_.alpha * 10.0
    a = (-20.0 / 49.0) * sq - 100 * st_.entropy
    b = a + (40.0 / 49.0) * sq
    res = berry_esseen_residual(tensor_power_spectrum(p, 100), a, b)
    assert abs(res.residual - 0.07650116571535531) < 1e-9
    assert abs(res.bound - 0.06245089590346274) < 1e-12
    assert not res.passed


def test_sorted_view_position_calculus():
    spec = tensor_power_spectrum(P_QUARTER, 8)
    view = SortedSpectrumView(spec)
    assert view.total_dim == 2**8
    # count at a threshold between the second and third class values
    thr = float(spec.log2_eigs[1] + spec.log2_eigs[2]) / 2.0
    want = int(spec.exact_mults[0] + spec.exact_mults[1])
    assert view.count_eigs_at_least(thr) == want
    runs = list(view.runs(0, 10))
    assert sum(c for c, _ in runs) == 10
    assert runs[0] == (1, spec.log2_eigs[0])


def test_one_view_serves_search_certificate_and_sig_dim(monkeypatch):
    built = []
    init = SortedSpectrumView.__init__

    def counting_init(self, spec):
        built.append(spec.n)
        init(self, spec)

    monkeypatch.setattr(SortedSpectrumView, "__init__", counting_init)
    spec = tensor_power_spectrum(P_QUARTER, 1024)
    c_star, outcomes, report = find_min_budget(spec, 1024, 0.1)
    cert = verify_theorem_chain(outcomes[0], spec, report)
    assert cert.consistent and c_star == 129
    sig_dim(spec, 0.95)
    sig_dim(spec, 0.95)
    assert built == [1024]
    assert spec.view is spec.view
    # the direct constructor still builds a separate, equivalent view
    direct = SortedSpectrumView(spec)
    assert direct is not spec.view and direct.total_dim == spec.view.total_dim
    assert direct.sig_dim(0.95) == spec.view.sig_dim(0.95)


def test_view_is_freed_with_its_spectrum_without_the_cycle_collector():
    gc.disable()
    try:
        spec = tensor_power_spectrum(P_QUARTER, 256)
        view = weakref.ref(spec.view)
        result = find_min_budget(spec, 256, 0.1)
        assert view() is not None
        del spec
        # the search result holds neither the spectrum nor its view
        assert view() is None
        assert result[0] == 63
    finally:
        gc.enable()


@st.composite
def small_bases(draw):
    d = draw(st.integers(min_value=2, max_value=4))
    raw = draw(
        st.lists(
            st.integers(min_value=1, max_value=12), min_size=d, max_size=d
        )
    )
    return np.array(raw, dtype=float) / sum(raw)


@given(small_bases(), st.integers(min_value=1, max_value=6))
@settings(max_examples=50, deadline=None)
def test_spectrum_mass_and_dimension_properties(p, n):
    spec = tensor_power_spectrum(p, n)
    total = float(np.exp2(np.logaddexp2.reduce(spec.log2_masses)))
    assert abs(total - 1.0) < 1e-9
    assert sum(spec.exact_mults) == len(p) ** n
    assert np.all(np.diff(spec.log2_eigs) < 1e-12)  # nonincreasing classes


@given(small_bases(), st.integers(min_value=1, max_value=5))
@settings(max_examples=30, deadline=None)
def test_mu_is_monotone_in_the_window(p, n):
    spec = tensor_power_spectrum(p, n)
    lo = float(spec.log2_eigs[-1]) - 1.0
    mids = np.linspace(lo, 0.0, 7)
    vals = [mu(spec, lo, b) for b in mids]
    assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))


def test_growth_guard_rejects_uniform_base():
    from entlab.sigsub import growth_fit

    with pytest.raises(DegenerateSpectrumError):
        growth_fit(np.array([0.5, 0.5]), 0.95, (4, 8))
