"""Tensor-power class spectrum checks against exact rational oracles."""

import dataclasses
import gc
import math
import tracemalloc
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
    berry_esseen_grid,
    berry_esseen_residual,
    gaussian_cdf,
    mu,
    spectrum_stats,
    tensor_power_spectrum,
)
from entlab.lab.commands import find_min_budget, residual_grid
from entlab.locc import verify_theorem_chain
from entlab import spectrum as spectrum_module
from entlab.sigsub import sig_dim
from entlab.spectrum import (
    ClassSpectrum,
    SortedSpectrumView,
    _binomials_exact,
    _class_starts,
    mass_threshold_class,
)
from entlab.tolerances import CLASS_MERGE_BITS
from oracles import (
    anchored_class_starts,
    class_spectrum_by_rows,
    count_eigs_at_least_by_walk,
    enumerate_product_masses,
    mass_threshold_class_by_walk,
    norm_cdf,
)

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
    # p[p > 0] would drop a nan and run on the rest
    for probs in ([0.5, np.nan, 0.5], [np.nan, 0.75, 0.25], [np.inf, 0.5]):
        with pytest.raises(ValidationError, match="p has a non-finite entry"):
            BaseSpectrum(np.array(probs))


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
    # (4/7)(1/7) = (2/7)^2: distinct compositions share eigenvalues, so the
    # class table must merge them exactly the way raw enumeration does;
    # (1/2, 1/3, 1/6) has none, since k_2 + k_3 and k_1 + k_3 fix a class
    for fracs in (
        (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
        (Fraction(4, 7), Fraction(2, 7), Fraction(1, 7)),
    ):
        spec = tensor_power_spectrum(np.array([float(f) for f in fracs]), n)
        _assert_matches_brute_force(fracs, n, spec)


# d = 3, 4 and 5; (4/7, 2/7, 1/7), (.4, .3, .2, .1) and (.3, .3, .2, .1, .1)
# merge distinct compositions into one class
ROW_ORACLE_CASES = [
    ((0.5, 0.3, 0.2), (1, 9, 60)),
    ((1 / 2, 1 / 3, 1 / 6), (2, 30)),
    ((4 / 7, 2 / 7, 1 / 7), (5, 40)),
    ((0.4, 0.3, 0.2, 0.1), (3, 12, 30)),
    ((0.47, 0.29, 0.15, 0.09), (20,)),
    ((0.3, 0.25, 0.2, 0.15, 0.1), (4, 12)),
    ((0.3, 0.3, 0.2, 0.1, 0.1), (10,)),
]


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "log_only"])
@pytest.mark.parametrize("p,ns", ROW_ORACLE_CASES)
def test_class_arrays_equal_the_per_row_oracle_bitwise(p, ns, exact, monkeypatch):
    if not exact:
        monkeypatch.setattr(spectrum_module, "EXACT_MULT_MAX_CLASSES", 0)
    for n in ns:
        spec = tensor_power_spectrum(np.array(p), n)
        eigs, mults, masses, counts = class_spectrum_by_rows(spec.base_probs, n, exact)
        assert spec.log2_eigs.tobytes() == eigs.tobytes(), n
        assert spec.log2_mults.tobytes() == mults.tobytes(), n
        assert spec.log2_masses.tobytes() == masses.tobytes(), n
        assert spec.exact_mults == counts, n


def test_log_only_merge_equals_the_per_class_log2sumexp_loop():
    # 234,136 compositions pass EXACT_MULT_MAX_CLASSES, so the classes'
    # log2 multiplicities are merged by the grouped kernel; the oracle
    # calls log2sumexp once per class of more than one composition
    p = np.array([0.4, 0.3, 0.2, 0.1])
    spec = tensor_power_spectrum(p, 110)
    assert spec.exact_mults is None
    eigs, mults, masses, _ = class_spectrum_by_rows(spec.base_probs, 110, False)
    assert spec.log2_eigs.tobytes() == eigs.tobytes()
    assert spec.log2_mults.tobytes() == mults.tobytes()
    assert spec.log2_masses.tobytes() == masses.tobytes()


def test_class_starts_follow_the_anchored_rule():
    # every adjacent gap fits in CLASS_MERGE_BITS, the span does not: the
    # first member of a class anchors it, so this chain is cut every two
    step = 0.6 * CLASS_MERGE_BITS
    chain = -100.0 - step * np.arange(9)
    assert np.all(chain[:-1] - chain[1:] <= CLASS_MERGE_BITS)
    assert _class_starts(chain).tolist() == anchored_class_starts(chain) == [0, 2, 4, 6, 8]

    rng = np.random.default_rng(7)
    for _ in range(50):
        gaps = rng.choice([0.0, 0.3, 0.6, 0.9, 1.5, 40.0], size=200) * CLASS_MERGE_BITS
        e = -3.0 - np.concatenate(([0.0], np.cumsum(gaps)))
        assert _class_starts(e).tolist() == anchored_class_starts(e)


def test_d4_build_stays_small_in_memory():
    # the compositions are enumerated as arrays and their multinomials are
    # summed one k_1-block at a time, never all held at once (peak 1.5 MB;
    # 3.4 MB with one Python tuple per composition)
    p = np.array([0.4, 0.3, 0.2, 0.1])
    gc.collect()
    tracemalloc.start()
    try:
        tensor_power_spectrum(p, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6, peak


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


@pytest.mark.parametrize(
    "p, n",
    [((0.75, 0.25), 64), ((0.75, 0.25), 256), ((0.75, 0.25), 1024), ((0.75, 0.25), 4096)]
    + [((0.4, 0.3, 0.2, 0.1), 25), ((0.75, 0.25), 16384), ((0.5, 0.3, 0.2), 200)]
    + [((0.4, 0.3, 0.2, 0.1), 100)],
)
def test_residual_grid_rows_equal_per_cell_residuals(p, n):
    spec = tensor_power_spectrum(np.array(p), n)
    st_ = spec.stats
    scale = st_.alpha * math.sqrt(n)
    lefts, widths = residual_grid(50)
    assert widths[0] == 0.0
    # plus one row of windows wholly below the smallest class and one wholly
    # above the largest, where the class slice is empty (hi <= lo)
    below = (spec.log2_eigs[-1] + n * st_.entropy) / scale - widths[-1] - 1.0
    above = (spec.log2_eigs[0] + n * st_.entropy) / scale + 1.0
    lefts = np.concatenate(([below], lefts, [above]))
    rows = berry_esseen_grid(spec, lefts, widths)
    assert len(rows) == lefts.size * widths.size
    cells = [(x1, w) for x1 in lefts for w in widths]
    for row, (x1, w) in zip(rows, cells):
        a = x1 * scale - n * st_.entropy
        b = (x1 + w) * scale - n * st_.entropy
        res = berry_esseen_residual(spec, a, b)
        assert row == (n, a, b, res.residual, res.bound, res.passed)
        assert type(row[5]) is bool
    outside = rows[: widths.size] + rows[-widths.size :]
    assert all(mu(spec, a, b) == 0.0 for _, a, b, *_ in outside)


def test_residual_grid_refuses_a_negative_width():
    spec = tensor_power_spectrum(P_QUARTER, 16)
    with pytest.raises(ValidationError):
        berry_esseen_grid(spec, np.array([0.0]), np.array([1.0, -0.5]))
    with pytest.raises(DegenerateSpectrumError):
        berry_esseen_grid(tensor_power_spectrum(np.array([0.5, 0.5]), 4), [0.0], [1.0])


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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 17, 18, 1000, 1001])
def test_binomial_row_is_exact_and_mirrored(n):
    row = _binomials_exact(n)
    assert row == [math.comb(n, k) for k in range(n + 1)]
    # one int object serves k and n - k
    assert all(row[k] is row[n - k] for k in range(n + 1))


# (p, n): d = 2 exact and log-only, d = 3 and d = 4 exact
THRESHOLD_CASES = [
    ((0.75, 0.25), 4096),
    ((0.75, 0.25), 16384),
    ((0.75, 0.25), 65536),
    ((0.5, 0.3, 0.2), 200),
    ((0.4, 0.3, 0.2, 0.1), 50),
]


@pytest.mark.parametrize("p,n", THRESHOLD_CASES)
def test_mass_threshold_class_equals_the_scalar_walk_bitwise(p, n):
    spec = tensor_power_spectrum(np.array(p), n)
    assert (spec.exact_mults is None) == (n > spectrum_module.EXACT_MULT_MAX_N)
    # 1.5 is never reached: c is the class count and acc the whole sum
    for delta in (0.5, 0.95, 1.0 - 0.1 * 0.1 / 8.0, 0.99, 1.0, 1.5):
        got = mass_threshold_class(spec.log2_masses, spec.log2_eigs, delta)
        want = mass_threshold_class_by_walk(spec.log2_masses, spec.log2_eigs, delta)
        assert got == want, (p, n, delta)
        assert type(got[1]) is float
    assert mass_threshold_class([], [], 0.5) == (0, 0.0, -math.inf)
    c, acc, _ = mass_threshold_class(spec.log2_masses, spec.log2_eigs, 1.5)
    assert c == spec.num_classes and acc < 1.5


@pytest.mark.parametrize(
    "p,n",
    [((0.75, 0.25), 64), ((0.5, 0.3, 0.2), 30), ((4 / 7, 2 / 7, 1 / 7), 12), ((0.4, 0.3, 0.2, 0.1), 12)],
)
def test_count_eigs_at_least_equals_the_class_walk(p, n):
    spec = tensor_power_spectrum(np.array(p), n)
    view = spec.view
    e = spec.log2_eigs
    thresholds = np.concatenate(
        (e, e + 5e-10, e - 5e-10, e + 2e-9, e - 2e-9, [e[0] + 1.0, e[-1] - 1.0])
    )
    for t in thresholds.tolist():
        want = count_eigs_at_least_by_walk(spec.exact_mults, e, t)
        assert view.count_eigs_at_least(t) == want, (p, n, t)


def test_count_eigs_at_least_stops_at_the_first_class_below():
    # the second class rises by 5e-13, within CLASS_MERGE_BITS; a threshold
    # between the two stops the count at the first class, as the walk does
    spec = ClassSpectrum(
        n=2,
        base_probs=np.array([0.5, 0.5]),
        log2_eigs=np.array([-2.0, -2.0 + 5e-13]),
        log2_mults=np.array([1.0, 1.0]),
        log2_masses=np.array([-1.0, -1.0 + 5e-13]),
        exact_mults=(2, 2),
    )
    for t in (-2.0 + 2.5e-13 + 1e-9, -3.0, -1.0):
        want = count_eigs_at_least_by_walk(spec.exact_mults, spec.log2_eigs, t)
        assert spec.view.count_eigs_at_least(t) == want
    assert spec.view.count_eigs_at_least(-2.0 + 2.5e-13 + 1e-9) == 0


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
        growth_fit((tensor_power_spectrum(np.array([0.5, 0.5]), n) for n in (4, 8)), 0.95)
