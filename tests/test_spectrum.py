"""Tensor-power class spectrum checks against exact rational oracles."""

import copy
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
from entlab.logdomain import log2_int
from entlab.locc import verify_theorem_chain
from entlab import spectrum as spectrum_module
from entlab.sigsub import min_dilution_dimension, sig_dim
from entlab.spectrum import (
    ClassSpectrum,
    SortedSpectrumView,
    _build_spectrum,
    _class_starts,
    gaussian_masses,
    mass_threshold_class,
)
from entlab.tolerances import CLASS_MERGE_BITS
from oracles import (
    EagerSpectrumView,
    anchored_class_starts,
    class_spectrum_by_rows,
    count_eigs_at_least_by_walk,
    enumerate_product_masses,
    exact_bounds_and_counts,
    mass_threshold_class_by_walk,
    multinomial,
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
    assert spec.exact_bounds is not None
    counts = exact_bounds_and_counts(spec)[1]
    for i, v in enumerate(values):
        cnt, mass = table[v]
        assert counts[i] == cnt
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
        assert (spec.exact_bounds and exact_bounds_and_counts(spec)[1]) == counts, n


def test_log_only_merge_equals_the_per_class_log2sumexp_loop():
    # 234,136 compositions pass EXACT_MULT_MAX_CLASSES, so the classes'
    # log2 multiplicities are merged by the grouped kernel; the oracle
    # calls log2sumexp once per class of more than one composition
    p = np.array([0.4, 0.3, 0.2, 0.1])
    spec = tensor_power_spectrum(p, 110)
    assert spec.exact_bounds is None
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
    # the compositions are enumerated, and their multinomials summed into
    # classes, one block of k_1 runs at a time, so no array of all
    # compositions is held (peaks 1.8 MB at n = 50 and 4.4 MB at n = 100,
    # where the sort of all log2 eigenvalues sets the peak; with one int32
    # array of all compositions and its float copy, 1.4 MB and 10.2 MB)
    p = np.array([0.4, 0.3, 0.2, 0.1])
    for n, limit in ((50, 2.5e6), (100, 7e6)):
        gc.collect()
        tracemalloc.start()
        try:
            tensor_power_spectrum(p, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, (n, peak)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "log_only"])
@pytest.mark.parametrize(
    "p, n",
    [((4 / 7, 2 / 7, 1 / 7), 30), ((0.4, 0.3, 0.2, 0.1), 14), ((0.3, 0.3, 0.2, 0.1, 0.1), 9)],
)
def test_composition_blocks_give_the_one_block_bits(p, n, exact, monkeypatch):
    # blocks of whole k_1 runs: a row cap of 5 makes every run longer than
    # that a block of its own and groups the short tail runs
    if not exact:
        monkeypatch.setattr(spectrum_module, "EXACT_MULT_MAX_CLASSES", 0)
    monkeypatch.setattr(spectrum_module, "COMPOSITION_BLOCK_ROWS", 10**9)
    one = tensor_power_spectrum(np.array(p), n)
    one_counts = exact and exact_bounds_and_counts(one)[1]
    monkeypatch.setattr(spectrum_module, "COMPOSITION_BLOCK_ROWS", 5)
    blocks = list(spectrum_module._k1_blocks(n, len(p)))
    assert len(blocks) > n // 2
    assert blocks[-1][0].stop == math.comb(n + len(p) - 1, len(p) - 1)
    many = tensor_power_spectrum(np.array(p), n)
    assert (one.exact_bounds is None) == (not exact)
    assert exact or many.exact_bounds is None
    assert not exact or exact_bounds_and_counts(many)[1] == one_counts
    for name in ("log2_eigs", "log2_mults", "log2_masses"):
        assert getattr(many, name).tobytes() == getattr(one, name).tobytes(), name
    if exact:
        # each block's products pair with its rows in walk order
        pascal = np.array(
            [[math.comb(r, k) for k in range(n + 1)] for r in range(n + 1)], dtype=object
        )
        for _, k1s in blocks:
            rows = spectrum_module._compositions(n, len(p), k1s)
            got = spectrum_module._multinomials(n, len(p), k1s, pascal).tolist()
            assert got == [multinomial(n, row.tolist()) for row in rows]


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
    for x1, x2 in ((math.nan, 0.0), (0.0, math.nan), (1.0, 0.5)):
        with pytest.raises(ValidationError):
            gaussian_cdf(x1, x2)


def test_gaussian_masses_equal_gaussian_cdf_bit_for_bit():
    gen = np.random.default_rng(11)
    edges = [-math.inf, -40.0, -8.5, -1.0, -1e-300, -0.0, 0.0, 1e-300, 0.5, 1.0, 8.5, 40.0]
    xs = sorted([*edges, math.inf, *gen.normal(0.0, 3.0, 40).tolist()])
    # every pair x1 <= x2 of the list, x1 = x2 included, as flat arrays
    x1, x2 = np.array([(u, v) for i, u in enumerate(xs) for v in xs[i:]]).T
    got = gaussian_masses(x1, x2)
    want = np.array([gaussian_cdf(u, v) for u, v in zip(x1.tolist(), x2.tolist())])
    assert got.shape == want.shape and got.dtype == want.dtype
    assert (got == want).all() and not np.signbit(got).any()
    # a column of left ends against a 2-D grid of right ends, as berry_esseen_grid calls it
    lefts = np.array(edges)[:, None]
    rights = lefts + np.array([0.0, 0.5, 1.0, 8.5, 80.0])
    grid = gaussian_masses(lefts, rights)
    assert grid.shape == rights.shape
    for (i, j), g in np.ndenumerate(grid):
        assert g == gaussian_cdf(edges[i], float(rights[i, j])), (i, j)
    refused = [(math.nan, 0.0, "nan endpoint"), ([0.0], [0.5, math.nan], "nan endpoint")]
    refused.append(([0.0, 1.0], [0.5, 0.5], "x1 <= x2"))
    for bad1, bad2, msg in refused:
        with pytest.raises(ValidationError, match=msg):
            gaussian_masses(bad1, bad2)


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
    + [((0.4, 0.3, 0.2, 0.1), 100), ((0.5, 0.3, 0.2), 40)],
)
def test_residual_grid_rows_equal_per_cell_residuals(p, n):
    spec = tensor_power_spectrum(np.array(p), n)
    st_ = spec.stats
    scale = st_.alpha * math.sqrt(n)
    lefts, widths = residual_grid(50)
    assert widths[0] == 0.0
    # plus one row of windows wholly below the smallest class and one wholly
    # above the largest, where the class slice is empty (hi <= lo); rows
    # with left edge +-0.0, and rows whose right edge x1 + w is exactly 0
    below = (spec.log2_eigs[-1] + n * st_.entropy) / scale - widths[-1] - 1.0
    above = (spec.log2_eigs[0] + n * st_.entropy) / scale + 1.0
    edges = [0.0, -0.0, *(-widths[[1, 7, 25]]).tolist()]
    lefts = np.concatenate(([below], lefts, edges, [above]))
    table = berry_esseen_grid(spec, lefts, widths)
    assert table.n == n and type(table.n) is int
    assert table.a.shape == lefts.shape and table.b.shape == (lefts.size, widths.size)
    assert table.residual.shape == table.passed.shape == table.b.shape
    assert table.passed.dtype == bool
    branches = set()
    zero_ends = 0
    for i, x1 in enumerate(lefts.tolist()):
        a = x1 * scale - n * st_.entropy
        assert table.a[i] == a
        for j, w in enumerate(widths.tolist()):
            b = (x1 + w) * scale - n * st_.entropy
            res = berry_esseen_residual(spec, a, b)
            row = (table.b[i, j], table.residual[i, j], table.bound, table.passed[i, j])
            assert row == (b, res.residual, res.bound, res.passed), (i, j)
            # the Gaussian mass's three cases: window right of 0, left of 0, or across it
            z1, z2 = (a + n * st_.entropy) / scale, (b + n * st_.entropy) / scale
            branches.add("right" if z1 >= 0.0 else "left" if z2 <= 0.0 else "across")
            zero_ends += z1 == 0.0 or z2 == 0.0
    assert branches == {"right", "left", "across"}
    # the +-0.0 rows start at 0, and each x1 = -w row ends there once
    assert zero_ends >= 2 * widths.size + 3
    for i in (0, -1):
        assert all(mu(spec, float(table.a[i]), b) == 0.0 for b in table.b[i].tolist())


def test_residual_grid_refuses_a_negative_width():
    spec = tensor_power_spectrum(P_QUARTER, 16)
    with pytest.raises(ValidationError):
        berry_esseen_grid(spec, np.array([0.0]), np.array([1.0, -0.5]))
    # a nan endpoint is refused as gaussian_cdf refuses it
    for lefts, widths in (([math.nan], [1.0]), ([0.0], [0.5, math.nan])):
        with pytest.raises(ValidationError, match="nan endpoint"):
            berry_esseen_grid(spec, lefts, widths)
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
    assert view.bounds(spec.num_classes)[-1] == 2**8
    # count at a threshold between the second and third class values
    thr = float(spec.log2_eigs[1] + spec.log2_eigs[2]) / 2.0
    counts = exact_bounds_and_counts(spec)[1]
    want = counts[0] + counts[1]
    assert view.count_eigs_at_least(thr) == want


@pytest.mark.parametrize("n", [1, 2, 3, 4, 17, 18, 1000, 1001])
def test_binomial_row_is_exact_and_mirrored(n):
    # the d = 2 build forms each class's C(n, k) once, by the recurrence,
    # and past the row's formed part its log2 multiplicities mirror the
    # first ones
    whole = _build_spectrum(P_QUARTER, n, whole=True)
    row = [math.comb(n, k) for k in range(n + 1)]
    assert exact_bounds_and_counts(whole)[1] == tuple(row)
    assert whole.log2_mults.tolist() == [log2_int(c) for c in row]
    assert whole.log2_mults.tobytes() == whole.log2_mults[::-1].tobytes()
    spec = tensor_power_spectrum(P_QUARTER, n)
    assert spec.log2_mults.tobytes() == whole.log2_mults.tobytes()
    assert spec.exact_bounds == whole.exact_bounds[: len(spec.exact_bounds)]


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
    assert (spec.exact_bounds is None) == (n > spectrum_module.EXACT_MULT_MAX_N)
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
    counts = exact_bounds_and_counts(spec)[1]
    for t in thresholds.tolist():
        want = count_eigs_at_least_by_walk(counts, e, t)
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
        exact_bounds=(0, 2, 4),
    )
    for t in (-2.0 + 2.5e-13 + 1e-9, -3.0, -1.0):
        want = count_eigs_at_least_by_walk(exact_bounds_and_counts(spec)[1], spec.log2_eigs, t)
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
    # both read the boundaries the spectrum holds, in place
    assert direct is not spec.view and direct.bounds(0) is spec.view.bounds(0)
    assert direct.bounds(0) is spec.exact_bounds
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


def _view_queries(spec):
    """Every query kind of a SortedSpectrumView over spec: class
    boundaries, positions, thresholds, prefix dimensions and deltas, each as a
    (method name, argument) pair. Boundaries and dimensions run forward
    and backward, past the kept prefix of a 0.1-error dilution, and at and
    past total_dim."""
    ncl = spec.num_classes
    eager = EagerSpectrumView(spec)
    step = max(1, ncl // 150)
    classes = sorted({*range(0, ncl + 1, step), 1, ncl - 1, ncl, ncl + 1, ncl + 7})
    kept = eager.sig_dim(1.0 - 0.1 * 0.1 / 8.0)[0]
    total = eager.total_dim
    dims = {kept - 1, kept, kept + 1, 2 * kept, total - 1, total, total + 1, 4 * total, 0, -1}
    dims |= {eager.bounds[c] + s for c in classes if c <= ncl for s in (-1, 0, 1)}
    e = spec.log2_eigs[::step]
    thresholds = [*e.tolist(), *(e + 5e-10).tolist(), *(e - 2e-9).tolist()]
    thresholds += [float(spec.log2_eigs[0]) + 1.0, float(spec.log2_eigs[-1]) - 1.0]
    deltas = [0.0, 0.3, 0.5, 0.95, 1.0 - 0.1 * 0.1 / 8.0, 1.0 - 1e-6, 1.0]
    queries = [("bounds", c) for c in classes]
    queries += [("bounds", c) for c in reversed(classes)]
    queries += [("log2_mass_of_prefix", d) for d in sorted(dims)]
    queries += [("log2_mass_of_prefix", d) for d in sorted(dims, reverse=True)]
    queries += [("class_at", d) for d in sorted(dims, reverse=True)]
    queries += [("count_eigs_at_least", t) for t in thresholds]
    queries += [("sig_dim", delta) for delta in deltas]
    return eager, queries


VIEW_ORACLE_CASES = [
    *(((0.75, 0.25), n) for n in (1, 2, 64, 4096)),
    # p2 = p3 and 0.4 * 0.1 = 0.2 * 0.2: compositions merge into classes
    ((0.5, 0.25, 0.25), 9),
    ((0.4, 0.3, 0.2, 0.1), 8),
]


def _memo_complete(monkeypatch):
    """Make spectrum._complete_bounds build each spectrum's boundaries once
    per test and hand out copies; returns the held lists it was called on."""
    complete = spectrum_module._complete_bounds
    calls, done = [], {}

    def memo(probs, n, held, num_classes):
        calls.append(held)
        key = (probs.tobytes(), n)
        if key not in done:
            done[key] = complete(probs, n, held, num_classes)
        return list(done[key])

    monkeypatch.setattr(spectrum_module, "_complete_bounds", memo)
    return calls


@pytest.mark.parametrize("p,n", VIEW_ORACLE_CASES)
def test_lazy_view_equals_the_eager_boundaries_in_any_query_order(p, n, monkeypatch):
    completions = _memo_complete(monkeypatch)
    spec = tensor_power_spectrum(np.array(p), n)
    d = len(p)
    if d > 2:
        assert spec.num_classes < math.comb(n + d - 1, d - 1)
    eager, queries = _view_queries(spec)
    shuffled = [queries[i] for i in np.random.default_rng(n).permutation(len(queries))]
    orders = (("forward", queries), ("backward", queries[::-1]), ("shuffled", shuffled))
    # "fresh" asks each query (every 8th at n = 4096) of a view that has
    # summed nothing yet
    fresh = queries[:: 1 + spec.num_classes // 512]
    for order, asked in (*orders, ("fresh", fresh)):
        view = SortedSpectrumView(spec)
        completions.clear()
        for name, arg in asked:
            if order == "fresh":
                view = SortedSpectrumView(spec)
                completions.clear()
            got = getattr(view, name)(arg)
            # a view builds the whole spectrum at most once
            assert len(completions) <= 1, (p, n, order, name, arg)
            if name == "bounds":
                # the list holds entry arg and every boundary summed before
                assert len(got) >= min(arg, spec.num_classes) + 1, (p, n, order, arg)
                assert got == eager.bounds[: len(got)], (p, n, order, arg)
                continue
            want = getattr(eager, name)(arg)
            assert got == want, (p, n, order, name, arg)
            for g, w in zip(got, want) if name == "sig_dim" else [(got, want)]:
                assert type(g) is type(w), (p, n, order, name, arg)
        total = view.bounds(spec.num_classes)[-1]
        assert total == eager.total_dim and type(total) is int
        assert len(completions) == (len(spec.exact_bounds) <= spec.num_classes), (p, n, order)


@pytest.mark.parametrize("p,n", [*VIEW_ORACLE_CASES, ((0.4, 0.3, 0.2, 0.1), 100)])
def test_class_at_reads_the_held_boundaries_and_completes_only_past_them(p, n, monkeypatch):
    # on a fresh view, class_at reads the boundaries the spectrum holds in
    # place; only a position past them completes every boundary, once,
    # into the view's own list
    spec = tensor_power_spectrum(np.array(p), n)
    eager = EagerSpectrumView(spec)
    held = spec.exact_bounds
    ncl = spec.num_classes
    kept = eager.sig_dim(1.0 - 0.1 * 0.1 / 8.0)[0]
    step = max(1, ncl // 150)
    dims = {0, 1, kept - 1, kept, eager.total_dim - 1, eager.total_dim, 2 * eager.total_dim}
    dims |= {eager.bounds[c] + s for c in range(0, ncl + 1, step) for s in (-1, 0, 1)}
    completions = _memo_complete(monkeypatch)
    for pos in sorted(d for d in dims if d >= 0):
        completions.clear()
        view = SortedSpectrumView(spec)
        got = view.class_at(pos)
        assert got == eager.class_at(pos), (p, n, pos)
        past = pos >= held[-1] and len(held) <= ncl
        assert len(completions) == past, (p, n, pos)
        assert (view.bounds(0) is held) == (not past), (p, n, pos)
        assert view.bounds(0) == eager.bounds[: len(view.bounds(0))]
    assert spec.exact_bounds is held and len(held) <= ncl + 1


def test_commands_sum_the_class_boundaries_only_as_far_as_they_reach():
    # the budget search, its certificate and the dimension window all stay
    # in the top of the spectrum, inside the boundaries a spectrum holds:
    # 4,592 of 16,386 at n = 16384
    spec = tensor_power_spectrum(P_QUARTER, 16384)
    c_star, outcomes, report = find_min_budget(spec, 16384, 0.1)
    assert verify_theorem_chain(next(o for o in outcomes if o.good), spec, report).consistent
    min_dilution_dimension(spec, 0.01)
    held = spec.view.bounds(0)
    assert c_star == 535
    assert held is spec.exact_bounds
    assert len(held) <= 0.3 * (spec.num_classes + 1), len(held)


HELD_QUERIES = {
    "sig_dim(1.0)": lambda view, spec: view.sig_dim(1.0),
    "count below the smallest eigenvalue": lambda view, spec: view.count_eigs_at_least(
        float(spec.log2_eigs[-1]) - 1.0
    ),
    "class_at(total_dim - 1)": lambda view, spec: view.class_at(len(spec.base_probs) ** spec.n - 1),
    "log2_mass_of_prefix(total_dim)": lambda view, spec: view.log2_mass_of_prefix(
        len(spec.base_probs) ** spec.n
    ),
    "bounds(num_classes)": lambda view, spec: list(view.bounds(spec.num_classes)),
    "total_dim": lambda view, spec: view.bounds(spec.num_classes)[-1],
}


@pytest.mark.parametrize("p, n", [((0.75, 0.25), 4096), ((0.5, 0.3, 0.2), 100)])
@pytest.mark.parametrize("query", HELD_QUERIES)
def test_held_prefix_answers_as_a_fresh_spectrum(p, n, query):
    # a spectrum holds its boundaries through its mass cut; every answer
    # equals that of a whole build, which holds all of them
    spec = tensor_power_spectrum(np.array(p), n)
    whole = _build_spectrum(np.array(p), n, whole=True)
    held = spec.exact_bounds
    assert len(held) < spec.num_classes + 1 == len(whole.exact_bounds)
    ask = HELD_QUERIES[query]
    assert ask(spec.view, spec) == ask(whole.view, whole)
    assert whole.view.bounds(spec.num_classes)[-1] == len(p) ** n
    # sig_dim stays in the held boundaries; every other query reads past
    # them and completes into the view's own list
    completed = spec.view.bounds(0) is not held
    assert completed == (query != "sig_dim(1.0)")
    assert len(spec.view.bounds(0)) == (spec.num_classes + 1 if completed else len(held))
    # the spectrum keeps only what it held
    assert spec.exact_bounds is held and len(held) < spec.num_classes + 1


def test_class_spectrum_holds_a_list_of_the_full_or_the_held_length():
    # tensor_power_spectrum holds the boundaries through its mass cut and a
    # whole build all of them; a spectrum given either length, as any
    # sequence, holds it as a plain list, and every other length is refused
    spec = tensor_power_spectrum(P_QUARTER, 256)
    whole = _build_spectrum(P_QUARTER, 256, whole=True).exact_bounds
    held = spec.exact_bounds
    assert type(held) is list and type(whole) is list
    assert len(held) < spec.num_classes + 1 == len(whole)
    assert held == whole[: len(held)]
    for given in (held, whole):
        again = dataclasses.replace(spec, exact_bounds=tuple(given))
        assert type(again.exact_bounds) is list and again.exact_bounds == given
    # plain boundaries of full length are held whole: a view reads them in place
    full = dataclasses.replace(spec, exact_bounds=whole)
    assert full.exact_bounds is whole and full.view.bounds(spec.num_classes) is whole
    assert dataclasses.replace(spec, exact_bounds=None).exact_bounds is None
    longer = whole + [whole[-1]]
    for size in (0, 1, 2, len(held) - 1, len(held) + 1, len(whole) - 1, len(whole) + 1):
        with pytest.raises(ValidationError, match="exact_bounds length"):
            dataclasses.replace(spec, exact_bounds=longer[:size])
    # completed, the held list reads as the whole build's
    bounds, counts = exact_bounds_and_counts(spec)
    assert bounds == whole and bounds[-1] == 2**256 and spec.exact_bounds is held
    assert counts[-3:] == (math.comb(256, 2), 256, 1)
    assert counts[::128] == (1, math.comb(256, 128), 1)


def test_completion_refuses_boundaries_the_whole_build_does_not_extend():
    spec = tensor_power_spectrum(P_QUARTER, 256)
    held = spec.exact_bounds
    for i in (1, len(held) // 2, len(held) - 1):
        wrong = list(held)
        wrong[i] += 1
        view = SortedSpectrumView(dataclasses.replace(spec, exact_bounds=wrong))
        # a read inside the held list is not checked; completing it is
        assert view.bounds(len(held) - 1) is wrong
        with pytest.raises(ValidationError, match="do not begin"):
            view.bounds(spec.num_classes)
    # a whole build of another class count is refused too
    probs, n = spec.base_probs, spec.n
    for ncl in (spec.num_classes - 1, spec.num_classes + 1):
        with pytest.raises(ValidationError, match="do not begin"):
            spectrum_module._complete_bounds(probs, n, held, ncl)
    assert spectrum_module._complete_bounds(probs, n, held, spec.num_classes)[-1] == 2**256


@pytest.mark.parametrize(
    "p, ns",
    [
        ((0.75, 0.25), (1, 2, 40, 64, 1000, 4096, 20000)),
        ((0.9, 0.1), (64, 2000)),
        # the cut falls past n/2, where the row goes on past its half
        ((0.52, 0.48), (5000,)),
        ((0.5, 0.5), (8,)),
        ((0.5, 0.3, 0.2), (9, 100, 300)),
        ((0.4, 0.3, 0.2, 0.1), (8, 50, 100)),
    ],
)
def test_held_boundaries_stop_at_the_last_class_of_mass_at_least_2_to_the_minus_54(p, ns):
    # past that class each class adds under half an ulp to a prefix mass
    # past 1/2, so the prefix masses stop changing there
    for n in ns:
        spec = tensor_power_spectrum(np.array(p), n)
        whole = _build_spectrum(np.array(p), n, whole=True)
        assert whole.log2_masses.tobytes() == spec.log2_masses.tobytes()
        heavy = np.flatnonzero(np.exp2(whole.log2_masses) >= 2.0**-54)
        kept = spec.exact_bounds
        assert len(kept) == heavy[-1] + 2, (p, n)
        assert kept == whole.exact_bounds[: len(kept)], (p, n)
        cs = np.cumsum(np.exp2(whole.log2_masses))
        assert (cs[heavy[-1] :] == cs[-1]).all(), (p, n)


def test_d2_build_stays_small_in_memory():
    # the binomial recurrence runs once and holds no row: the build keeps
    # the boundaries through the mass cut (about 5.9 MB of big ints at
    # n = 16384) and peaks at 8.2 MB traced; with the whole row formed, an
    # object array of it and every class count summed, it peaked at 15.2 MB
    gc.collect()
    tracemalloc.start()
    try:
        tensor_power_spectrum(P_QUARTER, 16384)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11e6, peak


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
    assert sum(exact_bounds_and_counts(spec)[1]) == len(p) ** n
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
