"""Dilution builders, the outcome runner, concentration, and certificates."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entlab import (
    CapExceededError,
    DegenerateSpectrumError,
    SchmidtProfile,
    ValidationError,
    tensor_power_spectrum,
)
from entlab.locc import (
    BlockShiftFamily,
    StandardFormProtocol,
    StandardizedProgram,
    build_block_dilution,
    build_shift_dilution,
    concentrate,
    run_protocol,
    run_protocol_dense,
    verify_theorem_chain,
)
from entlab.locc.runner import (
    CERT_DELTA_GAMMA,
    CERT_EPS0,
    _profile_queries,
    _report,
    _scored,
    _sorted_target,
)
from entlab.tolerances import WEIGHTS_CAP
from oracles import (
    block_dilution_by_pieces,
    completeness_defect,
    concentration_yield_by_class,
    diagonal_kraus_dense,
    profile_queries_by_pieces,
    sorted_target_by_runs,
    x_power_distance_by_pieces,
    x_prefix_mass_by_pieces,
)

P_QUARTER = np.array([0.75, 0.25])
E_QUARTER = 0.8112781244591329

# (sqrt(54)+sqrt(18)+sqrt(6)+sqrt(2))/16 overlap, worked out by hand at n=2
BLOCK_ERR_BUDGET1 = 0.5176380902050415
BLOCK_ERR_BUDGET0 = 0.7196868710982039


def sorted_profile(gen, d):
    return np.sort(gen.dirichlet(np.ones(d)))[::-1]


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16, 64])
def test_shift_dilution_is_exact(d):
    gen = np.random.default_rng(d)
    q = sorted_profile(gen, d)
    proto = build_shift_dilution(q)
    assert proto.message_bits == (d - 1).bit_length()
    dense = [diagonal_kraus_dense(w, perm) for w, perm in proto.kraus_ops()]
    assert completeness_defect(dense, d) < 1e-12

    outcomes, report = run_protocol(proto, q)
    # rolling the profile reorders the float renormalization sum, so a few
    # ulp of error noise is intrinsic; the contract is 1e-12
    assert report.epsilon <= 1e-12
    assert report.s == 0.0
    assert report.c == (d - 1).bit_length()
    assert len(outcomes) == d
    for out in outcomes:
        assert abs(out.prob - 1.0 / d) < 1e-12
        assert out.good


def test_shift_dilution_dense_agreement():
    gen = np.random.default_rng(97)
    q = sorted_profile(gen, 4)
    proto = build_shift_dilution(q)
    _, rw = run_protocol(proto, q)
    _, rd = run_protocol_dense(proto, 4, q)
    assert rw.epsilon <= 1e-12
    assert abs(rd.epsilon - rw.epsilon) < 1e-10
    assert rd.s == 0.0


def test_shift_family_validation():
    # a length that is not a multiple of m, a negative weight, a residue
    # class of x that does not sum to 1/m, more outcomes than the bits name
    cases = (
        (np.full(3, 0.5), 2, 1, "do not split"),
        (np.array([-0.5, 1.5]), 1, 1, "negative weight"),
        (np.array([0.4, 0.2, 0.2, 0.2]), 2, 1, "completeness defect"),
        (np.full(4, 0.25), 1, 1, "more outcomes"),
    )
    for x, m, bits, match in cases:
        with pytest.raises(ValidationError, match=match):
            StandardFormProtocol(x, m, bits)
    # outcome k applies sqrt(2 x) shifted by 2k
    proto = StandardFormProtocol(np.array([0.25, 0.35, 0.25, 0.15]), 2, 1)
    dense = [diagonal_kraus_dense(w, perm) for w, perm in proto.kraus_ops()]
    r5, r3, r7 = math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.7)
    want = (
        np.diag([r5, r7, r5, r3]),
        np.array([[0, 0, r5, 0], [0, 0, 0, r7], [r5, 0, 0, 0], [0, r3, 0, 0]]),
    )
    assert len(dense) == 2
    for got, m_k in zip(dense, want):
        assert np.abs(got - m_k).max() < 1e-15
    assert completeness_defect(dense, 4) < 1e-15


def test_run_protocol_rejects_non_diagonal_protocols():
    # a dense standard-form program is checked by run_standard_form instead
    eye = np.eye(2, dtype=complex)
    proto = StandardizedProgram(
        dim_a=2,
        dim_b=2,
        alice_ops=(eye,),
        message_bits=0,
        bob_corrections=(eye,),
        messages=((),),
        reg_dims_a=(2,),
        reg_dims_b=(2,),
    )
    q = np.array([0.75, 0.25])
    with pytest.raises(ValidationError, match="run_standard_form"):
        run_protocol(proto, q)
    with pytest.raises(ValidationError, match="run_standard_form"):
        run_protocol_dense(proto, 2, q)


def test_shift_dilution_rejects_bad_profiles():
    with pytest.raises(ValidationError):
        build_shift_dilution(np.array([0.7, 0.7]))
    with pytest.raises(ValidationError):
        build_shift_dilution(np.array([]))
    # d outcomes of d weights each: d = 1000 fills the cap exactly, d = 1001 passes it
    assert len(list(build_shift_dilution(np.full(1000, 1e-3)).kraus_ops())) == 1000
    with pytest.raises(CapExceededError) as err:
        build_shift_dilution(np.full(1001, 1.0 / 1001))
    assert "d = 1001" in str(err.value) and str(WEIGHTS_CAP) in str(err.value)


def test_block_dilution_hand_case_budget_one():
    # kept prefix 3 of 4 dims, one message bit: two blocks of two positions,
    # flattened profile (6/16, 6/16, 2/16, 2/16)
    spec = tensor_power_spectrum(P_QUARTER, 2)
    proto, terr = build_block_dilution(spec, 1, eps_target=0.8)
    assert proto.dim_a == 4
    assert len(list(proto.kraus_ops())) == 2
    assert proto.message_bits == 1
    assert abs(terr - BLOCK_ERR_BUDGET1) < 1e-12
    flat = np.array([6.0, 6.0, 2.0, 2.0]) / 16.0
    assert np.abs(next(proto.kraus_ops())[0] - 2.0 * flat).max() < 1e-12

    outcomes, report = run_protocol(proto, spec)
    assert report.c == 1
    assert abs(report.epsilon - BLOCK_ERR_BUDGET1) < 1e-12
    assert abs(report.s) < 1e-12
    assert abs(sum(o.prob * o.multiplicity for o in outcomes) - 1.0) < 1e-12


def test_block_dilution_hand_case_budget_zero():
    # no message: truncate to the kept prefix and renormalize
    spec = tensor_power_spectrum(P_QUARTER, 2)
    proto, terr = build_block_dilution(spec, 0, eps_target=0.8)
    assert proto.dim_a == 3
    assert len(list(proto.kraus_ops())) == 1
    assert proto.message_bits == 0
    assert abs(terr - BLOCK_ERR_BUDGET0) < 1e-12
    _, report = run_protocol(proto, spec)
    assert abs(report.epsilon - BLOCK_ERR_BUDGET0) < 1e-12


def test_block_dilution_dense_agreement_and_completeness():
    spec = tensor_power_spectrum(P_QUARTER, 2)
    proto, terr = build_block_dilution(spec, 1, eps_target=0.8)
    dense = [diagonal_kraus_dense(w, perm) for w, perm in proto.kraus_ops()]
    assert completeness_defect(dense, 4) < 1e-10
    _, rw = run_protocol(proto, spec)
    _, rd = run_protocol_dense(proto, 4, spec, n=2)
    assert abs(rw.epsilon - terr) < 1e-12
    assert abs(rd.epsilon - terr) < 1e-12


def _dense_sweep_cases():
    """(protocol, target) pairs the dense oracle can still hold: every budget
    up to the builder's clamp for small powers, and shift dilutions."""
    for p, ns in (
        ((0.75, 0.25), range(2, 8)),
        ((0.5, 0.3, 0.2), range(2, 5)),
        ((0.4, 0.3, 0.2, 0.1), range(2, 4)),
    ):
        for n in ns:
            spec = tensor_power_spectrum(np.array(p), n)
            for eps in (0.1, 0.5):
                clamp = (spec.view.sig_dim(1.0 - eps * eps / 8.0)[0] - 1).bit_length()
                for budget in range(clamp + 1):
                    yield build_block_dilution(spec, budget, eps_target=eps)[0], spec
    gen = np.random.default_rng(1902)
    for d in range(2, 17):
        q = sorted_profile(gen, d)
        yield build_shift_dilution(q), q


def test_dense_oracle_agrees_with_the_weights_path_on_a_sweep():
    pairs = 0
    for proto, target in _dense_sweep_cases():
        ow, rw = run_protocol(proto, target)
        od, rd = run_protocol_dense(proto, proto.dim_a, target)
        where = (proto.dim_a, proto.message_bits)
        assert rw.c == rd.c, where
        assert abs(rw.s - rd.s) < 1e-10, where
        assert abs(rw.epsilon - rd.epsilon) < 1e-10, where
        assert len(ow) == len(od), where
        for a, b in zip(ow, od):
            assert abs(a.prob - b.prob) < 1e-12, where
            assert a.good == b.good, where
        pairs += 1
    assert pairs == 143


def test_dense_oracle_refuses_a_target_past_its_cap():
    # 256 target positions against a dense cap of 128 per side
    spec = tensor_power_spectrum(P_QUARTER, 8)
    proto, _ = build_block_dilution(spec, 0, eps_target=0.8)
    assert proto.dim_a <= 128
    with pytest.raises(CapExceededError):
        run_protocol_dense(proto, proto.dim_a, spec, n=8)


def test_block_dilution_full_budget_is_exact():
    spec = tensor_power_spectrum(P_QUARTER, 2)
    proto, terr = build_block_dilution(spec, 2, eps_target=0.1)
    assert proto.dim_a == 4
    assert len(list(proto.kraus_ops())) == 4
    assert terr == 0.0
    _, report = run_protocol(proto, spec)
    assert report.epsilon == 0.0
    assert report.s == 0.0
    assert report.c == 2


# c*(n) at p = (3/4, 1/4) and epsilon 0.1
C_STAR_QUARTER = {8: 8, 64: 30, 1024: 129, 4096: 264, 8192: 376, 16384: 535}

# c*(n) at epsilon 0.1 for d = 3 and 4, where most blocks hold a few classes
C_STAR_SHORT_RUNS = {
    ((0.5, 0.3, 0.2), 50): 20,
    ((0.5, 0.3, 0.2), 100): 29,
    ((0.4, 0.3, 0.2, 0.1), 50): 23,
    ((0.4, 0.3, 0.2, 0.1), 100): 33,
}


def assert_split_matches_oracle(monkeypatch, spec, budget, eps):
    """Check one build against the per-piece oracle; returns (the returned
    protocol, the symbolic family)."""
    proto, predicted = build_block_dilution(spec, budget, eps_target=eps)
    with monkeypatch.context() as mp:
        mp.setattr("entlab.locc.protocols.WEIGHTS_CAP", 0)
        family, _ = build_block_dilution(spec, budget, eps_target=eps)
    d1 = spec.view.sig_dim(1.0 - eps * eps / 8.0)[0]
    runs, tail, error = block_dilution_by_pieces(
        spec.exact_mults, spec.log2_eigs, spec.log2_masses, d1, budget
    )
    # the oracle's pieces, merged where neighbouring log2 x are equal, are
    # the family's runs
    merged = []
    for cnt, lx, _ in zip(*runs):
        if merged and merged[-1][1] == lx:
            merged[-1] = (merged[-1][0] + cnt, lx)
        else:
            merged.append((cnt, lx))
    assert tuple(zip(*merged)) == family.x_runs, (spec.n, budget)
    # the certificate's one walk over the runs gives the sums over the
    # oracle's pieces and tail, float for float
    pieces = list(zip(*runs))
    n1 = spec.view.count_eigs_at_least(-spec.n * spec.stats.entropy)
    want = (
        x_prefix_mass_by_pieces(pieces, n1),
        x_power_distance_by_pieces(pieces, tail),
        max(runs[1]),
    )
    assert _profile_queries(family.x_runs, spec.view, n1) == want, (spec.n, budget)
    log2_x = family.x_runs[1]
    assert all(a != b for a, b in zip(log2_x, log2_x[1:])), (spec.n, budget)
    assert family.target_error == error == predicted
    return proto, family


def test_block_split_matches_the_per_piece_oracle(monkeypatch):
    kinds = set()
    for n, c_star in C_STAR_QUARTER.items():
        spec = tensor_power_spectrum(P_QUARTER, n)
        clamp = (spec.view.sig_dim(1.0 - 0.1 * 0.1 / 8.0)[0] - 1).bit_length()
        for budget in sorted({0, 1, c_star - 1, c_star, c_star + 1, clamp, clamp + 5}):
            proto, _ = assert_split_matches_oracle(monkeypatch, spec, budget, 0.1)
            kinds.add(type(proto).__name__)
    assert kinds == {"StandardFormProtocol", "BlockShiftFamily"}
    for (p, n), c_star in C_STAR_SHORT_RUNS.items():
        spec = tensor_power_spectrum(np.array(p), n)
        for budget in (c_star - 1, c_star, c_star + 1):
            assert_split_matches_oracle(monkeypatch, spec, budget, 0.1)
    for p, ns in (((0.5, 0.3, 0.2), (2, 5, 9, 14)), ((0.4, 0.3, 0.2, 0.1), (3, 6, 10))):
        for n in ns:
            spec = tensor_power_spectrum(np.array(p), n)
            for budget in range(0, 2 * n + 3):
                for eps in (0.05, 0.3):
                    assert_split_matches_oracle(monkeypatch, spec, budget, eps)


@pytest.mark.parametrize(
    "p, n, budget, ends_on_a_block_end, zero_pad",
    [((0.75, 0.25), 5, 4, True, False), ((0.5, 0.3, 0.2), 5, 3, False, True)],
)
def test_block_split_edge_cases_match_the_oracle(
    monkeypatch, p, n, budget, ends_on_a_block_end, zero_pad
):
    # a class that ends exactly on an inner block end (r1 = 0) of blocks
    # longer than one position, and the zero-pad piece past the spectrum
    spec = tensor_power_spectrum(np.array(p), n)
    _, family = assert_split_matches_oracle(monkeypatch, spec, budget, 0.1)
    cum = spec.view.cum_counts
    inner = [b for b in cum[1:-1] if b < family.d_prime]
    assert family.m > 1
    assert any(b % family.m == 0 for b in inner) == ends_on_a_block_end
    assert (family.d_prime > spec.view.total_dim) == zero_pad


# bases and n of the profile-query check: every budget up to the clamp
PROFILE_QUERY_GRID = (
    ((0.75, 0.25), (*range(2, 17), 24, 32, 48, 64)),
    ((0.5, 0.3, 0.2), (*range(2, 13), 20, 32)),
    ((0.4, 0.3, 0.2, 0.1), (*range(2, 11), 16, 20)),
)


def block_family_profiles(monkeypatch, spec, eps):
    """(kind, output runs) of the block family at every budget up to the
    clamp: the symbolic family's, and the materialized protocol's good
    outcome's wherever the family has at most 2^14 weights."""
    d1 = spec.view.sig_dim(1.0 - eps * eps / 8.0)[0]
    for budget in range((d1 - 1).bit_length() + 1):
        with monkeypatch.context() as mp:
            mp.setattr("entlab.locc.protocols.WEIGHTS_CAP", 0)
            family, _ = build_block_dilution(spec, budget, eps_target=eps)
        yield "symbolic", family.x_runs
        if family.K * family.d_prime <= 1 << 14:
            outcomes, _ = run_protocol(family.materialize(), spec)
            yield "materialized", next(o for o in outcomes if o.good).x_runs


def test_profile_queries_equal_the_piece_list_oracle(monkeypatch):
    # n1 at the certificate's projector, at 0, and past the runs
    kinds = {"symbolic": 0, "materialized": 0}
    for p, ns in PROFILE_QUERY_GRID:
        for n in ns:
            spec = tensor_power_spectrum(np.array(p), n)
            view = spec.view
            cert_n1 = view.count_eigs_at_least(-n * spec.stats.entropy)
            for kind, x_runs in block_family_profiles(monkeypatch, spec, 0.1):
                kinds[kind] += 1
                for n1 in (cert_n1, 0, sum(x_runs[0]) + 1):
                    got = _profile_queries(x_runs, view, n1)
                    assert got == profile_queries_by_pieces(x_runs, spec, n1), (p, n, n1)
    assert kinds["symbolic"] > 700 and kinds["materialized"] > 100, kinds


def test_succeed_or_flag_run_reports_s():
    # one good outcome at probability 1/8 and two pure leftovers, whose
    # errors against (3/4, 1/4) are 1 and sqrt(3)
    raw = [_scored(0, 0.125, 0.0), _scored(1, 13 / 32, 1.0), _scored(2, 15 / 32, math.sqrt(3.0))]
    report = _report(2, 2, None, raw)
    assert report.s == 3.0  # one good outcome of probability exactly 1/8
    assert report.epsilon == 0.0
    good = [o for o in report.per_outcome if o.good]
    assert len(good) == 1 and abs(good[0].prob - 0.125) < 1e-15


def test_weights_cap_refusals_name_the_sizes_and_the_cap(quarter_spectra):
    # the runner scores K outcomes of d weights each: d = 1000 shifts fill
    # the cap exactly, d = 1001 pass it though d itself is far below it
    flat = np.full(1000, 1e-3)
    assert run_protocol(StandardFormProtocol(flat, 1, 10), flat)[1].epsilon < 1e-12
    flat = np.full(1001, 1.0 / 1001)
    with pytest.raises(CapExceededError) as err:
        run_protocol(StandardFormProtocol(flat, 1, 10), flat)
    for part in ("K = 1001", "d = 1001", str(WEIGHTS_CAP)):
        assert part in str(err.value)
    family, _ = build_block_dilution(quarter_spectra[64], 30, eps_target=0.1)
    assert isinstance(family, BlockShiftFamily)
    with pytest.raises(CapExceededError) as err:
        family.materialize()
    for part in (f"K = {family.K}", f"d' = {family.d_prime}", str(WEIGHTS_CAP)):
        assert part in str(err.value)


def test_report_doc_records_one_run_on_one_pair(quarter_spectra):
    small = tensor_power_spectrum(P_QUARTER, 2)
    materialized, _ = build_block_dilution(small, 1, eps_target=0.8)
    symbolic, _ = build_block_dilution(quarter_spectra[64], 30, eps_target=0.1)
    assert isinstance(materialized, StandardFormProtocol)
    assert isinstance(symbolic, BlockShiftFamily)
    for proto, spec in ((materialized, small), (symbolic, quarter_spectra[64])):
        report = run_protocol(proto, spec)[1]
        doc = report.to_doc()
        assert doc["repetitions"] == 1
        assert doc["ebits_consumed"] == report.log2_d
        assert "failure_bound" not in doc


def test_concentrate_hand_case():
    spec = tensor_power_spectrum(P_QUARTER, 2)
    res = concentrate(spec)
    assert res.n == 2
    assert abs(res.entropy_rate - E_QUARTER) < 1e-12
    assert abs(res.expected_yield - 0.375) < 1e-15  # 6/16 of one ebit
    mid = np.flatnonzero(spec.log2_mults > 0.5)
    assert mid.size == 1
    assert abs(float(np.exp2(spec.log2_masses[mid[0]])) - 0.375) < 1e-15
    assert abs(spec.log2_mults[mid[0]] - 1.0) < 1e-15


@pytest.mark.parametrize(
    "p, n",
    [
        ((0.47, 0.29, 0.15, 0.09), 100),
        ((0.5, 0.3, 0.2), 300),
        ((0.75, 0.25), 4096),
        ((0.75, 0.25), 65536),  # past the exact limit: log2 multiplicities only
    ],
)
def test_concentrate_yield_equals_the_per_class_sum(p, n):
    spec = tensor_power_spectrum(np.array(p), n)
    assert concentrate(spec).expected_yield == concentration_yield_by_class(spec)


# one base per d, plus bases whose compositions merge into shared classes
SORTED_TARGET_BASES = (
    (1.0,),
    (0.75, 0.25),
    (0.5, 0.5),
    (0.5, 0.3, 0.2),
    (0.5, 0.25, 0.25),
    (0.4, 0.3, 0.2, 0.1),
)


def test_sorted_target_equals_the_run_walk_bit_for_bit():
    # need runs over 1..3, every class boundary and its neighbours, and
    # total_dim + 1, wherever that stays a small array
    cases = 0
    for p in SORTED_TARGET_BASES:
        for n in range(1, 31):
            spec = tensor_power_spectrum(np.array(p), n)
            cum = spec.view.cum_counts
            needs = {1, 2, 3} | {b + s for b in cum for s in (-1, 0, 1)}
            for need in sorted(x for x in needs if 1 <= x <= 1 << 12):
                probs, tail, log2_tail = _sorted_target(spec, need)
                want_probs, want_tail, want_log2_tail = sorted_target_by_runs(spec, need)
                assert probs.tobytes() == want_probs.tobytes(), (p, n, need)
                assert (tail, log2_tail) == (want_tail, want_log2_tail), (p, n, need)
                cases += 1
    assert cases > 1000


def test_concentrate_yield_below_entropy():
    for n in (8, 32, 64):
        res = concentrate(tensor_power_spectrum(P_QUARTER, n))
        assert res.expected_yield < n * E_QUARTER
        assert res.expected_yield > 0.0
    # the canonical base of an unsorted p is the same power
    unsorted = concentrate(tensor_power_spectrum(np.array([0.25, 0.75]), 64))
    assert unsorted.deficit == concentrate(tensor_power_spectrum(P_QUARTER, 64)).deficit


def _type_expansion_residual(p, n):
    # the deficit of a type measurement is ((d - 1)/2) log2(2 pi e n)
    # + (1/2) sum_i log2 p_i + O(1/n) when no two types share an eigenvalue
    p = np.array(p)
    res = concentrate(tensor_power_spectrum(p, n))
    want = (p.size - 1) / 2 * math.log2(2.0 * math.pi * math.e * n) + 0.5 * float(
        np.log2(p).sum()
    )
    return res.deficit - want


def test_concentrate_deficit_follows_the_d3_type_expansion():
    # the residual is -4.15e-3 at n = 100 and -2.04e-3 at n = 200
    resid = {n: _type_expansion_residual((0.5, 0.3, 0.2), n) for n in (100, 200)}
    assert abs(resid[200]) < 2.5e-3
    assert 0.4 < resid[200] / resid[100] < 0.6  # 1/n decay


def test_concentrate_deficit_follows_the_d4_type_expansion():
    # no two of the C(n + 3, 3) types collide on this base; the residual is
    # -3.72e-2 at n = 50 and -1.70e-2 at n = 100
    p = (0.47, 0.29, 0.15, 0.09)
    assert tensor_power_spectrum(np.array(p), 50).num_classes == math.comb(53, 3)
    resid = {n: _type_expansion_residual(p, n) for n in (50, 100)}
    assert abs(resid[100]) < 0.02
    assert 0.4 < resid[100] / resid[50] < 0.6  # 1/n decay


def test_certificate_consistent_on_a_real_run(quarter_spectra):
    spec = quarter_spectra[64]
    proto, _ = build_block_dilution(spec, 30, eps_target=0.1)
    outcomes, report = run_protocol(proto, spec)
    assert report.epsilon <= 0.1
    cert = verify_theorem_chain(outcomes[0], spec, report)
    assert cert.consistent
    assert cert.n == 64 and cert.c == 30
    assert cert.prob_qualifies and cert.witness_ok and cert.dp_ok
    assert cert.to_doc()["consistent"] is True


def test_reference_margin_is_not_positive(quarter_spectra):
    margin = CERT_DELTA_GAMMA / 4.0 - CERT_EPS0
    assert margin <= 0.0, (
        f"the reference margin delta_gamma / 4 - eps0 = {margin} turned positive: "
        "reference_margin, reference_implied_lower and reference_bound_ok must be "
        "computed again from each run"
    )
    family, _ = build_block_dilution(quarter_spectra[64], 30, eps_target=0.1)
    outcomes, report = run_protocol(family, quarter_spectra[64])
    doc = verify_theorem_chain(outcomes[0], quarter_spectra[64], report).to_doc()
    assert doc["reference_margin"] == margin
    assert doc["reference_implied_lower"] is None and doc["reference_bound_ok"] is True


@given(st.floats(min_value=0.0, max_value=2.0))
@example(0.0)
@example(2.0)
@settings(max_examples=200, deadline=None)
def test_certificate_envelopes_hold_for_every_error_in_range(err):
    # the two envelope checks every certificate declares true; a good
    # outcome's error lies in [0, 2]
    assert err < 2.0 * err + 1e-12
    assert err <= 2.0 * math.sqrt(max(0.0, err - err * err / 4.0)) + 1e-9


def test_certificate_rejects_bad_inputs(quarter_spectra):
    spec = quarter_spectra[64]
    proto, _ = build_block_dilution(spec, 30, eps_target=0.1)
    outcomes, report = run_protocol(proto, spec)
    bad = [o for o in outcomes if not o.good]
    if bad:
        with pytest.raises(ValidationError):
            verify_theorem_chain(bad[0], spec, report)
    with pytest.raises(DegenerateSpectrumError):
        verify_theorem_chain(outcomes[0], tensor_power_spectrum(np.array([0.5, 0.5]), 64), report)


def test_a_run_takes_n_from_its_target(quarter_spectra):
    spec = tensor_power_spectrum(P_QUARTER, 4)
    proto, _ = build_block_dilution(spec, 1, eps_target=0.1)
    assert run_protocol(proto, spec)[1].n == spec.n
    family, _ = build_block_dilution(quarter_spectra[64], 30, eps_target=0.1)
    assert run_protocol(family, quarter_spectra[64])[1].n == 64
    assert run_protocol(build_shift_dilution(P_QUARTER), P_QUARTER)[1].n is None


def test_dense_oracle_refuses_a_dimension_or_n_the_run_does_not_have():
    spec = tensor_power_spectrum(P_QUARTER, 2)
    proto, _ = build_block_dilution(spec, 1, eps_target=0.8)
    assert run_protocol_dense(proto, 4, spec, n=2)[1].n == 2
    with pytest.raises(ValidationError, match="n = 3"):
        run_protocol_dense(proto, 4, spec, n=spec.n + 1)
    with pytest.raises(ValidationError, match="input dimension"):
        run_protocol_dense(proto, 3, spec, n=2)


def test_certificate_reads_its_target_from_the_spectrum_alone(quarter_spectra):
    spec = quarter_spectra[256]
    family, _ = build_block_dilution(spec, 63, eps_target=0.1)
    outcomes, report = run_protocol(family, spec)
    assert verify_theorem_chain(outcomes[0], spec, report).consistent
    with pytest.raises(ValidationError, match="n = 256"):
        verify_theorem_chain(outcomes[0], quarter_spectra[1024], report)
    # same n and class sizes, other eigenvalues: the run misses this target
    other_spec = tensor_power_spectrum(np.array([0.6, 0.4]), 256)
    other = verify_theorem_chain(outcomes[0], other_spec, report)
    assert not other.dp_ok
    assert not other.consistent


def test_symbolic_run_refuses_a_foreign_target(quarter_spectra):
    family, _ = build_block_dilution(quarter_spectra[64], 30, eps_target=0.1)
    flat = np.array([0.5, 0.5])
    for target in (flat, SchmidtProfile(flat), quarter_spectra[256]):
        with pytest.raises(ValidationError, match="family's spectrum"):
            run_protocol(family, target)


def test_weight_vector_outcomes_are_runs_of_length_one(monkeypatch):
    # every (n, c) that materializes at p = (3/4, 1/4), scored once on its
    # weight vector and once as the symbolic family it was built from
    pairs = 0
    for n in range(2, 13):
        spec = tensor_power_spectrum(P_QUARTER, n)
        for c in range(n + 1):
            proto, _ = build_block_dilution(spec, c, eps_target=0.1)
            if not isinstance(proto, StandardFormProtocol):
                continue
            with monkeypatch.context() as mp:
                mp.setattr("entlab.locc.protocols.WEIGHTS_CAP", 0)
                family, _ = build_block_dilution(spec, c, eps_target=0.1)
            pairs += 1
            outs_w, rep_w = run_protocol(proto, spec)
            outs_s, rep_s = run_protocol(family, spec)
            assert abs(rep_w.epsilon - rep_s.epsilon) <= 1e-12
            good_w = next(o for o in outs_w if o.good)
            cert_w = verify_theorem_chain(good_w, spec, rep_w)
            cert_s = verify_theorem_chain(outs_s[0], spec, rep_s)
            for field in dataclasses.fields(cert_w):
                a, b = getattr(cert_w, field.name), getattr(cert_s, field.name)
                if isinstance(a, bool):
                    assert a == b, (n, c, field.name)
                else:
                    assert a == b or abs(a - b) <= 1e-12, (n, c, field.name, a, b)
    assert pairs == 80


def test_certificate_refuses_a_dense_oracle_outcome():
    spec = tensor_power_spectrum(P_QUARTER, 2)
    proto, _ = build_block_dilution(spec, 1, eps_target=0.8)
    outcomes, report = run_protocol_dense(proto, 4, spec, n=2)
    good = next(o for o in outcomes if o.good)
    with pytest.raises(ValidationError, match="no output profile"):
        verify_theorem_chain(good, spec, report)


@given(
    st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=16),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_shift_dilution_exactness_property(raw, seed):
    q = np.sort(np.array(raw, dtype=float) / sum(raw))[::-1]
    proto = build_shift_dilution(q)
    outcomes, report = run_protocol(proto, q)
    assert report.epsilon <= 1e-12
    assert report.s == 0.0
    assert abs(sum(o.prob for o in outcomes) - 1.0) < 1e-9
