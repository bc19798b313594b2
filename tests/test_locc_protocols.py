"""Dilution builders, the outcome runner, concentration, and certificates."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entlab import (
    CapExceededError,
    DegenerateSpectrumError,
    SchmidtProfile,
    ValidationError,
    tensor_power_spectrum,
)
from entlab.locc import (
    DiagonalKraus,
    StandardFormProtocol,
    build_block_dilution,
    build_shift_dilution,
    concentrate,
    lift_success_probability,
    run_protocol,
    run_protocol_dense,
    verify_theorem_chain,
)
from oracles import block_dilution_by_pieces, completeness_defect, diagonal_kraus_dense

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
    dense = [diagonal_kraus_dense(op.weights, op.perm) for op in proto.alice_ops]
    assert completeness_defect(dense, d) < 1e-12

    outcomes, report = run_protocol(proto, d, q)
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
    _, rw = run_protocol(proto, 4, q)
    _, rd = run_protocol_dense(proto, 4, q)
    assert rw.epsilon <= 1e-12
    assert abs(rd.epsilon - rw.epsilon) < 1e-10
    assert rd.s == 0.0


def test_run_protocol_rejects_non_diagonal_protocols():
    # a dense standard-form program is checked by run_standard_form instead
    eye = np.eye(2, dtype=complex)
    proto = StandardFormProtocol(
        dim_a=2, dim_b=2, alice_ops=(eye,), bob_corrections=(eye,), message_bits=0
    )
    q = np.array([0.75, 0.25])
    with pytest.raises(ValidationError, match="run_standard_form"):
        run_protocol(proto, 2, q)
    with pytest.raises(ValidationError, match="run_standard_form"):
        run_protocol_dense(proto, 2, q)


def test_shift_dilution_rejects_bad_profiles():
    with pytest.raises(ValidationError):
        build_shift_dilution(np.array([0.7, 0.7]))
    with pytest.raises(ValidationError):
        build_shift_dilution(np.array([]))


def test_block_dilution_hand_case_budget_one():
    # kept prefix 3 of 4 dims, one message bit: two blocks of two positions,
    # flattened profile (6/16, 6/16, 2/16, 2/16)
    spec = tensor_power_spectrum(P_QUARTER, 2)
    proto, terr = build_block_dilution(spec, 1, eps_target=0.8)
    assert proto.dim_a == 4
    assert len(proto.alice_ops) == 2
    assert proto.message_bits == 1
    assert abs(terr - BLOCK_ERR_BUDGET1) < 1e-12
    flat = np.array([6.0, 6.0, 2.0, 2.0]) / 16.0
    assert np.abs(proto.alice_ops[0].weights - 2.0 * flat).max() < 1e-12

    outcomes, report = run_protocol(proto, 4, spec, n=2)
    assert report.c == 1
    assert abs(report.epsilon - BLOCK_ERR_BUDGET1) < 1e-12
    assert abs(report.s) < 1e-12
    assert abs(sum(o.prob * o.multiplicity for o in outcomes) - 1.0) < 1e-12


def test_block_dilution_hand_case_budget_zero():
    # no message: truncate to the kept prefix and renormalize
    spec = tensor_power_spectrum(P_QUARTER, 2)
    proto, terr = build_block_dilution(spec, 0, eps_target=0.8)
    assert proto.dim_a == 3
    assert len(proto.alice_ops) == 1
    assert proto.message_bits == 0
    assert abs(terr - BLOCK_ERR_BUDGET0) < 1e-12
    _, report = run_protocol(proto, 3, spec, n=2)
    assert abs(report.epsilon - BLOCK_ERR_BUDGET0) < 1e-12


def test_block_dilution_dense_agreement_and_completeness():
    spec = tensor_power_spectrum(P_QUARTER, 2)
    proto, terr = build_block_dilution(spec, 1, eps_target=0.8)
    dense = [diagonal_kraus_dense(op.weights, op.perm) for op in proto.alice_ops]
    assert completeness_defect(dense, 4) < 1e-10
    _, rw = run_protocol(proto, 4, spec, n=2)
    _, rd = run_protocol_dense(proto, 4, spec, n=2)
    assert abs(rw.epsilon - terr) < 1e-12
    assert abs(rd.epsilon - terr) < 1e-12


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
    assert len(proto.alice_ops) == 4
    assert terr == 0.0
    _, report = run_protocol(proto, 4, spec, n=2)
    assert report.epsilon == 0.0
    assert report.s == 0.0
    assert report.c == 2


# c*(n) at p = (3/4, 1/4) and epsilon 0.1
C_STAR_QUARTER = {8: 8, 64: 30, 1024: 129, 4096: 264}


def assert_split_matches_oracle(monkeypatch, spec, budget, eps):
    proto, predicted = build_block_dilution(spec, budget, eps_target=eps)
    with monkeypatch.context() as mp:
        mp.setattr("entlab.locc.protocols.WEIGHTS_CAP", 0)
        family, _ = build_block_dilution(spec, budget, eps_target=eps)
    d1 = spec.view.sig_dim(1.0 - eps * eps / 8.0)[0]
    runs, tail, error = block_dilution_by_pieces(
        spec.exact_mults, spec.log2_eigs, spec.log2_masses, d1, budget
    )
    assert family.x_runs == runs, (spec.n, budget)
    assert family.tail_log2_mass == tail
    assert family.target_error == error == predicted
    return proto


def test_block_split_matches_the_per_piece_oracle(monkeypatch):
    kinds = set()
    for n, c_star in C_STAR_QUARTER.items():
        spec = tensor_power_spectrum(P_QUARTER, n)
        clamp = (spec.view.sig_dim(1.0 - 0.1 * 0.1 / 8.0)[0] - 1).bit_length()
        for budget in sorted({0, 1, c_star - 1, c_star, c_star + 1, clamp, clamp + 5}):
            proto = assert_split_matches_oracle(monkeypatch, spec, budget, 0.1)
            kinds.add(type(proto).__name__)
    assert kinds == {"StandardFormProtocol", "BlockShiftFamily"}
    for p, ns in (((0.5, 0.3, 0.2), (2, 5, 9, 14)), ((0.4, 0.3, 0.2, 0.1), (3, 6, 10))):
        for n in ns:
            spec = tensor_power_spectrum(np.array(p), n)
            for budget in range(0, 2 * n + 3):
                for eps in (0.05, 0.3):
                    assert_split_matches_oracle(monkeypatch, spec, budget, eps)


def junk_complement_protocol():
    """One good outcome at probability 1/8, two pure leftovers."""
    q = np.array([0.75, 0.25])
    ops = (
        DiagonalKraus(weights=q / 4.0, perm=np.array([0, 1])),
        DiagonalKraus(weights=np.array([1.0 - q[0] / 4.0, 0.0]), perm=np.array([0, 1])),
        DiagonalKraus(weights=np.array([0.0, 1.0 - q[1] / 4.0]), perm=np.array([0, 1])),
    )
    return StandardFormProtocol(dim_a=2, dim_b=2, alice_ops=ops, message_bits=2), q


def test_succeed_or_flag_run_reports_s():
    proto, q = junk_complement_protocol()
    outcomes, report = run_protocol(proto, 2, q)
    assert report.s == 3.0  # one good outcome of probability exactly 1/8
    assert report.epsilon == 0.0
    good = [o for o in outcomes if o.good]
    assert len(good) == 1 and abs(good[0].prob - 0.125) < 1e-15


def test_lift_success_probability_hand_case():
    proto, q = junk_complement_protocol()
    _, report = run_protocol(proto, 2, q)
    lifted = lift_success_probability(report, 0.01)
    assert lifted.repetitions == 37  # ceil(8 ln 100)
    assert lifted.c == report.c + 6  # 36.bit_length()
    assert abs(lifted.s - (-math.log2(0.99))) < 1e-15
    want_fail = float(Fraction(7, 8) ** 37)
    assert abs(lifted.failure_bound - want_fail) < 1e-15
    assert lifted.failure_bound <= 0.01
    assert lifted.ebits_consumed == 37.0 * report.ebits_consumed


def test_lift_rejects_hopeless_runs():
    proto, q = junk_complement_protocol()
    _, report = run_protocol(proto, 2, q)
    with pytest.raises(ValidationError):
        lift_success_probability(report, 0.0)
    with pytest.raises(ValidationError):
        lift_success_probability(report, 1.0)


def test_concentrate_hand_case():
    res = concentrate(tensor_power_spectrum(P_QUARTER, 2))
    assert res.n == 2
    assert abs(res.entropy_rate - E_QUARTER) < 1e-12
    assert abs(res.expected_yield - 0.375) < 1e-15  # 6/16 of one ebit
    mid = [e for e in res.entries if e.log2_multiplicity > 0.5]
    assert len(mid) == 1
    assert abs(mid[0].prob - 0.375) < 1e-15
    assert abs(mid[0].log2_multiplicity - 1.0) < 1e-15


def test_concentrate_yield_below_entropy():
    for n in (8, 32, 64):
        res = concentrate(tensor_power_spectrum(P_QUARTER, n))
        assert res.expected_yield < n * E_QUARTER
        assert res.expected_yield > 0.0
    # the canonical base of an unsorted p is the same power
    unsorted = concentrate(tensor_power_spectrum(np.array([0.25, 0.75]), 64))
    assert unsorted.deficit == concentrate(tensor_power_spectrum(P_QUARTER, 64)).deficit


def test_concentrate_deficit_follows_the_d3_type_expansion():
    # the deficit of a type measurement is ((d - 1)/2) log2(2 pi e n)
    # + (1/2) sum_i log2 p_i + O(1/n); at d = 3 the residual is -4.15e-3
    # at n = 100 and -2.04e-3 at n = 200
    p = np.array([0.5, 0.3, 0.2])
    resid = {}
    for n in (100, 200):
        res = concentrate(tensor_power_spectrum(p, n))
        want = (p.size - 1) / 2 * math.log2(2.0 * math.pi * math.e * n) + 0.5 * float(
            np.log2(p).sum()
        )
        resid[n] = res.deficit - want
    assert abs(resid[200]) < 2.5e-3
    assert 0.4 < resid[200] / resid[100] < 0.6  # 1/n decay


def test_certificate_consistent_on_a_real_run(quarter_spectra):
    spec = quarter_spectra[64]
    proto, _ = build_block_dilution(spec, 30, eps_target=0.1)
    outcomes, report = run_protocol(proto, proto.d_prime, spec, n=64)
    assert report.epsilon <= 0.1
    cert = verify_theorem_chain(outcomes[0], spec, report)
    assert cert.consistent
    assert cert.n == 64 and cert.c == 30
    assert cert.prob_qualifies and cert.witness_ok and cert.dp_ok
    doc = cert.to_json()
    assert '"consistent": true' in doc


def test_certificate_rejects_bad_inputs(quarter_spectra):
    spec = quarter_spectra[64]
    proto, _ = build_block_dilution(spec, 30, eps_target=0.1)
    outcomes, report = run_protocol(proto, proto.d_prime, spec, n=64)
    bad = [o for o in outcomes if not o.good]
    if bad:
        with pytest.raises(ValidationError):
            verify_theorem_chain(bad[0], spec, report)
    with pytest.raises(DegenerateSpectrumError):
        verify_theorem_chain(outcomes[0], tensor_power_spectrum(np.array([0.5, 0.5]), 64), report)


def test_symbolic_run_refuses_a_foreign_target(quarter_spectra):
    family, _ = build_block_dilution(quarter_spectra[64], 30, eps_target=0.1)
    flat = np.array([0.5, 0.5])
    for target in (flat, SchmidtProfile(flat), quarter_spectra[256]):
        with pytest.raises(ValidationError, match="family's spectrum"):
            run_protocol(family, family.d_prime, target, n=64)


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
            outs_w, rep_w = run_protocol(proto, proto.dim_a, spec, n=n)
            outs_s, rep_s = run_protocol(family, family.d_prime, spec, n=n)
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
    outcomes, report = run_protocol(proto, q.size, q)
    assert report.epsilon <= 1e-12
    assert report.s == 0.0
    assert abs(sum(o.prob for o in outcomes) - 1.0) < 1e-9
