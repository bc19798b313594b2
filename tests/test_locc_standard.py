"""Reduction of arbitrary programs to measure-send-correct form."""

import dataclasses
import hashlib
import importlib.util
import math
import os
import tracemalloc

import numpy as np
import pytest

from entlab import PureBipartiteState, ValidationError, partial_trace
from entlab.locc import (
    AddAncilla,
    ApplyUnitary,
    Discard,
    Measure,
    ProtocolIR,
    Send,
    StandardizedProgram,
    build_shift_dilution,
    compare_ensembles,
    group_by_message,
    random_toy_ir,
    run_standard_form,
    simulate_dense,
    standardize,
)
from entlab.sampling import random_pure, random_unitary
from oracles import completeness_defect

X = np.array([[0.0, 1.0], [1.0, 0.0]])
PHI2 = PureBipartiteState(2, 2, np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2))


def test_standardize_hand_protocol():
    ir = ProtocolIR(
        2,
        2,
        (
            Measure("A", 0, "m"),
            Send("m", "A", "B"),
            ApplyUnitary("B", (0,), control="m", cases=(np.eye(2), X)),
        ),
    )
    sf = standardize(ir, PHI2)
    assert sf.message_bits == ir.message_bits() == 1
    tv, worst = compare_ensembles(
        run_standard_form(sf, PHI2), group_by_message(simulate_dense(ir, PHI2))
    )
    assert tv < 1e-9
    assert worst < 1e-9


def test_standardize_checks_dimensions():
    ir = ProtocolIR(2, 2, (Measure("A", 0, "m"),))
    with pytest.raises(ValidationError):
        standardize(ir, PureBipartiteState(3, 3, np.eye(3).reshape(-1) / math.sqrt(3)))


def test_standardized_measurement_is_complete():
    gen = np.random.default_rng(101)
    for _ in range(10):
        ir = random_toy_ir(gen, max_dim=3, rounds=2)
        amp = random_pure(gen, ir.dim_a * ir.dim_b).reshape(ir.dim_a, ir.dim_b)
        st = PureBipartiteState(ir.dim_a, ir.dim_b, amp)
        sf = standardize(ir, st)
        dense = [np.asarray(m) for m in sf.alice_ops]
        d = dense[0].shape[1]
        assert completeness_defect(dense, d) < 1e-10


def test_standardize_battery_against_dense_simulator():
    """40 seeded programs: the collapsed one-measurement form must produce
    the same message ensemble as branch-by-branch simulation."""
    gen = np.random.default_rng(303)
    worst_tv = worst_d = 0.0
    for _ in range(40):
        ir = random_toy_ir(gen, max_dim=4, rounds=3)
        amp = random_pure(gen, ir.dim_a * ir.dim_b).reshape(ir.dim_a, ir.dim_b)
        st = PureBipartiteState(ir.dim_a, ir.dim_b, amp)
        sf = standardize(ir, st)
        assert sf.message_bits == ir.message_bits()
        tv, worst = compare_ensembles(
            run_standard_form(sf, st), group_by_message(simulate_dense(ir, st))
        )
        worst_tv = max(worst_tv, tv)
        worst_d = max(worst_d, worst)
    assert worst_tv < 1e-11
    assert worst_d < 1e-11


def _check_exact_reduction(ir, state):
    # no refusal, a complete measurement and the simulator's ensemble
    sf = standardize(ir, state)
    dense = [np.asarray(m) for m in sf.alice_ops]
    assert completeness_defect(dense, sf.full_dim_a) < 1e-10
    tv, worst = compare_ensembles(
        run_standard_form(sf, state), group_by_message(simulate_dense(ir, state))
    )
    assert tv < 1e-9
    assert worst < 1e-9


@pytest.mark.parametrize("x", [1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 0.0])
def test_bob_sent_measurement_with_a_tiny_schmidt_coefficient(x):
    """Bob measures in a random basis and sends; Alice applies a controlled
    unitary. An input Schmidt coefficient x times the largest, under random
    local bases, must neither break completeness nor be refused."""
    coeffs = np.array([1.0, 0.6, x])
    gen = np.random.default_rng(1800)
    for _ in range(5):
        amp = random_unitary(gen, 3) @ np.diag(coeffs / np.linalg.norm(coeffs))
        amp = amp @ random_unitary(gen, 3).T
        ir = ProtocolIR(
            3,
            3,
            (
                Measure("B", 0, "m", random_unitary(gen, 3)),
                Send("m", "B", "A"),
                ApplyUnitary(
                    "A", (0,), control="m", cases=tuple(random_unitary(gen, 3) for _ in range(3))
                ),
            ),
        )
        _check_exact_reduction(ir, PureBipartiteState(3, 3, amp))


def test_standardize_battery_on_graded_schmidt_coefficients():
    """40 seeded programs on inputs whose smaller Schmidt coefficients are
    10^-U(5,10) times the largest, under random local bases."""
    gen = np.random.default_rng(1801)
    for _ in range(40):
        ir = random_toy_ir(gen, max_dim=4, rounds=3)
        k = min(ir.dim_a, ir.dim_b)
        coeffs = np.concatenate(([1.0], 10.0 ** -gen.uniform(5.0, 10.0, k - 1)))
        left = random_unitary(gen, ir.dim_a)[:, :k]
        right = random_unitary(gen, ir.dim_b)[:, :k]
        amp = (left * (coeffs / np.linalg.norm(coeffs))) @ right.T
        _check_exact_reduction(ir, PureBipartiteState(ir.dim_a, ir.dim_b, amp))


def test_run_standard_form_rejects_diagonal_protocols():
    # the dense cross-check needs dense operators; shift protocols are
    # weight-coded and run through the dedicated runner instead
    proto = build_shift_dilution(np.array([0.75, 0.25]))
    with pytest.raises(ValidationError):
        run_standard_form(proto, PHI2)


def test_standard_form_probabilities_sum_to_one():
    gen = np.random.default_rng(11801)
    ir = random_toy_ir(gen, max_dim=4, rounds=3)
    amp = random_pure(gen, ir.dim_a * ir.dim_b).reshape(ir.dim_a, ir.dim_b)
    st = PureBipartiteState(ir.dim_a, ir.dim_b, amp)
    out = run_standard_form(standardize(ir, st), st)
    assert abs(sum(p for p, _ in out.values()) - 1.0) < 1e-9


def test_register_layout_of_a_hand_program():
    """Each party's records that are never sent get registers after all of
    its ancillas, in instruction order, start in |0> and are discarded."""
    gen = np.random.default_rng(1901)
    anc_a1, anc_a2, anc_b = random_pure(gen, 3), random_pure(gen, 2), random_pure(gen, 2)
    ir = ProtocolIR(
        2,
        2,
        (
            AddAncilla("A", 3, anc_a1),
            AddAncilla("B", 2, anc_b),
            Measure("B", 0, "b0"),
            Measure("A", 1, "a1", random_unitary(gen, 3)),
            Measure("A", 0, "a0"),
            Send("a0", "A", "B"),
            ApplyUnitary("B", (1,), control="a0", cases=(np.eye(2), X)),
            AddAncilla("A", 2, anc_a2),
            Measure("A", 2, "a2"),
            Discard("A", 1),
            Discard("B", 1),
        ),
    )
    sf = standardize(ir, PHI2)
    assert sf.reg_dims_a == (2, 3, 2, 3, 2)
    assert sf.reg_dims_b == (2, 2, 2)
    assert sf.discard_a == (1, 3, 4)
    assert sf.discard_b == (1, 2)
    want_a = (anc_a1, anc_a2, np.eye(3)[0], np.eye(2)[0])
    want_b = (anc_b, np.eye(2)[0])
    for got, want in ((sf.anc_states_a, want_a), (sf.anc_states_b, want_b)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
    assert sf.messages == ((0,), (1,)) and sf.message_bits == 1
    _check_exact_reduction(ir, PHI2)


# sha256 over the integer fields of 200 standardized random programs
LAYOUT_SHA256 = "4c4ad6472084b44d5b05dc13edcb8d82ac2f3906e8078731ed11ebff5d80759c"


def test_register_layout_of_random_programs():
    gen = np.random.default_rng(505)
    h = hashlib.sha256()
    for _ in range(200):
        ir = random_toy_ir(gen)
        amp = random_pure(gen, ir.dim_a * ir.dim_b).reshape(ir.dim_a, ir.dim_b)
        sf = standardize(ir, PureBipartiteState(ir.dim_a, ir.dim_b, amp))
        fields = (
            sf.reg_dims_a,
            sf.reg_dims_b,
            sf.discard_a,
            sf.discard_b,
            len(sf.anc_states_a),
            len(sf.anc_states_b),
            sf.messages,
            sf.message_bits,
        )
        h.update(repr(fields).encode())
    assert h.hexdigest() == LAYOUT_SHA256


def _program(alice_ops, corrections, messages, bits=1, dim=2):
    return StandardizedProgram(
        dim_a=dim,
        dim_b=dim,
        alice_ops=tuple(alice_ops),
        message_bits=bits,
        bob_corrections=tuple(corrections),
        messages=tuple(messages),
        reg_dims_a=(dim,),
        reg_dims_b=(dim,),
    )


def test_standardized_program_refusals():
    eye = np.eye(2, dtype=complex)
    with pytest.raises(ValidationError, match="empty measurement"):
        _program((), (), ())
    with pytest.raises(ValidationError, match="operator dimension mismatch"):
        _program((eye, np.eye(3)), (eye, eye), ((0,), (1,)))
    with pytest.raises(ValidationError, match="completeness defect"):
        _program((eye, eye), (eye, eye), ((0,), (1,)))
    with pytest.raises(ValidationError, match="correction dimension mismatch"):
        _program((eye,), (np.eye(3),), ((0,),))
    with pytest.raises(ValidationError, match="correction not unitary"):
        _program((eye,), (2.0 * eye,), ((0,),))


def test_corrections_are_checked_one_at_a_time():
    """K = 8 identity corrections on a 128-dim Bob block hold 2.1 MB; their
    unitarity check takes them one at a time, with no stacked copy, and
    peaks at under 1.5 times that."""
    k, fb = 8, 128
    corrections = tuple(np.eye(fb, dtype=complex) for _ in range(k))
    alice = tuple(math.sqrt(1.0 / k) * np.eye(2, dtype=complex) for _ in range(k))
    messages = tuple((i,) for i in range(k))
    tracemalloc.start()
    try:
        StandardizedProgram(
            dim_a=2, dim_b=fb, alice_ops=alice, message_bits=3, bob_corrections=corrections,
            messages=messages, reg_dims_a=(2,), reg_dims_b=(fb,),
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * sum(u.nbytes for u in corrections), peak


@pytest.mark.parametrize("defect, ok", [(0.9e-10, True), (1.1e-10, False)])
def test_standardized_program_defect_thresholds(defect, ok):
    """sqrt(1 + x) I has Gram defect x: 1e-10 is the largest accepted,
    for the measurement's completeness and for each correction alike."""
    eye = np.eye(2, dtype=complex)
    off = math.sqrt(1.0 + defect) * eye
    half = math.sqrt(0.5) * eye
    cases = (
        (((off,), (eye,), ((0,),)), "completeness defect"),
        (((half, half), (eye, off), ((0,), (1,))), "correction not unitary"),
    )
    for args, text in cases:
        if ok:
            _program(*args)
        else:
            with pytest.raises(ValidationError, match=text):
                _program(*args)


def test_standardized_program_gate_is_the_operator_norm():
    """Six equal defects of 0.5e-10 have Frobenius norm 1.22e-10 but
    operator norm 0.5e-10, so they pass; a refusal of six 2e-10 defects
    reports the operator norm 2e-10, not the Frobenius norm 4.9e-10."""
    k = 6
    eye = np.eye(k, dtype=complex)
    half = math.sqrt(0.5) * eye
    for defect, ok in ((0.5e-10, True), (2e-10, False)):
        off = math.sqrt(1.0 + defect) * eye
        cases = (
            (((off,), (eye,), ((0,),)), "completeness defect"),
            (((half, half), (eye, off), ((0,), (1,))), "correction not unitary"),
        )
        assert math.sqrt(k) * defect > 1e-10
        for args, text in cases:
            if ok:
                _program(*args, dim=k)
            else:
                with pytest.raises(ValidationError, match=text) as err:
                    _program(*args, dim=k)
                if text == "completeness defect":
                    assert abs(float(str(err.value).rsplit(" ", 1)[1]) - defect) < 1e-15


@pytest.mark.parametrize("defect, ok", [(0.9e-10, True), (1.1e-10, False)])
def test_completeness_summed_over_several_operators_keeps_its_threshold(defect, ok):
    """Three operators sqrt((1 + x) / 3) I, summed one at a time, have
    Gram defect x: accepted at 0.9e-10, refused at 1.1e-10."""
    op = math.sqrt((1.0 + defect) / 3.0) * np.eye(3, dtype=complex)
    args = ((op, op, op), (np.eye(3),) * 3, ((0,), (1,), (2,)))
    if ok:
        _program(*args, bits=2, dim=3)
    else:
        with pytest.raises(ValidationError, match="completeness defect") as err:
            _program(*args, bits=2, dim=3)
        assert abs(float(str(err.value).rsplit(" ", 1)[1]) - defect) < 1e-15


@pytest.mark.parametrize("nan", [float("nan"), complex(0.0, float("nan"))])
def test_standardized_program_refuses_non_finite_defects(nan):
    """A nan in an operator or a correction makes its defect nan, which
    is refused as non-finite, not passed as small."""
    eye = np.eye(2, dtype=complex)
    bad = eye.copy()
    bad[0, 1] = nan
    half = math.sqrt(0.5) * eye
    for args in (((bad,), (eye,), ((0,),)), ((half, half), (eye, bad), ((0,), (1,)))):
        with pytest.raises(ValidationError, match="non-finite entries"):
            _program(*args)


def test_run_standard_form_merges_outcomes_that_share_a_message():
    """Outcomes 0 and 1 both send (0,): one entry with their summed
    probability and probability-weighted mixture."""
    gen = np.random.default_rng(2602)
    projs = [np.diag(e).astype(complex) for e in np.eye(3)]
    corrections = [random_unitary(gen, 3) for _ in range(3)]
    messages = ((0,), (0,), (1,))
    proto = _program(projs, corrections, messages, bits=2, dim=3)
    st = PureBipartiteState(3, 3, random_pure(gen, 9))
    out = run_standard_form(proto, st)
    assert list(out) == [(0,), (1,)]
    chi = st.as_matrix()
    for msg, ks in (((0,), (0, 1)), ((1,), (2,))):
        vecs = [(projs[k] @ chi @ corrections[k].T).reshape(-1) for k in ks]
        p = sum(float(np.vdot(v, v).real) for v in vecs)
        rho = sum(np.outer(v, v.conj()) for v in vecs) / p
        assert abs(out[msg][0] - p) < 1e-12
        assert np.abs(partial_trace(out[msg][1], "B").mat - rho).max() < 1e-12


def test_changing_the_callers_arrays_after_construction_changes_no_result():
    """The simulator and the reduction run the gates, cases and ancilla
    states validation checked, not the caller's arrays, which the caller
    may change afterwards."""
    gen = np.random.default_rng(2901)
    u = np.eye(2, dtype=complex)
    case = random_unitary(gen, 2)
    anc = random_pure(gen, 2)
    ir = ProtocolIR(
        2,
        2,
        (
            AddAncilla("A", 2, anc),
            ApplyUnitary("A", (0,), matrix=u),
            Measure("A", 1, "k"),
            ApplyUnitary("A", (0,), control="k", cases=(case, np.eye(2))),
            Measure("A", 0, "m"),
            Send("m", "A", "B"),
            ApplyUnitary("B", (0,), control="m", cases=(np.eye(2), X)),
        ),
    )
    st = PureBipartiteState(2, 2, random_pure(gen, 4))

    def results():
        sim = group_by_message(simulate_dense(ir, st))
        return sim, run_standard_form(standardize(ir, st), st)

    sim, std = results()
    u[0, 0] = 5.0
    case[:] = 3.0
    anc[:] = 2.0
    sim2, std2 = results()
    for a, b in ((sim, sim2), (std, std2)):
        assert compare_ensembles(a, b) == (0.0, 0.0)


def _traced(fn, *args):
    # fn's result, the bytes it still holds when it returns and its traced peak
    tracemalloc.start()
    try:
        out = fn(*args)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, current, peak


def test_standard_form_memory_on_the_batterys_largest_program():
    """Battery program 81 (seed 505; K = 12 outcomes on fa = 144) sets the
    benchmark battery's peak memory. standardize peaks at under twice the
    operators it returns, and run_standard_form allocates under 1 MB beyond
    what it returns; the ensemble still matches the simulator's."""
    programs = np.random.default_rng(505)
    for _ in range(82):
        ir = random_toy_ir(programs, max_dim=4, rounds=3)
    amp = random_pure(np.random.default_rng(1), ir.dim_a * ir.dim_b)
    st = PureBipartiteState(ir.dim_a, ir.dim_b, amp)
    sf, _, peak = _traced(standardize, ir, st)
    assert (len(sf.alice_ops), sf.full_dim_a) == (12, 144)
    assert peak <= 2 * sum(m.nbytes for m in sf.alice_ops)
    ens, current, peak = _traced(run_standard_form, sf, st)
    assert peak - current <= 2**20
    tv, worst = compare_ensembles(ens, group_by_message(simulate_dense(ir, st)))
    assert tv < 1e-9 and worst < 1e-9


def _sweep_script():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "standard_form_sweep.py")
    spec = importlib.util.spec_from_file_location("standard_form_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_standard_form_sweep_script_finds_a_broken_reduction(monkeypatch):
    """The sweep passes its first 20 programs, and fails them once Bob's
    corrections are dropped from every standardized program."""
    sweep = _sweep_script()
    assert sweep.sweep(20)[2] == []
    real = sweep.standardize

    def without_corrections(ir, st):
        sf = real(ir, st)
        eye = np.eye(sf.full_dim_b)
        return dataclasses.replace(sf, bob_corrections=(eye,) * len(sf.alice_ops))

    monkeypatch.setattr(sweep, "standardize", without_corrections)
    assert sweep.sweep(20)[2]
