"""Reduction of arbitrary programs to measure-send-correct form."""

import math

import numpy as np
import pytest

from entlab import PureBipartiteState, ValidationError
from entlab.locc import (
    ApplyUnitary,
    Measure,
    ProtocolIR,
    Send,
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
