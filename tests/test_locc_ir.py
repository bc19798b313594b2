"""Protocol IR validation and the dense branch-tree simulator."""

import math

import numpy as np
import pytest

from entlab import CapExceededError, PureBipartiteState, ValidationError, partial_trace
from entlab.locc import (
    AddAncilla,
    ApplyUnitary,
    Discard,
    Measure,
    ProtocolIR,
    Send,
    compare_ensembles,
    group_by_message,
    random_toy_ir,
    simulate_dense,
)
from entlab.locc.ir import apply_on_axes
from entlab.sampling import random_pure, random_unitary
from oracles import (
    dense_trace_distance,
    embed_operator_by_kron,
    group_by_message_by_branch,
    simulate_by_branch,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]])
PHI2 = PureBipartiteState(2, 2, np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2))


def correction_ir():
    """Alice measures her half of a singlet, Bob undoes the flip."""
    return ProtocolIR(
        2,
        2,
        (
            Measure("A", 0, "m"),
            Send("m", "A", "B"),
            ApplyUnitary("B", (0,), control="m", cases=(np.eye(2), X)),
        ),
    )


def test_correction_protocol_branches():
    res = simulate_dense(correction_ir(), PHI2)
    assert len(res.branches) == 2
    for br in res.branches:
        assert abs(br.prob - 0.5) < 1e-12
        # Alice's frozen register shows the outcome, Bob's is corrected to |0>
        k = dict(br.records)["m"]
        alice = np.zeros((2, 2))
        alice[k, k] = 1.0
        want = np.kron(alice, np.diag([1.0, 0.0]))
        assert np.abs(br.output.mat - want).max() < 1e-9
    assert {br.message for br in res.branches} == {(0,), (1,)}


def test_message_bit_count():
    ir = correction_ir()
    assert ir.message_bits() == 1
    silent = ProtocolIR(2, 2, (Measure("A", 0, "m"),))
    assert silent.message_bits() == 0


def test_group_by_message_probabilities():
    res = simulate_dense(correction_ir(), PHI2)
    groups = group_by_message(res)
    assert abs(sum(p for p, _ in groups.values()) - 1.0) < 1e-9
    tv, worst = compare_ensembles(groups, groups)
    assert tv == 0.0 and worst == 0.0


def test_measurement_in_rotated_basis():
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    ir = ProtocolIR(2, 2, (Measure("A", 0, "m", basis=h),))
    prod = PureBipartiteState(2, 2, np.array([1.0, 0.0, 0.0, 0.0]))
    res = simulate_dense(ir, prod)
    # |0> meets the Hadamard basis: both outcomes at 1/2
    assert sorted(round(br.prob, 12) for br in res.branches) == [0.5, 0.5]


def test_ancilla_and_discard_round_trip():
    ir = ProtocolIR(
        2,
        2,
        (
            AddAncilla("B", 3, np.array([0.0, 1.0, 0.0])),
            ApplyUnitary("A", (0,), matrix=X),
            Discard("B", 1),
        ),
    )
    res = simulate_dense(ir, PHI2)
    assert len(res.branches) == 1
    br = res.branches[0]
    assert abs(br.prob - 1.0) < 1e-12
    assert br.output.dim == 4  # ancilla discarded, two qubits remain
    # X on Alice's half of a singlet keeps a maximally entangled state
    flipped = np.kron(X, np.eye(2)) @ PHI2.amp
    want = np.outer(flipped, flipped.conj())
    assert np.abs(br.output.mat - want).max() < 1e-9


def test_validation_rejects_malformed_programs():
    with pytest.raises(ValidationError):
        # unknown record on the controlled unitary
        ProtocolIR(2, 2, (ApplyUnitary("B", (0,), control="m", cases=(np.eye(2), X)),))
    with pytest.raises(ValidationError):
        # control known only to the measuring party until sent
        ProtocolIR(
            2,
            2,
            (
                Measure("A", 0, "m"),
                ApplyUnitary("B", (0,), control="m", cases=(np.eye(2), X)),
            ),
        )
    with pytest.raises(ValidationError):
        # measuring a register twice
        ProtocolIR(2, 2, (Measure("A", 0, "m"), Measure("A", 0, "k")))
    with pytest.raises(ValidationError):
        # non-unitary matrix
        ProtocolIR(2, 2, (ApplyUnitary("A", (0,), matrix=np.ones((2, 2))),))
    with pytest.raises(ValidationError):
        ProtocolIR(2, 2, (Measure("C", 0, "m"),))


def test_simulate_rejects_mismatched_input():
    ir = correction_ir()
    with pytest.raises(ValidationError):
        simulate_dense(ir, PureBipartiteState(3, 2, np.eye(3, 2).reshape(-1) / math.sqrt(2)))


def test_embed_operator_matches_kron():
    dims = (2, 3)
    a = np.arange(4, dtype=complex).reshape(2, 2)
    big = embed_operator_by_kron(a, dims, (0,))
    assert np.abs(big - np.kron(a, np.eye(3))).max() < 1e-12
    b = np.arange(9, dtype=complex).reshape(3, 3)
    big = embed_operator_by_kron(b, dims, (1,))
    assert np.abs(big - np.kron(np.eye(2), b)).max() < 1e-12


def test_embed_operator_reorders_targets():
    dims = (2, 2)
    cnot = np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ],
        dtype=complex,
    )
    # control on register 1, target register 0
    swapped = embed_operator_by_kron(cnot, dims, (1, 0))
    perm = np.zeros((4, 4), dtype=complex)
    # basis order |r0 r1>: amplitudes map 01->11, 11->01
    perm[0, 0] = perm[2, 2] = 1.0
    perm[3, 1] = perm[1, 3] = 1.0
    assert np.abs(swapped - perm).max() < 1e-12


def test_branch_probabilities_always_normalize():
    gen = np.random.default_rng(59)
    for _ in range(30):
        ir = random_toy_ir(gen, max_dim=4, rounds=3)
        amp = random_pure(gen, ir.dim_a * ir.dim_b).reshape(ir.dim_a, ir.dim_b)
        res = simulate_dense(ir, PureBipartiteState(ir.dim_a, ir.dim_b, amp))
        assert abs(sum(br.prob for br in res.branches) - 1.0) < 1e-9
        for br in res.branches:
            assert abs(np.trace(br.output.mat).real - 1.0) < 1e-9


def test_random_toy_ir_is_seed_deterministic():
    a = random_toy_ir(np.random.default_rng(77), max_dim=4, rounds=3)
    b = random_toy_ir(np.random.default_rng(77), max_dim=4, rounds=3)
    assert a.dim_a == b.dim_a and a.dim_b == b.dim_b
    assert len(a.instructions) == len(b.instructions)
    st = PureBipartiteState(
        a.dim_a, a.dim_b, random_pure(np.random.default_rng(1), a.dim_a * a.dim_b)
    )
    ga = group_by_message(simulate_dense(a, st))
    gb = group_by_message(simulate_dense(b, st))
    tv, worst = compare_ensembles(ga, gb)
    assert tv < 1e-12 and worst < 1e-12


def _programs(seed, count):
    gen = np.random.default_rng(seed)
    for _ in range(count):
        ir = random_toy_ir(gen, max_dim=4, rounds=3)
        amp = random_pure(gen, ir.dim_a * ir.dim_b).reshape(ir.dim_a, ir.dim_b)
        yield ir, PureBipartiteState(ir.dim_a, ir.dim_b, amp)


@pytest.mark.parametrize("seed, count", [(505, 200), (59, 100)])
def test_simulator_matches_the_branch_by_branch_oracle(seed, count):
    """Same branches in the same order, each output and each message's
    mixture within 1e-12 of one tensordot per branch and outcome."""
    for ir, st in _programs(seed, count):
        res = simulate_dense(ir, st)
        want = simulate_by_branch(ir, st)
        assert [(b.records, b.message) for b in res.branches] == [w[:2] for w in want]
        for br, (_, _, prob, rho) in zip(res.branches, want):
            assert abs(br.prob - prob) <= 1e-12
            assert np.abs(br.output.mat - rho).max() <= 1e-12
        got = group_by_message(res)
        ref = group_by_message_by_branch(want)
        assert set(got) == set(ref)
        tv = sum(abs(got[m][0] - ref[m][0]) for m in ref)
        worst = max(dense_trace_distance(partial_trace(got[m][1], "B").mat, ref[m][1]) for m in ref)
        assert tv < 1e-12 and worst < 1e-12


def test_transposed_and_adjoint_unitaries_are_accepted():
    """A gate given as U^dagger and a basis given as U^T (non-contiguous
    views) validate and run as their contiguous copies do; a nan in the
    imaginary part of such a view is refused."""
    u = random_unitary(np.random.default_rng(2715), 2)
    views = (ApplyUnitary("A", (0,), matrix=u.conj().T), Measure("A", 0, "m", basis=u.T))
    copies = (ApplyUnitary("A", (0,), matrix=u.conj().T.copy()), Measure("A", 0, "m", basis=u.T.copy()))
    got = simulate_dense(ProtocolIR(2, 2, views), PHI2).branches
    want = simulate_dense(ProtocolIR(2, 2, copies), PHI2).branches
    assert [b.prob for b in got] == [b.prob for b in want]
    assert all(np.array_equal(a.factor, b.factor) for a, b in zip(got, want))
    bad = u.copy()
    bad[0, 1] = complex(0.0, float("nan"))
    for ins in (ApplyUnitary("A", (0,), matrix=bad.T), Measure("A", 0, "m", basis=bad.T)):
        with pytest.raises(ValidationError, match="non-finite entries"):
            ProtocolIR(2, 2, (ins,))


def test_validation_leaves_the_callers_arrays_writable():
    """A gate's matrix and a measurement's basis stay the caller's to
    change; the basis the program keeps is its own read-only copy."""
    u = random_unitary(np.random.default_rng(2716), 2)
    b = random_unitary(np.random.default_rng(2717), 2)
    ir = ProtocolIR(2, 2, (ApplyUnitary("A", (0,), matrix=u), Measure("A", 0, "m", basis=b)))
    u[0, 0] = 1
    b[0, 0] = 1
    kept = ir.info.bases["m"]
    assert not kept.flags.writeable and kept[0, 0] != 1
    with pytest.raises(ValueError, match="read-only"):
        kept[0, 0] = 1


def test_simulator_refusals():
    ket0 = np.zeros(2**13)
    ket0[0] = 1.0
    big = ProtocolIR(2, 2, (AddAncilla("A", 2**13, ket0),))
    with pytest.raises(CapExceededError, match="total dimension exceeds"):
        simulate_dense(big, PHI2)
    with pytest.raises(ValidationError, match="input state does not match"):
        simulate_dense(correction_ir(), PureBipartiteState(2, 3, np.eye(2, 3).reshape(-1) / math.sqrt(2)))
    # an input and an ancilla each 0.9e-10 off unit norm pass validation,
    # but together the branches carry 1 + 1.8e-10
    scale = math.sqrt(1.0 + 0.9e-10)
    st = PureBipartiteState(2, 2, scale * PHI2.amp)
    ir = ProtocolIR(2, 2, (AddAncilla("B", 2, scale * np.array([1.0, 0.0])), Measure("A", 0, "m")))
    with pytest.raises(ValidationError, match="branch probabilities sum to"):
        simulate_dense(ir, st)


def _axes_cases(seed, count):
    # dims 1-4 on 1-4 registers, targets in any order and any positions
    gen = np.random.default_rng(seed)
    for case in range(count):
        dims = [int(d) for d in gen.integers(1, 5, size=gen.integers(1, 5))]
        k = int(gen.integers(1, len(dims) + 1))
        targets = tuple(int(t) for t in gen.permutation(len(dims))[:k])
        dt = math.prod(dims[t] for t in targets)
        op = gen.normal(size=(dt, dt))
        if case % 2:
            op = op + 1j * gen.normal(size=(dt, dt))
        yield gen, dims, targets, op


def test_apply_on_axes_matches_the_kron_embedding():
    """On a matrix's rows (Alice's side, E @ mat) and on its columns (Bob's
    side, mat @ E^T), with E the oracle's kron embedding of the operator."""
    for gen, dims, targets, op in _axes_cases(2601, 300):
        d = math.prod(dims)
        embedded = embed_operator_by_kron(op, dims, targets)
        cols = int(gen.integers(1, 4))
        mat = gen.normal(size=(d, cols)) + 1j * gen.normal(size=(d, cols))
        got = apply_on_axes(op, mat.reshape(*dims, cols), targets).reshape(d, cols)
        assert np.abs(got - embedded @ mat).max() < 1e-12
        mat = mat.T.copy()
        got = apply_on_axes(op, mat.reshape(cols, *dims), [1 + t for t in targets])
        assert np.abs(got.reshape(cols, d) - mat @ embedded.T).max() < 1e-12


def test_apply_on_axes_applies_a_stack_per_leading_index():
    """A stack of operators acts as its own operator on each index of the
    leading axis, as a controlled gate acts on each branch."""
    for gen, dims, targets, op in _axes_cases(2602, 200):
        d = math.prod(dims)
        batch = int(gen.integers(1, 4))
        ops = np.stack([op] + [gen.normal(size=op.shape) for _ in range(batch - 1)])
        amp = gen.normal(size=(batch, d)) + 1j * gen.normal(size=(batch, d))
        got = apply_on_axes(ops, amp.reshape(batch, *dims), [1 + t for t in targets])
        for b in range(batch):
            want = embed_operator_by_kron(ops[b], dims, targets) @ amp[b]
            assert np.abs(got[b].reshape(d) - want).max() < 1e-12
