"""Reduction of two-party programs to measure-message-correct form.

The target shape: Alice applies one generalized measurement {M_k} with at
most 2^c outcomes, sends k, Bob applies a unitary U_k, ancillas are
discarded. The rewrite tracks the pure joint state branch by branch;
measurements whose record is never sent are kept coherent against a fresh
record register (discarded at the end), and measurements on Bob's side
whose record is sent migrate to Alice through the state's Schmidt symmetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import CapExceededError, ValidationError
from ..qmath import DensityMatrix, PureBipartiteState, operator_norm
from ..tolerances import DENSE_DIM_CAP
from .ir import PRUNE_PROB, Measure, ProtocolIR, embed_operator

MIGRATION_GUARD = 1e-8


@dataclass(frozen=True)
class StandardizedProgram:
    """One Alice measurement, a c-bit message, Bob corrections, discards.

    alice_ops are dense matrices on Alice's full register block, one Bob
    correction and one message per outcome. Register blocks list the input
    register first, then ancillas in the order their initial states appear
    in anc_states_*.
    """

    dim_a: int
    dim_b: int
    alice_ops: tuple
    message_bits: int
    bob_corrections: tuple
    messages: tuple
    reg_dims_a: tuple
    reg_dims_b: tuple
    anc_states_a: tuple = ()
    anc_states_b: tuple = ()
    discard_a: tuple = ()
    discard_b: tuple = ()

    def __post_init__(self):
        for side in "ab":
            dims = getattr(self, f"reg_dims_{side}")
            anc = getattr(self, f"anc_states_{side}")
            if dims[0] != getattr(self, f"dim_{side}"):
                raise ValidationError("register 0 must carry the input")
            if len(anc) != len(dims) - 1:
                raise ValidationError("one initial state per ancilla register")
            for d, vec in zip(dims[1:], anc):
                if np.asarray(vec).reshape(-1).size != d:
                    raise ValidationError("ancilla state length mismatch")
            for r in getattr(self, f"discard_{side}"):
                if not 0 <= r < len(dims):
                    raise ValidationError(f"discard of unknown register {r}")
        ops = self.alice_ops
        if len(ops) == 0:
            raise ValidationError("empty measurement")
        if self.message_bits < 0:
            raise ValidationError("negative message bits")
        if len(ops) > 2 ** self.message_bits:
            raise ValidationError("more outcomes than the message can carry")
        if not len(self.messages) == len(self.bob_corrections) == len(ops):
            raise ValidationError("one message and one partner correction per outcome")
        fa = self.full_dim_a
        fb = self.full_dim_b
        acc = np.zeros((fa, fa), dtype=complex)
        for op in ops:
            if op.shape != (fa, fa):
                raise ValidationError("operator dimension mismatch")
            acc += op.conj().T @ op
        defect = operator_norm(acc - np.eye(fa))
        if defect > 1e-10:
            raise ValidationError(f"completeness defect {defect}")
        for u in self.bob_corrections:
            u = np.asarray(u)
            if u.shape != (fb, fb):
                raise ValidationError("correction dimension mismatch")
            if operator_norm(u.conj().T @ u - np.eye(fb)) > 1e-10:
                raise ValidationError("correction not unitary")

    @property
    def full_dim_a(self) -> int:
        return math.prod(self.reg_dims_a)

    @property
    def full_dim_b(self) -> int:
        return math.prod(self.reg_dims_b)


def _with_ancillas(input_state: PureBipartiteState, anc_states_a, anc_states_b) -> np.ndarray:
    """Amplitude matrix of the input tensored with each ancilla's initial state."""
    chi = input_state.as_matrix()
    for vec in anc_states_a:
        chi = np.kron(chi, np.asarray(vec).reshape(-1, 1))
    for vec in anc_states_b:
        chi = np.kron(chi, np.asarray(vec).reshape(1, -1))
    return chi


class _Node:
    __slots__ = ("chi", "m_acc", "u_acc", "values", "message")

    def __init__(self, chi, m_acc, u_acc, values, message):
        self.chi = chi
        self.m_acc = m_acc
        self.u_acc = u_acc
        self.values = values
        self.message = message


def standardize(ir: ProtocolIR, input_state: PureBipartiteState) -> StandardizedProgram:
    """Rewrite a program into the measure-message-correct shape.

    The output reproduces the input program's per-message output ensemble
    exactly (up to roundoff) and uses the same total message bit count.
    Programs that would act on a measured register are already rejected by
    the IR validator; inputs must be pure and match the declared dims.
    """
    info = ir.info
    if (input_state.dim_a, input_state.dim_b) != (ir.dim_a, ir.dim_b):
        raise ValidationError("input state does not match the program dimensions")

    dims_a = list(info.reg_dims["A"])
    dims_b = list(info.reg_dims["B"])
    record_reg = {}
    for ins in ir.instructions:
        if isinstance(ins, Measure) and ins.label not in info.sent_labels:
            dims = dims_a if ins.party == "A" else dims_b
            record_reg[ins.label] = (ins.party, len(dims))
            dims.append(info.alphabet[ins.label])
    fa = math.prod(dims_a)
    fb = math.prod(dims_b)
    if fa * fb > DENSE_DIM_CAP:
        raise CapExceededError(f"total dimension exceeds {DENSE_DIM_CAP}")

    anc_states_a = [vec for (_, _, vec) in info.ancillas["A"]]
    anc_states_b = [vec for (_, _, vec) in info.ancillas["B"]]
    for label, (party, _) in record_reg.items():
        v = np.zeros(info.alphabet[label], dtype=complex)
        v[0] = 1.0
        (anc_states_a if party == "A" else anc_states_b).append(v)

    chi0 = _with_ancillas(input_state, anc_states_a, anc_states_b)

    nodes = [
        _Node(chi0, np.eye(fa, dtype=complex), np.eye(fb, dtype=complex), {}, [])
    ]

    def apply_local(node, party, full_op):
        if party == "A":
            node.chi = full_op @ node.chi
            node.m_acc = full_op @ node.m_acc
        else:
            node.chi = node.chi @ full_op.T
            node.u_acc = full_op @ node.u_acc

    for ins in ir.instructions:
        kind = type(ins).__name__
        if kind == "AddAncilla" or kind == "Discard":
            continue
        if kind == "ApplyUnitary":
            dims = dims_a if ins.party == "A" else dims_b
            if ins.control is None:
                full = embed_operator(ins.matrix, dims, ins.targets)
                for node in nodes:
                    apply_local(node, ins.party, full)
            elif ins.control in record_reg:
                # record never sent: read it coherently, sum_k |k><k| (x) U_k
                _, rec = record_reg[ins.control]
                sel = np.eye(len(ins.cases))
                gate = sum(np.kron(np.diag(e), u) for e, u in zip(sel, ins.cases))
                full = embed_operator(gate, dims, (rec,) + tuple(ins.targets))
                for node in nodes:
                    apply_local(node, ins.party, full)
            else:
                fulls = [embed_operator(case, dims, ins.targets) for case in ins.cases]
                for node in nodes:
                    apply_local(node, ins.party, fulls[node.values[ins.control]])
        elif kind == "Measure":
            dims = dims_a if ins.party == "A" else dims_b
            v = info.alphabet[ins.label]
            basis = info.bases[ins.label]
            projs = [np.outer(basis[:, o], basis[:, o].conj()) for o in range(v)]
            if ins.label not in info.sent_labels:
                # keep coherent: rotate-and-copy into the record register
                _, rec = record_reg[ins.label]
                # np.roll(eye, o) maps |j> to |j+o mod v>, the shift to the o-th power
                eye = np.eye(v)
                gate = sum(np.kron(proj, np.roll(eye, o, axis=0)) for o, proj in enumerate(projs))
                full = embed_operator(gate, dims, (ins.register, rec))
                for node in nodes:
                    apply_local(node, ins.party, full)
            elif ins.party == "A":
                fulls = [embed_operator(proj, dims_a, (ins.register,)) for proj in projs]
                grown = []
                for node in nodes:
                    for o, full in enumerate(fulls):
                        child = _Node(
                            full @ node.chi,
                            full @ node.m_acc,
                            node.u_acc,
                            {**node.values, ins.label: o},
                            list(node.message),
                        )
                        grown.append(child)
                nodes = grown
            else:
                # Bob measured and will send: realize the same branch states
                # with an Alice measurement and a Bob unitary correction, both
                # built in the branch's Schmidt basis chi = U diag(s) Vh and
                # neither dividing by a singular value
                bfulls = [embed_operator(proj, dims_b, (ins.register,)) for proj in projs]
                grown = []
                for node in nodes:
                    u, s, vh = np.linalg.svd(node.chi)
                    r = s.size
                    ur, rest = u[:, :r], u[:, r:]
                    for o, bfull in enumerate(bfulls):
                        # y = U_r diag(s) t, and C = t t^dagger sums to 1 over o
                        y = node.chi @ bfull.T
                        t = vh[:r] @ bfull.T
                        pt, st, qh = np.linalg.svd(t)
                        c_half = (pt * st) @ pt.conj().T
                        # polar factor of diag(s) C^1/2: M = U_r x C^1/2 U_r^dagger
                        # gives M chi the Alice marginal diag(s) C diag(s) of y
                        ua, _, va = np.linalg.svd(s[:, None] * c_half)
                        x = ua @ va
                        m_o = ur @ (x @ c_half) @ ur.conj().T
                        if o == 0:
                            m_o = m_o + rest @ rest.conj().T
                        g = m_o @ node.chi
                        # x C^1/2 diag(s) x pt = diag(s) pt diag(st), so g @ w_t = y
                        w = np.eye(fb, dtype=complex)
                        w[:r, :r] = x @ pt
                        w_t = vh.conj().T @ w @ qh
                        child_chi = g @ w_t
                        drift = np.abs(child_chi - y).max()
                        if drift > MIGRATION_GUARD:
                            raise ValidationError(f"migration drift {drift}")
                        child = _Node(
                            y,
                            m_o @ node.m_acc,
                            w_t.T @ node.u_acc,
                            {**node.values, ins.label: o},
                            list(node.message),
                        )
                        grown.append(child)
                nodes = grown
        elif kind == "Send":
            for node in nodes:
                node.message.append(node.values[ins.label])

    discard_a = sorted(
        set(info.discards["A"]) | {r for (p, r) in record_reg.values() if p == "A"}
    )
    discard_b = sorted(
        set(info.discards["B"]) | {r for (p, r) in record_reg.values() if p == "B"}
    )

    ops, corrections, messages = [], [], []
    for node in nodes:
        final = node.m_acc @ chi0 @ node.u_acc.T
        drift = np.abs(final - node.chi).max()
        if drift > MIGRATION_GUARD:
            raise ValidationError(f"accumulated rewrite drift {drift}")
        ops.append(node.m_acc)
        corrections.append(node.u_acc)
        messages.append(tuple(node.message))

    return StandardizedProgram(
        dim_a=ir.dim_a,
        dim_b=ir.dim_b,
        alice_ops=tuple(ops),
        message_bits=info.message_bits,
        bob_corrections=tuple(corrections),
        messages=tuple(messages),
        reg_dims_a=tuple(dims_a),
        reg_dims_b=tuple(dims_b),
        anc_states_a=tuple(anc_states_a),
        anc_states_b=tuple(anc_states_b),
        discard_a=tuple(discard_a),
        discard_b=tuple(discard_b),
    )


def run_standard_form(proto: StandardizedProgram, input_state: PureBipartiteState) -> dict:
    """Ensemble {message: (prob, output density)} of the reduced protocol.

    Exists to cross-check standardize against the branch-tree simulator;
    a shift family is scored with run_protocol instead.
    """
    if not isinstance(proto, StandardizedProgram):
        raise ValidationError("run_standard_form checks a StandardizedProgram only")
    chi = _with_ancillas(input_state, proto.anc_states_a, proto.anc_states_b)

    dims = list(proto.reg_dims_a) + list(proto.reg_dims_b)
    na = len(proto.reg_dims_a)
    disc_axes = sorted(
        list(proto.discard_a) + [na + r for r in proto.discard_b]
    )
    d_kept = math.prod(d for i, d in enumerate(dims) if i not in disc_axes)

    out = {}
    for m_k, u_k, msg in zip(proto.alice_ops, proto.bob_corrections, proto.messages):
        res = m_k @ chi @ np.asarray(u_k).T
        p = float(np.vdot(res, res).real)
        if p <= PRUNE_PROB:
            continue
        amp = res.reshape(dims)
        rho = np.tensordot(amp, amp.conj(), axes=(disc_axes, disc_axes))
        rho = rho.reshape(d_kept, d_kept) / p
        if msg in out:
            p0, r0 = out[msg]
            out[msg] = (p0 + p, DensityMatrix((p0 * r0.mat + p * rho) / (p0 + p)))
        else:
            out[msg] = (p, DensityMatrix(rho))
    total = sum(p for p, _ in out.values())
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"outcome probabilities sum to {total}")
    return out
