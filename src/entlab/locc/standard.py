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
from ..qmath import PureBipartiteState, operator_norm
from ..tolerances import DENSE_DIM_CAP
from .ir import PARTIES, PRUNE_PROB, Measure, ProtocolIR, apply_on_axes

MIGRATION_GUARD = 1e-8


def _refuse_defect(a, text: str):
    # a Frobenius norm bounds the operator norm, so only one past 1e-10 pays for the SVD;
    # `not <=` sends a nan norm on to operator_norm, which refuses it as non-finite
    if not np.linalg.norm(a) <= 1e-10 and (defect := operator_norm(a)) > 1e-10:
        raise ValidationError(text.format(defect))


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
        if any(op.shape != (fa, fa) for op in ops):
            raise ValidationError("operator dimension mismatch")
        # sum_k M_k^dagger M_k one operator at a time, with no stacked copy
        gram = np.zeros((fa, fa), dtype=complex)
        for op in ops:
            gram += op.conj().T @ op
        gram.flat[:: fa + 1] -= 1.0
        _refuse_defect(gram, "completeness defect {}")
        us = [np.asarray(u) for u in self.bob_corrections]
        if any(u.shape != (fb, fb) for u in us):
            raise ValidationError("correction dimension mismatch")
        # u^dagger u - 1 one correction at a time, as for the Gram above
        for u in us:
            defect = u.conj().T @ u
            defect.flat[:: fb + 1] -= 1.0
            _refuse_defect(defect, "correction not unitary")

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


def _on_rows(op, mat, dims, targets):
    # op on registers `targets` of mat's row index, whose registers are `dims`
    out = apply_on_axes(op, mat.reshape(*dims, -1), targets)
    return out.reshape(mat.shape)


def _on_cols(op, mat, dims, targets):
    # op on registers `targets` of mat's column index: mat @ embedded(op).T
    out = apply_on_axes(op, mat.reshape(-1, *dims), [1 + t for t in targets])
    return out.reshape(mat.shape)


def standardize(ir: ProtocolIR, input_state: PureBipartiteState) -> StandardizedProgram:
    """Rewrite a program into the measure-message-correct shape.

    The output reproduces the input program's per-message output ensemble
    exactly (up to roundoff) and uses the same total message bit count.
    Programs that would act on a measured register are already rejected by
    the IR validator; inputs must be pure and match the declared dims.
    Every gate acts on its register axes of each node's amplitude and
    accumulated operators, so the only operators on Alice's whole register
    block are the accumulated ones it returns; on Bob's side a migration
    also forms each outcome's correction factor, which the returned
    correction accumulates.
    """
    info = ir.info
    if (input_state.dim_a, input_state.dim_b) != (ir.dim_a, ir.dim_b):
        raise ValidationError("input state does not match the program dimensions")

    # per party: register dims, ancilla states and discards; each record
    # that is never sent gets a register after the party's ancillas, in
    # instruction order, starting in |0> and discarded at the end
    reg_dims = {p: list(info.reg_dims[p]) for p in PARTIES}
    anc_states = {p: list(info.ancillas[p]) for p in PARTIES}
    discards = {p: list(info.discards[p]) for p in PARTIES}
    record_reg = {}
    for ins in ir.instructions:
        if isinstance(ins, Measure) and ins.label not in info.sent_labels:
            v = info.alphabet[ins.label]
            rec = record_reg[ins.label] = len(reg_dims[ins.party])
            reg_dims[ins.party].append(v)
            ket0 = np.zeros(v, dtype=complex)
            ket0[0] = 1.0
            anc_states[ins.party].append(ket0)
            discards[ins.party].append(rec)
    fa = math.prod(reg_dims["A"])
    fb = math.prod(reg_dims["B"])
    if fa * fb > DENSE_DIM_CAP:
        raise CapExceededError(f"total dimension exceeds {DENSE_DIM_CAP}")

    chi0 = _with_ancillas(input_state, anc_states["A"], anc_states["B"])

    nodes = [
        _Node(chi0, np.eye(fa, dtype=complex), np.eye(fb, dtype=complex), {}, [])
    ]

    def apply_local(node, party, op, targets):
        # Alice's op acts on chi's rows and on M, Bob's on chi's columns and on U
        if party == "A":
            node.chi = _on_rows(op, node.chi, reg_dims["A"], targets)
            node.m_acc = _on_rows(op, node.m_acc, reg_dims["A"], targets)
        else:
            node.chi = _on_cols(op, node.chi, reg_dims["B"], targets)
            node.u_acc = _on_rows(op, node.u_acc, reg_dims["B"], targets)

    for pos, ins in enumerate(ir.instructions):
        kind = type(ins).__name__
        if kind == "AddAncilla" or kind == "Discard":
            continue
        if kind == "ApplyUnitary":
            # the gate as validation froze it: a matrix, or the cases stacked
            gate = info.gates[pos]
            if ins.control is None:
                for node in nodes:
                    apply_local(node, ins.party, gate, ins.targets)
            elif ins.control in record_reg:
                # record never sent: read it coherently, sum_k |k><k| (x) U_k,
                # block diagonal with U_k in block (k, k)
                v, dt = gate.shape[:2]
                block = np.zeros((v, dt, v, dt), dtype=complex)
                block[np.arange(v), :, np.arange(v), :] = gate
                block = block.reshape(v * dt, v * dt)
                targets = (record_reg[ins.control],) + tuple(ins.targets)
                for node in nodes:
                    apply_local(node, ins.party, block, targets)
            else:
                for node in nodes:
                    apply_local(node, ins.party, gate[node.values[ins.control]], ins.targets)
        elif kind == "Measure":
            dims = reg_dims[ins.party]
            v = info.alphabet[ins.label]
            basis = info.bases[ins.label]
            # projs[o] = |b_o><b_o|
            projs = basis.T[:, :, None] * basis.conj().T[:, None, :]
            if ins.label not in info.sent_labels:
                # keep coherent: rotate-and-copy into the record register with
                # sum_o P_o (x) S^o, S the shift |j> -> |j+1 mod v>; entry
                # (i, j'; i', j) is P_o[i, i'] for o = j' - j mod v
                shift = (np.arange(v)[:, None] - np.arange(v)) % v
                gate = projs[shift].transpose(2, 0, 3, 1).reshape(v * v, v * v)
                targets = (ins.register, record_reg[ins.label])
                for node in nodes:
                    apply_local(node, ins.party, gate, targets)
            elif ins.party == "A":
                targets = (ins.register,)
                grown = []
                for node in nodes:
                    for o, proj in enumerate(projs):
                        child = _Node(
                            _on_rows(proj, node.chi, dims, targets),
                            _on_rows(proj, node.m_acc, dims, targets),
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
                # neither dividing by a singular value. Only U's first r
                # columns are needed, and Vh in full
                targets = (ins.register,)
                grown = []
                for node in nodes:
                    u, s, vh = np.linalg.svd(node.chi, full_matrices=fa < fb)
                    r = s.size
                    ur = u[:, :r]
                    # U_r^dagger chi and U_r^dagger M_acc, shared by every outcome
                    ur_h = ur.conj().T
                    low_chi, low_m = ur_h @ node.chi, ur_h @ node.m_acc
                    for o, proj in enumerate(projs):
                        # y = U_r diag(s) t, and C = t t^dagger sums to 1 over o
                        y = _on_cols(proj, node.chi, dims, targets)
                        t = _on_cols(proj, vh[:r], dims, targets)
                        pt, st, qh = np.linalg.svd(t)
                        c_half = (pt * st) @ pt.conj().T
                        # polar factor of diag(s) C^1/2: M = U_r x C^1/2 U_r^dagger
                        # gives M chi the Alice marginal diag(s) C diag(s) of y;
                        # outcome 0 also keeps the complement of U_r, so
                        # M = 1 + U_r (x C^1/2 - 1) U_r^dagger there
                        ua, _, va = np.linalg.svd(s[:, None] * c_half)
                        x = ua @ va
                        a = x @ c_half
                        if o == 0:
                            a = a - np.eye(r)
                        # M chi and M M_acc through M's rank-r factor
                        g = ur @ (a @ low_chi)
                        m_acc = ur @ (a @ low_m)
                        if o == 0:
                            g += node.chi
                            m_acc += node.m_acc
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
                            m_acc,
                            w_t.T @ node.u_acc,
                            {**node.values, ins.label: o},
                            list(node.message),
                        )
                        grown.append(child)
                nodes = grown
        elif kind == "Send":
            for node in nodes:
                node.message.append(node.values[ins.label])

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
        reg_dims_a=tuple(reg_dims["A"]),
        reg_dims_b=tuple(reg_dims["B"]),
        anc_states_a=tuple(anc_states["A"]),
        anc_states_b=tuple(anc_states["B"]),
        discard_a=tuple(discards["A"]),
        discard_b=tuple(discards["B"]),
    )


def run_standard_form(proto: StandardizedProgram, input_state: PureBipartiteState) -> dict:
    """Ensemble {message: (prob, purification)} of the reduced protocol.

    The purification puts the (kept x discarded) amplitudes M_k chi U_k^T of
    the message's outcomes side by side, divided by sqrt(P). Exists to
    cross-check standardize against the branch-tree simulator; a shift
    family is scored with run_protocol instead.
    """
    if not isinstance(proto, StandardizedProgram):
        raise ValidationError("run_standard_form checks a StandardizedProgram only")
    chi = _with_ancillas(input_state, proto.anc_states_a, proto.anc_states_b)
    dims = list(proto.reg_dims_a) + list(proto.reg_dims_b)
    na = len(proto.reg_dims_a)
    disc = sorted(list(proto.discard_a) + [na + r for r in proto.discard_b])
    kept = [i for i in range(len(dims)) if i not in disc]
    d_kept = math.prod(dims[i] for i in kept)
    # each outcome's amplitude M_k (chi U_k^T), one operator at a time, split
    # into the kept and the discarded registers
    amps = [
        (m @ (chi @ np.asarray(u).T)).reshape(dims).transpose(kept + disc).reshape(d_kept, -1)
        for m, u in zip(proto.alice_ops, proto.bob_corrections)
    ]
    probs = [float(np.vdot(a, a).real) for a in amps]

    # outcomes that share a message are merged into one purification
    groups = {}
    for k, msg in enumerate(proto.messages):
        if probs[k] > PRUNE_PROB:
            groups.setdefault(msg, []).append(k)
    out = {}
    for msg, ks in groups.items():
        p = sum(probs[k] for k in ks)
        f = np.concatenate([amps[k] for k in ks], axis=1) / math.sqrt(p)
        out[msg] = (p, PureBipartiteState(*f.shape, f))
    total = sum(p for p, _ in out.values())
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"outcome probabilities sum to {total}")
    return out
