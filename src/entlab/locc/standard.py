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
from .ir import Measure, ProtocolIR, embed_operator

MIGRATION_GUARD = 1e-8


@dataclass(frozen=True)
class DiagonalKraus:
    """Operator sum_j sqrt(weights[j]) |perm[j]><j| on a d-dim register.

    Acting on one half of a maximally entangled pair it produces a
    Schmidt-diagonal state, so protocols built from these never need dense
    simulation; the partner's correction is the same index relabeling.
    """

    weights: np.ndarray
    perm: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        p = np.asarray(self.perm, dtype=np.int64).reshape(-1)
        if w.size != p.size or w.size == 0:
            raise ValidationError("weights and perm must have equal positive length")
        if w.min() < -1e-15:
            raise ValidationError("negative weight")
        w = np.clip(w, 0.0, None)
        # size entries in [0, size) with no repeat are a permutation
        if p.min() < 0 or p.max() >= p.size or np.bincount(p, minlength=p.size).max() != 1:
            raise ValidationError("perm is not a permutation")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "perm", p)
        w.setflags(write=False)
        p.setflags(write=False)

    @property
    def dim(self) -> int:
        return int(self.weights.size)

    def matrix(self) -> np.ndarray:
        d = self.dim
        m = np.zeros((d, d), dtype=complex)
        m[self.perm, np.arange(d)] = np.sqrt(self.weights)
        return m

    def partner_permutation_matrix(self) -> np.ndarray:
        d = self.dim
        m = np.zeros((d, d), dtype=complex)
        m[self.perm, np.arange(d)] = 1.0
        return m


@dataclass(frozen=True)
class StandardFormProtocol:
    """One Alice measurement, a c-bit message, Bob corrections, discards.

    alice_ops are either dense matrices on Alice's full register block or
    DiagonalKraus operators (then bob_corrections is None and the partner
    correction is the op's own relabeling). Register blocks list the input
    register first, then ancillas in the order their initial states appear
    in anc_states_*.
    """

    dim_a: int
    dim_b: int
    alice_ops: tuple
    message_bits: int
    bob_corrections: tuple | None = None
    messages: tuple | None = None
    reg_dims_a: tuple | None = None
    reg_dims_b: tuple | None = None
    anc_states_a: tuple = ()
    anc_states_b: tuple = ()
    discard_a: tuple = ()
    discard_b: tuple = ()

    def __post_init__(self):
        if self.reg_dims_a is None:
            object.__setattr__(self, "reg_dims_a", (self.dim_a,))
        if self.reg_dims_b is None:
            object.__setattr__(self, "reg_dims_b", (self.dim_b,))
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
        if self.messages is not None and len(self.messages) != len(ops):
            raise ValidationError("one message per outcome")
        diag = all(isinstance(m, DiagonalKraus) for m in ops)
        dense = all(isinstance(m, np.ndarray) for m in ops)
        if not (diag or dense):
            raise ValidationError("mixed operator kinds")
        fa = self.full_dim_a
        fb = self.full_dim_b
        if diag:
            if self.bob_corrections is not None:
                raise ValidationError("diagonal families imply the partner correction")
            if fa != fb:
                raise ValidationError("diagonal families need equal side dimensions")
            sums = np.zeros(fa)
            for op in ops:
                if op.dim != fa:
                    raise ValidationError("operator dimension mismatch")
                sums += op.weights
            defect = np.abs(sums - 1.0).max()
            if defect > 1e-12:
                raise ValidationError(f"per-index completeness defect {defect}")
        else:
            if self.bob_corrections is None or len(self.bob_corrections) != len(ops):
                raise ValidationError("one partner correction per outcome")
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

    def is_diagonal(self) -> bool:
        return isinstance(self.alice_ops[0], DiagonalKraus)


def _shift_matrix(d: int) -> np.ndarray:
    s = np.zeros((d, d), dtype=complex)
    s[(np.arange(d) + 1) % d, np.arange(d)] = 1.0
    return s


def _block_diag(*blocks) -> np.ndarray:
    """2-D blocks on the diagonal of a zero matrix of their common dtype."""
    blocks = [np.asarray(b) for b in blocks]
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols), dtype=np.result_type(*blocks))
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def _support_data(f: np.ndarray):
    """Nonzero eigenvalues and eigenvectors of f f^dagger, from a thin SVD of f."""
    v, s, _ = np.linalg.svd(f, full_matrices=False)
    w = s * s
    cut = (float(w.max()) if w.size else 0.0) * 1e-13
    keep = w > max(cut, 1e-30)
    return w[keep], v[:, keep]


def _complete_isometry(p: np.ndarray, dim: int) -> np.ndarray:
    """Columns of p (orthonormal) extended to a full orthonormal basis."""
    r = p.shape[1]
    if r == 0:
        return np.eye(dim, dtype=complex)
    u = np.linalg.svd(p, full_matrices=True)[0]
    return np.concatenate([p, u[:, r:]], axis=1)


class _Node:
    __slots__ = ("chi", "m_acc", "u_acc", "values", "message")

    def __init__(self, chi, m_acc, u_acc, values, message):
        self.chi = chi
        self.m_acc = m_acc
        self.u_acc = u_acc
        self.values = values
        self.message = message


def standardize(ir: ProtocolIR, input_state: PureBipartiteState) -> StandardFormProtocol:
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

    chi0 = input_state.as_matrix()
    for vec in anc_states_a:
        chi0 = np.kron(chi0, np.asarray(vec).reshape(-1, 1))
    for vec in anc_states_b:
        chi0 = np.kron(chi0, np.asarray(vec).reshape(1, -1))

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
                # record never sent: read it coherently
                _, rec = record_reg[ins.control]
                gate = _block_diag(*ins.cases)
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
                shift = _shift_matrix(v)
                gate = np.zeros((v * v, v * v), dtype=complex)
                for o, proj in enumerate(projs):
                    gate += np.kron(proj, np.linalg.matrix_power(shift, o))
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
                # with an Alice measurement and a Bob unitary correction
                bfulls = [embed_operator(proj, dims_b, (ins.register,)) for proj in projs]
                grown = []
                for node in nodes:
                    w, vs = _support_data(node.chi)
                    pinv_root = (vs / np.sqrt(w)) @ vs.conj().T if w.size else np.zeros((fa, fa))
                    proj_supp = vs @ vs.conj().T
                    for o, bfull in enumerate(bfulls):
                        y = node.chi @ bfull.T
                        wo, vo = _support_data(y)
                        root = (vo * np.sqrt(wo)) @ vo.conj().T
                        m_o = root @ pinv_root
                        if o == 0:
                            m_o = m_o + (np.eye(fa) - proj_supp)
                        g = m_o @ node.chi
                        if wo.size:
                            scale = vo / np.sqrt(wo)
                            p_iso = g.conj().T @ scale
                            q_iso = y.conj().T @ scale
                        else:
                            p_iso = np.zeros((fb, 0), dtype=complex)
                            q_iso = np.zeros((fb, 0), dtype=complex)
                        p_full = _complete_isometry(p_iso, fb)
                        q_full = _complete_isometry(q_iso, fb)
                        w_t = p_full @ q_full.conj().T
                        # exact-unitary polish
                        uu, _, vv = np.linalg.svd(w_t)
                        w_t = uu @ vv
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

    return StandardFormProtocol(
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


def run_standard_form(proto: StandardFormProtocol, input_state: PureBipartiteState) -> dict:
    """Ensemble {message: (prob, output density)} of the reduced protocol.

    Exists to cross-check standardize against the branch-tree simulator;
    messages must be recorded on the protocol (standardize always does).
    """
    if proto.messages is None:
        raise ValidationError("protocol carries no message tags")
    if proto.is_diagonal():
        raise ValidationError("dense check path needs dense operators")
    chi = input_state.as_matrix()
    for vec in proto.anc_states_a:
        chi = np.kron(chi, np.asarray(vec).reshape(-1, 1))
    for vec in proto.anc_states_b:
        chi = np.kron(chi, np.asarray(vec).reshape(1, -1))

    dims = list(proto.reg_dims_a) + list(proto.reg_dims_b)
    na = len(proto.reg_dims_a)
    disc_axes = sorted(
        list(proto.discard_a) + [na + r for r in proto.discard_b]
    )
    kept_axes = [i for i in range(len(dims)) if i not in disc_axes]
    d_kept = math.prod(dims[i] for i in kept_axes) if kept_axes else 1

    out = {}
    for m_k, u_k, msg in zip(proto.alice_ops, proto.bob_corrections, proto.messages):
        res = m_k @ chi @ np.asarray(u_k).T
        p = float(np.vdot(res, res).real)
        if p <= 1e-13:
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
