"""Two-party protocol IR and its dense branch-tree simulator.

A program is an ordered instruction list over parties "A" and "B". Each
party owns a growing list of registers (register 0 is its half of the
input state). Measurements are projective on a single register and freeze
it; classical records travel only via Send; unitaries may be classically
controlled by a record the acting party knows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import CapExceededError, ValidationError
from ..qmath import DensityMatrix, PureBipartiteState, _as_complex
from ..tolerances import DENSE_DIM_CAP, VALIDITY_TOL

PARTIES = ("A", "B")
PRUNE_PROB = 1e-13


def _unit_vector(v, dim: int, what: str) -> np.ndarray:
    arr = _as_complex(v).reshape(-1)
    if arr.size != dim:
        raise ValidationError(f"{what}: length {arr.size} != dim {dim}")
    n2 = float(np.vdot(arr, arr).real)
    if abs(n2 - 1.0) > VALIDITY_TOL:
        raise ValidationError(f"{what}: squared norm {n2} not 1")
    arr.setflags(write=False)
    return arr


def _check_unitary(m, dim: int, what: str) -> np.ndarray:
    arr = _as_complex(m)
    if arr.shape != (dim, dim):
        raise ValidationError(f"{what}: shape {arr.shape} != ({dim}, {dim})")
    defect = np.abs(arr.conj().T @ arr - np.eye(dim)).max()
    if defect > VALIDITY_TOL:
        raise ValidationError(f"{what}: unitarity defect {defect}")
    arr.setflags(write=False)
    return arr


def _check_party(party: str):
    if party not in PARTIES:
        raise ValidationError(f'party must be "A" or "B", got {party!r}')


@dataclass(frozen=True)
class AddAncilla:
    party: str
    dim: int
    state: np.ndarray  # initial pure state of the new register


@dataclass(frozen=True)
class ApplyUnitary:
    """Unitary on the listed registers, optionally selected by a record.

    Uncontrolled: `matrix` acts on the tensor product of the targets in the
    listed order. Controlled: `cases[v]` is applied when record `control`
    holds value v; the acting party must know the record.
    """

    party: str
    targets: tuple
    matrix: np.ndarray | None = None
    control: str | None = None
    cases: tuple | None = None


@dataclass(frozen=True)
class Measure:
    """Projective measurement of one register; the register freezes after.

    `basis` columns are the measurement vectors (None = computational).
    The outcome index is recorded under `label`.
    """

    party: str
    register: int
    label: str
    basis: np.ndarray | None = None


@dataclass(frozen=True)
class Send:
    label: str
    sender: str
    receiver: str


@dataclass(frozen=True)
class Discard:
    party: str
    register: int


@dataclass(frozen=True)
class IRInfo:
    """Static facts extracted by validation."""

    reg_dims: dict  # party -> list of register dims (creation order)
    ancillas: dict  # party -> list of (reg index, dim, state)
    alphabet: dict  # label -> outcome count
    bases: dict  # label -> basis matrix (columns = vectors)
    sent_labels: set
    discards: dict  # party -> sorted list of register indices
    message_bits: int


@dataclass(frozen=True)
class ProtocolIR:
    """A validated program; `info` holds the facts its one validation found."""

    dim_a: int
    dim_b: int
    instructions: tuple
    info: IRInfo = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "instructions", tuple(self.instructions))
        object.__setattr__(self, "info", self.validate())

    def validate(self) -> IRInfo:
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValidationError("input dimensions must be positive")
        reg_dims = {"A": [self.dim_a], "B": [self.dim_b]}
        ancillas = {"A": [], "B": []}
        measured = set()  # (party, reg)
        discarded = set()
        knows = {"A": set(), "B": set()}
        alphabet, bases = {}, {}
        sent_labels = set()
        bits = 0
        for pos, ins in enumerate(self.instructions):
            where = f"instruction {pos}"
            if isinstance(ins, AddAncilla):
                _check_party(ins.party)
                if ins.dim < 1:
                    raise ValidationError(f"{where}: ancilla dim must be positive")
                vec = _unit_vector(ins.state, ins.dim, where)
                ancillas[ins.party].append((len(reg_dims[ins.party]), ins.dim, vec))
                reg_dims[ins.party].append(ins.dim)
            elif isinstance(ins, ApplyUnitary):
                _check_party(ins.party)
                tg = tuple(ins.targets)
                if len(tg) == 0 or len(set(tg)) != len(tg):
                    raise ValidationError(f"{where}: targets must be distinct and nonempty")
                for t in tg:
                    if not 0 <= t < len(reg_dims[ins.party]):
                        raise ValidationError(f"{where}: no register {t}")
                    if (ins.party, t) in measured:
                        raise ValidationError(f"{where}: register {t} was measured")
                    if (ins.party, t) in discarded:
                        raise ValidationError(f"{where}: register {t} was discarded")
                dt = math.prod(reg_dims[ins.party][t] for t in tg)
                if ins.control is None:
                    if ins.matrix is None or ins.cases is not None:
                        raise ValidationError(f"{where}: uncontrolled gate needs matrix only")
                    _check_unitary(ins.matrix, dt, where)
                else:
                    if ins.cases is None or ins.matrix is not None:
                        raise ValidationError(f"{where}: controlled gate needs cases only")
                    if ins.control not in alphabet:
                        raise ValidationError(f"{where}: unknown record {ins.control!r}")
                    if ins.control not in knows[ins.party]:
                        raise ValidationError(
                            f"{where}: party {ins.party} does not know {ins.control!r}"
                        )
                    if len(ins.cases) != alphabet[ins.control]:
                        raise ValidationError(f"{where}: need one case per outcome")
                    for u in ins.cases:
                        _check_unitary(u, dt, where)
            elif isinstance(ins, Measure):
                _check_party(ins.party)
                r = ins.register
                if not 0 <= r < len(reg_dims[ins.party]):
                    raise ValidationError(f"{where}: no register {r}")
                if (ins.party, r) in measured or (ins.party, r) in discarded:
                    raise ValidationError(f"{where}: register {r} unavailable")
                if ins.label in alphabet:
                    raise ValidationError(f"{where}: duplicate record {ins.label!r}")
                dim = reg_dims[ins.party][r]
                basis = np.eye(dim, dtype=complex) if ins.basis is None else ins.basis
                bases[ins.label] = _check_unitary(basis, dim, where)
                measured.add((ins.party, r))
                alphabet[ins.label] = dim
                knows[ins.party].add(ins.label)
            elif isinstance(ins, Send):
                _check_party(ins.sender)
                _check_party(ins.receiver)
                if ins.sender == ins.receiver:
                    raise ValidationError(f"{where}: send must cross parties")
                if ins.label not in alphabet:
                    raise ValidationError(f"{where}: unknown record {ins.label!r}")
                if ins.label not in knows[ins.sender]:
                    raise ValidationError(f"{where}: sender does not know {ins.label!r}")
                knows[ins.receiver].add(ins.label)
                sent_labels.add(ins.label)
                bits += max(0, math.ceil(math.log2(alphabet[ins.label])))
            elif isinstance(ins, Discard):
                _check_party(ins.party)
                r = ins.register
                if not 0 <= r < len(reg_dims[ins.party]):
                    raise ValidationError(f"{where}: no register {r}")
                if (ins.party, r) in discarded:
                    raise ValidationError(f"{where}: register {r} already discarded")
                discarded.add((ins.party, r))
            else:
                raise ValidationError(f"{where}: unknown instruction {type(ins).__name__}")
        discards = {
            p: sorted(r for (q, r) in discarded if q == p) for p in PARTIES
        }
        return IRInfo(
            reg_dims=reg_dims,
            ancillas=ancillas,
            alphabet=alphabet,
            bases=bases,
            sent_labels=sent_labels,
            discards=discards,
            message_bits=bits,
        )

    def message_bits(self) -> int:
        return self.info.message_bits


def embed_operator(op: np.ndarray, dims, targets) -> np.ndarray:
    """Extend an operator on the target registers to the full product space.

    `dims` lists all register dimensions in order; `targets` are the
    register indices the operator acts on, matching its tensor factor order.
    """
    dims = list(dims)
    targets = list(targets)
    rest = [i for i in range(len(dims)) if i not in targets]
    d_rest = math.prod(dims[i] for i in rest) if rest else 1
    big = np.kron(np.asarray(op, dtype=complex), np.eye(d_rest, dtype=complex))
    perm = targets + rest  # axis p of `big` carries register perm[p]
    shape = [dims[i] for i in perm]
    tens = big.reshape(shape + shape)
    order = [perm.index(i) for i in range(len(dims))]
    k = len(dims)
    tens = tens.transpose(order + [k + o for o in order])
    d = math.prod(dims)
    return np.ascontiguousarray(tens.reshape(d, d))


@dataclass(frozen=True)
class SimBranch:
    records: tuple  # ((label, value), ...) in measurement order
    message: tuple  # sent values in send order
    prob: float
    output: DensityMatrix


@dataclass(frozen=True)
class SimulationResult:
    branches: tuple


class _Live:
    """One branch of the simulation: amplitude tensor plus classical data."""

    __slots__ = ("amp", "records", "message")

    def __init__(self, amp, records, message):
        self.amp = amp
        self.records = records
        self.message = message


def simulate_dense(ir: ProtocolIR, input_state: PureBipartiteState) -> SimulationResult:
    """Exhaustive branch-by-branch run of the program on a pure input."""
    info = ir.info
    if (input_state.dim_a, input_state.dim_b) != (ir.dim_a, ir.dim_b):
        raise ValidationError("input state does not match the program dimensions")
    # (register, dim, state) per party in creation order, as validation froze them
    ancillas = {p: iter(info.ancillas[p]) for p in PARTIES}

    # axes: A registers in creation order, then B registers
    axes = [("A", 0), ("B", 0)]
    dims = [ir.dim_a, ir.dim_b]

    def axis_of(party, reg):
        return axes.index((party, reg))

    def check_cap():
        if math.prod(dims) > DENSE_DIM_CAP:
            raise CapExceededError(f"total dimension exceeds {DENSE_DIM_CAP}")

    check_cap()
    amp0 = input_state.amp.reshape(ir.dim_a, ir.dim_b)
    branches = [_Live(amp0, [], [])]

    for ins in ir.instructions:
        if isinstance(ins, AddAncilla):
            _, _, vec = next(ancillas[ins.party])
            # insert the new axis at the end of the party's block
            insert_at = max(i for i, (p, _) in enumerate(axes) if p == ins.party) + 1
            reg_index = sum(1 for p, _ in axes if p == ins.party)
            axes.insert(insert_at, (ins.party, reg_index))
            dims.insert(insert_at, ins.dim)
            check_cap()
            for br in branches:
                br.amp = np.moveaxis(np.multiply.outer(br.amp, vec), -1, insert_at)
        elif isinstance(ins, ApplyUnitary):
            tg_axes = [axis_of(ins.party, t) for t in ins.targets]
            tg_dims = [dims[a] for a in tg_axes]
            dt = math.prod(tg_dims)
            for br in branches:
                if ins.control is None:
                    u = np.asarray(ins.matrix, dtype=complex)
                else:
                    val = dict(br.records)[ins.control]
                    u = np.asarray(ins.cases[val], dtype=complex)
                op = u.reshape(tg_dims + tg_dims)
                moved = np.tensordot(op, br.amp, axes=(list(range(len(tg_axes), 2 * len(tg_axes))), tg_axes))
                br.amp = np.moveaxis(moved, list(range(len(tg_axes))), tg_axes)
        elif isinstance(ins, Measure):
            ax = axis_of(ins.party, ins.register)
            dim = dims[ax]
            basis = np.eye(dim, dtype=complex) if ins.basis is None else np.asarray(ins.basis, dtype=complex)
            grown = []
            for br in branches:
                for o in range(dim):
                    vec = basis[:, o]
                    coef = np.tensordot(vec.conj(), br.amp, axes=([0], [ax]))
                    p = float(np.vdot(coef, coef).real)
                    if p <= PRUNE_PROB:
                        continue
                    post = np.moveaxis(np.multiply.outer(coef, vec), -1, ax)
                    grown.append(_Live(post, br.records + [(ins.label, o)], list(br.message)))
            branches = grown
        elif isinstance(ins, Send):
            for br in branches:
                br.message.append(dict(br.records)[ins.label])
        elif isinstance(ins, Discard):
            pass  # applied at the end; validation bans later use

    disc_axes = sorted(
        axis_of(p, r) for p in PARTIES for r in info.discards[p]
    )
    d_kept = math.prod(d for i, d in enumerate(dims) if i not in disc_axes)

    out = []
    for br in branches:
        p = float(np.vdot(br.amp, br.amp).real)
        if p <= PRUNE_PROB:
            continue
        rho = np.tensordot(br.amp, br.amp.conj(), axes=(disc_axes, disc_axes))
        rho = rho.reshape(d_kept, d_kept) / p
        out.append(
            SimBranch(
                records=tuple(br.records),
                message=tuple(br.message),
                prob=p,
                output=DensityMatrix(rho),
            )
        )
    total = sum(b.prob for b in out)
    if abs(total - 1.0) > 1e-10:
        raise ValidationError(f"branch probabilities sum to {total}")
    return SimulationResult(branches=tuple(out))


def group_by_message(result: SimulationResult) -> dict:
    """Collapse branches sharing a message into (prob, mixed state)."""
    acc = {}
    for br in result.branches:
        p, mat = acc.get(br.message, (0.0, 0.0))
        acc[br.message] = (p + br.prob, mat + br.prob * br.output.mat)
    return {
        msg: (p, DensityMatrix(mat / p)) for msg, (p, mat) in acc.items()
    }


def compare_ensembles(a: dict, b: dict):
    """Total probability discrepancy and worst per-message trace distance.

    Inputs map message tuples to (prob, DensityMatrix). A message present on
    one side only contributes its probability to the first component.
    """
    from ..qmath import trace_distance

    tv = 0.0
    worst = 0.0
    for msg in set(a) | set(b):
        pa, ra = a.get(msg, (0.0, None))
        pb, rb = b.get(msg, (0.0, None))
        tv += abs(pa - pb)
        if ra is not None and rb is not None:
            worst = max(worst, trace_distance(ra, rb))
    return tv, worst


def random_toy_ir(gen: np.random.Generator, max_dim: int = 4, rounds: int = 3) -> ProtocolIR:
    """Small random program exercising every instruction kind.

    Register dims stay at or below max_dim and the round count bounds the
    number of measure/send exchanges, so dense simulation stays cheap.
    """
    from ..sampling import random_pure, random_unitary

    dim_a = int(gen.integers(2, max_dim + 1))
    dim_b = int(gen.integers(2, max_dim + 1))
    reg_dims = {"A": [dim_a], "B": [dim_b]}
    live = {"A": [0], "B": [0]}  # unmeasured, undiscarded
    measured = {"A": [], "B": []}
    knows = {"A": [], "B": []}
    alphabet = {}
    instrs = []
    label_no = 0
    total_dim = dim_a * dim_b

    def maybe_unitary(party):
        pool = live[party]
        if not pool:
            return
        k = 1 if len(pool) == 1 or gen.random() < 0.6 else 2
        targets = tuple(int(t) for t in gen.choice(pool, size=k, replace=False))
        dt = math.prod(reg_dims[party][t] for t in targets)
        usable = [l for l in knows[party] if alphabet[l] <= 4]
        if usable and gen.random() < 0.45:
            label = str(gen.choice(usable))
            cases = tuple(random_unitary(gen, dt) for _ in range(alphabet[label]))
            instrs.append(ApplyUnitary(party, targets, control=label, cases=cases))
        else:
            instrs.append(ApplyUnitary(party, targets, matrix=random_unitary(gen, dt)))

    nonlocal_total = [total_dim]
    def maybe_ancilla(party):
        dim = int(gen.integers(2, 4))
        if nonlocal_total[0] * dim > 512:
            return
        nonlocal_total[0] *= dim
        instrs.append(AddAncilla(party, dim, random_pure(gen, dim)))
        live[party].append(len(reg_dims[party]))
        reg_dims[party].append(dim)

    for rnd in range(rounds):
        party = "A" if rnd % 2 == 0 else "B"
        other = "B" if party == "A" else "A"
        if gen.random() < 0.5:
            maybe_ancilla(party)
        maybe_unitary(party)
        if gen.random() < 0.4:
            maybe_unitary(party)
        if live[party] and gen.random() < 0.9:
            reg = int(gen.choice(live[party]))
            dim = reg_dims[party][reg]
            label = f"m{label_no}"
            label_no += 1
            basis = random_unitary(gen, dim) if gen.random() < 0.6 else None
            instrs.append(Measure(party, reg, label, basis))
            live[party].remove(reg)
            measured[party].append(reg)
            knows[party].append(label)
            alphabet[label] = dim
            if gen.random() < 0.7:
                instrs.append(Send(label, party, other))
                knows[other].append(label)
                if live[other] and gen.random() < 0.8:
                    pool = live[other]
                    target = int(gen.choice(pool))
                    dt = reg_dims[other][target]
                    cases = tuple(random_unitary(gen, dt) for _ in range(dim))
                    instrs.append(ApplyUnitary(other, (target,), control=label, cases=cases))
    for party in PARTIES:
        for reg in measured[party]:
            if gen.random() < 0.5:
                instrs.append(Discard(party, reg))
    return ProtocolIR(dim_a, dim_b, tuple(instrs))
