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
from functools import cached_property

import numpy as np

from ..errors import CapExceededError, ValidationError
from ..qmath import DensityMatrix, PureBipartiteState, _as_complex, marginal_trace_distance
from ..tolerances import DENSE_DIM_CAP, VALIDITY_TOL

PARTIES = ("A", "B")
PRUNE_PROB = 1e-13


def _unit_vector(v, dim: int, what: str) -> np.ndarray:
    # a copy, so a later change to the caller's array cannot reach the program
    arr = _as_complex(v).reshape(-1).copy()
    if arr.size != dim:
        raise ValidationError(f"{what}: length {arr.size} != dim {dim}")
    n2 = float(np.vdot(arr, arr).real)
    if abs(n2 - 1.0) > VALIDITY_TOL:
        raise ValidationError(f"{what}: squared norm {n2} not 1")
    arr.setflags(write=False)
    return arr


def _check_unitary(m, dim: int, what: str) -> np.ndarray:
    # a copy, so freezing it leaves the caller's own array writable and a
    # later change to that array cannot reach the program
    arr = _as_complex(m).copy(order="K")
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
    ancillas: dict  # party -> list of initial states (creation order)
    alphabet: dict  # label -> outcome count
    bases: dict  # label -> basis matrix (columns = vectors)
    gates: dict  # instruction position -> matrix, or its cases stacked (outcome, dt, dt)
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
        alphabet, bases, gates = {}, {}, {}
        sent_labels = set()
        bits = 0
        for pos, ins in enumerate(self.instructions):
            where = f"instruction {pos}"
            if isinstance(ins, AddAncilla):
                _check_party(ins.party)
                if ins.dim < 1:
                    raise ValidationError(f"{where}: ancilla dim must be positive")
                vec = _unit_vector(ins.state, ins.dim, where)
                ancillas[ins.party].append(vec)
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
                    gates[pos] = _check_unitary(ins.matrix, dt, where)
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
                    cases = np.stack([_check_unitary(u, dt, where) for u in ins.cases])
                    cases.setflags(write=False)
                    gates[pos] = cases
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
            gates=gates,
            sent_labels=sent_labels,
            discards=discards,
            message_bits=bits,
        )

    def message_bits(self) -> int:
        return self.info.message_bits


def apply_on_axes(op: np.ndarray, amp: np.ndarray, axes) -> np.ndarray:
    """op applied to the listed axes of amp, every other axis alike.

    op is a (dt, dt) matrix on the listed axes' product in their listed
    order, or a stack (len(amp), dt, dt) with one matrix per index of amp's
    leading axis, which is then not listed. Listed axes that are not
    already adjacent and in order are first moved together to the place of
    the smallest (a copy); the amplitude is then viewed as (d_pre, dt, rest)
    around them and multiplied once, and the axes are moved back.
    """
    axes = list(axes)
    lo = min(axes)
    hi = lo + len(axes)
    order = None
    moved = amp
    if axes != list(range(lo, hi)):
        # the other axes keep their order, with the listed block at lo
        order = [a for a in range(amp.ndim) if a not in axes]
        order[lo:lo] = axes
        moved = amp.transpose(order)
    shape = moved.shape
    dt, rest = math.prod(shape[lo:hi]), math.prod(shape[hi:])
    if op.ndim == 3:
        out = op[:, None] @ moved.reshape(len(amp), -1, dt, rest)
    elif rest == 1:
        out = moved.reshape(-1, dt) @ op.T
    else:
        out = op @ moved.reshape(-1, dt, rest)
    out = out.reshape(shape)
    return out if order is None else out.transpose(np.argsort(order))


@dataclass(frozen=True)
class SimBranch:
    """One branch of a run; `factor` is its normalized amplitude as a
    (kept x discarded) matrix, and `output` is built from it on first read."""

    records: tuple  # ((label, value), ...) in measurement order
    message: tuple  # sent values in send order
    prob: float
    factor: np.ndarray

    @cached_property
    def output(self) -> DensityMatrix:
        return DensityMatrix(self.factor @ self.factor.conj().T)


@dataclass(frozen=True)
class SimulationResult:
    branches: tuple


def simulate_dense(ir: ProtocolIR, input_state: PureBipartiteState) -> SimulationResult:
    """Exhaustive dense run of the program on a pure input.

    All live branches are one amplitude array whose leading axis is the
    branch, and their records one int array with a column per measurement;
    branches stay in branch-major, outcome-minor order.
    """
    info = ir.info
    if (input_state.dim_a, input_state.dim_b) != (ir.dim_a, ir.dim_b):
        raise ValidationError("input state does not match the program dimensions")
    # each party's ancilla states in creation order, as validation froze them
    ancillas = {p: iter(info.ancillas[p]) for p in PARTIES}

    # register axes after the branch axis: A registers in creation order,
    # then B registers
    axes = [("A", 0), ("B", 0)]

    def axis_of(party, reg):
        return 1 + axes.index((party, reg))

    def check_cap(dims):
        if math.prod(dims) > DENSE_DIM_CAP:
            raise CapExceededError(f"total dimension exceeds {DENSE_DIM_CAP}")

    check_cap([ir.dim_a, ir.dim_b])
    amp = input_state.amp.reshape(1, ir.dim_a, ir.dim_b)
    labels = []  # measured labels, one column of `records` each
    records = np.zeros((1, 0), dtype=np.intp)
    sent = []  # columns of `records` in send order

    for pos, ins in enumerate(ir.instructions):
        if isinstance(ins, AddAncilla):
            vec = next(ancillas[ins.party])
            # insert the new axis at the end of the party's block
            insert_at = max(i for i, (p, _) in enumerate(axes) if p == ins.party) + 1
            reg_index = sum(1 for p, _ in axes if p == ins.party)
            axes.insert(insert_at, (ins.party, reg_index))
            check_cap(amp.shape[1:] + (ins.dim,))
            amp = np.moveaxis(np.multiply.outer(amp, vec), -1, 1 + insert_at)
        elif isinstance(ins, ApplyUnitary):
            # the gate as validation froze it
            u = info.gates[pos]
            if ins.control is not None:
                # each branch's case, selected by its record
                u = u[records[:, labels.index(ins.control)]]
            amp = apply_on_axes(u, amp, [axis_of(ins.party, t) for t in ins.targets])
        elif isinstance(ins, Measure):
            ax = axis_of(ins.party, ins.register)
            basis = info.bases[ins.label]
            dim = basis.shape[0]
            moved = np.moveaxis(amp, ax, 1)
            # coef[b, o] = <basis_o| on the register, for every branch b
            coef = basis.conj().T @ moved.reshape(len(amp), dim, -1)
            keep = ((coef.real**2 + coef.imag**2).sum(axis=2) > PRUNE_PROB).reshape(-1)
            # post[b, o] = coef[b, o] (x) basis_o, the register back in place
            post = coef[:, :, None, :] * basis.T[None, :, :, None]
            post = post.reshape((-1,) + moved.shape[1:])[keep]
            amp = np.moveaxis(post, 1, ax)
            outcomes = np.tile(np.arange(dim), len(records))
            records = np.column_stack((np.repeat(records, dim, axis=0), outcomes))[keep]
            labels.append(ins.label)
        elif isinstance(ins, Send):
            sent.append(labels.index(ins.label))
        elif isinstance(ins, Discard):
            pass  # applied at the end; validation bans later use

    disc = sorted(axis_of(p, r) for p in PARTIES for r in info.discards[p])
    kept = [a for a in range(1, amp.ndim) if a not in disc]
    d_kept = math.prod(amp.shape[a] for a in kept)
    amp = amp.transpose([0] + kept + disc).reshape(len(amp), d_kept, -1)
    probs = (amp.real**2 + amp.imag**2).sum(axis=(1, 2))
    keep = probs > PRUNE_PROB
    factors = amp[keep] / np.sqrt(probs[keep])[:, None, None]
    factors.setflags(write=False)
    out = [
        SimBranch(
            records=tuple(zip(labels, rec)),
            message=tuple(rec[i] for i in sent),
            prob=p,
            factor=f,
        )
        for rec, p, f in zip(records[keep].tolist(), probs[keep].tolist(), factors)
    ]
    total = sum(b.prob for b in out)
    if abs(total - 1.0) > 1e-10:
        raise ValidationError(f"branch probabilities sum to {total}")
    return SimulationResult(branches=tuple(out))


def group_by_message(result: SimulationResult) -> dict:
    """Collapse branches sharing a message into (prob, purification).

    The purification is F / sqrt(P) on (kept, width): F puts sqrt(p_b) A_b of
    the branches side by side (A_b the normalized factor), P sums the p_b.
    """
    groups = {}
    for br in result.branches:
        groups.setdefault(br.message, []).append(br)
    out = {}
    for msg, brs in groups.items():
        p = sum(br.prob for br in brs)
        f = np.concatenate([math.sqrt(br.prob / p) * br.factor for br in brs], axis=1)
        out[msg] = (p, PureBipartiteState(*f.shape, f))
    return out


def compare_ensembles(a: dict, b: dict):
    """Total probability discrepancy and worst per-message trace distance.

    Inputs map message tuples to (prob, purification), compared by
    marginal_trace_distance of their kept marginals. A message present on
    one side only contributes its probability to the first component.
    """
    tv = 0.0
    worst = 0.0
    for msg in set(a) | set(b):
        pa, ra = a.get(msg, (0.0, None))
        pb, rb = b.get(msg, (0.0, None))
        tv += abs(pa - pb)
        if ra is not None and rb is not None:
            worst = max(worst, marginal_trace_distance(ra, rb))
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
