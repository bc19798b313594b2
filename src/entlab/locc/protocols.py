"""Builders for one-message dilution protocols.

Shift dilution turns a maximally entangled pair into an arbitrary equal
dimension Schmidt profile exactly, at ceil(log2 d) message bits. Block
dilution targets tensor-power profiles under a message budget: the
significant prefix of the sorted spectrum is cut into 2^budget equal
blocks, each flattened to its average, and only the block offset is
communicated. A block family is built symbolically, as one outcome of
multiplicity K with its profile as run columns (count, log2 x) over the
sorted spectrum, and materializes to a standard-form protocol only where
the dense oracle can check it (d' <= DENSE_SIDE).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress, repeat
from operator import ne, sub

import numpy as np

from ..errors import CapExceededError, ValidationError
from ..logdomain import NEG_INF, log2_int, log2_ints, log2sumexp, log2sumexp_windows
from ..spectrum import ClassSpectrum
from ..tolerances import DENSE_SIDE, WEIGHTS_CAP


def _check_weights_cap(K: int, d: int):
    """Refuse a shift family whose K outcomes of d weights each pass the cap."""
    if K * d > WEIGHTS_CAP:
        raise CapExceededError(
            f"K = {K} outcomes of d = {d} weights each score {K * d} entries,"
            f" past the cap of {WEIGHTS_CAP}"
        )


@dataclass(frozen=True, eq=False)
class StandardFormProtocol:
    """Shift family on one half of a d-dim maximally entangled pair.

    The standard form of a Schmidt-diagonal dilution: one Alice measurement
    whose outcome k of the d/m applies sqrt(m * x) cyclically shifted by
    k*m positions, a message of message_bits bits naming k, and the
    partner's relabeling that undoes the shift. The measurement is complete
    exactly when every residue class mod m of x sums to 1/m.
    """

    x: np.ndarray
    m: int
    message_bits: int

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float).reshape(-1)
        m = self.m
        if m < 1 or x.size == 0 or x.size % m:
            raise ValidationError(f"{x.size} weights do not split into shifts of m = {m}")
        _check_weights_cap(x.size // m, x.size)
        if x.min() < -1e-15:
            raise ValidationError("negative weight")
        if self.message_bits < 0:
            raise ValidationError("negative message bits")
        if x.size // m > 2 ** self.message_bits:
            raise ValidationError("more outcomes than the message can carry")
        x = np.clip(x, 0.0, None)
        defect = np.abs(m * x.reshape(-1, m).sum(axis=0) - 1.0).max()
        if defect > 1e-12:
            raise ValidationError(f"residue-class completeness defect {defect}")
        x.setflags(write=False)
        object.__setattr__(self, "x", x)

    @property
    def dim_a(self) -> int:
        return int(self.x.size)

    def kraus_ops(self):
        """(weights, perm) of each outcome: sum_j sqrt(weights[j]) |perm[j]><j|."""
        d, m = self.dim_a, self.m
        idx = np.arange(d)
        for k in range(d // m):
            perm = (idx + k * m) % d
            yield m * self.x[perm], perm


def build_shift_dilution(q) -> StandardFormProtocol:
    """Exact dilution of a d-dim maximally entangled pair into profile q.

    The shift family's m = 1 case: outcome k applies sqrt(q) cyclically
    shifted by k, and the partner undoes the shift. Every outcome has
    probability 1/d and zero output error. The type checks q: with m = 1
    its one residue class is the whole profile, which must sum to 1.
    """
    q = np.asarray(q, dtype=float).reshape(-1)
    return StandardFormProtocol(q, 1, (q.size - 1).bit_length())


@dataclass(frozen=True)
class BlockShiftFamily:
    """Symbolic block dilution protocol over a sorted power spectrum.

    Outcome k shifts by k*m positions; by symmetry every outcome yields
    the same output profile q (flat on each of the K blocks), so a single
    representative outcome with multiplicity K describes the whole run.
    x_runs holds the columns (position counts, log2 q values) of runs in
    sorted-position order, covering [0, d_prime) contiguously; neighbouring
    runs differ in their q value.
    """

    spectrum: ClassSpectrum
    budget_c: int
    K: int
    m: int
    d_prime: int
    x_runs: tuple
    target_error: float

    def materialize(self) -> StandardFormProtocol:
        """The family as a shift protocol; refuses beyond the weights cap
        before it allocates anything."""
        _check_weights_cap(self.K, self.d_prime)
        counts, log2_x = self.x_runs
        vec = np.repeat(np.exp2(log2_x), counts)
        return StandardFormProtocol(vec / vec.sum(), int(self.m), self.budget_c)


def build_block_dilution(spec: ClassSpectrum, budget_c: int, eps_target: float = 0.1):
    """(protocol, predicted_error) of build_block_family: the family
    materialized to a StandardFormProtocol where its d' positions fit the
    dense oracle (d' <= DENSE_SIDE), the symbolic family everywhere else."""
    family = build_block_family(spec, budget_c, eps_target)
    proto = family.materialize() if family.d_prime <= DENSE_SIDE else family
    return proto, family.target_error


def build_block_family(spec: ClassSpectrum, budget_c: int, eps_target: float = 0.1):
    """Block dilution of spec's power profile under a message budget, as
    the symbolic BlockShiftFamily.

    The kept prefix holds mass 1 - eps_target^2/8 so that the truncation
    alone stays well inside the error target; flattening the blocks adds
    the rest. The family's target_error, the predicted error, is exact for
    the construction (not a bound).

    The split runs on per-boundary arrays. The kept prefix's class
    boundaries past the first block are divided by m in one pass; a class
    reaches a block end exactly when its two quotients differ, and only
    such a class pays for big ints: its head, whole blocks and tail, whose
    log2 lengths log2_ints takes in one pass. A whole class inside a block
    reads log2_mults and log2_eigs. Segment starts, the position-ordered
    units and the merge of equal neighbouring log2 x are numpy, and every
    term is formed and summed in position order, so the runs and the error
    are bit for bit those of a piece-by-piece split. Each straddled block's
    mass and overlap terms are summed by one grouped log-sum-exp per probe,
    with the bits of one log2sumexp per block.
    """
    if not 0.0 < eps_target < 2.0:
        raise ValidationError("error target must lie in (0, 2)")
    if budget_c < 0:
        raise ValidationError("negative message budget")
    view = spec.view
    d1, _, _ = view.sig_dim(1.0 - eps_target * eps_target / 8.0)
    # beyond ceil(log2 d1) extra bits buy nothing: clamp to the exact
    # per-position shift over the kept prefix (error = truncation only)
    budget_c = min(budget_c, (d1 - 1).bit_length())
    K = 1 << budget_c
    m = -(-d1 // K)
    d_prime = K * m
    lt = view.log2_mass_of_prefix(d_prime)

    # Class pieces covering [0, d_prime): piece i is [bounds[i], bounds[i+1]),
    # class i, and one -inf piece zero-pads past the spectrum. Each end is
    # divided by m once, (q, r) per boundary; the quotients may pass int64,
    # so they are compared as python ints. Piece i reaches a block end (cuts)
    # exactly when q[i + 1] != q[i], and only such pieces pay for big ints:
    # a head m - r[i] closing block q[i] (0 when r[i] = 0), whole blocks
    # `inner`, and a tail r[i + 1] opening block q[i + 1].
    k = view.class_at(d_prime - 1) + 1
    bounds = view.bounds(k - 1)[:k] + [d_prime]
    e = view.log2_eigs[:k]
    if e.size < k:
        e = np.append(e, NEG_INF)
    # a boundary below m is its own residue in block 0: only the rest divide
    j0 = bisect_left(bounds, m)
    q, r = zip(*map(divmod, bounds[j0:], repeat(m)))
    cuts = np.zeros(k, dtype=bool)
    cuts[j0 - 1] = True
    cuts[j0:] = np.fromiter(map(ne, q[1:], q), bool, k - j0)
    r = bounds[:j0] + list(r)
    cut = np.flatnonzero(cuts)
    lo, hi = cut.tolist(), (cut + 1).tolist()
    tails = list(map(r.__getitem__, hi))
    heads = [m - x if x else 0 for x in map(r.__getitem__, lo)]
    del q, r  # of the residues, only the cut pieces' heads and tails stay
    inner = list(
        map(sub, map(sub, map(sub, map(bounds.__getitem__, hi), map(bounds.__getitem__, lo)), heads), tails)
    )

    # Each piece has three slots in position order: its first part (the
    # whole class, or the head), its whole blocks and its tail, with log2 of
    # their lengths in slot_l2 (-inf for an empty slot). A piece that cuts
    # no block end is a whole class inside one block: log2_mults[i].
    slot_l2 = np.full((k, 3), NEG_INF)
    whole_l2 = spec.log2_mults[:k]
    slot_l2[: whole_l2.size, 0] = whole_l2
    slot_l2[cut] = log2_ints(heads + inner + tails).reshape(3, -1).T
    present = slot_l2 != NEG_INF
    mass = slot_l2 + e[:, None]
    root = slot_l2 + 0.5 * e[:, None]

    # Straddled blocks: the first parts and tails, in position order. A tail
    # opens its block's segment, and so does a whole class on a block start
    # (the piece before it ends there, with an empty tail); the terms of one
    # segment are one straddled block's. The mass and overlap sums run in
    # one grouped call, the overlap segments shifted past the mass terms.
    opens = np.zeros((k, 3), dtype=bool)
    opens[:, 0] = ~cuts & np.append(True, cuts[:-1] & ~present[:-1, 2])
    opens[:, 2] = present[:, 2]
    flat = present.copy()
    flat[:, 1] = False
    flat = flat.ravel()
    opens = opens.ravel()[flat]
    starts = np.flatnonzero(opens)
    nflat, nseg = int(opens.size), int(starts.size)
    starts = np.concatenate((starts, starts + nflat))
    terms = np.concatenate((mass.ravel()[flat], root.ravel()[flat]))
    sums = log2sumexp_windows(terms, starts, np.diff(starts, append=terms.size))
    block_log2_mass = sums[:nseg]
    block_log2_root = sums[nseg:]
    lm = log2_int(m)
    block_lx = block_log2_mass - lm - lt

    # Position-ordered units: a straddled block (m positions, its segment's
    # lx) or a piece's whole blocks (inner positions, e - lt); the slots of
    # one block give one unit. Neighbouring units of equal lx merge into
    # one run.
    has_inner = present[:, 1]
    seg = np.full(3 * k, -1)
    seg[flat] = np.cumsum(opens) - 1
    seg = seg[present.ravel()]
    seg = seg[(seg < 0) | (seg != np.append(-2, seg[:-1]))]
    in_seg = seg >= 0
    unit_lx = np.empty(seg.size)
    unit_lx[in_seg] = block_lx[seg[in_seg]]
    unit_lx[~in_seg] = e[has_inner] - lt
    unit_count = np.empty(seg.size, dtype=object)
    unit_count[in_seg] = m
    unit_count[~in_seg] = list(compress(inner, has_inner[cut].tolist()))
    run = np.flatnonzero(np.append(True, unit_lx[1:] != unit_lx[:-1]))
    x_runs = (tuple(np.add.reduceat(unit_count, run).tolist()), tuple(unit_lx[run].tolist()))
    # the whole blocks' overlaps in position order, then the straddled blocks'
    overlap_terms = np.concatenate(
        (mass[has_inner, 1], 0.5 * (block_log2_mass - lm) + block_log2_root)
    )

    if m == 1:
        # no flattening: the only loss is the truncated tail, and expm1
        # keeps it exact where 1 - exp2(lt) would cancel to roundoff
        target_error = 2.0 * math.sqrt(max(0.0, -math.expm1(lt * math.log(2.0))))
    else:
        l_f = log2sumexp(overlap_terms) - 0.5 * lt
        f_sq = min(1.0, float(np.exp2(2.0 * l_f)))
        target_error = 2.0 * math.sqrt(max(0.0, 1.0 - f_sq))

    return BlockShiftFamily(spec, budget_c, K, m, d_prime, x_runs, target_error)
