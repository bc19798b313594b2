"""Builders for one-message dilution protocols.

Shift dilution turns a maximally entangled pair into an arbitrary equal
dimension Schmidt profile exactly, at ceil(log2 d) message bits. Block
dilution targets tensor-power profiles under a message budget: the
significant prefix of the sorted spectrum is cut into 2^budget equal
blocks, each flattened to its average, and only the block offset is
communicated. Small instances materialize to a standard-form protocol;
large ones stay symbolic as run columns (count, log2 x) over the sorted
spectrum, the form the runner gives every diagonal outcome.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from ..errors import CapExceededError, ValidationError
from ..logdomain import NEG_INF, log2_int, log2sumexp, log2sumexp_segments
from ..spectrum import ClassSpectrum
from ..tolerances import WEIGHTS_CAP


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
    """Block dilution of spec's power profile under a message budget.

    Returns (protocol, predicted_error): a StandardFormProtocol when the
    instance fits the dense weights cap, otherwise the symbolic family.
    The kept prefix holds mass 1 - eps_target^2/8 so that the truncation
    alone stays well inside the error target; flattening the blocks adds
    the rest. predicted_error is exact for the construction (not a bound).

    The split walks the kept prefix block by block: the classes that end
    inside the current block are taken in one step, with their whole-class
    terms read from the spectrum's arrays, and only a class that reaches a
    block end pays for a big-int divmod. The Python work grows with the
    number of such classes, not with the length of the prefix. Each
    straddled block's mass and overlap terms are summed by one grouped
    log-sum-exp per probe, with the bits of one log2sumexp per block.
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

    # class pieces covering [0, d_prime): class c is [bounds[c], bounds[c+1]),
    # and one -inf piece zero-pads past the spectrum. A whole class c puts
    # log2 count + e = log2_mults[c] + e into its block's mass and
    # log2_mults[c] + e/2 into the overlap.
    k = view.class_at(d_prime - 1) + 1
    bounds = view.bounds(k - 1)[:k] + [d_prime]
    eigs = view.log2_eigs[:k].tolist() + [NEG_INF]
    mass_terms = (spec.log2_mults[:k] + view.log2_eigs[:k]).tolist()
    root_terms = (spec.log2_mults[:k] + 0.5 * view.log2_eigs[:k]).tolist()

    # The walk stands at (q0, r0) = divmod(start, m). Classes that end
    # strictly inside block q0 (one bisect) form one straddled event; a
    # piece reaching (q1, r1) = divmod(end, m) straddles block q0 with its
    # head and q1 with its tail, covering whole blocks between. Events are
    # (segment, or None for whole blocks, length, log2 eigenvalue) in
    # position order. A straddled block's (mass, overlap) terms are one
    # contiguous segment of mass_flat and root_flat, opened where the walk
    # enters the block (r0 = 0 there), so both are summed in one call each.
    events = []
    mass_flat, root_flat, starts = [], [], []
    overlap_terms = []
    q0, r0 = 0, 0
    i, last = 0, len(bounds) - 1
    while i < last:
        lim = (q0 + 1) * m
        if bounds[i + 1] < lim:
            j = bisect_left(bounds, lim, i + 2) - 1
            length = bounds[j] - bounds[i]
            if not r0:
                starts.append(len(mass_flat))
            mass_flat.extend(mass_terms[i:j])
            root_flat.extend(root_terms[i:j])
            events.append((len(starts) - 1, length, None))
            r0 += length
            i = j
            continue
        q1, r1 = divmod(bounds[i + 1], m)
        e = eigs[i]
        head = m - r0 if r0 else 0
        if head:
            lc = log2_int(head)
            mass_flat.append(lc + e)
            root_flat.append(lc + 0.5 * e)
            events.append((len(starts) - 1, head, None))
        inner = bounds[i + 1] - bounds[i] - head - r1
        if inner:
            overlap_terms.append(log2_int(inner) + e)
            events.append((None, inner, e))
        if r1:
            lc = log2_int(r1)
            starts.append(len(mass_flat))
            mass_flat.append(lc + e)
            root_flat.append(lc + 0.5 * e)
            events.append((len(starts) - 1, r1, None))
        q0, r0 = q1, r1
        i += 1
    block_log2_mass = log2sumexp_segments(mass_flat, starts)

    # position-ordered output runs, and the straddled blocks' overlaps
    # after the whole blocks' terms
    lm = log2_int(m)
    block_lx = [b - lm - lt for b in block_log2_mass]
    x_runs = []
    for seg, length, e in events:
        lx = e - lt if seg is None else block_lx[seg]
        if x_runs and x_runs[-1][1] == lx:
            x_runs[-1] = (x_runs[-1][0] + length, lx)
        else:
            x_runs.append((length, lx))
    overlap_terms.extend(
        0.5 * (b - lm) + r
        for b, r in zip(block_log2_mass, log2sumexp_segments(root_flat, starts))
    )

    if m == 1:
        # no flattening: the only loss is the truncated tail, and expm1
        # keeps it exact where 1 - exp2(lt) would cancel to roundoff
        target_error = 2.0 * math.sqrt(max(0.0, -math.expm1(lt * math.log(2.0))))
    else:
        l_f = log2sumexp(overlap_terms) - 0.5 * lt
        f_sq = min(1.0, float(np.exp2(2.0 * l_f)))
        target_error = 2.0 * math.sqrt(max(0.0, 1.0 - f_sq))

    family = BlockShiftFamily(
        spec,
        budget_c=budget_c,
        K=K,
        m=m,
        d_prime=d_prime,
        x_runs=tuple(zip(*x_runs)),
        target_error=target_error,
    )
    if K * d_prime <= WEIGHTS_CAP:
        return family.materialize(), target_error
    return family, target_error
