"""Builders for one-message dilution protocols.

Shift dilution turns a maximally entangled pair into an arbitrary equal
dimension Schmidt profile exactly, at ceil(log2 d) message bits. Block
dilution targets tensor-power profiles under a message budget: the
significant prefix of the sorted spectrum is cut into 2^budget equal
blocks, each flattened to its average, and only the block offset is
communicated. Small instances materialize to a standard-form protocol;
large ones stay symbolic as run columns (count, log2 x, log2 target) over
the sorted spectrum, the form the runner gives every diagonal outcome.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from ..errors import CapExceededError, ValidationError
from ..logdomain import NEG_INF, log2_int, log2sub, log2sumexp
from ..spectrum import ClassSpectrum
from ..tolerances import PROFILE_SUM_TOL, WEIGHTS_CAP
from .standard import DiagonalKraus, StandardFormProtocol


def _shift_family(vec, m: int, count: int, message_bits: int) -> StandardFormProtocol:
    """Outcome k applies sqrt(m * vec) cyclically shifted by k*m positions;
    the partner undoes the shift."""
    d = vec.size
    idx = np.arange(d)
    ops = []
    for k in range(count):
        perm = (idx + k * m) % d
        ops.append(DiagonalKraus(weights=m * vec[perm], perm=perm))
    return StandardFormProtocol(dim_a=d, dim_b=d, alice_ops=tuple(ops), message_bits=message_bits)


def build_shift_dilution(q) -> StandardFormProtocol:
    """Exact dilution of a d-dim maximally entangled pair into profile q.

    Outcome k applies sqrt(q) cyclically shifted by k; the partner undoes
    the shift. Every outcome has probability 1/d and zero output error.
    """
    q = np.asarray(q, dtype=float).reshape(-1)
    d = q.size
    if d == 0:
        raise ValidationError("empty profile")
    if d > WEIGHTS_CAP:
        raise CapExceededError(f"profile length exceeds {WEIGHTS_CAP}")
    if q.min() < -1e-15 or abs(q.sum() - 1.0) > PROFILE_SUM_TOL:
        raise ValidationError("profile must be a probability vector")
    return _shift_family(np.clip(q, 0.0, None), 1, d, (d - 1).bit_length())


@dataclass(frozen=True)
class BlockShiftFamily:
    """Symbolic block dilution protocol over a sorted power spectrum.

    Outcome k shifts by k*m positions; by symmetry every outcome yields
    the same output profile q (flat on each of the K blocks), so a single
    representative outcome with multiplicity K describes the whole run.
    x_runs holds the columns (position counts, log2 q values, log2 target
    eigenvalues) of runs in sorted-position order, covering [0, d_prime)
    contiguously; tail_log2_mass is the target mass at positions >= d_prime.
    """

    spectrum: ClassSpectrum
    budget_c: int
    K: int
    m: int
    d_prime: int
    x_runs: tuple
    tail_log2_mass: float
    target_error: float

    def materialize(self) -> StandardFormProtocol:
        """Dense standard-form realization; refuses beyond the weights cap."""
        if self.K * self.d_prime > WEIGHTS_CAP:
            raise CapExceededError("family too large to materialize")
        counts, log2_x, _ = self.x_runs
        vec = np.concatenate(
            [np.full(int(cnt), float(np.exp2(lx))) for cnt, lx in zip(counts, log2_x)]
        )
        return _shift_family(vec / vec.sum(), int(self.m), int(self.K), self.budget_c)


def build_block_dilution(spec: ClassSpectrum, budget_c: int, eps_target: float = 0.1):
    """Block dilution of spec's power profile under a message budget.

    Returns (protocol, predicted_error): a StandardFormProtocol when the
    instance fits the dense weights cap, otherwise the symbolic family.
    The kept prefix holds mass 1 - eps_target^2/8 so that the truncation
    alone stays well inside the error target; flattening the blocks adds
    the rest. predicted_error is exact for the construction (not a bound).
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
    # and one -inf piece zero-pads past the spectrum
    k = bisect_left(view.cum_counts, d_prime)
    bounds = view.cum_counts[:k] + [d_prime]
    eigs = view.log2_eigs[:k].tolist() + [NEG_INF]
    # one divmod per boundary: a piece from (q0, r0) to (q1, r1) straddles
    # block q0 with its head and block q1 with its tail, and covers whole
    # blocks in between; events are (block or None for whole blocks,
    # length, log2 length, log2 eigenvalue) in position order
    events = []
    q0, r0 = 0, 0
    for i in range(len(bounds) - 1):
        q1, r1 = divmod(bounds[i + 1], m)
        e = eigs[i]
        if q1 == q0:
            events.append((q0, r1 - r0, log2_int(r1 - r0), e))
        else:
            head = m - r0 if r0 else 0
            if head:
                events.append((q0, head, log2_int(head), e))
            inner = bounds[i + 1] - bounds[i] - head - r1
            if inner:
                events.append((None, inner, log2_int(inner), e))
            if r1:
                events.append((q1, r1, log2_int(r1), e))
        q0, r0 = q1, r1

    # pass 1: straddled blocks and their total mass
    partial_mass = {}
    for block, _, llen, e in events:
        if block is not None:
            partial_mass.setdefault(block, []).append((llen, e))
    block_log2_mass = {b: log2sumexp([lc + e for lc, e in runs]) for b, runs in partial_mass.items()}

    # pass 2: position-ordered output runs and the overlap with the target
    lm = log2_int(m)
    x_runs = []
    overlap_terms = []
    for block, length, llen, e in events:
        if block is None:
            lx = e - lt
            overlap_terms.append(llen + e)
        else:
            lx = block_log2_mass[block] - lm - lt
        if x_runs and x_runs[-1][1] == lx and x_runs[-1][2] == e:
            x_runs[-1] = (x_runs[-1][0] + length, lx, e)
        else:
            x_runs.append((length, lx, e))

    for b, runs in partial_mass.items():
        lmass = block_log2_mass[b]
        overlap_terms.append(0.5 * (lmass - lm) + log2sumexp([lc + 0.5 * e for lc, e in runs]))

    if m == 1:
        # no flattening: the only loss is the truncated tail, and expm1
        # keeps it exact where 1 - exp2(lt) would cancel to roundoff
        target_error = 2.0 * math.sqrt(max(0.0, -math.expm1(lt * math.log(2.0))))
    else:
        l_f = log2sumexp(overlap_terms) - 0.5 * lt
        f_sq = min(1.0, float(np.exp2(2.0 * l_f)))
        target_error = 2.0 * math.sqrt(max(0.0, 1.0 - f_sq))

    tail = log2sub(0.0, lt) if lt < 0.0 else NEG_INF

    family = BlockShiftFamily(
        spec,
        budget_c=budget_c,
        K=K,
        m=m,
        d_prime=d_prime,
        x_runs=tuple(zip(*x_runs)),
        tail_log2_mass=tail,
        target_error=target_error,
    )
    if K * d_prime <= WEIGHTS_CAP:
        return family.materialize(), target_error
    return family, target_error
