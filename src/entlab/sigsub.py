"""Significant-subspace calculus.

S(rho, delta) is the smallest dimension of a projector capturing at least
delta of the mass. For class spectra the dimension is an extended integer:
an exact big int when multiplicities are exact, always with a log2 shadow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, ValidationError
from .logdomain import NEG_INF, ceil_exp2, log2_int
from .qmath import DensityMatrix, epsilon_rank, trace_distance
from .spectrum import ClassSpectrum, mass_threshold_class
from .tolerances import EQUALITY_TOL, RANK_REL_TOL

# reference experiment constant used throughout the scaling studies
REFERENCE_FLOOR_COEFF = 0.01


@dataclass(frozen=True)
class SigQueryResult:
    delta: float
    log2_dim: float
    exact_dim: int | None
    achieved_mass: float


def _sig_from_sorted_probs(probs: np.ndarray, delta: float) -> SigQueryResult:
    cum = np.cumsum(probs)
    total = cum[-1] if cum.size else 0.0
    if delta > total + 1e-9:
        raise ValidationError(f"delta {delta} exceeds total mass {total}")
    idx = int(np.searchsorted(cum, delta - 1e-12))
    idx = min(idx, probs.size - 1)
    dim = idx + 1
    return SigQueryResult(
        delta=delta,
        log2_dim=math.log2(dim),
        exact_dim=dim,
        achieved_mass=float(cum[idx]),
    )


def _sig_from_class_spectrum(spec: ClassSpectrum, delta: float) -> SigQueryResult:
    if delta > 1.0 + 1e-9:
        raise ValidationError(f"delta {delta} exceeds total mass")
    if spec.exact_bounds is not None:
        dim, ach, take_exact = spec.view.sig_dim(delta)
        return SigQueryResult(
            delta=delta,
            log2_dim=log2_int(dim) if dim else NEG_INF,
            # the integer is only published when the final-class rounding
            # resolved single eigenvectors; log2_dim is always authoritative
            exact_dim=dim if take_exact else None,
            achieved_mass=ach,
        )
    # float multiplicities: the dimension exists only as its log2
    c, acc, lcount = mass_threshold_class(spec.log2_masses, spec.log2_eigs, delta)
    prefix = np.logaddexp2.accumulate(spec.log2_mults[:c])
    log2_dim = float(prefix[-1]) if c else NEG_INF
    if lcount != NEG_INF:
        if lcount < 53.0:
            lcount = log2_int(ceil_exp2(lcount))
        lcount = min(lcount, spec.log2_mults[c])
        log2_dim = float(np.logaddexp2(log2_dim, lcount))
        acc += float(np.exp2(lcount + spec.log2_eigs[c]))
    return SigQueryResult(delta=delta, log2_dim=log2_dim, exact_dim=None, achieved_mass=acc)


def sig_dim(state, delta: float) -> SigQueryResult:
    """Minimal dimension capturing mass >= delta.

    Accepts a DensityMatrix, a ClassSpectrum, or a probability array sorted
    any way (it is re-sorted). delta = 0 gives dimension 0 by convention.
    """
    if not 0.0 <= delta or math.isnan(delta):
        raise ValidationError("delta must be in [0, 1]")
    if delta == 0.0:
        return SigQueryResult(delta=0.0, log2_dim=NEG_INF, exact_dim=0, achieved_mass=0.0)
    if isinstance(state, ClassSpectrum):
        return _sig_from_class_spectrum(state, delta)
    probs = _probs_of(state)
    # a DensityMatrix's eigenvalues are clamped at 0, so only a vector fails here
    if probs.size == 0 or probs.min() < -1e-12:
        raise ValidationError("invalid probability vector")
    return _sig_from_sorted_probs(probs, delta)


@dataclass(frozen=True)
class Prop1Result:
    holds: bool
    hypothesis_ok: bool
    distance: float
    rank_sigma: int
    sig: SigQueryResult


def check_prop1(rho: DensityMatrix, sigma: DensityMatrix, delta: float) -> Prop1Result:
    """rank(sigma) >= S(rho, delta) whenever D(rho, sigma) <= 2(1 - delta)."""
    dist = trace_distance(rho, sigma)
    hypothesis_ok = dist <= 2.0 * (1.0 - delta) + EQUALITY_TOL
    rank = epsilon_rank(sigma, RANK_REL_TOL)
    sig = sig_dim(rho, delta)
    holds = (not hypothesis_ok) or rank >= (sig.exact_dim or 0)
    return Prop1Result(
        holds=holds, hypothesis_ok=hypothesis_ok, distance=dist, rank_sigma=rank, sig=sig
    )


@dataclass(frozen=True)
class Prop2Result:
    holds: bool
    lhs: int
    mid: int
    rhs: int


def _probs_of(state) -> np.ndarray:
    if isinstance(state, DensityMatrix):
        return state.eigenvalues()
    return np.sort(np.asarray(state, dtype=float).reshape(-1))[::-1]


def check_prop2(a, b, delta_a: float, delta_b: float) -> Prop2Result:
    """Tensor chain S(AB, dA+dB) >= S(AB, dA+dB-dA*dB) > (S(A,dA)-1)(S(B,dB)-1)."""
    if delta_a < 0 or delta_b < 0 or delta_a + delta_b > 1.0 + 1e-12:
        raise ValidationError("need delta_a, delta_b >= 0 with sum <= 1")
    pa = _probs_of(a)
    pb = _probs_of(b)
    joint = np.outer(pa, pb).reshape(-1)
    lhs = sig_dim(joint, delta_a + delta_b).exact_dim
    mid = sig_dim(joint, delta_a + delta_b - delta_a * delta_b).exact_dim
    sa = sig_dim(pa, delta_a).exact_dim
    sb = sig_dim(pb, delta_b).exact_dim
    rhs = (sa - 1) * (sb - 1)
    return Prop2Result(holds=(lhs >= mid > rhs), lhs=lhs, mid=mid, rhs=rhs)


@dataclass(frozen=True)
class GrowthFit:
    n_grid: tuple
    excess: tuple
    fitted_coeff: float
    fitted_const: float
    residuals: tuple
    floor_ok: tuple
    measured_coeff: tuple
    delta: float
    floor_coeff: float


def growth_fit(spectra, delta: float) -> GrowthFit:
    """Fit log2 S(rho^n, delta) - nE against sqrt(n).

    spectra is an iterable of ClassSpectrum powers of one base, in strictly
    ascending n; each is read once as it arrives and not kept, so a
    generator keeps one spectrum alive at a time besides any it holds
    itself (cmd_inefficiency's holds the grid's spectra, whose exact
    multiplicities are cut to where the mass is). Also reports, per n,
    whether the excess
    clears log2(REFERENCE_FLOOR_COEFF) + alpha sqrt(n), and the measured
    per-n coefficient C(n) = S / 2^(nE + alpha sqrt n).
    """
    ns = []
    excess = []
    floor_ok = []
    measured = []
    for spec in spectra:
        if not ns:
            base = spec.base_probs
            st = spec.stats
            if st.degenerate:
                raise DegenerateSpectrumError("growth undefined for a flat spectrum")
        elif not np.array_equal(spec.base_probs, base):
            raise ValidationError("growth_fit needs powers of one base")
        elif spec.n <= ns[-1]:
            raise ValidationError("growth_fit needs spectra in strictly ascending n")
        n = spec.n
        ns.append(n)
        ex = sig_dim(spec, delta).log2_dim - n * st.entropy
        excess.append(ex)
        bound = math.log2(REFERENCE_FLOOR_COEFF) + st.alpha * math.sqrt(n)
        floor_ok.append(ex >= bound)
        measured.append(2.0 ** (ex - st.alpha * math.sqrt(n)))
        del spec  # let the next spectrum build without this one
    if not ns:
        raise ValidationError("growth_fit needs at least one spectrum")
    rt = np.sqrt(np.asarray(ns, dtype=float))
    design = np.vstack([rt, np.ones_like(rt)]).T
    coef, *_ = np.linalg.lstsq(design, np.asarray(excess), rcond=None)
    resid = np.asarray(excess) - design @ coef
    return GrowthFit(
        n_grid=tuple(ns),
        excess=tuple(float(x) for x in excess),
        fitted_coeff=float(coef[0]),
        fitted_const=float(coef[1]),
        residuals=tuple(float(r) for r in resid),
        floor_ok=tuple(bool(x) for x in floor_ok),
        measured_coeff=tuple(float(x) for x in measured),
        delta=float(delta),
        floor_coeff=float(REFERENCE_FLOOR_COEFF),
    )


@dataclass(frozen=True)
class MinDilutionResult:
    epsilon: float
    lower_log2: float
    upper_log2: float
    lower_exact: int | None
    upper_exact: int | None
    lower_delta: float
    upper_delta: float


def min_dilution_dimension(spec: ClassSpectrum, epsilon: float) -> MinDilutionResult:
    """Dimension window for diluting into n copies at error epsilon.

    spec is the n-fold power; it carries n and the base. lower: any output
    within trace distance epsilon has rank at least S(rho^n, 1 - eps/2).
    upper: the smallest truncation of the target whose renormalized state
    is within epsilon; truncating to the top k with mass tau gives distance
    exactly 2 sqrt(1 - tau), so the threshold is tau >= 1 - eps^2/4.
    """
    if not 0.0 < epsilon < 2.0:
        raise ValidationError("epsilon must be in (0, 2)")
    lower_delta = 1.0 - epsilon / 2.0
    upper_delta = 1.0 - epsilon * epsilon / 4.0
    lo = sig_dim(spec, lower_delta)
    up = sig_dim(spec, upper_delta)
    return MinDilutionResult(
        epsilon=float(epsilon),
        lower_log2=lo.log2_dim,
        upper_log2=up.log2_dim,
        lower_exact=lo.exact_dim,
        upper_exact=up.exact_dim,
        lower_delta=lower_delta,
        upper_delta=upper_delta,
    )
