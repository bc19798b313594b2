"""Spectra of n-fold tensor powers via multiplicity classes.

A base spectrum (p_1..p_d) lifts to the spectrum of its n-th tensor power:
one class per composition (k_1..k_d) of n, eigenvalue prod p_i^{k_i} with
multiplicity n!/(k_1!..k_d!). Everything is carried in log2 (bits); exact
big-int multiplicities ride along when they are cheap, because dimension
counts routinely exceed 2^53.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import gammaln

from .errors import CapExceededError, DegenerateSpectrumError, ValidationError
from .logdomain import NEG_INF, ceil_exp2, log2_int, log2sumexp
from .tolerances import CLASS_CAP_DEFAULT, CLASS_MERGE_BITS, PROFILE_SUM_TOL

LN2 = math.log(2.0)

# exact big-int multiplicities are kept below these sizes
EXACT_MULT_MAX_N = 20_000
EXACT_MULT_MAX_CLASSES = 200_000


@dataclass(frozen=True)
class BaseSpectrum:
    """Eigenvalues of the single-copy reduced state, positive, sum 1.

    Zero entries are stripped on construction; order is canonicalized to
    nonincreasing.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float).reshape(-1)
        if p.size == 0:
            raise ValidationError("empty spectrum")
        if p.min() < -PROFILE_SUM_TOL:
            raise ValidationError("negative probability")
        p = p[p > 0.0]
        if p.size == 0:
            raise ValidationError("all entries zero")
        s = float(p.sum())
        if abs(s - 1.0) > PROFILE_SUM_TOL * max(1, p.size):
            raise ValidationError(f"probabilities sum to {s}")
        p = np.sort(p)[::-1].copy()
        object.__setattr__(self, "probs", p)
        p.setflags(write=False)

    @property
    def dim(self) -> int:
        return int(self.probs.size)


@dataclass(frozen=True)
class SpectrumStats:
    """Entropy E, deviation alpha, and third absolute moment beta of -log2 p."""

    entropy: float
    alpha: float
    beta: float
    degenerate: bool


def spectrum_stats(p: BaseSpectrum | np.ndarray) -> SpectrumStats:
    if not isinstance(p, BaseSpectrum):
        p = BaseSpectrum(p)
    probs = p.probs
    logs = np.log2(probs)
    e = float(-(probs * logs).sum())
    dev = logs + e
    alpha2 = float((probs * dev * dev).sum())
    alpha = math.sqrt(max(0.0, alpha2))
    beta = float((probs * np.abs(dev) ** 3).sum())
    # alpha = 0 exactly when all p_i are equal; numerically: below 1e-9 bits
    degenerate = alpha < 1e-9
    return SpectrumStats(entropy=e, alpha=alpha, beta=beta, degenerate=degenerate)


def _compositions(n: int, d: int):
    """All (k_1..k_d) with sum n, lexicographic."""
    if d == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in _compositions(n - head, d - 1):
            yield (head,) + rest


def _binomials_exact(n: int) -> list[int]:
    out = []
    c = 1
    for k in range(n + 1):
        out.append(c)
        c = c * (n - k) // (k + 1)
    return out


def _multinomial_exact(n: int, ks) -> int:
    out = 1
    rem = n
    for k in ks[:-1]:
        out *= math.comb(rem, k)
        rem -= k
    return out


@dataclass(frozen=True)
class ClassSpectrum:
    """Merged multiplicity classes of a tensor power, sorted by descending eigenvalue.

    log2_masses[i] = log2_mults[i] + log2_eigs[i]; the exact_mults tuple is
    present when big-int multiplicities were affordable (see module constants).
    """

    n: int
    base_probs: np.ndarray
    log2_eigs: np.ndarray
    log2_mults: np.ndarray
    log2_masses: np.ndarray
    exact_mults: tuple | None = None

    def __post_init__(self):
        for name in ("base_probs", "log2_eigs", "log2_mults", "log2_masses"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)
        if self.n < 1:
            raise ValidationError("n must be >= 1")
        if np.any(np.diff(self.log2_eigs) > CLASS_MERGE_BITS):
            raise ValidationError("classes must be sorted by descending eigenvalue")
        total = log2sumexp(self.log2_masses)
        if abs(total) > 1e-10:
            raise ValidationError(f"total mass 2^{total} not 1")
        dims = log2sumexp(self.log2_mults)
        want = self.n * math.log2(len(self.base_probs))
        if abs(dims - want) > 1e-6 * max(1.0, abs(want)):
            raise ValidationError("multiplicities do not sum to d^n")
        gap = np.abs(self.log2_masses - (self.log2_mults + self.log2_eigs))
        if gap.size and gap.max() > 1e-10 * np.maximum(1.0, np.abs(self.log2_masses)).max():
            raise ValidationError("mass != mult * eig in some class")
        if self.exact_mults is not None and len(self.exact_mults) != self.log2_eigs.size:
            raise ValidationError("exact_mults length mismatch")

    @property
    def num_classes(self) -> int:
        return int(self.log2_eigs.size)

    @cached_property
    def stats(self) -> SpectrumStats:
        """spectrum_stats of the base, built on first use."""
        return spectrum_stats(self.base_probs)

    @cached_property
    def view(self) -> SortedSpectrumView:
        """The spectrum's one SortedSpectrumView, built on first use."""
        return SortedSpectrumView(self)

    def to_json(self) -> dict:
        return {
            "n": int(self.n),
            "base_probs": [float(x) for x in self.base_probs],
            "classes": [
                {
                    "log2_eig": float(e),
                    "log2_mult": float(m),
                    "log2_mass": float(w),
                }
                for e, m, w in zip(self.log2_eigs, self.log2_mults, self.log2_masses)
            ],
        }


def _merge_classes(log2_eigs, log2_mults, exact_mults):
    """Merge classes whose eigenvalues agree within CLASS_MERGE_BITS."""
    order = np.argsort(-log2_eigs, kind="stable")
    e = log2_eigs[order]
    m = log2_mults[order]
    x = [exact_mults[i] for i in order] if exact_mults is not None else None
    out_e, out_m, out_x = [], [], [] if x is not None else None
    i = 0
    ncl = e.size
    while i < ncl:
        j = i + 1
        while j < ncl and e[i] - e[j] <= CLASS_MERGE_BITS:
            j += 1
        out_e.append(e[i])
        if j == i + 1:
            out_m.append(m[i])
            if out_x is not None:
                out_x.append(x[i])
        else:
            out_m.append(log2sumexp(m[i:j]))
            if out_x is not None:
                out_x.append(sum(x[i:j]))
        i = j
    return (
        np.asarray(out_e, dtype=float),
        np.asarray(out_m, dtype=float),
        tuple(out_x) if out_x is not None else None,
    )


def tensor_power_spectrum(
    p: BaseSpectrum | np.ndarray, n: int, class_cap: int = CLASS_CAP_DEFAULT
) -> ClassSpectrum:
    """Exact class spectrum of the n-fold tensor power of diag(p)."""
    if not isinstance(p, BaseSpectrum):
        p = BaseSpectrum(p)
    if n < 1:
        raise ValidationError("n must be >= 1")
    d = p.dim
    n_classes = math.comb(n + d - 1, d - 1)
    if n_classes > class_cap:
        raise CapExceededError(f"{n_classes} classes exceed the cap {class_cap}")

    logs = np.log2(p.probs)
    if d == 1:
        eigs = np.array([0.0])
        mults = np.array([0.0])
        exact = (1,)
    elif d == 2:
        ks = np.arange(n + 1)
        # base probs are sorted descending, so k = count of the smaller one
        eigs = (n - ks) * logs[0] + ks * logs[1]
        if n <= EXACT_MULT_MAX_N:
            exact = tuple(_binomials_exact(n))
            mults = np.asarray([log2_int(c) for c in exact], dtype=float)
        else:
            exact = None
            mults = (gammaln(n + 1) - gammaln(ks + 1) - gammaln(n - ks + 1)) / LN2
    else:
        ks = np.asarray(list(_compositions(n, d)), dtype=float)
        eigs = ks @ logs
        mults = (gammaln(n + 1) - gammaln(ks + 1).sum(axis=1)) / LN2
        if n_classes <= EXACT_MULT_MAX_CLASSES and n <= EXACT_MULT_MAX_N:
            exact = tuple(_multinomial_exact(n, tuple(int(v) for v in row)) for row in ks)
        else:
            exact = None

    eigs, mults, exact = _merge_classes(np.asarray(eigs, float), np.asarray(mults, float), exact)
    if exact is not None:
        # exact integers define the float log to the last ulp
        mults = np.asarray([log2_int(c) for c in exact], dtype=float)
    masses = mults + eigs
    # classes are a partition, so the mass defect is pure float roundoff;
    # renormalizing in log domain keeps the unit-total invariant exact
    total = log2sumexp(masses)
    masses = masses - total
    return ClassSpectrum(
        n=n,
        base_probs=p.probs,
        log2_eigs=eigs,
        log2_mults=mults,
        log2_masses=masses,
        exact_mults=exact,
    )


def mu(spec: ClassSpectrum, a: float, b: float) -> float:
    """Total mass of eigenvalues with log2 value in the closed interval [a, b]."""
    if a > b:
        raise ValidationError("mu needs a <= b")
    # eigs are sorted descending; find the slice inside [a, b] with a small
    # boundary tolerance so atoms sitting exactly on an endpoint count once
    desc = spec.log2_eigs
    asc = desc[::-1]
    lo = int(np.searchsorted(asc, a - 1e-9, side="left"))
    hi = int(np.searchsorted(asc, b + 1e-9, side="right"))
    if hi <= lo:
        return 0.0
    ncl = desc.size
    sl = spec.log2_masses[ncl - hi : ncl - lo]
    return float(np.exp2(log2sumexp(sl)))


def _upper_tail(x: float) -> float:
    # 0.5 erfc(x / sqrt 2), accurate for x >= 0
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def gaussian_cdf(x1: float, x2: float) -> float:
    """Standard normal mass of [x1, x2]; endpoints may be +-inf."""
    if math.isnan(x1) or math.isnan(x2):
        raise ValidationError("nan endpoint")
    if x1 > x2:
        raise ValidationError("gaussian_cdf needs x1 <= x2")
    if x1 >= 0.0:
        return max(0.0, _upper_tail(x1) - _upper_tail(x2))
    if x2 <= 0.0:
        return max(0.0, _upper_tail(-x2) - _upper_tail(-x1))
    return max(0.0, 1.0 - _upper_tail(x2) - _upper_tail(-x1))


@dataclass(frozen=True)
class BerryEsseenResult:
    mu_value: float
    gauss_value: float
    residual: float
    bound: float
    passed: bool


def berry_esseen_residual(spec: ClassSpectrum, a: float, b: float) -> BerryEsseenResult:
    """Gap between the exact interval mass and its Gaussian surrogate.

    spec is the n-fold power; it carries n and the base. The surrogate
    evaluates the normal mass between the standardized endpoints
    (a + nE)/(alpha sqrt n) and (b + nE)/(alpha sqrt n); the bound is
    25 beta / sqrt(n).
    """
    st = spec.stats
    if st.degenerate:
        raise DegenerateSpectrumError("alpha = 0: all base probabilities equal")
    if a > b:
        raise ValidationError("needs a <= b")
    n = spec.n
    rt = math.sqrt(n) * st.alpha
    x1 = (a + n * st.entropy) / rt
    x2 = (b + n * st.entropy) / rt
    m = mu(spec, a, b)
    g = gaussian_cdf(x1, x2)
    residual = abs(m - g)
    bound = 25.0 * st.beta / math.sqrt(n)
    return BerryEsseenResult(
        mu_value=m, gauss_value=g, residual=residual, bound=bound, passed=residual < bound
    )


def mass_threshold_class(log2_masses, log2_eigs, delta: float):
    """Walk the classes in descending order until the prefix mass reaches delta.

    Takes the classes' log2 masses and log2 eigenvalues. Returns (c, acc,
    lcount): the class c whose mass carries the prefix to delta, the mass
    acc of the classes before c, and log2 of the fractional count of
    class-c eigenvectors still needed. lcount is -inf when nothing more is
    needed; c = number of classes when the total mass stays below delta.
    """
    acc = 0.0
    for c, lw in enumerate(log2_masses):
        mass = float(np.exp2(lw))
        if acc + mass >= delta - 1e-15:
            need = delta - acc
            lcount = math.log2(need) - log2_eigs[c] if need > 0.0 else NEG_INF
            return c, acc, lcount
        acc += mass
    return len(log2_masses), acc, NEG_INF


class SortedSpectrumView:
    """Big-int position calculus over a sorted class spectrum.

    Exposes the spectrum as one long nonincreasing eigenvalue sequence:
    class c occupies positions [cum_counts[c], cum_counts[c+1]). Requires
    exact multiplicities; positions at n = 4096 are 3000-bit integers.

    A spectrum has one view, `ClassSpectrum.view`, built on first use and
    shared by block dilution, the runner's target walker, the certificate
    and sig_dim; sig_dim results are memoized per delta. The view keeps the
    spectrum's arrays but no reference to the spectrum itself, so the two
    form no cycle and are freed together by reference counting.
    """

    def __init__(self, spec: ClassSpectrum):
        if spec.exact_mults is None:
            raise CapExceededError(
                f"block dilution and its certificate need exact multiplicities, kept only for "
                f"n <= {EXACT_MULT_MAX_N} and at most {EXACT_MULT_MAX_CLASSES} classes; "
                f"this spectrum has n = {spec.n} and {spec.num_classes} classes"
            )
        self.counts = spec.exact_mults
        self.log2_eigs = spec.log2_eigs
        self.log2_masses = spec.log2_masses
        self.cum_counts = list(itertools.accumulate(self.counts, initial=0))
        self.total_dim = self.cum_counts[-1]
        self.prefix_log2_mass = np.concatenate(
            ([NEG_INF], np.logaddexp2.accumulate(spec.log2_masses))
        )
        self._sig_dims = {}

    def count_eigs_at_least(self, log2_threshold: float) -> int:
        """How many eigenvalues (with multiplicity) are >= 2^threshold."""
        out = 0
        for cnt, e in zip(self.counts, self.log2_eigs):
            if e >= log2_threshold - 1e-9:
                out += cnt
            else:
                break
        return out

    def class_of_position(self, pos: int) -> int:
        i = bisect_right(self.cum_counts, pos) - 1
        return min(i, len(self.counts) - 1)

    def runs(self, lo: int, hi: int):
        """Yield (count, log2_eig) runs covering positions [lo, hi)."""
        if lo >= hi:
            return
        hi = min(hi, self.total_dim)
        c = self.class_of_position(lo)
        pos = lo
        while pos < hi and c < len(self.counts):
            end = min(self.cum_counts[c + 1], hi)
            if end > pos:
                yield end - pos, self.log2_eigs[c]
            pos = end
            c += 1

    def log2_mass_of_prefix(self, dim: int) -> float:
        """log2 of the total mass of the top `dim` positions."""
        if dim <= 0:
            return NEG_INF
        if dim >= self.total_dim:
            return 0.0
        c = self.class_of_position(dim)
        whole = self.prefix_log2_mass[c]
        part = dim - self.cum_counts[c]
        if part == 0:
            return float(whole)
        return float(np.logaddexp2(whole, log2_int(part) + self.log2_eigs[c]))

    def sig_dim(self, delta: float):
        """Smallest prefix dimension with mass >= delta.

        Returns (dimension as big int, achieved mass, take_exact). The final
        class is entered fractionally and rounded up to whole
        eigendirections; take_exact reports whether that rounding resolved
        single eigenvectors (float masses cannot once one eigenvector weighs
        under ~2^-49 or the take passes 2^40). Memoized per delta.
        """
        if delta <= 0.0:
            return 0, 0.0, True
        if delta > 1.0 + 1e-9:
            raise ValidationError("delta exceeds total mass")
        hit = self._sig_dims.get(delta)
        if hit is not None:
            return hit
        c, acc, lcount = mass_threshold_class(self.log2_masses, self.log2_eigs, delta)
        dim = self.cum_counts[c]
        if lcount == NEG_INF:
            # delta reached on a class boundary, or (within 1e-9 of 1) never
            hit = (dim, acc, True)
        else:
            e = self.log2_eigs[c]
            pc = max(1, min(self.counts[c], ceil_exp2(lcount)))
            ach = acc + float(np.exp2(log2_int(pc) + e))
            hit = (dim + pc, ach, (pc <= 2**40 and e > -49.0))
        self._sig_dims[delta] = hit
        return hit
