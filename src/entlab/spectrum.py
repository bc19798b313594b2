"""Spectra of n-fold tensor powers via multiplicity classes.

A base spectrum (p_1..p_d) lifts to the spectrum of its n-th tensor power:
one class per composition (k_1..k_d) of n, eigenvalue prod p_i^{k_i} with
multiplicity n!/(k_1!..k_d!). Everything is carried in log2 (bits); exact
big-int class boundaries ride along when they are cheap, because dimension
counts routinely exceed 2^53.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapExceededError, DegenerateSpectrumError, ValidationError
from .logdomain import (
    NEG_INF,
    ceil_exp2,
    log2_int,
    log2_ints,
    log2sumexp,
    log2sumexp_windows,
)
from .tolerances import CLASS_CAP_DEFAULT, CLASS_MERGE_BITS, PROFILE_SUM_TOL

LN2 = math.log(2.0)

# exact big-int multiplicities are kept below these sizes; the second
# counts compositions of n, before equal eigenvalues merge into classes
EXACT_MULT_MAX_N = 20_000
EXACT_MULT_MAX_CLASSES = 200_000
# d >= 3 compositions are enumerated in blocks of whole k_1 runs of at
# most this many rows (one run longer than this is a block of its own):
# n <= 179 at d = 3 and n <= 44 at d = 4 stay one block, and summing a
# block's exact multinomials (2.5 MB traced at d = 4, n = 100) stays below
# the sort of all log2 eigenvalues, which sets the build's peak (4.4 MB)
COMPOSITION_BLOCK_ROWS = 1 << 14
# a spectrum holds its exact class boundaries through its last class of
# float mass at least HELD_TAIL_MASS: a later class adds under half an ulp
# to a prefix mass past 1/2, so no prefix-mass query stops beyond it. The
# d = 2 build streams them to 2^STREAM_TAIL_BITS, a margin for renormalizing
HELD_TAIL_MASS = 2.0**-54
STREAM_TAIL_BITS = -60.0


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
        if not np.isfinite(p).all():
            raise ValidationError(f"p has a non-finite entry: {p.tolist()}")
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


def _next_parts(rem: np.ndarray):
    """(owner, k): each row with rem r still to place becomes r + 1 rows,
    rows of owner i taking the next coordinate k = 0..rem[i]."""
    counts = rem + 1
    owner = np.repeat(np.arange(rem.size), counts)
    k = (np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]).astype(np.int32)
    return owner, k


def _compositions(n: int, d: int, k1s: range) -> np.ndarray:
    """The (k_1..k_d) with sum n and k_1 in k1s, as int32 rows, lexicographic.

    Built one coordinate at a time from the k_1 column (_next_parts).
    """
    k = np.arange(k1s.start, k1s.stop, dtype=np.int32)
    cols = [k]
    rem = n - k
    for _ in range(d - 2):
        owner, k = _next_parts(rem)
        cols = [c[owner] for c in cols] + [k]
        rem = rem[owner] - k
    return np.stack(cols + [rem], axis=1)


def _multinomials(n: int, d: int, k1s: range, pascal: np.ndarray):
    """The exact multinomials of _compositions(n, d, k1s), as objects.

    A row's is the product of C(r_i, k_i) over its first d - 1 coordinates,
    r_i what is left of n before coordinate i, read from the Pascal table
    pascal[r, k]. Products are formed one coordinate at a time, in walk
    order as the rows are, so a prefix shared by many rows is multiplied
    once.
    """
    k = np.arange(k1s.start, k1s.stop)
    out = pascal[n, k]
    rem = n - k
    for _ in range(d - 2):
        owner, k = _next_parts(rem)
        rem = rem[owner]
        out = out[owner] * pascal[rem, k]
        rem -= k
    return out


def _k1_blocks(n: int, d: int):
    """The compositions of n into d >= 3 parts in blocks of whole k_1 runs.

    Yields (rows, k1s) in lexicographic order: the block holds the
    compositions with k_1 in the range k1s, which are the slice rows of the
    whole order. The run of k_1 has C(n - k_1 + d - 2, d - 2) rows; a
    block takes runs while its rows stay within COMPOSITION_BLOCK_ROWS, and
    at least one run.
    """
    lo = k1 = 0
    while k1 <= n:
        end, size = k1 + 1, math.comb(n - k1 + d - 2, d - 2)
        while end <= n and size + math.comb(n - end + d - 2, d - 2) <= COMPOSITION_BLOCK_ROWS:
            size += math.comb(n - end + d - 2, d - 2)
            end += 1
        yield slice(lo, lo + size), range(k1, end)
        lo += size
        k1 = end


def _row_logs(n: int, d: int, logs: np.ndarray, with_mults: bool):
    """log2 eigenvalue, and log2 multiplicity when with_mults, of every composition.

    Rows follow the lexicographic order, one _k1_blocks block at a time;
    a block's eigenvalues are its rows' float copy times logs, and its
    multiplicities the gammaln form, so a row's bits do not depend on its
    block. The multiplicities are None without with_mults.
    """
    size = math.comb(n + d - 1, d - 1)
    eigs = np.empty(size)
    mults = None
    if with_mults:
        # only the log-only paths import scipy: no other needs it at start-up
        from scipy.special import gammaln

        mults = np.empty(size)
        top = gammaln(n + 1)
    for rows, k1s in _k1_blocks(n, d):
        block = _compositions(n, d, k1s)
        eigs[rows] = block.astype(float) @ logs
        if with_mults:
            mults[rows] = (top - gammaln(block + 1).sum(axis=1)) / LN2
    return eigs, mults


def _binomial_classes(n: int, starts: np.ndarray, eigs: np.ndarray, whole: bool):
    """(boundaries, log2 multiplicities) of the d = 2 classes, in one pass.

    At d = 2 the eigenvalues fall with k, so class c holds C(n, k) for k
    in [starts[c], starts[c + 1]). The row is formed by the multiplicative
    recurrence, and each class's count is taken log2_int of as it is formed.
    Boundaries are appended until, past the mode, a class's mass falls
    below 2^STREAM_TAIL_BITS, or to the end when whole. When no classes
    merge, the row stops there or at n/2 if later, and the remaining log2
    multiplicities mirror the first ones: C(n, k) = C(n, n - k).
    """
    merged = starts.size <= n
    ends = np.append(starts[1:], n + 1).tolist()
    mults, bounds, c = [], [0], 1
    grow, seen = True, False
    for lo, hi, e in zip(starts.tolist(), ends, eigs.tolist()):
        if not (grow or merged or lo <= n // 2):
            mults += mults[n - lo :: -1]
            break
        s = c
        c = c * (n - lo) // (lo + 1)
        if hi > lo + 1:
            for k in range(lo + 1, hi):
                s += c
                c = c * (n - k) // (k + 1)
        mults.append(log2_int(s))
        if grow:
            bounds.append(bounds[-1] + s)
            heavy = mults[-1] + e >= STREAM_TAIL_BITS
            seen |= heavy
            grow = whole or heavy or not seen
    return bounds, np.array(mults)


def _summed_multinomials(n: int, d: int, cls: np.ndarray, num_classes: int):
    """Exact multiplicity of each merged class, as an object array of ints.

    cls[i] is the class of composition i in lexicographic order. The
    multinomials are formed in walk order, one _k1_blocks block at a time
    from one Pascal table (_multinomials), gathered by class and summed per
    class with np.add.reduceat before the next block is formed, so they are
    never all held at once and the rows themselves are never formed.
    """
    pascal = np.zeros((n + 1, n + 1), dtype=object)
    pascal[:, 0] = 1
    for r in range(1, n + 1):
        pascal[r, 1:] = pascal[r - 1, 1:] + pascal[r - 1, :-1]
    sums = np.zeros(num_classes, dtype=object)
    for rows, k1s in _k1_blocks(n, d):
        ids = cls[rows]
        # the sums are exact ints, so the order they are added in is free
        # and the sort need not be stable
        by_class = np.argsort(ids)
        ids = ids[by_class]
        heads = np.flatnonzero(np.append(True, ids[1:] != ids[:-1]))
        sums[ids[heads]] += np.add.reduceat(_multinomials(n, d, k1s, pascal)[by_class], heads)
    return sums


def _class_starts(e: np.ndarray) -> np.ndarray:
    """First index of each merged class in descending log2 eigenvalues e.

    A class is anchored at its first member and takes every following
    member within CLASS_MERGE_BITS of it. An adjacent gap wider than that
    always starts a class; a run between such gaps is one class when its
    span fits in CLASS_MERGE_BITS, and is walked from its anchor otherwise
    (a chain of near-ties can be wider than the merge width).
    """
    cut = np.flatnonzero(e[:-1] - e[1:] > CLASS_MERGE_BITS) + 1
    starts = np.concatenate(([0], cut))
    ends = np.append(cut, e.size)
    anchors = []
    for c in np.flatnonzero(e[starts] - e[ends - 1] > CLASS_MERGE_BITS):
        i = starts[c]
        for j in range(i + 1, ends[c]):
            if e[i] - e[j] > CLASS_MERGE_BITS:
                anchors.append(j)
                i = j
    return np.union1d(starts, anchors) if anchors else starts


@dataclass(frozen=True)
class ClassSpectrum:
    """Merged multiplicity classes of a tensor power, sorted by descending eigenvalue.

    log2_masses[i] = log2_mults[i] + log2_eigs[i], every entry finite. The
    one exact representation is exact_bounds, a list of the class
    boundaries B_0 = 0, B_1, ..., as big ints, present when they are
    affordable (see module constants). It holds either all of them, through
    B_num_classes, or exactly those through the end of the last class of
    float mass at least HELD_TAIL_MASS, as tensor_power_spectrum builds
    it; any other length is refused. Only SortedSpectrumView reads past a
    held list, by completing it once per view.
    """

    n: int
    base_probs: np.ndarray
    log2_eigs: np.ndarray
    log2_mults: np.ndarray
    log2_masses: np.ndarray
    exact_bounds: list | None = None

    def __post_init__(self):
        for name in ("base_probs", "log2_eigs", "log2_mults", "log2_masses"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if not np.isfinite(arr).all():
                raise ValidationError(f"{name} has a non-finite entry")
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
        b = self.exact_bounds
        full = b is None or len(b) == self.num_classes + 1
        if not full and len(b) != _held_length(self.log2_masses):
            raise ValidationError("exact_bounds length mismatch")
        if b is not None and not isinstance(b, list):
            object.__setattr__(self, "exact_bounds", list(b))

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


def tensor_power_spectrum(p: BaseSpectrum | np.ndarray, n: int) -> ClassSpectrum:
    """Exact class spectrum of the n-fold tensor power of diag(p), its exact
    class boundaries held only through its mass cut (_held_length)."""
    return _build_spectrum(p, n, whole=False)


def _held_length(log2_masses: np.ndarray) -> int:
    """How many boundaries a spectrum holds: B_0 through the end of its
    last class of float mass at least HELD_TAIL_MASS."""
    return int(np.flatnonzero(np.exp2(log2_masses) >= HELD_TAIL_MASS)[-1]) + 2


def _build_spectrum(p: BaseSpectrum | np.ndarray, n: int, whole: bool) -> ClassSpectrum:
    """tensor_power_spectrum, holding every exact boundary when whole."""
    if not isinstance(p, BaseSpectrum):
        p = BaseSpectrum(p)
    if n < 1:
        raise ValidationError("n must be >= 1")
    d = p.dim
    n_rows = math.comb(n + d - 1, d - 1)
    if n_rows > CLASS_CAP_DEFAULT:
        raise CapExceededError(
            f"{n_rows} compositions of n = {n} into d = {d} parts exceed "
            f"CLASS_CAP_DEFAULT = {CLASS_CAP_DEFAULT}"
        )

    if d == 1:
        eigs = np.array([0.0])
        mults = np.array([0.0])
        bounds = [0, 1]
    else:
        logs = np.log2(p.probs)
        keep_exact = n <= EXACT_MULT_MAX_N and n_rows <= EXACT_MULT_MAX_CLASSES
        if d == 2:
            # base probs are sorted descending, so k = count of the smaller
            # one, and the eigenvalues fall with k: k is the sorted order
            ks = order = np.arange(n + 1)
            eigs = (n - ks) * logs[0] + ks * logs[1]
        else:
            eigs, row_mults = _row_logs(n, d, logs, not keep_exact)
            order = np.argsort(-eigs, kind="stable")
            eigs = eigs[order]
        starts = _class_starts(eigs)
        eigs = eigs[starts]
        if keep_exact and d == 2:
            bounds, mults = _binomial_classes(n, starts, eigs, whole)
        elif keep_exact:
            # int32 class ids: the exact path stops at 200,000 rows
            cls = np.empty(n_rows, dtype=np.int32)
            cls[order] = np.repeat(
                np.arange(starts.size, dtype=np.int32), np.diff(starts, append=n_rows)
            )
            del order
            bounds = _summed_multinomials(n, d, cls, starts.size).tolist()
            # exact integers define the float log to the last ulp
            mults = log2_ints(bounds)
            # the counts become boundaries in place, each count released as
            # its boundary replaces it
            bounds.insert(0, 0)
            for i in range(2, len(bounds)):
                bounds[i] += bounds[i - 1]
        else:
            bounds = None
            if d == 2:
                # only the log-only paths import scipy: no other needs it at start-up
                from scipy.special import gammaln

                row_mults = (gammaln(n + 1) - gammaln(ks + 1) - gammaln(n - ks + 1)) / LN2
            row_mults = row_mults[order]
            del order
            mults = log2sumexp_windows(row_mults, starts, np.diff(starts, append=n_rows))
    masses = mults + eigs
    # classes are a partition, so the mass defect is pure float roundoff;
    # renormalizing in log domain keeps the unit-total invariant exact
    total = log2sumexp(masses)
    masses = masses - total
    if bounds is not None and not whole:
        del bounds[_held_length(masses) :]
    return ClassSpectrum(
        n=n,
        base_probs=p.probs,
        log2_eigs=eigs,
        log2_mults=mults,
        log2_masses=masses,
        exact_bounds=bounds,
    )


def _complete_bounds(probs: np.ndarray, n: int, held: list, num_classes: int) -> list:
    """Every exact class boundary of the n-fold power of probs, from one
    whole build; they must number num_classes + 1 and begin with held."""
    whole = _build_spectrum(probs, n, whole=True).exact_bounds
    if len(whole) != num_classes + 1 or whole[: len(held)] != held:
        raise ValidationError(
            f"exact_bounds of n = {n} do not begin a whole build of {num_classes} classes"
        )
    return whole


def _class_slices(asc: np.ndarray, a, b):
    """The window-to-slice rule: classes whose log2 eigenvalue lies in [a, b].

    asc holds the log2 eigenvalues in ascending order. Returns the index
    range [lo, hi) into asc; each endpoint is widened by 1e-9 so atoms
    sitting exactly on it count once. a and b may be arrays.
    """
    lo = np.searchsorted(asc, a - 1e-9, side="left")
    hi = np.searchsorted(asc, b + 1e-9, side="right")
    return lo, hi


def _slice_mass(log2_masses: np.ndarray, lo: int, hi: int) -> float:
    """Total mass of the ascending-order class slice [lo, hi); masses are descending."""
    if hi <= lo:
        return 0.0
    ncl = log2_masses.size
    return float(np.exp2(log2sumexp(log2_masses[ncl - hi : ncl - lo])))


def mu(spec: ClassSpectrum, a: float, b: float) -> float:
    """Total mass of eigenvalues with log2 value in the closed interval [a, b]."""
    if a > b:
        raise ValidationError("mu needs a <= b")
    lo, hi = _class_slices(spec.log2_eigs[::-1], a, b)
    return _slice_mass(spec.log2_masses, int(lo), int(hi))


_SQRT2 = math.sqrt(2.0)


def _upper_tail(x: float) -> float:
    # 0.5 erfc(x / sqrt 2), accurate for x >= 0
    return 0.5 * math.erfc(x / _SQRT2)


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


def gaussian_masses(x1, x2) -> np.ndarray:
    """gaussian_cdf(x1, x2) entry by entry, bit for bit; x1 and x2 broadcast.

    Every tail gaussian_cdf takes is 0.5 erfc(|x| / sqrt 2) of one
    endpoint (erfc(-0.0) = erfc(0.0)), so the tails are one math.erfc per
    entry of x1 and of x2, all in one pass over a list: a column x1
    against a 2-D x2 takes each row's left tail once. The rest is
    gaussian_cdf's IEEE arithmetic in its order, on arrays, with
    max(0.0, v) as np.where(v > 0.0, v, 0.0).
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if np.isnan(x1).any() or np.isnan(x2).any():
        raise ValidationError("nan endpoint")
    if (x1 > x2).any():
        raise ValidationError("gaussian_cdf needs x1 <= x2")
    args = np.abs(np.concatenate((x1.ravel(), x2.ravel()))) / _SQRT2
    tails = 0.5 * np.fromiter(map(math.erfc, args.tolist()), float, args.size)
    t1 = tails[: x1.size].reshape(x1.shape)
    t2 = tails[x1.size :].reshape(x2.shape)
    mass = np.where(x1 >= 0.0, t1 - t2, np.where(x2 <= 0.0, t2 - t1, 1.0 - t2 - t1))
    return np.where(mass > 0.0, mass, 0.0)


# Cephes ndtri (the algorithm of scipy.special.ndtri and so of
# scipy.stats.norm.ppf): three rational approximations with Cephes's
# coefficients, highest power first. Cephes leaves each denominator's
# leading 1 implicit (p1evl starts from x + c); 1.0 * x is exact, so
# writing it out keeps the bits
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
# |y - 0.5| <= 3/8
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.0,
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
# z = sqrt(-2 log y) in [2, 8), y down to exp(-32)
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.0,
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
# z in [8, 64)
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    1.0,
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)


def _polevl(x: float, coef: tuple) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def gaussian_quantile(y: float) -> float:
    """Standard normal quantile: the x with Phi(x) = y, +-inf at y = 1, 0.

    A port of Cephes ndtri in the same operation order, so it returns
    the bits of scipy.special.ndtri for every y in [0, 1].
    """
    if not 0.0 <= y <= 1.0:  # also refuses nan
        raise ValidationError(f"gaussian_quantile needs y in [0, 1], got {y}")
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    negate = True
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


@dataclass(frozen=True)
class BerryEsseenResult:
    mu_value: float
    gauss_value: float
    residual: float
    bound: float
    passed: bool


def _surrogate(spec: ClassSpectrum):
    """(nE, alpha sqrt(n), 25 beta / sqrt(n)) of the n-fold power spec.

    The Gaussian surrogate of a window [a, b] is the normal mass between
    the standardized endpoints (a + nE)/(alpha sqrt n) and
    (b + nE)/(alpha sqrt n); 25 beta / sqrt(n) bounds the residual.
    """
    st = spec.stats
    if st.degenerate:
        raise DegenerateSpectrumError("alpha = 0: all base probabilities equal")
    n = spec.n
    return n * st.entropy, math.sqrt(n) * st.alpha, 25.0 * st.beta / math.sqrt(n)


def berry_esseen_residual(spec: ClassSpectrum, a: float, b: float) -> BerryEsseenResult:
    """Gap between the exact mass of [a, b] and its Gaussian surrogate.

    spec is the n-fold power; it carries n and the base.
    """
    ne, rt, bound = _surrogate(spec)
    if a > b:
        raise ValidationError("needs a <= b")
    m = mu(spec, a, b)
    g = gaussian_cdf((a + ne) / rt, (b + ne) / rt)
    residual = abs(m - g)
    return BerryEsseenResult(
        mu_value=m, gauss_value=g, residual=residual, bound=bound, passed=residual < bound
    )


def grid_windows(spec: ClassSpectrum, lefts, widths):
    """The unrounded windows of berry_esseen_grid, as arrays (a, b).

    a[i] = lefts[i] alpha sqrt(n) - nE, and b[i, j] = (lefts[i] +
    widths[j]) alpha sqrt(n) - nE: row i holds the windows of left edge
    lefts[i].
    """
    ne, rt, _ = _surrogate(spec)
    lefts = np.asarray(lefts, dtype=float)
    widths = np.asarray(widths, dtype=float)
    return lefts * rt - ne, (lefts[:, None] + widths) * rt - ne


@dataclass(frozen=True)
class ResidualTable:
    """berry_esseen_residual over a grid of windows, as columns.

    Row i of the 2-D arrays is the block of windows [a[i], b[i, j]] that
    share the left endpoint a[i]; residual[i, j] and passed[i, j] belong
    to window (i, j). n and bound are the same for every window.
    """

    n: int
    bound: float
    a: np.ndarray
    b: np.ndarray
    residual: np.ndarray
    passed: np.ndarray


def berry_esseen_grid(spec: ClassSpectrum, lefts, widths) -> ResidualTable:
    """berry_esseen_residual over a grid of standardized windows, in one pass.

    Window (i, j) is [a, b] with a = lefts[i] alpha sqrt(n) - nE and
    b = (lefts[i] + widths[j]) alpha sqrt(n) - nE (grid_windows). The
    table's residual[i, j], bound and passed[i, j] equal, float for float,
    the fields of berry_esseen_residual(spec, a, b). The class slices of the
    whole grid are found with one searchsorted, the masses of its distinct
    slices are summed by one log2sumexp_windows call, and the Gaussian
    masses are one gaussian_masses call.
    """
    ne, rt, bound = _surrogate(spec)
    widths = np.asarray(widths, dtype=float)
    if widths.size and widths.min() < 0.0:
        raise ValidationError("needs widths >= 0")
    a, b = grid_windows(spec, lefts, widths)
    g = gaussian_masses(((a + ne) / rt)[:, None], (b + ne) / rt)
    asc = np.ascontiguousarray(spec.log2_eigs[::-1])
    ncl = asc.size
    lo, hi = _class_slices(asc, a[:, None], b)
    # slice [lo, hi) of the ascending classes is masses[ncl - hi : ncl - lo]
    keys, which = np.unique((lo * (ncl + 1) + hi).ravel(), return_inverse=True)
    lo, hi = np.divmod(keys, ncl + 1)
    live = np.flatnonzero(hi > lo)
    masses = np.zeros(keys.size)
    masses[live] = np.exp2(log2sumexp_windows(spec.log2_masses, ncl - hi[live], (hi - lo)[live]))
    residual = np.abs(masses[which].reshape(b.shape) - g)
    return ResidualTable(
        n=spec.n, bound=bound, a=a, b=b, residual=residual, passed=residual < bound
    )


def _prefix_masses(log2_masses) -> np.ndarray:
    """The float prefix masses of classes: one sequential np.cumsum."""
    return np.cumsum(np.exp2(np.asarray(log2_masses, dtype=float)))


def mass_threshold_class(log2_masses, log2_eigs, delta: float):
    """Find the class where the descending prefix mass first reaches delta.

    Takes the classes' log2 masses and log2 eigenvalues. Returns (c, acc,
    lcount): the class c whose mass carries the prefix to delta, the mass
    acc of the classes before c, and log2 of the fractional count of
    class-c eigenvectors still needed. lcount is -inf when nothing more is
    needed; c = number of classes when the total mass stays below delta.
    The prefix masses are one sequential np.cumsum of the class masses, so
    acc carries the bits of a class-by-class running sum.
    """
    cs = _prefix_masses(log2_masses)
    hit = cs >= delta - 1e-15
    if not hit.any():
        return cs.size, float(cs[-1]) if cs.size else 0.0, NEG_INF
    c = int(np.argmax(hit))
    acc = float(cs[c - 1]) if c else 0.0
    need = delta - acc
    lcount = math.log2(need) - log2_eigs[c] if need > 0.0 else NEG_INF
    return c, acc, lcount


class SortedSpectrumView:
    """Big-int position calculus over a sorted class spectrum.

    Exposes the spectrum as one long nonincreasing eigenvalue sequence:
    class c occupies positions [B_c, B_{c + 1}) of the spectrum's exact
    boundaries. Requires them; positions at n = 4096 are 3000-bit integers.

    The view reads the boundaries the spectrum holds, through its mass cut,
    in place. Every query of the benchmark's workloads stays there, in the
    top of the spectrum: at d = 2, n = 16384 about a quarter of the
    classes. A query past them (the end of the spectrum, a count below its
    smallest eigenvalues) completes every boundary once, by a whole build
    (_complete_bounds), into a list of the view's own, so the spectrum
    never grows and every answer is a whole build's.

    A spectrum has one view, `ClassSpectrum.view`, built on first use and
    shared by block dilution, the runner's target reader, the certificate
    and sig_dim. The view keeps the spectrum's arrays but no reference to
    the spectrum itself, so the two form no cycle and are freed together by
    reference counting.
    """

    def __init__(self, spec: ClassSpectrum):
        if spec.exact_bounds is None:
            n, d = spec.n, len(spec.base_probs)
            past = f"n = {n} passes EXACT_MULT_MAX_N = {EXACT_MULT_MAX_N}"
            if n <= EXACT_MULT_MAX_N:
                cap, rows = EXACT_MULT_MAX_CLASSES, math.comb(n + d - 1, d - 1)
                past = f"{rows} compositions of n = {n} pass EXACT_MULT_MAX_CLASSES = {cap}"
            raise CapExceededError(f"block dilution and its certificate need exact multiplicities: {past}")
        self._bounds = spec.exact_bounds
        self._probs, self._n = spec.base_probs, spec.n
        self.log2_eigs = spec.log2_eigs
        self.log2_mults = spec.log2_mults
        self.log2_masses = spec.log2_masses
        self.prefix_log2_mass = np.concatenate(
            ([NEG_INF], np.logaddexp2.accumulate(spec.log2_masses))
        )

    def bounds(self, c: int) -> list:
        """The exact class boundaries, a list that holds entry c.

        Entry i is the first position of class i, and entry num_classes
        the total dimension; c past it gives every boundary. The list is
        the spectrum's held one while c stays inside it, and otherwise
        every boundary, completed once into the view's own list; callers
        only read it.
        """
        b = self._bounds
        ncl = self.log2_eigs.size
        if len(b) <= min(c, ncl):
            b = self._bounds = _complete_bounds(self._probs, self._n, b, ncl)
        return b

    def class_at(self, pos: int) -> int:
        """Index of the class holding position pos; num_classes once pos
        reaches the total dimension."""
        b = self.bounds(0)
        if b[-1] <= pos:
            b = self.bounds(len(b))
        return bisect_right(b, pos) - 1

    def count_eigs_at_least(self, log2_threshold: float) -> int:
        """How many eigenvalues (with multiplicity) are >= 2^threshold."""
        below = self.log2_eigs < log2_threshold - 1e-9
        # classes may rise by up to CLASS_MERGE_BITS, so take the first class
        # below the threshold rather than bisecting; with none below, all count
        c = int(np.argmax(below)) if below.any() else below.size
        return self.bounds(c)[c]

    def log2_mass_of_prefix(self, dim: int) -> float:
        """log2 of the total mass of the top `dim` positions."""
        if dim <= 0:
            return NEG_INF
        c = self.class_at(dim)
        if c == self.log2_eigs.size:
            return 0.0
        whole = self.prefix_log2_mass[c]
        part = dim - self.bounds(c)[c]
        if part == 0:
            return float(whole)
        return float(np.logaddexp2(whole, log2_int(part) + self.log2_eigs[c]))

    def sig_dim(self, delta: float):
        """Smallest prefix dimension with mass >= delta.

        Returns (dimension as big int, achieved mass, take_exact). The final
        class is entered fractionally and rounded up to whole
        eigendirections; take_exact reports whether that rounding resolved
        single eigenvectors (float masses cannot once one eigenvector weighs
        under ~2^-49 or the take passes 2^40).
        """
        if delta <= 0.0:
            return 0, 0.0, True
        if delta > 1.0 + 1e-9:
            raise ValidationError("delta exceeds total mass")
        c, acc, lcount = mass_threshold_class(self.log2_masses, self.log2_eigs, delta)
        if lcount == NEG_INF:
            # delta (within 1e-9 of 1) is never reached: every position
            return self.bounds(c)[c], acc, True
        b = self.bounds(c + 1)
        e = self.log2_eigs[c]
        pc = max(1, min(b[c + 1] - b[c], ceil_exp2(lcount)))
        ach = acc + float(np.exp2(log2_int(pc) + e))
        return b[c] + pc, ach, (pc <= 2**40 and e > -49.0)
