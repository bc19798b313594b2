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
from collections.abc import Sequence
from dataclasses import dataclass, replace
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
# a held spectrum keeps exact multiplicities through the class where its
# float prefix mass reaches 1 - HELD_TAIL_MASS (see exact_prefix)
HELD_TAIL_MASS = 2.0**-50


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


def _binomials_exact(n: int) -> list[int]:
    """The row C(n, 0..n) of exact ints, n >= 1.

    The row is symmetric, so only C(n, k) for k <= n/2 is computed, by the
    multiplicative recurrence; the same int object then sits at k and at
    n - k.
    """
    half = [1]
    c = 1
    for k in range(n // 2):
        c = c * (n - k) // (k + 1)
        half.append(c)
    return half + half[(n - 1) // 2 :: -1]


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

    log2_masses[i] = log2_mults[i] + log2_eigs[i], every entry finite; the
    exact_mults sequence of ints is present when big-int multiplicities were
    affordable (see module constants). tensor_power_spectrum gives a tuple;
    a held spectrum may carry an ExactPrefix, which reads the same.
    """

    n: int
    base_probs: np.ndarray
    log2_eigs: np.ndarray
    log2_mults: np.ndarray
    log2_masses: np.ndarray
    exact_mults: Sequence | None = None

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


def tensor_power_spectrum(p: BaseSpectrum | np.ndarray, n: int) -> ClassSpectrum:
    """Exact class spectrum of the n-fold tensor power of diag(p)."""
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
        exact = (1,)
    else:
        logs = np.log2(p.probs)
        keep_exact = n <= EXACT_MULT_MAX_N and n_rows <= EXACT_MULT_MAX_CLASSES
        if d == 2:
            ks = np.arange(n + 1)
            # base probs are sorted descending, so k = count of the smaller one
            eigs = (n - ks) * logs[0] + ks * logs[1]
        else:
            eigs, row_mults = _row_logs(n, d, logs, not keep_exact)
        order = np.argsort(-eigs, kind="stable")
        eigs = eigs[order]
        starts = _class_starts(eigs)
        eigs = eigs[starts]
        if keep_exact:
            if d == 2:
                # a one-row class keeps its binomial object, no copy
                rows = np.array(_binomials_exact(n), dtype=object)[order]
                sums = np.add.reduceat(rows, starts)
            else:
                # int32 class ids: the exact path stops at 200,000 rows
                cls = np.empty(n_rows, dtype=np.int32)
                cls[order] = np.repeat(
                    np.arange(starts.size, dtype=np.int32), np.diff(starts, append=n_rows)
                )
                del order
                sums = _summed_multinomials(n, d, cls, starts.size)
            exact = tuple(sums.tolist())
            # exact integers define the float log to the last ulp
            mults = log2_ints(exact)
        else:
            exact = None
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
    return ClassSpectrum(
        n=n,
        base_probs=p.probs,
        log2_eigs=eigs,
        log2_mults=mults,
        log2_masses=masses,
        exact_mults=exact,
    )


class ExactPrefix(Sequence):
    """The exact multiplicities of a spectrum, held as a prefix that completes on demand.

    `kept` holds the multiplicities of the first classes; len is the
    spectrum's class count. Reading an index past `kept`, or iterating past
    it, rebuilds the spectrum with tensor_power_spectrum(base, n) once and
    keeps all of its multiplicities, so every read gives the int a fresh
    spectrum holds. copy.copy gives a prefix of its own on the same `kept`
    tuple, so a completion stays with the copy that made it.
    """

    def __init__(self, kept: tuple, base: np.ndarray, n: int, size: int):
        self.kept = kept
        self._base = base
        self._n = n
        self._size = size

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, i):
        kept = self.kept
        if not isinstance(i, slice) and 0 <= i < len(kept):
            return kept[i]
        return self._complete()[i]

    def __iter__(self):
        kept = self.kept
        yield from kept
        if len(kept) < self._size:
            yield from itertools.islice(self._complete(), len(kept), None)

    def _complete(self) -> tuple:
        if len(self.kept) < self._size:
            self.kept = tensor_power_spectrum(self._base, self._n).exact_mults
        return self.kept


def exact_prefix(spec: ClassSpectrum) -> ClassSpectrum:
    """spec with its exact multiplicities kept only where the mass is.

    The multiplicities are kept through the first class where the float
    prefix mass (mass_threshold_class's cumsum) reaches 1 - HELD_TAIL_MASS,
    in an ExactPrefix that rebuilds the rest when a read passes them; sig_dim
    at any delta <= 1 stops at or before that class. A spectrum whose
    multiplicities are not a tuple (none, or a prefix already), or whose
    prefix mass reaches that only at its last class or never, is returned
    as it is.
    """
    exact = spec.exact_mults
    if not isinstance(exact, tuple):
        return spec
    hit = np.flatnonzero(_prefix_masses(spec.log2_masses) >= 1.0 - HELD_TAIL_MASS)
    keep = int(hit[0]) + 1 if hit.size else len(exact)
    if keep >= len(exact):
        return spec
    return replace(spec, exact_mults=ExactPrefix(exact[:keep], spec.base_probs, spec.n, len(exact)))


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
    class c occupies positions [bounds(c)[c], bounds(c + 1)[c + 1]).
    Requires exact multiplicities; positions at n = 4096 are 3000-bit
    integers.

    The class boundaries are the running sums of the exact multiplicities,
    taken from one itertools.accumulate and summed only as far as a query
    reaches: every query stays in the top of the spectrum, where the mass
    is, so at n = 16384 the commands sum about a quarter of them. A query
    finds the end of the spectrum as the last boundary, summed only when
    the query reaches it. total_dim is the sum of every multiplicity, with
    no list behind it, taken on first use: no query needs it.

    The counts are read in order, so they may be an ExactPrefix (a held
    spectrum's): its kept classes are the top of the spectrum, and a query
    that reads past them completes the counts first, so every answer is the
    one a freshly built spectrum gives.

    A spectrum has one view, `ClassSpectrum.view`, built on first use and
    shared by block dilution, the runner's target reader, the certificate
    and sig_dim. The view keeps the spectrum's arrays but no reference to
    the spectrum itself, so the two form no cycle and are freed together by
    reference counting.
    """

    def __init__(self, spec: ClassSpectrum):
        if spec.exact_mults is None:
            d = len(spec.base_probs)
            compositions = math.comb(spec.n + d - 1, d - 1)
            raise CapExceededError(
                f"block dilution and its certificate need exact multiplicities, kept only for "
                f"n <= {EXACT_MULT_MAX_N} and at most {EXACT_MULT_MAX_CLASSES} compositions; "
                f"this spectrum has n = {spec.n} and {compositions} compositions"
            )
        self.counts = spec.exact_mults
        self.log2_eigs = spec.log2_eigs
        self.log2_mults = spec.log2_mults
        self.log2_masses = spec.log2_masses
        self.prefix_log2_mass = np.concatenate(
            ([NEG_INF], np.logaddexp2.accumulate(spec.log2_masses))
        )
        self._sums = itertools.accumulate(self.counts, initial=0)
        self._bounds = []

    @cached_property
    def total_dim(self) -> int:
        return sum(self.counts)

    def bounds(self, c: int) -> list:
        """The class boundaries summed so far, extended first through entry c.

        Entry i is the first position of class i; entry num_classes is
        total_dim, and c past it sums every boundary. The list is the
        view's own, so callers only read it.
        """
        b = self._bounds
        if len(b) <= c:
            b.extend(itertools.islice(self._sums, c + 1 - len(b)))
        return b

    @cached_property
    def prefix_log2_dim(self) -> np.ndarray:
        """Float log2 of every class boundary, entry 0 -inf: the accumulated
        log2_mults, near the exact boundaries but not exact."""
        return np.concatenate(([NEG_INF], np.logaddexp2.accumulate(self.log2_mults)))

    def class_at(self, pos: int) -> int:
        """Index of the class holding position pos; num_classes once pos >= total_dim.

        A position past the boundaries summed so far guesses its class from
        prefix_log2_dim, low by a margin of four ulps of log2 pos per class,
        wider than their accumulated roundoff, so the guess's boundary is at
        most pos. One extend sums through the boundary after the guess, and
        the answer is reached from there a class at a time: no boundary more
        than one past the answer is summed. The guess is one class low or
        exact unless classes narrower than that margin sit near pos.
        """
        b = self.bounds(0)
        nc = self.log2_eigs.size
        if b[-1] <= pos and len(b) <= nc:
            lp = log2_int(pos)
            margin = (nc + 1) * (abs(lp) + 1.0) * 2.0**-50
            guess = int(np.searchsorted(self.prefix_log2_dim, lp - margin, side="right")) - 1
            self.bounds(guess + 1)
            while b[-1] <= pos and len(b) <= nc:
                self.bounds(len(b))
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
        dim = self.bounds(c)[c]
        if lcount == NEG_INF:
            # delta reached on a class boundary, or (within 1e-9 of 1) never
            return dim, acc, True
        e = self.log2_eigs[c]
        pc = max(1, min(self.counts[c], ceil_exp2(lcount)))
        ach = acc + float(np.exp2(log2_int(pc) + e))
        return dim + pc, ach, (pc <= 2**40 and e > -49.0)
