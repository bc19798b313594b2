"""Base-2 log-domain arithmetic helpers.

Everything downstream works in bits: eigenvalues of n-fold tensor powers are
2^(-nE +- O(sqrt n)) and underflow doubles for n in the thousands, so masses,
multiplicities and overlaps are carried as log2 values. Integers larger than
2^53 (dimension counts) get an exact-as-possible log2 via bit shifting.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager

import numpy as np

NEG_INF = -math.inf


def log2_int(x: int) -> float:
    """log2 of a nonnegative python int, exact to float precision at any size."""
    if x < 0:
        raise ValueError("log2_int needs a nonnegative integer")
    if x == 0:
        return NEG_INF
    bl = x.bit_length()
    if bl <= 53:
        return math.log2(x)
    s = bl - 53
    return math.log2(x >> s) + s


@contextmanager
def exact_int_digits():
    """Lift Python's limit on int <-> decimal str conversions, then restore it.

    Exact dimension counts pass the default 4300 digits near n = 17500
    for d = 2; json writes and reads them in decimal inside this scope.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # a Python without the limit
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def ceil_exp2(l: float) -> int:
    """ceil(2^l) as an exact python int; l may exceed float range."""
    if l == NEG_INF:
        return 0
    if l < 900.0:
        return max(1, math.ceil(2.0 ** l - 1e-9))
    frac, ip = math.modf(l)
    # 60 guard bits keep the relative rounding below 2^-60
    return max(1, math.ceil(2.0 ** (frac + 60.0)) << (int(ip) - 60))


def log2sub(a: float, b: float) -> float:
    """log2(2^a - 2^b); requires a >= b."""
    if b == NEG_INF:
        return a
    if b > a:
        raise ValueError("log2sub needs a >= b")
    d = b - a
    if d == 0.0:
        return NEG_INF
    # expm1 keeps precision when the two terms nearly cancel
    return a + math.log2(-math.expm1(d * math.log(2.0)))


def log2sumexp(values) -> float:
    """log2 of a sum of 2^v terms over a list or array; empty input gives -inf."""
    arr = np.asarray(values, dtype=float)
    arr = arr[arr != NEG_INF]
    if arr.size == 0:
        return NEG_INF
    m = float(arr.max())
    return m + math.log2(float(np.exp2(arr - m).sum()))


# numpy sums fewer than this many float64 terms left to right from -0.0;
# from here on its pairwise summation groups them
SEQUENTIAL_SUM_MAX = 7


def log2sumexp_segments(flat, starts) -> list:
    """log2sumexp of every segment of flat, bit for bit, in one vector pass.

    Segment i is flat[starts[i]:starts[i + 1]] (the last one runs to the
    end); starts must be strictly increasing, so no segment is empty, and
    no starts at all gives [].
    Each result equals log2sumexp(segment) under ==: the segment maxima and
    the exp2 terms are elementwise, and the sums of at most
    SEQUENTIAL_SUM_MAX terms are accumulated position by position, in the
    left-to-right order numpy's sum uses at that length. A longer segment,
    or one holding a -inf term, goes through log2sumexp itself.
    """
    nseg = len(starts)
    if nseg == 0:
        return []
    arr = np.asarray(flat, dtype=float)
    first = np.asarray(starts, dtype=np.intp)
    lengths = np.diff(first, append=arr.size)
    maxes = np.maximum.reduceat(arr, first)
    with np.errstate(invalid="ignore"):  # -inf - -inf in all -inf segments
        terms = np.exp2(arr - np.repeat(maxes, lengths))
    sums = np.full(nseg, -0.0)
    for pos in range(min(SEQUENTIAL_SUM_MAX, int(lengths.max()))):
        live = np.flatnonzero(lengths > pos)
        sums[live] += terms[first[live] + pos]
    slow = np.flatnonzero(
        np.logical_or.reduceat(arr == NEG_INF, first) | (lengths > SEQUENTIAL_SUM_MAX)
    ).tolist()
    sums[slow] = 1.0  # their partial sums may be 0 or nan; replaced below
    # m + log2(1.0) is m + 0.0, so only sums other than 1.0 need a log
    out = maxes + 0.0
    rest = np.flatnonzero(sums != 1.0)
    out[rest] = [m + math.log2(s) for m, s in zip(maxes[rest].tolist(), sums[rest].tolist())]
    out = out.tolist()
    for i in slow:
        out[i] = log2sumexp(arr[first[i] : first[i] + lengths[i]])
    return out
