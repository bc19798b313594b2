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
from numpy.lib.stride_tricks import sliding_window_view

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


def log2sumexp_windows(values, starts, lengths) -> list:
    """log2sumexp of every window values[s:s + l], bit for bit, grouped by length.

    Window i starts at starts[i] and holds lengths[i] terms; windows may
    overlap and come in any order. A window of length 0 gives -inf, like
    log2sumexp([]); one with a negative start or length, or one that runs
    past the end, raises ValueError naming it.
    Each result equals log2sumexp(window) under ==. -inf terms are dropped
    first, as log2sumexp drops them. The windows of one length are then the
    rows of one gathered 2-D array: the maxima and exp2 terms are
    elementwise, and numpy sums each row of a C-contiguous array with the
    pairwise loop it uses for a 1-D sum (tests/test_logdomain.py pins
    this). A length only one window has is summed as its 1-D slice, which
    costs no gather.
    """
    arr = np.asarray(values, dtype=float)
    first = np.asarray(starts, dtype=np.intp)
    size = np.asarray(lengths, dtype=np.intp)
    if first.ndim != 1 or first.shape != size.shape:
        raise ValueError("log2sumexp_windows needs one start and one length per window")
    bad = np.flatnonzero((first < 0) | (size < 0) | (first > arr.size - size))
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"window {i} (start {first[i]}, length {size[i]}) "
            f"does not lie within the {arr.size} values"
        )
    if first.size == 0:
        return []
    live = arr != NEG_INF
    if not live.all():
        kept = np.concatenate(([0], np.cumsum(live)))
        size = kept[first + size] - kept[first]
        first = kept[first]
        arr = arr[live]
    maxes = np.full(first.size, NEG_INF)
    sums = np.ones(first.size)
    order = np.argsort(size, kind="stable")
    sorted_size = size[order]
    cuts = np.flatnonzero(sorted_size[1:] != sorted_size[:-1]) + 1
    for g0, g1 in zip([0, *cuts.tolist()], [*cuts.tolist(), order.size]):
        length = int(sorted_size[g0])
        if length == 0:
            continue
        if g1 - g0 == 1:
            i = order[g0]
            seg = arr[first[i] : first[i] + length]
            maxes[i] = m = seg.max()
            sums[i] = np.exp2(seg - m).sum()
            continue
        idx = order[g0:g1]
        rows = sliding_window_view(arr, length)[first[idx]]
        maxes[idx] = m = rows.max(axis=1)
        sums[idx] = np.exp2(rows - m[:, None]).sum(axis=1)
    # m + log2(1.0) is m + 0.0, so only sums other than 1.0 need a log,
    # and it is math.log2, the log log2sumexp takes
    out = maxes + 0.0
    rest = np.flatnonzero(sums != 1.0)
    out[rest] = [m + math.log2(s) for m, s in zip(maxes[rest].tolist(), sums[rest].tolist())]
    return out.tolist()


def log2sumexp_segments(flat, starts) -> list:
    """log2sumexp_windows over the segments of flat that starts opens.

    Segment i is flat[starts[i]:starts[i + 1]] (the last one runs to the
    end); decreasing starts raise ValueError, and no starts give [].
    """
    first = np.asarray(starts, dtype=np.intp)
    return log2sumexp_windows(flat, first, np.diff(first, append=len(flat)))
