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
from itertools import compress
from operator import rshift

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


def log2_ints(xs) -> np.ndarray:
    """log2_int of every nonnegative python int of xs, bit for bit, as an array.

    Each nonzero int is shifted down to its top 53 bits, as log2_int
    shifts it, math.log2 runs over the shifted ints in one map, and the
    shifts are added as floats, the addition log2_int makes. Zeros give
    -inf.
    """
    xs = xs if isinstance(xs, list) else list(xs)
    bits = np.fromiter(map(int.bit_length, xs), np.int64, len(xs))
    shift = np.maximum(bits - 53, 0)
    live = bits > 0
    if not live.all():
        out = np.full(len(xs), NEG_INF)
        out[live] = log2_ints(list(compress(xs, live.tolist())))
        return out
    return np.fromiter(map(math.log2, map(rshift, xs, shift.tolist())), float, len(xs)) + shift


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


def log2sub_arrays(a, b) -> np.ndarray:
    """log2sub(a[i], b[i]) over two 1-D arrays, bit for bit; needs a >= b.

    The differences and their products with log(2) are numpy's IEEE
    arithmetic; math.expm1 and math.log2, the functions log2sub calls, run
    in one map each, so no numpy transcendental changes a bit. A pair with
    b = -inf gives a and one with a = b gives -inf, as log2sub does.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if (b > a).any():
        raise ValueError("log2sub needs a >= b")
    with np.errstate(invalid="ignore"):  # -inf - -inf
        d = b - a
    # pairs log2sub answers without a log: b = -inf, or a = b (d = 0 or nan)
    direct = (b == NEG_INF) | ~(d < 0.0)
    scaled = np.where(direct, -1.0, d) * math.log(2.0)
    gaps = map(math.log2, map(float.__neg__, map(math.expm1, scaled.tolist())))
    out = a + np.fromiter(gaps, float, a.size)
    out[direct] = np.where(b == NEG_INF, a, NEG_INF)[direct]
    return out


def log2sumexp(values) -> float:
    """log2 of a sum of 2^v terms over a list or array; empty input gives -inf."""
    arr = np.asarray(values, dtype=float)
    arr = arr[arr != NEG_INF]
    if arr.size == 0:
        return NEG_INF
    m = float(arr.max())
    return m + math.log2(float(np.exp2(arr - m).sum()))


def log2sumexp_windows(values, starts, lengths) -> np.ndarray:
    """log2sumexp of every window values[s:s + l], bit for bit, grouped by length, as an array.

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
    costs no gather, and windows of one term are that term, with no sum.
    """
    arr = np.ascontiguousarray(values, dtype=float)
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
        return np.empty(0)
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
        if length == 1:
            # a lone term v gives v + log2(1.0), the bits out takes below
            maxes[idx] = arr[first[idx]]
            continue
        # every window of this length, as a strided view on arr; gathering
        # its rows copies them into one C-contiguous array
        windows = np.ndarray((arr.size - length + 1, length), float, arr, 0, (8, 8))
        rows = windows[first[idx]]
        maxes[idx] = m = rows.max(axis=1)
        sums[idx] = np.exp2(rows - m[:, None]).sum(axis=1)
    # m + log2(1.0) is m + 0.0, so only sums other than 1.0 need a log,
    # and it is math.log2, the log log2sumexp takes, mapped over them
    out = maxes + 0.0
    rest = np.flatnonzero(sums != 1.0)
    out[rest] = maxes[rest] + np.fromiter(map(math.log2, sums[rest].tolist()), float, rest.size)
    return out
