"""The grouped log-sum-exp against the per-window one, bit for bit, and
the numpy behaviour it relies on."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from entlab.logdomain import (
    NEG_INF,
    log2sumexp,
    log2sumexp_segments,
    log2sumexp_windows,
)

@st.composite
def segment_lists(draw):
    """1 to 30 segments of 1 to 20 terms; none, some or all of a
    segment's terms are -inf.

    A segment is a level in [-1080, 0] plus offsets within 20 bits of it,
    so its terms are comparable and the summation order shows in the last
    bits. The offsets come from a drawn seed: hypothesis favours round
    floats, whose powers of two add exactly in any order.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    segments = []
    for _ in range(draw(st.integers(1, 30))):
        size = draw(st.integers(1, 20))
        level = draw(st.floats(min_value=-1080.0, max_value=0.0))
        terms = level - rng.uniform(0.0, 20.0, size)
        terms[rng.random(size) < draw(st.sampled_from((0.0, 0.2, 1.0)))] = NEG_INF
        segments.append(terms.tolist())
    return segments


def _flatten(segments):
    flat, starts = [], []
    for seg in segments:
        starts.append(len(flat))
        flat.extend(seg)
    return flat, starts


@given(segment_lists())
@example([[-3.0]])
@example([[NEG_INF, NEG_INF], [-1.0, NEG_INF, -2.0], [-0.5]])
@example([[-1100.0] * 7 + [0.0] + [-1100.0] * 12])
@settings(max_examples=60, deadline=None)
def test_segments_equal_the_per_segment_log2sumexp(segments):
    flat, starts = _flatten(segments)
    want = [log2sumexp(seg) for seg in segments]
    assert log2sumexp_segments(flat, starts) == want


def test_segment_lengths_across_the_sequential_sum_boundary():
    rng = np.random.default_rng(11)
    segments = [
        (rng.uniform(-60.0, 0.0, size) * rng.uniform(0.0, 1.0)).tolist()
        for size in list(range(1, 21)) * 30
    ]
    flat, starts = _flatten(segments)
    assert log2sumexp_segments(flat, starts) == [log2sumexp(seg) for seg in segments]
    assert log2sumexp_segments([], []) == []
    # one segment, short enough for the vector sum and too long for it
    for one in (segments[4], segments[12]):
        assert log2sumexp_segments(one, [0]) == [log2sumexp(one)]


def test_numpy_sums_short_float64_arrays_left_to_right():
    # numpy's sum adds fewer than 8 float64 terms left to right from -0.0;
    # the oracles' sequential sums and the kernel's bits at those lengths
    # follow that order. If numpy changes it, this test names it.
    rng = np.random.default_rng(5)
    differs_from_a0_first = False
    for size in range(1, 7 + 1):
        for _ in range(500):
            a = rng.uniform(0.0, 1.0, size) * 10.0 ** rng.uniform(-6.0, 0.0, size)
            acc = -0.0
            for x in a.tolist():
                acc += x
            assert float(a.sum()) == acc, a.tolist()
            # the order a0 + (a1 + ...) that np.add.reduceat uses
            rest = -0.0
            for x in a[1:].tolist():
                rest += x
            differs_from_a0_first |= float(a[0]) + rest != acc
    assert differs_from_a0_first  # the sample tells the two orders apart


def _terms(rng, shape):
    # positive terms spread over six decades, so the order of a sum shows
    return rng.uniform(0.0, 1.0, shape) * 10.0 ** rng.uniform(-6.0, 0.0, shape)


def test_numpy_row_sums_equal_one_dimensional_sums():
    # log2sumexp_windows sums the windows of one length as the rows of one
    # 2-D array; its bits are log2sumexp's only while numpy sums each row
    # of a C-contiguous array, gathered or not, with its 1-D pairwise loop
    rng = np.random.default_rng(17)
    for length in [*range(1, 301), 511, 512, 513, 8191, 8192, 8193, 20_000]:
        rows = _terms(rng, (3 if length > 1000 else 12, length))
        assert rows.sum(axis=1).tolist() == [r.sum() for r in rows], length
        flat = _terms(rng, 3 * length)
        starts = rng.integers(0, 2 * length + 1, 12)
        gathered = sliding_window_view(flat, length)[starts]
        want = [flat[s : s + length].sum() for s in starts]
        assert gathered.sum(axis=1).tolist() == want, length
    for shape in ((200_000, 8), (100_000, 3)):
        tall = _terms(rng, shape)
        want = np.fromiter((r.sum() for r in tall), float, shape[0])
        assert np.array_equal(tall.sum(axis=1), want), shape


def test_windows_take_the_log_of_math_log2():
    # np.log2 and math.log2 differ in the last bit on some sums; the kernel
    # must take log2sumexp's, math.log2
    rng = np.random.default_rng(23)
    windows = rng.uniform(-20.0, 0.0, (20_000, 5))
    sums = np.exp2(windows - windows.max(axis=1)[:, None]).sum(axis=1)
    apart = np.flatnonzero(np.log2(sums) != [math.log2(x) for x in sums.tolist()])
    assert apart.size  # the sample tells the two logs apart
    flat = windows[apart].ravel()
    got = log2sumexp_windows(flat, 5 * np.arange(apart.size), np.full(apart.size, 5))
    maxes = windows[apart].max(axis=1).tolist()
    assert got == [m + math.log2(x) for m, x in zip(maxes, sums[apart].tolist())]
    assert got != [m + float(np.log2(x)) for m, x in zip(maxes, sums[apart].tolist())]


@st.composite
def window_lists(draw):
    """Up to 40 windows, overlapping, over one array of up to 12,000 terms.

    Half of the lengths come from a pool of three, so they repeat and are
    gathered as rows; the rest are drawn afresh in 0..2000, and most are
    unique. An array longer than 8,192 terms may get one window longer than
    that. Up to three runs of -inf cover parts of the array, so windows
    hold none, some or only -inf terms. Terms are a level in [-1080, 0]
    minus offsets within 20 bits of it, drawn from a seed.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.sampled_from((40, 3000, 12_000)))
    values = draw(st.floats(min_value=-1080.0, max_value=0.0)) - rng.uniform(0.0, 20.0, size)
    for _ in range(draw(st.integers(0, 3))):
        at = rng.integers(0, size)
        values[at : at + rng.integers(1, 2000)] = NEG_INF
    longest = min(size, 2000)
    count = draw(st.integers(1, 40))
    pool = rng.integers(0, longest + 1, 3)
    lengths = np.where(
        rng.random(count) < 0.5, rng.choice(pool, count), rng.integers(0, longest + 1, count)
    )
    if size > 8192 and draw(st.booleans()):
        lengths[0] = rng.integers(8193, size + 1)
    starts = [int(rng.integers(0, size - n + 1)) for n in lengths]
    return values, starts, lengths.tolist()


@given(window_lists())
@settings(max_examples=60, deadline=None)
def test_windows_equal_the_per_window_log2sumexp(windows):
    values, starts, lengths = windows
    want = [log2sumexp(values[s : s + n]) for s, n in zip(starts, lengths)]
    assert log2sumexp_windows(values, starts, lengths) == want


def test_windows_of_length_zero_or_only_neg_inf_give_neg_inf():
    values = [NEG_INF, -1.0, NEG_INF, NEG_INF, -2.5, -0.5]
    starts, lengths = [0, 2, 0, 1, 5, 3, 6], [1, 2, 6, 4, 1, 0, 0]
    got = log2sumexp_windows(values, starts, lengths)
    assert got == [log2sumexp(values[s : s + n]) for s, n in zip(starts, lengths)]
    assert got[:2] == got[-2:] == [NEG_INF, NEG_INF]
    assert log2sumexp_windows([], [], []) == []
    assert log2sumexp_windows([], [0], [0]) == [NEG_INF]


@pytest.mark.parametrize(
    "start, length",
    [(-1, 2), (0, -1), (3, 2), (5, 1)],
    ids=["negative_start", "negative_length", "past_the_end", "start_past_the_end"],
)
def test_windows_outside_the_values_are_refused(start, length):
    with pytest.raises(ValueError, match=f"window 1 \\(start {start}, length {length}\\)"):
        log2sumexp_windows([-1.0, -2.0, -3.0, -4.0], [0, start, 1], [4, length, 2])


def test_segments_refuse_decreasing_starts():
    # np.maximum.reduceat gave wrong maxima for such starts, silently
    with pytest.raises(ValueError, match="length -2"):
        log2sumexp_segments([-1.0, -2.0, -3.0], [2, 0])
