"""The grouped log-sum-exp against the per-segment one, bit for bit."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entlab.logdomain import (
    NEG_INF,
    SEQUENTIAL_SUM_MAX,
    log2sumexp,
    log2sumexp_segments,
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
    # log2sumexp_segments adds segments of at most SEQUENTIAL_SUM_MAX terms
    # position by position because numpy's sum adds them left to right from
    # -0.0 at those lengths. If numpy changes that order, this test names it.
    rng = np.random.default_rng(5)
    differs_from_a0_first = False
    for size in range(1, SEQUENTIAL_SUM_MAX + 1):
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
