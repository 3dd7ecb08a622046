"""Property tests: the attack kernel's column folds equal the axis reductions they replace.

_hmax, _hsum and _break_ties reduce over the four hypotheses column by
column. Each must give, bit for bit, what the reduction along the last
axis gives, on rows with exact ties, signed zeros, infinities, NaN and
rows that the prior masks entirely. Any NaN counts as equal to any NaN.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from gravsim.attack import _break_ties, _hmax, _hsum

# A small pool makes exact ties, signed zeros and specials common.
SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, np.inf, -np.inf, np.nan, 5e-324, -1e308, 1e308]
ENTRIES = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
ROWS = arrays(np.float64, st.tuples(st.integers(0, 40), st.just(4)), elements=ENTRIES)
TIE_DRAWS = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, np.nextafter(1.0, 0.0)]),
    st.floats(0.0, 1.0, exclude_max=True),
)


def bits(values) -> np.ndarray:
    """The float64 bit patterns of values, with every NaN mapped to one pattern."""
    values = np.asarray(values, dtype=np.float64)
    return np.where(np.isnan(values), -1, values.view(np.int64))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(x=ROWS)
@example(x=np.array([[0.0, -0.0, -1.0, -2.0], [-0.0, 0.0, -0.0, -0.0], [np.nan, 1.0, np.inf, 1.0]]))
def test_hmax_is_the_row_max(x):
    assert np.array_equal(bits(_hmax(x)), bits(x.max(axis=-1)))


@st.composite
def masked_rows(draw):
    """Rows as ROWS draws them and a mask of the same shape, True where the prior rules out."""
    x = draw(ROWS)
    return x, draw(arrays(np.bool_, x.shape))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=masked_rows())
@example(
    case=(
        np.array([[np.nan, 3.0, -0.0, 0.0], [0.0, -0.0, 1.0, 1.0]]),
        np.array([[True, False, False, False], [False, False, True, True]]),
    )
)
def test_hmax_under_a_prior_mask_is_the_masked_row_max(case):
    # _logits masks the hypotheses its prior rules out this way.
    x, masked = case
    prior = np.where(masked, -np.inf, 0.0)
    fold = _hmax(np.where(prior == -np.inf, -np.inf, x))
    assert np.array_equal(bits(fold), bits(x.max(axis=-1, where=prior != -np.inf, initial=-np.inf)))


def test_hmax_of_an_all_masked_row_is_minus_infinity():
    x = np.array([[1.0, np.nan, -0.0, 2.0]])
    fold = _hmax(np.where(np.full((1, 4), True), -np.inf, x))
    assert fold.tolist() == [-np.inf]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(x=ROWS)
@example(
    x=np.array([[-0.0, -0.0, -0.0, -0.0], [np.inf, -np.inf, 1.0, 0.0], [1e308, 1e308, -1e308, 0.0]])
)
def test_hsum_is_the_row_sum(x):
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.array_equal(bits(_hsum(x)), bits(x.sum(axis=1)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(flags=arrays(np.bool_, st.tuples(st.integers(0, 40), st.just(4))))
def test_hsum_counts_true_entries_as_integers(flags):
    counts = _hsum(flags)
    assert counts.dtype == flags.sum(axis=1).dtype
    assert np.array_equal(counts, flags.sum(axis=1))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(logits=ROWS, data=st.data())
def test_break_ties_picks_the_reference_peak(logits, data):
    u = np.array(data.draw(st.lists(TIE_DRAWS, min_size=len(logits), max_size=len(logits))))
    peak = logits.max(axis=1, keepdims=True)
    expected = oracles.break_ties_reference(logits, peak, u)
    assert np.array_equal(_break_ties(logits, peak, u), expected)


def test_break_ties_spreads_a_four_way_tie_over_every_column():
    logits = np.zeros((4, 4))
    u = np.array([0.0, 0.25, 0.5, np.nextafter(1.0, 0.0)])
    peak = logits.max(axis=1, keepdims=True)
    assert _break_ties(logits, peak, u).tolist() == [0, 1, 2, 3]
    assert oracles.break_ties_reference(logits, peak, u).tolist() == [0, 1, 2, 3]
