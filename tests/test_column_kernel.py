"""Property tests: the attack kernel's hypothesis folds equal the axis reductions they replace.

The kernel is hypothesis-major: it keeps the four hypotheses on axis 0,
one contiguous row each, and a round's four scores in a column. _hmax,
_hsum and _break_ties reduce over the hypotheses row by row. Each is fed
the transpose of (n, 4) rounds and must give, bit for bit, what the
reduction of each round along the last axis gives, on rounds with exact
ties, signed zeros, infinities, NaN and rounds that the prior masks
entirely. Any NaN counts as equal to any NaN. _logits must give, bit for
bit, the transpose of what the same kernel written for rounds of (n, dim)
statistics (the einsum "...d,...hd->...h") gives.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from gravsim.attack import _break_ties, _hmax, _hsum, _logits

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
    assert np.array_equal(bits(_hmax(x.T)), bits(x.max(axis=-1)))


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
    fold = _hmax(np.where(prior == -np.inf, -np.inf, x).T)
    assert np.array_equal(bits(fold), bits(x.max(axis=-1, where=prior != -np.inf, initial=-np.inf)))


def test_hmax_of_an_all_masked_row_is_minus_infinity():
    x = np.array([[1.0, np.nan, -0.0, 2.0]])
    fold = _hmax(np.where(np.full((1, 4), True), -np.inf, x).T)
    assert fold.tolist() == [-np.inf]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(x=ROWS)
@example(
    x=np.array([[-0.0, -0.0, -0.0, -0.0], [np.inf, -np.inf, 1.0, 0.0], [1e308, 1e308, -1e308, 0.0]])
)
def test_hsum_is_the_row_sum(x):
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.array_equal(bits(_hsum(x.T)), bits(x.sum(axis=1)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(flags=arrays(np.bool_, st.tuples(st.integers(0, 40), st.just(4))))
def test_hsum_counts_true_entries_as_integers(flags):
    counts = _hsum(flags.T)
    assert counts.dtype == flags.sum(axis=1).dtype
    assert np.array_equal(counts, flags.sum(axis=1))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(logits=ROWS, data=st.data())
def test_break_ties_picks_the_reference_peak(logits, data):
    u = np.array(data.draw(st.lists(TIE_DRAWS, min_size=len(logits), max_size=len(logits))))
    peak = logits.max(axis=1, keepdims=True)
    expected = oracles.break_ties_reference(logits, peak, u)
    chosen = _break_ties(logits.T, peak[:, 0], u)
    assert chosen.dtype == np.int64
    assert np.array_equal(chosen, expected)


def test_break_ties_spreads_a_four_way_tie_over_every_column():
    logits = np.zeros((4, 4))
    u = np.array([0.0, 0.25, 0.5, np.nextafter(1.0, 0.0)])
    peak = logits.max(axis=1, keepdims=True)
    assert _break_ties(logits.T, peak[:, 0], u).tolist() == [0, 1, 2, 3]
    assert oracles.break_ties_reference(logits, peak, u).tolist() == [0, 1, 2, 3]


def row_major_logits(statistic, residuals, offsets, sigma, log_prior=0.0):
    """The scoring kernel written with a round per row: (n, dim) statistics -> (n, 4) logits.

    residuals are (4, dim) or (n, 4, dim), offsets (4,) or (n, 4), sigma a
    number or an (n, 1) column and log_prior a number or (n, 4).
    """
    score = np.einsum("...d,...hd->...h", statistic, residuals)
    score -= offsets
    best = np.where(log_prior == -np.inf, -np.inf, score).max(axis=-1, keepdims=True)
    with np.errstate(over="ignore"):
        return np.minimum(score - best, 0.0) / sigma / sigma + log_prior


# Finite values whose products and sums stay finite, as the overflow rule
# guarantees every caller; the pool makes signed zeros and exact ties common.
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 5e-324, -5e-324, 1e-300, 1e100, -1e100]),
    st.floats(-1e100, 1e100),
)
# Tiny sigmas send every score below the best to -inf.
SIGMAS = st.one_of(st.sampled_from([5e-324, 1e-170, 1e-30, 2.5e-12, 1.0]), st.floats(1e-300, 1e10))
PRIORS = st.sampled_from([0.0, -np.inf, float(np.log(0.5)), float(np.log(0.25))])


@st.composite
def plane_batches(draw):
    """A batch of n plane statistics with shared or per-row residuals, offsets, sigma and priors."""
    n = draw(st.integers(1, 30))
    statistic = draw(arrays(np.float64, (n, 2), elements=VALUES))
    shared = draw(st.booleans())
    residuals = draw(arrays(np.float64, (4, 2) if shared else (n, 4, 2), elements=VALUES))
    offsets = draw(arrays(np.float64, (4,) if shared else (n, 4), elements=VALUES))
    if draw(st.booleans()):
        sigma = draw(SIGMAS)
    else:
        sigma = draw(arrays(np.float64, (n, 1), elements=SIGMAS))
    log_prior = draw(arrays(np.float64, (n, 4), elements=PRIORS)) if draw(st.booleans()) else 0.0
    return statistic, residuals, offsets, sigma, log_prior


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=plane_batches())
@example(
    case=(
        np.array([[0.0, -0.0], [-0.0, -0.0], [1.0, 2.0]]),
        np.array([[0.0, 0.0], [-0.0, 0.0], [1.0, 0.5], [-1.0, 0.5]]),
        np.zeros(4),
        5e-324,
        np.array([[0.0, -np.inf, -np.inf, -np.inf], [-np.inf] * 4, [0.0, 0.0, -np.inf, 0.0]]),
    )
)
def test_logits_equal_the_row_major_kernel_bit_for_bit(case):
    statistic, residuals, offsets, sigma, log_prior = case
    expected = row_major_logits(statistic, residuals, offsets, sigma, log_prior)
    per_row = residuals.ndim == 3
    got = _logits(
        np.ascontiguousarray(statistic.T),
        np.ascontiguousarray(residuals.transpose(1, 2, 0)) if per_row else residuals,
        np.ascontiguousarray(offsets.T) if per_row else offsets[:, np.newaxis],
        np.ravel(sigma) if np.ndim(sigma) else sigma,
        np.ascontiguousarray(log_prior.T) if np.ndim(log_prior) else log_prior,
    )
    assert got.shape == (4, len(statistic))
    assert np.array_equal(got.T.view(np.int64), expected.view(np.int64))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), dim=st.integers(1, 30), sigma=SIGMAS)
def test_logits_of_one_full_field_row_equal_the_row_major_kernel(data, dim, sigma):
    # infer_alice_state scores one (dim,) statistic against (4, dim) residuals.
    log_prior = data.draw(arrays(np.float64, (4,), elements=PRIORS))
    statistic = data.draw(arrays(np.float64, (dim,), elements=VALUES))
    residuals = data.draw(arrays(np.float64, (4, dim), elements=VALUES))
    offsets = data.draw(arrays(np.float64, (4,), elements=VALUES))
    expected = row_major_logits(statistic, residuals, offsets, sigma, log_prior)
    got = _logits(statistic, residuals, offsets, sigma, log_prior)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
